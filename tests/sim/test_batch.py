"""Tests for job manifests and running a batch of jobs."""

import pytest

from repro.campaign.engine import RetryPolicy, run_campaign
from repro.sim import ExperimentScale
from repro.sim.batch import Job, campaign_jobs, run_job

TINY = ExperimentScale(warmup_instructions=500, sim_instructions=2_000,
                       sample_interval=500)


def run_jobs(jobs, config, processes):
    """Jobs through the campaign engine: no retries, failures raise."""
    return run_campaign(jobs, config, TINY, processes=processes,
                        retry=RetryPolicy(max_attempts=1),
                        raise_on_failure=True).results


class TestJob:
    def test_isolation_default(self):
        job = Job("470.lbm")
        assert job.mode == "isolation"

    def test_pinte_needs_p(self):
        with pytest.raises(ValueError, match="p_induce"):
            Job("470.lbm", mode="pinte")

    def test_pair_needs_co_runner(self):
        with pytest.raises(ValueError, match="co_runner"):
            Job("470.lbm", mode="pair")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            Job("470.lbm", mode="oracle")

    @pytest.mark.parametrize("field, value", [
        ("p_induce", 0.5),
        ("co_runner", "605.mcf"),
        ("co_seed", 3),
        ("co_runners", ("605.mcf",)),
        ("scheme", "static"),
        ("repartition_interval", 2_000),
    ])
    def test_isolation_refuses_fields_it_ignores(self, field, value):
        with pytest.raises(ValueError,
                           match=f"{field} is not valid for isolation jobs"):
            Job("470.lbm", **{field: value})

    @pytest.mark.parametrize("mode, kwargs, field", [
        ("pinte", {"p_induce": 0.5, "co_runner": "605.mcf"}, "co_runner"),
        ("pinte", {"p_induce": 0.5, "co_seed": 3}, "co_seed"),
        ("pinte", {"p_induce": 0.5, "scheme": "ucp"}, "scheme"),
        ("pair", {"co_runner": "605.mcf", "scheme": "ucp"}, "scheme"),
        ("pair", {"co_runner": "605.mcf", "co_runners": ("429.mcf",)},
         "co_runners"),
        ("pair", {"co_runner": "605.mcf", "repartition_interval": 100},
         "repartition_interval"),
        ("multi", {"co_runners": ("605.mcf",), "co_runner": "429.mcf"},
         "co_runner"),
    ])
    def test_mode_refuses_fields_it_ignores(self, mode, kwargs, field):
        with pytest.raises(ValueError,
                           match=f"{field} is not valid for {mode} jobs"):
            Job("470.lbm", mode=mode, **kwargs)

    @pytest.mark.parametrize("mode, kwargs", [
        ("isolation", {}),
        ("pair", {"co_runner": "605.mcf"}),
        ("multi", {"co_runners": ("605.mcf",)}),
    ])
    def test_pinte_seed_needs_p_induce(self, mode, kwargs):
        with pytest.raises(ValueError,
                           match=f"pinte_seed is not valid for {mode} jobs "
                                 "without p_induce"):
            Job("470.lbm", mode=mode, pinte_seed=1_000, **kwargs)

    def test_every_field_accepted_where_it_is_used(self):
        Job("470.lbm", trace_seed=2)
        Job("470.lbm", mode="pinte", p_induce=0.5, pinte_seed=1_000,
            trace_seed=2)
        Job("470.lbm", mode="pair", co_runner="605.mcf", co_seed=3,
            p_induce=0.5, pinte_seed=1_000)
        Job("470.lbm", mode="multi", co_runners=("605.mcf",), co_seed=3,
            p_induce=0.5, pinte_seed=1_000, scheme="ucp",
            repartition_interval=2_000)


class TestRunJob:
    def test_isolation(self, config):
        result = run_job(Job("435.gromacs"), config, TINY)
        assert result.mode == "isolation"
        assert result.instructions == 2_000

    def test_pinte(self, config):
        result = run_job(Job("470.lbm", mode="pinte", p_induce=0.5),
                         config, TINY)
        assert result.mode == "pinte"
        assert result.thefts_experienced > 0

    def test_pair(self, config):
        result = run_job(Job("470.lbm", mode="pair", co_runner="450.soplex"),
                         config, TINY)
        assert result.mode == "2nd-trace"
        assert result.co_runner == "450.soplex"


class TestRunBatch:
    def test_inline_order_preserved(self, config):
        jobs = [Job("435.gromacs"), Job("453.povray")]
        results = run_jobs(jobs, config, processes=1)
        assert [r.trace_name for r in results] == ["435.gromacs",
                                                   "453.povray"]

    def test_parallel_matches_inline(self, config):
        jobs = [Job("435.gromacs"),
                Job("470.lbm", mode="pinte", p_induce=0.3)]
        inline = run_jobs(jobs, config, processes=1)
        parallel = run_jobs(jobs, config, processes=2)
        for a, b in zip(inline, parallel):
            assert a.trace_name == b.trace_name
            assert a.ipc == b.ipc  # fully deterministic across processes
            assert a.thefts_experienced == b.thefts_experienced

    def test_single_job_runs_inline(self, config):
        results = run_jobs([Job("435.gromacs")], config, processes=8)
        assert len(results) == 1


class TestCampaignJobs:
    def test_three_contexts(self):
        jobs = campaign_jobs(["a", "b"], p_values=(0.1, 0.5),
                             panel={"a": ["b"], "b": ["a"]})
        modes = [(j.workload, j.mode) for j in jobs]
        assert modes.count(("a", "isolation")) == 1
        assert modes.count(("a", "pinte")) == 2
        assert modes.count(("a", "pair")) == 1
        assert len(jobs) == 8

    def test_isolation_optional(self):
        jobs = campaign_jobs(["a"], p_values=(0.5,), include_isolation=False)
        assert all(j.mode == "pinte" for j in jobs)
