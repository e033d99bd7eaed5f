"""Tests for the partitioning extension study."""

import json
from pathlib import Path

import pytest

from repro.experiments import partition_study
from repro.sim import ExperimentScale

TINY = ExperimentScale(warmup_instructions=1_500, sim_instructions=8_000,
                       sample_interval=2_000)
GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "golden"
                     / "golden_traces.json").read_text())


@pytest.fixture(scope="module")
def study(config):
    return partition_study.run_partition_study(
        config, TINY, repartition_interval=2_000)


class TestStudy:
    def test_all_schemes_present(self, study):
        assert set(study.outcomes) == set(partition_study.SCHEMES)

    def test_shared_suffers_thefts(self, study):
        assert study.outcome("shared").victim_thefts > 0

    def test_static_eliminates_thefts(self, study):
        assert study.outcome("static").victim_thefts == 0

    def test_casht_eliminates_thefts(self, study):
        assert study.outcome("casht").victim_thefts == 0

    def test_partitioning_improves_fairness(self, study):
        shared_fairness = study.outcome("shared").throughput["fairness"]
        static_fairness = study.outcome("static").throughput["fairness"]
        assert static_fairness > shared_fairness

    def test_quotas_reported_for_partitioned_schemes(self, study, config):
        assert study.outcome("shared").final_quotas == {}
        static_quotas = study.outcome("static").final_quotas
        assert sum(static_quotas.values()) == config.llc.assoc

    def test_throughput_keys(self, study):
        for outcome in study.outcomes.values():
            assert set(outcome.throughput) == {
                "weighted_speedup", "harmonic_mean_speedup", "fairness"}

    def test_report_renders(self, study):
        text = partition_study.format_report(study)
        assert "Partitioning study" in text
        assert "casht" in text

    def test_report_matches_golden(self, study):
        """Byte-identical to the report the seed serial study rendered."""
        assert (partition_study.format_report(study)
                == GOLDEN["reports"]["studies"]["partition_study"])

    def test_unknown_scheme_rejected(self, config):
        with pytest.raises(ValueError, match="unknown scheme"):
            partition_study.run_partition_study(
                config, TINY, schemes=("nucp",))
