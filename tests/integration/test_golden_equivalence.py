"""Golden-trace equivalence: the data path must be bit-identical to the seed.

``tests/golden/golden_traces.json`` was captured from the original
object-per-block implementation immediately before the flat-array
``CacheSetState`` refactor. These tests replay the exact same harnesses
(shared via :mod:`repro.goldens`) and assert every observable — miss counts,
theft/interference counters, reuse histograms, occupancy, exact eviction
sequences, and RNG draw counts — is unchanged. Any divergence means the
refactor altered behaviour, not just representation.

The captures are session-scoped fixtures so the whole matrix runs once per
pytest invocation regardless of how many assertions consume it.
"""

import json
from pathlib import Path

import pytest

from repro import goldens

GOLDEN_FILE = Path(__file__).resolve().parent.parent / "golden" / "golden_traces.json"

GOLDEN = json.loads(GOLDEN_FILE.read_text())

FULL_SIM_KEYS = sorted(GOLDEN["full_sim"])
FASTCACHE_KEYS = sorted(GOLDEN["fastcache"])
VICTIM_KEYS = sorted(GOLDEN["victim_sequences"])
MULTICORE_KEYS = sorted(GOLDEN["multicore"])
HYBRID_KEYS = sorted(GOLDEN["hybrid"])
HOOK_KEYS = sorted(GOLDEN["hooks"])


@pytest.fixture(scope="session")
def full_sim_capture():
    return goldens.full_sim_goldens()


@pytest.fixture(scope="session")
def fastcache_capture():
    return goldens.fastcache_goldens()


@pytest.fixture(scope="session")
def victim_capture():
    return goldens.victim_sequence_goldens()


@pytest.fixture(scope="session")
def multicore_capture():
    return goldens.multicore_goldens()


@pytest.fixture(scope="session")
def hybrid_capture():
    return goldens.hybrid_goldens()


@pytest.fixture(scope="session")
def hook_capture():
    return goldens.hook_goldens()


class TestMatrixPinned:
    """The harness constants must match what the golden file was built from."""

    def test_matrix_matches(self):
        assert GOLDEN["matrix"] == {
            "workloads": list(goldens.GOLDEN_WORKLOADS),
            "policies": list(goldens.GOLDEN_POLICIES),
            "seed": goldens.GOLDEN_SEED,
            "warmup": goldens.WARMUP,
            "sim": goldens.SIM,
            "p_induce": goldens.P_INDUCE,
        }

    def test_expected_config_counts(self):
        assert len(FULL_SIM_KEYS) == 18
        assert len(FASTCACHE_KEYS) == 18
        assert len(VICTIM_KEYS) == 12
        assert len(MULTICORE_KEYS) == 5

    def test_total_config_count(self):
        # The 53-config matrix every session-layer change must preserve.
        assert (len(FULL_SIM_KEYS) + len(FASTCACHE_KEYS) + len(VICTIM_KEYS)
                + len(MULTICORE_KEYS)) == 53

    def test_hybrid_config_count(self):
        # Captured separately (from the session-layer implementation that
        # introduced the context), one per replacement policy.
        assert len(HYBRID_KEYS) == 3

    def test_hook_config_count(self):
        # Six hook configs x {single-core, 2-core hybrid} x {events off, on}.
        assert len(HOOK_KEYS) == len(goldens.HOOK_CONFIGS) * 4 == 24


class TestFullSimEquivalence:
    """End-to-end simulate(): cycles, misses, thefts, histograms, IPC."""

    @pytest.mark.parametrize("key", FULL_SIM_KEYS)
    def test_config(self, full_sim_capture, key):
        assert key in full_sim_capture, f"capture missing config {key}"
        assert full_sim_capture[key] == GOLDEN["full_sim"][key]

    def test_no_extra_configs(self, full_sim_capture):
        assert sorted(full_sim_capture) == FULL_SIM_KEYS


class TestFastcacheEquivalence:
    """Cache-only host: accesses, misses, contention counters, histograms."""

    @pytest.mark.parametrize("key", FASTCACHE_KEYS)
    def test_config(self, fastcache_capture, key):
        assert key in fastcache_capture, f"capture missing config {key}"
        assert fastcache_capture[key] == GOLDEN["fastcache"][key]

    def test_no_extra_configs(self, fastcache_capture):
        assert sorted(fastcache_capture) == FASTCACHE_KEYS


class TestMulticoreEquivalence:
    """2nd-Trace host: per-core counters under the furthest-behind schedule."""

    @pytest.mark.parametrize("key", MULTICORE_KEYS)
    def test_config(self, multicore_capture, key):
        assert key in multicore_capture, f"capture missing config {key}"
        expected = GOLDEN["multicore"][key]
        actual = multicore_capture[key]
        assert sorted(actual) == sorted(expected)
        for core, observables in expected.items():
            assert actual[core] == observables, (
                f"{key}: {core} diverged")

    def test_no_extra_configs(self, multicore_capture):
        assert sorted(multicore_capture) == MULTICORE_KEYS


class TestHybridEquivalence:
    """Hybrid context: induced thefts on real co-runner contention."""

    @pytest.mark.parametrize("key", HYBRID_KEYS)
    def test_config(self, hybrid_capture, key):
        assert key in hybrid_capture, f"capture missing config {key}"
        expected = GOLDEN["hybrid"][key]
        actual = hybrid_capture[key]
        assert sorted(actual) == sorted(expected)
        for core, observables in expected.items():
            assert actual[core] == observables, (
                f"{key}: {core} diverged")

    def test_no_extra_configs(self, hybrid_capture):
        assert sorted(hybrid_capture) == HYBRID_KEYS


class TestHookEquivalence:
    """Periodic trigger, background DRAM and event-trace timestamps."""

    @pytest.mark.parametrize("key", HOOK_KEYS)
    def test_config(self, hook_capture, key):
        assert key in hook_capture, f"capture missing config {key}"
        expected = GOLDEN["hooks"][key]
        actual = hook_capture[key]
        assert sorted(actual) == sorted(expected)
        for field in expected:
            assert actual[field] == expected[field], (
                f"{key}: {field} diverged")

    def test_no_extra_configs(self, hook_capture):
        assert sorted(hook_capture) == HOOK_KEYS


class TestVictimSequenceEquivalence:
    """Exact eviction order, RNG draw counts, occupancy, per-owner reuse."""

    @pytest.mark.parametrize("key", VICTIM_KEYS)
    def test_config(self, victim_capture, key):
        assert key in victim_capture, f"capture missing config {key}"
        expected = GOLDEN["victim_sequences"][key]
        actual = victim_capture[key]
        assert sorted(actual) == sorted(expected)
        for field in expected:
            assert actual[field] == expected[field], (
                f"{key}: field {field!r} diverged")

    def test_no_extra_configs(self, victim_capture):
        assert sorted(victim_capture) == VICTIM_KEYS
