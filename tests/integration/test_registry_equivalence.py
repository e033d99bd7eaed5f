"""Registry reports byte-identical to the pinned report goldens.

``tests/golden/golden_traces.json`` holds, under ``reports``, every
artifact as the seed serial drivers rendered it, captured before those
drivers were folded into the artifact registry (see
:func:`repro.goldens.report_goldens`). These tests render all thirteen
artifacts through the registry's plan → execute → aggregate → render
pipeline, and the bundle artifacts through the public reproduce loop,
and assert the report text is byte-identical.

Wall-clock metrics (Table I and the n-core study render per-run seconds)
would differ between runs on a real clock, so every render runs under
the deterministic fake ``time.perf_counter`` the goldens were captured
with.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import goldens
from repro.experiments.reproduce import run_reproduction

GOLDEN_FILE = (Path(__file__).resolve().parent.parent / "golden"
               / "golden_traces.json")
REPORTS = json.loads(GOLDEN_FILE.read_text())["reports"]["artifacts"]


@pytest.fixture(scope="module")
def registry_texts():
    """Every artifact through plan -> execute -> aggregate -> render."""
    with goldens.fake_perf_counter():
        return goldens.artifact_reports()


@pytest.mark.parametrize("artifact", goldens.REPORT_ARTIFACTS)
def test_artifact_byte_identical(registry_texts, artifact):
    assert registry_texts[artifact] == REPORTS[artifact]


def test_run_reproduction_matches_seed_bundle_reports():
    """The public reproduce loop renders the same bundle reports."""
    with goldens.fake_perf_counter():
        reports = run_reproduction(scale=goldens.REPORT_SCALE,
                                   suite=goldens.REPORT_SUITE,
                                   p_values=goldens.REPORT_P_VALUES,
                                   panel_size=goldens.REPORT_PANEL)
    for artifact, text in reports.items():
        assert text == REPORTS[artifact], artifact
