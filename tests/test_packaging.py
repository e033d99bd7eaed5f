"""Packaging metadata agrees with the interpreters CI actually tests."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _version(text: str) -> tuple:
    return tuple(int(part) for part in text.split("."))


def test_python_floor_matches_lowest_ci_python():
    """``requires-python`` must name the oldest interpreter CI runs: a
    lower floor promises versions nothing checks (the code needs 3.10
    for ``dataclass(slots=True)``), a higher one excludes a tested one."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', pyproject,
                      re.MULTILINE).group(1)
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    declared = re.findall(r'python-version:\s*(\[[^\]]*\]|"[\d.]+")', ci)
    versions = [version for value in declared
                for version in re.findall(r"\d+\.\d+", value)]
    assert versions, "no literal python-version in ci.yml"
    assert _version(floor) == min(_version(v) for v in versions)
