"""The repository's pytest settings turn a misspelt marker into a collection
error: a project that carries ``pyproject.toml``'s ``[tool.pytest.ini_options]``
table runs a marked test in a fresh pytest process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SECTION = "[tool.pytest.ini_options]"


def _ini_section() -> str:
    """The ``[tool.pytest.ini_options]`` table of the repository's
    ``pyproject.toml``, as written there."""
    lines = PYPROJECT.read_text(encoding="utf-8").splitlines()
    start = lines.index(SECTION)
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    return "\n".join(lines[start:end]) + "\n"


def _run_marked(tmp_path: Path, marker: str, *options: str) -> subprocess.CompletedProcess:
    (tmp_path / "pyproject.toml").write_text(_ini_section(), encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_marked.py").write_text(
        f"import pytest\n\n\n@pytest.mark.{marker}\ndef test_marked():\n    pass\n", encoding="utf-8"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTEST_")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("marker, fails", [("slwo", True), ("slow", False)])
def test_misspelt_marker_fails_collection(tmp_path, marker, fails):
    # filterwarnings = ["error"] turns pytest's unknown-mark warning into a
    # collection error; the registered marker runs
    run = _run_marked(tmp_path, marker)
    if fails:
        assert run.returncode == pytest.ExitCode.INTERRUPTED, run.stdout
        assert "Unknown pytest.mark.slwo" in run.stdout
    else:
        assert run.returncode == pytest.ExitCode.OK, run.stdout + run.stderr
        assert "1 passed" in run.stdout


@pytest.mark.skipif(pytest.version_tuple < (9,), reason="the no-op flag was seen under pytest 9")
def test_strict_markers_in_addopts_alone_lets_a_misspelt_marker_through(tmp_path):
    # under pytest 9, addopts = "--strict-markers" does not reach the
    # strict_markers setting: with the warning filter emptied the misspelt
    # marker only warns, so the filter above is what catches it
    run = _run_marked(tmp_path, "slwo", "-o", "filterwarnings=")
    assert run.returncode == pytest.ExitCode.OK, run.stdout + run.stderr
    assert "PytestUnknownMarkWarning" in run.stdout
