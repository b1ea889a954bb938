"""The project's pytest settings make a mistyped ini key or marker an error, not a warning."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = (Path(__file__).parents[1] / "pyproject.toml").read_text()
TABLE = "[tool.pytest.ini_options]\n"


@pytest.mark.parametrize(
    "key, test, message",
    [
        ("xfail_stict = true\n", "def test_a():\n    pass\n", "Unknown config option: xfail_stict"),
        ("", "import pytest\n\n@pytest.mark.slwo\ndef test_a():\n    pass\n", "'slwo' not found in `markers`"),
    ],
    ids=["ini-key", "marker"],
)
def test_a_typo_fails_collection(tmp_path, key, test, message):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.replace(TABLE, TABLE + key))
    (tmp_path / "test_a.py").write_text(test)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--collect-only", "test_a.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode != 0
    assert message in run.stdout + run.stderr


def test_a_leaked_warning_fails_the_test(tmp_path):
    """Every warning is an error, so a warning that a call lets escape fails its test."""
    (tmp_path / "pyproject.toml").write_text(PYPROJECT)
    (tmp_path / "test_a.py").write_text(
        "import warnings\n\n"
        "def test_user():\n    warnings.warn('leaked', UserWarning)\n\n"
        "def test_deprecation():\n    warnings.warn('leaked', DeprecationWarning)\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_a.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "2 failed" in run.stdout


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    """Reporting a failing hypothesis example imports libcst, whose import warning must not end the session."""
    (tmp_path / "pyproject.toml").write_text(PYPROJECT)
    (tmp_path / "test_a.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\ndef test_property(x):\n    assert x < 0\n\n"
        "def test_after():\n    pass\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_a.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
