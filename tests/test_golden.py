"""`bench` and `grid` on every shipped config write the bytes committed under tests/golden.

This is the "same results" rule: a change that moves a shipped output on
purpose rewrites the files with `tests/make_golden.py` and says which rows
moved. The shipped outputs are rounded, so `fingerprints.json` also pins the
full-precision bytes of some fits. The bytes assume the numpy and scipy
builds in `versions.json`, so a failure names both those and the ones of
this run.
"""

import json

import pytest

import make_golden


def _versions_message() -> str:
    recorded = json.loads(make_golden.VERSIONS.read_text(encoding="utf-8"))
    return f"golden files made with {recorded}, this run has {make_golden.versions()}"


@pytest.mark.parametrize("config", make_golden.CONFIGS)
def test_shipped_outputs_match_the_golden_files(config):
    golden = {path.name: path.read_bytes() for path in sorted((make_golden.GOLDEN / config).iterdir())}
    written = make_golden.outputs(config)
    assert sorted(written) == sorted(golden)
    moved = [name for name in golden if written[name] != golden[name]]
    assert moved == [], _versions_message()


def test_fit_bytes_match_the_fingerprints():
    recorded = json.loads(make_golden.FINGERPRINTS.read_text(encoding="utf-8"))
    found = make_golden.fingerprints()
    assert sorted(found) == sorted(recorded)
    moved = [name for name in recorded if found[name] != recorded[name]]
    assert moved == [], _versions_message()
