"""Rewrite tests/golden: the deterministic outputs of `bench` and `grid` on every shipped config.

Run from the repository root, only at a commit whose outputs are the
accepted ones (`tests/test_golden.py` compares later commits to them):

    PYTHONPATH=src python3 tests/make_golden.py

It takes about 20 s on two cores. Like `perfbench/reference.json`, the bytes
assume one numpy and scipy build; `versions.json` records which, with the
BLAS each was built against.

The shipped outputs print rounded numbers, so `fingerprints.json` also
records the sha256 of full-precision bytes: the A_hat and objective trace of
lone fits, and quick's `graphit` grid table (`fingerprints`).
"""

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import scipy

from graphit.algorithms import default_init
from graphit.cli import _fit, _realization_data, grid_search, main
from graphit.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
VERSIONS = GOLDEN / "versions.json"
FINGERPRINTS = GOLDEN / "fingerprints.json"
CONFIGS = sorted(path.stem for path in (ROOT / "configs").glob("*.cfg"))
GRIDS = ("graphit", "graphem")  # every shipped config has a grid for each
# The realizations of each config whose lone fits `fingerprints` records.
FINGERPRINTED = {"quick": range(4), "table2_8_4": range(2)}


def _blas(module) -> str:
    """The BLAS build `module` was linked against, read as `perfbench/run.py::metadata` reads numpy's."""
    blas = {}
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # show_config's layout is not a stable interface
        pass
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def versions() -> dict[str, str]:
    """The numpy and scipy versions of this process and the BLAS build of each.

    The E-step's settled products pass a contiguous copy of a transposed
    operand; the bytes rest on the BLAS giving such a tall product the same
    result as with the transposed view, as OpenBLAS does here.
    """
    return {"numpy": np.__version__, "scipy": scipy.__version__, "numpy_blas": _blas(np), "scipy_blas": _blas(scipy)}


def _run(argv: list[str]) -> str:
    """The standard output of `graphit ARGV`, which must exit with 0."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"graphit {' '.join(argv)} exited with {code}")
    return stdout.getvalue()


def outputs(config: str) -> dict[str, bytes]:
    """{file name: bytes} of `bench` and of `grid --method M` for each of GRIDS on configs/CONFIG.cfg.

    `bench` writes `results.csv` and the `graph_*.dot` files; its
    `results_with_times.csv` holds wall times and is left out. Each grid
    writes `grid_<method>.csv`, and `best.txt` holds the best lines they print.
    """
    path = str(ROOT / "configs" / f"{config}.cfg")
    with tempfile.TemporaryDirectory() as tmp:
        bench = Path(tmp) / "bench"
        _run(["bench", path, "--out", str(bench)])
        files = {out.name: out.read_bytes() for out in sorted(bench.iterdir()) if out.name != "results_with_times.csv"}
        best = []
        for method in GRIDS:
            table = Path(tmp) / f"grid_{method}.csv"
            best.append(_run(["grid", path, "--method", method, "--out", str(table)]))
            files[table.name] = table.read_bytes()
    files["best.txt"] = "".join(best).encode()
    return files


def _sha256(array) -> str:
    return hashlib.sha256(np.asarray(array, dtype=float).tobytes()).hexdigest()


def fingerprints() -> dict[str, str]:
    """{fit: sha256 of its bytes} for the lone fits of FINGERPRINTED and quick's graphit grid.

    Each method of a config is fitted alone from `default_init`, as `bench`
    fits it, on each listed realization; "<config>/<r>/<method>/A_hat" and
    ".../trace" hash its A_hat and objective trace as float64 bytes.
    "quick/grid_graphit" hashes the rmse column of quick's `graphit` grid
    table, whose fits run in lockstep. It takes about 1 s.
    """
    found = {}
    for config, realizations in FINGERPRINTED.items():
        scenario = load_scenario(ROOT / "configs" / f"{config}.cfg")
        for r in realizations:
            _, params, trajectory = _realization_data(scenario, r)
            A0 = default_init(scenario.n_x)
            for method in scenario.methods:
                potentials = [scenario.potentials.get(method)]
                [result] = _fit(method, scenario, params, trajectory.observations, A0, potentials)
                found[f"{config}/{r}/{method}/A_hat"] = _sha256(result.A_hat)
                found[f"{config}/{r}/{method}/trace"] = _sha256(result.objective_trace)
    quick = load_scenario(ROOT / "configs" / "quick.cfg")
    _, table = grid_search(quick, "graphit", quick.grids["graphit"])
    found["quick/grid_graphit"] = _sha256([score for _, score in table])
    return found


def write() -> None:
    for config in CONFIGS:
        directory = GOLDEN / config
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        for name, data in outputs(config).items():
            (directory / name).write_bytes(data)
        print(config, "written", flush=True)
    FINGERPRINTS.write_text(json.dumps(fingerprints(), indent=1) + "\n")
    VERSIONS.write_text(json.dumps(versions(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write()
