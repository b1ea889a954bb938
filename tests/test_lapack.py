"""graphit's LAPACK routines are scipy's own, loaded by `graphit._lapack` without the `scipy.linalg` package.

Importing `scipy.linalg` imports scipy's array-API layer and with it
`numpy.testing` and `numpy.f2py`, about half of a cold start; graphit needs
only `dpotrf`, `dpotrs` and `dtrtri` from its compiled wrapper. Each process
test runs in a fresh interpreter, since this one has imported scipy.linalg
already (the oracles use it). The last test keeps `_lapack` the package's only
scipy import.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "graphit"
ROUTINES = ("dpotrf", "dpotrs", "dtrtri")
HEAVY = ("scipy.linalg", "numpy.testing", "numpy.f2py")


def _run(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports graphit from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env)


def test_a_cold_start_imports_no_scipy_linalg():
    """Importing graphit and its CLI and running one lone fit leaves scipy.linalg, numpy.testing and f2py unloaded."""
    run = _run(f"""
        import sys
        import numpy as np
        import graphit, graphit.cli
        from graphit import EstimatorConfig, ModelParams, Potential, default_init, generate_sparse_A, simulate

        params = ModelParams(A=generate_sparse_A(3, S=2, target_norm=0.9, seed=0), H=np.eye(3), Q=0.01 * np.eye(3),
                             R=0.01 * np.eye(3), mu0=np.zeros(3), Sigma0=1e-8 * np.eye(3))
        cfg = EstimatorConfig(potential=Potential("log-sum", gamma=10.0, lam=0.1), max_outer=5)
        result = graphit.graphit(simulate(params, K=50, seed=1).observations, params, default_init(3), cfg)
        assert np.isfinite(result.A_hat).all()
        print(sorted(name for name in {HEAVY!r} if name in sys.modules))
    """)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("first", ["graphit", "scipy.linalg.lapack"])
def test_the_routines_are_scipys_in_either_import_order(first):
    """`graphit.kalman`'s routines are the objects `scipy.linalg.lapack` hands out, so their results keep their bits."""
    second = "scipy.linalg.lapack" if first == "graphit" else "graphit"
    run = _run(f"""
        import {first}
        import {second}
        import graphit.kalman
        import scipy.linalg
        for name in {ROUTINES!r}:
            assert getattr(graphit.kalman, name) is getattr(scipy.linalg.lapack, name), name
        assert scipy.linalg.cholesky([[4.0, 0.0], [0.0, 1.0]])[0, 0] == 2.0
    """)
    assert (run.returncode, run.stderr) == (0, "")


def test_a_missing_wrapper_is_an_import_error_that_names_the_directory(tmp_path):
    """With no `_flapack` in scipy's linalg directory, loading fails with scipy's version and that directory."""
    run = _run(f"""
        import scipy
        scipy.__path__ = [{str(tmp_path)!r}]
        try:
            import graphit
        except ImportError as err:
            print(err)
    """)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("scipy ")
    assert run.stdout.endswith(f" has no scipy.linalg._flapack extension in {tmp_path / 'linalg'}\n")


def _scipy_imports(path: Path) -> list[int]:
    """The lines of `path` that import scipy or a module of it, by `import` or `from ... import`."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return lines


def test_only_the_lapack_module_imports_scipy():
    """scipy has one owner, so no module brings back the `scipy.linalg` package import."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: lines for path in modules if (lines := _scipy_imports(path))}
    assert list(found) == ["_lapack.py"]
