import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import Future
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphit.cli as cli
from graphit import ConfigError, NonFiniteError, Potential, SingularStatisticsError, Trajectory
from graphit.cli import _run_realization, grid_search, main, run_benchmark
from graphit.export import BenchmarkRow, _fmt5, export_csv, export_dot
from graphit.scenario import Scenario, load_scenario

ROOT = Path(__file__).resolve().parents[1]


def small_scenario(**overrides):
    base = dict(
        scenario_id="unit",
        n_x=4,
        n_y=4,
        s=3,
        k=50,
        sigma_q=0.1,
        sigma_r=0.1,
        sigma_0=1e-4,
        n_realizations=1,
        master_seed=3,
        methods=("graphit", "graphem", "mlem"),
        potentials={
            "graphit": Potential("log-sum", gamma=10.0, lam=0.1),
            "graphem": Potential("l1", gamma=10.0),
        },
    )
    base.update(overrides)
    return Scenario(**base)


def nan_observations(monkeypatch):
    """Make every simulated trajectory carry one NaN observation."""
    simulate = cli.simulate

    def simulate_with_nan(*args, **kwargs):
        trajectory = simulate(*args, **kwargs)
        observations = trajectory.observations.copy()
        observations[3, 0] = np.nan
        return Trajectory(states=trajectory.states, observations=observations)

    monkeypatch.setattr(cli, "simulate", simulate_with_nan)


def overflowing_init(monkeypatch):
    """Start every fit from A = 1e160 I, whose first prediction overflows."""
    monkeypatch.setattr(cli, "default_init", lambda n: 1e160 * np.eye(n))


NON_FINITE_CASES = [nan_observations, overflowing_init]


QUICK_CFG = """\
[scenario]
id = quick
n_x = 4
n_y = 4
s = 3
k = 60
sigma_q = 0.1
sigma_r = 0.1
sigma_0 = 1e-4
n_realizations = 2
master_seed = 7
methods = graphit graphem mlem

[potential.graphit]
family = log-sum
gamma = 10
lambda = 0.1

[potential.graphem]
gamma = 10
"""


# Exact bytes of `grid`, `curve` and `export-dot`, recorded before their
# writers were merged into one.
GRID_TABLE = (
    "method,hyperparams,rmse\n"
    "graphem,1.0000,0.70466\n"
    "graphem,10.000,0.67617\n"
)
GRID_BEST = "best graphem: 10.000\n"
CURVE_LOG_SUM = (
    "u,rho\n"
    "0.0000,0.0000\n"
    "0.20000,0.16824\n"
    "0.40000,0.29389\n"
    "0.60000,0.39423\n"
    "0.80000,0.47776\n"
    "1.0000,0.54931\n"
    "1.2000,0.61189\n"
    "1.4000,0.66750\n"
    "1.6000,0.71754\n"
    "1.8000,0.76303\n"
    "2.0000,0.80472\n"
)
DOT_MATRIX = "0.0,0.7,-1.25\n0.0,0.0,3e-11\n1e-3,0.0,12345.678\n"
DOT = (
    "digraph transition {\n"
    "  1;\n"
    "  2;\n"
    "  3;\n"
    '  1 -> 3 [label="0.0010000"];\n'
    '  2 -> 1 [label="0.70000"];\n'
    '  3 -> 1 [label="-1.2500"];\n'
    '  3 -> 3 [label="12346"];\n'
    "}\n"
)


def run_main(tmp_path, capsys, argv, to_file):
    """Run a command that must succeed; return (bytes written to --out or None, stdout)."""
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)] if to_file else argv) == 0
    return (out.read_bytes() if to_file else None), capsys.readouterr().out


class TestScenarioValidation:
    def test_methods_must_be_known(self):
        with pytest.raises(ConfigError):
            small_scenario(methods=("newton",))

    def test_penalized_methods_need_potentials(self):
        with pytest.raises(ConfigError):
            small_scenario(potentials={})

    def test_graphem_takes_l1_only(self):
        """As in the config reader: a non-l1 graphem potential is a ConfigError, not a raw error in the harness."""
        potentials = {"graphem": Potential("log-sum", gamma=1.0, lam=0.1)}
        with pytest.raises(ConfigError, match="^graphem uses the l1 potential only$"):
            small_scenario(methods=("graphem",), potentials=potentials)
        with pytest.raises(ConfigError, match="^graphem uses the l1 potential only$"):
            dataclasses.replace(small_scenario(methods=("graphem",)), potentials=potentials)

    def test_support_range(self):
        with pytest.raises(ConfigError):
            small_scenario(s=17)

    def test_positive_sigmas(self):
        with pytest.raises(ConfigError):
            small_scenario(sigma_q=0.0)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("n_x", 2.5, r"^n_x must be >= 1 and an integer, got 2\.5$"),
            ("n_y", 4.0, r"^n_y must be >= 1 and an integer, got 4\.0$"),
            ("k", 10.5, r"^k must be >= 1 and an integer, got 10\.5$"),
            ("k", 0, r"^k must be >= 1 and an integer, got 0$"),
            ("n_realizations", 1.5, r"^n_realizations must be >= 1 and an integer, got 1\.5$"),
            ("s", 2.5, r"^s must be an integer in \[1, 16\], got 2\.5$"),
            ("s", 17, r"^s must be an integer in \[1, 16\], got 17$"),
            ("master_seed", 2.5, r"^master_seed must be an integer >= 0, got 2\.5$"),
            ("master_seed", -1, r"^master_seed must be an integer >= 0, got -1$"),
            ("k", True, r"^k must be >= 1 and an integer, got True$"),
            ("n_realizations", True, r"^n_realizations must be >= 1 and an integer, got True$"),
            ("s", True, r"^s must be an integer in \[1, 16\], got True$"),
            ("master_seed", True, r"^master_seed must be an integer >= 0, got True$"),
            ("max_outer", True, r"^max_outer must be >= 1 and an integer, got True$"),
        ],
    )
    def test_sizes_and_seed_are_integers(self, field, value, match):
        """A non-integer size or seed is a ConfigError naming the field, also from `dataclasses.replace`
        (as on the way to `run_benchmark`), not a raw error inside the harness."""
        with pytest.raises(ConfigError, match=match):
            small_scenario(**{field: value})
        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(small_scenario(), **{field: value})


class TestLoadScenario:
    def test_parses_quick_config(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG)
        scenario = load_scenario(cfg)
        assert scenario.scenario_id == "quick"
        assert scenario.n_x == 4 and scenario.s == 3 and scenario.k == 60
        assert scenario.methods == ("graphit", "graphem", "mlem")
        assert scenario.potentials["graphit"].family == "log-sum"
        assert scenario.potentials["graphem"].family == "l1"
        assert scenario.epsilon == 1e-3 and scenario.max_outer == 50

    def test_overrides_apply(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG)
        scenario = load_scenario(cfg, {"master_seed": 99, "n_realizations": 1})
        assert scenario.master_seed == 99
        assert scenario.n_realizations == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "absent.cfg")

    def test_missing_scenario_section(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[potential.graphit]\nfamily = l1\ngamma = 1\n")
        with pytest.raises(ConfigError):
            load_scenario(cfg)

    def test_unparsable_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(QUICK_CFG.replace("k = 60", "k = sixty"))
        with pytest.raises(ConfigError, match="k"):
            load_scenario(cfg)

    def test_graphem_family_must_be_l1(self, tmp_path):
        """`Scenario` reports it, with graphem's own message; the reader keeps no copy of the rule."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(QUICK_CFG + "family = mcp\nlambda = 1\n")
        with pytest.raises(ConfigError, match="^graphem uses the l1 potential only$"):
            load_scenario(cfg)

    def test_repo_configs_parse(self):
        root = ROOT / "configs"
        for cfg in sorted(root.glob("*.cfg")):
            scenario = load_scenario(cfg)
            assert scenario.n_realizations >= 1

    def test_readme_config_example_loads(self, tmp_path):
        """The README's documented config, comments included, is a file that `load_scenario` reads."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### Scenario config files"):]
        cfg = tmp_path / "example.cfg"
        cfg.write_text(re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1))
        scenario = load_scenario(cfg)
        assert (scenario.scenario_id, scenario.n_x, scenario.n_y, scenario.s, scenario.k) == ("table2-8-4", 8, 8, 4, 1000)
        assert (scenario.n_realizations, scenario.master_seed, scenario.target_norm) == (10, 2027, 0.9)
        assert scenario.potentials["graphit"] == Potential("log-sum", gamma=100.0, lam=0.0316)
        assert len(scenario.grids["graphit"]) == 15 and len(scenario.grids["graphem"]) == 5


class TestRunBenchmark:
    def test_smoke_three_rows(self):
        rows = run_benchmark(small_scenario())
        assert len(rows) == 3
        assert {r.method for r in rows} == {"graphit", "graphem", "mlem"}
        for row in rows:
            assert math.isfinite(row.rmse)
            assert 0.0 <= row.accuracy <= 1.0
            assert 0.0 <= row.f1 <= 1.0
            assert row.time_s >= 0.0
            assert row.realizations == 1

    def test_deterministic_csv(self):
        scenario = small_scenario(n_realizations=2)
        a = export_csv(run_benchmark(scenario), include_times=False)
        b = export_csv(run_benchmark(scenario), include_times=False)
        assert a == b

    def test_parallel_matches_serial(self):
        scenario = small_scenario(n_realizations=3)
        serial = export_csv(run_benchmark(scenario, jobs=1), include_times=False)
        parallel = export_csv(run_benchmark(scenario, jobs=2), include_times=False)
        assert serial == parallel

    @pytest.mark.filterwarnings("ignore:.*realizations failed:UserWarning")
    @settings(max_examples=6)
    @given(seed=st.integers(0, 2**16), n_x=st.integers(2, 4), k=st.integers(10, 60))
    def test_results_csv_bytes_do_not_depend_on_jobs(self, tmp_path_factory, seed, n_x, k):
        sizes = "n_x = 4\nn_y = 4\ns = 3\nk = 60\n"
        assert sizes in QUICK_CFG
        cfg = tmp_path_factory.mktemp("jobs") / "quick.cfg"
        cfg.write_text(QUICK_CFG.replace(sizes, f"n_x = {n_x}\nn_y = {n_x}\ns = 2\nk = {k}\n"))
        tables = []
        for jobs in (1, 2):
            out = cfg.parent / f"jobs{jobs}"
            code = main(["bench", str(cfg), "--out", str(out), "--jobs", str(jobs), "--seed", str(seed)])
            assert code in (0, 2)  # 2: every realization failed, which must not depend on jobs either
            tables.append((code, (out / "results.csv").read_bytes() if code == 0 else None))
        assert tables[0] == tables[1]

    @pytest.mark.filterwarnings("ignore:.*realizations failed:UserWarning")
    @settings(max_examples=6)
    @given(seed=st.integers(0, 2**16), methods=st.permutations(["graphit", "graphem", "mlem"]))
    def test_method_rows_do_not_depend_on_method_order(self, seed, methods):
        def rows(order):
            scenario = small_scenario(master_seed=seed, n_realizations=2, k=30, methods=tuple(order))
            lines = export_csv(run_benchmark(scenario), include_times=False).splitlines()[1:]
            return {line.split(",")[1]: line for line in lines}

        assert rows(methods) == rows(["graphit", "graphem", "mlem"])

    def test_pool_size_is_capped_by_task_count(self, monkeypatch):
        started = []

        class InlineExecutor:
            """Records its worker count and runs each task at submission."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
        assert cli._map(pow, [(2, 3), (3, 2)], 500) == [8, 9]
        assert cli._map(pow, [(2, 3), (3, 2), (2, 2)], 2) == [8, 9, 4]
        assert cli._map(pow, [(2, 3)], 500) == [8]  # one task runs serially
        assert started == [2, 2]

    def test_failures_recorded_not_raised(self):
        # N_y > N_x with negligible observation noise makes the predictive
        # covariance rank deficient, so every estimator run fails.
        scenario = small_scenario(
            n_y=5,
            sigma_r=1e-15,
            methods=("mlem",),
            potentials={},
        )
        with pytest.warns(UserWarning, match="failed"):
            rows = run_benchmark(scenario)
        assert rows[0].realizations == 0
        assert math.isnan(rows[0].rmse)

    def test_failure_warning_says_which_realization_failed_and_why(self, monkeypatch):
        mlem, calls = cli.mlem, []

        def mlem_failing_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise SingularStatisticsError(4)
            return mlem(*args)

        monkeypatch.setattr(cli, "mlem", mlem_failing_second)
        scenario = small_scenario(n_realizations=3, methods=("mlem",), potentials={})
        message = "1 of 3 realizations failed for method mlem (realization 1: {})".format(SingularStatisticsError(4))
        with pytest.warns(UserWarning, match=f"^{re.escape(message)}$"):
            rows = run_benchmark(scenario)
        assert rows[0].realizations == 2


    @pytest.mark.parametrize("inject", NON_FINITE_CASES)
    def test_non_finite_fit_counts_as_failed(self, monkeypatch, inject):
        inject(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = _run_realization(small_scenario(), 0)
        for method in ("graphit", "graphem", "mlem"):
            entry = outcome["methods"][method]
            assert entry["ok"] is False
            assert "non-finite" in entry["error"] or "NaN" in entry["error"]


def l1(gamma):
    return Potential("l1", gamma=gamma)


class TestGridSearch:
    def test_single_tuple_grid(self):
        scenario = small_scenario()
        best, table = grid_search(scenario, "graphem", [l1(10.0)])
        assert best == l1(10.0)
        assert len(table) == 1

    def test_duplicated_best_first_occurrence(self):
        scenario = small_scenario()
        grid = [l1(10.0), l1(10.0), l1(1000.0)]
        best, table = grid_search(scenario, "graphem", grid)
        assert best is grid[0]
        assert table[0][1] == table[1][1]

    def test_matches_exhaustive_oracle(self):
        from graphit import default_init, graphem, rmse as rel_error
        from graphit.algorithms import EstimatorConfig
        from graphit.cli import _realization_data

        grid = [l1(1.0), l1(10.0), l1(100.0)]
        agreements = 0
        for seed in range(5):
            scenario = small_scenario(master_seed=seed, k=80)
            # independent exhaustive evaluation of the same tuning realization
            A_true, params, traj = _realization_data(scenario, 0)
            scores = []
            for potential in grid:
                cfg = EstimatorConfig(
                    potential=potential,
                    epsilon=scenario.epsilon,
                    max_outer=scenario.max_outer,
                    dr=scenario.dr,
                )
                res = graphem(traj.observations, params, default_init(scenario.n_x), cfg)
                scores.append(rel_error(res.A_hat, A_true))
            oracle_best = grid[int(np.argmin(scores))]
            best, _ = grid_search(scenario, "graphem", grid)
            agreements += best == oracle_best
        assert agreements >= 4  # >= 80 percent of seeds

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            grid_search(small_scenario(), "graphem", [])

    def test_mlem_rejected(self):
        with pytest.raises(ConfigError):
            grid_search(small_scenario(), "mlem", [l1(1.0)])

    def test_graphem_rejects_a_non_l1_point(self):
        grid = [l1(1.0), Potential("log-sum", gamma=1.0, lam=0.1)]
        with pytest.raises(ConfigError, match="^graphem uses the l1 potential only$"):
            grid_search(small_scenario(), "graphem", grid)

    def test_config_grid_is_the_gamma_by_shape_product_in_file_order(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            QUICK_CFG.replace("family = log-sum\ngamma = 10\nlambda = 0.1\n", "family = scad\ngamma = 10\na = 3.7\n")
            + "\n[grid.graphit]\ngamma = 5 1\na = 4 2.5 3\n"
            + "\n[grid.graphem]\ngamma = 3 1 2\n"
        )
        grids = load_scenario(cfg).grids
        assert grids["graphit"] == tuple(
            Potential("scad", gamma=g, a=a) for g in (5.0, 1.0) for a in (4.0, 2.5, 3.0)
        )
        assert grids["graphem"] == (l1(3.0), l1(1.0), l1(2.0))


GRID_GAMMAS, GRID_LAMBDAS = ("3.16", "10", "31.6"), ("0.0316", "0.1", "0.316")


def run_grid(cfg, *options):
    """(exit code, standard output) of `graphit grid cfg options...`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["grid", str(cfg), *options])
    return code, out.getvalue()


class TestGridLockstep:
    @settings(max_examples=6)
    @given(
        seed=st.integers(0, 2**16), n_x=st.integers(2, 4), k=st.integers(10, 60),
        gammas=st.permutations(GRID_GAMMAS), lambdas=st.permutations(GRID_LAMBDAS),
    )
    def test_grid_output_does_not_depend_on_jobs_or_order(self, tmp_path_factory, seed, n_x, k, gammas, lambdas):
        """`--jobs 1, 2, 3` split the 9 points into 1 to 3 lockstep batches, and print the same bytes.

        In a batch, fits leave at different outer iterations, so the batch
        shrinks. Each point's row is also the same when the grid lists its
        points in another order.
        """
        sizes = "n_x = 4\nn_y = 4\ns = 3\nk = 60\n"
        directory = tmp_path_factory.mktemp("grid")

        def config(gammas, lambdas):
            cfg = directory / f"{'_'.join(gammas)}-{'_'.join(lambdas)}.cfg"
            cfg.write_text(
                QUICK_CFG.replace(sizes, f"n_x = {n_x}\nn_y = {n_x}\ns = 2\nk = {k}\n")
                + f"\n[grid.graphit]\ngamma = {' '.join(gammas)}\nlambda = {' '.join(lambdas)}\n"
            )
            return cfg

        shipped = config(GRID_GAMMAS, GRID_LAMBDAS)
        runs = [run_grid(shipped, "--seed", str(seed), "--jobs", str(jobs)) for jobs in (1, 2, 3)]
        assert runs[0][0] in (0, 2)  # 2: every fit failed
        assert runs[1] == runs[0] and runs[2] == runs[0]

        def rows(output):
            return sorted(output.splitlines()[1:-1])

        code, permuted = run_grid(config(gammas, lambdas), "--seed", str(seed))
        assert code == runs[0][0]
        assert rows(permuted) == rows(runs[0][1])
        assert len(rows(permuted)) == (9 if code == 0 else 0)


class TestExportDot:
    def test_zero_matrix_isolated_nodes(self):
        text = export_dot(np.zeros((3, 3)), 1e-10)
        assert text.startswith("digraph")
        assert "->" not in text
        for node in ("1;", "2;", "3;"):
            assert node in text

    def test_single_edge_column_to_row(self):
        A = np.array([[0.0, 0.7], [0.0, 0.0]])
        text = export_dot(A, 1e-10)
        assert '2 -> 1 [label="0.70000"];' in text

    def test_round_trip_recovers_support(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 5)) * (rng.random((5, 5)) > 0.6)
        text = export_dot(A, 1e-10)
        edges = set()
        for m in re.finditer(r"(\d+) -> (\d+)", text):
            j, i = int(m.group(1)) - 1, int(m.group(2)) - 1
            edges.add((i, j))
        expected = {(i, j) for i, j in zip(*np.nonzero(np.abs(A) > 1e-10))}
        assert edges == expected

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            export_dot(np.zeros((2, 3)), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        """A NaN would be dropped and an infinity drawn as an edge labeled "inf": neither is a graph of A."""
        with pytest.raises(ValueError, match="^the matrix has NaN or infinite entries$"):
            export_dot(np.array([[1.0, bad], [0.0, 1.0]]), 0.1)


class TestFmt5:
    @settings(max_examples=2000)
    @given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != 0))
    def test_five_significant_digits_in_fixed_notation(self, x):
        text = _fmt5(x)
        assert "e" not in text.lower()
        significant = text.lstrip("-").replace(".", "").lstrip("0")
        assert len(significant) >= 5
        assert set(significant[5:]) <= {"0"}
        # Decimal, because rounding the largest floats up overflows a float.
        assert abs(Decimal(text) - Decimal(x)) <= Decimal("5e-5") * abs(Decimal(x))

    @pytest.mark.parametrize(
        "x, text", [(0.0, "0.0000"), (-0.0, "0.0000"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]
    )
    def test_special_values(self, x, text):
        assert _fmt5(x) == text


class TestExportCsv:
    def test_empty_rows_header_only(self):
        assert export_csv([]) == (
            "scenario,method,potential,hyperparams,rmse,accuracy,f1,time_s,realizations\n"
        )

    def test_single_row_two_lines(self):
        row = BenchmarkRow(
            scenario="s", method="mlem", potential="", hyperparams="",
            rmse=0.4008, accuracy=0.0625, f1=0.11765, time_s=1.8619, realizations=50,
        )
        text = export_csv([row])
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[1] == "s,mlem,,,0.40080,0.062500,0.11765,1.8619,50"

    def test_time_column_toggle(self):
        row = BenchmarkRow(
            scenario="s", method="mlem", potential="", hyperparams="",
            rmse=0.1, accuracy=0.9, f1=0.8, time_s=1.0, realizations=5,
        )
        text = export_csv([row], include_times=False)
        assert "time_s" not in text
        assert "1.0000" not in text

    def test_sorted_by_scenario_then_method(self):
        mk = lambda s, m: BenchmarkRow(
            scenario=s, method=m, potential="", hyperparams="",
            rmse=0.0, accuracy=1.0, f1=1.0, time_s=0.0, realizations=1,
        )
        text = export_csv([mk("b", "mlem"), mk("a", "mlem"), mk("a", "graphit")])
        lines = text.strip().split("\n")[1:]
        assert [l.split(",")[0] for l in lines] == ["a", "a", "b"]
        assert [l.split(",")[1] for l in lines] == ["graphit", "mlem", "mlem"]


class TestMainCommand:
    def test_bench_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG)
        out = tmp_path / "out"
        code = main(["bench", str(cfg), "--out", str(out), "--realizations", "1"])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "results_with_times.csv").exists()
        assert (out / "graph_true.dot").exists()
        for method in ("graphit", "graphem", "mlem"):
            assert (out / f"graph_{method}.dot").exists()
        assert "graphit" in capsys.readouterr().out

    def test_bench_deterministic_bytes_and_parallel(self, tmp_path):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG)
        outs = []
        for name, jobs in (("o1", 1), ("o2", 1), ("o3", 2)):
            out = tmp_path / name
            assert main(["bench", str(cfg), "--out", str(out), "--jobs", str(jobs)]) == 0
            blob = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "results_with_times.csv"}
            outs.append(blob)
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]

    def test_grid_command(self, tmp_path, capsys):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG + "\n[grid.graphem]\ngamma = 1 10\n")
        table_out = tmp_path / "grid.csv"
        code = main(["grid", str(cfg), "--method", "graphem", "--out", str(table_out)])
        assert code == 0
        lines = table_out.read_text().strip().split("\n")
        assert lines[0] == "method,hyperparams,rmse"
        assert len(lines) == 3
        assert "best graphem:" in capsys.readouterr().out

    def test_curve_command(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["curve", "log-sum", "1.0", "0.5", "--u-max", "1.0", "--points", "11", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "u,rho"
        assert len(lines) == 12
        assert lines[1].split(",") == ["0.0000", "0.0000"]
        assert main(["curve", "l1", "1.0", "--u-min=-2", "--u-max=-1", "--points", "2", "--out", str(out)]) == 0
        assert out.read_text() == "u,rho\n-2.0000,2.0000\n-1.0000,1.0000\n"

    @pytest.mark.parametrize(
        "bounds", [["--u-max", "inf"], ["--u-min", "nan"], ["--u-min=-inf"], ["--u-min=-1e308", "--u-max", "1e308"]]
    )
    def test_curve_rejects_non_finite_bounds_by_name(self, capsys, bounds):
        """An infinite or NaN bound, or a span that overflows, is a configuration error, not rows of nan."""
        assert main(["curve", "l1", "1", "--points", "3", *bounds]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: --u-min and --u-max must be finite")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["l1", "1e300", "--u-max", "1e10"], "the l1 curve at gamma=1e+300 is not finite on [0.0, 10000000000.0]"),
            (["log-sum", "1e300", "1e300"], "the log-sum curve at gamma=1e+300, lam=1e+300 is not finite on [0.0, 2.0]"),
        ],
        ids=["l1", "log-sum"],
    )
    def test_curve_rejects_an_overflowing_curve_by_gamma_and_range(self, capsys, args, message):
        """A curve that overflows is a configuration error, not rows of inf or nan after a RuntimeWarning."""
        assert main(["curve", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_export_dot_rejects_a_matrix_file_with_no_data(self, tmp_path, capsys, text):
        matrix = tmp_path / "empty.csv"
        matrix.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" warning must not escape
            assert main(["export-dot", str(matrix), "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: matrix file {matrix} has no data\n"

    def test_export_dot_command(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text("0.0,0.7\n0.0,0.0\n")
        code = main(["export-dot", str(matrix), "1e-10"])
        assert code == 0
        assert "2 -> 1" in capsys.readouterr().out
        matrix.write_text("1.0,nan\ninf,1.0\n")
        assert main(["export-dot", str(matrix), "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and "NaN or infinite" in captured.err

    def test_exit_code_config_error(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "missing.cfg")]) == 1
        assert main(["export-dot", str(tmp_path / "missing.csv"), "0.1"]) == 1
        assert main(["curve", "log-sum", "1.0"]) == 1  # missing lambda
        assert "configuration error" in capsys.readouterr().err

    def test_exit_code_numerical_failure(self, tmp_path, capsys):
        cfg = tmp_path / "singular.cfg"
        cfg.write_text(
            "[scenario]\n"
            "id = singular\nn_x = 1\nn_y = 2\ns = 1\nk = 5\n"
            "sigma_q = 1e-15\nsigma_r = 1e-15\nsigma_0 = 1e-4\n"
            "n_realizations = 1\nmaster_seed = 0\nmethods = mlem\n"
        )
        with pytest.warns(UserWarning):
            code = main(["bench", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("inject", NON_FINITE_CASES)
    def test_exit_code_non_finite(self, tmp_path, capsys, monkeypatch, inject):
        inject(monkeypatch)
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG)
        with np.errstate(over="ignore", invalid="ignore"), pytest.warns(UserWarning, match="failed"):
            code = main(["bench", str(cfg), "--out", str(tmp_path / "o"), "--realizations", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err

    def test_unknown_subcommand_is_config_error(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "scenario_extra, argv",
        [
            ("", ["curve", "l1", "1.0", "--points", "-1"]),
            ("", ["bench", "{cfg}", "--threshold", "-1"]),
            ("", ["bench", "{cfg}", "--threshold", "inf"]),
            ("", ["bench", "{cfg}", "--seed", "-1"]),
            ("edge_threshold = -1\n", ["bench", "{cfg}"]),
            ("edge_threshold = inf\n", ["bench", "{cfg}"]),
            ("target_norm = 0\n", ["bench", "{cfg}"]),
            ("", ["export-dot", "{matrix}", "-1"]),
            ("", ["export-dot", "{matrix}", "inf"]),
            ("", ["bench", "{cfg}", "--jobs", "0"]),
            ("", ["curve", "l1", "1.0", "0.5"]),
            ("", ["curve", "l1", "inf"]),
            ("", ["curve", "log-sum", "1.0", "inf"]),
        ],
        ids=[
            "curve-points",
            "bench-threshold",
            "bench-infinite-threshold",
            "bench-seed",
            "config-edge-threshold",
            "config-infinite-edge-threshold",
            "config-target-norm",
            "export-dot-threshold",
            "export-dot-infinite-threshold",
            "bench-jobs",
            "curve-shape-for-l1",
            "curve-infinite-gamma",
            "curve-infinite-shape",
        ],
    )
    def test_out_of_range_is_config_error(self, tmp_path, capsys, scenario_extra, argv):
        cfg = tmp_path / "quick.cfg"
        methods = "methods = graphit graphem mlem\n"
        cfg.write_text(QUICK_CFG.replace(methods, methods + scenario_extra))
        matrix = tmp_path / "m.csv"
        matrix.write_text("0,1\n1,0\n")
        paths = {"{cfg}": str(cfg), "{matrix}": str(matrix)}
        argv = [paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, fragments",
        [
            (QUICK_CFG.replace("k = 60\n", "k = 60\nsigma_qq = 5\n"), ["'sigma_qq'", "[scenario]"]),
            (QUICK_CFG + "\n[estimator]\ndr_tols = 1e-8\n", ["'dr_tols'", "[estimator]"]),
            (QUICK_CFG.replace("lambda = 0.1\n", "lambda = 0.1\nlamda = 0.2\n"), ["'lamda'", "[potential.graphit]"]),
            (QUICK_CFG + "\n[grid.graphem]\ngamma = 1 10\ngammas = 3\n", ["'gammas'", "[grid.graphem]"]),
            (QUICK_CFG.replace("graphit graphem mlem", "mlem graphit mlem"), ["'mlem'", "more than once"]),
            (QUICK_CFG.replace("k = 60\n", "k = 60\nk = 70\n"), ["'k'", "already exists"]),
            (QUICK_CFG.replace("k = 60\n", "k\n"), ["cannot parse", "'k"]),
            (QUICK_CFG + "\n[estimater]\ndr_tol = 1e-12\n", ["unknown section [estimater]"]),
            (QUICK_CFG + "\n[potential.mlem]\nfamily = l1\ngamma = 1\n", ["unknown section [potential.mlem]"]),
            (QUICK_CFG + "\n[grid.mlem]\ngamma = 1 10\n", ["unknown section [grid.mlem]"]),
            (QUICK_CFG + "\n[estimator]\nepsilon = 0\n", ["epsilon must be finite and > 0"]),
            (QUICK_CFG + "\n[estimator]\nmax_outer = 0\n", ["max_outer must be >= 1"]),
            (QUICK_CFG + "\n[estimator]\nepsilon = inf\n", ["epsilon must be finite and > 0, got inf"]),
            (QUICK_CFG + "\n[estimator]\ndr_tol = inf\n", ["[estimator]", "tol must be finite and > 0, got inf"]),
            (QUICK_CFG + "\n[grid.graphit]\ngamma = 10\nlambda = 0.1 -1\n", ["[grid.graphit]", "lam > 0"]),
            (QUICK_CFG + "\n[grid.graphem]\ngamma = 1 x\n", ["cannot parse", "[grid.graphem]"]),
            (QUICK_CFG.replace("sigma_q = 0.1", "sigma_q = nan"), ["sigma_q"]),
            (QUICK_CFG.replace("k = 60\n", "k = 60\ntarget_norm = inf\n"), ["target_norm", "inf"]),
            (
                QUICK_CFG.replace("graphit graphem mlem", "graphit mlem").replace("[potential.graphem]", "[grid.graphem]"),
                ["[grid.graphem]", "[potential.graphem]"],
            ),
            (
                QUICK_CFG.replace("family = log-sum\ngamma = 10\n", "family = scad\ngamma = 10\na = 3.7\n"),
                ["'lambda'", "[potential.graphit]", "scad"],
            ),
            (QUICK_CFG + "lambda = 5\n", ["'lambda'", "[potential.graphem]", "l1"]),
            (QUICK_CFG + "family = log-sum\na = 3\n", ["'a'", "[potential.graphem]", "log-sum"]),
            (QUICK_CFG + "\n[grid.graphem]\ngamma = 1 10\na = 3\n", ["'a'", "[grid.graphem]", "l1"]),
            (QUICK_CFG.replace("gamma = 10\nlambda", "gamma = inf\nlambda"), ["[potential.graphit]", "gamma", "inf"]),
            (QUICK_CFG.replace("lambda = 0.1", "lambda = inf"), ["[potential.graphit]", "lam", "inf"]),
            (QUICK_CFG.replace("graphem]\ngamma = 10", "graphem]\ngamma = inf"), ["[potential.graphem]", "gamma", "inf"]),
            (
                QUICK_CFG.replace("family = log-sum\ngamma = 10\nlambda = 0.1\n", "family = scad\ngamma = 10\na = inf\n"),
                ["[potential.graphit]", "finite a", "inf"],
            ),
            (QUICK_CFG + "\n[grid.graphem]\ngamma = 10 inf\n", ["[grid.graphem]", "gamma", "inf"]),
            (QUICK_CFG + "\n[estimator]\ndr_step = inf\n", ["[estimator]", "step", "inf"]),
        ],
        ids=[
            "unknown-scenario-key",
            "unknown-estimator-key",
            "unknown-potential-key",
            "unknown-grid-key",
            "repeated-method",
            "repeated-key",
            "key-without-value",
            "unknown-section",
            "potential-for-mlem",
            "grid-for-mlem",
            "zero-epsilon",
            "zero-max-outer",
            "infinite-epsilon",
            "infinite-dr-tol",
            "negative-grid-lambda",
            "grid-gamma-not-a-number",
            "nan-sigma-q",
            "infinite-target-norm",
            "grid-without-potential",
            "lambda-for-scad",
            "lambda-for-l1",
            "a-for-non-l1-graphem",
            "grid-a-for-l1",
            "infinite-gamma",
            "infinite-lambda",
            "infinite-l1-gamma",
            "infinite-scad-a",
            "infinite-grid-gamma",
            "infinite-dr-step",
        ],
    )
    def test_config_file_error_names_the_culprit(self, tmp_path, capsys, text, fragments):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(text)
        for command in ("bench", "grid"):
            assert main([command, str(cfg), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ")
            assert all(fragment in err for fragment in fragments), err
            assert "Traceback" not in err
            assert not (tmp_path / "o").exists()

    def test_grid_where_every_fit_fails_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def failing_fit(*args):
            raise NonFiniteError("negative log-likelihood is not finite")

        monkeypatch.setattr(cli, "_fit", failing_fit)
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG + "\n[grid.graphem]\ngamma = 1 10\n")
        table = tmp_path / "grid.csv"
        for out_option in ([], ["--out", str(table)]):
            assert main(["grid", str(cfg), "--method", "graphem", *out_option]) == 2
            out, err = capsys.readouterr()
            assert "best" not in out
            assert err.startswith("numerical failure: ")
            assert "Traceback" not in err
            assert not table.exists()

    @pytest.mark.parametrize(
        "out_dir, existed",
        [("o", False), ("o", True), ("new/sub", False), ("new/sub", True)],
        ids=["new-dir", "existing-dir", "new-nested-dirs", "new-dir-in-existing-dir"],
    )
    def test_bench_where_every_fit_fails_leaves_no_new_directory(self, tmp_path, capsys, monkeypatch, out_dir, existed):
        """Every directory the run created is removed, ancestors too; one that existed before is kept."""
        def failing_fit(*args):
            raise NonFiniteError("negative log-likelihood is not finite")

        monkeypatch.setattr(cli, "_fit", failing_fit)
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG)
        out = tmp_path / out_dir
        top = tmp_path / Path(out_dir).parts[0]
        if existed:
            top.mkdir()
        with pytest.warns(UserWarning, match="failed"):
            assert main(["bench", str(cfg), "--out", str(out), "--realizations", "1"]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert top.exists() == existed
        assert not existed or list(top.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "{cfg}", "--out", "{file}"],
            ["grid", "{cfg}", "--out", "{nodir}"],
            ["curve", "l1", "1.0", "--out", "{nodir}"],
            ["export-dot", "{matrix}", "0", "--out", "{nodir}"],
        ],
        ids=["bench-out-is-a-file", "grid-out-dir-missing", "curve-out-dir-missing", "export-dot-out-dir-missing"],
    )
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_fit(*args):
            raise AssertionError("fitted before the output was found unwritable")

        monkeypatch.setattr(cli, "_fit", no_fit)
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG + "\n[grid.graphem]\ngamma = 1 10\n")
        matrix = tmp_path / "m.csv"
        matrix.write_text("0,1\n1,0\n")
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        paths = {"{cfg}": cfg, "{matrix}": matrix, "{file}": a_file, "{nodir}": tmp_path / "absent" / "x.csv"}
        argv = [str(paths.get(a, a)) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert argv[-1] in err
        assert "Traceback" not in err

    def test_traced_names_are_looked_up_in_cli(self, tmp_path, monkeypatch):
        """Every name the benchmark's tracer wraps on graphit.cli is called through it."""
        spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)
        spec.loader.exec_module(tracing)
        calls = dict.fromkeys(name for name in tracing.CALLER_SPANS if name != "cli_main")
        assert len(calls) == 13

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
            calls[name] = 0
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG + "\n[grid.graphem]\ngamma = 10\n")
        assert main(["bench", str(cfg), "--out", str(tmp_path / "o"), "--realizations", "1"]) == 0
        assert main(["grid", str(cfg), "--method", "graphem"]) == 0
        assert [name for name, count in calls.items() if count == 0] == []


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
class TestGoldenOutput:
    def test_grid(self, tmp_path, capsys, to_file):
        cfg = tmp_path / "quick.cfg"
        cfg.write_text(QUICK_CFG + "\n[grid.graphem]\ngamma = 1 10\n")
        written, stdout = run_main(tmp_path, capsys, ["grid", str(cfg), "--method", "graphem"], to_file)
        if to_file:
            assert (written, stdout) == (GRID_TABLE.encode(), GRID_BEST)
        else:
            assert stdout == GRID_TABLE + GRID_BEST

    def test_curve(self, tmp_path, capsys, to_file):
        argv = ["curve", "log-sum", "1.0", "0.5", "--points", "11"]
        written, stdout = run_main(tmp_path, capsys, argv, to_file)
        assert (written, stdout) == ((CURVE_LOG_SUM.encode(), "") if to_file else (None, CURVE_LOG_SUM))

    def test_export_dot(self, tmp_path, capsys, to_file):
        matrix = tmp_path / "m.csv"
        matrix.write_text(DOT_MATRIX)
        written, stdout = run_main(tmp_path, capsys, ["export-dot", str(matrix), "1e-10"], to_file)
        assert (written, stdout) == ((DOT.encode(), "") if to_file else (None, DOT))


@pytest.mark.parametrize("seed", [0, 13])
def test_cli_bytes_match_the_benchmark_reference(tmp_path, capsys, seed):
    """`bench` and `grid` on configs/quick.cfg print what perfbench/reference.json recorded for `quick-cli`."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))["quick-cli"]
    config = str(ROOT / "configs" / "quick.cfg")
    out = tmp_path / "o"
    assert main(["bench", config, "--seed", str(seed), "--out", str(out)]) == 0
    assert (out / "results.csv").read_text(encoding="utf-8") == reference[f"bench/{seed}"]["results_csv"]
    capsys.readouterr()
    assert main(["grid", config, "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == reference[f"grid/{seed}"]["best"]


def test_python_dash_m_graphit(tmp_path):
    """The package runs as ``python -m graphit``, and its CLI module as ``python -m graphit.cli``."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(*argv, module="graphit"):
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, cwd=tmp_path, env=env)

    golden = b"u,rho\n0.0000,0.0000\n1.0000,1.0000\n2.0000,2.0000\n"
    curve = run("curve", "l1", "1", "--points", "3")
    assert (curve.returncode, curve.stdout, curve.stderr) == (0, golden, b"")
    module_curve = run("curve", "l1", "1", "--points", "3", module="graphit.cli")
    assert (module_curve.returncode, module_curve.stdout, module_curve.stderr) == (0, golden, b"")
    missing = run("export-dot", "missing.csv", "0")
    assert missing.returncode == 1
    assert missing.stderr.startswith(b"configuration error: ")
    assert b"Traceback" not in missing.stderr
