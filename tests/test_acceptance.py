"""End-to-end acceptance gate.

Each test verifies one exit criterion at its stated tolerance and prints one
PASS line (visible with ``pytest -s``). The two benchmark reproductions are
marked slow; everything else runs in seconds.
"""

import dataclasses
import time

import numpy as np
import pytest

from graphit import (
    DRConfig,
    EstimatorConfig,
    ModelParams,
    Potential,
    default_init,
    douglas_rachford,
    generate_sparse_A,
    graphem,
    graphit,
    kalman_filter,
    prox_quadratic,
    prox_weighted_l1,
    q_quadratic,
    rho,
    rho_prime,
    rts_smoother,
    simulate,
)
from graphit.cli import grid_search, main, run_benchmark
from graphit.em_stats import EMStats, compute_stats
from graphit.scenario import Scenario

from oracles import dense_filter, forward_backward, nll_oracle, random_spd, random_stable_params

GIT_GRID = [Potential("log-sum", gamma=g, lam=l) for g in (31.6, 56.2, 100.0, 178.0, 316.0) for l in (0.01, 0.0316, 0.1)]
GEM_GRID = [Potential("l1", gamma=g) for g in (10.0, 31.6, 100.0, 316.0, 1000.0)]


def bench_params(nx, A, sigma_q=0.1, sigma_r=0.1, sigma_0=1e-4):
    return ModelParams(
        A=A,
        H=np.eye(nx),
        Q=sigma_q**2 * np.eye(nx),
        R=sigma_r**2 * np.eye(nx),
        mu0=np.zeros(nx),
        Sigma0=sigma_0**2 * np.eye(nx),
    )


def table2_scenario(nx, s, n_realizations, seed=12):
    return Scenario(
        scenario_id=f"t2-{nx}-{s}",
        n_x=nx,
        n_y=nx,
        s=s,
        k=1000,
        sigma_q=0.1,
        sigma_r=0.1,
        sigma_0=1e-4,
        n_realizations=n_realizations,
        master_seed=seed,
        methods=("graphit", "graphem", "mlem"),
        potentials={
            "graphit": Potential("log-sum", gamma=100.0, lam=0.0316),
            "graphem": Potential("l1", gamma=31.6),
        },
    )


def tuned_benchmark(scenario):
    best_git, _ = grid_search(scenario, "graphit", GIT_GRID)
    best_gem, _ = grid_search(scenario, "graphem", GEM_GRID)
    tuned = dataclasses.replace(scenario, potentials={"graphit": best_git, "graphem": best_gem})
    rows = {row.method: row for row in run_benchmark(tuned)}
    return rows, best_git, best_gem


def test_criterion_1_mm_monotone_descent():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    families = ("log-sum", "atan", "mangasarian", "mcp", "scad")
    checked = 0
    for i in range(20):
        nx = 4 if i % 2 == 0 else 8
        s = int(rng.integers(2, nx + 1))
        A_true = generate_sparse_A(nx, s, target_norm=0.9, seed=int(rng.integers(1 << 30)))
        params = bench_params(nx, A_true)
        traj = simulate(params, K=200, seed=int(rng.integers(1 << 30)))
        gamma = float(10 ** rng.uniform(0.7, 2.3))
        family = families[i % len(families)]
        if family == "scad":
            potential = Potential("scad", gamma=gamma, a=float(rng.uniform(2.5, 5.0)))
        else:
            potential = Potential(family, gamma=gamma, lam=float(10 ** rng.uniform(-1.7, -0.3)))
        A0 = default_init(nx)
        for run in (
            graphit(traj.observations, params, A0, EstimatorConfig(potential=potential)),
            graphem(traj.observations, params, A0, EstimatorConfig(potential=Potential("l1", gamma=gamma))),
        ):
            trace = np.asarray(run.objective_trace)
            assert trace.size >= 2
            assert np.all(np.diff(trace) <= 1e-8), f"objective increased (scenario {i})"
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 1: monotone objective descent on {checked} runs ({elapsed:.0f}s)")


def test_criterion_2_em_majorization():
    rng = np.random.default_rng(202)
    nx = 4
    A_true = generate_sparse_A(nx, 6, target_norm=0.9, seed=5)
    params = bench_params(nx, A_true, sigma_0=0.5)
    traj = simulate(params, K=50, seed=6)
    obs = traj.observations

    def nll_at(A):
        return kalman_filter(dataclasses.replace(params, A=A), obs).neg_log_lik

    for _ in range(10):
        A_anchor = rng.standard_normal((nx, nx))
        A_anchor *= rng.uniform(0.3, 0.95) / np.linalg.norm(A_anchor, 2)
        anchored = dataclasses.replace(params, A=A_anchor)
        stats = compute_stats(rts_smoother(anchored, kalman_filter(anchored, obs)))
        nll_anchor = nll_at(A_anchor)
        q_anchor = q_quadratic(A_anchor, stats, params.Q)
        gap_at_anchor = (nll_at(A_anchor) - nll_anchor) - (
            q_quadratic(A_anchor, stats, params.Q) - q_anchor
        )
        assert abs(gap_at_anchor) <= 1e-8
        for _ in range(100):
            A = rng.standard_normal((nx, nx))
            A *= rng.uniform(0.05, 1.1) / np.linalg.norm(A, 2)
            lhs = nll_at(A) - nll_anchor
            rhs = q_quadratic(A, stats, params.Q) - q_anchor
            assert lhs <= rhs + 1e-6
    print("\nPASS criterion 2: quadratic bound dominates the likelihood (10 anchors x 100 tests)")


def test_criterion_3_tangent_majorization():
    rng = np.random.default_rng(303)
    potentials = [
        Potential("log-sum", gamma=1.3, lam=0.5),
        Potential("atan", gamma=0.8, lam=2.0),
        Potential("mangasarian", gamma=1.1, lam=0.7),
        Potential("mcp", gamma=1.6, lam=0.9),
        Potential("scad", gamma=1.2, a=3.7),
        Potential("l1", gamma=2.0),
    ]
    for p in potentials:
        u = rng.uniform(-6.0, 6.0, size=1000)
        v = rng.uniform(-6.0, 6.0, size=1000)
        lhs = rho(p, u)
        rhs = rho_prime(p, v) * (np.abs(u) - np.abs(v)) + rho(p, v)
        assert np.all(lhs <= rhs + 1e-12), p.family
        tight = rho_prime(p, v) * 0.0 + rho(p, v)
        assert np.max(np.abs(tight - rho(p, v))) <= 1e-12
    print("\nPASS criterion 3: tangent bounds hold for all 6 families (1000 pairs each)")


def test_criterion_4_filter_exactness():
    # scalar hand-computed step
    params = ModelParams(
        A=np.array([[1.0]]),
        H=np.array([[1.0]]),
        Q=np.zeros((1, 1)),
        R=np.array([[1.0]]),
        mu0=np.zeros(1),
        Sigma0=np.array([[1.0]]),
    )
    run = kalman_filter(params, np.array([[1.0]]))
    assert abs(run.neg_log_lik - (0.5 * np.log(4 * np.pi) + 0.25)) <= 1e-12
    assert abs(run.filtered_means[0, 0] - 0.5) <= 1e-12
    assert abs(dense_filter(run).filtered_covs[0, 0, 0] - 0.5) <= 1e-12

    rng = np.random.default_rng(404)
    for i in range(20):
        nx = int(rng.integers(1, 4))
        K = int(rng.integers(1, 30 // nx))
        assert nx * (K + 1) <= 30
        params = random_stable_params(rng, nx=nx, ny=int(rng.integers(1, 4)))
        traj = simulate(params, K=K, seed=int(rng.integers(1 << 30)))
        run = kalman_filter(params, traj.observations)
        assert abs(run.neg_log_lik - nll_oracle(params, traj.observations)) <= 1e-8, f"instance {i}"
    print("\nPASS criterion 4: likelihood matches the dense joint-Gaussian oracle (20 instances)")


def test_criterion_5_inner_solver():
    rng = np.random.default_rng(505)
    cfg = DRConfig(tol=1e-10, max_iter=20000)
    for i in range(20):
        Phi = random_spd(rng, 3)
        stats = EMStats(Psi=random_spd(rng, 3), Phi=Phi, Delta=3 * rng.standard_normal((3, 3)))
        Q = random_spd(rng, 3, scale=1.0 / 3)
        Omega = rng.uniform(0.0, 1.5, size=(3, 3))
        A0 = rng.standard_normal((3, 3))
        report = douglas_rachford(stats, Q, Omega, A0, cfg)
        reference = forward_backward(stats, Q, Omega, A0)
        assert np.linalg.norm(report.minimizer - reference) <= 1e-6, f"instance {i}"

        # prox oracles: optimality conditions verified to 1e-10
        V = rng.standard_normal((3, 3))
        step = float(rng.uniform(0.2, 2.0))
        X = prox_weighted_l1(V, Omega, step)
        for idx in np.ndindex(3, 3):
            if X[idx] != 0.0:
                assert abs(X[idx] + step * Omega[idx] * np.sign(X[idx]) - V[idx]) <= 1e-10
            else:
                assert abs(V[idx]) <= step * Omega[idx] + 1e-10
        Aq = prox_quadratic(V, stats, Q, step)
        Qinv = np.linalg.inv(Q)
        resid = Qinv @ (Aq @ stats.Phi) + Aq / step - Qinv @ stats.Delta - V / step
        assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, float(np.max(np.abs(Aq))))
    print("\nPASS criterion 5: inner solver matches the proximal-gradient oracle (20 instances)")


@pytest.mark.slow
def test_criterion_6_benchmark_8_4():
    start = time.perf_counter()
    rows, best_git, best_gem = tuned_benchmark(table2_scenario(8, 4, n_realizations=10))
    elapsed = time.perf_counter() - start

    r_git, r_gem, r_mle = rows["graphit"], rows["graphem"], rows["mlem"]
    assert r_git.realizations == r_gem.realizations == r_mle.realizations == 10
    # (a) strict error ordering
    assert r_git.rmse < r_gem.rmse < r_mle.rmse
    # (b) proximity to the published row
    assert abs(r_git.rmse - 0.185) <= 0.10
    assert r_git.f1 >= 0.65
    # (c) the unpenalized estimator cannot detect edges
    assert r_mle.f1 <= 0.3
    # same-order-of-magnitude runtime parity across methods
    times = [r.time_s for r in rows.values()]
    assert max(times) / min(times) <= 10.0
    assert elapsed < 15 * 60
    print(
        f"\nPASS criterion 6: (8,4) benchmark tuned to {best_git}/{best_gem}: "
        f"rmse {r_git.rmse:.3f} < {r_gem.rmse:.3f} < {r_mle.rmse:.3f}, "
        f"graphit f1 {r_git.f1:.3f}, mlem f1 {r_mle.f1:.3f} ({elapsed:.0f}s)"
    )


@pytest.mark.slow
def test_criterion_7_scaling_trend():
    start = time.perf_counter()
    lines = []
    for s in (4, 8):
        rows, best_git, best_gem = tuned_benchmark(table2_scenario(16, s, n_realizations=5))
        r_git, r_gem = rows["graphit"], rows["graphem"]
        assert r_git.accuracy >= 0.95, f"(16,{s}) graphit accuracy {r_git.accuracy:.3f}"
        assert r_git.f1 - r_gem.f1 >= 0.15, f"(16,{s}) f1 gap {r_git.f1 - r_gem.f1:.3f}"
        lines.append(
            f"(16,{s}): graphit acc {r_git.accuracy:.3f}, f1 gap {r_git.f1 - r_gem.f1:.3f}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30 * 60
    print(f"\nPASS criterion 7: scaling trend holds; {'; '.join(lines)} ({elapsed:.0f}s)")


def test_criterion_8_graphem_special_case():
    rng = np.random.default_rng(808)
    for i in range(5):
        nx = int(rng.integers(3, 6))
        A_true = generate_sparse_A(nx, int(rng.integers(2, nx + 2)), 0.9, seed=int(rng.integers(1 << 30)))
        params = bench_params(nx, A_true)
        traj = simulate(params, K=100, seed=int(rng.integers(1 << 30)))
        cfg = EstimatorConfig(potential=Potential("l1", gamma=float(10 ** rng.uniform(0.5, 2.0))))
        A0 = default_init(nx)
        a = graphit(traj.observations, params, A0, cfg)
        b = graphem(traj.observations, params, A0, cfg)
        assert len(a.iterates) == len(b.iterates)
        for Ai, Bi in zip(a.iterates, b.iterates):
            assert np.linalg.norm(Ai - Bi) <= 1e-12
    print("\nPASS criterion 8: graphit with l1 and graphem produce identical iterate sequences")


def test_criterion_9_cli_determinism(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "[scenario]\n"
        "id = determinism\nn_x = 4\nn_y = 4\ns = 3\nk = 60\n"
        "sigma_q = 0.1\nsigma_r = 0.1\nsigma_0 = 1e-4\n"
        "n_realizations = 3\nmaster_seed = 5\nmethods = graphit graphem mlem\n"
        "\n[potential.graphit]\nfamily = log-sum\ngamma = 10\nlambda = 0.1\n"
        "\n[potential.graphem]\ngamma = 10\n"
    )
    snapshots = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / name
        assert main(["bench", str(config), "--out", str(out), "--jobs", str(jobs)]) == 0
        snapshot = {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.suffix == ".dot" or p.name == "results.csv"
        }
        assert "results.csv" in snapshot and "graph_true.dot" in snapshot
        snapshots.append(snapshot)
    assert snapshots[0] == snapshots[1], "rerun changed bytes"
    assert snapshots[0] == snapshots[2], "parallelism changed bytes"
    print("\nPASS criterion 9: bench outputs byte-identical across reruns and --jobs 2")
