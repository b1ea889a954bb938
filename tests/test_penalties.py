import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphit import (
    FAMILIES,
    Potential,
    emit_penalty_curve,
    penalty_value,
    rho,
    rho_prime,
    weight_matrix,
)
from graphit.penalties import SHAPE_FIELD


def sample_potential(family, gamma=1.0):
    if family == "scad":
        return Potential("scad", gamma=gamma, a=3.0)
    if family == "l1":
        return Potential("l1", gamma=gamma)
    return Potential(family, gamma=gamma, lam=0.5)


ALL_POTENTIALS = [sample_potential(f) for f in FAMILIES]


class TestConstruction:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            Potential("ridge", gamma=1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rejects_nonpositive_gamma(self, family):
        with pytest.raises(ValueError):
            sample_potential(family, gamma=0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_hyperparameters(self, family, value):
        with pytest.raises(ValueError, match="gamma must be finite"):
            sample_potential(family, gamma=value)
        shape = SHAPE_FIELD[family]
        if shape is not None:
            with pytest.raises(ValueError, match=f"finite {shape}"):
                Potential(family, gamma=1.0, **{shape: value})

    def test_rejects_missing_lambda(self):
        with pytest.raises(ValueError):
            Potential("log-sum", gamma=1.0)

    def test_scad_rejects_small_a(self):
        with pytest.raises(ValueError):
            Potential("scad", gamma=1.0, a=2.0)

    @pytest.mark.parametrize(
        "family, shapes",
        [("l1", {"lam": 0.1}), ("l1", {"a": 3.0}), ("scad", {"a": 3.7, "lam": 0.1}), ("log-sum", {"lam": 0.1, "a": 3.0})],
    )
    def test_rejects_a_shape_field_the_family_does_not_use(self, family, shapes):
        unused = next(name for name in shapes if name != SHAPE_FIELD[family])
        with pytest.raises(ValueError, match=f"{family} takes no {unused}"):
            Potential(family, gamma=1.0, **shapes)


@pytest.mark.parametrize("family", FAMILIES)
def test_hyperparams_are_gamma_then_the_shape_field(family):
    shape = SHAPE_FIELD[family]
    p = Potential(family, gamma=2.5, **({shape: 3.5} if shape else {}))
    assert list(p.hyperparams) == ["gamma"] + ([shape] if shape else [])
    assert p.hyperparams == {name: getattr(p, name) for name in p.hyperparams}
    assert p.hyperparams["gamma"] == 2.5 and (shape is None or p.hyperparams[shape] == 3.5)


class TestRho:
    @pytest.mark.parametrize("p", ALL_POTENTIALS, ids=FAMILIES)
    def test_zero_at_origin(self, p):
        assert rho(p, 0.0) == 0.0

    def test_log_sum_value(self):
        p = Potential("log-sum", gamma=1.0, lam=0.5)
        assert rho(p, 1.0) == pytest.approx(0.5 * (np.log(1.5) - np.log(0.5)), abs=1e-12)
        assert rho(p, 1.0) == pytest.approx(0.549306, abs=1e-6)

    def test_mcp_saturated_branch(self):
        p = Potential("mcp", gamma=1.0, lam=1.0)
        assert rho(p, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_scad_first_branch(self):
        p = Potential("scad", gamma=1.0, a=3.0)
        assert rho(p, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_even_in_u(self):
        for p in ALL_POTENTIALS:
            u = np.linspace(-3, 3, 41)
            np.testing.assert_allclose(rho(p, u), rho(p, -u), atol=1e-15)

    def test_mcp_branches_agree_at_knot(self):
        p = Potential("mcp", gamma=1.3, lam=0.7)
        t = p.lam * p.gamma
        inner = p.gamma * t - t**2 / (2 * p.lam)
        outer = 0.5 * p.lam * p.gamma**2
        assert abs(inner - outer) <= 1e-12
        assert rho(p, t) == pytest.approx(inner, abs=1e-12)

    def test_scad_branches_agree_at_knots(self):
        p = Potential("scad", gamma=1.3, a=3.7)
        g, a = p.gamma, p.a
        quad = lambda t: -(g * g - 2 * a * g * t + t * t) / (2 * (a - 1))
        assert abs(g * g - quad(g)) <= 1e-12
        assert abs(quad(a * g) - 0.5 * (a + 1) * g * g) <= 1e-12
        assert rho(p, g) == pytest.approx(g * g, abs=1e-12)
        assert rho(p, a * g) == pytest.approx(0.5 * (a + 1) * g * g, abs=1e-12)
        # derivative is continuous across both knots as well
        assert rho_prime(p, g) == pytest.approx(g, abs=1e-12)
        assert rho_prime(p, a * g) == pytest.approx(0.0, abs=1e-12)


class TestRhoPrime:
    @pytest.mark.parametrize("p", ALL_POTENTIALS, ids=FAMILIES)
    def test_right_limit_is_gamma(self, p):
        assert rho_prime(p, 0.0) == pytest.approx(p.gamma, abs=1e-12)
        assert rho_prime(p, 1e-12) == pytest.approx(p.gamma, rel=1e-6)

    def test_atan_value(self):
        p = Potential("atan", gamma=1.0, lam=2.0)
        assert rho_prime(p, 1.0) == pytest.approx(0.2, abs=1e-12)

    def test_mcp_flat_beyond_knee(self):
        p = Potential("mcp", gamma=1.0, lam=1.0)
        assert rho_prime(p, 2.0) == 0.0

    def test_mcp_weight_at_the_knee_is_not_negative(self):
        """lam * gamma rounds to 0.30000000000000004, which / lam exceeds gamma by an ulp."""
        p = Potential("mcp", gamma=3.0, lam=0.1)
        assert rho_prime(p, p.lam * p.gamma) == 0.0

    @pytest.mark.parametrize("p", ALL_POTENTIALS, ids=FAMILIES)
    def test_nonincreasing(self, p):
        grid = np.linspace(0.0, 4.0 * p.gamma, 400)
        vals = rho_prime(p, grid)
        assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("p", ALL_POTENTIALS, ids=FAMILIES)
    def test_matches_finite_difference_of_rho(self, p):
        # Derivative column must actually differentiate the value column,
        # away from the (measure-zero) branch knots.
        us = np.array([0.05, 0.2, 0.45, 0.8, 1.3, 2.6, 3.7])
        h = 1e-7
        fd = (rho(p, us + h) - rho(p, us - h)) / (2 * h)
        np.testing.assert_allclose(rho_prime(p, us), fd, rtol=1e-5, atol=1e-7)


class TestPenaltyValue:
    def test_zero_matrix(self):
        for p in ALL_POTENTIALS:
            assert penalty_value(p, np.zeros((3, 3))) == 0.0

    def test_l1_is_scaled_entry_sum(self):
        p = Potential("l1", gamma=2.0)
        A = np.array([[1.0, -1.0], [0.0, 0.0]])
        assert penalty_value(p, A) == pytest.approx(4.0)

    def test_log_sum_sums_per_entry(self):
        p = Potential("log-sum", gamma=1.5, lam=0.5)
        A = np.array([[0.3, -0.2], [0.0, 1.1]])
        expected = sum(rho(p, v) for v in A.ravel())
        assert penalty_value(p, A) == pytest.approx(expected, rel=1e-12)

    def test_positive_iff_nonzero(self):
        for p in ALL_POTENTIALS:
            assert penalty_value(p, np.array([[0.0, 1e-8], [0.0, 0.0]])) > 0.0


class TestWeightMatrix:
    def test_l1_weights_constant(self):
        p = Potential("l1", gamma=3.0)
        rng = np.random.default_rng(0)
        Omega = weight_matrix(p, rng.standard_normal((4, 4)))
        np.testing.assert_array_equal(Omega, np.full((4, 4), 3.0))

    def test_zero_matrix_gives_gamma_everywhere(self):
        for p in ALL_POTENTIALS:
            Omega = weight_matrix(p, np.zeros((2, 2)))
            np.testing.assert_allclose(Omega, p.gamma, atol=1e-12)

    def test_log_sum_entry(self):
        p = Potential("log-sum", gamma=1.0, lam=0.5)
        Omega = weight_matrix(p, np.array([[0.5]]))
        assert Omega[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_weights_in_unit_interval_scaled_by_gamma(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 5))
        for p in ALL_POTENTIALS:
            Omega = weight_matrix(p, A)
            assert np.all(Omega >= 0.0)
            assert np.all(Omega <= p.gamma + 1e-12)


class TestPenaltyCurve:
    def test_zero_row(self):
        grid = np.linspace(0.0, 2.0, 5)
        for p in ALL_POTENTIALS:
            table = emit_penalty_curve(p, grid)
            assert table.shape == (5, 2)
            assert table[0, 1] == 0.0

    def test_nondecreasing_on_nonnegative_grid(self):
        grid = np.linspace(0.0, 3.0, 200)
        for p in ALL_POTENTIALS:
            values = emit_penalty_curve(p, grid)[:, 1]
            assert np.all(np.diff(values) >= -1e-12)

    def test_mangasarian_saturates(self):
        p = Potential("mangasarian", gamma=1.0, lam=0.5)
        table = emit_penalty_curve(p, np.array([50.0, 500.0]))
        np.testing.assert_allclose(table[:, 1], 2.0, atol=1e-8)


class TestTangentMajorization:
    @pytest.mark.parametrize("p", ALL_POTENTIALS, ids=FAMILIES)
    def test_tangent_upper_bound(self, p):
        rng = np.random.default_rng(17)
        u = rng.uniform(-5.0, 5.0, size=1000)
        v = rng.uniform(-5.0, 5.0, size=1000)
        lhs = rho(p, u)
        rhs = rho_prime(p, v) * (np.abs(u) - np.abs(v)) + rho(p, v)
        assert np.all(lhs <= rhs + 1e-12)

    @pytest.mark.parametrize("p", ALL_POTENTIALS, ids=FAMILIES)
    def test_equality_at_matching_point(self, p):
        rng = np.random.default_rng(18)
        v = rng.uniform(-4.0, 4.0, size=200)
        gap = rho_prime(p, v) * 0.0 + rho(p, v) - rho(p, v)
        assert np.max(np.abs(gap)) <= 1e-12


@st.composite
def potentials_in_range(draw):
    """A potential of any family, with hyperparameters over and beyond the shipped grids' span."""
    family = draw(st.sampled_from(FAMILIES))
    shapes = {"lam": 10.0 ** draw(st.floats(-3.0, 1.0)), "a": draw(st.floats(2.0, 12.0, exclude_min=True))}
    shape = SHAPE_FIELD[family]
    return Potential(family, gamma=10.0 ** draw(st.floats(-2.0, 3.0)), **({shape: shapes[shape]} if shape else {}))


signed_magnitudes = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-4.0, 2.0), st.sampled_from([-1.0, 1.0]))


@settings(max_examples=400)
@given(p=potentials_in_range(), u=signed_magnitudes, v=signed_magnitudes, near=st.booleans(),
       offset=st.floats(-1e-3, 1e-3))
def test_family_invariants_on_generated_hyperparameters(p, u, v, near, offset):
    """rho(0) = 0, rho >= 0, rho' nonincreasing in |u| from rho'(0+) = gamma, and the tangent bound.

    The tangent at u bounds rho at v (drawn apart from u, or near it) from
    above up to rounding. log-sum forms log(|v| + lam) - log(lam), which
    cancels for |v| << lam and loses bits relative to its value: with v near
    u, the largest excess seen is about 2e-11 of the terms compared, so the
    bound is checked to a relative 1e-9. log-sum's rho'(0+) is
    gamma lam / lam, which may round gamma by an ulp.
    """
    if near:
        v = u * (1.0 + offset)
    assert rho(p, 0.0) == 0.0
    assert rho_prime(p, 0.0) == pytest.approx(p.gamma, rel=1e-15, abs=0.0)
    assert rho(p, u) >= 0.0 and rho(p, v) >= 0.0
    inner, outer = sorted((u, v), key=abs)
    assert rho_prime(p, inner) >= rho_prime(p, outer)
    slope = rho_prime(p, u)
    tangent = rho(p, u) + slope * (abs(v) - abs(u))
    scale = max(rho(p, u), rho(p, v), slope * max(abs(u), abs(v)))
    assert rho(p, v) - tangent <= 1e-9 * scale
