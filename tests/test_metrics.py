import numpy as np
import pytest

from graphit import EdgeConfusion, accuracy, edge_confusion, f1, rmse


class TestRMSE:
    def test_exact_recovery(self):
        A = np.array([[0.5, 0.0], [0.1, 0.2]])
        assert rmse(A, A) == 0.0

    def test_zero_estimate(self):
        A = np.array([[0.5, 0.0], [0.1, 0.2]])
        assert rmse(np.zeros_like(A), A) == pytest.approx(1.0)

    def test_hand_value(self):
        A_true = np.eye(2)
        A_hat = np.diag([1.1, 0.9])
        assert rmse(A_hat, A_true) == pytest.approx(np.sqrt(0.02) / np.sqrt(2.0), rel=1e-12)
        assert rmse(A_hat, A_true) == pytest.approx(0.1, rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.eye(2), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.eye(2), np.eye(3))

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert rmse(U @ A @ U.T, U @ B @ U.T) == pytest.approx(rmse(A, B), rel=1e-10)


class TestEdgeConfusion:
    def test_perfect_detection(self):
        A = np.array([[0.5, 0.0], [0.0, 0.5]])
        c = edge_confusion(A, A, threshold=1e-10)
        assert (c.fp, c.fn) == (0, 0)
        assert c.tp == 2 and c.tn == 2

    def test_enumerated_case(self):
        A_true = np.array([[0.5, 0.0], [0.0, 0.5]])
        A_hat = np.array([[0.4, 0.2], [0.0, 0.45]])
        c = edge_confusion(A_hat, A_true, threshold=1e-10)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 0)

    def test_zero_estimate_misses_all(self):
        A_true = np.array([[0.5, 0.0], [0.3, 0.5]])
        c = edge_confusion(np.zeros((2, 2)), A_true)
        assert c.fn == 3 and c.tp == 0

    def test_counts_cover_all_entries(self):
        rng = np.random.default_rng(1)
        A_hat = rng.standard_normal((5, 5)) * (rng.random((5, 5)) > 0.5)
        A_true = rng.standard_normal((5, 5)) * (rng.random((5, 5)) > 0.7)
        c = edge_confusion(A_hat, A_true, threshold=0.1)
        assert c.total == 25

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(2)
        A_hat = rng.standard_normal((6, 6))
        A_true = rng.standard_normal((6, 6))
        previous = None
        for threshold in (0.0, 0.1, 0.5, 1.0, 2.0):
            c = edge_confusion(A_hat, A_true, threshold)
            predicted = c.tp + c.fp
            if previous is not None:
                assert predicted <= previous
            previous = predicted

    def test_permutation_invariance_of_scores(self):
        rng = np.random.default_rng(3)
        A_hat = rng.standard_normal((5, 5)) * (rng.random((5, 5)) > 0.6)
        A_true = rng.standard_normal((5, 5)) * (rng.random((5, 5)) > 0.6)
        perm = rng.permutation(5)
        c = edge_confusion(A_hat, A_true, 1e-10)
        cp = edge_confusion(A_hat[np.ix_(perm, perm)], A_true[np.ix_(perm, perm)], 1e-10)
        assert accuracy(c) == accuracy(cp)
        assert f1(c) == f1(cp)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            edge_confusion(np.eye(2), np.eye(2), threshold=-1.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be >= 0 and finite"):
            edge_confusion(np.eye(2), np.eye(2), threshold=threshold)


class TestScores:
    def test_accuracy_enumerated(self):
        c = EdgeConfusion(tp=2, fp=1, tn=1, fn=0)
        assert accuracy(c) == pytest.approx(0.75)

    def test_accuracy_perfect_and_all_wrong(self):
        assert accuracy(EdgeConfusion(tp=3, fp=0, tn=1, fn=0)) == 1.0
        assert accuracy(EdgeConfusion(tp=0, fp=2, tn=0, fn=2)) == 0.0

    def test_f1_enumerated(self):
        c = EdgeConfusion(tp=2, fp=1, tn=1, fn=0)
        assert f1(c) == pytest.approx(0.8)

    def test_f1_perfect(self):
        assert f1(EdgeConfusion(tp=4, fp=0, tn=12, fn=0)) == 1.0

    def test_f1_degenerate_zero(self):
        assert f1(EdgeConfusion(tp=0, fp=0, tn=4, fn=0)) == 0.0

    def test_dense_estimate_formulas(self):
        # fully dense estimate against an s-sparse truth on an n-by-n grid
        n, s = 8, 4
        A_true = np.zeros((n, n))
        A_true[0, :s] = 1.0
        A_hat = np.ones((n, n))
        c = edge_confusion(A_hat, A_true)
        assert accuracy(c) == pytest.approx(s / n**2)
        assert f1(c) == pytest.approx(2 * s / (2 * s + n**2 - s))
