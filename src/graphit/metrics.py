"""Recovery metrics: relative error and edge-detection scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .model import check_shape, is_real, real_array


@dataclass(frozen=True)
class EdgeConfusion:
    """Entrywise detection counts; tp+fp+tn+fn equals the number of entries."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def check_threshold(value, name: str) -> None:
    """Require an edge threshold to be finite and >= 0; the error names it."""
    if not (is_real(value) and 0 <= value < np.inf):
        raise ConfigError(f"{name} must be >= 0 and finite, got {value}")


def _pair(A_hat, A_true) -> tuple[np.ndarray, np.ndarray]:
    """An estimate and its truth as float arrays of one shape."""
    A_hat, A_true = real_array(A_hat, "A_hat"), real_array(A_true, "A_true")
    return check_shape(A_hat, A_true.shape, "A_hat"), A_true


def rmse(A_hat: np.ndarray, A_true: np.ndarray) -> float:
    """Relative error in Frobenius norm: ||A_hat - A_true||_F / ||A_true||_F."""
    A_hat, A_true = _pair(A_hat, A_true)
    denom = float(np.linalg.norm(A_true))
    if denom == 0.0:
        raise ConfigError("reference matrix is zero; relative error undefined")
    return float(np.linalg.norm(A_hat - A_true)) / denom


def edge_confusion(A_hat: np.ndarray, A_true: np.ndarray, threshold: float = 1e-10) -> EdgeConfusion:
    """Confusion counts with entry (i, j) an edge iff its magnitude exceeds threshold (finite, >= 0)."""
    check_threshold(threshold, "threshold")
    A_hat, A_true = _pair(A_hat, A_true)
    pred = np.abs(A_hat) > threshold
    true = np.abs(A_true) > threshold
    return EdgeConfusion(
        tp=int(np.sum(pred & true)),
        fp=int(np.sum(pred & ~true)),
        tn=int(np.sum(~pred & ~true)),
        fn=int(np.sum(~pred & true)),
    )


def accuracy(c: EdgeConfusion) -> float:
    """Fraction of entries classified correctly."""
    return (c.tp + c.tn) / c.total


def f1(c: EdgeConfusion) -> float:
    """Harmonic mean of edge precision and recall; 0 when no edge is predicted or present."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 0.0
    return 2 * c.tp / denom
