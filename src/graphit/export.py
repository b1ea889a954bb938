"""Output formats: the benchmark table, grid and curve CSVs, and DOT graphs.

Every number is written with 5 significant digits in fixed decimal notation
(`_fmt5`), so the tables are byte-deterministic for a given input.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import ConfigError
from .metrics import check_threshold
from .model import check_square, real_array
from .penalties import Potential


@dataclass(frozen=True)
class BenchmarkRow:
    """Per-method averages over the realizations that completed."""

    scenario: str
    method: str
    potential: str
    hyperparams: str
    rmse: float
    accuracy: float
    f1: float
    time_s: float
    realizations: int


CSV_HEADER = [f.name for f in fields(BenchmarkRow)]


def _fmt5(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    s = np.format_float_positional(x, precision=5, unique=False, fractional=False, trim="-")
    neg = s.startswith("-")
    digits = s.lstrip("-")
    sig = len(digits.replace(".", "").lstrip("0"))
    if sig == 0:
        return "0.0000"
    if sig < 5:
        if "." not in digits:
            digits += "."
        digits += "0" * (5 - sig)
    return ("-" if neg else "") + digits


def _hyper_string(p: Potential | None) -> str:
    """The `hyperparams` column of the benchmark table: name=value pairs joined by semicolons."""
    return "" if p is None else ";".join(f"{name}={_fmt5(v)}" for name, v in p.hyperparams.items())


def _point_string(p: Potential) -> str:
    """A grid point as its hyperparameter values joined by semicolons."""
    return ";".join(_fmt5(v) for v in p.hyperparams.values())


def _render_csv(header: list[str], records) -> str:
    """CSV text of a header row and then each record, one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return buf.getvalue()


def export_csv(rows: list[BenchmarkRow], include_times: bool = True) -> str:
    """Render benchmark rows as CSV, sorted by (scenario, method)."""
    header = [name for name in CSV_HEADER if include_times or name != "time_s"]
    records = (
        [_fmt5(value) if isinstance(value, float) else value for value in (getattr(row, name) for name in header)]
        for row in sorted(rows, key=lambda r: (r.scenario, r.method))
    )
    return _render_csv(header, records)


def export_dot(A: np.ndarray, threshold: float = 1e-10) -> str:
    """DOT digraph of the supra-threshold support of a non-empty square matrix.

    Entry (i, j) above threshold in magnitude becomes the edge j -> i
    (column index drives row index), labeled with the entry value. Nodes
    are 1-based and always all present. The threshold must be finite and >= 0,
    and so must every entry be finite: a NaN has no edge to draw or omit.
    """
    check_threshold(threshold, "threshold")
    A = check_square(real_array(A, "A"), "A")
    if not np.isfinite(A).all():
        raise ConfigError("the matrix has NaN or infinite entries")
    n = A.shape[0]
    lines = ["digraph transition {"]
    for node in range(1, n + 1):
        lines.append(f"  {node};")
    for j in range(n):
        for i in range(n):
            if abs(A[i, j]) > threshold:
                lines.append(f'  {j + 1} -> {i + 1} [label="{_fmt5(A[i, j])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_curve_csv(table: np.ndarray) -> str:
    return _render_csv(["u", "rho"], ([_fmt5(u), _fmt5(value)] for u, value in table))


def export_grid_csv(method: str, table) -> str:
    records = ([method, _point_string(point), _fmt5(score)] for point, score in table)
    return _render_csv(["method", "hyperparams", "rmse"], records)
