"""Directed and undirected affinity matrices between feature types.

The directed entry for an ordered pair is the translation error minus the
reconstruction error of that pair's trained translator on a held-out split.
Row and column min-max normalizations produce R and C; the undirected matrix
is U = (R + R^T + C + C^T) / 4. Degenerate (constant) rows or columns
normalize to all zeros.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .feature_io import PairedSet
from .translator import NO_RECONSTRUCT, TranslatorModel, _batch_losses, _check_dim

DIRECTED_M = "directed_M"
ROW_NORM_R = "row_norm_R"
COL_NORM_C = "col_norm_C"
UNDIRECTED_U = "undirected_U"

_SYM_TOL = 1e-12
MISSING_PAIR = "no trained model for pair ({!r}, {!r})"


@dataclass(frozen=True)
class AffinityMatrix:
    names: tuple[str, ...]
    values: np.ndarray  # (n, n) float64, rows = source, cols = target
    kind: str

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "names", tuple(self.names))
        n = len(self.names)
        if n < 2 or vals.shape != (n, n):
            raise DataError(f"expected square matrix over >= 2 names, got shape {vals.shape}")
        if len(set(self.names)) != n:
            raise DataError(f"duplicate feature-set names in {self.names}")
        if not np.all(np.isfinite(vals)):
            raise DataError("affinity matrix contains non-finite values")
        if self.kind in (ROW_NORM_R, COL_NORM_C, UNDIRECTED_U):
            if vals.min() < -_SYM_TOL or vals.max() > 1 + _SYM_TOL:
                raise DataError(f"{self.kind} entries must lie in [0, 1]")
        if self.kind == UNDIRECTED_U and np.abs(vals - vals.T).max() > _SYM_TOL:
            raise DataError("undirected matrix must be symmetric")
        vals.setflags(write=False)

    def entry(self, source: str, target: str) -> float:
        return float(self.values[self.names.index(source), self.names.index(target)])


def dam_entry(model: TranslatorModel, paired: PairedSet) -> float:
    """Translation error minus reconstruction error on the given split;
    DataError for a model with no reconstruct path."""
    if not model.reconstruct_path:
        raise DataError(NO_RECONSTRUCT)
    _check_dim(model.reconstruct_path, paired.target, "target")
    _check_dim(model.translate_path, paired.source, "source")
    trans, recon = _batch_losses(model, paired.source.vectors, paired.target.vectors, paired.order)
    return trans - recon


def build_dam(
    models: dict[tuple[str, str], TranslatorModel],
    pairs: dict[tuple[str, str], PairedSet],
    names: list[str] | tuple[str, ...],
) -> AffinityMatrix:
    """The directed matrix over `names`, diagonal included, from models and held-out
    pairs already in memory, row by row; DataError for a pair absent from either."""
    def entry(s: str, t: str) -> float:
        if (s, t) not in models or (s, t) not in pairs:
            raise DataError(MISSING_PAIR.format(s, t))
        return dam_entry(models[(s, t)], pairs[(s, t)])

    return AffinityMatrix(names, [[entry(s, t) for t in names] for s in names], DIRECTED_M)


def _minmax(m: AffinityMatrix, axis: int, kind: str) -> AffinityMatrix:
    """Min-max normalize a directed matrix along `axis` into `kind`. Its values
    are finite, so a constant row or column gives values - lo == +0.0, zeros."""
    if m.kind != DIRECTED_M:
        raise DataError(f"expected a directed matrix, got kind {m.kind!r}")
    lo = m.values.min(axis=axis, keepdims=True)
    span = m.values.max(axis=axis, keepdims=True) - lo
    out = (m.values - lo) / np.where(span == 0.0, 1.0, span)
    return AffinityMatrix(names=m.names, values=out, kind=kind)


def normalize_rows(m: AffinityMatrix) -> AffinityMatrix:
    """Min-max normalize each row to [0, 1]; constant rows map to zeros."""
    return _minmax(m, axis=1, kind=ROW_NORM_R)


def normalize_cols(m: AffinityMatrix) -> AffinityMatrix:
    """Column-wise analogue of normalize_rows."""
    return _minmax(m, axis=0, kind=COL_NORM_C)


def uam(r: AffinityMatrix, c: AffinityMatrix) -> AffinityMatrix:
    if r.names != c.names or r.values.shape != c.values.shape:
        raise DataError("R and C must share names and shape")
    u = (r.values + r.values.T + c.values + c.values.T) / 4.0
    u = np.clip((u + u.T) / 2.0, 0.0, 1.0)  # exact symmetry against rounding
    return AffinityMatrix(names=r.names, values=u, kind=UNDIRECTED_U)


def write_matrix_csv(m: AffinityMatrix, path) -> None:
    """First row/column are the feature names; full float64 precision."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["", *m.names])
        for name, row in zip(m.names, m.values):
            w.writerow([name, *(repr(float(x)) for x in row)])


def read_matrix_csv(path, kind: str) -> AffinityMatrix:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))
        if not rows or rows[0][:1] != [""]:
            raise DataError("expected a header row starting with an empty cell")
        names = tuple(rows[0][1:])
        values = []
        for k, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(values) == len(names) or row[0] != names[len(values)]:
                raise DataError(f"row {k}: label {row[0]!r} does not match header order")
            if len(row) != len(names) + 1:
                raise DataError(f"row {k}: {len(row) - 1} values for {len(names)} names")
            try:
                values.append([float(x) for x in row[1:]])
            except ValueError as exc:
                raise DataError(f"row {k}: {exc}") from None
        return AffinityMatrix(names=names, values=np.array(values), kind=kind)
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: row {row}: not UTF-8 text") from None
    except (csv.Error, DataError) as exc:
        raise DataError(f"{path}: {exc}") from None
