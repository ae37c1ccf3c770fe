"""Nearest-neighbor ranking and mean-average-precision scoring.

References are ranked by ascending Euclidean distance with lexicographic id
tie-breaks. AP is the standard non-interpolated variant over the full
ranking; mAP is reported as a percentage. A query id present among the
references is excluded from its own ranking.

`evaluate` scores blocks of queries on the caller's thread, whose BLAS calls
already use every core. For a block, one BLAS product gives each squared
distance as ||q||^2 + ||r||^2 - 2 q.r, and one sort per row over the
references in id order orders them by it. Neighbours in that order more than
`_margin` apart have exact distances in the same strict order; each run of
neighbours within it gets exact distances, by the operations of
`np.linalg.norm(refs - q, axis=1)`, and is sorted by (distance, id). Each AP
comes from the ranks at which the relevant references appear and sums
precision@k in rank order, so every AP and the mAP are bit-identical to the
one-query-at-a-time definition. Working memory is set by fixed byte budgets
per block. `rank` and `average_precision` are that same ordering and AP for
one query.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UnknownRelevantId
from .feature_io import FeatureSet, GroundTruth
from .translator import TranslatorModel, translate

_TILE_BYTES = 1 << 18  # the difference buffer for one tile of exact distances
_BLOCK_BYTES = 1 << 18  # one block of query-to-reference distances


@dataclass(frozen=True)
class RankingList:
    query_id: str
    ref_ids: tuple[str, ...]  # ascending distance, ties by lexicographic id


@dataclass(frozen=True)
class EvalResult:
    map: float  # percentage in [0, 100]
    per_query_ap: dict[str, float]
    n_queries: int


def _margin(q_sq: np.ndarray, ref_sq_max: float, dim: int) -> np.ndarray:
    """The gap between neighbours in BLAS-form order above which their exact
    distances are strictly ordered the same way, per query row.

    To first order in u = 2^-53, with eta = 2^-1074, n = dim and
    S = 4(||q||^2 + max ||r||^2) >= 2(||q|| + ||r||)^2, a squared distance
    D = ||r - q||^2 is missed by at most (n + 2) u S/2 + 2n eta in the BLAS form
    (three n-term sums in any order, FMA or not, and two additions) and by
    (n + 2) u S/2 + n eta/2 in the exact form (differences, squares, n - 1
    additions of non-negative terms). So neighbours a < b with b - a > 2 e_blas
    + 2 e_exact + 2 u S have exact sums x < y with y - x > 4 u y, so
    sqrt(y) - sqrt(x) > 2 u sqrt(y), an ulp of that normal root: the rounded
    roots are strictly ordered too. That bound, (2n + 6) u S + 5n eta, is below
    m / 1.6 at any n. A finite S keeps every BLAS-form value and gap finite
    (||q||^2 + max ||r||^2 <= MAX/4); an inf or NaN S makes m inf or NaN."""
    return 8 * (dim + 8) * (2.0**-53 * (4 * (q_sq + ref_sq_max)) + 2.0**-1074)


def _exact(queries: np.ndarray, refs: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Distance of queries[rows[k]] to refs[cols[k]] for each k, by the operations
    of np.linalg.norm(refs[cols] - q, axis=1), a _TILE_BYTES tile at a time."""
    out = np.empty(len(rows))
    step = max(1, _TILE_BYTES // (8 * refs.shape[1]))
    for lo in range(0, len(rows), step):
        diff = refs[cols[lo : lo + step]]
        np.subtract(diff, queries[rows[lo : lo + step]], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=1, out=out[lo : lo + step])
    return np.sqrt(out, out=out)


def _id_order(ids: tuple[str, ...]) -> np.ndarray:
    """The indices of the ids in lexicographic id order."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def _ranked(queries: np.ndarray, refs: np.ndarray, ref_sq: np.ndarray, id_order: np.ndarray,
            own: list[int]) -> list[np.ndarray]:
    """Each query row's reference indices by (exact distance, id), without the
    query's own index (-1 if none). One GEMM orders each row; each run of
    neighbours no more than _margin apart gets exact distances and is re-sorted."""
    with np.errstate(all="ignore"):
        q_sq = np.einsum("ij,ij->i", queries, queries)[:, None]
        d = (queries @ refs.T * -2 + ref_sq + q_sq)[:, id_order]
        order = np.argsort(d, axis=1)
        gap = np.diff(np.take_along_axis(d, order, axis=1), axis=1)
        # joined[i, p]: position p of row i is in one run with position p - 1
        joined = np.pad(~(gap > _margin(q_sq, ref_sq.max(), refs.shape[1])), ((0, 0), (1, 1)))
    rows, pos = np.nonzero(joined[:, :-1] | joined[:, 1:])
    ranks = order[rows, pos]
    dist = _exact(queries, refs, rows, id_order[ranks])
    order[rows, pos] = ranks[np.lexsort((ranks, dist, np.cumsum(~joined[rows, pos])))]
    return [row[row != i] for row, i in zip(id_order[order], own)]


def _ap(hits: np.ndarray, n_relevant: int) -> float:
    """AP from the ascending 1-based ranks of the relevant hits: precision@k
    summed in rank order (a running sum, not a pairwise one), over |relevant|."""
    precision = np.arange(1, len(hits) + 1) / hits
    return float(np.add.accumulate(precision)[-1]) / n_relevant


def rank(query_id: str, query: np.ndarray, refs: FeatureSet) -> RankingList:
    """The references other than the query's own id, nearest first."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (refs.dim,):
        raise DataError(f"query shape {query.shape} does not match reference dim {refs.dim}")
    own = refs.ids.index(query_id) if query_id in refs.ids else -1
    ref_sq = np.einsum("ij,ij->i", refs.vectors, refs.vectors)  # einsum never warns
    (row,) = _ranked(query[None], refs.vectors, ref_sq, _id_order(refs.ids), [own])
    return RankingList(query_id=query_id, ref_ids=tuple(refs.ids[i] for i in row))


def average_precision(rl: RankingList, relevant: frozenset[str] | set[str]) -> float:
    """AP = sum over ranks of precision@k at relevant hits, over |relevant|."""
    if not relevant:
        raise DataError("relevant set must be non-empty")
    in_list = set(rl.ref_ids)
    for r in sorted(relevant):
        if r not in in_list:
            raise UnknownRelevantId(rl.query_id, r)
    hits = np.array([k for k, rid in enumerate(rl.ref_ids, start=1) if rid in relevant])
    return _ap(hits, len(relevant))


def evaluate(queries: FeatureSet, refs: FeatureSet, gt: GroundTruth) -> EvalResult:
    """mAP (%) over the ground truth's queries against the reference set."""
    qindex = {qid: i for i, qid in enumerate(queries.ids)}
    if queries.dim != refs.dim:
        raise DataError(f"query dim {queries.dim} != reference dim {refs.dim}")
    rindex = {rid: i for i, rid in enumerate(refs.ids)}
    qids = sorted(gt.relevant)
    for qid in qids:
        if qid not in qindex:
            raise DataError(f"ground-truth query {qid!r} missing from query feature set")
        for r in sorted(gt.relevant[qid]):
            if r == qid or r not in rindex:
                raise UnknownRelevantId(qid, r)
    if not qids:
        raise DataError("ground truth contains no queries")

    id_order = _id_order(refs.ids)
    ref_sq = np.einsum("ij,ij->i", refs.vectors, refs.vectors)  # einsum never warns

    def block_aps(ids: list[str]) -> list[float]:
        block = queries.vectors[[qindex[q] for q in ids]]
        rows = _ranked(block, refs.vectors, ref_sq, id_order, [rindex.get(q, -1) for q in ids])
        is_relevant = np.zeros(len(refs), dtype=bool)
        aps = []
        for qid, row in zip(ids, rows):
            rel = [rindex[r] for r in gt.relevant[qid]]
            is_relevant[rel] = True
            aps.append(_ap(np.flatnonzero(is_relevant[row]) + 1, len(rel)))
            is_relevant[rel] = False
        return aps

    block = max(1, _BLOCK_BYTES // (8 * len(refs)))
    blocks = [qids[start : start + block] for start in range(0, len(qids), block)]
    per_query = dict(zip(qids, (ap for ids in blocks for ap in block_aps(ids))))
    mean_ap = float(np.mean(list(per_query.values())))
    return EvalResult(map=100.0 * mean_ap, per_query_ap=per_query, n_queries=len(per_query))


def cross_feature_evaluate(
    model: TranslatorModel,
    source_refs: FeatureSet,
    target_queries: FeatureSet,
    gt: GroundTruth,
) -> EvalResult:
    """Translate the reference features to the target space, then evaluate
    with the target-space query features."""
    translated = translate(model, source_refs)
    return evaluate(target_queries, translated, gt)


def write_eval_csv(result: EvalResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["query_id", "ap"])
        for qid in sorted(result.per_query_ap):
            w.writerow([qid, repr(float(result.per_query_ap[qid]))])
        w.writerow(["mAP(%)", repr(float(result.map))])
