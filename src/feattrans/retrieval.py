"""Nearest-neighbor ranking and mean-average-precision scoring.

References are ranked by ascending Euclidean distance with lexicographic id
tie-breaks. AP is the standard non-interpolated variant over the full
ranking; mAP is reported as a percentage. A query id present among the
references is excluded from its own ranking.

`evaluate` scores blocks of queries across the usable cores. For a block it
computes the exact difference distances to one cache-sized tile of references
at a time, orders each row by (distance, id) with a sort over the references
in id order, and takes each AP from the ranks at which the relevant
references appear. A distance runs the operations of
`np.linalg.norm(refs - q, axis=1)` and an AP sums precision@k in rank order,
so every AP and the mAP are bit-identical to the one-query-at-a-time,
one-thread definition. Working memory is set by fixed byte budgets per block.
`rank` and `average_precision` are that same kernel, ordering and AP for one
query.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UnknownRelevantId
from .feature_io import FeatureSet, GroundTruth
from .nn_core import _split
from .translator import TranslatorModel, translate

_TILE_BYTES = 1 << 18  # the difference buffer for one tile of references
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


def _distances(queries: list[np.ndarray], refs: np.ndarray) -> np.ndarray:
    """Euclidean distance of every query vector to every reference row, as
    (len(queries), len(refs)). Each reference tile stays in cache while every
    query is subtracted from it, squared and summed along the row in place."""
    n, dim = refs.shape
    out = np.empty((len(queries), n))
    rows = max(1, _TILE_BYTES // (8 * dim))
    diff = np.empty((min(rows, n), dim))
    for start in range(0, n, rows):
        tile = refs[start : start + rows]
        buf = diff[: len(tile)]
        for q, dist in zip(queries, out[:, start : start + rows]):
            np.subtract(tile, q, out=buf)
            np.multiply(buf, buf, out=buf)
            np.add.reduce(buf, axis=1, out=dist)
    return np.sqrt(out, out=out)


def _id_order(ids: tuple[str, ...]) -> np.ndarray:
    """The indices of the ids in lexicographic id order."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def _ranked(dist: np.ndarray, id_order: np.ndarray, own: list[int]) -> list[np.ndarray]:
    """Each row's reference indices, nearest first with ties by id, without
    the query's own index (-1 when the query is not a reference). Over
    columns in id order, a row without equal distances has one order, which
    the unstable sort finds; a stable sort leaves any other row's ties by id."""
    d = dist[:, id_order]
    order = np.argsort(d, axis=1)
    s = np.take_along_axis(d, order, axis=1)
    tied = ~(s[:, 1:] > s[:, :-1]).all(axis=1)
    order[tied] = np.argsort(d[tied], axis=1, kind="stable")
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
    (row,) = _ranked(_distances([query], refs.vectors), _id_order(refs.ids), [own])
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

    def block_aps(ids: list[str]) -> list[float]:
        dist = _distances([queries.vectors[qindex[q]] for q in ids], refs.vectors)
        rows = _ranked(dist, id_order, [rindex.get(q, -1) for q in ids])
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
    per_query = dict(zip(qids, (ap for aps in _split(block_aps, blocks) for ap in aps)))
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
