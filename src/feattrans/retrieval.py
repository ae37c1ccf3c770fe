"""Nearest-neighbor ranking and mean-average-precision scoring.

References are ranked by ascending Euclidean distance with lexicographic id
tie-breaks. AP is the standard non-interpolated variant over the full
ranking; mAP is reported as a percentage. A query id present among the
references is excluded from its own ranking.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UnknownRelevantId
from .feature_io import FeatureSet, GroundTruth
from .translator import TranslatorModel, translate


@dataclass(frozen=True)
class RankingList:
    query_id: str
    ref_ids: tuple[str, ...]  # ascending distance, ties by lexicographic id


@dataclass(frozen=True)
class EvalResult:
    map: float  # percentage in [0, 100]
    per_query_ap: dict[str, float]
    n_queries: int


def rank(query_id: str, query: np.ndarray, refs: FeatureSet) -> RankingList:
    """The references other than the query's own id, nearest first."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (refs.dim,):
        raise DataError(f"query shape {query.shape} does not match reference dim {refs.dim}")
    dists = np.linalg.norm(refs.vectors - query, axis=1)
    order = sorted(
        (i for i in range(len(refs)) if refs.ids[i] != query_id),
        key=lambda i: (dists[i], refs.ids[i]),
    )
    return RankingList(query_id=query_id, ref_ids=tuple(refs.ids[i] for i in order))


def average_precision(rl: RankingList, relevant: frozenset[str] | set[str]) -> float:
    """AP = sum over ranks of precision@k at relevant hits, over |relevant|."""
    if not relevant:
        raise DataError("relevant set must be non-empty")
    in_list = set(rl.ref_ids)
    for r in sorted(relevant):
        if r not in in_list:
            raise UnknownRelevantId(rl.query_id, r)
    hits = 0
    total = 0.0
    for k, rid in enumerate(rl.ref_ids, start=1):
        if rid in relevant:
            hits += 1
            total += hits / k
    return total / len(relevant)


def evaluate(queries: FeatureSet, refs: FeatureSet, gt: GroundTruth) -> EvalResult:
    """mAP (%) over the ground truth's queries against the reference set."""
    qindex = {qid: i for i, qid in enumerate(queries.ids)}
    if queries.dim != refs.dim:
        raise DataError(f"query dim {queries.dim} != reference dim {refs.dim}")
    per_query: dict[str, float] = {}
    for qid in sorted(gt.relevant):
        if qid not in qindex:
            raise DataError(f"ground-truth query {qid!r} missing from query feature set")
        rl = rank(qid, queries.vectors[qindex[qid]], refs)
        per_query[qid] = average_precision(rl, gt.relevant[qid])
    if not per_query:
        raise DataError("ground truth contains no queries")
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
