"""Nearest-neighbor ranking and mean-average-precision scoring.

References are ranked by ascending Euclidean distance with lexicographic id
tie-breaks. AP is the standard non-interpolated variant over the full
ranking; mAP is reported as a percentage. A query id present among the
references is excluded from its own ranking.

`evaluate` scores blocks of queries on the caller's thread, whose BLAS calls
already use every core. For a block, one BLAS product gives each squared
distance as ||q||^2 + ||r||^2 - 2 q.r, and each row's values are sorted. AP
reads only the ranks of a query's relevant references. A reference whose value
lies more than `_margin` below (above) a relevant one's has a strictly smaller
(larger) exact distance, so a binary search of the sorted row counts the
references provably ahead of it. Only the references within that margin of it
(near-ties, duplicates) get exact distances, by the operations of
`np.linalg.norm(refs - q, axis=1)`, and are compared by (distance, id). One
padded matrix of the block's sorted hit ranks and one running sum of
precision@k give every AP, so every AP and the mAP are bit-identical to the
one-query-at-a-time definition. When len(refs) <= dim one block holds every
query, since its distances then take no more room than the query vectors;
otherwise a block holds `_BLOCK_BYTES` of distances. `rank` is the definition
itself, every exact distance sorted by (distance, id), and `average_precision`
the same running sum for one ranking.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError
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


def _prefix(s: np.ndarray, rows: np.ndarray, keep) -> np.ndarray:
    """For each k, the length of the prefix of the sorted row s[rows[k]] on
    which keep(values)[k] holds, by binary search; keep must hold on a prefix."""
    n = s.shape[1]
    flat = s.reshape(-1)
    start = rows * n
    pos, end = start.copy(), start + n  # flat index just past the known prefix
    step = 1 << (n.bit_length() - 1)
    while step:
        cand = pos + step
        ok = cand <= end
        ok &= keep(flat[np.minimum(cand, end) - 1])
        pos += step * ok
        step >>= 1
    return pos - start


def _hit_ranks(queries: np.ndarray, refs: np.ndarray, ref_sq: np.ndarray, id_rank: np.ndarray,
               own: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The 1-based rank of refs[cols[k]] among the references other than
    queries[rows[k]]'s own index (own[row], -1 if none), by (exact distance, id).

    One GEMM gives each row's BLAS-form squared distances. A reference whose
    value is more than _margin below (above) the pair's is provably ahead of
    (behind) it, and a binary search over the row's sorted values counts those.
    The rest, the pair's margin window, get exact distances and are compared by
    (distance, id); a non-finite margin makes the window the whole row."""
    with np.errstate(all="ignore"):
        q_sq = np.einsum("ij,ij->i", queries, queries)
        d = queries @ refs.T
        d *= -2
        d += ref_sq
        d += q_sq[:, None]
        margin = _margin(q_sq[rows], ref_sq.max(), refs.shape[1])
        d[np.flatnonzero(own >= 0), own[own >= 0]] = np.inf
        at = d[rows, cols]
        s = np.sort(d, axis=1)
        ahead = _prefix(s, rows, lambda v: at - v > margin)
        end = _prefix(s, rows, lambda v: ~(v - at > margin))
    # A wide pair's window is sorted positions ahead .. end - 1 of its row; its
    # members other than the query's own index get exact distances.
    wide = np.flatnonzero(end - ahead > 1)
    wide_rows, row_of = np.unique(rows[wide], return_inverse=True)
    width = end[wide] - ahead[wide]
    pair = np.repeat(wide, width)
    pos = np.arange(len(pair)) - np.repeat(np.cumsum(width) - width - ahead[wide], width)
    member = np.argsort(d[wide_rows], axis=1)[np.repeat(row_of, width), pos]
    kept = member != own[rows[pair]]
    pair, member = pair[kept], member[kept]
    dist = _exact(queries, refs, rows[pair], member)
    is_hit = member == cols[pair]
    hit_dist = np.empty(len(rows))
    hit_dist[pair[is_hit]] = dist[is_hit]
    hit_dist = hit_dist[pair]
    before = (dist < hit_dist) | ((dist == hit_dist) & (id_rank[member] < id_rank[cols[pair]]))
    return 1 + ahead + np.bincount(pair[before], minlength=len(rows))


def _aps(hits: np.ndarray, n_relevant: np.ndarray | int) -> np.ndarray:
    """Each row's AP from its ascending 1-based hit ranks, padded with inf:
    precision@k summed in rank order (a running sum, not a pairwise one), over
    |relevant|."""
    precision = np.arange(1, hits.shape[1] + 1) / hits
    return np.add.accumulate(precision, axis=1)[:, -1] / n_relevant


def rank(query_id: str, query: np.ndarray, refs: FeatureSet) -> RankingList:
    """The references other than the query's own id, by (exact distance, id)."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (refs.dim,):
        raise DataError(f"query shape {query.shape} does not match reference dim {refs.dim}")
    if not np.isfinite(query).all():
        raise DataError(f"query {query_id!r} has a non-finite value")
    by_id = _id_order(refs.ids)
    dist = _exact(query[None], refs.vectors, np.zeros(len(refs), dtype=np.intp), by_id)
    ids = (refs.ids[i] for i in by_id[np.argsort(dist, kind="stable")])
    return RankingList(query_id=query_id, ref_ids=tuple(i for i in ids if i != query_id))


def average_precision(rl: RankingList, relevant: frozenset[str] | set[str]) -> float:
    """AP = sum over ranks of precision@k at relevant hits, over |relevant|."""
    if not relevant:
        raise DataError("relevant set must be non-empty")
    in_list = set(rl.ref_ids)
    for r in sorted(relevant):
        if r not in in_list:
            raise DataError(f"relevant id {r!r} for query {rl.query_id!r} not present in reference set")
    hits = np.array([[k for k, rid in enumerate(rl.ref_ids, start=1) if rid in relevant]])
    return float(_aps(hits, len(relevant))[0])


def evaluate(queries: FeatureSet, refs: FeatureSet, gt: GroundTruth) -> EvalResult:
    """mAP (%) over the ground truth's queries against the reference set."""
    qindex = {qid: i for i, qid in enumerate(queries.ids)}
    if queries.dim != refs.dim:
        raise DataError(f"query dim {queries.dim} != reference dim {refs.dim}")
    rindex = {rid: i for i, rid in enumerate(refs.ids)}
    qids = sorted(gt.relevant)
    # One pass in query-then-id order checks the ground truth and lists each
    # query's relevant-reference columns: qids[k]'s are cols[starts[k]:starts[k + 1]].
    cols, starts = [], [0]
    for qid in qids:
        if qid not in qindex:
            raise DataError(f"ground-truth query {qid!r} missing from query feature set")
        for r in sorted(gt.relevant[qid]):
            if r == qid or r not in rindex:
                raise DataError(f"relevant id {r!r} for query {qid!r} not present in reference set")
            cols.append(rindex[r])
        starts.append(len(cols))
    if not qids:
        raise DataError("ground truth contains no queries")
    cols, starts = np.array(cols, dtype=np.intp), np.array(starts)
    qrows = [qindex[q] for q in qids]
    own = np.array([rindex.get(q, -1) for q in qids])

    id_rank = np.empty(len(refs), dtype=np.intp)
    id_rank[_id_order(refs.ids)] = np.arange(len(refs))
    ref_sq = np.einsum("ij,ij->i", refs.vectors, refs.vectors)  # einsum never warns

    # With len(refs) <= dim one block's distances take no more room than its queries' vectors
    block = len(qids) if len(refs) <= refs.dim else max(1, _BLOCK_BYTES // (8 * len(refs)))

    def block_aps(lo: int) -> list[float]:
        hi = min(lo + block, len(qids))
        n_rel = np.diff(starts[lo : hi + 1])
        rows = np.repeat(np.arange(hi - lo), n_rel)
        slot = np.arange(len(rows)) - np.repeat(starts[lo:hi] - starts[lo], n_rel)
        hits = np.full((hi - lo, n_rel.max()), np.inf)
        hits[rows, slot] = _hit_ranks(queries.vectors[qrows[lo:hi]], refs.vectors, ref_sq, id_rank,
                                      own[lo:hi], rows, cols[starts[lo] : starts[hi]])
        hits.sort(axis=1)
        return _aps(hits, n_rel).tolist()

    per_query = dict(zip(qids, (ap for lo in range(0, len(qids), block) for ap in block_aps(lo))))
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
