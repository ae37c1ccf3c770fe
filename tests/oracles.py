"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths: plain-Python
distance loops for AP, exhaustive spanning-tree enumeration for the MST,
central finite differences for gradients, a record-by-record reader for
the .vec format, linear CKA, a closed-form affinity between two sets, and
a FeatureSet fault check by per-id loop, (n, d) masks and linalg.norm.
"""
from __future__ import annotations

import math
import struct
from itertools import combinations

import numpy as np

from feattrans import nn_core


def ranking_enumeration(query_id, query_vec, ref_ids, ref_vecs) -> list[str]:
    """The reference ids other than query_id, sorted by (distance, id), with
    distances in plain-Python arithmetic."""
    scored = []
    for rid, vec in zip(ref_ids, ref_vecs):
        if rid == query_id:
            continue
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(query_vec, vec)))
        scored.append((d, rid))
    scored.sort()
    return [rid for _, rid in scored]


def ap_enumeration(query_id, query_vec, ref_ids, ref_vecs, relevant) -> float:
    """Average precision by full enumeration with plain-Python arithmetic."""
    hits, total = 0, 0.0
    for k, rid in enumerate(ranking_enumeration(query_id, query_vec, ref_ids, ref_vecs), start=1):
        if rid in relevant:
            hits += 1
            total += hits / k
    return total / len(relevant)


def map_enumeration(query_ids, query_vecs, ref_ids, ref_vecs, gt) -> float:
    """mAP (%) via ap_enumeration over every ground-truth query."""
    aps = []
    lookup = {qid: vec for qid, vec in zip(query_ids, query_vecs)}
    for qid in sorted(gt):
        aps.append(ap_enumeration(qid, lookup[qid], ref_ids, ref_vecs, gt[qid]))
    return 100.0 * sum(aps) / len(aps)


def _spans(n_nodes: int, edges) -> bool:
    adj = {i: [] for i in range(n_nodes)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n_nodes


def min_spanning_weight(weights: np.ndarray) -> float:
    """Minimum spanning-tree weight of a complete graph by exhaustive
    enumeration of all (n-1)-edge subsets."""
    n = weights.shape[0]
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = math.inf
    for subset in combinations(all_edges, n - 1):
        if _spans(n, subset):
            best = min(best, sum(weights[i, j] for i, j in subset))
    return best


def build_stack(dims, final_l2_normalize, rng, last_activation="linear"):
    """He-initialized stack through `dims` whose layer into dims[-1] has
    `last_activation`. A relu there, which the library's relu ... relu, linear
    layout never builds, comes from appending an identity layer (weights I,
    bias 0); either way the stack takes the same draws from `rng`."""
    if last_activation not in ("linear", "relu"):
        raise ValueError(f"unknown activation {last_activation!r}")
    stack = nn_core.stack_views(np.empty(nn_core.stack_size(dims)), dims, final_l2_normalize)
    nn_core.he_init(stack, rng)
    if last_activation == "relu":
        stack.layers.append(nn_core.DenseLayer(np.eye(dims[-1]), np.zeros(dims[-1])))
    return stack


def finite_diff_grads(loss_fn, params, h=1e-5):
    """Central finite differences of a scalar loss over a list of arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn()
            p[idx] = orig - h
            down = loss_fn()
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def adam_textbook(params, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam (Kingma & Ba 2015, Alg. 1) written out per array, on copies of params.

    grads_per_step yields one list of gradients (one per array) per step.
    """
    params = [np.array(p, dtype=np.float64) for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g**2
            m_hat = m[i] / (1 - beta1**t)
            v_hat = v[i] / (1 - beta2**t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def linear_cka(x, y) -> float:
    """Linear centered kernel alignment between two row-aligned sets of
    vectors (Kornblith et al., ICML 2019, arXiv:1905.00414):
    ||Y'X||_F^2 / (||X'X||_F ||Y'Y||_F) with each column centered."""
    x = np.asarray(x, dtype=np.float64) - np.mean(x, axis=0)
    y = np.asarray(y, dtype=np.float64) - np.mean(y, axis=0)
    cross = np.linalg.norm(y.T @ x) ** 2
    return float(cross / (np.linalg.norm(x.T @ x) * np.linalg.norm(y.T @ y)))


def feature_set_fault(ids, vectors, normalized: bool, tol: float):
    """The first fault a FeatureSet over (ids, vectors) holds, checked in the
    order duplicate id, non-finite value, norm: the message of a duplicate or
    non-finite fault, (row, norm) of the row farthest from unit norm when
    `normalized` and some row is off by more than `tol`, else None."""
    seen = set()
    for i in ids:
        if i in seen:
            return f"duplicate id {i!r}"
        seen.add(i)
    if not np.all(np.isfinite(vectors)):
        bad = int(np.argwhere(~np.isfinite(vectors).all(axis=1))[0, 0])
        return f"record {bad + 1}: non-finite value"
    if normalized and len(ids):
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(np.abs(norms - 1.0) > tol):
            bad = int(np.argmax(np.abs(norms - 1.0)))
            return bad, float(norms[bad])
    return None


def vec_records(raw: bytes):
    """Read .vec bytes one record at a time: the (n, dim) float32 rows, or the
    message of the first fault in file order."""
    rows, dim, pos, record = [], None, 0, 0
    while pos < len(raw):
        record += 1
        if len(raw) - pos < 4:
            return f"truncated record header at record {record}"
        (d,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        if dim is None:
            if d < 1:
                return f"record 1 has dimension {d}"
            dim = d
        elif d != dim:
            return f"record {record}: dimension {d} differs from first record's {dim}"
        if len(raw) - pos < 4 * d:
            return f"truncated payload at record {record}"
        rows.append(np.frombuffer(raw, "<f4", d, pos))
        pos += 4 * d
    return np.array(rows, dtype="<f4").reshape(len(rows), dim or 0)
