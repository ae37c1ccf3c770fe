"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths: plain-Python
distance loops for AP, exhaustive spanning-tree enumeration for the MST,
central finite differences for gradients, and a record-by-record reader
for the .vec format.
"""
from __future__ import annotations

import math
import struct
from itertools import combinations

import numpy as np

from feattrans import nn_core


def ap_enumeration(query_id, query_vec, ref_ids, ref_vecs, relevant) -> float:
    """Average precision by full enumeration with plain-Python arithmetic."""
    scored = []
    for rid, vec in zip(ref_ids, ref_vecs):
        if rid == query_id:
            continue
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(query_vec, vec)))
        scored.append((d, rid))
    scored.sort()
    hits, total = 0, 0.0
    for k, (_, rid) in enumerate(scored, start=1):
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
    """He-initialized stack through `dims` ending in `last_activation`; the
    gradient checks also run relu-last stacks, which the library never builds."""
    stack = nn_core.stack_views(np.empty(nn_core.stack_size(dims)), dims, final_l2_normalize)
    stack.layers[-1].activation = last_activation
    nn_core.he_init(stack, rng)
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
