"""Kruskal minimum spanning tree over the complete affinity graph.

Edges are the upper-triangle entries of the undirected affinity matrix.
Ties are broken by lexicographic name pair so the result is deterministic.
export() writes it as mst.dot (edge length/label = weight) and mst.json.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .affinity import UNDIRECTED_U, AffinityMatrix
from .errors import DataError


@dataclass(frozen=True)
class MstResult:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]  # (a, b, weight), a < b
    total_weight: float


def kruskal(u: AffinityMatrix) -> MstResult:
    if u.kind != UNDIRECTED_U:
        raise DataError(f"affinity matrix is not a symmetric undirected matrix (kind {u.kind!r})")
    names = u.names
    n = len(names)
    candidates = []
    for i in range(n):
        for j in range(i + 1, n):
            a, b = sorted((names[i], names[j]))
            candidates.append((float(u.values[i, j]), a, b))
    candidates.sort()  # by weight, then lexicographic name pair

    # one component label per node; n is the number of feature types
    component = {name: k for k, name in enumerate(names)}
    edges = []
    for w, a, b in candidates:
        ca, cb = component[a], component[b]
        if ca != cb:
            component = {name: ca if c == cb else c for name, c in component.items()}
            edges.append((a, b, w))
            if len(edges) == n - 1:
                break
    return MstResult(
        nodes=names,
        edges=tuple(edges),
        total_weight=float(sum(w for _, _, w in edges)),
    )


def _dot_id(name: str) -> str:
    """`name` as a quoted DOT id, its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export(mst: MstResult, out_dir) -> None:
    """Write mst.dot and mst.json into the existing directory `out_dir`."""
    out_dir = Path(out_dir)
    lines = ["graph affinity {"]
    for name in mst.nodes:
        lines.append(f"  {_dot_id(name)};")
    for a, b, w in mst.edges:
        lines.append(f'  {_dot_id(a)} -- {_dot_id(b)} [len={w!r}, label="{w:.3f}"];')
    lines.append("}")
    with open(out_dir / "mst.dot", "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    payload = {
        "nodes": list(mst.nodes),
        "edges": [{"a": a, "b": b, "w": w} for a, b, w in mst.edges],
        "total_weight": mst.total_weight,
    }
    with open(out_dir / "mst.json", "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
