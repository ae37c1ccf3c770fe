"""Loading, validation, normalization, alignment and persistence of feature sets.

File formats:
  * vector file -- repeated records, each a little-endian u32 dimension d
    followed by d little-endian float32 values; every record must share d
  * ids file    -- UTF-8 text, one id per line, no blanks
  * ground truth -- UTF-8 lines ``query_id<TAB>rel1,rel2,...``

Vectors are float32 on disk and float64 in memory.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DuplicateId,
    InconsistentDim,
    NoCommonIds,
    NonFiniteValue,
    ZeroVector,
)

_NORM_TOL = 1e-6


@dataclass(frozen=True)
class FeatureSet:
    """An id-aligned collection of fixed-dimension real vectors."""

    name: str
    ids: tuple[str, ...]
    vectors: np.ndarray  # (n, dim) float64, row i belongs to ids[i]
    normalized: bool = False

    def __post_init__(self):
        vecs = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float64))
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "ids", tuple(self.ids))
        if vecs.ndim != 2 or vecs.shape[1] < 1:
            raise DataError(f"vectors must be a 2-d matrix with dim >= 1, got shape {vecs.shape}")
        if vecs.shape[0] != len(self.ids):
            raise DataError(
                f"{len(self.ids)} ids but {vecs.shape[0]} vector rows"
            )
        seen = set()
        for i in self.ids:
            if i in seen:
                raise DuplicateId(i)
            seen.add(i)
        if not np.all(np.isfinite(vecs)):
            bad = int(np.argwhere(~np.isfinite(vecs).all(axis=1))[0, 0])
            raise NonFiniteValue(bad + 1)
        if self.normalized and len(self.ids):
            norms = np.linalg.norm(vecs, axis=1)
            if np.any(np.abs(norms - 1.0) > _NORM_TOL):
                bad = int(np.argmax(np.abs(norms - 1.0)))
                raise DataError(
                    f"row {bad} ({self.ids[bad]!r}) flagged normalized but has norm {norms[bad]}"
                )
        vecs.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def row(self, image_id: str) -> np.ndarray:
        return self.vectors[self.ids.index(image_id)]


@dataclass(frozen=True)
class PairedSet:
    """Row-aligned (source, target) feature sets over a shared id sequence."""

    source: FeatureSet
    target: FeatureSet
    order: tuple[str, ...]
    n_dropped: int = 0

    def __post_init__(self):
        if self.source.ids != self.order or self.target.ids != self.order:
            raise DataError("paired sets must share the exact id sequence")

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class GroundTruth:
    """query id -> non-empty set of relevant reference ids."""

    relevant: dict[str, frozenset[str]]

    def __post_init__(self):
        rel = {q: frozenset(r) for q, r in self.relevant.items()}
        for q, r in rel.items():
            if not r:
                raise DataError(f"empty relevant set for query {q!r}")
        object.__setattr__(self, "relevant", rel)


def load_feature_set(vec_path, ids_path, name: str) -> FeatureSet:
    """Read a vector file plus its sidecar ids file into a FeatureSet."""
    with open(ids_path, encoding="utf-8") as f:
        ids = [line.rstrip("\n") for line in f]
    if any(i == "" for i in ids):
        raise DataError(f"{ids_path}: blank line in ids file")

    rows = []
    dim = None
    with open(vec_path, "rb") as f:
        record = 0
        while True:
            header = f.read(4)
            if not header:
                break
            if len(header) != 4:
                raise DataError(f"{vec_path}: truncated record header at record {record + 1}")
            record += 1
            (d,) = struct.unpack("<I", header)
            if dim is None:
                if d < 1:
                    raise DataError(f"{vec_path}: record 1 has dimension {d}")
                dim = d
            elif d != dim:
                raise InconsistentDim(at=record, expected=dim, got=d)
            payload = f.read(4 * d)
            if len(payload) != 4 * d:
                raise DataError(f"{vec_path}: truncated payload at record {record}")
            rows.append(np.frombuffer(payload, dtype="<f4"))
    if len(rows) != len(ids):
        raise DataError(
            f"{vec_path}: {len(rows)} vectors but {ids_path} has {len(ids)} ids"
        )
    vectors = np.array(rows, dtype=np.float64).reshape(len(rows), dim or 0)
    return FeatureSet(name=name, ids=tuple(ids), vectors=vectors)


def save_feature_set(fs: FeatureSet, vec_path, ids_path) -> None:
    """Write the binary vector file and sidecar ids file."""
    with open(vec_path, "wb") as f:
        header = struct.pack("<I", fs.dim)
        for row in fs.vectors:
            f.write(header)
            f.write(row.astype("<f4").tobytes())
    with open(ids_path, "w", encoding="utf-8") as f:
        f.writelines(i + "\n" for i in fs.ids)


def load_ground_truth(path) -> GroundTruth:
    relevant: dict[str, frozenset[str]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                query, rels = line.split("\t")
            except ValueError:
                raise DataError(f"{path}:{lineno}: expected 'query<TAB>rel1,rel2,...'")
            if query in relevant:
                raise DuplicateId(query)
            ids = frozenset(r for r in rels.split(",") if r)
            if not ids:
                raise DataError(f"{path}:{lineno}: empty relevant list for {query!r}")
            relevant[query] = ids
    return GroundTruth(relevant=relevant)


def save_ground_truth(gt: GroundTruth, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for query in sorted(gt.relevant):
            f.write(query + "\t" + ",".join(sorted(gt.relevant[query])) + "\n")


def l2_normalize(fs: FeatureSet) -> FeatureSet:
    """Scale every row to unit Euclidean norm; ids and order preserved."""
    norms = np.linalg.norm(fs.vectors, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroVector(fs.ids[int(zero[0])])
    return FeatureSet(
        name=fs.name,
        ids=fs.ids,
        vectors=fs.vectors / norms[:, None],
        normalized=True,
    )


def align_pairs(src: FeatureSet, tgt: FeatureSet) -> PairedSet:
    """Restrict both sets to their id intersection, sorted lexicographically.

    Row order of the inputs is irrelevant; the result is canonical. The count
    of ids dropped from either side is reported on the result.
    """
    common = sorted(set(src.ids) & set(tgt.ids))
    if not common:
        raise NoCommonIds()
    dropped = (len(src.ids) - len(common)) + (len(tgt.ids) - len(common))

    def restrict(fs: FeatureSet) -> FeatureSet:
        index = {i: k for k, i in enumerate(fs.ids)}
        take = [index[i] for i in common]
        return FeatureSet(
            name=fs.name,
            ids=tuple(common),
            vectors=fs.vectors[take],
            normalized=fs.normalized,
        )

    return PairedSet(
        source=restrict(src),
        target=restrict(tgt),
        order=tuple(common),
        n_dropped=dropped,
    )
