"""Loading, validation, normalization, alignment and persistence of feature sets.

File formats:
  * vector file -- repeated records, each a little-endian u32 dimension d
    followed by d little-endian float32 values; every record must share d
  * ids file    -- UTF-8 text, one id per line, no blanks
  * ground truth -- UTF-8 lines ``query_id<TAB>rel1,rel2,...``

Vectors are float32 on disk and float64 in memory. Each file is read whole.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError

NORM_TOL = 1e-6  # how far from 1 a row norm may be and still count as unit


def is_path_text(text: str) -> bool:
    """Whether open() takes `text` in a path: it holds no NUL and os.fsencode encodes it."""
    try:
        os.fsencode(text)
    except UnicodeEncodeError:
        return False
    return "\0" not in text


def check_name(name: str) -> str:
    """`name`, which output files are named after and hold as UTF-8; DataError if it is empty,
    not path text, or holds a path separator (its file would land outside its directory) or a
    surrogate."""
    if not name:
        raise DataError("empty feature-set name")
    if {"/", os.sep, os.altsep} & set(name):
        raise DataError(f"feature-set name {name!r} holds a path separator")
    if not is_path_text(name) or any("\ud800" <= c <= "\udfff" for c in name):
        raise DataError(f"feature-set name {name!r} holds a NUL or a character no file name can hold")
    return name


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
        if len(set(self.ids)) != len(self.ids):
            seen = set()
            for i in self.ids:
                if i in seen:
                    raise DataError(f"duplicate id {i!r}")
                seen.add(i)
        # NaN propagates through min and max, and an inf is one of them: no (n, d) temporary
        if vecs.size and not (np.isfinite(vecs.min()) and np.isfinite(vecs.max())):
            bad = int(np.argwhere(~np.isfinite(vecs).all(axis=1))[0, 0])
            raise DataError(f"record {bad + 1}: non-finite value")
        if self.normalized and len(self.ids):
            norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
            if np.any(np.abs(norms - 1.0) > NORM_TOL):
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

    def take(self, ids) -> FeatureSet:
        """The rows for ``ids``, in that order (KeyError for an id not in the set);
        the set itself when ``ids`` is its own id sequence, as it is frozen."""
        ids = tuple(ids)
        if ids == self.ids:
            return self
        index = {i: k for k, i in enumerate(self.ids)}
        return FeatureSet(self.name, ids, self.vectors[[index[i] for i in ids]], self.normalized)


@dataclass(frozen=True)
class PairedSet:
    """Row-aligned (source, target) feature sets over a shared id sequence."""

    source: FeatureSet
    target: FeatureSet

    def __post_init__(self):
        if self.source.ids != self.target.ids:
            raise DataError("paired sets must share the exact id sequence")

    @property
    def order(self) -> tuple[str, ...]:
        return self.source.ids

    def __len__(self) -> int:
        return len(self.source)


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


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, without their newlines."""
    try:
        with open(path, encoding="utf-8") as f:
            return [line.rstrip("\n") for line in f]
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def load_feature_set(vec_path, ids_path, name: str) -> FeatureSet:
    """Read a vector file plus its sidecar ids file into a FeatureSet. Every
    record header is checked against the first, and the file size against
    the record size, before the vectors are allocated. Each fault names the
    file it is in."""
    with open(vec_path, "rb") as f:
        raw = f.read()
    ids = _read_lines(ids_path)
    if any(i == "" for i in ids):
        raise DataError(f"{ids_path}: blank line in ids file")

    if 0 < len(raw) < 4:
        raise DataError(f"{vec_path}: truncated record header at record 1")
    dim = int.from_bytes(raw[:4], "little")
    if raw and dim < 1:
        raise DataError(f"{vec_path}: record 1 has dimension {dim}")
    record = 4 * (1 + dim)
    n, rest = divmod(len(raw), record)
    headers = np.ndarray((n + (rest >= 4),), "<u4", raw, strides=(record,))
    bad = np.flatnonzero(headers != dim)
    if bad.size:
        raise DataError(f"{vec_path}: record {bad[0] + 1}: dimension {headers[bad[0]]} differs "
                        f"from first record's {dim}")
    if rest:
        part = "payload" if rest >= 4 else "record header"
        raise DataError(f"{vec_path}: truncated {part} at record {n + 1}")
    if n != len(ids):
        raise DataError(f"{vec_path}: {n} vectors but {ids_path} has {len(ids)} ids")
    with np.errstate(invalid="ignore"):  # FeatureSet reports a signalling NaN as non-finite
        vectors = np.frombuffer(raw, "<f4").reshape(n, 1 + dim)[:, 1:].astype(np.float64)
    try:
        return FeatureSet(name=name, ids=tuple(ids), vectors=vectors)
    except DataError as e:  # a duplicate id, else a non-finite value or no record at all
        raise DataError(f"{ids_path if len(set(ids)) < len(ids) else vec_path}: {e}") from None


def _check_writable(ids, forbidden: str, path) -> None:
    """DataError naming the first id, empty or holding a `forbidden` character,
    that the line-based file at `path` could not read back as written."""
    for i in ids:
        if not i or any(c in i for c in forbidden):
            raise DataError(f"{path}: id {i!r} cannot be written (empty or holds one of {forbidden!r})")


def save_feature_set(fs: FeatureSet, vec_path, ids_path) -> None:
    """Write the binary vector file and sidecar ids file; DataError, before either
    is written, for a set load_feature_set could not read back."""
    _check_writable(fs.ids, "\n\r", ids_path)
    if not len(fs):
        raise DataError(f"{vec_path}: no records to write")
    records = np.empty((len(fs), 1 + fs.dim), "<f4")
    records.view("<u4")[:, 0] = fs.dim
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf, found below
        records[:, 1:] = fs.vectors
    if not (finite := np.isfinite(records[:, 1:]).all(axis=1)).all():
        raise DataError(f"{vec_path}: record {finite.argmin() + 1}: value beyond float32 range")
    with open(vec_path, "wb") as f:
        f.write(records)
    with open(ids_path, "w", encoding="utf-8") as f:
        f.writelines(i + "\n" for i in fs.ids)


def load_ground_truth(path) -> GroundTruth:
    relevant: dict[str, frozenset[str]] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line:
            continue
        try:
            query, rels = line.split("\t")
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected 'query<TAB>rel1,rel2,...'")
        if query in relevant:
            raise DataError(f"{path}:{lineno}: repeated query {query!r}")
        ids = frozenset(r for r in rels.split(",") if r)
        if not ids:
            raise DataError(f"{path}:{lineno}: empty relevant list for {query!r}")
        relevant[query] = ids
    return GroundTruth(relevant=relevant)


def save_ground_truth(gt: GroundTruth, path) -> None:
    for query in sorted(gt.relevant):
        _check_writable([query, *sorted(gt.relevant[query])], "\n\r\t,", path)
    with open(path, "w", encoding="utf-8") as f:
        for query in sorted(gt.relevant):
            f.write(query + "\t" + ",".join(sorted(gt.relevant[query])) + "\n")


def l2_normalize(fs: FeatureSet) -> FeatureSet:
    """Scale every row to unit Euclidean norm; ids and order preserved."""
    norms = np.linalg.norm(fs.vectors, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DataError(f"zero vector for id {fs.ids[zero[0]]!r} cannot be normalized")
    return FeatureSet(
        name=fs.name,
        ids=fs.ids,
        vectors=fs.vectors / norms[:, None],
        normalized=True,
    )


def align_pairs(src: FeatureSet, tgt: FeatureSet) -> PairedSet:
    """Restrict both sets to their id intersection, sorted lexicographically.

    Row order of the inputs is irrelevant; the result is canonical. Inputs that
    already hold the same sorted ids come back themselves, uncopied.
    """
    common = sorted(src.ids) if src.ids == tgt.ids else sorted(set(src.ids) & set(tgt.ids))
    if not common:
        raise DataError("source and target feature sets share no ids")
    return PairedSet(
        source=src.take(common),
        target=tgt.take(common),
    )
