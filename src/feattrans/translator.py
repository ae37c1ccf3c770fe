"""Hybrid auto-encoder translators between feature spaces.

A translator is one record: its names, what build() takes (the kind and the
source, target and latent dims) and one flat buffer that its stacks view:
(source encoder, target encoder, decoder) for the hybrid auto-encoder (HAE), or
the one regression stack of the MLP baseline. The *translate path* (source
encoder, decoder) and the *reconstruct path* (target encoder, decoder) are
derived from them and run the one decoder. Training minimizes the sum over the
paths of the mean Euclidean distance to the targets: the translation error plus
the reconstruction error. At inference only the translate path runs. The
baseline's reconstruct path is empty, so it trains on translation alone.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, InvalidConfig, NumericError
from .feature_io import FeatureSet, PairedSet
from .nn_core import (
    AdamState,
    LayerStack,
    _mean,
    _row_norms,
    adam_step,
    backward,
    euclid_loss,
    forward,
    he_init,
    stack_size,
    stack_views,
)

KIND_HAE = "hae"
KIND_MLP = "mlp_baseline"

DEFAULT_LATENT_DIM = 510

VAL_FRACTION = 0.1  # share of the pairs held out for early stopping

# (dims, final L2 normalization) of each stack of a model, in .haet order
Layout = tuple[tuple[tuple[int, ...], bool], ...]


def _size(layout: Layout) -> int:
    """The number of parameters of a model of `layout`."""
    return sum(stack_size(dims) for dims, _ in layout)


@dataclass
class TranslatorModel:
    """What build() takes and .haet stores: the names, the kind, the source, target
    and latent dims (latent 0 for the baseline) and `flat`, every parameter in .haet
    order. The stacks, _layout() of the kind and dims, are views into `flat`."""
    source_name: str
    target_name: str
    kind: str
    source_dim: int
    target_dim: int
    latent_dim: int
    flat: np.ndarray
    stacks: tuple[LayerStack, ...] = field(init=False)  # (enc_s, enc_t, dec) or (mlp,)

    def __post_init__(self):
        layout = _layout(self.kind, self.source_dim, self.target_dim, self.latent_dim)
        ends = np.cumsum([0] + [stack_size(dims) for dims, _ in layout])
        self.stacks = tuple(stack_views(self.flat[a:b], dims, final_norm)
                            for (dims, final_norm), a, b in zip(layout, ends, ends[1:]))

    @property
    def translate_path(self) -> tuple[LayerStack, ...]:
        return self.stacks[:1] + self.stacks[2:]

    @property
    def reconstruct_path(self) -> tuple[LayerStack, ...]:
        return self.stacks[1:]  # empty for the baseline

    def check(self, source: FeatureSet | None = None, target: FeatureSet | None = None) -> None:
        """DataError for each set given, target first, whose dim is not this model's on its side."""
        for fs, side, dim in ((target, "target", self.target_dim), (source, "source", self.source_dim)):
            if fs is not None and fs.dim != dim:
                raise DataError(f"input dim {fs.dim} does not match model {side} dim {dim}")

    def on(self, flat: np.ndarray) -> "TranslatorModel":
        """A model of this one's names, kind and dims over another flat buffer."""
        return replace(self, flat=flat)

    def copy(self) -> "TranslatorModel":
        return self.on(self.flat.copy())  # the shared decoder stays shared


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-5
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lr < np.inf:
            raise InvalidConfig("lr must be finite and > 0")
        for name, low in (("batch_size", 1), ("max_epochs", 1), ("patience", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise InvalidConfig(f"{name} must be >= {low}")


@dataclass
class TrainLog:
    train_translation: list[float] = field(default_factory=list)
    train_reconstruction: list[float] = field(default_factory=list)
    train_total: list[float] = field(default_factory=list)
    val_translation: list[float] = field(default_factory=list)
    val_reconstruction: list[float] = field(default_factory=list)
    val_total: list[float] = field(default_factory=list)
    best_epoch: int = -1

    @property
    def epochs_run(self) -> int:
        return len(self.train_total)


def _hidden_count(dim: int) -> int:
    # 3 hidden layers for wide (>=1024) inputs, 2 otherwise
    return 3 if dim >= 1024 else 2


def _layout(kind: str, source_dim: int, target_dim: int, latent_dim: int) -> Layout:
    """The layout of the model build() makes; DataError for any other kind or dims.

    Encoder widths repeat the input dim for the hidden layers then project to
    the latent dim; the decoder mirrors the target-side encoder reversed and
    ends in L2 normalization. The MLP baseline is a single stack of the same
    hidden widths mapping straight to the target dim.
    """
    if kind not in (KIND_HAE, KIND_MLP):
        raise DataError(f"unknown model kind {kind!r}")
    if min(source_dim, target_dim) < 1 or (latent_dim < 1 if kind == KIND_HAE else latent_dim != 0):
        raise DataError(f"build() makes no {kind} model of dims {source_dim} -> "
                        f"{target_dim} and latent dim {latent_dim}")
    if kind == KIND_MLP:
        return (((source_dim,) * _hidden_count(source_dim) + (target_dim,), True),)
    enc_s_dims = (source_dim,) * (1 + _hidden_count(source_dim)) + (latent_dim,)
    enc_t_dims = (target_dim,) * (1 + _hidden_count(target_dim)) + (latent_dim,)
    return ((enc_s_dims, False), (enc_t_dims, False), (tuple(reversed(enc_t_dims)), True))


def check_latent(kind: str, latent_dim: int) -> int:
    """The latent dim a `kind` model built with `latent_dim` records, 0 for the
    baseline; InvalidConfig for an HAE one below 1 or one .haet's u32 cannot hold."""
    if kind == KIND_HAE and latent_dim < 1:
        raise InvalidConfig("latent dim must be >= 1")
    if kind == KIND_HAE and latent_dim >= 1 << 32:
        raise InvalidConfig("latent dim must be < 2**32: a model file stores it in 32 bits")
    return latent_dim if kind == KIND_HAE else 0


def build(
    source_dim: int,
    target_dim: int,
    latent_dim: int = DEFAULT_LATENT_DIM,
    kind: str = KIND_HAE,
    seed: int = 0,
    source_name: str = "source",
    target_name: str = "target",
) -> TranslatorModel:
    """Construct an untrained translator, with the stacks of _layout() over
    one flat buffer."""
    dims = (source_dim, target_dim, check_latent(kind, latent_dim))
    model = TranslatorModel(source_name, target_name, kind, *dims,
                            np.empty(_size(_layout(kind, *dims))))
    rng = np.random.default_rng(seed)
    for stack in model.stacks:
        he_init(stack, rng)
    return model


def _scratch_shape(stacks: tuple[LayerStack, ...], rows: int) -> tuple[int, int, int]:
    """The shape of _untaped's two arrays of `rows` rows by the widest layer of `stacks`."""
    return 2, rows, max(w for s in stacks for w in s.dims[1:])


def _untaped(path: tuple, x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """`path`'s forward output on `x` without a tape. The layers go alternately into
    the two scratch arrays, so none overwrites its input. Returns a view."""
    scratch = np.empty(_scratch_shape(path, len(x))) if scratch is None else scratch
    flat, rows, k = scratch.reshape(2, -1), len(x), 0
    for stack in path:
        outs = [flat[(k + j) % 2, : rows * w].reshape(rows, w) for j, w in enumerate(stack.dims[1:])]
        x = forward(stack, x, outs)[0]
        k += len(stack.layers)
    return x


def _batch_losses(model: TranslatorModel, vs: np.ndarray, vt: np.ndarray,
                  scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """train()'s epoch-end pass: each row's (translation, reconstruction) distance to
    its target, no gradients, each path run as reconstruct() and translate() run it,
    in turn in `scratch`; the baseline's reconstruction distances are zeros."""
    def dists(path, x):
        out = _untaped(path, x, scratch)
        return _row_norms(np.subtract(out, vt, out=out))

    recon = dists(model.reconstruct_path, vt) if model.reconstruct_path else np.zeros(len(vt))
    return dists(model.translate_path, vs), recon


def _loss_and_grads(
    model: TranslatorModel, vs: np.ndarray, vt: np.ndarray, grads: TranslatorModel
) -> float:
    """Total loss on one batch; its gradient is written into `grads`, a model
    shaped like `model` over a gradient buffer (model.on()). The heads, stacks[:2]
    (enc_s on vs, enc_t on vt; or the baseline's one stack), run on their own
    inputs and the tail, stacks[2:] (the HAE decoder), once on their k stacked row
    blocks, scored against k stacked copies of vt: k times that mean over k·B
    rows, and its gradient, is the sum of the k per-path means."""
    k = len(model.stacks[:2])
    passes = [forward(stack, x) for stack, x in zip(model.stacks[:2], (vs, vt))]
    x = np.concatenate([out for out, _ in passes])
    for stack in model.stacks[2:]:
        x, tape = forward(stack, x)
        passes.append((x, tape))
    loss, g = euclid_loss(x, np.concatenate([vt] * k))
    g *= k
    stacks = list(zip(model.stacks, grads.stacks, (tape for _, tape in passes)))
    for stack, g_stack, tape in reversed(stacks[2:]):
        g = backward(stack, tape, g, g_stack.parameters())[1] @ stack.layers[0].weights
    for i, (stack, g_stack, tape) in enumerate(stacks[:2]):
        backward(stack, tape, g[i * len(vt) : (i + 1) * len(vt)], g_stack.parameters())
    return k * loss


def train(
    model: TranslatorModel, paired: PairedSet, cfg: TrainConfig
) -> tuple[TranslatorModel, TrainLog]:
    """Mini-batch training with early stopping on validation total loss.

    Trains `model` in place and returns the best-validation parameters, not the
    last epoch's: `model` itself when the last epoch run is the best, else a
    snapshot taken as the epoch after the best began (one model.copy(), then
    in-place copies). A non-finite validation loss raises NumericError.
    """
    if len(paired) == 0:
        raise DataError("empty paired set")
    model.check(paired.source, paired.target)
    if not paired.target.normalized:
        raise DataError(
            f"target feature set {paired.target.name!r} must be L2-normalized before training"
        )

    rng = np.random.default_rng(cfg.seed)
    n = len(paired)
    perm = rng.permutation(n)
    n_val = max(1, int(round(VAL_FRACTION * n))) if n > 1 else 0
    train_idx = perm[n_val:]
    val_idx = perm[:n_val] if n_val else train_idx  # one pair validates on itself
    vs_all, vt_all = paired.source.vectors, paired.target.vectors
    shape = _scratch_shape(model.stacks, n)  # the epoch-end pass runs every row as stored
    # one workspace: every step writes every gradient before adam_step reads them, and the
    # epoch-end pass runs between an epoch's last update and the next epoch's first step
    # (the best-epoch snapshot copies model.flat), so its scratch lives in the gradients
    work = np.empty(max(model.flat.size, math.prod(shape)))
    grads = model.on(work[: model.flat.size])
    scratch = work[: math.prod(shape)].reshape(shape)
    state = AdamState.init([model.flat], lr=cfg.lr)
    log = TrainLog()
    best = None  # the snapshot, made only when an epoch would overwrite the best
    best_val = np.inf

    # a diverging run overflows silently: the NumericError below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            if epoch and log.best_epoch == epoch - 1:
                if best is None:
                    best = model.copy()
                else:
                    best.flat[:] = model.flat
            order = rng.permutation(train_idx)
            for start in range(0, order.size, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                total = _loss_and_grads(model, vs_all[idx], vt_all[idx], grads)
                adam_step([model.flat], [grads.flat], state)  # in place, through the views
                if not np.isfinite(total):
                    raise NumericError(f"non-finite loss at epoch {epoch}")

            trans, recon = _batch_losses(model, vs_all, vt_all, scratch=scratch)
            tr_t, tr_r, va_t, va_r = (_mean(d[idx]) for idx in (train_idx, val_idx)
                                      for d in (trans, recon))
            log.train_translation.append(tr_t)
            log.train_reconstruction.append(tr_r)
            log.train_total.append(tr_t + tr_r)
            log.val_translation.append(va_t)
            log.val_reconstruction.append(va_r)
            log.val_total.append(va_t + va_r)
            if not np.isfinite(va_t + va_r):
                raise NumericError(f"non-finite validation loss at epoch {epoch}")

            if va_t + va_r < best_val:  # always at epoch 0
                best_val = va_t + va_r
                log.best_epoch = epoch
            elif epoch - log.best_epoch >= cfg.patience:
                break

    return (model if log.best_epoch == log.epochs_run - 1 else best), log


def _infer(path: tuple[LayerStack, ...], fs: FeatureSet, name: str) -> FeatureSet:
    """Run `fs`, of `path`'s input dim, through `path`."""
    out = _untaped(path, fs.vectors).copy()  # frees the scratch
    # an all-dead ReLU path leaves the L2-normalized output at exactly zero
    norms = _row_norms(out)
    if np.any(norms == 0.0):
        bad = fs.ids[int(np.argmin(norms))]
        raise NumericError(f"model produced an all-zero output row for id {bad!r}")
    return FeatureSet(name=name, ids=fs.ids, vectors=out, normalized=True)


def translate(model: TranslatorModel, src: FeatureSet) -> FeatureSet:
    """Map source features into the target space; output rows are unit-norm."""
    model.check(source=src)
    return _infer(model.translate_path, src, f"{model.source_name}2{model.target_name}")


def reconstruct(model: TranslatorModel, tgt: FeatureSet) -> FeatureSet:
    """Auto-encode target features through the reconstruct path."""
    if not model.reconstruct_path:
        raise DataError("reconstruct is undefined for the mlp_baseline model (no target encoder)")
    model.check(target=tgt)
    return _infer(model.reconstruct_path, tgt, f"{model.target_name}_reconstructed")


_MAGIC = b"HAET"
_VERSION = 2
_KIND_BYTES = {KIND_HAE: 0, KIND_MLP: 1}
_KIND_NAMES = {v: k for k, v in _KIND_BYTES.items()}


def _read_exact(f, n: int) -> bytes:
    # checked before the read, so a corrupt length allocates nothing
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise DataError("truncated model file")
    return f.read(n)


def _read_str(f) -> str:
    (n,) = struct.unpack("<I", _read_exact(f, 4))
    try:
        return _read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError:
        raise DataError("model file name is not UTF-8") from None


def save_model(model: TranslatorModel, path) -> None:
    """Write a .haet file: magic, version, kind, the two names, the dims build()
    takes (source, target, and latent, 0 for the baseline), then model.flat as
    float64 in one write."""
    names = [name.encode("utf-8") for name in (model.source_name, model.target_name)]
    with open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<HB", _VERSION, _KIND_BYTES[model.kind]))
        for raw in names:
            f.write(struct.pack("<I", len(raw)) + raw)
        f.write(struct.pack("<3I", model.source_dim, model.target_dim, model.latent_dim))
        f.write(model.flat.astype("<f8", copy=False))


def load_model(path) -> TranslatorModel:
    """Read a .haet file, accepting exactly the bytes save_model() writes for a
    model build() makes. The layout is _layout() of the stored kind and dims, and
    the bytes left must be its parameters exactly, checked before they are
    allocated; anything else raises DataError naming the file."""
    with open(path, "rb") as f:
        try:
            magic = f.read(4)
            if magic != _MAGIC:
                raise DataError(f"not a model file (magic {magic!r})")
            (version,) = struct.unpack("<H", _read_exact(f, 2))
            if version != _VERSION:
                raise DataError(f"unsupported model format version {version}")
            (kind_byte,) = struct.unpack("<B", _read_exact(f, 1))
            if kind_byte not in _KIND_NAMES:
                raise DataError(f"unknown model kind byte {kind_byte}")
            kind = _KIND_NAMES[kind_byte]
            source_name = _read_str(f)
            target_name = _read_str(f)
            source_dim, target_dim, latent_dim = struct.unpack("<3I", _read_exact(f, 12))
            size = _size(_layout(kind, source_dim, target_dim, latent_dim))
            left = os.fstat(f.fileno()).st_size - f.tell()
            if left != 8 * size:
                raise DataError("truncated model file" if left < 8 * size
                                else "trailing bytes after model payload")
            flat = np.empty(size, dtype="<f8")
            if f.readinto(flat) != flat.nbytes:
                raise DataError("truncated model file")
            model = TranslatorModel(source_name, target_name, kind, source_dim, target_dim,
                                    latent_dim, flat)
            for k, stack in enumerate(model.stacks, 1):
                if not all(np.isfinite(p).all() for p in stack.parameters()):
                    raise DataError(f"non-finite parameter in model stack {k}")
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    return model
