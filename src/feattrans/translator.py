"""Hybrid auto-encoder translators between feature spaces.

A translator is its layer stacks in .haet order: (source encoder, target
encoder, decoder) for the hybrid auto-encoder (HAE), or the one regression
stack of the MLP baseline. The *translate path* (source encoder, decoder)
and the *reconstruct path* (target encoder, decoder) are derived from them
and run the one decoder. Training minimizes the sum over the paths of the
mean Euclidean distance to the targets: the translation error plus the
reconstruction error. At inference only the translate path runs. The
baseline's reconstruct path is empty, so it trains on translation alone.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import (
    BadMagic,
    BadModelFile,
    DataError,
    InvalidConfig,
    NumericError,
    UnsupportedForBaseline,
)
from .feature_io import NORM_TOL, FeatureSet, PairedSet
from .nn_core import (
    AdamState,
    LayerStack,
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


@dataclass
class TranslatorModel:
    source_name: str
    target_name: str
    flat: np.ndarray  # every parameter, in .haet order; the stacks hold views into it
    stacks: tuple[LayerStack, ...]  # (enc_s, enc_t, dec) or (mlp,), in .haet order

    @property
    def translate_path(self) -> tuple[LayerStack, ...]:
        return self.stacks[:1] + self.stacks[2:]

    @property
    def reconstruct_path(self) -> tuple[LayerStack, ...]:
        return self.stacks[1:]  # empty for the baseline

    @property
    def kind(self) -> str:
        return KIND_HAE if len(self.stacks) > 1 else KIND_MLP

    @property
    def latent_dim(self) -> int:
        return self.stacks[0].out_dim if self.kind == KIND_HAE else 0

    @property
    def source_dim(self) -> int:
        return self.stacks[0].in_dim

    @property
    def target_dim(self) -> int:
        return self.stacks[-1].out_dim

    def layout(self) -> Layout:
        return tuple((s.dims, s.final_l2_normalize) for s in self.stacks)

    def on(self, flat: np.ndarray) -> "TranslatorModel":
        """A model of this one's names and layout over another flat buffer."""
        return _on_flat(self.source_name, self.target_name, self.layout(), flat)

    def copy(self) -> "TranslatorModel":
        return self.on(self.flat.copy())  # the shared decoder stays shared

    def parameters(self) -> list[np.ndarray]:
        return [p for s in self.stacks for p in s.parameters()]


def _payloads(flat: np.ndarray, layout: Layout) -> list[np.ndarray]:
    """The consecutive slices of `flat` that the stacks of `layout` occupy."""
    ends = list(accumulate((stack_size(dims) for dims, _ in layout), initial=0))
    return [flat[a:b] for a, b in zip(ends, ends[1:])]


def _on_flat(
    source_name: str,
    target_name: str,
    layout: Layout,
    flat: np.ndarray,
) -> TranslatorModel:
    """A model whose stacks are laid out one after another in `flat`."""
    stacks = tuple(
        stack_views(payload, dims, final_norm)
        for (dims, final_norm), payload in zip(layout, _payloads(flat, layout))
    )
    return TranslatorModel(source_name, target_name, flat, stacks)


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
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")


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
    """The layout of the model build() makes.

    Encoder widths repeat the input dim for the hidden layers then project to
    the latent dim; the decoder mirrors the target-side encoder reversed and
    ends in L2 normalization. The MLP baseline is a single stack of the same
    hidden widths mapping straight to the target dim.
    """
    if kind == KIND_MLP:
        return (((source_dim,) * _hidden_count(source_dim) + (target_dim,), True),)
    if kind != KIND_HAE:
        raise DataError(f"unknown model kind {kind!r}")
    enc_s_dims = (source_dim,) * (1 + _hidden_count(source_dim)) + (latent_dim,)
    enc_t_dims = (target_dim,) * (1 + _hidden_count(target_dim)) + (latent_dim,)
    return ((enc_s_dims, False), (enc_t_dims, False), (tuple(reversed(enc_t_dims)), True))


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
    if source_dim < 1 or target_dim < 1 or (kind == KIND_HAE and latent_dim < 1):
        raise DataError("dims must be >= 1")
    layout = _layout(kind, source_dim, target_dim, latent_dim)
    flat = np.empty(sum(stack_size(dims) for dims, _ in layout))
    model = _on_flat(source_name, target_name, layout, flat)
    rng = np.random.default_rng(seed)
    for stack in model.stacks:
        he_init(stack, rng)
    return model


def _run(path: tuple[LayerStack, ...], x: np.ndarray, tapes: list | None = None) -> np.ndarray:
    """Feed x through each stack of a path, appending the tapes if asked."""
    for stack in path:
        x, tape = forward(stack, x)
        if tapes is not None:
            tapes.append(tape)
    return x


def _batch_losses(model: TranslatorModel, vs: np.ndarray, vt: np.ndarray) -> tuple[float, float]:
    """(translation error, reconstruction error) on one batch, no gradients."""
    trans, _ = euclid_loss(_run(model.translate_path, vs), vt)
    if not model.reconstruct_path:
        return trans, 0.0
    recon, _ = euclid_loss(_run(model.reconstruct_path, vt), vt)
    return trans, recon


def _loss_and_grads(
    model: TranslatorModel,
    vs: np.ndarray,
    vt: np.ndarray,
    grads: TranslatorModel,
) -> float:
    """Total loss on one batch; its gradient is written into `grads`, a model
    shaped like `model` over a gradient buffer (model.on()).

    The heads, stacks[:2] (enc_s on vs, enc_t on vt; or the baseline's one
    stack), run on their own inputs, and the shared tail, stacks[2:] (the HAE
    decoder), runs once on the k stacked head outputs against k stacked
    copies of vt. That loss is the mean over k·B rows, so k times it, and its
    gradient, is the sum of the k per-path means.
    """
    heads, tail = model.stacks[:2], model.stacks[2:]
    k = len(heads)
    head_tapes, latents = [], []
    for stack, x in zip(heads, (vs, vt)):
        z, tape = forward(stack, x)
        head_tapes.append(tape)
        latents.append(z)
    tail_tapes: list = []
    out = _run(tail, np.concatenate(latents), tail_tapes)
    loss, g = euclid_loss(out, np.concatenate([vt] * k))
    g *= k
    for stack, g_stack, tape in reversed(list(zip(tail, grads.stacks[2:], tail_tapes))):
        g = backward(stack, tape, g, g_stack.parameters())[1] @ stack.layers[0].weights
    for stack, g_stack, tape, g_rows in zip(heads, grads.stacks[:2], head_tapes, np.split(g, k)):
        backward(stack, tape, g_rows, g_stack.parameters())
    return k * loss


def _check_unit_norm(fs: FeatureSet) -> None:
    norms = np.linalg.norm(fs.vectors, axis=1)
    if np.any(np.abs(norms - 1.0) > NORM_TOL):
        raise DataError(
            f"target feature set {fs.name!r} must be L2-normalized before training"
        )


def train(
    model: TranslatorModel, paired: PairedSet, cfg: TrainConfig
) -> tuple[TranslatorModel, TrainLog]:
    """Mini-batch training with early stopping on validation total loss.

    Returns the best-validation parameters, not the last epoch's.
    """
    if len(paired) == 0:
        raise DataError("empty paired set")
    if paired.source.dim != model.source_dim or paired.target.dim != model.target_dim:
        raise DataError(
            f"paired dims ({paired.source.dim}, {paired.target.dim}) do not match model "
            f"({model.source_dim}, {model.target_dim})"
        )
    _check_unit_norm(paired.target)

    rng = np.random.default_rng(cfg.seed)
    n = len(paired)
    perm = rng.permutation(n)
    n_val = max(1, int(round(VAL_FRACTION * n))) if n > 1 else 0
    train_idx = perm[n_val:]
    val_idx = perm[:n_val] if n_val else train_idx  # one pair validates on itself
    vs_all, vt_all = paired.source.vectors, paired.target.vectors

    grads = model.on(np.empty_like(model.flat))  # written in full by every step
    state = AdamState.init([model.flat], lr=cfg.lr)
    log = TrainLog()
    best = model.copy()
    best_val = np.inf
    since_best = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(train_idx)
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            total = _loss_and_grads(model, vs_all[idx], vt_all[idx], grads)
            adam_step([model.flat], [grads.flat], state)  # in place, through the views
            if not np.isfinite(total):
                raise NumericError(f"non-finite loss at epoch {epoch}")

        tr_t, tr_r = _batch_losses(model, vs_all[train_idx], vt_all[train_idx])
        va_t, va_r = _batch_losses(model, vs_all[val_idx], vt_all[val_idx])
        log.train_translation.append(tr_t)
        log.train_reconstruction.append(tr_r)
        log.train_total.append(tr_t + tr_r)
        log.val_translation.append(va_t)
        log.val_reconstruction.append(va_r)
        log.val_total.append(va_t + va_r)

        if va_t + va_r < best_val:
            best_val = va_t + va_r
            best.flat[:] = model.flat
            log.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    return best, log


def _infer(path: tuple[LayerStack, ...], fs: FeatureSet, side: str, name: str) -> FeatureSet:
    """Run `fs` through `path`, whose input is the model's `side` dim."""
    if fs.dim != path[0].in_dim:
        raise DataError(f"input dim {fs.dim} does not match model {side} dim {path[0].in_dim}")
    out = _run(path, fs.vectors)
    # an all-dead ReLU path leaves the L2-normalized output at exactly zero
    norms = np.linalg.norm(out, axis=1)
    if np.any(norms == 0.0):
        bad = fs.ids[int(np.argmin(norms))]
        raise NumericError(f"model produced an all-zero output row for id {bad!r}")
    return FeatureSet(name=name, ids=fs.ids, vectors=out, normalized=True)


def translate(model: TranslatorModel, src: FeatureSet) -> FeatureSet:
    """Map source features into the target space; output rows are unit-norm."""
    return _infer(model.translate_path, src, "source", f"{model.source_name}2{model.target_name}")


def reconstruct(model: TranslatorModel, tgt: FeatureSet) -> FeatureSet:
    """Auto-encode target features through the reconstruct path."""
    if not model.reconstruct_path:
        raise UnsupportedForBaseline()
    return _infer(model.reconstruct_path, tgt, "target", f"{model.target_name}_reconstructed")


_MAGIC = b"HAET"
_VERSION = 1
_KIND_BYTES = {KIND_HAE: 0, KIND_MLP: 1}
_KIND_NAMES = {v: k for k, v in _KIND_BYTES.items()}


def _write_str(f, s: str) -> None:
    raw = s.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _check_fits(f, n: int) -> None:
    # before any read, so a corrupt length allocates nothing
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise BadModelFile("truncated model file")


def _read_exact(f, n: int) -> bytes:
    _check_fits(f, n)
    return f.read(n)


def _read_str(f) -> str:
    (n,) = struct.unpack("<I", _read_exact(f, 4))
    try:
        return _read_exact(f, n).decode("utf-8")
    except UnicodeDecodeError:
        raise BadModelFile("model file name is not UTF-8") from None


def _activation_bytes(n_layers: int) -> bytes:
    """A stack's activation bytes: relu (1) on every layer but the last, which
    is linear (0), the one layout nn_core runs."""
    return b"\x01" * (n_layers - 1) + b"\x00"


def _write_stack(f, stack: LayerStack, payload: np.ndarray) -> None:
    f.write(struct.pack("<I", len(stack.layers)))
    for d in stack.dims:
        f.write(struct.pack("<I", d))
    f.write(struct.pack("<B", 1 if stack.final_l2_normalize else 0))
    f.write(_activation_bytes(len(stack.layers)))
    f.write(payload.astype("<f8", copy=False))


def _read_stack_header(f) -> tuple[tuple[int, ...], bool, int]:
    """(dims, final L2 normalization, payload offset) of the next stack; leaves
    f after its payload, which must fit in the file."""
    (n_layers,) = struct.unpack("<I", _read_exact(f, 4))
    dims = struct.unpack(f"<{n_layers + 1}I", _read_exact(f, 4 * (n_layers + 1)))
    (final_norm,) = struct.unpack("<B", _read_exact(f, 1))
    # no empty stack: _activation_bytes(0) is one byte long
    if _read_exact(f, n_layers) != _activation_bytes(n_layers):
        raise BadModelFile("model stack activations are not relu ... relu, linear")
    offset, size = f.tell(), 8 * stack_size(dims)
    _check_fits(f, size)
    f.seek(offset + size)
    return dims, bool(final_norm), offset


def save_model(model: TranslatorModel, path) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<H", _VERSION))
        f.write(struct.pack("<B", _KIND_BYTES[model.kind]))
        _write_str(f, model.source_name)
        _write_str(f, model.target_name)
        f.write(struct.pack("<I", model.latent_dim))
        for stack, payload in zip(model.stacks, _payloads(model.flat, model.layout())):
            _write_stack(f, stack, payload)


def load_model(path) -> TranslatorModel:
    """Read a .haet file. Every header is checked against the file size and
    against the layout build() makes before the parameters are allocated."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise BadMagic(magic)
        (version,) = struct.unpack("<H", _read_exact(f, 2))
        if version != _VERSION:
            raise BadModelFile(f"unsupported model format version {version}")
        (kind_byte,) = struct.unpack("<B", _read_exact(f, 1))
        if kind_byte not in _KIND_NAMES:
            raise BadModelFile(f"unknown model kind byte {kind_byte}")
        kind = _KIND_NAMES[kind_byte]
        source_name = _read_str(f)
        target_name = _read_str(f)
        (latent_dim,) = struct.unpack("<I", _read_exact(f, 4))
        headers = [_read_stack_header(f) for _ in range(1 if kind == KIND_MLP else 3)]
        if f.read(1):
            raise BadModelFile("trailing bytes after model payload")
        layout = tuple((dims, final_norm) for dims, final_norm, _ in headers)
        source_dim, target_dim = layout[0][0][0], layout[-1][0][-1]
        if layout != _layout(kind, source_dim, target_dim, latent_dim) or (
            kind == KIND_MLP and latent_dim != 0
        ):
            raise BadModelFile(f"stack dims do not form a {kind} model")
        flat = np.empty(sum(stack_size(dims) for dims, _ in layout), dtype="<f8")
        for k, ((_, _, offset), payload) in enumerate(zip(headers, _payloads(flat, layout))):
            f.seek(offset)
            if f.readinto(payload) != payload.nbytes:
                raise BadModelFile("truncated model file")
            if not np.isfinite(payload).all():
                raise BadModelFile(f"non-finite parameter in model stack {k + 1}")
    return _on_flat(source_name, target_name, layout, flat)
