"""Hybrid auto-encoder translators between feature spaces.

A translator is a *translate path* of layer stacks from the source space to
the target space plus an optional *reconstruct path* from the target space
back to itself. The hybrid auto-encoder (HAE) has the paths (source encoder,
decoder) and (target encoder, decoder), which share one decoder object.
Training minimizes the sum over the paths of the mean Euclidean distance to
the targets: the translation error plus the reconstruction error. At
inference only the translate path runs. The MLP baseline is a translate path
of one direct regression stack and no reconstruct path, so it trains on the
translation error alone.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    BadModelFile,
    DataError,
    InvalidConfig,
    NumericError,
    UnsupportedForBaseline,
)
from .feature_io import FeatureSet, PairedSet
from .nn_core import (
    AdamState,
    DenseLayer,
    LayerStack,
    adam_step,
    backward,
    build_stack,
    euclid_loss,
    forward,
)

KIND_HAE = "hae"
KIND_MLP = "mlp_baseline"

DEFAULT_LATENT_DIM = 510


@dataclass
class TranslatorModel:
    source_name: str
    target_name: str
    latent_dim: int
    translate_path: tuple[LayerStack, ...]
    reconstruct_path: tuple[LayerStack, ...] = ()  # shares all but its first stack

    @property
    def kind(self) -> str:
        return KIND_HAE if self.reconstruct_path else KIND_MLP

    @property
    def source_dim(self) -> int:
        return self.translate_path[0].in_dim

    @property
    def target_dim(self) -> int:
        return self.translate_path[-1].out_dim

    def stacks(self) -> tuple[LayerStack, ...]:
        """Each stack once, in .haet order: encoder(s) first, then the rest."""
        return self.translate_path[:1] + self.reconstruct_path[:1] + self.translate_path[1:]

    def copy(self) -> "TranslatorModel":
        stacks = tuple(s.copy() for s in self.stacks())  # the shared decoder stays shared
        return _from_stacks(self.source_name, self.target_name, self.latent_dim, stacks)

    def parameters(self) -> list[np.ndarray]:
        return [p for s in self.stacks() for p in s.parameters()]


def _from_stacks(
    source_name: str, target_name: str, latent_dim: int, stacks: tuple[LayerStack, ...]
) -> TranslatorModel:
    """Inverse of TranslatorModel.stacks(): (mlp,) or (enc_s, enc_t, dec)."""
    return TranslatorModel(
        source_name, target_name, latent_dim,
        translate_path=stacks[:1] + stacks[2:], reconstruct_path=stacks[1:],
    )


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-5
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 20
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.val_fraction < 1.0):
            raise InvalidConfig("val_fraction must lie in (0, 1)")
        if not self.lr > 0.0:
            raise InvalidConfig("lr must be > 0")
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


def build(
    source_dim: int,
    target_dim: int,
    latent_dim: int = DEFAULT_LATENT_DIM,
    kind: str = KIND_HAE,
    seed: int = 0,
    source_name: str = "source",
    target_name: str = "target",
) -> TranslatorModel:
    """Construct an untrained translator.

    Encoder widths repeat the input dim for the hidden layers then project to
    the latent dim; the decoder mirrors the target-side encoder reversed and
    ends linear + L2 normalization. The MLP baseline is a single stack of the
    same hidden widths mapping straight to the target dim.
    """
    if source_dim < 1 or target_dim < 1 or (kind == KIND_HAE and latent_dim < 1):
        raise DataError("dims must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == KIND_MLP:
        dims = (source_dim,) * _hidden_count(source_dim) + (target_dim,)
        mlp = build_stack(dims, final_l2_normalize=True, rng=rng)
        return _from_stacks(source_name, target_name, 0, (mlp,))
    if kind != KIND_HAE:
        raise DataError(f"unknown model kind {kind!r}")
    enc_s_dims = (source_dim,) * (1 + _hidden_count(source_dim)) + (latent_dim,)
    enc_t_dims = (target_dim,) * (1 + _hidden_count(target_dim)) + (latent_dim,)
    dec_dims = tuple(reversed(enc_t_dims))
    enc_s = build_stack(enc_s_dims, False, rng)
    enc_t = build_stack(enc_t_dims, False, rng)
    dec = build_stack(dec_dims, True, rng)
    return _from_stacks(source_name, target_name, latent_dim, (enc_s, enc_t, dec))


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
    model: TranslatorModel, vs: np.ndarray, vt: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Total loss on one batch and its gradient, ordered as model.parameters().

    Each path runs forward, is scored against vt and runs backward; a stack
    on both paths (the HAE decoder) gets the sum of its two gradients.
    """
    total = 0.0
    grads: dict[int, list[np.ndarray]] = {}
    for path, x in ((model.translate_path, vs), (model.reconstruct_path, vt)):
        if not path:
            continue
        tapes: list = []
        loss, g = euclid_loss(_run(path, x, tapes), vt)
        total += loss
        for stack, tape in zip(reversed(path), reversed(tapes)):
            g_params, g = backward(stack, tape, g)
            if id(stack) in grads:
                g_params = [a + b for a, b in zip(grads[id(stack)], g_params)]
            grads[id(stack)] = g_params
    return total, [g for s in model.stacks() for g in grads[id(s)]]


def _check_unit_norm(fs: FeatureSet) -> None:
    norms = np.linalg.norm(fs.vectors, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
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
    n_val = max(1, int(round(cfg.val_fraction * n))) if n > 1 else 0
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        train_idx, val_idx = perm, perm
    vs_all, vt_all = paired.source.vectors, paired.target.vectors

    state = AdamState.init(model.parameters(), lr=cfg.lr)
    log = TrainLog()
    best = model.copy()
    best_val = np.inf
    since_best = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(train_idx)
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            total, grads = _loss_and_grads(model, vs_all[idx], vt_all[idx])
            # parameters() returns live references; adam_step updates them in place
            adam_step(model.parameters(), grads, state)
            del grads  # free them before the next step builds its own
            if not np.isfinite(total):
                raise NumericError(f"non-finite loss at epoch {epoch}")

        tr_t, tr_r = _batch_losses(model, vs_all[train_idx], vt_all[train_idx])
        if val_idx.size:
            va_t, va_r = _batch_losses(model, vs_all[val_idx], vt_all[val_idx])
        else:
            va_t, va_r = tr_t, tr_r
        log.train_translation.append(tr_t)
        log.train_reconstruction.append(tr_r)
        log.train_total.append(tr_t + tr_r)
        log.val_translation.append(va_t)
        log.val_reconstruction.append(va_r)
        log.val_total.append(va_t + va_r)

        if va_t + va_r < best_val:
            best_val = va_t + va_r
            best = model.copy()
            log.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    return best, log


def _check_nonzero_rows(out: np.ndarray, inputs: FeatureSet) -> None:
    # an all-dead ReLU path leaves the L2-normalized output at exactly zero
    norms = np.linalg.norm(out, axis=1)
    if np.any(norms == 0.0):
        bad = inputs.ids[int(np.argmin(norms))]
        raise NumericError(f"model produced an all-zero output row for id {bad!r}")


def translate(model: TranslatorModel, src: FeatureSet) -> FeatureSet:
    """Map source features into the target space; output rows are unit-norm."""
    if src.dim != model.source_dim:
        raise DataError(f"input dim {src.dim} does not match model source dim {model.source_dim}")
    out = _run(model.translate_path, src.vectors)
    _check_nonzero_rows(out, src)
    return FeatureSet(
        name=f"{model.source_name}2{model.target_name}",
        ids=src.ids,
        vectors=out,
        normalized=True,
    )


def reconstruct(model: TranslatorModel, tgt: FeatureSet) -> FeatureSet:
    """Auto-encode target features through the reconstruct path."""
    if not model.reconstruct_path:
        raise UnsupportedForBaseline()
    if tgt.dim != model.target_dim:
        raise DataError(f"input dim {tgt.dim} does not match model target dim {model.target_dim}")
    out = _run(model.reconstruct_path, tgt.vectors)
    _check_nonzero_rows(out, tgt)
    return FeatureSet(
        name=f"{model.target_name}_reconstructed",
        ids=tgt.ids,
        vectors=out,
        normalized=True,
    )


_MAGIC = b"HAET"
_VERSION = 1
_KIND_BYTES = {KIND_HAE: 0, KIND_MLP: 1}
_KIND_NAMES = {v: k for k, v in _KIND_BYTES.items()}


def _write_str(f, s: str) -> None:
    raw = s.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _read_exact(f, n: int) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise BadModelFile("truncated model file")
    return raw


def _read_str(f) -> str:
    (n,) = struct.unpack("<I", _read_exact(f, 4))
    return _read_exact(f, n).decode("utf-8")


def _write_stack(f, stack: LayerStack) -> None:
    f.write(struct.pack("<I", len(stack.layers)))
    for d in stack.dims:
        f.write(struct.pack("<I", d))
    f.write(struct.pack("<B", 1 if stack.final_l2_normalize else 0))
    for layer in stack.layers:
        f.write(struct.pack("<B", 1 if layer.activation == "relu" else 0))
    for layer in stack.layers:
        f.write(layer.weights.astype("<f8").tobytes())
        f.write(layer.bias.astype("<f8").tobytes())


def _read_stack(f) -> LayerStack:
    (n_layers,) = struct.unpack("<I", _read_exact(f, 4))
    dims = struct.unpack(f"<{n_layers + 1}I", _read_exact(f, 4 * (n_layers + 1)))
    (final_norm,) = struct.unpack("<B", _read_exact(f, 1))
    acts = struct.unpack(f"<{n_layers}B", _read_exact(f, n_layers))
    layers = []
    for k in range(n_layers):
        d_in, d_out = dims[k], dims[k + 1]
        w = np.frombuffer(_read_exact(f, 8 * d_out * d_in), dtype="<f8").reshape(d_out, d_in)
        b = np.frombuffer(_read_exact(f, 8 * d_out), dtype="<f8")
        layers.append(DenseLayer(w.copy(), b.copy(), "relu" if acts[k] else "linear"))
    return LayerStack(layers=layers, final_l2_normalize=bool(final_norm))


def save_model(model: TranslatorModel, path) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<H", _VERSION))
        f.write(struct.pack("<B", _KIND_BYTES[model.kind]))
        _write_str(f, model.source_name)
        _write_str(f, model.target_name)
        f.write(struct.pack("<I", model.latent_dim))
        for stack in model.stacks():
            _write_stack(f, stack)


def load_model(path) -> TranslatorModel:
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
        stacks = tuple(_read_stack(f) for _ in range(1 if kind == KIND_MLP else 3))
        if f.read(1):
            raise BadModelFile("trailing bytes after model payload")
    return _from_stacks(source_name, target_name, latent_dim, stacks)
