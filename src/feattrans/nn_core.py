"""Minimal dense-network machinery with exact manual backpropagation.

Everything is float64 numpy. A LayerStack is a chain of affine layers with
relu/linear activations and an optional final row-wise L2 normalization.
Gradients are computed analytically, including the normalization Jacobian
(I/||x|| - x x^T / ||x||^3), and are validated against central finite
differences in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

_EPS = 1e-12


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str = "relu"  # "relu" | "linear"

    def __post_init__(self):
        if self.activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {self.activation!r}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise DataError("layer weight/bias shapes inconsistent")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class LayerStack:
    layers: list[DenseLayer]
    final_l2_normalize: bool = False

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise DataError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.in_dim, *(l.out_dim for l in self.layers))

    def parameters(self) -> list[np.ndarray]:
        out = []
        for l in self.layers:
            out.append(l.weights)
            out.append(l.bias)
        return out


def stack_size(dims: tuple[int, ...]) -> int:
    """Number of parameters of a dense stack through `dims`."""
    return sum(d_out * (d_in + 1) for d_in, d_out in zip(dims, dims[1:]))


def stack_views(flat: np.ndarray, dims: tuple[int, ...], final_l2_normalize: bool) -> LayerStack:
    """Dense stack through `dims` whose weights and biases are views into
    `flat` (stack_size(dims) elements), each layer's W then b; relu on every
    layer but the last, which is linear."""
    layers, start = [], 0
    for k, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        w = flat[start : start + d_out * d_in].reshape(d_out, d_in)
        start += d_out * d_in
        b = flat[start : start + d_out]
        start += d_out
        act = "linear" if k == len(dims) - 2 else "relu"
        layers.append(DenseLayer(w, b, act))
    return LayerStack(layers=layers, final_l2_normalize=final_l2_normalize)


def he_init(stack: LayerStack, rng: np.random.Generator) -> None:
    """He-uniform weights and zero biases, written in place, layer by layer.

    Bit-identical to rng.uniform(-limit, limit, size=w.shape), without its
    full-size temporary.
    """
    for layer in stack.layers:
        w = layer.weights
        limit = np.sqrt(6.0 / layer.in_dim)
        rng.random(out=w)
        w *= 2 * limit
        w -= limit
        layer.bias.fill(0.0)


@dataclass
class Tape:
    """Cached activations from one forward pass, consumed by backward()."""

    inputs: list[np.ndarray]  # input to each layer
    pre_acts: list[np.ndarray]  # affine outputs before activation
    pre_norm: np.ndarray | None  # stack output before L2 normalization
    norms: np.ndarray | None  # row norms of pre_norm


def forward(stack: LayerStack, batch: np.ndarray) -> tuple[np.ndarray, Tape]:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != stack.in_dim:
        raise DataError(f"batch shape {x.shape} does not match stack input dim {stack.in_dim}")
    inputs, pre_acts = [], []
    for layer in stack.layers:
        inputs.append(x)
        z = x @ layer.weights.T + layer.bias
        pre_acts.append(z)
        x = np.maximum(z, 0.0) if layer.activation == "relu" else z
    pre_norm = norms = None
    if stack.final_l2_normalize:
        pre_norm = x
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        x = x / np.maximum(norms, _EPS)
    return x, Tape(inputs=inputs, pre_acts=pre_acts, pre_norm=pre_norm, norms=norms)


def backward(
    stack: LayerStack,
    tape: Tape,
    upstream_grad: np.ndarray,
    out: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact gradients for forward()'s output w.r.t. parameters and input.

    Returns (param_grads ordered as stack.parameters(), input_grad). The
    parameter gradients are written into `out` when it is given.
    """
    g = np.asarray(upstream_grad, dtype=np.float64)
    if stack.final_l2_normalize:
        if tape.pre_norm is None:
            raise DataError("tape was produced without final normalization")
        n = np.maximum(tape.norms, _EPS)
        y = tape.pre_norm / n
        # d(x/||x||) applied to g: (g - (g.y) y) / ||x||
        g = (g - np.sum(g * y, axis=1, keepdims=True) * y) / n
    if out is None:
        out = [np.empty_like(p) for p in stack.parameters()]
    for k in range(len(stack.layers) - 1, -1, -1):
        layer = stack.layers[k]
        if g.shape != tape.pre_acts[k].shape:
            raise DataError("stale tape: gradient shape mismatch")
        if layer.activation == "relu":
            g = g * (tape.pre_acts[k] > 0)
        np.matmul(g.T, tape.inputs[k], out=out[2 * k])
        np.sum(g, axis=0, out=out[2 * k + 1])
        g = g @ layer.weights
    return out, g


def euclid_loss(pred: np.ndarray, tgt: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over rows of the (unsquared) Euclidean distance, plus its gradient.

    The gradient at coincident rows is defined as 0 via an epsilon in the
    denominator.
    """
    pred = np.asarray(pred, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    if pred.shape != tgt.shape:
        raise DataError(f"shape mismatch {pred.shape} vs {tgt.shape}")
    diff = pred - tgt
    dists = np.linalg.norm(diff, axis=1)
    n = pred.shape[0]
    grad = diff / (dists[:, None] + _EPS) / n
    return float(dists.mean()), grad


# Elements per slice of adam_step's update: its scratch stays in cache and
# no temporary the size of the parameters is ever allocated.
ADAM_CHUNK = 1 << 15

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam over a flat list of parameter arrays."""

    lr: float
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: list[np.ndarray], lr: float) -> "AdamState":
        return cls(
            lr=lr,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> list[np.ndarray]:
    """One in-place Adam update (Kingma & Ba 2015, Alg. 1); returns params.

    Each array is updated in ADAM_CHUNK-element slices of its raveled view,
    so params and moments must be C-contiguous.
    """
    state.step += 1
    t = state.step
    c2 = 1 - BETA2**t
    step_size = state.lr / (1 - BETA1**t)
    scratch = np.empty(min(ADAM_CHUNK, max((p.size for p in params), default=0)))
    for arrays in zip(params, grads, state.m, state.v):
        if not all(a.flags.c_contiguous for a in arrays):
            raise ValueError("adam_step needs C-contiguous arrays")
        p, g, m, v = (a.reshape(-1) for a in arrays)
        for lo in range(0, p.size, ADAM_CHUNK):
            pc, gc, mc, vc = (a[lo : lo + ADAM_CHUNK] for a in (p, g, m, v))
            s = scratch[: pc.size]
            mc *= BETA1  # m = BETA1 m + (1 - BETA1) g
            np.multiply(gc, 1 - BETA1, out=s)
            mc += s
            vc *= BETA2  # v = BETA2 v + (1 - BETA2) g^2
            np.multiply(gc, 1 - BETA2, out=s)
            s *= gc
            vc += s
            np.divide(vc, c2, out=s)  # p -= (lr / c1) m / (sqrt(v / c2) + eps)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            np.divide(mc, s, out=s)
            s *= step_size
            pc -= s
    return params
