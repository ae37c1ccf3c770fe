"""Minimal dense-network machinery with exact manual backpropagation.

Everything is float64 numpy. A LayerStack is a chain of affine layers with an
optional final row-wise L2 normalization. The layout is fixed: relu on every
layer but the last, which is linear. Gradients are computed analytically,
including the normalization Jacobian (I/||x|| - x x^T / ||x||^3), and are
validated against central finite differences in the test suite. A tape holds
the layer inputs and a normalizing stack's output and row norms. Bias, relu and
normalization act in place on each GEMM's output, which forward() writes into
out[k] when given (not sharing the layer's input), so a pass that keeps no tape
can reuse memory. The callers own the shape checks; nothing is re-validated.
He init and Adam each run one chunked body, in per-core shares at paper shape, bit for bit.
"""
from __future__ import annotations

import copy
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)

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

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.layers[0].in_dim, *(l.out_dim for l in self.layers))

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
    `flat` (stack_size(dims) elements), each layer's W then b."""
    layers, start = [], 0
    for d_in, d_out in zip(dims, dims[1:]):
        w = flat[start : start + d_out * d_in].reshape(d_out, d_in)
        start += d_out * d_in
        b = flat[start : start + d_out]
        start += d_out
        layers.append(DenseLayer(w, b))
    return LayerStack(layers=layers, final_l2_normalize=final_l2_normalize)


# Elements per slice of an Adam update or a He fill, whose scratch stays in
# cache; each share of a split pass is a whole number of these slices.
ADAM_CHUNK = 1 << 15

# A pass is cut into one share of whole chunks per usable core when a share
# holds at least _ADAM_SPLIT_MIN elements; numpy drops the GIL in each chunk's
# ufuncs and draws. A thread must earn its start: on 2 cores a split Adam step
# took 1.0-1.4x the inline time at 2-4 chunks, 0.8-1.1x at 8 and 0.6x at 32.
_ADAM_SPLIT_MIN = 4 * ADAM_CHUNK
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _share(size: int) -> int:
    """Elements per share of a pass over `size` (see above); size if it runs inline."""
    share = -(-size // (ADAM_CHUNK * _WORKERS)) * ADAM_CHUNK
    return share if _ADAM_SPLIT_MIN <= share < size else size


def _in_shares(size: int, share: int, run) -> None:
    """run(lo, hi) on each `share`-element range of [0, size): inline if one, else the
    first on the caller's thread, the rest on started threads under its np.geterr()."""
    if share >= size:
        return run(0, size)
    err = np.geterr()

    def started(lo):
        with np.errstate(**err):  # numpy 1.x keeps errstate per thread, 2.x per context
            run(lo, min(lo + share, size))

    with ThreadPoolExecutor(-(-size // share) - 1) as pool:  # leaving waits for every range
        rest = pool.map(started, range(share, size, share))
        run(0, share)
    list(rest)  # re-raises a started range's exception once all have finished


def he_init(stack: LayerStack, rng: np.random.Generator) -> None:
    """He-uniform weights and zero biases in place, bit-identical to drawing each
    layer by rng.uniform(-limit, limit, size=w.shape) but with no temporary. Each
    layer is filled a chunk at a time in _share()'s shares: the first by rng, the one
    at lo by a copy of rng's PCG64 at the layer's start advanced by lo (a draw per
    float64). rng then skips a split layer's rest, dropping any buffered 32-bit half
    (build()'s fresh rng holds none); an unsplit layer keeps it, as uniform does."""
    for layer in stack.layers:
        layer.bias.fill(0.0)
        w, limit = layer.weights.reshape(-1), np.sqrt(6.0 / layer.in_dim)
        share = _share(w.size)
        start = copy.deepcopy(rng.bit_generator) if share < w.size else None

        def fill(lo, hi):
            draw = np.random.Generator(copy.deepcopy(start).advance(lo)) if lo else rng
            for a in range(lo, hi, ADAM_CHUNK):
                c = w[a : min(a + ADAM_CHUNK, hi)]
                draw.random(out=c)
                c *= 2 * limit
                c -= limit

        _in_shares(w.size, share, fill)
        if start is not None:
            rng.bit_generator.advance(w.size - share)


@dataclass
class Tape:
    """What backward() needs from one forward pass."""

    inputs: list[np.ndarray]  # input to each layer; relu outputs past the first
    out: np.ndarray | None  # the L2-normalized output
    norms: np.ndarray | None  # row norms before normalization, clamped at _EPS


def forward(stack: LayerStack, batch: np.ndarray, out=None) -> tuple[np.ndarray, Tape]:
    x = batch
    inputs = []
    last = len(stack.layers) - 1
    for k, layer in enumerate(stack.layers):
        inputs.append(x)
        x = x @ layer.weights.T if out is None else np.matmul(x, layer.weights.T, out=out[k])
        x += layer.bias
        if k < last:
            np.maximum(x, 0.0, out=x)
    norms = None
    if stack.final_l2_normalize:
        norms = _row_norms(x)[:, None]
        np.maximum(norms, _EPS, out=norms)
        x /= norms
    return x, Tape(inputs=inputs, out=None if norms is None else x, norms=norms)


def backward(
    stack: LayerStack,
    tape: Tape,
    upstream_grad: np.ndarray,
    out: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact gradients for forward()'s output w.r.t. the parameters.

    Returns (param_grads ordered as stack.parameters(), g), where g is the
    gradient at the first layer's affine output; a caller that needs the
    input gradient takes g @ stack.layers[0].weights. The parameter gradients
    are written into `out` when it is given.
    """
    g = upstream_grad
    if stack.final_l2_normalize:
        y, n = tape.out, tape.norms
        # d(x/||x||) applied to g: (g - (g.y) y) / ||x||
        t = np.add.reduce(g * y, axis=1, keepdims=True) * y
        g = np.divide(np.subtract(g, t, out=t), n, out=t)
    if out is None:
        out = [np.empty_like(p) for p in stack.parameters()]
    for k in range(len(stack.layers) - 1, -1, -1):
        np.matmul(g.T, tape.inputs[k], out=out[2 * k])
        np.add.reduce(g, axis=0, out=out[2 * k + 1])
        if k:  # back through layer k, then the relu feeding it: max(z, 0) > 0 iff z > 0
            g = g @ stack.layers[k].weights
            np.multiply(g, tape.inputs[k] > 0, out=g)
    return out, g


_TILE_BYTES = 1 << 18  # the squares of one tile of rows in _row_norms and retrieval._exact


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) of a real 2-d array by its own operations, without
    its wrapper and conj() copy, squaring a _TILE_BYTES tile of rows at a time: each
    row's sum does not depend on how many rows share the call."""
    out = np.empty(len(x))
    step = max(1, _TILE_BYTES // (8 * x.shape[1]))
    for lo in range(0, len(x), step):
        rows = x[lo : lo + step]
        np.add.reduce(rows * rows, axis=1, out=out[lo : lo + step])
    return np.sqrt(out, out=out)


def _mean(dists: np.ndarray) -> float:
    """The mean of per-row distances, as every loss is taken from them."""
    return float(np.add.reduce(dists) / dists.size)


def euclid_loss(pred: np.ndarray, tgt: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over rows of the (unsquared) Euclidean distance, plus its gradient.

    The gradient at coincident rows is defined as 0 via an epsilon in the
    denominator.
    """
    grad = pred - tgt
    dists = _row_norms(grad)
    loss = _mean(dists)
    grad /= (dists + _EPS)[:, None]
    grad /= pred.shape[0]
    return loss, grad


# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults)
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam over a flat list of parameter arrays. m and v hold the
    running sums m = BETA1 m + g and v = BETA2 v + g^2, Adam's moments over
    (1 - BETA1) and (1 - BETA2), so adam_step folds those factors and both bias
    corrections into two per-step scalars. init() makes them by np.zeros, whose
    fresh pages are zeroed on their first write, in adam_step's per-core shares
    at paper shape, not by a fill on one thread."""

    lr: float
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: list[np.ndarray], lr: float) -> "AdamState":
        return cls(
            lr=lr,
            m=[np.zeros(p.shape, p.dtype) for p in params],
            v=[np.zeros(p.shape, p.dtype) for p in params],
        )


def _adam_range(p, g, m, v, lo: int, hi: int, eps: float, step_size: float) -> None:
    """The Adam update of elements [lo, hi) of the raveled arrays, in place,
    one ADAM_CHUNK slice at a time through its own chunk scratch; hi is a
    multiple of ADAM_CHUNK past lo, or the arrays' end. Ten passes a chunk: the
    running sums m = BETA1 m + g and v = BETA2 v + g^2, then
    p -= step_size m / (sqrt(v) + eps) with adam_step's two per-step scalars."""
    scratch = np.empty(min(ADAM_CHUNK, hi - lo))
    for a in range(lo, hi, ADAM_CHUNK):
        pc, gc, mc, vc = (x[a : a + ADAM_CHUNK] for x in (p, g, m, v))
        s = scratch[: pc.size]
        mc *= BETA1
        mc += gc
        vc *= BETA2
        np.multiply(gc, gc, out=s)
        vc += s
        np.sqrt(vc, out=s)
        s += eps
        np.divide(mc, s, out=s)
        s *= step_size
        pc -= s


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> list[np.ndarray]:
    """One in-place Adam update (Kingma & Ba 2015, Alg. 1); returns params.

    Each array is updated in ADAM_CHUNK slices of its raveled view, so it must be
    C-contiguous, and in _in_shares' shares of _share(size), bit for bit however many.
    """
    state.step += 1
    t = state.step
    r = np.sqrt((1 - BETA2) / (1 - BETA2**t))  # sqrt(v-hat) = r sqrt(v) on the running sum
    eps = ADAM_EPS / r
    step_size = state.lr * (1 - BETA1) / ((1 - BETA1**t) * r)
    for arrays in zip(params, grads, state.m, state.v):
        if not all(a.flags.c_contiguous for a in arrays):
            raise ValueError("adam_step needs C-contiguous arrays")
        p, g, m, v = (a.reshape(-1) for a in arrays)
        _in_shares(p.size, _share(p.size),
                   lambda lo, hi: _adam_range(p, g, m, v, lo, hi, eps, step_size))
    return params
