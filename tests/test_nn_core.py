import copy
import sys
import threading

import numpy as np
import pytest

from feattrans import nn_core as nn
from oracles import adam_textbook, build_stack, finite_diff_grads


def random_stack(rng, dims=None, final_l2=False, last_activation="linear"):
    dims = dims or (8, 8, 8)
    return build_stack(dims, final_l2, rng, last_activation)


class TestForward:
    def test_identity_linear_layer(self):
        stack = nn.LayerStack([nn.DenseLayer(np.eye(3), np.zeros(3))])
        x = np.array([[1.0, -2.0, 3.0]])
        out, _ = nn.forward(stack, x)
        np.testing.assert_array_equal(out, x)

    def test_relu_clips_negatives(self):
        # relu on the first layer; the second, last one is linear
        stack = nn.LayerStack([nn.DenseLayer(np.eye(2), np.zeros(2)) for _ in range(2)])
        out, _ = nn.forward(stack, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_final_normalization_hand_example(self):
        # W=[[1,1]], b=0 on input (3,4): pre-norm 7, post-norm 1
        stack = nn.LayerStack(
            [nn.DenseLayer(np.array([[1.0, 1.0]]), np.zeros(1))],
            final_l2_normalize=True,
        )
        out, tape = nn.forward(stack, np.array([[3.0, 4.0]]))
        assert tape.norms[0, 0] == 7.0
        assert out[0, 0] == 1.0

    def test_unit_row_norms(self):
        rng = np.random.default_rng(0)
        stack = random_stack(rng, dims=(5, 7, 4), final_l2=True)
        out, _ = nn.forward(stack, rng.normal(size=(20, 5)))
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        stack = random_stack(rng, final_l2=True)
        x = rng.normal(size=(4, 8))
        a, _ = nn.forward(stack, x)
        b, _ = nn.forward(stack, x)
        assert np.array_equal(a, b)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(2)
        stack = random_stack(rng)
        with pytest.raises(Exception):
            nn.forward(stack, np.zeros((2, 5)))


def expression_forward(stack, batch):
    """forward()'s arithmetic as expressions, a fresh array for each."""
    x = batch
    for k, layer in enumerate(stack.layers):
        z = x @ layer.weights.T + layer.bias
        x = np.maximum(z, 0.0) if k < len(stack.layers) - 1 else z
    if stack.final_l2_normalize:
        x = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), nn._EPS)
    return x


def expression_backward(stack, tape, g):
    """backward()'s arithmetic as expressions: the parameter gradients and
    the gradient at the first layer's affine output."""
    if stack.final_l2_normalize:
        y = tape.out
        g = (g - np.sum(g * y, axis=1, keepdims=True) * y) / tape.norms
    grads = [None] * (2 * len(stack.layers))
    for k in range(len(stack.layers) - 1, -1, -1):
        grads[2 * k], grads[2 * k + 1] = g.T @ tape.inputs[k], np.sum(g, axis=0)
        if k:
            g = (g @ stack.layers[k].weights) * (tape.inputs[k] > 0)
    return grads, g


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestInPlaceArithmetic:
    """forward, backward and euclid_loss work in place, with the bits of the
    expressions they replace."""

    @pytest.mark.parametrize("final_l2", [False, True])
    def test_forward_into_out_is_bit_identical(self, final_l2):
        rng = np.random.default_rng(20)
        stack = random_stack(rng, dims=(8, 6, 9, 5), final_l2=final_l2)
        x = rng.normal(size=(7, 8))
        want, _ = nn.forward(stack, x)
        outs = [np.full((7, w), np.nan) for w in stack.dims[1:]]
        got, tape = nn.forward(stack, x, outs)
        assert got is outs[-1]  # the result is the last layer's array
        assert same_bits(got, want) and same_bits(want, expression_forward(stack, x))
        assert tape.inputs[1:] == outs[:-1]
        assert (tape.out is got) == final_l2

    @pytest.mark.parametrize("final_l2", [False, True])
    def test_backward_and_loss_bit_identical_to_expressions(self, final_l2):
        rng = np.random.default_rng(21)
        stack = random_stack(rng, dims=(8, 6, 9, 5), final_l2=final_l2)
        x = rng.normal(size=(7, 8))
        tgt = rng.normal(size=(7, 5))
        out, tape = nn.forward(stack, x)
        loss, g = nn.euclid_loss(out, tgt)
        diff = out - tgt
        dists = np.linalg.norm(diff, axis=1)
        assert loss == float(dists.mean())
        assert same_bits(g, diff / (dists[:, None] + nn._EPS) / 7)
        upstream = g.copy()
        grads, g_first = nn.backward(stack, tape, g)
        assert same_bits(g, upstream)  # the caller's gradient is left alone
        want, want_first = expression_backward(stack, tape, g)
        assert all(same_bits(a, b) for a, b in zip(grads, want))
        assert same_bits(g_first, want_first)


class TestRowNorms:
    @pytest.mark.parametrize(
        "rows",
        [
            np.random.default_rng(22).normal(size=(6, 5)) * 1e-300,  # squares underflow
            np.random.default_rng(23).normal(size=(6, 5)) * 1e300,  # squares overflow
            np.zeros((3, 4)),
            np.array([[np.nan, 1.0], [np.inf, -np.inf], [np.nan, np.inf], [0.0, -0.0]]),
            np.arange(-6, 6).reshape(4, 3) * 5e-324,  # subnormals
            np.empty((0, 3)),
        ],
        ids=["1e-300", "1e300", "zeros", "nan-inf", "subnormal", "no-rows"],
    )
    def test_bit_identical_to_linalg_norm(self, rows):
        with np.errstate(all="ignore"):
            assert same_bits(nn._row_norms(rows), np.linalg.norm(rows, axis=1))

    @pytest.mark.parametrize("tile_bytes", [1, 1 << 10, 3 << 10, 16 << 10, 32 << 10, None])
    def test_tiles_keep_the_bits_of_squaring_the_whole_input(self, monkeypatch, tile_bytes):
        """A row's sum of squares does not depend on how many rows share its tile."""
        if tile_bytes is not None:  # None: nn._TILE_BYTES as it is
            monkeypatch.setattr(nn, "_TILE_BYTES", tile_bytes)
        rng = np.random.default_rng(24)
        for shape in [(1, 32), (3, 7), (17, 2048), (250, 1), (130, 300), (1000, 510)]:
            x = rng.normal(size=shape)
            for rows in (x, x[::3], x[:, ::2]):  # strided views too
                assert same_bits(nn._row_norms(rows), np.sqrt(np.add.reduce(rows * rows, axis=1)))


class TestEuclidLoss:
    def test_coincident_points(self):
        x = np.ones((3, 4))
        loss, grad = nn.euclid_loss(x, x)
        assert loss == 0.0
        assert np.max(np.abs(grad)) < 1e-6

    def test_unit_distance_single_row(self):
        loss, grad = nn.euclid_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert abs(loss - 1.0) < 1e-12
        np.testing.assert_allclose(grad, [[1.0, 0.0]], atol=1e-9)

    def test_mean_of_row_distances(self):
        pred = np.array([[3.0, 0.0], [0.0, 4.0]])
        tgt = np.zeros((2, 2))
        loss, _ = nn.euclid_loss(pred, tgt)
        assert abs(loss - 3.5) < 1e-12

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.normal(size=(2, 5, 3))
            loss, _ = nn.euclid_loss(a, b)
            assert loss > 0.0
        assert nn.euclid_loss(a, a)[0] == 0.0


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(4)
        stack = random_stack(rng, final_l2=True)
        x = rng.normal(size=(3, 8))
        out, tape = nn.forward(stack, x)
        grads, gin = nn.backward(stack, tape, np.zeros_like(out))
        assert all(np.max(np.abs(g)) == 0.0 for g in grads)
        assert np.max(np.abs(gin)) == 0.0

    def test_normalization_kills_parallel_gradient(self):
        # L2-norm layer on an already-unit input with upstream grad parallel
        # to the input: the projection Jacobian maps it to ~0
        stack = nn.LayerStack(
            [nn.DenseLayer(np.eye(3), np.zeros(3))], final_l2_normalize=True
        )
        x = np.array([[0.6, 0.8, 0.0]])
        _, tape = nn.forward(stack, x)
        _, gin = nn.backward(stack, tape, 2.5 * x)
        assert np.max(np.abs(gin)) < 1e-12

    @pytest.mark.parametrize("final_l2", [False, True])
    @pytest.mark.parametrize("last_activation", ["linear", "relu"])
    def test_matches_finite_differences(self, final_l2, last_activation):
        rng = np.random.default_rng(6)
        stack = random_stack(rng, dims=(8, 6, 8), final_l2=final_l2,
                             last_activation=last_activation)
        x = rng.normal(size=(5, 8))
        tgt = rng.normal(size=(5, 8))
        tgt /= np.linalg.norm(tgt, axis=1, keepdims=True)

        out, tape = nn.forward(stack, x)
        _, g = nn.euclid_loss(out, tgt)
        analytic, g_first = nn.backward(stack, tape, g)
        analytic.append(g_first @ stack.layers[0].weights)  # the input gradient

        def loss_fn():
            o, _ = nn.forward(stack, x)
            return nn.euclid_loss(o, tgt)[0]

        numeric = finite_diff_grads(loss_fn, stack.parameters() + [x])
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.abs(n), 1e-6)
            assert np.max(np.abs(a - n) / denom) < 1e-4


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = [np.array([1.0, 2.0])]
        state = nn.AdamState.init(p, lr=0.1)
        state.m = [np.array([0.5, 0.5])]
        nn.adam_step(p, [np.zeros(2)], state)
        # m decays with a zero gradient and v stays zero, so the first step is
        # lr * m / eps: large but finite
        np.testing.assert_array_equal(state.m[0], nn.BETA1 * 0.5)
        np.testing.assert_array_equal(state.v[0], 0.0)
        assert np.all(np.isfinite(p[0]))
        np.testing.assert_allclose(p[0], np.array([1.0, 2.0]) - 0.1 * 0.45 / nn.ADAM_EPS, rtol=1e-12)
        # with zero moments the update is exactly zero
        p2 = [np.array([1.0, 2.0])]
        s2 = nn.AdamState.init(p2, lr=0.1)
        nn.adam_step(p2, [np.zeros(2)], s2)
        np.testing.assert_array_equal(p2[0], [1.0, 2.0])

    def test_first_step_magnitude(self):
        # closed form: first update is lr * g / (|g| + eps) for scalar g=1
        p = [np.array([0.0])]
        state = nn.AdamState.init(p, lr=1e-5)
        nn.adam_step(p, [np.array([1.0])], state)
        assert abs(-p[0][0] - 1e-5 * (1.0 / (1.0 + 1e-8))) < 1e-18
        assert state.step == 1

    def test_moments_are_running_sums(self):
        # m and v hold m = BETA1 m + g and v = BETA2 v + g^2, so the first step
        # from zeros stores g and g^2 themselves, and still takes Adam's step
        rng = np.random.default_rng(3)
        n = 2 * nn.ADAM_CHUNK + 7
        p, g = [rng.normal(size=n)], rng.normal(size=n)
        want = adam_textbook(p, [[g]], lr=1e-3)
        state = nn.AdamState.init(p, lr=1e-3)
        nn.adam_step(p, [g], state)
        assert np.array_equal(state.m[0], g)
        assert np.array_equal(state.v[0], g * g)
        assert np.max(np.abs(p[0] - want[0])) <= 1e-12 * np.max(np.abs(want[0]))

    def test_constant_gradient_steady_state(self):
        p = [np.array([0.0])]
        state = nn.AdamState.init(p, lr=1e-3)
        prev = p[0][0]
        for _ in range(5000):
            prev = p[0][0]
            nn.adam_step(p, [np.array([1.0])], state)
        assert abs(abs(p[0][0] - prev) - 1e-3) < 5e-5


class TestAdamMatchesTextbook:
    @pytest.mark.parametrize(
        "shapes",
        [
            [(2 * nn.ADAM_CHUNK + 7,)],  # two full chunks and an odd remainder
            [(3, 5), (7,), (nn.ADAM_CHUNK + 3,), (2, 3, 4), (1,)],
        ],
        ids=["one-vector", "several-arrays"],
    )
    def test_hundred_steps(self, shapes):
        rng = np.random.default_rng(0)
        params = [rng.normal(size=s) for s in shapes]
        grads = [[rng.normal(size=s) for s in shapes] for _ in range(100)]
        want = adam_textbook(params, grads, lr=1e-3)
        state = nn.AdamState.init(params, lr=1e-3)
        for g in grads:
            nn.adam_step(params, g, state)
        assert state.step == 100
        for got, ref in zip(params, want):
            assert got.shape == ref.shape
            # max-norm relative difference: the two differ only in rounding
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_non_contiguous_parameter_rejected(self):
        p = np.zeros((4, 4))[:, :2]
        state = nn.AdamState.init([np.zeros((4, 2))], lr=1e-3)
        with pytest.raises(ValueError, match="contiguous"):
            nn.adam_step([p], [np.ones((4, 2))], state)


def _split_steps(monkeypatch, workers, n, steps=20):
    """p, m, v after `steps` Adam steps on an n-vector at `workers` workers."""
    monkeypatch.setattr(nn, "_WORKERS", workers)
    rng = np.random.default_rng(7)
    p = [rng.normal(size=n)]
    state = nn.AdamState.init(p, lr=1e-3)
    for _ in range(steps):
        nn.adam_step(p, [rng.normal(size=n)], state)
    return p[0], state.m[0], state.v[0]


class TestAdamSplit:
    N = 9 * nn.ADAM_CHUNK + 5  # the last share is ragged at 2 and 3 workers

    @pytest.mark.parametrize("workers", [2, 3])
    def test_bit_identical_to_one_worker(self, monkeypatch, workers):
        want = _split_steps(monkeypatch, 1, self.N)
        got = _split_steps(monkeypatch, workers, self.N)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_split_matches_textbook(self, monkeypatch):
        monkeypatch.setattr(nn, "_WORKERS", 3)
        rng = np.random.default_rng(8)
        params = [rng.normal(size=self.N)]
        grads = [[rng.normal(size=self.N)] for _ in range(20)]
        want = adam_textbook(params, grads, lr=1e-3)
        state = nn.AdamState.init(params, lr=1e-3)
        for g in grads:
            nn.adam_step(params, g, state)
        assert np.max(np.abs(params[0] - want[0])) <= 1e-12 * np.max(np.abs(want[0]))

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_caller_runs_the_first_share_and_started_threads_the_others(self, monkeypatch, workers):
        threads = {}
        adam_range = nn._adam_range

        def tagged(p, g, m, v, lo, hi, *scalars):
            threads[lo] = threading.get_ident()
            adam_range(p, g, m, v, lo, hi, *scalars)

        monkeypatch.setattr(nn, "_adam_range", tagged)
        monkeypatch.setattr(nn, "_ADAM_SPLIT_MIN", nn.ADAM_CHUNK)  # split at 8 workers too
        _split_steps(monkeypatch, workers, self.N, steps=1)
        share = -(-self.N // (nn.ADAM_CHUNK * workers)) * nn.ADAM_CHUNK
        assert sorted(threads) == list(range(0, self.N, share))  # 5 shares at 8 workers
        caller = threading.get_ident()
        assert [lo for lo, t in threads.items() if t == caller] == [0]

    def test_started_share_keeps_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(nn, "_WORKERS", 2)
        before = threading.active_count()
        p = [np.zeros(self.N)]
        g = np.zeros(self.N)
        g[-1] = np.inf  # in adam_step's started share; inf / inf is invalid
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            nn.adam_step(p, [g], nn.AdamState.init(p, lr=1e-3))
        assert threading.active_count() == before  # every started share has finished

    def test_small_array_starts_no_thread(self, monkeypatch):
        def no_threads(*args):
            raise AssertionError("adam_step started a thread")

        monkeypatch.setattr(nn, "ThreadPoolExecutor", no_threads)
        # the largest array 2 workers leave inline: 3 chunks per share
        largest = 2 * (nn._ADAM_SPLIT_MIN - nn.ADAM_CHUNK)
        _split_steps(monkeypatch, 2, largest, steps=2)
        with pytest.raises(AssertionError, match="started a thread"):
            _split_steps(monkeypatch, 2, largest + 1, steps=1)
        _split_steps(monkeypatch, 1, 2 * nn._ADAM_SPLIT_MIN, steps=2)  # one share


def _he_uniform(dims, seed):
    """The flat parameters he_init should give a stack through `dims`, drawn
    layer by layer by rng.uniform, and the generator's next random() draw."""
    rng = np.random.default_rng(seed)
    parts = []
    for d_in, d_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / d_in)
        parts += [rng.uniform(-limit, limit, size=(d_out, d_in)).ravel(), np.zeros(d_out)]
    return np.concatenate(parts), rng.random()


def _he_at(monkeypatch, workers, dims, seed):
    """he_init's flat parameters for a stack through `dims` at `workers`
    workers, and the generator's next random() draw."""
    monkeypatch.setattr(nn, "_WORKERS", workers)
    flat = np.full(nn.stack_size(dims), np.nan)
    rng = np.random.default_rng(seed)
    nn.he_init(nn.stack_views(flat, dims, False), rng)
    return flat, rng.random()


class TestHeSplit:
    STACKS = {
        "two-shares": (256, 256, 256),  # each layer two chunks: two shares once split
        "ragged": (42131, 7, 5),  # 7 * 42131 = 9 * ADAM_CHUNK + 5 weights, then a tiny layer
    }

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("stack", STACKS)
    def test_bit_identical_to_layerwise_uniform(self, monkeypatch, stack, workers):
        monkeypatch.setattr(nn, "_ADAM_SPLIT_MIN", nn.ADAM_CHUNK)  # split at 8 workers too
        dims = self.STACKS[stack]
        want, want_next = _he_uniform(dims, seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the shares' threads finely
        try:
            got, got_next = _he_at(monkeypatch, workers, dims, seed=5)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()
        assert got_next == want_next  # rng is advanced past every layer

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_started_shares_draw_on_started_threads(self, monkeypatch, workers):
        monkeypatch.setattr(nn, "_ADAM_SPLIT_MIN", nn.ADAM_CHUNK)
        monkeypatch.setattr(nn, "_WORKERS", workers)
        threads = {}
        in_shares = nn._in_shares

        def tagged(size, share, run):
            def run_tagged(lo, hi):
                threads[lo] = threading.get_ident()
                run(lo, hi)
            in_shares(size, share, run_tagged)

        monkeypatch.setattr(nn, "_in_shares", tagged)
        dims = self.STACKS["ragged"]
        stack = nn.stack_views(np.empty(nn.stack_size(dims)), dims, False)
        nn.he_init(stack, np.random.default_rng(0))
        share = nn._share(dims[0] * dims[1])
        assert sorted(threads) == list(range(0, dims[0] * dims[1], share))
        assert [lo for lo, t in threads.items() if t == threading.get_ident()] == [0]

    def test_unsplit_stack_keeps_a_buffered_half(self, monkeypatch):
        """An unsplit layer leaves rng where layerwise uniform draws leave it,
        with the 32-bit half a bounded integer draw buffered still held."""
        monkeypatch.setattr(nn, "_WORKERS", 2)
        rng = np.random.default_rng(7)
        rng.integers(1, 4)  # draws 32 bits of 64: the other half stays buffered
        ours, theirs = rng, copy.deepcopy(rng)
        dims = (512, 384, 8)  # both layers below the split size
        nn.he_init(nn.stack_views(np.empty(nn.stack_size(dims)), dims, False), ours)
        for d_in, d_out in zip(dims, dims[1:]):
            limit = np.sqrt(6.0 / d_in)
            theirs.uniform(-limit, limit, size=(d_out, d_in))
        assert np.array_equal(ours.integers(1, 4, size=8), theirs.integers(1, 4, size=8))

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_below_split_size_opens_no_executor(self, monkeypatch, workers):
        def no_executor(*args):
            raise AssertionError("he_init opened an executor")

        monkeypatch.setattr(nn, "ThreadPoolExecutor", no_executor)
        dims = (512, 384)  # six chunks: three a share at 2 workers, below _ADAM_SPLIT_MIN
        want, want_next = _he_uniform(dims, seed=6)
        got, got_next = _he_at(monkeypatch, workers, dims, seed=6)
        assert got.tobytes() == want.tobytes()
        assert got_next == want_next
