import numpy as np
import pytest

from feattrans import nn_core as nn
from oracles import adam_textbook, build_stack, finite_diff_grads


def random_stack(rng, dims=None, final_l2=False, last_activation="linear"):
    dims = dims or (8, 8, 8)
    return build_stack(dims, final_l2, rng, last_activation)


class TestForward:
    def test_identity_linear_layer(self):
        stack = nn.LayerStack([nn.DenseLayer(np.eye(3), np.zeros(3), "linear")])
        x = np.array([[1.0, -2.0, 3.0]])
        out, _ = nn.forward(stack, x)
        np.testing.assert_array_equal(out, x)

    def test_relu_clips_negatives(self):
        stack = nn.LayerStack([nn.DenseLayer(np.eye(2), np.zeros(2), "relu")])
        out, _ = nn.forward(stack, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_final_normalization_hand_example(self):
        # W=[[1,1]], b=0 on input (3,4): pre-norm 7, post-norm 1
        stack = nn.LayerStack(
            [nn.DenseLayer(np.array([[1.0, 1.0]]), np.zeros(1), "linear")],
            final_l2_normalize=True,
        )
        out, tape = nn.forward(stack, np.array([[3.0, 4.0]]))
        assert tape.pre_norm[0, 0] == 7.0
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
            [nn.DenseLayer(np.eye(3), np.zeros(3), "linear")], final_l2_normalize=True
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
        analytic, _ = nn.backward(stack, tape, g)

        def loss_fn():
            o, _ = nn.forward(stack, x)
            return nn.euclid_loss(o, tgt)[0]

        numeric = finite_diff_grads(loss_fn, stack.parameters())
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.abs(n), 1e-6)
            assert np.max(np.abs(a - n) / denom) < 1e-4


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = [np.array([1.0, 2.0])]
        state = nn.AdamState.init(p, lr=0.1)
        state.m = [np.array([0.5, 0.5])]
        nn.adam_step(p, [np.zeros(2)], state)
        # moments decay but with zero gradient m_hat/(sqrt(v_hat)+eps) stays
        # finite; with zero moments the update is exactly zero
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
