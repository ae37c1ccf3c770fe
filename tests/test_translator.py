import dataclasses
import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feattrans import affinity, feature_io as fio, nn_core as nn, translator
from feattrans.errors import DataError, InvalidConfig, NumericError
from oracles import finite_diff_grads


class TestBuild:
    def test_wide_input_architecture(self):
        m = translator.build(2048, 2048, 510, "hae")
        enc_s, dec = m.translate_path
        enc_t, _ = m.reconstruct_path
        assert m.translate_path[-1] is m.reconstruct_path[-1]
        assert enc_s.dims == (2048, 2048, 2048, 2048, 510)
        assert enc_t.dims == (2048, 2048, 2048, 2048, 510)
        assert dec.dims == (510, 2048, 2048, 2048, 2048)
        assert dec.final_l2_normalize

    def test_narrow_input_architecture(self):
        m = translator.build(512, 512, 510, "hae")
        assert m.translate_path[0].dims == (512, 512, 512, 510)
        assert m.translate_path[-1] is m.reconstruct_path[-1]

    def test_mlp_baseline_architecture(self):
        m = translator.build(2048, 2048, kind="mlp_baseline")
        (mlp,) = m.translate_path
        assert mlp.dims == (2048, 2048, 2048, 2048)
        assert mlp.final_l2_normalize
        assert m.reconstruct_path == ()

    def test_mixed_dims(self):
        m = translator.build(512, 2048, 510, "hae")
        enc_s, dec = m.translate_path
        enc_t, _ = m.reconstruct_path
        assert m.translate_path[-1] is m.reconstruct_path[-1]
        assert enc_s.dims == (512, 512, 512, 510)
        assert enc_t.dims == (2048, 2048, 2048, 2048, 510)
        assert dec.dims == (510, 2048, 2048, 2048, 2048)

    def test_seeded_build_reproducible(self):
        a = translator.build(16, 16, 8, "hae", seed=5)
        b = translator.build(16, 16, 8, "hae", seed=5)
        params = [[p for s in m.stacks for p in s.parameters()] for m in (a, b)]
        for pa, pb in zip(*params):
            assert np.array_equal(pa, pb)


class TestTrain:
    def test_rotation_pair_converges(self, rotation_fixture):
        log = rotation_fixture.log
        # threshold recorded from the fixture's own first verified run
        # (val translation error 0.136 at lr 1e-3, 150 epochs)
        assert log.val_translation[log.best_epoch] < 0.15

    def test_best_so_far_train_loss_decreases(self, rotation_fixture):
        total = rotation_fixture.log.train_total
        best = np.minimum.accumulate(total)
        # Adam is not monotone; the running best must still improve overall
        assert best[-1] < best[0]
        assert all(t <= 1.05 * b or t <= b + 0.05 for t, b in zip(total, best))

    def test_self_translation_terms_coincide(self, self_fixture):
        log = self_fixture.log
        gap = abs(log.val_translation[log.best_epoch] - log.val_reconstruction[log.best_epoch])
        assert gap < 0.01

    def test_mlp_baseline_has_no_reconstruction_term(self, rotation_fixture):
        model = translator.build(
            32, 32, kind="mlp_baseline", seed=0, source_name="a", target_name="b"
        )
        cfg = translator.TrainConfig(lr=1e-3, batch_size=64, max_epochs=5, patience=5, seed=0)
        _, log = translator.train(model, rotation_fixture.train_pair, cfg)
        assert all(r == 0.0 for r in log.train_reconstruction)
        assert all(r == 0.0 for r in log.val_reconstruction)

    # (6, 6) runs out of epochs; (40, 2) stops by patience after epoch 12, its
    # best epoch 10 having followed a worse epoch 5
    @pytest.mark.parametrize("max_epochs, patience", [(6, 6), (40, 2)])
    def test_returns_best_epoch_parameters(self, rotation_fixture, max_epochs, patience):
        pair = rotation_fixture.train_pair
        cfg = translator.TrainConfig(
            lr=1e-2, batch_size=64, max_epochs=max_epochs, patience=patience, seed=0
        )
        model = translator.build(32, 32, 24, "hae", seed=0)
        best, log = translator.train(model, pair, cfg)
        assert log.best_epoch < log.epochs_run - 1  # a later epoch did worse
        assert log.epochs_run == min(max_epochs, log.best_epoch + 1 + patience)
        assert not np.shares_memory(best.flat, model.flat)
        # the same run stopped after the best epoch ends on the same parameters
        short = dataclasses.replace(cfg, max_epochs=log.best_epoch + 1)
        again, _ = translator.train(translator.build(32, 32, 24, "hae", seed=0), pair, short)
        assert np.array_equal(best.flat, again.flat)

    def test_last_epoch_best_returns_the_model_in_four_model_sized_buffers(self):
        # the gradients and Adam's m and v; no best-epoch snapshot
        src, tgt = random_pairs(96, 512, 512, seed=8)
        model = translator.build(512, 512, 64, "hae", seed=0)
        cfg = translator.TrainConfig(lr=1e-3, max_epochs=1, seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            best, log = translator.train(model, fio.align_pairs(src, tgt), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best is model
        assert log.best_epoch == 0
        assert peak - base < 4 * model.flat.nbytes

    # 600 rows of 384-d: scratch 3.7 MB, below the 7.7 MB of parameters;
    # 1,000 of 256-d: scratch 4.1 MB, above the 3.6 MB of parameters
    @pytest.mark.parametrize("n, dim", [(600, 384), (1000, 256)])
    def test_epoch_end_scratch_lives_in_the_gradient_buffer(self, n, dim):
        """One workspace of max(parameters, scratch) elements holds the gradients and,
        between steps, the epoch-end loss pass's scratch, every stored row one path at
        a time; no row is copied. Its bytes on both sides of the max are TestUntapedPass::
        test_train_bit_identical_to_fresh_arrays's (n = 1 and 2 below, n = 101 above)."""
        src, tgt = random_pairs(n, dim, dim, seed=8)
        model = translator.build(dim, dim, 64, "hae", seed=0)
        cfg = translator.TrainConfig(lr=1e-3, batch_size=8, max_epochs=1, seed=0)
        paired = fio.align_pairs(src, tgt)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            translator.train(model, paired, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        flat = model.flat.nbytes
        scratch = 2 * n * dim * 8  # _untaped's two arrays of every row by the widest layer, dim
        share = nn._share(model.flat.size)
        adam = -(-model.flat.size // share) * min(nn.ADAM_CHUNK, share) * 8  # chunk scratch
        # m, v and the workspace; one tile of row-norm squares, Adam's chunk scratch and
        # 512 KiB for a batch of 8's step temporaries and the per-row distances
        workspace = max(flat, scratch)
        assert peak - base < 2 * flat + workspace + nn._TILE_BYTES + adam + (1 << 19)

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_logged_losses_are_split_means_of_one_pass(self, kind):
        """Each epoch's logged losses are the means, over train()'s split of the stored
        rows, of one _batch_losses over every row as stored."""
        n = 101
        src, tgt = random_pairs(n, 12, 10, seed=n)
        cfg = translator.TrainConfig(lr=1e-3, batch_size=8, max_epochs=1, seed=1)
        paired = fio.align_pairs(src, tgt)
        best, log = translator.train(translator.build(12, 10, 14, kind, seed=3), paired, cfg)
        perm = np.random.default_rng(cfg.seed).permutation(n)  # train()'s first draw
        n_val = round(translator.VAL_FRACTION * n)
        trans, recon = translator._batch_losses(best, src.vectors, tgt.vectors, scratch_for(best, n))
        for idx, logged in ((perm[n_val:], (log.train_translation, log.train_reconstruction)),
                            (perm[:n_val], (log.val_translation, log.val_reconstruction))):
            assert [column[0] for column in logged] == [nn._mean(trans[idx]), nn._mean(recon[idx])]
        assert log.train_total[0] == log.train_translation[0] + log.train_reconstruction[0]
        assert log.val_total[0] == log.val_translation[0] + log.val_reconstruction[0]

    def test_batch_losses_memory_is_the_distances_and_one_tile(self):
        """At 2048-d, past the scratch, a _batch_losses holds the two per-row distance
        vectors and squares one _row_norms tile at a time, not a whole path's rows."""
        rows = 300
        src, tgt = random_pairs(rows, 8, 2048, seed=12)
        model = translator.build(8, 2048, 4, "hae", seed=0)
        scratch = scratch_for(model, rows)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            translator._batch_losses(model, src.vectors, tgt.vectors, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2 * rows * 8 + nn._TILE_BYTES + (1 << 12)

    def test_non_finite_validation_loss_raises(self):
        # source rows of 1e308 overflow on the validation rows alone, so every
        # training step stays finite and only the epoch-end pass turns NaN
        cfg = translator.TrainConfig(lr=1e-3, max_epochs=3, patience=3, seed=0)
        src, tgt = random_pairs(40, 8, 8, seed=9)
        vectors = src.vectors.copy()
        vectors[np.random.default_rng(cfg.seed).permutation(40)[:4]] = 1e308  # train()'s draw
        src = fio.FeatureSet("s", src.ids, vectors)
        model = translator.build(8, 8, 8, "hae", seed=0)
        with pytest.raises(NumericError, match="non-finite validation loss at epoch 0"):
            translator.train(model, fio.align_pairs(src, tgt), cfg)

    @pytest.mark.parametrize(
        "setting",
        [
            {"lr": 0.0},
            {"batch_size": 0},
            {"max_epochs": 0},
            {"patience": 0},
            {"lr": float("inf")},
            {"lr": float("nan")},
            {"seed": -1},
        ],
    )
    def test_out_of_range_setting_rejected(self, setting):
        with pytest.raises(InvalidConfig):
            translator.TrainConfig(**setting)

    def test_pair_of_no_rows_rejected(self):
        empty = fio.FeatureSet("x", (), np.empty((0, 4)), normalized=True)
        model = translator.build(4, 4, 3, "hae")
        with pytest.raises(DataError, match="^empty paired set$"):
            translator.train(model, fio.PairedSet(empty, empty), translator.TrainConfig(max_epochs=1))

    def test_one_pair_validates_on_its_training_row(self):
        rng = np.random.default_rng(3)
        src = fio.l2_normalize(fio.FeatureSet("s", ("a",), rng.normal(size=(1, 4))))
        tgt = fio.l2_normalize(fio.FeatureSet("t", ("a",), rng.normal(size=(1, 5))))
        cfg = translator.TrainConfig(lr=1e-3, max_epochs=3, patience=3)
        _, log = translator.train(
            translator.build(4, 5, 3, "hae", seed=0), fio.align_pairs(src, tgt), cfg
        )
        assert log.epochs_run == 3
        assert log.val_translation == log.train_translation
        assert log.val_reconstruction == log.train_reconstruction
        assert log.val_total == log.train_total

    def test_unnormalized_target_rejected(self):
        model = translator.build(4, 4, 3, "hae")
        rng = np.random.default_rng(0)
        fs = fio.FeatureSet("x", ("a", "b"), 3.0 * rng.normal(size=(2, 4)))
        paired = fio.align_pairs(fs, fs)
        with pytest.raises(DataError, match="normalized"):
            translator.train(model, paired, translator.TrainConfig(lr=1e-3, max_epochs=1))


class TestLossAndGrads:
    @staticmethod
    def _objective(model, vs, vt):
        """Translation plus reconstruction error, composed by hand from nn_core."""
        def run(stacks, x):
            for stack in stacks:
                x, _ = nn.forward(stack, x)
            return x

        if model.kind == "mlp_baseline":
            return nn.euclid_loss(run(model.translate_path, vs), vt)[0]
        enc_s, dec = model.translate_path
        enc_t = model.reconstruct_path[0]
        return (nn.euclid_loss(run([enc_s, dec], vs), vt)[0]
                + nn.euclid_loss(run([enc_t, dec], vt), vt)[0])

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_matches_finite_differences(self, kind):
        # mixed source/target dims so a misordered gradient cannot line up
        model = translator.build(4, 5, 3, kind, seed=1)
        rng = np.random.default_rng(7)
        vs = rng.normal(size=(6, 4))
        vt = rng.normal(size=(6, 5))
        vt /= np.linalg.norm(vt, axis=1, keepdims=True)

        grads = model.on(np.empty_like(model.flat))
        total = translator._loss_and_grads(model, vs, vt, grads)
        analytic, params = ([p for s in m.stacks for p in s.parameters()] for m in (grads, model))
        assert abs(total - self._objective(model, vs, vt)) < 1e-12
        numeric = finite_diff_grads(lambda: self._objective(model, vs, vt), params)
        assert len(analytic) == len(numeric) == (18 if kind == "hae" else 4)
        for a, n in zip(analytic, numeric):
            assert a.shape == n.shape
            assert np.max(np.abs(a - n) / np.maximum(np.abs(n), 1e-6)) < 1e-4

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_batch_losses_match_public_paths(self, kind):
        """The epoch-end per-row distances equal, bit for bit, those of translate() and
        reconstruct() on the same rows, at every row count: at 1 row, one decoder call
        over both paths' stacked rows would round differently."""
        model = translator.build(6, 5, 3, kind, seed=2)
        for rows in (1, 2, 9):
            rng = np.random.default_rng(11)
            ids = tuple(f"v{i}" for i in range(rows))
            vs = rng.normal(size=(rows, 6))
            vt = rng.normal(size=(rows, 5))
            vt /= np.linalg.norm(vt, axis=1, keepdims=True)
            src = fio.FeatureSet(name="s", ids=ids, vectors=vs)
            tgt = fio.FeatureSet(name="t", ids=ids, vectors=vt)

            def dists(out):
                return np.linalg.norm(out.vectors - vt, axis=1).tobytes()

            trans, recon = translator._batch_losses(model, vs, vt, scratch_for(model, rows))
            assert trans.tobytes() == dists(translator.translate(model, src)), rows
            if kind == "hae":
                assert recon.tobytes() == dists(translator.reconstruct(model, tgt)), rows
            else:
                assert recon.tobytes() == np.zeros(rows).tobytes()


def scratch_for(model, rows):
    """A scratch of train()'s epoch-end shape for `rows` rows of `model`."""
    return np.empty(translator._scratch_shape(model.stacks, rows))


def fresh_untaped(path, x, scratch=None):
    """The untaped pass through fresh arrays: nn.forward over each stack of the path."""
    for stack in path:
        x = nn.forward(stack, x)[0]
    return x


def random_pairs(n, source_dim, target_dim, seed):
    rng = np.random.default_rng(seed)
    ids = tuple(f"v{i:03d}" for i in range(n))
    src = fio.FeatureSet("s", ids, rng.normal(size=(n, source_dim)))
    tgt = fio.l2_normalize(fio.FeatureSet("t", ids, rng.normal(size=(n, target_dim))))
    return src, tgt


class TestUntapedPass:
    """The epoch-end loss pass, dam_entry and translate/reconstruct keep no tape
    and run their layers in two reused scratch arrays, bit for bit."""

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    @pytest.mark.parametrize("n", [1, 2, 101])
    def test_train_bit_identical_to_fresh_arrays(self, monkeypatch, kind, n):
        # at n = 101, 91 training rows in batches of 8 leave a remainder of 3
        src, tgt = random_pairs(n, 12, 10, seed=n)
        cfg = translator.TrainConfig(lr=1e-3, batch_size=8, max_epochs=4, patience=4, seed=1)

        def run():
            model = translator.build(12, 10, 14, kind, seed=3)  # latent wider than the inputs
            best, log = translator.train(model, fio.align_pairs(src, tgt), cfg)
            return model.flat.tobytes(), best.flat.tobytes(), dataclasses.asdict(log)

        got = run()
        monkeypatch.setattr(translator, "_untaped", fresh_untaped)
        assert run() == got

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_inference_bit_identical_to_fresh_arrays(self, monkeypatch, kind):
        src, tgt = random_pairs(30, 12, 10, seed=4)
        model = translator.build(12, 10, 14, kind, seed=5)
        paths = [translator.translate] + ([translator.reconstruct] if kind == "hae" else [])
        inputs = [src, tgt]
        paired = fio.align_pairs(src, tgt)
        got = [path(model, fs).vectors for path, fs in zip(paths, inputs)]
        entry = affinity.dam_entry(model, paired) if kind == "hae" else None
        monkeypatch.setattr(translator, "_untaped", fresh_untaped)
        want = [path(model, fs).vectors for path, fs in zip(paths, inputs)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        if kind == "hae":  # the baseline has no reconstruct path, so no M entry
            assert affinity.dam_entry(model, paired) == entry
        assert all(v.flags.owndata for v in got)  # translate's rows are not a scratch view

    def test_no_layer_writes_over_its_input(self, monkeypatch):
        src, tgt = random_pairs(9, 6, 5, seed=6)
        model = translator.build(6, 5, 9, "hae", seed=2)
        calls = []

        def spy(stack, batch, out=None):
            for k, (o, x) in enumerate(zip(out, [batch, *out[:-1]])):
                assert not np.shares_memory(o, x), k
            calls.append(out)
            return nn.forward(stack, batch, out)

        monkeypatch.setattr(translator, "forward", spy)
        translator._batch_losses(model, src.vectors, tgt.vectors, scratch_for(model, 9))
        assert len(calls) == 4  # each path's encoder, then the decoder
        calls.clear()
        translator.translate(model, src)
        assert len(calls) == 2

    def test_translate_peak_memory_is_the_scratch_and_the_output(self):
        rows, dim = 800, 256
        src, _ = random_pairs(rows, dim, 1, seed=7)
        model = translator.build(dim, dim, dim, "hae", seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = translator.translate(model, src)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two scratch arrays of rows x the widest layer, and the result
        assert peak - base <= (2 * rows * dim + rows * dim) * 8 * 1.1
        assert held - base <= rows * dim * 8 * 1.1  # the result alone outlives the call
        assert out.vectors.shape == (rows, dim)


class TestTranslate:
    def test_shape_and_name_contract(self, rotation_fixture):
        src = rotation_fixture.data.feature_sets["a"]
        out = translator.translate(rotation_fixture.model, src)
        assert out.dim == 32
        assert out.ids == src.ids
        assert out.name == "a2b"
        assert np.max(np.abs(np.linalg.norm(out.vectors, axis=1) - 1.0)) < 1e-9

    def test_single_vector(self, rotation_fixture):
        src = rotation_fixture.data.feature_sets["a"]
        one = fio.FeatureSet("a", (src.ids[0],), src.vectors[:1], src.normalized)
        out = translator.translate(rotation_fixture.model, one)
        assert out.vectors.shape == (1, 32)

    def test_deterministic_bitwise(self, rotation_fixture):
        src = rotation_fixture.data.feature_sets["a"]
        a = translator.translate(rotation_fixture.model, src)
        b = translator.translate(rotation_fixture.model, src)
        assert np.array_equal(a.vectors, b.vectors)

    def test_wrong_dim_rejected(self):
        model = translator.build(4, 5, 3, "hae")
        with pytest.raises(DataError, match="source dim"):
            translator.translate(model, fio.FeatureSet("t", ("a",), np.ones((1, 5))))

    def test_generalizes_to_holdout(self, rotation_fixture):
        pair = rotation_fixture.holdout_pair
        out = translator.translate(rotation_fixture.model, pair.source)
        err = np.linalg.norm(out.vectors - pair.target.vectors, axis=1).mean()
        log = rotation_fixture.log
        assert err < 2 * log.val_translation[log.best_epoch]


class TestReconstruct:
    def test_untrained_output_is_unit_norm_and_finite(self):
        model = translator.build(8, 8, 6, "hae", seed=0)
        rng = np.random.default_rng(0)
        fs = fio.l2_normalize(fio.FeatureSet("t", ("a", "b"), rng.normal(size=(2, 8))))
        out = translator.reconstruct(model, fs)
        assert np.all(np.isfinite(out.vectors))
        assert np.max(np.abs(np.linalg.norm(out.vectors, axis=1) - 1.0)) < 1e-9

    def test_trained_self_translation_reconstructs(self, self_fixture):
        tgt = self_fixture.pair.target
        out = translator.reconstruct(self_fixture.model, tgt)
        err = np.linalg.norm(out.vectors - tgt.vectors, axis=1).mean()
        assert err < 0.1

    def test_wrong_dim_rejected(self):
        model = translator.build(4, 5, 3, "hae")
        with pytest.raises(DataError, match="target dim"):
            translator.reconstruct(model, fio.FeatureSet("s", ("a",), np.ones((1, 4))))

    def test_baseline_unsupported(self):
        model = translator.build(8, 8, kind="mlp_baseline")
        fs = fio.l2_normalize(fio.FeatureSet("t", ("a",), np.ones((1, 8))))
        with pytest.raises(DataError, match=r"^reconstruct is undefined for the mlp_baseline model "
                                            r"\(no target encoder\)$"):
            translator.reconstruct(model, fs)


@pytest.mark.parametrize("run, dim", [(translator.translate, 4), (translator.reconstruct, 5)])
def test_all_zero_output_row_is_numeric_error(run, dim):
    # a zeroed last decoder layer makes every output row exactly zero
    model = translator.build(4, 5, 3, "hae", seed=0)
    last = model.stacks[-1].layers[-1]
    last.weights[:] = 0.0
    last.bias[:] = 0.0
    fs = fio.FeatureSet("x", ("a", "b"), np.ones((2, dim)))
    with pytest.raises(NumericError, match="all-zero output row for id 'a'"):
        run(model, fs)


_INPUT_RUNS = {  # each entry point that takes sets for a model: (model, source, target) -> ...
    "train": lambda m, s, t: translator.train(m, fio.PairedSet(s, t),
                                              translator.TrainConfig(max_epochs=1)),
    "translate": lambda m, s, t: translator.translate(m, s),
    "reconstruct": lambda m, s, t: translator.reconstruct(m, t),
    "dam_entry": lambda m, s, t: affinity.dam_entry(m, fio.PairedSet(s, t)),
}
# the wrong sets fed to a 4 -> 3 model: (source dim, target dim), then the side named and its dim
_MISMATCHES = {"source": ((5, 3), "source", 4), "target": ((4, 5), "target", 3),
               "both": ((5, 5), "target", 3)}  # the target is checked first


@pytest.mark.parametrize("run, case", [
    (run, case) for run in _INPUT_RUNS for case in _MISMATCHES
    # translate reads only the source set, reconstruct only the target set
    if case == {"translate": "source", "reconstruct": "target"}.get(run, case)
])
def test_input_dim_fault_names_its_side(run, case):
    dims, side, dim = _MISMATCHES[case]
    model = translator.build(4, 3, 2, "hae", seed=0)
    source, target = (fio.l2_normalize(fio.FeatureSet(name, ("a", "b"), np.ones((2, d))))
                      for name, d in zip("st", dims))
    with pytest.raises(DataError, match=rf"^input dim 5 does not match model {side} dim {dim}$"):
        _INPUT_RUNS[run](model, source, target)


class TestSerialization:
    def test_save_load_save_identical_bytes(self, tmp_path, rotation_fixture):
        p1, p2 = tmp_path / "m1.haet", tmp_path / "m2.haet"
        translator.save_model(rotation_fixture.model, p1)
        back = translator.load_model(p1)
        translator.save_model(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert back.source_name == "a" and back.target_name == "b"

    def test_behavioral_round_trip(self, tmp_path, rotation_fixture):
        src = rotation_fixture.data.feature_sets["a"]
        before = translator.translate(rotation_fixture.model, src)
        translator.save_model(rotation_fixture.model, tmp_path / "m.haet")
        after = translator.translate(translator.load_model(tmp_path / "m.haet"), src)
        assert np.array_equal(before.vectors, after.vectors)

    def test_mlp_round_trip(self, tmp_path):
        model = translator.build(8, 6, kind="mlp_baseline", seed=2)
        translator.save_model(model, tmp_path / "m.haet")
        back = translator.load_model(tmp_path / "m.haet")
        assert back.kind == "mlp_baseline"
        params = [[p for s in m.stacks for p in s.parameters()] for m in (model, back)]
        for pa, pb in zip(*params):
            assert np.array_equal(pa, pb)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.haet").write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match=_load_error(tmp_path / "m.haet",
                                                        r"not a model file \(magic b'NOPE'\)")):
            translator.load_model(tmp_path / "m.haet")

    def test_truncated_file(self, tmp_path, rotation_fixture):
        translator.save_model(rotation_fixture.model, tmp_path / "m.haet")
        raw = (tmp_path / "m.haet").read_bytes()
        cut = tmp_path / "cut.haet"
        cut.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataError, match=_load_error(cut, "truncated model file")):
            translator.load_model(cut)


class TestFlatBuffer:
    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_parameters_are_contiguous_views_of_flat(self, kind):
        model = translator.build(6, 5, 4, kind, seed=0)
        params = [p for s in model.stacks for p in s.parameters()]
        assert sum(p.size for p in params) == model.flat.size
        for p in params:
            assert np.shares_memory(p, model.flat)
            assert p.flags.c_contiguous

    def test_copy_is_independent_and_keeps_decoder_shared(self):
        model = translator.build(6, 5, 4, "hae", seed=0)
        x = fio.FeatureSet("s", ("a", "b"), np.random.default_rng(0).normal(size=(2, 6)))
        before = translator.translate(model, x).vectors
        dup = model.copy()
        assert dup.translate_path[-1] is dup.reconstruct_path[-1]
        assert not np.shares_memory(dup.flat, model.flat)
        dup.flat += 0.5
        assert np.array_equal(translator.translate(model, x).vectors, before)
        assert not np.array_equal(translator.translate(dup, x).vectors, before)

    def test_train_updates_the_flat_buffer_in_place(self, rotation_fixture):
        model = translator.build(32, 32, 24, "hae", seed=0)
        flat, start = model.flat, model.flat.copy()
        cfg = translator.TrainConfig(lr=1e-3, max_epochs=1, seed=0)
        translator.train(model, rotation_fixture.train_pair, cfg)
        assert model.flat is flat
        assert not np.array_equal(flat, start)

    # sha256 prefixes of the parameter bytes of untrained builds, the same
    # parameters that the version-1 files pinned since the per-array store held
    @pytest.mark.parametrize(
        "args, digest",
        [
            ((32, 32, 24, "hae", 1), "102a52a5c3353bf7"),
            ((32, 32, 24, "mlp_baseline", 2), "1fa9a667cfd67fe1"),
            ((48, 32, 16, "hae", 3), "62a282e309b328fe"),
        ],
    )
    def test_untrained_file_bytes_unchanged(self, tmp_path, args, digest):
        *dims, kind, seed = args
        model = translator.build(*dims, kind, seed=seed)
        translator.save_model(model, tmp_path / "m.haet")
        raw = (tmp_path / "m.haet").read_bytes()
        names = b"".join(struct.pack("<I", len(n)) + n for n in (b"source", b"target"))
        header = (b"HAET" + struct.pack("<HB", 2, kind != "hae") + names
                  + struct.pack("<3I", dims[0], dims[1], dims[2] if kind == "hae" else 0))
        assert raw[: -8 * model.flat.size] == header
        assert hashlib.sha256(raw[-8 * model.flat.size :]).hexdigest()[:16] == digest


def _fields(model: translator.TranslatorModel) -> dict:
    """Every field of `model` but `flat` and the stacks that view it."""
    return {f.name: getattr(model, f.name) for f in dataclasses.fields(model)
            if f.name not in ("flat", "stacks")}


class TestRecord:
    """A model records what build() takes and .haet stores."""

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_load_of_save_keeps_every_field(self, tmp_path, kind):
        model = translator.build(6, 5, 4, kind, seed=1, source_name="src", target_name="tgt")
        translator.save_model(model, tmp_path / "m.haet")
        back = translator.load_model(tmp_path / "m.haet")
        assert _fields(back) == _fields(model) == {
            "source_name": "src", "target_name": "tgt", "kind": kind,
            "source_dim": 6, "target_dim": 5, "latent_dim": 4 if kind == "hae" else 0,
        }
        assert back.flat.tobytes() == model.flat.tobytes()

    def test_baseline_records_and_writes_latent_0(self, tmp_path):
        model = translator.build(6, 5, latent_dim=510, kind="mlp_baseline", seed=1)
        assert model.latent_dim == 0
        translator.save_model(model, tmp_path / "m.haet")
        raw = (tmp_path / "m.haet").read_bytes()
        assert struct.unpack_from("<3I", raw, len(raw) - 8 * model.flat.size - 12) == (6, 5, 0)

    @pytest.mark.parametrize(
        "kind, dims",
        [("hae", (0, 4, 2)), ("hae", (3, 0, 2)), ("hae", (3, 4, 0)), ("hae", (3, 4, -1)),
         ("mlp_baseline", (0, 4, 0)), ("mlp_baseline", (3, 4, 2))],
        ids=["hae-source-0", "hae-target-0", "hae-latent-0", "hae-latent-negative",
             "mlp-source-0", "mlp-latent-2"],
    )
    def test_record_of_dims_build_refuses_rejected(self, kind, dims):
        message = (rf"^build\(\) makes no {kind} model of dims {dims[0]} -> {dims[1]} "
                   rf"and latent dim {dims[2]}$")
        with pytest.raises(DataError, match=message):
            translator.TranslatorModel("s", "t", kind, *dims, np.zeros(0))

    @pytest.mark.parametrize("args", [(0, 4, 2, "hae"), (3, 0, 2, "mlp_baseline")])
    def test_build_refuses_dim_below_1(self, args):
        latent = args[2] if args[3] == "hae" else 0  # the baseline records latent 0
        message = (rf"^build\(\) makes no {args[3]} model of dims {args[0]} -> {args[1]} "
                   rf"and latent dim {latent}$")
        with pytest.raises(DataError, match=message):
            translator.build(*args)

    def test_check_latent_refuses_what_a_model_file_cannot_store(self):
        assert translator.check_latent("hae", 2**32 - 1) == 2**32 - 1
        with pytest.raises(InvalidConfig, match=r"^latent dim must be < 2\*\*32"):
            translator.check_latent("hae", 2**32)
        assert translator.check_latent("mlp_baseline", 2**32) == 0  # the baseline has none

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_on_keeps_the_fields_and_views_the_buffer(self, kind):
        model = translator.build(6, 5, 4, kind, seed=1, source_name="src", target_name="tgt")
        buf = np.zeros_like(model.flat)
        other = model.on(buf)
        assert _fields(other) == _fields(model)
        assert other.flat is buf
        params = [p for s in other.stacks for p in s.parameters()]
        assert sum(p.size for p in params) == buf.size
        assert all(np.shares_memory(p, buf) and not np.shares_memory(p, model.flat)
                   for p in params)


class TestSplitBuild:
    """At sizes where he_init fills layers in shares, the build and its file
    do not depend on the number of workers."""

    @pytest.mark.parametrize(
        "args, workers",
        [
            ((512, 512, 256, "hae"), 2),  # 512-d layers split in two at 2 workers
            ((1024, 1024, 0, "mlp_baseline"), 3),  # 1024-d layers split in three at 3 workers
        ],
    )
    def test_flat_bytes_independent_of_workers(self, monkeypatch, args, workers):
        pools = []
        pool = nn.ThreadPoolExecutor
        monkeypatch.setattr(nn, "ThreadPoolExecutor", lambda n: pools.append(n) or pool(n))
        flats = []
        for w in (1, 2, 3):
            monkeypatch.setattr(nn, "_WORKERS", w)
            flats.append(translator.build(*args, seed=4).flat.tobytes())
        assert flats[1] == flats[0] and flats[2] == flats[0]
        assert workers - 1 in pools  # one started thread per share past the caller's

    def test_saved_file_independent_of_workers(self, monkeypatch, tmp_path):
        for workers in (1, 2, 3):
            monkeypatch.setattr(nn, "_WORKERS", workers)
            translator.save_model(translator.build(512, 512, 256, "hae", seed=4),
                                  tmp_path / f"{workers}.haet")
        want = (tmp_path / "1.haet").read_bytes()
        assert (tmp_path / "2.haet").read_bytes() == want == (tmp_path / "3.haet").read_bytes()


def _load_error(path, pattern: str) -> str:
    """The whole message, as a regex, of load_model's `pattern` fault in the file at `path`."""
    return rf"^{re.escape(str(path))}: {pattern}$"


def _haet_header(version: int, kind_byte: int, dims: tuple[int, ...]) -> bytes:
    """A .haet header of `version` whose names are "s" and "t", ending in `dims`."""
    names = b"".join(struct.pack("<I", 1) + c for c in (b"s", b"t"))
    return (b"HAET" + struct.pack("<HB", version, kind_byte) + names
            + struct.pack(f"<{len(dims)}I", *dims))


class TestModelFileHeaders:
    def test_huge_layer_claim_rejected_without_allocating(self, tmp_path):
        # an hae claiming dims near 2^32, followed by 64 bytes
        huge = 2**32 - 1
        (tmp_path / "m.haet").write_bytes(_haet_header(2, 0, (huge, huge, huge)) + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=_load_error(tmp_path / "m.haet",
                                                            "truncated model file")):
                translator.load_model(tmp_path / "m.haet")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_trailing_byte_rejected(self, tmp_path):
        translator.save_model(translator.build(4, 4, 2, "hae", seed=0), tmp_path / "m.haet")
        with open(tmp_path / "m.haet", "ab") as f:
            f.write(b"\x00")
        with pytest.raises(DataError, match=_load_error(tmp_path / "m.haet",
                                                        "trailing bytes after model payload")):
            translator.load_model(tmp_path / "m.haet")

    def test_layout_other_than_build_rejected(self, tmp_path):
        # each payload of a 4 -> 4 model under the header of the other kind
        hae = translator.build(4, 4, 2, "hae", seed=0)
        mlp = translator.build(4, 4, 0, "mlp_baseline", seed=0)
        cases = [(_haet_header(2, 1, (4, 4, 0)), hae, "trailing bytes after model payload"),
                 (_haet_header(2, 0, (4, 4, 2)), mlp, "truncated model file")]
        for header, payload, message in cases:
            (tmp_path / "m.haet").write_bytes(header + payload.flat.astype("<f8").tobytes())
            with pytest.raises(DataError, match=_load_error(tmp_path / "m.haet", message)):
                translator.load_model(tmp_path / "m.haet")

    def test_version_1_rejected(self, tmp_path):
        (tmp_path / "m.haet").write_bytes(_haet_header(1, 0, (2,)))
        with pytest.raises(DataError, match=_load_error(tmp_path / "m.haet",
                                                        "unsupported model format version 1")):
            translator.load_model(tmp_path / "m.haet")

    @pytest.mark.parametrize(
        "kind, dims", [("hae", (3, 4, 0)), ("hae", (0, 4, 2)), ("mlp_baseline", (3, 0, 0))],
        ids=["hae-latent-0", "hae-source-0", "mlp-target-0"],
    )
    def test_zero_dim_rejected(self, tmp_path, kind, dims):
        # the header of a model build() refuses, then the payload of the nearest model it
        # makes (each refused dim raised to its least valid value): the dims are refused
        least = (max(dims[0], 1), max(dims[1], 1), max(dims[2], int(kind == "hae")))
        payload = np.full(translator._size(translator._layout(kind, *least)), 0.1)
        (tmp_path / "m.haet").write_bytes(_haet_header(2, kind != "hae", dims)
                                          + payload.astype("<f8").tobytes())
        message = (rf"build\(\) makes no {kind} model of dims {dims[0]} -> {dims[1]} "
                   rf"and latent dim {dims[2]}")
        with pytest.raises(DataError, match=_load_error(tmp_path / "m.haet", message)):
            translator.load_model(tmp_path / "m.haet")

    @pytest.mark.parametrize(
        "stack, layer, attr, index, value, number",
        [(-1, -1, "bias", 1, np.nan, 3), (0, 0, "weights", (0, 2), np.inf, 1)],
        ids=["nan-decoder-bias", "inf-weight"],
    )
    def test_non_finite_parameter_rejected(self, tmp_path, stack, layer, attr, index, value, number):
        model = translator.build(4, 4, 2, "hae", seed=0)
        getattr(model.translate_path[stack].layers[layer], attr)[index] = value
        translator.save_model(model, tmp_path / "m.haet")
        message = f"non-finite parameter in model stack {number}"
        with pytest.raises(DataError, match=_load_error(tmp_path / "m.haet", message)):
            translator.load_model(tmp_path / "m.haet")


def _structure(model: translator.TranslatorModel):
    return model.kind, model.latent_dim, [(s.dims, s.final_l2_normalize) for s in model.stacks]


class TestModelFileFuzz:
    """Damaged .haet files of a small HAE and a small baseline raise a
    DataError, or load as the saved structure; nothing else is raised."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("haet")
        models = {}
        for kind in ("hae", "mlp_baseline"):
            model = translator.build(3, 4, 2, kind, seed=4, source_name="src", target_name="tgt")
            translator.save_model(model, root / f"{kind}.haet")
            models[kind] = (model, (root / f"{kind}.haet").read_bytes())
        return root, models

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_every_truncation_raises_bad_model_file(self, saved, kind):
        root, models = saved
        _, raw = models[kind]
        for n in range(len(raw)):
            (root / "cut.haet").write_bytes(raw[:n])
            message = f"not a model file (magic {raw[:n]!r})" if n < 4 else "truncated model file"
            with pytest.raises(DataError, match=_load_error(root / "cut.haet", re.escape(message))):
                translator.load_model(root / "cut.haet")

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_every_other_kind_byte_rejected(self, saved, kind):
        root, models = saved
        model, raw = models[kind]
        assert raw[6] == (kind != "hae")
        other = "hae" if kind != "hae" else "mlp_baseline"
        for value in set(range(256)) - {raw[6]}:
            changed = bytearray(raw)
            changed[6] = value
            (root / "kind.haet").write_bytes(bytes(changed))
            message = (rf"build\(\) makes no {other} model of dims 3 -> 4 and latent dim "
                       rf"{model.latent_dim}" if value in (0, 1)
                       else f"unknown model kind byte {value}")
            with pytest.raises(DataError, match=_load_error(root / "kind.haet", message)):
                translator.load_model(root / "kind.haet")

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_every_other_header_dim_rejected(self, saved, kind):
        # source, target and latent dim: the three words before the parameters
        root, models = saved
        model, raw = models[kind]
        end = len(raw) - 8 * model.flat.size
        assert struct.unpack_from("<3I", raw, end - 12) == (3, 4, model.latent_dim)
        faults = (r"(build\(\) makes no .* model of dims \d+ -> \d+ and latent dim \d+"
                  r"|truncated model file|trailing bytes after model payload)")
        for pos in range(end - 12, end, 4):
            (saved_value,) = struct.unpack_from("<I", raw, pos)
            for value in [*range(65), 2**32 - 1]:
                if value == saved_value:
                    continue
                changed = bytearray(raw)
                struct.pack_into("<I", changed, pos, value)
                (root / "dim.haet").write_bytes(bytes(changed))
                with pytest.raises(DataError, match=_load_error(root / "dim.haet", faults)):
                    translator.load_model(root / "dim.haet")

    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(["hae", "mlp_baseline"]), data=st.data())
    def test_bit_flip_raises_data_error_or_keeps_structure(self, saved, kind, data):
        root, models = saved
        model, raw = models[kind]
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        (root / "flip.haet").write_bytes(bytes(flipped))
        try:
            back = translator.load_model(root / "flip.haet")
        except DataError:
            return
        assert _structure(back) == _structure(model)
        translator.save_model(back, root / "resaved.haet")
        assert (root / "resaved.haet").read_bytes() == bytes(flipped)
