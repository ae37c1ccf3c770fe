import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feattrans import feature_io as fio, nn_core as nn, translator
from feattrans.errors import (
    BadMagic,
    BadModelFile,
    DataError,
    InvalidConfig,
    NumericError,
    UnsupportedForBaseline,
)
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
        for pa, pb in zip(a.parameters(), b.parameters()):
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

    def test_returns_best_epoch_parameters(self, rotation_fixture):
        pair = rotation_fixture.train_pair
        cfg = translator.TrainConfig(lr=1e-2, batch_size=64, max_epochs=6, patience=6, seed=0)
        model = translator.build(32, 32, 24, "hae", seed=0)
        best, log = translator.train(model, pair, cfg)
        assert log.best_epoch < log.epochs_run - 1  # a later epoch did worse
        assert not np.shares_memory(best.flat, model.flat)
        # the same run stopped after the best epoch ends on the same parameters
        short = dataclasses.replace(cfg, max_epochs=log.best_epoch + 1)
        again, _ = translator.train(translator.build(32, 32, 24, "hae", seed=0), pair, short)
        assert np.array_equal(best.flat, again.flat)

    @pytest.mark.parametrize(
        "setting",
        [
            {"lr": 0.0},
            {"batch_size": 0},
            {"max_epochs": 0},
            {"patience": 0},
            {"lr": float("inf")},
            {"lr": float("nan")},
        ],
    )
    def test_out_of_range_setting_rejected(self, setting):
        with pytest.raises(InvalidConfig):
            translator.TrainConfig(**setting)

    def test_empty_pair_rejected(self):
        model = translator.build(4, 4, 3, "hae")
        fs = fio.l2_normalize(fio.FeatureSet("x", ("a",), np.ones((1, 4))))
        paired = fio.align_pairs(fs, fs)
        cfg = translator.TrainConfig(lr=1e-3, max_epochs=1)
        # single-vector pair trains degenerately but a dim mismatch must raise
        bad = fio.l2_normalize(fio.FeatureSet("y", ("a",), np.ones((1, 5))))
        with pytest.raises(DataError):
            translator.train(model, fio.align_pairs(fs, bad), cfg)

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
        analytic = grads.parameters()
        assert abs(total - self._objective(model, vs, vt)) < 1e-12
        numeric = finite_diff_grads(
            lambda: self._objective(model, vs, vt), model.parameters()
        )
        assert len(analytic) == len(numeric) == (18 if kind == "hae" else 4)
        for a, n in zip(analytic, numeric):
            assert a.shape == n.shape
            assert np.max(np.abs(a - n) / np.maximum(np.abs(n), 1e-6)) < 1e-4


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
        with pytest.raises(UnsupportedForBaseline):
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
        for pa, pb in zip(model.parameters(), back.parameters()):
            assert np.array_equal(pa, pb)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.haet").write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            translator.load_model(tmp_path / "m.haet")

    def test_truncated_file(self, tmp_path, rotation_fixture):
        translator.save_model(rotation_fixture.model, tmp_path / "m.haet")
        raw = (tmp_path / "m.haet").read_bytes()
        (tmp_path / "cut.haet").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(BadModelFile):
            translator.load_model(tmp_path / "cut.haet")


class TestFlatBuffer:
    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_parameters_are_contiguous_views_of_flat(self, kind):
        model = translator.build(6, 5, 4, kind, seed=0)
        params = model.parameters()
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

    # sha256 prefixes of save_model's file for untrained builds, recorded from
    # the per-array store that preceded the flat buffer
    @pytest.mark.parametrize(
        "args, digest",
        [
            ((32, 32, 24, "hae", 1), "fae91ab87c7aa995"),
            ((32, 32, 24, "mlp_baseline", 2), "12cea1943203d43f"),
            ((48, 32, 16, "hae", 3), "5082f8bce3675e65"),
        ],
    )
    def test_untrained_file_bytes_unchanged(self, tmp_path, args, digest):
        *dims, kind, seed = args
        translator.save_model(translator.build(*dims, kind, seed=seed), tmp_path / "m.haet")
        assert hashlib.sha256((tmp_path / "m.haet").read_bytes()).hexdigest()[:16] == digest


def _haet_header(kind_byte: int, latent: int) -> bytes:
    names = b"".join(struct.pack("<I", 1) + c for c in (b"s", b"t"))
    return b"HAET" + struct.pack("<HB", 1, kind_byte) + names + struct.pack("<I", latent)


class TestModelFileHeaders:
    def test_huge_layer_claim_rejected_without_allocating(self, tmp_path):
        # one mlp stack claiming a 2^31 x 2^31 layer, followed by 64 bytes
        wide = 2**31
        raw = _haet_header(1, 0) + struct.pack("<III", 1, wide, wide) + b"\x01\x00" + bytes(64)
        (tmp_path / "m.haet").write_bytes(raw)
        tracemalloc.start()
        try:
            with pytest.raises(BadModelFile, match="truncated"):
                translator.load_model(tmp_path / "m.haet")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_huge_layer_count_rejected(self, tmp_path):
        (tmp_path / "m.haet").write_bytes(_haet_header(1, 0) + struct.pack("<I", 2**32 - 1))
        with pytest.raises(BadModelFile, match="truncated"):
            translator.load_model(tmp_path / "m.haet")

    def test_layout_other_than_build_rejected(self, tmp_path):
        # a well-formed 4 -> 4 mlp stack with one layer, where build() makes three
        raw = _haet_header(1, 0) + struct.pack("<III", 1, 4, 4) + b"\x01\x00" + bytes(8 * 20)
        (tmp_path / "m.haet").write_bytes(raw)
        with pytest.raises(BadModelFile, match="mlp_baseline"):
            translator.load_model(tmp_path / "m.haet")

    @pytest.mark.parametrize(
        "stack, layer, attr, index, value",
        [(-1, -1, "bias", 1, np.nan), (0, 0, "weights", (0, 2), np.inf)],
        ids=["nan-decoder-bias", "inf-weight"],
    )
    def test_non_finite_parameter_rejected(self, tmp_path, stack, layer, attr, index, value):
        model = translator.build(4, 4, 2, "hae", seed=0)
        getattr(model.translate_path[stack].layers[layer], attr)[index] = value
        translator.save_model(model, tmp_path / "m.haet")
        with pytest.raises(BadModelFile, match="non-finite"):
            translator.load_model(tmp_path / "m.haet")


def _activation_offsets(raw: bytes) -> list[int]:
    """The offset of every activation byte in a .haet file, found by walking
    its stack headers."""
    pos = 7  # magic, version, kind
    for _ in range(2):  # source and target names
        (n,) = struct.unpack_from("<I", raw, pos)
        pos += 4 + n
    pos += 4  # latent dim
    offsets = []
    while pos < len(raw):
        (n_layers,) = struct.unpack_from("<I", raw, pos)
        dims = struct.unpack_from(f"<{n_layers + 1}I", raw, pos + 4)
        pos += 4 * (n_layers + 2) + 1  # layer count, dims, final-norm byte
        offsets += range(pos, pos + n_layers)
        pos += n_layers + 8 * nn.stack_size(dims)
    return offsets


def _structure(model: translator.TranslatorModel):
    return model.kind, model.latent_dim, model.layout()


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
            with pytest.raises(BadModelFile):
                translator.load_model(root / "cut.haet")

    @pytest.mark.parametrize("kind", ["hae", "mlp_baseline"])
    def test_every_other_activation_byte_rejected(self, saved, kind):
        root, models = saved
        model, raw = models[kind]
        offsets = _activation_offsets(raw)
        assert len(offsets) == sum(len(s.layers) for s in model.stacks)
        for i in offsets:
            assert raw[i] in (0, 1)
            swapped = bytearray(raw)
            swapped[i] ^= 1  # relu <-> linear
            (root / "act.haet").write_bytes(bytes(swapped))
            with pytest.raises(BadModelFile, match="activations"):
                translator.load_model(root / "act.haet")

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
