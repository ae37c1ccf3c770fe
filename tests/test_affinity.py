import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from feattrans import affinity as aff
from feattrans import feature_io as fio, nn_core, translator
from feattrans.errors import DataError, NumericError
from conftest import load_grid
from oracles import linear_cka

# integer-valued entries keep min-max spans well away from float noise
matrix_strategy = arrays(
    np.float64,
    st.integers(2, 6).map(lambda n: (n, n)),
    elements=st.integers(-100, 100).map(float),
)


def directed(values):
    values = np.asarray(values, dtype=float)
    names = tuple(f"f{k}" for k in range(values.shape[0]))
    return aff.AffinityMatrix(names=names, values=values, kind=aff.DIRECTED_M)


class TestDamEntry:
    def test_self_translation_near_zero(self, self_fixture):
        entry = aff.dam_entry(self_fixture.model, self_fixture.pair)
        assert abs(entry) < 0.02

    def test_converged_pairs_satisfy_error_ordering(self, grid_fixture):
        # translation error stays at or above reconstruction error after
        # convergence, up to estimation noise
        assert grid_fixture.dam.values.min() >= -0.02

    def test_matches_manual_forward_computation(self):
        model = translator.build(3, 3, 2, "hae", seed=2, source_name="s", target_name="t")
        rng = np.random.default_rng(0)
        src = fio.l2_normalize(fio.FeatureSet("s", ("a", "b"), rng.normal(size=(2, 3))))
        tgt = fio.l2_normalize(fio.FeatureSet("t", ("a", "b"), rng.normal(size=(2, 3))))
        paired = fio.PairedSet(source=src, target=tgt)

        enc_s, dec = model.translate_path
        enc_t, _ = model.reconstruct_path
        assert model.translate_path[-1] is model.reconstruct_path[-1]
        v_st, _ = nn_core.forward(dec, nn_core.forward(enc_s, src.vectors)[0])
        v_tt, _ = nn_core.forward(dec, nn_core.forward(enc_t, tgt.vectors)[0])
        manual = (
            np.linalg.norm(v_st - tgt.vectors, axis=1).mean()
            - np.linalg.norm(v_tt - tgt.vectors, axis=1).mean()
        )
        assert abs(aff.dam_entry(model, paired) - manual) < 1e-9

    @pytest.mark.parametrize("rows", [1, 2, 9])
    def test_equals_translate_minus_reconstruct_bit_for_bit(self, rows):
        # at 1 row, one decoder call over both paths' stacked rows would round differently
        model = translator.build(12, 10, 14, "hae", seed=2)
        ids = tuple(f"v{i}" for i in range(rows))
        rng = np.random.default_rng(0)
        src = fio.FeatureSet("s", ids, rng.normal(size=(rows, 12)))
        tgt = fio.l2_normalize(fio.FeatureSet("t", ids, rng.normal(size=(rows, 10))))
        trans = nn_core.euclid_loss(translator.translate(model, src).vectors, tgt.vectors)[0]
        recon = nn_core.euclid_loss(translator.reconstruct(model, tgt).vectors, tgt.vectors)[0]
        assert aff.dam_entry(model, fio.PairedSet(source=src, target=tgt)) == trans - recon

    @pytest.mark.parametrize("source_dim, target_dim", [(4, 3), (3, 4), (3, 1)])
    def test_wrong_dim_rejected(self, source_dim, target_dim):
        model = translator.build(3, 3, 2, "hae", seed=2)
        paired = fio.PairedSet(
            source=fio.FeatureSet("s", ("a", "b"), np.ones((2, source_dim))),
            target=fio.FeatureSet("t", ("a", "b"), np.ones((2, target_dim))),
        )
        with pytest.raises(DataError, match="dim"):
            aff.dam_entry(model, paired)

    def test_target_dim_checked_first(self):
        model = translator.build(3, 3, 2, "hae", seed=2)
        paired = fio.PairedSet(
            source=fio.FeatureSet("s", ("a", "b"), np.ones((2, 4))),
            target=fio.FeatureSet("t", ("a", "b"), np.ones((2, 4))),
        )
        with pytest.raises(DataError, match="model target dim"):
            aff.dam_entry(model, paired)

    def test_all_zero_output_row_is_numeric_error(self):
        # identity-like layers: a path's output row is zero exactly where its
        # input's first coordinate is <= 0; the translation's zero row is 'a'
        # and the reconstruction's, which is reported first, is 'b'
        model = translator.build(2, 2, 1, "hae", seed=0)
        for layer in (l for stack in model.stacks for l in stack.layers):
            layer.weights[:] = np.eye(*layer.weights.shape)
            layer.bias[:] = 0.0
        paired = fio.PairedSet(
            source=fio.FeatureSet("s", ("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]])),
            target=fio.FeatureSet("t", ("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]])),
        )
        with pytest.raises(NumericError, match="all-zero output row for id 'b'"):
            aff.dam_entry(model, paired)

    def test_baseline_unsupported(self, self_fixture):
        model = translator.build(32, 32, kind="mlp_baseline")
        with pytest.raises(DataError, match=r"^reconstruct is undefined for the mlp_baseline model "
                                            r"\(no target encoder\)$"):
            aff.dam_entry(model, self_fixture.pair)

    def test_asymmetric_beyond_noise(self, grid_fixture):
        m = grid_fixture.dam.values
        assert np.abs(m - m.T).max() > 1e-3


class TestBuildDam:
    def test_grid_assembly(self, grid_fixture, grid_dir):
        models, pairs = load_grid(grid_dir)
        m = aff.build_dam(models, pairs, grid_fixture.names)
        assert m.values.shape == (4, 4)
        assert m.kind == aff.DIRECTED_M
        assert np.array_equal(m.values, grid_fixture.dam.values)
        # rows are the source axis
        s, t = "fa", "fc"
        assert m.entry(s, t) == aff.dam_entry(models[(s, t)], pairs[(s, t)])

    def test_missing_pair(self, grid_fixture, grid_dir):
        models, pairs = load_grid(grid_dir)
        del models[("fb", "fa")]
        with pytest.raises(DataError, match=r"^no trained model for pair \('fb', 'fa'\)$"):
            aff.build_dam(models, pairs, grid_fixture.names)


class TestNormalization:
    def test_row_hand_example(self):
        m = directed([[2.0, 5.0, 8.0], [0.0, 1.0, 2.0], [1.0, 0.0, 3.0]])
        r = aff.normalize_rows(m)
        np.testing.assert_allclose(r.values[0], [0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "normalize, values, axis, k",
        [
            pytest.param(aff.normalize_rows, [[3.0, 3.0], [0.0, 1.0]], 0, 0, id="row"),
            pytest.param(
                aff.normalize_cols,
                [[0.0, 1.0, -2.5], [1.0, 4.0, -2.5], [2.0, 0.5, -2.5]], 1, 2, id="col",
            ),
        ],
    )
    def test_constant_row_degenerate(self, normalize, values, axis, k):
        out = normalize(directed(values))
        line = np.take(out.values, k, axis=axis)
        np.testing.assert_array_equal(line, np.zeros(len(values)))
        assert not np.signbit(line).any()  # +0.0, as written to the CSV

    def test_col_hand_example(self):
        m = directed([[2.0, 0.0], [5.0, 1.0]])
        c = aff.normalize_cols(m)
        np.testing.assert_allclose(c.values[:, 0], [0.0, 1.0])

    @given(matrix_strategy)
    @settings(max_examples=60, deadline=None)
    def test_col_norm_is_transposed_row_norm(self, values):
        m = directed(values)
        mt = directed(values.T)
        c = aff.normalize_cols(m)
        r = aff.normalize_rows(mt)
        np.testing.assert_array_equal(c.values, r.values.T)

    @given(matrix_strategy, st.floats(-5, 5), st.floats(0.1, 4))
    @settings(max_examples=60, deadline=None)
    def test_row_affine_invariance(self, values, shift, scale):
        m = directed(values)
        # positive affine transform of one whole row leaves R unchanged
        shifted = values.copy()
        shifted[0] = scale * shifted[0] + shift
        r1 = aff.normalize_rows(m)
        r2 = aff.normalize_rows(directed(shifted))
        np.testing.assert_allclose(r1.values, r2.values, atol=1e-9)


class TestUndirectedMatrix:
    def test_rejects_asymmetry_accepts_exact_symmetry(self):
        values = np.array([[0.0, 0.5], [0.5 + 1e-9, 0.0]])
        with pytest.raises(DataError, match="symmetric"):
            aff.AffinityMatrix(names=("a", "b"), values=values, kind=aff.UNDIRECTED_U)
        values[1, 0] = 0.5
        u = aff.AffinityMatrix(names=("a", "b"), values=values, kind=aff.UNDIRECTED_U)
        assert u.entry("b", "a") == 0.5


class TestUam:
    def test_symmetric_2x2(self):
        names = ("a", "b")
        r = aff.AffinityMatrix(names, np.array([[0.0, 1.0], [1.0, 0.0]]), aff.ROW_NORM_R)
        c = aff.AffinityMatrix(names, np.array([[0.0, 1.0], [1.0, 0.0]]), aff.COL_NORM_C)
        u = aff.uam(r, c)
        np.testing.assert_array_equal(u.values, [[0.0, 1.0], [1.0, 0.0]])

    def test_hand_checked_offdiagonal(self):
        names = ("a", "b")
        r = aff.AffinityMatrix(names, np.array([[0.0, 1.0], [0.2, 0.0]]), aff.ROW_NORM_R)
        c = aff.AffinityMatrix(names, np.array([[0.0, 0.6], [1.0, 0.0]]), aff.COL_NORM_C)
        u = aff.uam(r, c)
        assert abs(u.values[0, 1] - 0.7) < 1e-12
        assert abs(u.values[1, 0] - 0.7) < 1e-12

    @given(matrix_strategy)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded_for_any_directed_input(self, values):
        m = directed(values)
        u = aff.uam(aff.normalize_rows(m), aff.normalize_cols(m))
        assert np.abs(u.values - u.values.T).max() <= 1e-12
        assert u.values.min() >= 0.0 and u.values.max() <= 1.0

    def test_shape_mismatch(self):
        r = aff.AffinityMatrix(("a", "b"), np.zeros((2, 2)), aff.ROW_NORM_R)
        c = aff.AffinityMatrix(("a", "c"), np.zeros((2, 2)), aff.COL_NORM_C)
        with pytest.raises(DataError):
            aff.uam(r, c)


class TestCsv:
    def test_round_trip(self, tmp_path, grid_fixture):
        path = tmp_path / "M.csv"
        aff.write_matrix_csv(grid_fixture.dam, path)
        back = aff.read_matrix_csv(path, kind=aff.DIRECTED_M)
        assert back.names == grid_fixture.dam.names
        assert np.array_equal(back.values, grid_fixture.dam.values)

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(DataError, match="duplicate"):
            aff.AffinityMatrix(names=("fx", "fx"), values=np.zeros((2, 2)), kind=aff.DIRECTED_M)
        path = tmp_path / "U.csv"
        path.write_text(",fx,fy,fx\nfx,0,1,0\nfy,1,0,1\nfx,0,1,0\n")
        with pytest.raises(DataError, match="duplicate"):
            aff.read_matrix_csv(path, kind=aff.UNDIRECTED_U)


class TestMatrixFileFuzz:
    """Truncated or bit-flipped U.csv files raise a DataError or load."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "U.csv"
        m = aff.AffinityMatrix(
            names=("fé", "fb", "fß"),
            values=[[0.0, 0.3, -1.25], [0.7, 0.0, 2.0], [0.1, 0.4, 0.0]],
            kind=aff.DIRECTED_M,
        )
        aff.write_matrix_csv(aff.uam(aff.normalize_rows(m), aff.normalize_cols(m)), path)
        return path, path.read_bytes()

    @staticmethod
    def _load(path, raw):
        path.write_bytes(raw)
        try:
            return aff.read_matrix_csv(path, kind=aff.UNDIRECTED_U)
        except DataError as exc:
            return exc

    def test_every_truncation(self, saved):
        path, raw = saved
        cut = path.with_name("cut.csv")
        for n in range(len(raw)):
            assert isinstance(self._load(cut, raw[:n]), (DataError, aff.AffinityMatrix))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_bit_flip(self, saved, data):
        path, raw = saved
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        loaded = self._load(path.with_name("flip.csv"), bytes(flipped))
        assert isinstance(loaded, (DataError, aff.AffinityMatrix))


class TestHomology:
    def test_same_family_has_lower_affinity_value(self, grid_fixture):
        u = grid_fixture.uam
        homologous = u.entry("fa", "fb")
        heterogenous = [
            u.entry(s, t) for s in ("fa", "fb") for t in ("fc", "fd")
        ]
        assert homologous < min(heterogenous)


class TestLinearCkaOracle:
    """The contract of oracles.linear_cka, a closed-form yardstick for U."""

    def test_orthogonal_map_of_the_same_rows_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        assert linear_cka(x, x @ q) == pytest.approx(1.0, abs=1e-12)

    def test_unchanged_under_isotropic_scaling(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(40, 5)), rng.normal(size=(40, 3))
        assert linear_cka(3.5 * x, y) == pytest.approx(linear_cka(x, y), rel=1e-12)
        assert linear_cka(x, 0.01 * y) == pytest.approx(linear_cka(x, y), rel=1e-12)

    def test_hand_computed_three_by_two(self):
        # centered, x is [[1, 0], [0, 1], [-1, -1]] and y is [[1, 0], [-1, 0], [0, 0]]:
        # ||y'x||^2 = 1 + 1 = 2, ||x'x|| = ||[[2, 1], [1, 2]]|| = sqrt(10) and
        # ||y'y|| = ||[[2, 0], [0, 0]]|| = 2, so CKA = 2 / (2 sqrt(10))
        x = [[6.0, -2.0], [5.0, -1.0], [4.0, -3.0]]
        y = [[4.0, 7.0], [2.0, 7.0], [3.0, 7.0]]
        assert linear_cka(x, y) == pytest.approx(1 / np.sqrt(10), rel=1e-12)
