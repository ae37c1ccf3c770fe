import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from feattrans import feature_io as fio
from feattrans.errors import DataError
from oracles import feature_set_fault, vec_records


def write_vec_file(path, rows, dims=None):
    with open(path, "wb") as f:
        for k, row in enumerate(rows):
            d = dims[k] if dims else len(row)
            f.write(struct.pack("<I", d))
            f.write(np.asarray(row, dtype="<f4").tobytes())


def write_ids_file(path, ids):
    path.write_text("".join(i + "\n" for i in ids))


def make_fs(name="x", n=3, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return fio.FeatureSet(
        name=name,
        ids=tuple(f"img{i}" for i in range(n)),
        vectors=rng.normal(size=(n, dim)),
    )


class TestLoad:
    def test_smallest_well_formed_input(self, tmp_path):
        write_vec_file(tmp_path / "v.vec", [[1, 2, 3, 4], [5, 6, 7, 8]])
        write_ids_file(tmp_path / "v.ids", ["img1", "img2"])
        fs = fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")
        assert fs.dim == 4 and len(fs) == 2
        assert fs.ids == ("img1", "img2")
        np.testing.assert_array_equal(fs.vectors[0], [1, 2, 3, 4])

    def test_duplicate_id_rejected(self, tmp_path):
        write_vec_file(tmp_path / "v.vec", [[1, 2], [3, 4]])
        write_ids_file(tmp_path / "v.ids", ["img1", "img1"])
        ids = re.escape(str(tmp_path / "v.ids"))
        with pytest.raises(DataError, match=f"^{ids}: duplicate id 'img1'$"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    def test_inconsistent_dim_names_record(self, tmp_path):
        # second record header claims dim 5 after a dim-4 first record
        write_vec_file(tmp_path / "v.vec", [[1, 2, 3, 4], [1, 2, 3, 4, 5]], dims=[4, 5])
        write_ids_file(tmp_path / "v.ids", ["a", "b"])
        vec = re.escape(str(tmp_path / "v.vec"))
        with pytest.raises(DataError, match=f"^{vec}: record 2: dimension 5 differs from first record's 4$"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    def test_count_mismatch(self, tmp_path):
        write_vec_file(tmp_path / "v.vec", [[1, 2]])
        write_ids_file(tmp_path / "v.ids", ["a", "b"])
        with pytest.raises(DataError):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    def test_non_finite_rejected_with_record_index(self, tmp_path):
        write_vec_file(tmp_path / "v.vec", [[1, 2], [np.inf, 0]])
        write_ids_file(tmp_path / "v.ids", ["a", "b"])
        vec = re.escape(str(tmp_path / "v.vec"))
        with pytest.raises(DataError, match=f"^{vec}: record 2: non-finite value$"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    @pytest.mark.parametrize("ids, row, message", [
        (("a", "a"), [1.0, 2.0], "^duplicate id 'a'$"),
        (("a", "b"), [np.nan, 0.0], "^record 2: non-finite value$"),
        (("a",), [1.0, 2.0], "^1 ids but 2 vector rows$"),
    ])
    def test_set_built_in_memory_names_no_file(self, ids, row, message):
        with pytest.raises(DataError, match=message):
            fio.FeatureSet("x", ids, np.array([[1.0, 2.0], row]))

    def test_truncated_payload(self, tmp_path):
        (tmp_path / "v.vec").write_bytes(struct.pack("<I", 4) + b"\x00" * 8)
        write_ids_file(tmp_path / "v.ids", ["a"])
        with pytest.raises(DataError, match="truncated"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")


class TestRoundTrip:
    @given(
        arrays(
            np.float32,
            st.tuples(st.integers(1, 8), st.integers(1, 6)),
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_save_load_bit_exact(self, tmp_path_factory, vecs):
        tmp = tmp_path_factory.mktemp("rt")
        fs = fio.FeatureSet(
            name="x",
            ids=tuple(f"i{k}" for k in range(vecs.shape[0])),
            vectors=vecs.astype(np.float64),
        )
        fio.save_feature_set(fs, tmp / "x.vec", tmp / "x.ids")
        back = fio.load_feature_set(tmp / "x.vec", tmp / "x.ids", "x")
        assert back.ids == fs.ids
        # float32 payloads survive the f64 round trip bit-exactly
        assert np.array_equal(back.vectors, fs.vectors)


class TestNormalize:
    def test_three_four_five_triangle(self):
        fs = fio.FeatureSet("x", ("a",), np.array([[3.0, 4.0]]))
        out = fio.l2_normalize(fs)
        np.testing.assert_allclose(out.vectors, [[0.6, 0.8]])
        assert out.normalized

    def test_unit_row_unchanged(self):
        fs = fio.FeatureSet("x", ("a",), np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(fio.l2_normalize(fs).vectors, [[1.0, 0.0]])

    def test_all_ones_row(self):
        fs = fio.FeatureSet("x", ("a",), np.array([[1.0, 1.0, 1.0, 1.0]]))
        np.testing.assert_allclose(fio.l2_normalize(fs).vectors, [[0.5, 0.5, 0.5, 0.5]])

    def test_zero_row_rejected(self):
        fs = fio.FeatureSet("x", ("a", "b"), np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="^zero vector for id 'b' cannot be normalized$"):
            fio.l2_normalize(fs)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 10), st.integers(1, 8)),
            elements=st.floats(-100, 100, allow_nan=False),
        ).filter(lambda a: np.all(np.linalg.norm(a, axis=1) > 1e-6))
    )
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, vecs):
        fs = fio.FeatureSet("x", tuple(f"i{k}" for k in range(vecs.shape[0])), vecs)
        once = fio.l2_normalize(fs)
        twice = fio.l2_normalize(once)
        assert np.max(np.abs(once.vectors - twice.vectors)) < 1e-12

    def test_preserves_nearest_neighbor_from_unit_query(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(50, 8))
        fs = fio.l2_normalize(fio.FeatureSet("x", tuple(f"i{k}" for k in range(50)), vecs))
        for _ in range(20):
            q = rng.normal(size=8)
            q /= np.linalg.norm(q)
            d = np.linalg.norm(fs.vectors - q, axis=1)
            again = np.linalg.norm(fio.l2_normalize(fs).vectors - q, axis=1)
            assert np.argmin(d) == np.argmin(again)


class TestAlign:
    def test_intersection(self):
        src = fio.FeatureSet("s", ("a", "b", "c"), np.eye(3))
        tgt = fio.FeatureSet("t", ("b", "c", "d"), np.eye(3))
        paired = fio.align_pairs(src, tgt)
        assert paired.source.ids == ("b", "c")

    def test_row_order_irrelevant(self):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(4, 3))
        ids = ("w", "x", "y", "z")
        src = fio.FeatureSet("s", ids, vecs)
        perm = [2, 0, 3, 1]
        tgt = fio.FeatureSet("t", tuple(ids[i] for i in perm), vecs[perm])
        paired = fio.align_pairs(src, tgt)
        assert len(paired) == 4
        np.testing.assert_array_equal(paired.source.vectors, paired.target.vectors)

    def test_disjoint_sets(self):
        src = fio.FeatureSet("s", ("a",), np.ones((1, 2)))
        tgt = fio.FeatureSet("t", ("b",), np.ones((1, 2)))
        with pytest.raises(DataError, match="^source and target feature sets share no ids$"):
            fio.align_pairs(src, tgt)

    @pytest.mark.parametrize("tgt_ids", [("b", "a"), ("a", "c"), ("a",)],
                             ids=["reordered", "other-id", "fewer"])
    def test_paired_sides_must_hold_the_same_id_sequence(self, tgt_ids):
        src = fio.FeatureSet("s", ("a", "b"), np.ones((2, 2)))
        tgt = fio.FeatureSet("t", tgt_ids, np.ones((len(tgt_ids), 3)))
        with pytest.raises(DataError, match="^paired sets must share the exact id sequence$"):
            fio.PairedSet(source=src, target=tgt)

    @given(st.permutations(list("abcdef")))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_output_order(self, shuffled):
        rng = np.random.default_rng(9)
        vecs = rng.normal(size=(6, 2))
        canonical = fio.FeatureSet("s", tuple("abcdef"), vecs)
        index = {c: k for k, c in enumerate("abcdef")}
        permuted = fio.FeatureSet(
            "s", tuple(shuffled), vecs[[index[c] for c in shuffled]]
        )
        other = fio.FeatureSet("t", tuple("abcdef"), rng.normal(size=(6, 2)))
        p1 = fio.align_pairs(canonical, other)
        p2 = fio.align_pairs(permuted, other)
        assert p1.source.ids == p2.source.ids
        np.testing.assert_array_equal(p1.source.vectors, p2.source.vectors)


class TestGroundTruth:
    def test_round_trip(self, tmp_path):
        gt = fio.GroundTruth({"q1": frozenset({"a", "b"}), "q2": frozenset({"c"})})
        fio.save_ground_truth(gt, tmp_path / "gt.tsv")
        back = fio.load_ground_truth(tmp_path / "gt.tsv")
        assert back.relevant == gt.relevant

    def test_malformed_line(self, tmp_path):
        (tmp_path / "gt.tsv").write_text("q1 no-tab-here\n")
        with pytest.raises(DataError):
            fio.load_ground_truth(tmp_path / "gt.tsv")

    def test_empty_file_has_no_queries(self, tmp_path):
        (tmp_path / "gt.tsv").write_text("")
        assert fio.load_ground_truth(tmp_path / "gt.tsv").relevant == {}

    def test_empty_relevant_rejected(self):
        with pytest.raises(DataError):
            fio.GroundTruth({"q": frozenset()})

    def test_repeated_query_line(self, tmp_path):
        path = tmp_path / "gt.tsv"
        path.write_text("q1\ta\nq2\tb\nq1\tc\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: repeated query 'q1'$"):
            fio.load_ground_truth(path)

    @pytest.mark.parametrize("rels", ["", ","])
    def test_empty_relevant_list_names_file_line_and_query(self, tmp_path, rels):
        path = tmp_path / "gt.tsv"
        path.write_text(f"q0\ta\n\nq1\t{rels}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: empty relevant list for 'q1'$"):
            fio.load_ground_truth(path)


class TestLoadErrors:
    """Each malformed .vec raises the DataError that names its record."""

    @pytest.mark.parametrize("tail", [b"\x04", b"\x04\x00", b"\x04\x00\x00"])
    def test_trailing_header_bytes(self, tmp_path, tail):
        write_vec_file(tmp_path / "v.vec", [[1, 2, 3, 4]])
        with open(tmp_path / "v.vec", "ab") as f:
            f.write(tail)
        write_ids_file(tmp_path / "v.ids", ["a", "b"])
        with pytest.raises(DataError, match="truncated record header at record 2"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    @pytest.mark.parametrize("text", ["\na\n", "a\n\nb\n", "a\n\n"],
                             ids=["first", "middle", "last"])
    def test_blank_line_in_ids_file_names_it(self, tmp_path, text):
        write_vec_file(tmp_path / "v.vec", [[1, 2], [3, 4]])
        (tmp_path / "v.ids").write_text(text)
        ids = re.escape(str(tmp_path / "v.ids"))
        with pytest.raises(DataError, match=f"^{ids}: blank line in ids file$"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    def test_first_dim_zero(self, tmp_path):
        (tmp_path / "v.vec").write_bytes(struct.pack("<I", 0) + bytes(8))
        write_ids_file(tmp_path / "v.ids", ["a"])
        with pytest.raises(DataError, match="record 1 has dimension 0"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    def test_inconsistent_dim_in_partial_last_record(self, tmp_path):
        write_vec_file(tmp_path / "v.vec", [[1, 2, 3, 4], [5, 6, 7, 8]])
        with open(tmp_path / "v.vec", "ab") as f:
            f.write(struct.pack("<I", 7) + bytes(3))
        write_ids_file(tmp_path / "v.ids", ["a", "b", "c"])
        vec = re.escape(str(tmp_path / "v.vec"))
        with pytest.raises(DataError, match=f"^{vec}: record 3: dimension 7 differs from first record's 4$"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    def test_truncated_payload_names_record(self, tmp_path):
        write_vec_file(tmp_path / "v.vec", [[1, 2, 3, 4], [5, 6, 7, 8]])
        with open(tmp_path / "v.vec", "ab") as f:
            f.write(struct.pack("<I", 4) + bytes(8))
        write_ids_file(tmp_path / "v.ids", ["a", "b", "c"])
        with pytest.raises(DataError, match="truncated payload at record 3"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    def test_empty_vec_and_ids(self, tmp_path):
        (tmp_path / "v.vec").write_bytes(b"")
        write_ids_file(tmp_path / "v.ids", [])
        with pytest.raises(DataError, match="dim >= 1"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    def test_huge_first_dim_rejected_without_allocating(self, tmp_path):
        (tmp_path / "v.vec").write_bytes(struct.pack("<I", 2**32 - 1) + bytes(16))
        write_ids_file(tmp_path / "v.ids", ["a"])
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="truncated payload at record 1"):
                fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_ids_not_utf8(self, tmp_path):
        write_vec_file(tmp_path / "v.vec", [[1, 2]])
        (tmp_path / "v.ids").write_bytes(b"img\xff\n")
        with pytest.raises(DataError, match="v.ids: not UTF-8"):
            fio.load_feature_set(tmp_path / "v.vec", tmp_path / "v.ids", "v")

    def test_ground_truth_not_utf8(self, tmp_path):
        (tmp_path / "gt.tsv").write_bytes(b"q\xfe\tr\n")
        with pytest.raises(DataError, match="gt.tsv: not UTF-8"):
            fio.load_ground_truth(tmp_path / "gt.tsv")


class TestSave:
    def test_seeded_2048_d_file_bytes_unchanged(self, tmp_path):
        rng = np.random.default_rng(3)
        fs = fio.FeatureSet("x", tuple(f"img{k}" for k in range(16)), rng.normal(size=(16, 2048)))
        fio.save_feature_set(fs, tmp_path / "x.vec", tmp_path / "x.ids")
        digest = hashlib.sha256((tmp_path / "x.vec").read_bytes()).hexdigest()
        assert digest == "a1b788d065a6c32b8553f985d2b79cdb07535757a36845d5156c5d0005a89ce9"
        assert (tmp_path / "x.ids").read_text() == "".join(f"img{k}\n" for k in range(16))

    def test_matches_record_by_record_writer(self, tmp_path):
        fs = make_fs(n=5, dim=3, seed=2)
        fio.save_feature_set(fs, tmp_path / "x.vec", tmp_path / "x.ids")
        write_vec_file(tmp_path / "y.vec", fs.vectors)
        assert (tmp_path / "x.vec").read_bytes() == (tmp_path / "y.vec").read_bytes()


    @pytest.mark.parametrize("bad", ["", "x\ny", "x\ry"])
    def test_id_the_ids_file_cannot_hold_rejected_before_writing(self, tmp_path, bad):
        fs = fio.FeatureSet("x", ("ok", bad), np.zeros((2, 3)))
        with pytest.raises(DataError, match=re.escape(repr(bad))):
            fio.save_feature_set(fs, tmp_path / "x.vec", tmp_path / "x.ids")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("big", [1e39, -1e39])
    def test_value_beyond_float32_rejected_before_writing(self, tmp_path, big):
        fs = fio.FeatureSet("x", ("a", "b"), [[1, 2], [big, 3]])
        with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'x.vec'}: record 2: ")):
            fio.save_feature_set(fs, tmp_path / "x.vec", tmp_path / "x.ids")
        assert list(tmp_path.iterdir()) == []

    def test_empty_set_rejected_before_writing(self, tmp_path):
        fs = fio.FeatureSet("x", (), np.zeros((0, 3)))
        with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'x.vec'}: no records")):
            fio.save_feature_set(fs, tmp_path / "x.vec", tmp_path / "x.ids")
        assert list(tmp_path.iterdir()) == []

    def test_ids_with_tab_and_comma_round_trip(self, tmp_path):
        fs = fio.FeatureSet("x", ("a\tb", "c,d"), np.zeros((2, 3)))
        fio.save_feature_set(fs, tmp_path / "x.vec", tmp_path / "x.ids")
        assert fio.load_feature_set(tmp_path / "x.vec", tmp_path / "x.ids", "x").ids == fs.ids

    @pytest.mark.parametrize("bad", ["", "a\nb", "a\rb", "a\tb", "a,b"])
    @pytest.mark.parametrize("role", ["query", "relevant"])
    def test_ground_truth_id_the_file_cannot_hold_rejected_before_writing(self, tmp_path, bad, role):
        rel = {"q": frozenset({"r", bad})} if role == "relevant" else {bad: frozenset({"r"})}
        with pytest.raises(DataError, match=re.escape(repr(bad))):
            fio.save_ground_truth(fio.GroundTruth(rel), tmp_path / "gt.tsv")
        assert list(tmp_path.iterdir()) == []

class TestTake:
    def test_rows_in_requested_order(self):
        fs = make_fs(n=4, dim=3)
        out = fs.take(["img2", "img0", "img3"])
        assert out.ids == ("img2", "img0", "img3") and out.name == fs.name
        np.testing.assert_array_equal(out.vectors, fs.vectors[[2, 0, 3]])

    def test_keeps_normalized_flag(self):
        fs = fio.l2_normalize(make_fs(n=3, dim=2))
        assert fs.take(("img1",)).normalized

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            make_fs(n=2).take(["img9"])


class TestPassThrough:
    """A frozen set is its own copy: `take` of its own ids and `align_pairs` of two
    sets over the same sorted ids hand back the inputs."""

    def test_take_of_own_ids_is_the_set(self):
        fs = make_fs(n=4)
        assert fs.take(fs.ids) is fs
        assert fs.take(list(fs.ids)) is fs

    def test_align_of_same_sorted_ids_returns_the_inputs(self):
        src, tgt = make_fs("s", n=4, dim=3, seed=1), make_fs("t", n=4, dim=2, seed=2)
        paired = fio.align_pairs(src, tgt)
        assert paired.source is src and paired.target is tgt

    @pytest.mark.parametrize("src_ids, tgt_ids, order", [
        (("c", "a", "b"), ("c", "a", "b"), ("a", "b", "c")),
        (("a", "b", "c"), ("a", "b", "d"), ("a", "b")),
    ], ids=["same-unsorted", "different"])
    def test_align_otherwise_copies_the_sorted_intersection(self, src_ids, tgt_ids, order):
        rng = np.random.default_rng(3)
        src = fio.FeatureSet("s", src_ids, rng.normal(size=(3, 2)))
        tgt = fio.FeatureSet("t", tgt_ids, rng.normal(size=(3, 4)))
        paired = fio.align_pairs(src, tgt)
        assert paired.source.ids == order
        for out, fs in ((paired.source, src), (paired.target, tgt)):
            assert out is not fs and not np.shares_memory(out.vectors, fs.vectors)
            np.testing.assert_array_equal(out.vectors, [fs.row(i) for i in order])


SCALES = (0.25, 0.999, 1.5, 2.0, 3.0)  # distinct distances from 1: one row is farthest
WHERE = {"first": lambda n: 0, "middle": lambda n: n // 2, "last": lambda n: n - 1}


@st.composite
def faulty_sets(draw):
    """(ids, vectors, normalized): unit rows, some scaled off unit norm, some holding
    NaN or an inf in the first, middle or last row, over unique or repeating ids."""
    n, dim = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        ids = tuple(f"i{k}" for k in range(n))
    else:
        ids = tuple(draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n)))
    vecs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    if n:
        scaled = st.tuples(st.integers(0, n - 1), st.sampled_from(SCALES))
        for row, scale in draw(st.lists(scaled, max_size=3, unique_by=(lambda t: t[0], lambda t: t[1]))):
            vecs[row] *= scale
        bad = st.tuples(st.sampled_from(sorted(WHERE)), st.integers(0, dim - 1),
                        st.sampled_from((np.nan, np.inf, -np.inf)))
        for where, col, value in draw(st.lists(bad, max_size=2)):
            vecs[WHERE[where](n), col] = value
    return ids, vecs, draw(st.booleans())


class TestChecks:
    """FeatureSet's whole-array checks report the first fault the per-id loop,
    (n, d) masks and linalg.norm of oracles.feature_set_fault find."""

    @settings(max_examples=400, deadline=None)
    @given(case=faulty_sets())
    @example(case=(("a", "b", "b", "a"), np.eye(4), False))
    @example(case=((), np.empty((0, 3)), True))
    def test_same_fault_as_oracle(self, case):
        ids, vecs, normalized = case
        expected = feature_set_fault(ids, vecs, normalized, fio.NORM_TOL)
        if expected is None:
            fio.FeatureSet("x", ids, vecs, normalized)
            return
        with pytest.raises(DataError) as err:
            fio.FeatureSet("x", ids, vecs, normalized)
        if isinstance(expected, str):
            assert str(err.value) == expected
        else:
            row, norm = expected
            pattern = rf"row {row} \({re.escape(repr(ids[row]))}\) flagged normalized but has norm (\S+)"
            found = re.fullmatch(pattern, str(err.value))
            assert found and abs(float(found[1]) - norm) < 1e-12

    def test_norm_tie_names_either_tied_row(self):
        """Rows 1.5 and 0.5 from unit norm are tied: rounding decides which is farther,
        and linalg.norm (row 1 here) and the library's einsum may round apart."""
        vecs = np.random.default_rng(0).normal(size=(2, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        vecs *= [[1.5], [0.5]]
        ids = ("a", "b")
        with pytest.raises(DataError) as err:
            fio.FeatureSet("x", ids, vecs, normalized=True)
        found = re.fullmatch(r"row ([01]) \((\S+)\) flagged normalized but has norm (\S+)",
                             str(err.value))
        assert found
        row = int(found[1])
        assert found[2] == repr(ids[row])
        assert abs(float(found[3]) - np.linalg.norm(vecs[row])) < 1e-12

    def test_norm_message(self):
        with pytest.raises(DataError, match=r"^row 0 \('a'\) flagged normalized but has norm 2\.0$"):
            fio.FeatureSet("x", ("a",), np.array([[2.0, 0.0]]), normalized=True)

    def test_normalized_check_traces_under_a_quarter_of_the_vectors(self):
        vecs = np.random.default_rng(0).normal(size=(2000, 256))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ids = tuple(f"i{k}" for k in range(2000))
        tracemalloc.start()
        try:
            fio.FeatureSet("x", ids, vecs, normalized=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < vecs.nbytes / 4


class TestFileFuzz:
    """Truncated or bit-flipped .vec, .ids and gt.tsv files raise a DataError
    or load; nothing else is raised. A damaged .vec fails with the message and
    record of the first fault that a record-by-record reader finds."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        fs = fio.FeatureSet("x", ("imgé0", "img1", "imgß2"), make_fs(n=3, dim=4).vectors)
        fio.save_feature_set(fs, root / "x.vec", root / "x.ids")
        gt = fio.GroundTruth({"imgé0": frozenset({"img1", "imgß2"}), "img1": frozenset({"imgé0"})})
        fio.save_ground_truth(gt, root / "gt.tsv")
        return root, {name: (root / name).read_bytes() for name in ("x.vec", "x.ids", "gt.tsv")}

    @staticmethod
    def _load(root, name, raw):
        """What loading ``raw`` in place of ``name`` gives: the loaded object
        or the DataError raised."""
        path = root / f"cut.{name}"
        path.write_bytes(raw)
        try:
            if name == "gt.tsv":
                return fio.load_ground_truth(path)
            vec, ids = (path, root / "x.ids") if name == "x.vec" else (root / "x.vec", path)
            return fio.load_feature_set(vec, ids, "x")
        except DataError as exc:
            loaded = exc
        if name == "x.vec":
            expected = vec_records(raw)
            if isinstance(expected, str):
                assert str(loaded).endswith(expected)
        return loaded

    @pytest.mark.parametrize("name", ["x.vec", "x.ids", "gt.tsv"])
    def test_every_truncation(self, saved, name):
        root, files = saved
        for n in range(len(files[name])):
            loaded = self._load(root, name, files[name][:n])
            # no shorter .vec holds the three records the ids name
            assert isinstance(loaded, DataError) or name != "x.vec"

    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(["x.vec", "x.ids", "gt.tsv"]), data=st.data())
    def test_bit_flip(self, saved, name, data):
        root, files = saved
        raw = bytearray(files[name])
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
        loaded = self._load(root, name, bytes(raw))
        if name == "x.vec" and isinstance(loaded, fio.FeatureSet):
            assert np.array_equal(loaded.vectors, vec_records(bytes(raw)))
