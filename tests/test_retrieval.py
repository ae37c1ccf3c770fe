import itertools
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feattrans import feature_io as fio, nn_core, retrieval
from feattrans.errors import DataError
from oracles import ap_enumeration, map_enumeration, ranking_enumeration


def feature_set(name, ids, vecs):
    return fio.FeatureSet(name, tuple(ids), np.asarray(vecs, dtype=float))


@st.composite
def lattice_retrieval(draw):
    """Integer-lattice vectors in 1-3 dims: many exact distance ties and
    duplicate vectors, with queries among the references and perhaps one not."""
    dim = draw(st.integers(1, 3))
    point = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    ids = draw(st.lists(st.text("abxy", min_size=1, max_size=3), min_size=2, max_size=30, unique=True))
    vecs = draw(st.lists(point, min_size=len(ids), max_size=len(ids)))
    qids = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6, unique=True))
    qvecs = [vecs[ids.index(q)] for q in qids]
    if draw(st.booleans()):
        qids.append("q")
        qvecs.append(draw(point))
    gt = {
        q: frozenset(draw(st.lists(st.sampled_from([i for i in ids if i != q]), min_size=1, max_size=5)))
        for q in qids
    }
    return feature_set("q", qids, qvecs), feature_set("refs", ids, vecs), gt


def oracle_aps(queries, refs, gt):
    """Each query's AP from ap_enumeration."""
    ref_vecs = refs.vectors.tolist()
    return {
        qid: ap_enumeration(qid, vec, refs.ids, ref_vecs, gt[qid])
        for qid, vec in zip(queries.ids, queries.vectors.tolist())
    }


def assert_matches_oracle(queries, refs, gt):
    """Every per-query AP of evaluate against ap_enumeration."""
    got = retrieval.evaluate(queries, refs, fio.GroundTruth(gt))
    for qid, want in oracle_aps(queries, refs, gt).items():
        assert abs(got.per_query_ap[qid] - want) <= 1e-12, qid


@pytest.fixture
def blocks(monkeypatch):
    """The number of queries in each block that evaluate scores."""
    sizes = []
    hit_ranks = retrieval._hit_ranks

    def counting(queries, *args):
        sizes.append(len(queries))
        return hit_ranks(queries, *args)

    monkeypatch.setattr(retrieval, "_hit_ranks", counting)
    return sizes


class TestRank:
    def test_orders_by_distance(self):
        refs = feature_set("r", ["x", "y", "z"], [[0.1], [0.5], [0.3]])
        rl = retrieval.rank("q", np.array([0.0]), refs)
        assert rl.ref_ids == ("x", "z", "y")

    def test_tie_broken_lexicographically(self):
        refs = feature_set("r", ["b", "a"], [[1.0], [-1.0]])
        rl = retrieval.rank("q", np.array([0.0]), refs)
        assert rl.ref_ids == ("a", "b")

    def test_self_excluded(self):
        refs = feature_set("r", ["q", "a"], [[0.0], [1.0]])
        rl = retrieval.rank("q", np.array([0.0]), refs)
        assert rl.ref_ids == ("a",)

    def test_euclid_order_equals_cosine_order_on_unit_vectors(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(30, 6))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        refs = feature_set("r", [f"i{k:02d}" for k in range(30)], vecs)
        q = rng.normal(size=6)
        q /= np.linalg.norm(q)
        rl = retrieval.rank("q", q, refs)
        by_cosine = sorted(range(30), key=lambda i: (-vecs[i] @ q, refs.ids[i]))
        assert rl.ref_ids == tuple(refs.ids[i] for i in by_cosine)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_query_is_a_data_error(self, bad):
        refs = feature_set("r", ["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DataError, match="'q' has a non-finite value"):
            retrieval.rank("q", [bad, 0.0], refs)


class TestAveragePrecision:
    def test_hand_enumerated_example(self):
        # ranking [rel, irrel, rel] with two relevant: (1/1 + 2/3) / 2
        rl = retrieval.RankingList("q", ("a", "b", "c"))
        assert abs(retrieval.average_precision(rl, {"a", "c"}) - 5 / 6) < 1e-12

    def test_perfect_ranking(self):
        rl = retrieval.RankingList("q", ("a", "b", "c", "d"))
        assert retrieval.average_precision(rl, {"a", "b"}) == 1.0

    def test_single_relevant_ranked_last(self):
        rl = retrieval.RankingList("q", ("a", "b", "c", "d", "e"))
        assert abs(retrieval.average_precision(rl, {"e"}) - 1 / 5) < 1e-12

    def test_unknown_relevant_id(self):
        rl = retrieval.RankingList("q", ("a", "b"))
        with pytest.raises(DataError,
                           match="^relevant id 'zz' for query 'q' not present in reference set$"):
            retrieval.average_precision(rl, {"zz"})


class TestEvaluate:
    def _random_instance(self, rng, n_refs, n_queries):
        dim = int(rng.integers(2, 6))
        ids = [f"r{k:03d}" for k in range(n_refs)]
        refs = feature_set("refs", ids, rng.normal(size=(n_refs, dim)))
        qids = list(rng.choice(ids, size=n_queries, replace=False))
        queries = feature_set(
            "q", qids, refs.vectors[[ids.index(q) for q in qids]] + 0.1 * rng.normal(size=(n_queries, dim))
        )
        gt = {}
        for q in qids:
            rel = set(rng.choice(ids, size=int(rng.integers(1, 6)), replace=False)) - {q}
            if rel:
                gt[q] = frozenset(rel)
        return queries, refs, gt

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            queries, refs, gt = self._random_instance(rng, 60, 8)
            if not gt:
                continue
            got = retrieval.evaluate(queries, refs, fio.GroundTruth(gt))
            want = map_enumeration(
                queries.ids, queries.vectors.tolist(), refs.ids, refs.vectors.tolist(), gt
            )
            assert abs(got.map - want) < 1e-9
            assert abs(got.map - 100 * np.mean(list(got.per_query_ap.values()))) < 1e-9

    def test_self_only_relevance_is_unreachable(self):
        refs = feature_set("r", ["a", "b"], [[0.0], [1.0]])
        gt = fio.GroundTruth({"a": frozenset({"a"})})
        with pytest.raises(DataError,
                           match="^relevant id 'a' for query 'a' not present in reference set$"):
            retrieval.evaluate(refs, refs, gt)

    def test_duplicate_vector_gives_perfect_map(self):
        refs = feature_set("r", ["a", "a_dup", "far"], [[0.0], [0.0], [9.0]])
        gt = fio.GroundTruth({"a": frozenset({"a_dup"})})
        result = retrieval.evaluate(refs, refs, gt)
        assert result.map == 100.0

    def test_query_dim_must_be_the_reference_dim(self):
        refs = feature_set("r", ["a", "b"], [[0.0], [1.0]])
        queries = feature_set("q", ["a"], [[0.0, 1.0]])
        with pytest.raises(DataError, match="^query dim 2 != reference dim 1$"):
            retrieval.evaluate(queries, refs, fio.GroundTruth({"a": frozenset({"b"})}))

    def test_unknown_query(self):
        refs = feature_set("r", ["a"], [[0.0]])
        with pytest.raises(DataError):
            retrieval.evaluate(refs, refs, fio.GroundTruth({"zz": frozenset({"a"})}))

    @pytest.mark.parametrize(
        "gt, message",
        [
            ({"a": {"b", "zz", "yy"}, "m": {"a"}},
             "relevant id 'yy' for query 'a' not present in reference set"),
            ({"a": {"b"}, "b": {"b"}, "m": {"a"}},
             "relevant id 'b' for query 'b' not present in reference set"),
            ({"a": {"zz"}, "0": {"a"}}, "ground-truth query '0' missing from query feature set"),
            ({"0": {"zz"}, "a": {"b"}}, "ground-truth query '0' missing from query feature set"),
            ({}, "ground truth contains no queries"),
        ],
        ids=["unknown-id-before-missing-query", "own-id-before-missing-query",
             "missing-query-before-unknown-id", "missing-query-before-its-unknown-id",
             "no-queries"],
    )
    def test_first_fault_in_query_then_id_order_is_raised(self, gt, message):
        refs = feature_set("r", ["a", "b", "c"], [[0.0], [1.0], [2.0]])
        with pytest.raises(DataError, match=f"^{message}$"):
            retrieval.evaluate(refs, refs, fio.GroundTruth(gt))

    @given(lattice_retrieval())
    @settings(max_examples=200, deadline=None)
    def test_lattice_ties_match_oracle(self, case):
        queries, refs, gt = case
        assert_matches_oracle(queries, refs, gt)
        for qid, vec in zip(queries.ids, queries.vectors):
            want = ranking_enumeration(qid, vec.tolist(), refs.ids, refs.vectors.tolist())
            assert retrieval.rank(qid, vec, refs).ref_ids == tuple(want)

    @pytest.mark.parametrize("dim", [16, 1024])
    def test_tile_and_block_edges_match_oracle(self, dim):
        # Two full reference tiles and a partial one. At 16-d also a full
        # block of dim queries and a partial one; at 1024-d a block holds
        # 1,024 queries, too many for the oracle.
        tile = retrieval._TILE_BYTES // (8 * dim)
        n_refs = 2 * tile + tile // 2
        n_queries = min(dim + dim // 2, 24)
        assert n_refs % tile and n_queries % dim
        rng = np.random.default_rng(dim)
        ids = [f"r{k:05d}" for k in range(n_refs)]
        # lattice points: exact distances, with ties across tiles
        refs = feature_set("refs", ids, rng.integers(-3, 4, size=(n_refs, dim)))
        qrows = rng.choice(n_refs, size=n_queries, replace=False)
        queries = feature_set("q", [ids[i] for i in qrows], refs.vectors[qrows])
        gt = {}
        for q in queries.ids:
            gt[q] = frozenset(rng.choice([i for i in ids if i != q], size=int(rng.integers(1, 6)), replace=False))
        want = oracle_aps(queries, refs, gt)
        got = retrieval.evaluate(queries, refs, fio.GroundTruth(gt)).per_query_ap
        assert all(abs(got[q] - want[q]) <= 1e-12 for q in want)

    def test_blocks_of_dim_queries(self, blocks):
        # 20 queries at 8-d score in blocks of 8, though the 30 references
        # outnumber the dims.
        rng = np.random.default_rng(8)
        ids = [f"v{k:02d}" for k in rng.permutation(30)]
        refs = feature_set("refs", ids, rng.integers(-2, 3, size=(30, 8)))
        queries = feature_set("q", ids[:20], refs.vectors[:20])
        gt = {q: frozenset(rng.choice([i for i in ids if i != q], size=int(rng.integers(1, 5)), replace=False))
              for q in queries.ids}
        assert_matches_oracle(queries, refs, gt)
        assert blocks == [8, 8, 4]

    def test_blocks_bit_identical_to_one_block(self, blocks):
        # 800 queries at 32-d score in 25 blocks of 32. One-block evaluates of
        # every size from 1 to 32 over the same queries give the same AP bits
        # in the same order and the same mAP bits.
        rng = np.random.default_rng(5)
        ids = [f"v{k:03d}" for k in rng.permutation(800)]
        fs = feature_set("s", ids, rng.normal(size=(800, 32)))
        # 7k + 1 and 13k + 5 never equal k mod 800: no query is its own hit
        gt = fio.GroundTruth({q: frozenset({ids[(7 * k + 1) % 800], ids[(13 * k + 5) % 800]})
                              for k, q in enumerate(ids)})
        got = retrieval.evaluate(fs, fs, gt)
        assert blocks == [32] * 25
        qids, want = sorted(gt.relevant), {}
        for size in itertools.cycle(range(1, 33)):
            part = {q: gt.relevant[q] for q in qids[len(want) : len(want) + size]}
            if not part:
                break
            want.update(retrieval.evaluate(fs, fs, fio.GroundTruth(part)).per_query_ap)
        assert sorted(set(blocks[25:])) == list(range(1, 33))
        assert list(got.per_query_ap.items()) == list(want.items())
        assert got.map == 100.0 * float(np.mean(list(want.values())))

    def test_evaluate_starts_no_thread(self, blocks, monkeypatch):
        def no_threads(*args):
            raise AssertionError("evaluate started a thread")

        monkeypatch.setattr(nn_core, "_WORKERS", 2)
        monkeypatch.setattr(threading.Thread, "start", no_threads)
        rng = np.random.default_rng(6)
        ids = [f"v{k:03d}" for k in range(80)]
        fs = feature_set("s", ids, rng.normal(size=(80, 8)))
        gt = fio.GroundTruth({q: frozenset({ids[(k + 1) % 80]}) for k, q in enumerate(ids)})
        retrieval.evaluate(fs, fs, gt)
        retrieval.evaluate(fs, fs, fio.GroundTruth({ids[0]: gt.relevant[ids[0]]}))
        assert blocks == [8] * 10 + [1]

    def test_queries_within_dim_score_in_one_block(self, blocks):
        # 40 queries at 64-d score in one block. Scoring each query on its
        # own, one block each, gives the same AP reprs in the same order and
        # mAP bits.
        rng = np.random.default_rng(64)
        ids = [f"v{k:02d}" for k in rng.permutation(60)]
        refs = feature_set("refs", ids, rng.normal(size=(60, 64)))
        queries = feature_set("q", ids[:39] + ["zq"], np.vstack([refs.vectors[:39], rng.normal(size=(1, 64))]))
        gt = {q: frozenset(rng.choice([i for i in ids if i != q], size=int(rng.integers(1, 8)), replace=False))
              for q in queries.ids}
        got = retrieval.evaluate(queries, refs, fio.GroundTruth(gt))
        assert blocks == [40]
        want = {q: retrieval.evaluate(queries, refs, fio.GroundTruth({q: gt[q]})).per_query_ap[q]
                for q in sorted(gt)}
        assert blocks == [40] + [1] * 40
        reprs = lambda aps: [(q, repr(ap)) for q, ap in aps.items()]
        assert reprs(got.per_query_ap) == reprs(want)
        assert struct.pack("<d", got.map) == struct.pack("<d", 100.0 * float(np.mean(list(want.values()))))

    def test_working_memory_is_a_few_blocks(self):
        # 800 references at 32-d, so blocks of 32 queries, 200 KiB of
        # distances. One block, its sorted copy, one 256 KiB exact-distance
        # tile and the per-query bookkeeping fit in 1 MiB. An 8 MB budget
        # would put all 800 queries in one block, over 10 MB with its sorted
        # copy.
        rng = np.random.default_rng(32)
        ids = [f"v{k:03d}" for k in range(800)]
        fs = feature_set("s", ids, rng.normal(size=(800, 32)))
        gt = fio.GroundTruth({q: frozenset(ids[(k + j) % 800] for j in range(1, 8))
                              for k, q in enumerate(ids)})
        tracemalloc.start()
        try:
            retrieval.evaluate(fs, fs, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (1 << 18)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_reference_permutation(self, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        queries, refs, gt = self._random_instance(rng, 30, 5)
        if not gt:
            return
        perm = rng.permutation(len(refs.ids))
        shuffled = feature_set("refs", [refs.ids[i] for i in perm], refs.vectors[perm])
        a = retrieval.evaluate(queries, refs, fio.GroundTruth(gt))
        b = retrieval.evaluate(queries, shuffled, fio.GroundTruth(gt))
        assert abs(a.map - b.map) < 1e-12

    def test_adding_irrelevant_reference_never_increases_ap(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            queries, refs, gt = self._random_instance(rng, 25, 4)
            if not gt:
                continue
            extra = feature_set(
                "refs",
                list(refs.ids) + ["zzz_extra"],
                np.vstack([refs.vectors, rng.normal(size=(1, refs.dim))]),
            )
            before = retrieval.evaluate(queries, refs, fio.GroundTruth(gt))
            after = retrieval.evaluate(queries, extra, fio.GroundTruth(gt))
            for q in before.per_query_ap:
                assert after.per_query_ap[q] <= before.per_query_ap[q] + 1e-12


class TestHitRanks:
    def test_one_relevant_beside_mostly_relevant(self, blocks):
        # One block: r00 has one relevant reference, zq (not a reference) 24 of
        # the 40, its nearest and farthest among them, so r00's hit ranks are
        # padded and zq's binary searches end at both ends of its row. With
        # distinct distances the running sum matches the oracle's bit for bit.
        rng = np.random.default_rng(12)
        ids = [f"r{k:02d}" for k in range(40)]
        refs = feature_set("refs", ids, rng.normal(size=(40, 3)))
        zq = rng.normal(size=3)
        by_dist = np.argsort(np.linalg.norm(refs.vectors - zq, axis=1))
        relevant = [by_dist[0], by_dist[-1], *rng.choice(by_dist[1:-1], 22, replace=False)]
        queries = feature_set("q", ["r00", "zq"], [refs.vectors[0], zq])
        gt = {"r00": frozenset({"r05"}), "zq": frozenset(ids[i] for i in relevant)}
        got = retrieval.evaluate(queries, refs, fio.GroundTruth(gt)).per_query_ap
        want = oracle_aps(queries, refs, gt)
        assert {q: repr(ap) for q, ap in got.items()} == {q: repr(ap) for q, ap in want.items()}
        assert blocks == [2]

    def test_queries_in_and_out_of_the_references(self, blocks):
        # r03 and r07 are references; zq sits on r03's vector, so r03 ranks
        # first for it, and zz lies elsewhere.
        rng = np.random.default_rng(13)
        ids = [f"r{k:02d}" for k in range(20)]
        refs = feature_set("refs", ids, rng.normal(size=(20, 4)))
        qids = ["r03", "r07", "zq", "zz"]
        qvecs = [refs.vectors[3], refs.vectors[7] + 0.01, refs.vectors[3], rng.normal(size=4)]
        queries = feature_set("q", qids, qvecs)
        gt = {q: frozenset(rng.choice([i for i in ids if i != q], size=3, replace=False)) for q in qids}
        gt["zq"] |= {"r03"}
        assert_matches_oracle(queries, refs, gt)
        assert blocks == [4]

    def test_overflowing_blas_value_proves_no_order(self):
        # 2 q.r overflows for "far", whose BLAS-form value is then -inf, and so
        # does the margin: "far" is exactly further than "near" but ranks behind it.
        refs = feature_set("r", ["far", "near"], [[1.3e154], [0.8e154]])
        queries = feature_set("q", ["q"], [[1e154]])
        assert_matches_oracle(queries, refs, {"q": frozenset({"near"})})

    @pytest.mark.parametrize("dim", [1, 32, 2048])
    def test_near_ties_equal_rank_then_average_precision(self, dim):
        rng = np.random.default_rng(dim + 1)
        queries, refs, gt = proven_case(rng, *near_tie_set(rng, 150 if dim < 2048 else 60, dim))
        got = retrieval.evaluate(queries, refs, fio.GroundTruth(gt)).per_query_ap
        for q, vec in zip(queries.ids, queries.vectors):
            want = retrieval.average_precision(retrieval.rank(q, vec, refs), gt[q])
            assert repr(got[q]) == repr(want), q


def near_tie_set(rng, n, dim):
    """n normal reference vectors with planted exact duplicates, one-ulp
    neighbours (np.nextafter in one coordinate) and mirror pairs about
    another reference (near-equal exact distances whose BLAS form differs).
    Returns the query vectors (a third of the references, then one vector
    that is not a reference), the reference vectors and the query rows."""
    vecs = rng.normal(size=(n, dim))
    for a, b, c in rng.integers(0, n, size=(n // 4, 3)):
        vecs[b] = vecs[a]
        vecs[b, c % dim] = np.nextafter(vecs[a, c % dim], np.inf)
    for a, b, c in rng.integers(0, n, size=(n // 4, 3)):
        vecs[c] = 2 * vecs[a] - vecs[b]
    for a, b in rng.integers(0, n, size=(n // 8, 2)):
        vecs[b] = vecs[a]
    qrows = rng.choice(n, size=n // 3, replace=False)
    return np.vstack([vecs[qrows], rng.normal(size=(1, dim))]), vecs, qrows


def proven_case(rng, qvecs, vecs, qrows):
    """FeatureSets, with ids out of index order, and a ground truth for
    `proven_order_matches_exact`."""
    ids = [f"r{k:04d}" for k in rng.permutation(len(vecs))]
    qids = [ids[i] for i in qrows] + ["zq"]
    gt = {q: frozenset(rng.choice([i for i in ids if i != q], size=3, replace=False)) for q in qids}
    return feature_set("q", qids, qvecs), feature_set("refs", ids, vecs), gt


def exact_ranking(query_id, query, refs):
    """The definition: ids other than query_id by (distance, id), a distance
    being a row of np.linalg.norm(refs - q, axis=1)."""
    dist = np.linalg.norm(refs.vectors - query, axis=1)
    return tuple(i for _, i in sorted(zip(dist.tolist(), refs.ids)) if i != query_id)


def proven_order_matches_exact(queries, refs, gt):
    """rank for every query equals exact_ranking, and evaluate equals the same
    call with every gap treated as close (_margin inf), which computes every
    exact distance and sorts each row by (distance, id) alone: AP reprs, dict
    order and mAP bits. Nothing warns."""

    def scores():
        result = retrieval.evaluate(queries, refs, fio.GroundTruth(gt))
        return [(q, repr(ap)) for q, ap in result.per_query_ap.items()], struct.pack("<d", result.map)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, vec in zip(queries.ids, queries.vectors):
            assert retrieval.rank(q, vec, refs).ref_ids == exact_ranking(q, vec, refs), q
        got = scores()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "_margin", lambda *args: np.inf)
            assert got == scores()


class TestProvenOrder:
    @pytest.mark.parametrize("dim", [1, 32, 2048])
    def test_random_and_near_ties(self, dim):
        rng = np.random.default_rng(dim)
        proven_order_matches_exact(*proven_case(rng, *near_tie_set(rng, 150 if dim < 2048 else 60, dim)))

    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_underflow_scales(self, scale):
        # 1e-300: every square underflows to 0. 1e-160: the squares are
        # subnormal, so both forms' errors are set by the absolute term.
        rng = np.random.default_rng(160)
        qvecs, vecs, qrows = near_tie_set(rng, 150, 32)
        proven_order_matches_exact(*proven_case(rng, scale * qvecs, scale * vecs, qrows))

    def test_overflowing_norms(self):
        # At 1e155 along one axis some norms and 2q.r overflow to +-inf while
        # no difference squared does, so the margin is inf and next to a
        # finite BLAS-form value sits an infinite one.
        rng = np.random.default_rng(155)
        vecs = 1e155 * rng.uniform(0.05, 0.18, size=(150, 1))
        vecs[1::7] = vecs[::7]
        qrows = rng.choice(150, size=50, replace=False)
        proven_order_matches_exact(*proven_case(rng, np.vstack([vecs[qrows], vecs[:1]]), vecs, qrows))

    def test_norms_at_1e300(self):
        # A shared 1e300 coordinate: every norm overflows, no difference does.
        rng = np.random.default_rng(300)
        qvecs, vecs, qrows = near_tie_set(rng, 90, 8)
        wide = [np.hstack([np.full((len(v), 1), 1e300), v]) for v in (qvecs, vecs)]
        proven_order_matches_exact(*proven_case(rng, *wide, qrows))

    @given(lattice_retrieval(), st.sampled_from([0.0, 2.0**27 + 3]))
    @settings(max_examples=100, deadline=None)
    def test_lattice(self, case, offset):
        # Exact ties. Shifted by 2^27 the distances stay exact, but the BLAS
        # form rounds, so it orders ties at random and every gap is close.
        queries, refs, gt = case
        shift = lambda fs: feature_set(fs.name, fs.ids, fs.vectors + offset)
        proven_order_matches_exact(shift(queries), shift(refs), gt)

    def test_rank_near_duplicate_pair(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=16)
            b = a.copy()
            c = rng.integers(16)
            b[c] = np.nextafter(a[c], -np.inf)
            refs = feature_set("r", ["b", "a", "c"], [b, a, rng.normal(size=16)])
            queries = feature_set("q", ["q"], [a + 1e-3 * rng.normal(size=16)])
            proven_order_matches_exact(queries, refs, {"q": frozenset({"a"})})


class TestExactFallbackCost:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Each call's exact-distance count per query row of its block."""
        calls = []
        exact = retrieval._exact

        def counting(queries, refs, rows, cols):
            calls.append(np.bincount(rows, minlength=len(queries)))
            return exact(queries, refs, rows, cols)

        monkeypatch.setattr(retrieval, "_exact", counting)
        return calls

    def _set(self, vecs):
        ids = [f"v{k:03d}" for k in range(len(vecs))]
        gt = fio.GroundTruth({q: frozenset({ids[(k + 2) % len(ids)]}) for k, q in enumerate(ids)})
        fs = feature_set("s", ids, vecs)
        return fs, gt

    def test_well_separated_set_computes_none(self, counted):
        fs, gt = self._set(np.random.default_rng(8).normal(size=(800, 2048)))
        retrieval.evaluate(fs, fs, gt)
        assert sum(c.sum() for c in counted) == 0

    def test_duplicate_pair_computes_two_where_it_is_relevant(self, counted):
        # Only the queries whose relevant reference is 0 or 1 (rows 798 and 799)
        # have the other one in their margin window: those two compute the pair.
        vecs = np.random.default_rng(8).normal(size=(800, 2048))
        vecs[1] = vecs[0]
        fs, gt = self._set(vecs)
        retrieval.evaluate(fs, fs, gt)
        (per_row,) = counted  # 800 references <= 2048-d: one block
        want = np.zeros(800, dtype=int)
        want[[798, 799]] = 2
        assert per_row.tolist() == want.tolist()


class TestCrossFeatureEvaluate:
    def test_self_translation_close_to_direct(self, self_fixture):
        data = self_fixture.data
        a = data.feature_sets["a"]
        direct = retrieval.evaluate(a, a, data.ground_truth)
        translated = retrieval.cross_feature_evaluate(
            self_fixture.model, a, a, data.ground_truth
        )
        assert abs(direct.map - translated.map) <= 2.0

    def test_untrained_model_is_finite_and_bounded(self, rotation_fixture):
        from feattrans import translator

        data = rotation_fixture.data
        model = translator.build(32, 32, 24, "hae", seed=9, source_name="a", target_name="b")
        b = data.feature_sets["b"]
        result = retrieval.cross_feature_evaluate(model, data.feature_sets["a"], b, data.ground_truth)
        direct = retrieval.evaluate(b, b, data.ground_truth)
        assert 0.0 <= result.map <= 100.0
        assert result.map <= direct.map + 1.0

    def test_writes_csv(self, tmp_path, self_fixture):
        data = self_fixture.data
        a = data.feature_sets["a"]
        result = retrieval.cross_feature_evaluate(self_fixture.model, a, a, data.ground_truth)
        retrieval.write_eval_csv(result, tmp_path / "eval.csv")
        lines = (tmp_path / "eval.csv").read_text().strip().splitlines()
        assert lines[0] == "query_id,ap"
        assert lines[-1].startswith("mAP(%)")
        assert len(lines) == result.n_queries + 2
