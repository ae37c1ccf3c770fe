import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feattrans import affinity as aff
from feattrans import mst
from feattrans.errors import NotUndirected
from oracles import min_spanning_weight


def undirected(names, values):
    return aff.AffinityMatrix(tuple(names), np.asarray(values, float), aff.UNDIRECTED_U)


def random_u(rng, names):
    n = len(names)
    w = rng.uniform(0, 1, size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return undirected(names, w)


# the classic 1/2/3 triangle scaled into the unit interval
TRIANGLE = undirected(
    ("a", "b", "c"),
    [[0.0, 0.1, 0.3], [0.1, 0.0, 0.2], [0.3, 0.2, 0.0]],
)


class TestKruskal:
    def test_triangle(self):
        result = mst.kruskal(TRIANGLE)
        assert {(a, b) for a, b, _ in result.edges} == {("a", "b"), ("b", "c")}
        assert abs(result.total_weight - 0.3) < 1e-15

    def test_two_nodes(self):
        u = undirected(("x", "y"), [[0.0, 0.4], [0.4, 0.0]])
        result = mst.kruskal(u)
        assert result.edges == (("x", "y", 0.4),)
        assert result.total_weight == 0.4

    def test_wrong_kind_rejected(self):
        m = aff.AffinityMatrix(("a", "b"), np.zeros((2, 2)), aff.DIRECTED_M)
        with pytest.raises(NotUndirected):
            mst.kruskal(m)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(17)
        names = tuple("abcdef")
        for _ in range(20):
            u = random_u(rng, names)
            result = mst.kruskal(u)
            assert result.total_weight == min_spanning_weight(u.values)
            assert len(result.edges) == 5

    def test_node_permutation_gives_same_edge_set(self):
        rng = np.random.default_rng(3)
        names = tuple("pqrst")
        u = random_u(rng, names)
        base = mst.kruskal(u)
        perm = rng.permutation(5)
        permuted = undirected(
            tuple(names[i] for i in perm), u.values[np.ix_(perm, perm)]
        )
        assert set(mst.kruskal(permuted).edges) == set(base.edges)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_cut_property_spot_check(self, seed):
        rng = np.random.default_rng(seed)
        names = tuple("abcde")
        u = random_u(rng, names)
        result = mst.kruskal(u)
        chosen = {(a, b) for a, b, _ in result.edges}
        weight = {(a, b): w for a, b, w in result.edges}
        # adding any non-tree edge closes a cycle whose max edge is >= it:
        # equivalently no non-tree edge is lighter than every tree edge
        lightest_tree = min(weight.values())
        for i in range(5):
            for j in range(i + 1, 5):
                a, b = sorted((names[i], names[j]))
                if (a, b) not in chosen:
                    assert u.values[i, j] >= lightest_tree


class TestExport:
    def test_dot_edge_count(self, tmp_path):
        result = mst.kruskal(TRIANGLE)
        mst.export(result, tmp_path)
        text = (tmp_path / "mst.dot").read_text()
        assert text.count(" -- ") == 2
        assert 'label="0.100"' in text

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path):
        mst.export(mst.kruskal(undirected(('a"b', "c\\", "d"), TRIANGLE.values)), tmp_path)
        lines = (tmp_path / "mst.dot").read_text(encoding="utf-8").splitlines()
        assert lines == [
            "graph affinity {",
            '  "a\\"b";',
            '  "c\\\\";',
            '  "d";',
            '  "a\\"b" -- "c\\\\" [len=0.1, label="0.100"];',
            '  "c\\\\" -- "d" [len=0.2, label="0.200"];',
            "}",
        ]
        # each quoted id closes where it should and unescapes to its name
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        ids = [re.sub(r"\\(.)", r"\1", q) for line in lines[1:-1]
               for q in quoted.findall(line.partition(" [")[0])]
        assert ids == ['a"b', "c\\", "d", 'a"b', "c\\", "c\\", "d"]

    def test_json_round_trip(self, tmp_path):
        result = mst.kruskal(TRIANGLE)
        mst.export(result, tmp_path)
        with open(tmp_path / "mst.json", encoding="utf-8") as f:
            back = json.load(f)
        assert tuple(back["nodes"]) == result.nodes
        assert tuple((e["a"], e["b"], e["w"]) for e in back["edges"]) == result.edges
        assert back["total_weight"] == result.total_weight

    def test_byte_identical_across_runs(self, tmp_path):
        rng = np.random.default_rng(0)
        u = random_u(rng, tuple("abcdefg"))
        for run in ("one", "two"):
            (tmp_path / run).mkdir()
            mst.export(mst.kruskal(u), tmp_path / run)
        for name in ("mst.dot", "mst.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_json_contents(self, tmp_path):
        result = mst.kruskal(TRIANGLE)
        mst.export(result, tmp_path)
        payload = json.loads((tmp_path / "mst.json").read_text())
        assert payload["nodes"] == ["a", "b", "c"]
        assert abs(payload["total_weight"] - 0.3) < 1e-15
        assert all(set(e) == {"a", "b", "w"} for e in payload["edges"])
