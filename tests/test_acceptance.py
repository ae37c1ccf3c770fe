"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (visible with ``pytest -s`` or on failure). Tolerances are fixed here,
not tuned at runtime. The paper-scale benchmark check is optional and only
runs when FEATTRANS_PAPER_FIXTURES points at externally supplied data.
"""
from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from feattrans import feature_io as fio
from feattrans import affinity, nn_core, retrieval, translator
from feattrans.mst import kruskal
from oracles import build_stack, finite_diff_grads, map_enumeration, min_spanning_weight
from test_mst import random_u


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _smooth_point(stack, rng, dims):
    """Sample an input/target pair away from ReLU kinks, near-zero norm rows
    and zero distances, where finite differences are ill-defined."""
    for _ in range(200):
        x = rng.normal(size=(4, dims[0]))
        tgt = rng.normal(size=(4, dims[-1]))
        out, tape = nn_core.forward(stack, x)
        margins = [  # the relu layers' affine outputs, as forward computed them
            np.abs(x_in @ layer.weights.T + layer.bias).min()
            for x_in, layer in zip(tape.inputs[:-1], stack.layers)
        ]
        if margins and min(margins) < 1e-2:
            continue
        if tape.norms is not None and tape.norms.min() < 0.1:
            continue
        if np.linalg.norm(out - tgt, axis=1).min() < 1e-2:
            continue
        return x, tgt
    raise AssertionError("could not find a smooth evaluation point")


def test_gradient_correctness():
    """Analytic backward vs central finite differences on 50 random stacks."""
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        n_layers = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(3, 9)) for _ in range(n_layers + 1))
        final_l2 = trial % 2 == 0  # half the stacks end in the L2 layer
        last_act = "linear" if trial % 3 else "relu"
        stack = build_stack(dims, final_l2, rng, last_activation=last_act)
        x, tgt = _smooth_point(stack, rng, dims)

        out, tape = nn_core.forward(stack, x)
        _, g = nn_core.euclid_loss(out, tgt)
        analytic, _ = nn_core.backward(stack, tape, g)

        def loss_fn():
            o, _ = nn_core.forward(stack, x)
            return nn_core.euclid_loss(o, tgt)[0]

        numeric = finite_diff_grads(loss_fn, stack.parameters(), h=1e-5)
        for a, n in zip(analytic, numeric):
            rel = np.abs(a - n) / np.maximum(np.abs(n), 1e-6)
            worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - started
    report(
        "gradient correctness (rel err < 1e-4, 50 stacks, < 30 s)",
        worst < 1e-4 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_map_oracle_equivalence():
    """evaluate() vs brute-force AP enumeration on 100 random instances."""
    started = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    while checked < 100:
        n_refs = int(rng.integers(10, 201))
        n_queries = int(rng.integers(1, min(21, n_refs)))
        dim = int(rng.integers(2, 8))
        ids = [f"r{k:03d}" for k in range(n_refs)]
        refs = fio.FeatureSet("refs", tuple(ids), rng.normal(size=(n_refs, dim)))
        qids = [ids[i] for i in rng.choice(n_refs, size=n_queries, replace=False)]
        qvecs = refs.vectors[[ids.index(q) for q in qids]] + 0.05 * rng.normal(
            size=(n_queries, dim)
        )
        queries = fio.FeatureSet("q", tuple(qids), qvecs)
        gt = {}
        for q in qids:
            rel = set(np.random.default_rng(checked).choice(ids, size=4)) - {q}
            if rel:
                gt[q] = frozenset(rel)
        if not gt:
            continue
        checked += 1
        got = retrieval.evaluate(queries, refs, fio.GroundTruth(gt)).map
        want = map_enumeration(
            queries.ids, queries.vectors.tolist(), refs.ids, refs.vectors.tolist(), gt
        )
        worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - started
    report(
        "mAP oracle equivalence (<= 1e-9, 100 instances, < 10 s)",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst abs diff {worst:.2e}, {elapsed:.1f} s",
    )


def test_mst_oracle_equivalence():
    """Kruskal vs exhaustive spanning-tree enumeration on 6-node graphs."""
    started = time.monotonic()
    rng = np.random.default_rng(99)
    ok = True
    names = tuple("abcdef")
    idx = {n: i for i, n in enumerate(names)}
    for _ in range(20):
        u = random_u(rng, names)
        tree = kruskal(u)
        # re-sum the chosen edges in the oracle's lexicographic order so the
        # float comparison is order-insensitive and can be exact
        pairs = sorted((idx[a], idx[b]) for a, b, _ in tree.edges)
        chosen_weight = sum(u.values[i, j] for i, j in pairs)
        ok = ok and chosen_weight == min_spanning_weight(u.values)
    elapsed = time.monotonic() - started
    report(
        "MST oracle equivalence (exact, 20 graphs, < 10 s)",
        ok and elapsed < 10.0,
        f"{elapsed:.1f} s",
    )


def test_synthetic_translation_regression(rotation_fixture):
    """Translated retrieval quality saturates near the target's own quality."""
    data = rotation_fixture.data
    b = data.feature_sets["b"]
    target_map = retrieval.evaluate(b, b, data.ground_truth).map
    translated_map = retrieval.cross_feature_evaluate(
        rotation_fixture.model, data.feature_sets["a"], b, data.ground_truth
    ).map
    ok = (
        translated_map >= target_map - 5.0
        and translated_map <= target_map + 1.0
        and rotation_fixture.train_seconds < 300.0
    )
    report(
        "synthetic translation regression (within [-5, +1] mAP points, < 5 min)",
        ok,
        f"target {target_map:.2f}, translated {translated_map:.2f}, "
        f"trained in {rotation_fixture.train_seconds:.0f} s",
    )


def test_self_translation_sanity(self_fixture):
    data = self_fixture.data
    a = data.feature_sets["a"]
    direct = retrieval.evaluate(a, a, data.ground_truth).map
    translated = retrieval.cross_feature_evaluate(
        self_fixture.model, a, a, data.ground_truth
    ).map
    diag = affinity.dam_entry(self_fixture.model, self_fixture.pair)
    ok = abs(direct - translated) <= 2.0 and abs(diag) < 0.02
    report(
        "self-translation sanity (mAP within 2 points, |diagonal| < 0.02)",
        ok,
        f"direct {direct:.2f}, translated {translated:.2f}, diagonal {diag:.4f}",
    )


def test_error_ordering_assumption(grid_fixture):
    """Translation error >= reconstruction error after convergence."""
    m_min = float(grid_fixture.dam.values.min())
    report(
        "error-ordering assumption (all directed entries >= -0.02)",
        m_min >= -0.02,
        f"min entry {m_min:.4f}",
    )


def test_uam_contract(grid_fixture):
    u = grid_fixture.uam
    symmetric = float(np.abs(u.values - u.values.T).max()) <= 1e-12
    bounded = u.values.min() >= 0.0 and u.values.max() <= 1.0

    # row/column affine invariance, exact: power-of-two scales and integer
    # shifts keep the min-max arithmetic in exactly representable floats
    rng = np.random.default_rng(13)
    invariant = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        values = rng.integers(-50, 50, size=(n, n)).astype(float)
        names = tuple(f"f{k}" for k in range(n))
        m = affinity.AffinityMatrix(names, values, affinity.DIRECTED_M)
        scale = float(2.0 ** rng.integers(-2, 3))
        shift = float(rng.integers(-20, 20))
        row = int(rng.integers(0, n))
        shifted = values.copy()
        shifted[row] = scale * shifted[row] + shift
        m2 = affinity.AffinityMatrix(names, shifted, affinity.DIRECTED_M)
        invariant &= np.array_equal(
            affinity.normalize_rows(m).values, affinity.normalize_rows(m2).values
        )
        col = int(rng.integers(0, n))
        shifted = values.copy()
        shifted[:, col] = scale * shifted[:, col] + shift
        m3 = affinity.AffinityMatrix(names, shifted, affinity.DIRECTED_M)
        invariant &= np.array_equal(
            affinity.normalize_cols(m).values, affinity.normalize_cols(m3).values
        )
    report(
        "UAM contract (symmetric <= 1e-12, in [0,1], affine invariance exact)",
        symmetric and bounded and invariant,
        f"max asymmetry {np.abs(u.values - u.values.T).max():.1e}",
    )


def test_uam_predictiveness(grid_fixture):
    """Lower undirected affinity value predicts smaller translated-mAP drop."""
    names = grid_fixture.names
    u_vals, drops = [], []
    for i, s in enumerate(names):
        for j, t in enumerate(names):
            if i == j:
                continue
            u_vals.append(grid_fixture.uam.values[i, j])
            drops.append(grid_fixture.direct_map[t] - grid_fixture.pairs[(s, t)].translated_map)
    rho = float(spearmanr(u_vals, drops).statistic)

    homologous = grid_fixture.uam.entry("fa", "fb")
    heterogenous = float(
        np.mean([grid_fixture.uam.entry(s, t) for s in ("fa", "fb") for t in ("fc", "fd")])
    )
    ok = rho > 0.0 and homologous < heterogenous
    report(
        "UAM predictiveness (Spearman > 0, homologous < heterogenous)",
        ok,
        f"rho {rho:.3f}, homologous {homologous:.3f}, heterogenous mean {heterogenous:.3f}",
    )


@pytest.mark.skipif(
    "FEATTRANS_PAPER_FIXTURES" not in os.environ,
    reason="optional check: needs externally supplied benchmark features "
    "(set FEATTRANS_PAPER_FIXTURES to the fixture directory)",
)
def test_benchmark_reproduction_external_data():
    """Optional, not CI: reproduce published benchmark numbers when the user
    supplies the extracted features.

    Expected layout under $FEATTRANS_PAPER_FIXTURES:
      refs.vec/refs.ids     R-GeM reference features (Oxford5k)
      queries.vec/queries.ids  R-GeM query features
      gt.tsv                ground truth in the toolkit's format
      vcrow2vspoc.haet      trained V-CroW -> V-SPoC translator
      vcrow_refs.vec/.ids   V-CroW reference features
      vspoc_queries.vec/.ids  V-SPoC query features
      vspoc_refs.vec/.ids   V-SPoC reference features
    """
    root = Path(os.environ["FEATTRANS_PAPER_FIXTURES"])
    refs = fio.load_feature_set(root / "refs.vec", root / "refs.ids", "R-GeM")
    queries = fio.load_feature_set(root / "queries.vec", root / "queries.ids", "R-GeM-q")
    gt = fio.load_ground_truth(root / "gt.tsv")
    got = retrieval.evaluate(queries, refs, gt).map
    report("benchmark target mAP (84.47 +/- 0.5)", abs(got - 84.47) <= 0.5, f"{got:.2f}")

    model = translator.load_model(root / "vcrow2vspoc.haet")
    src = fio.load_feature_set(root / "vcrow_refs.vec", root / "vcrow_refs.ids", "V-CroW")
    tq = fio.load_feature_set(
        root / "vspoc_queries.vec", root / "vspoc_queries.ids", "V-SPoC-q"
    )
    tr = fio.load_feature_set(root / "vspoc_refs.vec", root / "vspoc_refs.ids", "V-SPoC")
    direct = retrieval.evaluate(tq, tr, gt).map
    translated = retrieval.cross_feature_evaluate(model, src, tq, gt).map
    drop = direct - translated
    report("benchmark homologous drop (0.1 +/- 2.0)", abs(drop - 0.1) <= 2.0, f"{drop:.2f}")
