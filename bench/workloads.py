"""The benchmark's three workloads.

Each workload has a `setup` (synthetic data, splits and untrained models,
all derived from the run's seed), a timed `run` that calls the library's
public API as one closed-loop caller, and a `check` of the run's outputs,
made outside the timed region. README.md says why each workload exists.
"""
from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from conftest import GRID_CFG, GRID_NAMES, GRID_SPEC
from feattrans import affinity, feature_io, mst, retrieval, synth, translator
from oracles import ap_enumeration, min_spanning_weight

HERE = Path(__file__).resolve().parent


class Meter:
    """Counts the library calls a round makes and the time spent in some."""

    def __init__(self):
        self.ops = 0
        self.seconds: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)

    def call(self, fn, *args, kind: str | None = None, **kwargs):
        self.ops += 1
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        if kind is not None:
            self.seconds[kind] += time.perf_counter() - start
        return result

    def train(self, model, paired, cfg):
        model, log = self.call(translator.train, model, paired, cfg, kind="train")
        self.items["train"] += len(paired) * log.epochs_run
        return model, log

    def evaluate(self, fn, *args):
        result = self.call(fn, *args, kind="eval")
        self.items["eval"] += result.n_queries
        return result


def _subset(fs: feature_io.FeatureSet, keep: set[str]) -> feature_io.FeatureSet:
    take = [i for i, x in enumerate(fs.ids) if x in keep]
    return feature_io.FeatureSet(
        fs.name, tuple(fs.ids[i] for i in take), fs.vectors[take], fs.normalized
    )


def _ap_checks(label, result, queries, refs, gt, rng, n):
    """Compare the library's AP with the brute-force oracle on n sampled queries."""
    checks = []
    for qid in map(str, rng.choice(sorted(result.per_query_ap), size=n, replace=False)):
        want = ap_enumeration(
            qid, queries.row(qid).tolist(), refs.ids, refs.vectors.tolist(), gt.relevant[qid]
        )
        got = result.per_query_ap[qid]
        checks.append((f"{label} AP({qid}) == oracle", abs(got - want) <= 1e-12, f"{got!r} vs {want!r}"))
    return checks


class GridTest:
    """The paper's pipeline at test scale: the N x N grid of tests/conftest.py."""

    name = "grid_test"
    latent = 24
    # The inputs are the suite's grid fixture exactly: data seed 11, model
    # seed 1, training seed 0. Its checks include the paper's error-ordering
    # assumption (min M >= -0.02), which other data or model seeds break at
    # this scale, so the run's seed only picks the queries the AP oracle checks.
    model_seed = 1

    def seeds(self, seed: int) -> dict:
        return {"data": GRID_SPEC.seed, "model": self.model_seed, "train": GRID_CFG.seed, "ap_sample": seed}

    def setup(self, seed: int) -> dict:
        data = synth.generate(GRID_SPEC)
        sets = data.feature_sets
        ids = sets[GRID_NAMES[0]].ids
        holdout = set(ids[int(0.8 * len(ids)):])
        train_ids = set(ids) - holdout
        grid = list(itertools.product(GRID_NAMES, GRID_NAMES))
        dim = GRID_SPEC.output_dim
        return {
            "data": data,
            "holdout": {n: _subset(sets[n], holdout) for n in GRID_NAMES},
            "pairs": {
                (s, t): feature_io.align_pairs(_subset(sets[s], train_ids), _subset(sets[t], train_ids))
                for s, t in grid
            },
            "models": {
                (s, t): translator.build(
                    dim, dim, latent_dim=self.latent, kind=translator.KIND_HAE,
                    seed=self.model_seed, source_name=s, target_name=t,
                )
                for s, t in grid
            },
        }

    def run(self, state: dict, meter: Meter, workdir: Path) -> dict:
        names = GRID_NAMES
        sets, gt = state["data"].feature_sets, state["data"].ground_truth
        trained = {}
        for pair, model in state["models"].items():
            trained[pair], _ = meter.train(model, state["pairs"][pair], GRID_CFG)

        # files round trip, as `feattrans affinity` reads its inputs
        for n in names:
            meter.call(feature_io.save_feature_set, state["holdout"][n],
                       workdir / f"{n}.vec", workdir / f"{n}.ids")
        for (s, t), model in trained.items():
            meter.call(translator.save_model, model, workdir / f"{s}2{t}.haet")
        held = {
            n: meter.call(feature_io.load_feature_set, workdir / f"{n}.vec", workdir / f"{n}.ids", n)
            for n in names
        }
        models = {
            (s, t): meter.call(translator.load_model, workdir / f"{s}2{t}.haet")
            for s, t in trained
        }
        eval_pairs = {
            (s, t): meter.call(
                feature_io.align_pairs, held[s], meter.call(feature_io.l2_normalize, held[t])
            )
            for s, t in models
        }

        m = meter.call(affinity.build_dam, models, eval_pairs, names)
        r = meter.call(affinity.normalize_rows, m)
        c = meter.call(affinity.normalize_cols, m)
        u = meter.call(affinity.uam, r, c)
        tree = meter.call(mst.kruskal, u)

        direct = {n: meter.evaluate(retrieval.evaluate, sets[n], sets[n], gt) for n in names}
        cross = {
            (s, t): meter.evaluate(retrieval.cross_feature_evaluate, models[(s, t)], sets[s], sets[t], gt)
            for s, t in models if s != t
        }
        return {"m": m, "u": u, "tree": tree, "models": models, "direct": direct, "cross": cross}

    def check(self, state: dict, out: dict, seed: int) -> list[tuple[str, bool, str]]:
        sets, gt = state["data"].feature_sets, state["data"].ground_truth
        m, u, tree = out["m"].values, out["u"], out["tree"]
        asym = float(np.abs(u.values - u.values.T).max())
        homologous = u.entry("fa", "fb")
        heterogeneous = float(np.mean([u.entry(s, t) for s in ("fa", "fb") for t in ("fc", "fd")]))
        idx = {n: i for i, n in enumerate(u.names)}
        # re-sum the chosen edges in the oracle's order so equality can be exact
        chosen = sum(u.values[i, j] for i, j in sorted((idx[a], idx[b]) for a, b, _ in tree.edges))
        oracle = min_spanning_weight(u.values)
        checks = [
            ("U symmetric", asym <= 1e-12, f"max asymmetry {asym:.1e}"),
            ("U in [0, 1]", bool(u.values.min() >= 0.0 and u.values.max() <= 1.0),
             f"[{u.values.min():.4f}, {u.values.max():.4f}]"),
            ("min M >= -0.02", float(m.min()) >= -0.02, f"{m.min():.4f}"),
            ("U(fa, fb) < heterogeneous mean", homologous < heterogeneous,
             f"{homologous:.4f} vs {heterogeneous:.4f}"),
            ("MST weight == oracle", bool(chosen == oracle), f"{chosen!r} vs {oracle!r}"),
        ]
        rng = np.random.default_rng(seed)
        for n, result in out["direct"].items():
            checks += _ap_checks(f"direct {n}", result, sets[n], sets[n], gt, rng, 2)
        for (s, t), result in out["cross"].items():
            refs = translator.translate(out["models"][(s, t)], sets[s])
            checks += _ap_checks(f"cross {s}->{t}", result, sets[t], refs, gt, rng, 1)
        return checks


class PaperPair:
    """One HAE at the paper's shape: 2048 -> 2048, latent 510, batch 64."""

    name = "paper_pair"
    dim = 2048
    n_train = 384
    n_holdout = 256
    # lr 1e-3 so that six steps move the loss far enough for its check to bite
    cfg = dict(lr=1e-3, batch_size=64, max_epochs=1, patience=1)
    loss_tolerance = 1e-6  # relative, for seeds with a recorded reference
    band_tolerance = 0.05  # relative margin on the recorded range, other seeds

    def seeds(self, seed: int) -> dict:
        return {"data": seed, "model": seed, "train": seed}

    def setup(self, seed: int) -> dict:
        spec = synth.SynthSpec(
            n_vectors=self.n_train + self.n_holdout,
            latent_dim=64,
            output_dim=self.dim,
            members=(("src", "orthogonal_linear"), ("tgt", "nonlinear_mlp")),
            noise_sigma=0.01,
            n_clusters=32,
            seed=seed,
        )
        sets = synth.generate(spec).feature_sets
        ids = sets["src"].ids
        train_ids, hold_ids = set(ids[: self.n_train]), set(ids[self.n_train:])
        return {
            "train": feature_io.align_pairs(_subset(sets["src"], train_ids), _subset(sets["tgt"], train_ids)),
            "holdout": feature_io.align_pairs(_subset(sets["src"], hold_ids), _subset(sets["tgt"], hold_ids)),
            "model": translator.build(self.dim, self.dim, seed=seed, source_name="src", target_name="tgt"),
            "cfg": translator.TrainConfig(seed=seed, **self.cfg),
        }

    def run(self, state: dict, meter: Meter, workdir: Path) -> dict:
        model, log = meter.train(state["model"], state["train"], state["cfg"])
        dam = meter.call(affinity.dam_entry, model, state["holdout"])
        path = workdir / "src2tgt.haet"
        meter.call(translator.save_model, model, path)
        loaded = meter.call(translator.load_model, path)
        return {"model": model, "log": log, "dam": dam, "loaded": loaded}

    def check(self, state: dict, out: dict, seed: int) -> list[tuple[str, bool, str]]:
        loss = out["log"].train_total[-1]
        with open(HERE / "references.json", encoding="utf-8") as f:
            refs = json.load(f)["paper_pair_train_total"]
        if str(seed) in refs:
            want = refs[str(seed)]
            loss_check = (f"loss after 6 steps == seed {seed} reference",
                          abs(loss - want) <= self.loss_tolerance * abs(want), f"{loss!r} vs {want!r}")
        else:
            lo = min(refs.values()) * (1 - self.band_tolerance)
            hi = max(refs.values()) * (1 + self.band_tolerance)
            loss_check = ("loss after 6 steps within the recorded seeds' range",
                          lo <= loss <= hi, f"{loss!r} in [{lo:.6f}, {hi:.6f}]")
        src = state["holdout"].source
        same = np.array_equal(
            translator.translate(out["model"], src).vectors,
            translator.translate(out["loaded"], src).vectors,
        )
        return [
            loss_check,
            ("one epoch ran", out["log"].epochs_run == 1, f"{out['log'].epochs_run} epochs"),
            ("dam entry finite", bool(np.isfinite(out["dam"])), f"{out['dam']!r}"),
            ("loaded model translates bit-identically", same, ""),
        ]


class RetrievalPaper:
    """`feattrans eval` at paper feature width, through an untrained HAE."""

    name = "retrieval_paper"
    dim = 2048

    def seeds(self, seed: int) -> dict:
        return {"data": seed, "model": seed, "ap_sample": seed}

    def setup(self, seed: int) -> dict:
        spec = synth.SynthSpec(
            n_vectors=800,
            latent_dim=64,
            output_dim=self.dim,
            members=(("ortho", "orthogonal_linear"), ("mlp", "nonlinear_mlp")),
            noise_sigma=0.01,
            n_clusters=100,
            seed=seed,
        )
        data = synth.generate(spec)
        model = translator.build(self.dim, self.dim, seed=seed, source_name="ortho", target_name="mlp")
        return {"data": data, "model": model}

    def run(self, state: dict, meter: Meter, workdir: Path) -> dict:
        sets, gt = state["data"].feature_sets, state["data"].ground_truth
        direct = meter.evaluate(retrieval.evaluate, sets["mlp"], sets["mlp"], gt)
        cross = meter.evaluate(
            retrieval.cross_feature_evaluate, state["model"], sets["ortho"], sets["mlp"], gt
        )
        return {"direct": direct, "cross": cross}

    def check(self, state: dict, out: dict, seed: int) -> list[tuple[str, bool, str]]:
        sets, gt = state["data"].feature_sets, state["data"].ground_truth
        rng = np.random.default_rng(seed)
        refs = translator.translate(state["model"], sets["ortho"])
        n = len(gt.relevant)
        return [
            ("every query scored", out["direct"].n_queries == n and out["cross"].n_queries == n,
             f"{out['direct'].n_queries}, {out['cross'].n_queries} of {n}"),
            *_ap_checks("direct", out["direct"], sets["mlp"], sets["mlp"], gt, rng, 2),
            *_ap_checks("cross", out["cross"], sets["mlp"], refs, gt, rng, 2),
        ]


WORKLOADS = {w.name: w for w in (GridTest(), PaperPair(), RetrievalPaper())}
