"""Shared trained fixtures.

Training is cheap at these scales (seconds) but shared session-wide so the
acceptance suite and the module tests reuse the same converged models.
"""
from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from feattrans import affinity, feature_io as fio, retrieval, synth, translator

# -- rotation pair: two orthogonal views of one clustered latent -------------

ROTATION_SPEC = synth.SynthSpec(
    n_vectors=1000,
    latent_dim=16,
    output_dim=32,
    members=(("a", "orthogonal_linear"), ("b", "orthogonal_linear")),
    noise_sigma=0.01,
    n_clusters=5,
    seed=42,
)

ROTATION_CFG = translator.TrainConfig(
    lr=1e-3, batch_size=64, max_epochs=150, patience=25, seed=0
)


@dataclass
class RotationFixture:
    data: synth.SynthResult
    train_pair: fio.PairedSet
    holdout_pair: fio.PairedSet
    model: translator.TranslatorModel
    log: translator.TrainLog
    train_seconds: float


@pytest.fixture(scope="session")
def rotation_fixture() -> RotationFixture:
    data = synth.generate(ROTATION_SPEC)
    a, b = data.feature_sets["a"], data.feature_sets["b"]
    ids = a.ids
    train_ids, holdout = ids[:900], ids[900:]
    train_pair = fio.align_pairs(a.take(train_ids), b.take(train_ids))
    holdout_pair = fio.align_pairs(a.take(holdout), b.take(holdout))
    model = translator.build(
        32, 32, latent_dim=24, kind="hae", seed=0, source_name="a", target_name="b"
    )
    started = time.monotonic()
    model, log = translator.train(model, train_pair, ROTATION_CFG)
    elapsed = time.monotonic() - started
    return RotationFixture(data, train_pair, holdout_pair, model, log, elapsed)


@dataclass
class SelfFixture:
    data: synth.SynthResult
    pair: fio.PairedSet
    model: translator.TranslatorModel
    log: translator.TrainLog


# the identity map needs a tight reconstruction; train longer and hotter
SELF_CFG = translator.TrainConfig(
    lr=2e-3, batch_size=64, max_epochs=300, patience=60, seed=0
)


@pytest.fixture(scope="session")
def self_fixture(rotation_fixture) -> SelfFixture:
    """Source == target translation on the rotation data's 'a' member."""
    a = rotation_fixture.data.feature_sets["a"]
    pair = fio.align_pairs(a, a)
    model = translator.build(
        32, 32, latent_dim=24, kind="hae", seed=3, source_name="a", target_name="a"
    )
    model, log = translator.train(model, pair, SELF_CFG)
    return SelfFixture(rotation_fixture.data, pair, model, log)


# -- 4-family grid: 2 homologous + 2 independent members ---------------------
#
# 100 clusters keep cluster mapping hard for the heterogenous pairs within
# the fixed epoch budget, so translation quality differences show up in mAP.

GRID_NAMES = ("fa", "fb", "fc", "fd")

GRID_SPEC = synth.SynthSpec(
    n_vectors=800,
    latent_dim=16,
    output_dim=32,
    members=(
        ("fa", "orthogonal_linear"),
        ("fb", "orthogonal_linear"),
        ("fc", "independent"),
        ("fd", "independent"),
    ),
    noise_sigma=0.01,
    n_clusters=100,
    seed=11,
)

GRID_CFG = translator.TrainConfig(
    lr=1e-3, batch_size=64, max_epochs=60, patience=60, seed=0
)


@dataclass
class GridFixture:
    data: synth.SynthResult
    names: tuple[str, ...]
    models: dict
    eval_pairs: dict  # held-out 20% split, used for DAM
    dam: affinity.AffinityMatrix
    row_norm: affinity.AffinityMatrix
    col_norm: affinity.AffinityMatrix
    uam: affinity.AffinityMatrix
    direct_map: dict  # name -> mAP of the feature set against itself
    translated_map: dict  # (s, t) -> mAP of translated refs
    drops: dict = field(default_factory=dict)  # (s, t) -> direct - translated


@pytest.fixture(scope="session")
def grid_fixture() -> GridFixture:
    data = synth.generate(GRID_SPEC)
    sets, gt = data.feature_sets, data.ground_truth
    ids = sets[GRID_NAMES[0]].ids
    cut = int(0.8 * len(ids))
    train_ids, holdout = ids[:cut], ids[cut:]

    models, eval_pairs = {}, {}
    for s, t in itertools.product(GRID_NAMES, GRID_NAMES):
        paired = fio.align_pairs(sets[s].take(train_ids), sets[t].take(train_ids))
        model = translator.build(
            32, 32, latent_dim=24, kind="hae", seed=1, source_name=s, target_name=t
        )
        model, _ = translator.train(model, paired, GRID_CFG)
        models[(s, t)] = model
        eval_pairs[(s, t)] = fio.align_pairs(sets[s].take(holdout), sets[t].take(holdout))

    dam = affinity.build_dam(models, eval_pairs, GRID_NAMES)
    row_norm = affinity.normalize_rows(dam)
    col_norm = affinity.normalize_cols(dam)
    u = affinity.uam(row_norm, col_norm)

    direct_map = {n: retrieval.evaluate(sets[n], sets[n], gt).map for n in GRID_NAMES}
    translated_map, drops = {}, {}
    for s, t in itertools.product(GRID_NAMES, GRID_NAMES):
        if s == t:
            continue
        translated_map[(s, t)] = retrieval.cross_feature_evaluate(
            models[(s, t)], sets[s], sets[t], gt
        ).map
        drops[(s, t)] = direct_map[t] - translated_map[(s, t)]

    return GridFixture(
        data=data,
        names=GRID_NAMES,
        models=models,
        eval_pairs=eval_pairs,
        dam=dam,
        row_norm=row_norm,
        col_norm=col_norm,
        uam=u,
        direct_map=direct_map,
        translated_map=translated_map,
        drops=drops,
    )
