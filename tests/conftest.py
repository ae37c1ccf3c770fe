"""Shared trained fixtures.

Training is cheap at these scales (seconds) but shared session-wide so the
acceptance suite and the module tests reuse the same converged models.
"""
from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from feattrans import feature_io as fio, pipeline, synth, translator

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
GRID_LATENT = 24
GRID_MODEL_SEED = 1


@pytest.fixture(scope="session")
def grid_dir(tmp_path_factory) -> Path:
    """Where grid_fixture writes its 16 .haet models."""
    return tmp_path_factory.mktemp("grid")


@pytest.fixture(scope="session")
def grid_fixture(grid_dir) -> pipeline.GridResult:
    data = synth.generate(GRID_SPEC)
    return pipeline.run_grid(
        data.feature_sets, data.ground_truth, GRID_NAMES, GRID_CFG, model_seed=GRID_MODEL_SEED,
        latent_dim=GRID_LATENT, out_dir=grid_dir,
    )


def load_grid(grid_dir: Path):
    """grid_fixture's models, loaded from grid_dir, and the held-out pairs its
    M was measured on, both keyed by (source, target)."""
    sets = synth.generate(GRID_SPEC).feature_sets
    _, eval_ids = pipeline.split_ids(sets[GRID_NAMES[0]].ids)
    held = {n: sets[n].take(eval_ids) for n in GRID_NAMES}
    pairs = list(itertools.product(GRID_NAMES, repeat=2))
    models = {(s, t): translator.load_model(grid_dir / pipeline.model_file(s, t)) for s, t in pairs}
    return models, {(s, t): fio.align_pairs(held[s], held[t]) for s, t in pairs}
