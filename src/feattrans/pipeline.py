"""The paper's affinity experiment over N feature types in one call: train an HAE
for every ordered pair on the first TRAIN_FRACTION of ids, measure M on the rest,
derive R, C, U and U's MST, and score direct and translated mAP over the full sets.
Each pair's model is trained, written to its .haet file, scored and dropped
before the next pair's is built, so one model is alive at a time."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

from . import affinity, mst, retrieval, translator
from .errors import DataError
from .feature_io import FeatureSet, GroundTruth, align_pairs

TRAIN_FRACTION = 0.8  # of the first name's ids, in file order; M uses the rest


@dataclass(frozen=True)
class GridResult:
    names: tuple[str, ...]
    logs: dict[tuple[str, str], translator.TrainLog]
    dam: affinity.AffinityMatrix  # on the held-out ids
    row_norm: affinity.AffinityMatrix
    col_norm: affinity.AffinityMatrix
    uam: affinity.AffinityMatrix
    tree: mst.MstResult
    direct_map: dict[str, float]  # name -> mAP of the set against itself
    translated_map: dict[tuple[str, str], float]  # (s, t), s != t -> mAP of s translated into t


def model_file(source: str, target: str) -> str:
    """The file name of the (source, target) pair's model."""
    return f"{source}2{target}.haet"


def check_names(sets: dict[str, FeatureSet], names: tuple[str, ...]) -> None:
    """DataError unless `names` are at least two distinct names of `sets`, each
    set holds every id of the first, and no two ordered pairs share a model file."""
    if len(names) < 2:
        raise DataError(f"a grid needs at least two feature-set names, got {list(names)}")
    if len(set(names)) != len(names):
        raise DataError(f"duplicate feature-set names in {list(names)}")
    for n in names:
        if n not in sets:
            raise DataError(f"unknown feature-set name {n!r}")
        lacking = set(sets[names[0]].ids).difference(sets[n].ids)
        if lacking:
            raise DataError(f"feature set {n!r} lacks {len(lacking)} ids of {names[0]!r}")
    owner: dict[str, tuple[str, str]] = {}
    for pair in itertools.product(names, names):
        other = owner.setdefault(model_file(*pair), pair)
        if other != pair:
            raise DataError(f"pairs {other} and {pair} share the model file {model_file(*pair)}")


def run_grid(
    sets: dict[str, FeatureSet], gt: GroundTruth, names: tuple[str, ...],
    cfg: translator.TrainConfig, model_seed: int, latent_dim: int, out_dir,
) -> GridResult:
    """Run the grid over `names`, writing each pair's model as model_file(s, t)
    into the existing directory `out_dir`."""
    names = tuple(names)
    check_names(sets, names)
    ids = sets[names[0]].ids
    cut = int(TRAIN_FRACTION * len(ids))
    train_ids, eval_ids = ids[:cut], ids[cut:]
    out_dir = Path(out_dir)
    logs, translated = {}, {}

    def entry(s: str, t: str) -> float:
        model = translator.build(sets[s].dim, sets[t].dim, latent_dim, translator.KIND_HAE,
                                 seed=model_seed, source_name=s, target_name=t)
        paired = align_pairs(sets[s].take(train_ids), sets[t].take(train_ids))
        model, logs[(s, t)] = translator.train(model, paired, cfg)
        translator.save_model(model, out_dir / model_file(s, t))
        if s != t:
            translated[(s, t)] = retrieval.cross_feature_evaluate(model, sets[s], sets[t], gt).map
        return affinity.dam_entry(model, align_pairs(sets[s].take(eval_ids), sets[t].take(eval_ids)))

    dam = affinity.directed_matrix(names, entry)
    r, c = affinity.normalize_rows(dam), affinity.normalize_cols(dam)
    u = affinity.uam(r, c)
    direct = {n: retrieval.evaluate(sets[n], sets[n], gt).map for n in names}
    return GridResult(names, logs, dam, r, c, u, mst.kruskal(u), direct, translated)
