"""The paper's affinity experiment over N feature types in one call: train an HAE
for every ordered pair on the first TRAIN_FRACTION of ids, measure M on the rest,
derive R, C, U and U's MST, and score direct and translated mAP over the full sets."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import affinity, mst, retrieval, translator
from .feature_io import FeatureSet, GroundTruth, PairedSet, align_pairs

TRAIN_FRACTION = 0.8  # of the first name's ids, in file order; M uses the rest


@dataclass(frozen=True)
class GridResult:
    names: tuple[str, ...]
    models: dict[tuple[str, str], translator.TranslatorModel]
    logs: dict[tuple[str, str], translator.TrainLog]
    eval_pairs: dict[tuple[str, str], PairedSet]  # held-out split, used for M
    dam: affinity.AffinityMatrix
    row_norm: affinity.AffinityMatrix
    col_norm: affinity.AffinityMatrix
    uam: affinity.AffinityMatrix
    tree: mst.MstResult
    direct_map: dict[str, float]  # name -> mAP of the set against itself
    translated_map: dict[tuple[str, str], float]  # (s, t), s != t -> mAP of s translated into t


def run_grid(
    sets: dict[str, FeatureSet], gt: GroundTruth, names: tuple[str, ...],
    cfg: translator.TrainConfig, model_seed: int, latent_dim: int,
) -> GridResult:
    ids = sets[names[0]].ids
    cut = int(TRAIN_FRACTION * len(ids))
    train_ids, eval_ids = ids[:cut], ids[cut:]
    pairs = list(itertools.product(names, names))
    models, logs, eval_pairs = {}, {}, {}
    for s, t in pairs:
        model = translator.build(sets[s].dim, sets[t].dim, latent_dim, translator.KIND_HAE,
                                 seed=model_seed, source_name=s, target_name=t)
        paired = align_pairs(sets[s].take(train_ids), sets[t].take(train_ids))
        models[(s, t)], logs[(s, t)] = translator.train(model, paired, cfg)
        eval_pairs[(s, t)] = align_pairs(sets[s].take(eval_ids), sets[t].take(eval_ids))

    dam = affinity.build_dam(models, eval_pairs, names)
    r, c = affinity.normalize_rows(dam), affinity.normalize_cols(dam)
    u = affinity.uam(r, c)
    direct = {n: retrieval.evaluate(sets[n], sets[n], gt).map for n in names}
    translated = {
        (s, t): retrieval.cross_feature_evaluate(models[(s, t)], sets[s], sets[t], gt).map
        for s, t in pairs if s != t
    }
    return GridResult(
        tuple(names), models, logs, eval_pairs, dam, r, c, u, mst.kruskal(u), direct, translated
    )
