"""The paper's affinity experiment over N feature types in one call: train an HAE
for every ordered pair on the first TRAIN_FRACTION of ids, measure M on the rest,
derive R, C, U and U's MST, and score direct and translated mAP over the full sets.
Each pair's model is trained and written with its train log by train_pair, then
scored and dropped before the next pair's is built, so one model is alive at a time."""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

from . import affinity, mst, retrieval, translator
from .errors import DataError
from .feature_io import FeatureSet, GroundTruth, PairedSet, check_name

TRAIN_FRACTION = 0.8  # of the first name's ids, in file order; M uses the rest


@dataclass(frozen=True)
class PairRecord:
    log: translator.TrainLog
    dam: float  # M's entry, on the held-out ids
    translated_map: float | None  # mAP of the source translated into the target; None if s == t


@dataclass(frozen=True)
class GridResult:
    names: tuple[str, ...]
    pairs: dict[tuple[str, str], PairRecord]  # every ordered pair, row by row
    dam: affinity.AffinityMatrix  # on the held-out ids
    row_norm: affinity.AffinityMatrix
    col_norm: affinity.AffinityMatrix
    uam: affinity.AffinityMatrix
    tree: mst.MstResult
    direct_map: dict[str, float]  # name -> mAP of the set against itself


def model_file(source: str, target: str) -> str:
    """The (source, target) pair's model file name; DataError unless
    feature_io.check_name accepts both names."""
    return f"{check_name(source)}2{check_name(target)}.haet"


def check_names(sets: dict[str, FeatureSet], names: tuple[str, ...]) -> None:
    """DataError unless `names` are at least two distinct names of `sets`, each set named
    by its key and holding every id of the first, and no two ordered pairs share a model file."""
    if len(names) < 2:
        raise DataError(f"a grid needs at least two feature-set names, got {list(names)}")
    if len(set(names)) != len(names):
        raise DataError(f"duplicate feature-set names in {list(names)}")
    for n in names:
        if n not in sets:
            raise DataError(f"unknown feature-set name {n!r}")
        if sets[n].name != n:
            raise DataError(f"feature set {n!r} is named {sets[n].name!r}")
        lacking = set(sets[names[0]].ids).difference(sets[n].ids)
        if lacking:
            raise DataError(f"feature set {n!r} lacks {len(lacking)} ids of {names[0]!r}")
    owner: dict[str, tuple[str, str]] = {}
    for pair in itertools.product(names, names):
        other = owner.setdefault(model_file(*pair), pair)
        if other != pair:
            raise DataError(f"pairs {other} and {pair} share the model file {model_file(*pair)}")


def split_ids(ids: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(train ids, eval ids): the first TRAIN_FRACTION of `ids`, in order, and the rest."""
    cut = int(TRAIN_FRACTION * len(ids))
    return ids[:cut], ids[cut:]


def write_train_log(tlog: translator.TrainLog, path: Path) -> None:
    """Write one CSV row per epoch run: the epoch, then the six losses of `tlog`."""
    columns = ("train_translation", "train_reconstruction", "train_total",
               "val_translation", "val_reconstruction", "val_total")
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["epoch", *columns])
        w.writerows(zip(range(tlog.epochs_run), *(getattr(tlog, c) for c in columns)))


def train_pair(
    paired: PairedSet, cfg: translator.TrainConfig,
    model_seed: int, latent_dim: int, kind: str, out_dir,
) -> tuple[translator.TranslatorModel, translator.TrainLog]:
    """Build and train a `kind` translator on the aligned `paired`, then write
    model_file(s, t) and <s>2<t>.trainlog.csv into `out_dir`, made once the model is built."""
    source, target = paired.source, paired.target
    path = Path(out_dir) / model_file(source.name, target.name)
    model = translator.build(source.dim, target.dim, latent_dim, kind, seed=model_seed,
                             source_name=source.name, target_name=target.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    model, tlog = translator.train(model, paired, cfg)
    translator.save_model(model, path)
    write_train_log(tlog, path.with_suffix(".trainlog.csv"))
    return model, tlog


def run_grid(
    sets: dict[str, FeatureSet], gt: GroundTruth, names: tuple[str, ...],
    cfg: translator.TrainConfig, model_seed: int, latent_dim: int, out_dir,
) -> GridResult:
    """Run the grid over `names`: check them and the latent dim, score direct mAP, which
    checks `gt`, then score each ordered pair, row by row, into a PairRecord, writing its
    model and train log (train_pair) into `out_dir`, made if missing. Each pair's rows are
    taken once per split, in sorted id order, as align_pairs orders them."""
    names = tuple(names)
    check_names(sets, names)
    translator.check_latent(translator.KIND_HAE, latent_dim)
    direct = {n: retrieval.evaluate(sets[n], sets[n], gt).map for n in names}
    train_ids, eval_ids = (sorted(part) for part in split_ids(sets[names[0]].ids))

    def score(s: str, t: str) -> PairRecord:
        model, tlog = train_pair(PairedSet(sets[s].take(train_ids), sets[t].take(train_ids)),
                                 cfg, model_seed, latent_dim, translator.KIND_HAE, out_dir)
        translated = (retrieval.cross_feature_evaluate(model, sets[s], sets[t], gt).map
                      if s != t else None)
        held_out = PairedSet(sets[s].take(eval_ids), sets[t].take(eval_ids))
        return PairRecord(tlog, affinity.dam_entry(model, held_out), translated)

    pairs = {(s, t): score(s, t) for s in names for t in names}
    dam = affinity.AffinityMatrix(names, [[pairs[(s, t)].dam for t in names] for s in names],
                                  affinity.DIRECTED_M)
    r, c = affinity.normalize_rows(dam), affinity.normalize_cols(dam)
    u = affinity.uam(r, c)
    return GridResult(names, pairs, dam, r, c, u, mst.kruskal(u), direct)


def write_matrices(matrices, out_dir: Path) -> None:
    """Write M, R, C and U, in that order, as M.csv ... U.csv into `out_dir`."""
    for label, matrix in zip("MRCU", matrices):
        affinity.write_matrix_csv(matrix, out_dir / f"{label}.csv")


def write_grid(grid: GridResult, out_dir) -> None:
    """Write M/R/C/U.csv, mst.dot/.json and retrieval_summary.csv into the existing `out_dir`."""
    out_dir = Path(out_dir)
    write_matrices((grid.dam, grid.row_norm, grid.col_norm, grid.uam), out_dir)
    mst.export(grid.tree, out_dir)
    with open(out_dir / "retrieval_summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "direct_map", "translated_map", "drop", "u"])
        for (s, t), record in grid.pairs.items():
            if s == t:
                continue
            direct, translated = grid.direct_map[t], record.translated_map
            writer.writerow([
                s, t, f"{direct:.2f}", f"{translated:.2f}",
                f"{direct - translated:.2f}", f"{grid.uam.entry(s, t):.4f}",
            ])
