"""Command-line orchestration of the translation / evaluation / affinity pipeline.

Subcommands: synth | train | translate | eval | affinity | mst.

A JSON config file supplies the feature-set registry (name -> vec/ids paths)
and optional defaults for the training flags; explicit flags always win.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import affinity as aff
from . import feature_io as fio
from . import mst as mst_mod
from . import pipeline, retrieval, synth, translator
from .errors import DataError, InvalidConfig, MissingPair, NumericError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    with open(p, encoding="utf-8") as f:
        try:
            config = json.load(f)
        except ValueError as exc:
            raise DataError(f"{p}: malformed config JSON: {exc}") from None
    if not isinstance(config, dict):
        raise DataError(f"{p}: config must be a JSON object")
    return config


def _registry(config: dict) -> dict:
    features = config.get("features", {})
    if not isinstance(features, dict):
        raise DataError("config key 'features' must be an object of feature sets")
    return features


def _registry_paths(config: dict, name: str) -> tuple[Path, Path]:
    features = _registry(config)
    if name not in features:
        raise DataError(f"feature set {name!r} not found in config registry")
    entry = features[name]
    if not isinstance(entry, dict):
        raise DataError(f"config registry entry {name!r} must be an object with 'vec' and 'ids'")
    for key in ("vec", "ids"):
        if not isinstance(entry.get(key), str):
            raise DataError(f"config registry entry {name!r} needs a {key!r} path string")
    return Path(entry["vec"]), Path(entry["ids"])


def _load_registered(config: dict, name: str) -> fio.FeatureSet:
    vec, ids = _registry_paths(config, name)
    for p in (vec, ids):
        if not p.exists():
            raise DataError(f"input path does not exist: {p}")
    return fio.load_feature_set(vec, ids, name)


def _merged(args, config: dict, key: str, default, kind: type):
    """The flag if given, else the config value, else the default, as `kind`.

    A config value must be a JSON number: an integer for an int key, an
    integer or a float for a float key, and never true or false."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise DataError(f"config key {key!r} must be a {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise DataError(f"config key {key!r} is out of range") from None


def _train_config(args, config: dict) -> translator.TrainConfig:
    default = translator.TrainConfig()
    return translator.TrainConfig(
        lr=_merged(args, config, "lr", default.lr, float),
        batch_size=_merged(args, config, "batch", default.batch_size, int),
        max_epochs=_merged(args, config, "epochs", default.max_epochs, int),
        patience=_merged(args, config, "patience", default.patience, int),
        seed=_merged(args, config, "seed", default.seed, int),
    )


def _write_train_log(tlog: translator.TrainLog, path: Path) -> None:
    columns = ("train_translation", "train_reconstruction", "train_total",
               "val_translation", "val_reconstruction", "val_total")
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["epoch", *columns])
        w.writerows(zip(range(tlog.epochs_run), *(getattr(tlog, c) for c in columns)))


def cmd_synth(args) -> int:
    members = []
    for item in args.members.split(","):
        name, _, family = item.partition(":")
        members.append((name, family or "orthogonal_linear"))
    spec = synth.SynthSpec(
        n_vectors=args.n,
        latent_dim=args.latent_dim,
        output_dim=args.dim,
        members=tuple(members),
        noise_sigma=args.noise,
        n_clusters=args.clusters,
        seed=args.seed,
    )
    result = synth.generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    registry = {}
    for name, fs in result.feature_sets.items():
        vec, ids = out / f"{name}.vec", out / f"{name}.ids"
        fio.save_feature_set(fs, vec, ids)
        registry[name] = {"vec": str(vec), "ids": str(ids)}
    fio.save_ground_truth(result.ground_truth, out / "gt.tsv")
    with open(out / "config.json", "w", encoding="utf-8") as f:
        json.dump({"features": registry, "gt": str(out / "gt.tsv")}, f, indent=2)
    print(f"wrote {len(registry)} feature sets, gt.tsv and config.json to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args.config)
    cfg = _train_config(args, config)
    src = _load_registered(config, args.source)
    tgt = fio.l2_normalize(_load_registered(config, args.target))
    paired = fio.align_pairs(src, tgt)
    model = translator.build(
        source_dim=src.dim,
        target_dim=tgt.dim,
        latent_dim=_merged(args, config, "latent", translator.DEFAULT_LATENT_DIM, int),
        kind=args.kind,
        seed=cfg.seed,
        source_name=args.source,
        target_name=args.target,
    )
    model, tlog = translator.train(model, paired, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / f"{args.source}2{args.target}.haet"
    translator.save_model(model, model_path)
    _write_train_log(tlog, out / f"{args.source}2{args.target}.trainlog.csv")
    print(
        f"trained {args.source}->{args.target} ({model.kind}): "
        f"{tlog.epochs_run} epochs, best val total {min(tlog.val_total):.6f} "
        f"-> {model_path}"
    )
    return EXIT_OK


def cmd_translate(args) -> int:
    config = _load_config(args.config)
    model = translator.load_model(args.model)
    src = _load_registered(config, args.source)
    translated = translator.translate(model, src)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fio.save_feature_set(translated, out / f"{translated.name}.vec", out / f"{translated.name}.ids")
    print(f"translated {len(translated)} vectors -> {out / (translated.name + '.vec')}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    model = translator.load_model(args.model)
    source_refs = _load_registered(config, args.source)
    target = _load_registered(config, args.target)
    queries = _load_registered(config, args.queries) if args.queries else target
    gt_path = args.gt or config.get("gt")
    if gt_path is None:
        raise DataError("no ground-truth file given (--gt or config 'gt')")
    if not isinstance(gt_path, str):
        raise DataError(f"config key 'gt' must be a path string, got {gt_path!r}")
    if not Path(gt_path).exists():
        raise DataError(f"input path does not exist: {gt_path}")
    gt = fio.load_ground_truth(gt_path)

    direct = retrieval.evaluate(queries, target, gt)
    translated = retrieval.cross_feature_evaluate(model, source_refs, queries, gt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    retrieval.write_eval_csv(translated, out / f"{args.source}2{args.target}.eval.csv")
    print(f"target mAP(%):     {direct.map:.2f}")
    print(f"translated mAP(%): {translated.map:.2f}")
    print(f"difference:        {direct.map - translated.map:.2f}")
    return EXIT_OK


def cmd_affinity(args) -> int:
    config = _load_config(args.config)
    names = tuple(args.names.split(",") if args.names else sorted(_registry(config)))
    sets = {n: _load_registered(config, n) for n in dict.fromkeys(names)}
    pipeline.check_names(sets, names)
    models_dir = Path(args.models_dir)

    def entry(s: str, t: str) -> float:
        path = models_dir / pipeline.model_file(s, t)
        if not path.exists():
            raise MissingPair(s, t)
        model = translator.load_model(path)
        return aff.dam_entry(model, fio.align_pairs(sets[s], fio.l2_normalize(sets[t])))

    m = aff.directed_matrix(names, entry)
    r = aff.normalize_rows(m)
    c = aff.normalize_cols(m)
    u = aff.uam(r, c)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for label, matrix in (("M", m), ("R", r), ("C", c), ("U", u)):
        aff.write_matrix_csv(matrix, out / f"{label}.csv")
    print(f"wrote M/R/C/U ({len(names)}x{len(names)}) to {out}")
    return EXIT_OK


def cmd_mst(args) -> int:
    u = aff.read_matrix_csv(args.input, kind=aff.UNDIRECTED_U)
    result = mst_mod.kruskal(u)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mst_mod.export(result, out)
    print(f"MST: {len(result.edges)} edges, total weight {result.total_weight:.6f} -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="feattrans")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic paired feature sets")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--latent-dim", type=int, default=16)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--members",
        default="a:orthogonal_linear,b:orthogonal_linear",
        help="comma list of name:family",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a translator for one (source, target) pair")
    p.add_argument("--config")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--kind", choices=[translator.KIND_HAE, translator.KIND_MLP, "mlp"],
                   default=translator.KIND_HAE)
    p.add_argument("--latent", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="apply a trained translator to a feature set")
    p.add_argument("--config")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("eval", help="retrieval mAP of translated vs target features")
    p.add_argument("--config")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--queries")
    p.add_argument("--gt")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "affinity",
        help="build M/R/C/U matrices from trained models, with M measured on whichever "
             "sets are registered (pipeline.run_grid measures M on held-out ids)",
    )
    p.add_argument("--config")
    p.add_argument("--models-dir", required=True)
    p.add_argument("--names", help="comma list; defaults to all registry names")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_affinity)

    p = sub.add_parser("mst", help="minimum spanning tree from a U matrix CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mst)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kind", None) == "mlp":
        args.kind = translator.KIND_MLP
    try:
        return args.func(args)
    except InvalidConfig as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
