"""Command-line orchestration of the translation / evaluation / affinity pipeline.

Subcommands: synth | train | translate | eval | affinity | grid | mst; `grid`
runs the whole experiment (pipeline.run_grid), the others one step each.

Every command takes `--out`; all but `synth` and `mst` require `--config`, a JSON
file holding data only, as `synth` writes it: the feature-set registry (`features`:
name -> vec/ids paths), checked whole when read, and the ground truth (`gt`); any
other key is a data error. Every training setting is a flag of `train` and `grid`,
defaulting to the library's. Every command loads and L2-normalizes each set it names once;
`train` and `grid` train via pipeline.train_pair, which builds the model before it makes
`--out`. An input file that cannot be opened exits 3, with the OS message naming it.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import affinity as aff
from . import feature_io as fio
from . import mst as mst_mod
from . import pipeline, retrieval, synth, translator
from .errors import DataError, InvalidConfig, NumericError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _check_path(value, where: str) -> None:
    """DataError naming `where` unless `value` is a path string open() takes
    (fio.is_path_text). Only a string is quoted: deep JSON cannot be."""
    if not isinstance(value, str):
        raise DataError(f"{where} must be a path string")
    if not fio.is_path_text(value):
        raise DataError(f"{where} holds a NUL or a character no file name can hold: {value!r}")


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            config = json.load(f)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise DataError(f"{path}: malformed config JSON: {exc}") from None
    if not isinstance(config, dict):
        raise DataError(f"{path}: config must be a JSON object")
    for key in config:
        if key not in ("features", "gt"):
            raise DataError(f"{path}: unknown config key {key!r} (a config holds 'features' "
                            "and 'gt'; every training setting is a flag)")
    if not isinstance(config.setdefault("features", {}), dict):
        raise DataError("config key 'features' must be an object of feature sets")
    for name, entry in config["features"].items():
        if not isinstance(entry, dict):
            raise DataError(f"config registry entry {name!r} must be an object with 'vec' and 'ids'")
        for key in ("vec", "ids"):
            _check_path(entry.get(key), f"config registry entry {name!r} key {key!r}")
    if "gt" in config:
        _check_path(config["gt"], "config key 'gt'")
    return config


def _load_sets(config: dict, names) -> list[fio.FeatureSet]:
    """The registered sets of `names`, in order; each is loaded and L2-normalized once."""
    sets = {}
    for name in dict.fromkeys(names):
        if name not in config["features"]:
            raise DataError(f"feature set {name!r} not found in config registry")
        entry = config["features"][name]
        sets[name] = fio.l2_normalize(fio.load_feature_set(entry["vec"], entry["ids"], name))
    return [sets[n] for n in names]


def _load_names(args, config: dict) -> tuple[tuple[str, ...], dict[str, fio.FeatureSet]]:
    """The `--names` (default: every registry name, sorted) and their loaded sets."""
    names = tuple(args.names.split(",") if args.names else sorted(config["features"]))
    return names, dict(zip(names, _load_sets(config, names)))


def _ground_truth(config: dict) -> fio.GroundTruth:
    """The ground truth at the config's 'gt' path, which _load_config checked."""
    if "gt" not in config:
        raise DataError("config has no 'gt' ground-truth path")
    return fio.load_ground_truth(config["gt"])


def _training(args) -> translator.TrainConfig:
    """The training flags as a TrainConfig, whose seed also seeds the model."""
    return translator.TrainConfig(lr=args.lr, batch_size=args.batch, max_epochs=args.epochs,
                                  patience=args.patience, seed=args.seed)


def cmd_synth(args) -> int:
    members = []
    for item in args.members.split(","):
        name, _, family = item.partition(":")
        members.append((name, family or "orthogonal_linear"))
    spec = synth.SynthSpec(
        n_vectors=args.n, latent_dim=args.latent_dim, output_dim=args.dim, members=tuple(members),
        noise_sigma=args.noise, n_clusters=args.clusters, seed=args.seed,
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
    translator.check_latent(args.kind, args.latent)
    config = _load_config(args.config)
    cfg = _training(args)
    model_path = Path(args.out) / pipeline.model_file(args.source, args.target)
    paired = fio.align_pairs(*_load_sets(config, (args.source, args.target)))
    model, tlog = pipeline.train_pair(paired, cfg, cfg.seed, args.latent, args.kind, args.out)
    print(f"trained {args.source}->{args.target} ({model.kind}): {tlog.epochs_run} epochs, "
          f"best val total {min(tlog.val_total):.6f} -> {model_path}")
    return EXIT_OK


def cmd_translate(args) -> int:
    config = _load_config(args.config)
    model = translator.load_model(args.model)
    vec = Path(args.out) / pipeline.model_file(model.source_name, model.target_name)
    vec = vec.with_suffix(".vec")
    (src,) = _load_sets(config, (args.source,))
    vec.parent.mkdir(parents=True, exist_ok=True)
    translated = translator.translate(model, src)
    fio.save_feature_set(translated, vec, vec.with_suffix(".ids"))
    print(f"translated {len(translated)} vectors -> {vec}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    csv_path = Path(args.out) / pipeline.model_file(args.source, args.target)
    csv_path = csv_path.with_suffix(".eval.csv")
    model = translator.load_model(args.model)
    names = (args.source, args.target, args.queries or args.target)
    source_refs, target, queries = _load_sets(config, names)
    gt = _ground_truth(config)
    csv_path.parent.mkdir(parents=True, exist_ok=True)

    direct = retrieval.evaluate(queries, target, gt)
    translated = retrieval.cross_feature_evaluate(model, source_refs, queries, gt)
    retrieval.write_eval_csv(translated, csv_path)
    print(f"target mAP(%):     {direct.map:.2f}")
    print(f"translated mAP(%): {translated.map:.2f}")
    print(f"difference:        {direct.map - translated.map:.2f}")
    return EXIT_OK


def cmd_affinity(args) -> int:
    names, sets = _load_names(args, _load_config(args.config))
    pipeline.check_names(sets, names)
    models_dir = Path(args.models_dir)

    def entry(s: str, t: str) -> float:
        model = translator.load_model(models_dir / pipeline.model_file(s, t))
        return aff.dam_entry(model, fio.align_pairs(sets[s], sets[t]))

    m = aff.AffinityMatrix(names, [[entry(s, t) for t in names] for s in names], aff.DIRECTED_M)
    r, c = aff.normalize_rows(m), aff.normalize_cols(m)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_matrices((m, r, c, aff.uam(r, c)), out)
    print(f"wrote M/R/C/U ({len(names)}x{len(names)}) to {out}")
    return EXIT_OK


def cmd_grid(args) -> int:
    config = _load_config(args.config)
    cfg = _training(args)
    names, sets = _load_names(args, config)
    gt = _ground_truth(config)
    grid = pipeline.run_grid(sets, gt, names, cfg, cfg.seed, args.latent, args.out)
    pipeline.write_grid(grid, args.out)
    print(f"wrote {len(grid.pairs)} models, M/R/C/U, MST and retrieval_summary.csv to {args.out}")
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
    out = argparse.ArgumentParser(add_help=False)  # shared by every command
    out.add_argument("--out", required=True)
    registry = argparse.ArgumentParser(add_help=False)  # the commands that read a registry
    registry.add_argument("--config", required=True,
                          help="JSON holding the 'features' registry and the 'gt' path")
    training = argparse.ArgumentParser(add_help=False)  # the flags of train and grid
    default = translator.TrainConfig()
    training.add_argument("--latent", type=int, default=translator.DEFAULT_LATENT_DIM)
    training.add_argument("--lr", type=float, default=default.lr)
    training.add_argument("--batch", type=int, default=default.batch_size)
    training.add_argument("--epochs", type=int, default=default.max_epochs)
    training.add_argument("--patience", type=int, default=default.patience)
    training.add_argument("--seed", type=int, default=default.seed,
                          help="seeds the model and its training")

    p = sub.add_parser("synth", parents=[out], help="generate synthetic paired feature sets")
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

    p = sub.add_parser("train", parents=[out, registry, training],
                       help="train a translator for one (source, target) pair")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--kind", choices=[translator.KIND_HAE, translator.KIND_MLP],
                   type=lambda k: translator.KIND_MLP if k == "mlp" else k,
                   default=translator.KIND_HAE, help='"mlp" is short for mlp_baseline')
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", parents=[out, registry],
                       help="apply a trained translator to a feature set")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("eval", parents=[out, registry],
                       help="retrieval mAP of translated vs target features")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--queries")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "affinity", parents=[out, registry],
        help="build M/R/C/U matrices from models trained elsewhere, with M measured on "
             "whichever sets are registered (grid measures M on held-out ids)",
    )
    p.add_argument("--models-dir", required=True)
    p.add_argument("--names", help="comma list; defaults to all registry names")
    p.set_defaults(func=cmd_affinity)

    p = sub.add_parser(
        "grid", parents=[out, registry, training],
        help="the paper's experiment: an HAE for every ordered pair, M on held-out ids, "
             "R/C/U, the MST and a retrieval summary",
    )
    p.add_argument("--names", help="comma list; defaults to all registry names")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("mst", parents=[out], help="minimum spanning tree from a U matrix CSV")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_mst)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
