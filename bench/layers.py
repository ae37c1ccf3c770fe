"""The layers the traced run times, and the per-layer metrics it derives.

A layer is a module of `src/feattrans`; the benchmark wraps its public
functions from outside, so the library itself carries no timing code. Work
counters are computed from array shapes and file sizes, not read from
hardware counters.
"""
from __future__ import annotations

import contextlib
import os
import sys

import numpy as np

from spans import Tracer, child_count, summarize


def _macs(stack) -> int:
    return sum(layer.in_dim * layer.out_dim for layer in stack.layers)


def _forward_work(counts, result, stack, batch, *_, **__):
    counts["nn_core.forward.flop"] += 2 * np.shape(batch)[0] * _macs(stack)


def _backward_work(counts, result, stack, tape, upstream_grad, *_, **__):
    # per layer: one GEMM for the weight gradient, one for the input gradient
    counts["nn_core.backward.flop"] += 4 * np.shape(upstream_grad)[0] * _macs(stack)


def _adam_work(counts, result, params, *_, **__):
    # reads p, g, m, v and writes p, m, v: seven passes over the parameters
    counts["nn_core.adam_step.bytes"] += 7 * sum(p.nbytes for p in params)


def _train_work(counts, result, *_, **__):
    counts["translator.train.epochs"] += result[1].epochs_run


def _rank_work(counts, result, query_id, query, refs, *_, **__):
    counts["retrieval.rank.bytes"] += refs.vectors.nbytes


def _file_work(key, *path_args):
    def count(counts, result, *args, **__):
        counts[key] += sum(os.path.getsize(args[i]) for i in path_args)
    return count


# (module, function, span name, work counter); normalize_rows, normalize_cols
# and uam share one span name, as one normalization step
WRAPPED = (
    ("nn_core", "forward", "nn_core.forward", _forward_work),
    ("nn_core", "backward", "nn_core.backward", _backward_work),
    ("nn_core", "euclid_loss", "nn_core.euclid_loss", None),
    ("nn_core", "adam_step", "nn_core.adam_step", _adam_work),
    ("translator", "train", "translator.train", _train_work),
    ("translator", "translate", "translator.translate", None),
    ("translator", "reconstruct", "translator.reconstruct", None),
    ("translator", "save_model", "translator.save_model", _file_work("translator.save_model.bytes", 1)),
    ("translator", "load_model", "translator.load_model", _file_work("translator.load_model.bytes", 0)),
    ("retrieval", "rank", "retrieval.rank", _rank_work),
    ("retrieval", "average_precision", "retrieval.average_precision", None),
    ("retrieval", "evaluate", "retrieval.evaluate", None),
    ("retrieval", "cross_feature_evaluate", "retrieval.cross_feature_evaluate", None),
    ("affinity", "dam_entry", "affinity.dam_entry", None),
    ("affinity", "build_dam", "affinity.build_dam", None),
    ("affinity", "normalize_rows", "affinity.normalize", None),
    ("affinity", "normalize_cols", "affinity.normalize", None),
    ("affinity", "uam", "affinity.normalize", None),
    ("mst", "kruskal", "mst.kruskal", None),
    ("feature_io", "save_feature_set", "feature_io.save_feature_set",
     _file_work("feature_io.save_feature_set.bytes", 1, 2)),
    ("feature_io", "load_feature_set", "feature_io.load_feature_set",
     _file_work("feature_io.load_feature_set.bytes", 0, 1)),
    ("feature_io", "align_pairs", "feature_io.align_pairs", None),
    ("feature_io", "l2_normalize", "feature_io.l2_normalize", None),
    ("synth", "generate", "synth.generate", None),
)

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "nn_core.adam_step.calls": "count",
    "nn_core.adam_step.self_s": "s",
    "nn_core.adam_step.bytes": "bytes",
    "nn_core.adam_step.gb_per_s": "GB/s",
    "nn_core.forward.calls": "count",
    "nn_core.forward.self_s": "s",
    "nn_core.forward.gflop": "GFLOP",
    "nn_core.forward.gflop_per_s": "GFLOP/s",
    "nn_core.backward.calls": "count",
    "nn_core.backward.self_s": "s",
    "nn_core.backward.gflop": "GFLOP",
    "nn_core.backward.gflop_per_s": "GFLOP/s",
    "nn_core.euclid_loss.calls": "count",
    "nn_core.euclid_loss.self_s": "s",
    "translator.train.calls": "count",
    "translator.train.self_s": "s",
    "translator.train.steps": "count",
    "translator.train.epochs": "count",
    "translator.translate.self_s": "s",
    "translator.reconstruct.self_s": "s",
    "translator.save_model.s": "s",
    "translator.save_model.bytes": "bytes",
    "translator.load_model.s": "s",
    "translator.load_model.bytes": "bytes",
    "retrieval.rank.calls": "count",
    "retrieval.rank.self_s": "s",
    "retrieval.rank.bytes": "bytes",
    "retrieval.average_precision.calls": "count",
    "retrieval.average_precision.self_s": "s",
    "retrieval.evaluate.self_s": "s",
    "retrieval.cross_feature_evaluate.self_s": "s",
    "affinity.dam_entry.self_s": "s",
    "affinity.build_dam.self_s": "s",
    "affinity.normalize.self_s": "s",
    "mst.kruskal.self_s": "s",
    "feature_io.save_feature_set.s": "s",
    "feature_io.save_feature_set.bytes": "bytes",
    "feature_io.load_feature_set.s": "s",
    "feature_io.load_feature_set.bytes": "bytes",
    "feature_io.align_pairs.self_s": "s",
    "feature_io.l2_normalize.self_s": "s",
    "synth.generate.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Swap every binding of each wrapped function, in every loaded
    `feattrans` module, for its traced wrapper; restore them on exit.

    Modules import each other's functions by name, so patching only the
    defining module would miss calls such as translator's own `forward`.
    """
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "feattrans"]
    patched = []
    for module_name, fn_name, span_name, count in WRAPPED:
        original = getattr(sys.modules[f"feattrans.{module_name}"], fn_name)
        wrapper = tracer.wrap(span_name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


def per_layer_metrics(tracer: Tracer, window: tuple[float, float], untraced_wall_s: float) -> dict:
    """Every PER_LAYER metric from the traced run's spans and counters.

    `window` is the traced timed region; the coverage is the share of it
    that layer self times account for.
    """
    stats = summarize(tracer.spans)
    counts = tracer.counts
    values: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer == "trace":
            continue
        entry = stats.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if stat in entry:
            values[name] = entry[stat]
        elif stat == "gflop":
            values[name] = counts[f"{layer}.flop"] / 1e9
        elif stat == "gflop_per_s":
            values[name] = _rate(counts[f"{layer}.flop"] / 1e9, entry["self_s"])
        elif stat == "gb_per_s":
            values[name] = _rate(counts[f"{layer}.bytes"] / 1e9, entry["self_s"])
        elif stat == "steps":
            values[name] = child_count(tracer.spans, "nn_core.adam_step", layer)
        else:
            values[name] = counts[name]
    start, end = window
    inside = [s for s in tracer.spans if s.start >= start and s.end <= end and s.parent < 0]
    wall = end - start
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced_wall_s
    values["trace.coverage"] = sum(s.end - s.start for s in inside) / wall
    return values


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0
