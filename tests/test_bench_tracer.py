"""The benchmark's tracer (bench/layers.py) stays bound to the library: every
function it wraps still exists under its name, and the work counters it
derives from their arguments still count. `bench/run.py --trace 1` breaks
otherwise."""
import importlib
import sys
from pathlib import Path

import numpy as np

from feattrans import feature_io as fio, nn_core, retrieval, translator

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_train_translate_evaluate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    for module_name, *_ in layers.WRAPPED:
        importlib.import_module(f"feattrans.{module_name}")
    rng = np.random.default_rng(0)
    ids = tuple(f"i{k}" for k in range(12))
    src = fio.l2_normalize(fio.FeatureSet("s", ids, rng.normal(size=(12, 4))))
    tgt = fio.l2_normalize(fio.FeatureSet("t", ids, rng.normal(size=(12, 4))))
    gt = fio.GroundTruth({i: {j} for i, j in zip(ids, ids[1:])})

    with layers.traced(spans.Tracer("tier-1")) as tracer:
        for module_name, fn_name, *_ in layers.WRAPPED:
            fn = getattr(sys.modules[f"feattrans.{module_name}"], fn_name)
            assert hasattr(fn, "__wrapped__"), f"{module_name}.{fn_name} is not traced"
        model, _ = translator.train(
            translator.build(4, 4, 2, "hae", seed=0),
            fio.align_pairs(src, tgt),
            translator.TrainConfig(lr=1e-3, max_epochs=1),
        )
        retrieval.evaluate(translator.translate(model, src), tgt, gt)

    for key in ("nn_core.forward.flop", "nn_core.backward.flop", "nn_core.adam_step.bytes"):
        assert tracer.counts[key] > 0, key
    assert translator.forward is nn_core.forward  # bindings restored


def test_traced_split_adam_counts_each_step_once(monkeypatch):
    """A model large enough for adam_step to split across workers still
    shows one traced adam_step call per step, counting 7 passes over its
    parameters, so the per-layer Adam metrics keep their meaning."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(nn_core, "_WORKERS", 2)
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    rng = np.random.default_rng(1)
    ids = tuple(f"i{k}" for k in range(40))  # 36 train rows: 3 steps of 16 per epoch
    src = fio.l2_normalize(fio.FeatureSet("s", ids, rng.normal(size=(40, 256))))
    tgt = fio.l2_normalize(fio.FeatureSet("t", ids, rng.normal(size=(40, 256))))
    model = translator.build(256, 256, 64, "hae", seed=0)
    assert model.flat.size >= 2 * nn_core._ADAM_SPLIT_MIN  # two shares, one on a started thread

    with layers.traced(spans.Tracer("tier-1")) as tracer:
        _, log = translator.train(
            model, fio.align_pairs(src, tgt),
            translator.TrainConfig(lr=1e-3, batch_size=16, max_epochs=2),
        )

    steps = 3 * log.epochs_run
    assert log.epochs_run == 2
    assert spans.summarize(tracer.spans)["nn_core.adam_step"]["calls"] == steps
    assert tracer.counts["nn_core.adam_step.bytes"] == 7 * 8 * model.flat.size * steps


def test_traced_evaluate_opens_no_executor_and_is_one_span(monkeypatch):
    """An evaluate of several query blocks opens no executor, even with two
    usable cores, and shows one retrieval.evaluate span."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(nn_core, "_WORKERS", 2)
    monkeypatch.setattr(retrieval, "_BLOCK_BYTES", 8 * 40 * 4)  # 4 queries a block
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    started = []
    pool = nn_core.ThreadPoolExecutor
    monkeypatch.setattr(nn_core, "ThreadPoolExecutor", lambda *a: started.append(a) or pool(*a))
    rng = np.random.default_rng(2)
    ids = tuple(f"i{k:02d}" for k in range(40))
    fs = fio.FeatureSet("s", ids, rng.normal(size=(40, 8)))
    gt = fio.GroundTruth({i: {j} for i, j in zip(ids, ids[1:])})

    with layers.traced(spans.Tracer("tier-1")) as tracer:
        retrieval.evaluate(fs, fs, gt)

    assert not started
    assert [s.name for s in tracer.spans] == ["retrieval.evaluate"]
