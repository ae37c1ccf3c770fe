import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from feattrans import affinity as aff
from feattrans import feature_io as fio
from feattrans import pipeline, synth, translator
from feattrans.errors import DataError
from conftest import GRID_CFG, GRID_LATENT, GRID_MODEL_SEED, GRID_SPEC, load_grid


def test_grid_measures_m_on_ids_it_did_not_train_on(grid_fixture, grid_dir):
    sets = synth.generate(GRID_SPEC).feature_sets
    train_ids, eval_ids = pipeline.split_ids(sets["fa"].ids)
    models, held_out = load_grid(grid_dir)
    assert len(eval_ids) == 160 and len(models) == 16
    assert train_ids + eval_ids == sets["fa"].ids
    assert {pair.order for pair in held_out.values()} == {tuple(sorted(eval_ids))}
    for (s, t), model in models.items():
        assert (model.source_name, model.target_name) == (s, t)
        assert grid_fixture.dam.entry(s, t) == aff.dam_entry(model, held_out[(s, t)])
    # the saved model is the one trained on the other ids, and only on them
    train = fio.align_pairs(sets["fa"].take(train_ids), sets["fc"].take(train_ids))
    model = translator.build(32, 32, GRID_LATENT, "hae", seed=GRID_MODEL_SEED,
                             source_name="fa", target_name="fc")
    model, _ = translator.train(model, train, GRID_CFG)
    assert np.array_equal(model.flat, models[("fa", "fc")].flat)


def test_grid_keeps_one_record_per_pair_row_by_row(grid_fixture, grid_dir):
    names = grid_fixture.names
    assert list(grid_fixture.pairs) == list(itertools.product(names, repeat=2))
    for (s, t), record in grid_fixture.pairs.items():
        assert record.dam == grid_fixture.dam.entry(s, t)
        assert (record.translated_map is None) == (s == t)
        trainlog = grid_dir / pipeline.model_file(s, t).replace(".haet", ".trainlog.csv")
        assert len(trainlog.read_text().splitlines()) == record.log.epochs_run + 1


SMALL_SPEC = synth.SynthSpec(
    n_vectors=40, latent_dim=4, output_dim=8, n_clusters=4, seed=0,
    members=(("a", "orthogonal_linear"), ("b", "orthogonal_linear"), ("c", "independent")),
)
SMALL_CFG = translator.TrainConfig(lr=1e-3, max_epochs=1, seed=0)


def test_grid_keeps_one_model_alive(tmp_path, monkeypatch):
    train, returned, alive = translator.train, [], []

    def tracked(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in returned))
        model, log = train(*args, **kwargs)
        returned.append(weakref.ref(model))
        return model, log

    monkeypatch.setattr(translator, "train", tracked)
    data = synth.generate(SMALL_SPEC)
    pipeline.run_grid(data.feature_sets, data.ground_truth, ("a", "b", "c"), SMALL_CFG,
                      model_seed=0, latent_dim=4, out_dir=tmp_path)
    assert alive == [0] * 9
    models = [pipeline.model_file(s, t) for s, t in itertools.product("abc", repeat=2)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        models + [m.replace(".haet", ".trainlog.csv") for m in models]
    )


TRACE_SPEC = synth.SynthSpec(
    n_vectors=400, latent_dim=4, output_dim=64, n_clusters=4, seed=0,
    members=(("a", "orthogonal_linear"), ("b", "orthogonal_linear"), ("c", "independent")),
)


def test_grid_holds_one_copy_of_each_pairs_training_rows(tmp_path, monkeypatch):
    """Beyond the model, the memory traced as each pair starts training stays under
    three times one side's training rows: the two sides it trains on plus small
    bookkeeping. Taking the split and then aligning it again would hold four."""
    train, held = translator.train, []

    def traced(model, paired, cfg):
        held.append((tracemalloc.get_traced_memory()[0] - model.flat.nbytes)
                    / paired.source.vectors.nbytes)
        return train(model, paired, cfg)

    monkeypatch.setattr(translator, "train", traced)
    data = synth.generate(TRACE_SPEC)
    tracemalloc.start()
    try:
        pipeline.run_grid(data.feature_sets, data.ground_truth, ("a", "b", "c"), SMALL_CFG,
                          model_seed=0, latent_dim=4, out_dir=tmp_path)
    finally:
        tracemalloc.stop()
    assert len(held) == 9 and max(held) < 3, held


def _sets(*names, ids=tuple(f"i{k}" for k in range(10))):
    return {n: fio.FeatureSet(n, ids, np.ones((len(ids), 2))) for n in names}


@pytest.mark.parametrize("sets, names, match", [
    (_sets("x"), ("x",), "at least two"),
    (_sets("x"), ("x", "x"), "duplicate"),
    (_sets("x", "y"), ("x", "y", "z"), "unknown"),
    ({**_sets("x"), **_sets("y", ids=("i0", "i1"))}, ("x", "y"), "'y' lacks 8 ids"),
    (_sets("a", "a2", "b", "2b"), ("a", "a2", "b", "2b"), "share the model file a22b.haet"),
    (_sets("a", "b/c"), ("a", "b/c"), "'b/c' holds a path separator"),
    (_sets("a", ""), ("a", ""), "empty feature-set name"),
    (_sets("a", "b\0"), ("a", "b\0"), r"'b\\x00' holds a NUL or a character no file name"),
    (_sets("a", "b\ud800"), ("a", "b\ud800"), r"'b\\ud800' holds a NUL or a character"),
    ({"a": _sets("a")["a"], "b": _sets("a")["a"]}, ("a", "b"), "'b' is named 'a'"),
    (_sets("a", "b\udc80"), ("a", "b\udc80"), r"'b\\udc80' holds a NUL or a character"),
])
def test_bad_names_fail_before_any_training(sets, names, match, tmp_path, monkeypatch):
    monkeypatch.setattr(translator, "build", lambda *a, **k: pytest.fail("built a model"))
    gt = fio.GroundTruth({"i0": {"i1"}})
    with pytest.raises(DataError, match=match):
        pipeline.run_grid(sets, gt, names, SMALL_CFG, model_seed=0, latent_dim=4, out_dir=tmp_path)
