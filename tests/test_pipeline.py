import gc
import itertools
import weakref

import numpy as np
import pytest

from feattrans import affinity as aff
from feattrans import feature_io as fio
from feattrans import pipeline, synth, translator
from feattrans.errors import DataError
from conftest import GRID_CFG, GRID_SPEC, load_grid


def test_grid_measures_m_on_ids_it_did_not_train_on(grid_fixture, grid_dir):
    sets = synth.generate(GRID_SPEC).feature_sets
    ids = sets["fa"].ids
    cut = int(pipeline.TRAIN_FRACTION * len(ids))
    models, held_out = load_grid(grid_dir)
    assert len(ids) - cut == 160 and len(models) == 16
    assert {pair.order for pair in held_out.values()} == {tuple(sorted(ids[cut:]))}
    for (s, t), model in models.items():
        assert (model.source_name, model.target_name) == (s, t)
        assert grid_fixture.dam.entry(s, t) == aff.dam_entry(model, held_out[(s, t)])
    # the saved model is the one trained on the other ids, and only on them
    train = fio.align_pairs(sets["fa"].take(ids[:cut]), sets["fc"].take(ids[:cut]))
    model = translator.build(32, 32, 24, "hae", seed=1, source_name="fa", target_name="fc")
    model, _ = translator.train(model, train, GRID_CFG)
    assert np.array_equal(model.flat, models[("fa", "fc")].flat)


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
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        pipeline.model_file(s, t) for s, t in itertools.product("abc", repeat=2)
    )


def _sets(*names, ids=tuple(f"i{k}" for k in range(10))):
    return {n: fio.FeatureSet(n, ids, np.ones((len(ids), 2))) for n in names}


@pytest.mark.parametrize("sets, names, match", [
    (_sets("x"), ("x",), "at least two"),
    (_sets("x"), ("x", "x"), "duplicate"),
    (_sets("x", "y"), ("x", "y", "z"), "unknown"),
    ({**_sets("x"), **_sets("y", ids=("i0", "i1"))}, ("x", "y"), "'y' lacks 8 ids"),
    (_sets("a", "a2", "b", "2b"), ("a", "a2", "b", "2b"), "share the model file a22b.haet"),
])
def test_bad_names_fail_before_any_training(sets, names, match, tmp_path, monkeypatch):
    monkeypatch.setattr(translator, "build", lambda *a, **k: pytest.fail("built a model"))
    gt = fio.GroundTruth({"i0": {"i1"}})
    with pytest.raises(DataError, match=match):
        pipeline.run_grid(sets, gt, names, SMALL_CFG, model_seed=0, latent_dim=4, out_dir=tmp_path)
