import numpy as np

from feattrans import feature_io as fio
from feattrans import pipeline, synth, translator
from conftest import GRID_CFG, GRID_SPEC


def test_grid_measures_m_on_ids_it_did_not_train_on(grid_fixture):
    sets = synth.generate(GRID_SPEC).feature_sets
    ids = sets["fa"].ids
    cut = int(pipeline.TRAIN_FRACTION * len(ids))
    assert len(ids) - cut == 160 and len(grid_fixture.eval_pairs) == 16
    assert {pair.order for pair in grid_fixture.eval_pairs.values()} == {tuple(sorted(ids[cut:]))}
    # the fixture's model is the one trained on the other ids, and only on them
    train = fio.align_pairs(sets["fa"].take(ids[:cut]), sets["fc"].take(ids[:cut]))
    model = translator.build(32, 32, 24, "hae", seed=1, source_name="fa", target_name="fc")
    model, _ = translator.train(model, train, GRID_CFG)
    assert np.array_equal(model.flat, grid_fixture.models[("fa", "fc")].flat)
