import itertools
import runpy
import sys
from pathlib import Path

import numpy as np

from feattrans import affinity as aff
from feattrans import pipeline, translator

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_synthetic_grid.py"


def test_synthetic_grid_script_writes_its_outputs(tmp_path, monkeypatch):
    run_grid, grids = pipeline.run_grid, []

    def recorded(*args, **kwargs):
        grids.append(run_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(pipeline, "run_grid", recorded)
    monkeypatch.setattr(sys, "argv", [
        str(SCRIPT), "--out", str(tmp_path), "--n", "40", "--clusters", "4", "--epochs", "2",
        "--dim", "8", "--latent-dim", "4", "--model-latent", "4",
    ])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    for name in ("M.csv", "R.csv", "C.csv", "U.csv", "mst.json", "retrieval_summary.csv"):
        assert (tmp_path / name).exists()
    for s, t in itertools.product(("fa", "fb", "fc", "fd"), repeat=2):
        model = translator.load_model(tmp_path / f"{s}2{t}.haet")
        assert (model.source_name, model.target_name) == (s, t)
    [grid] = grids
    for label, matrix in (("M", grid.dam), ("U", grid.uam)):
        written = aff.read_matrix_csv(tmp_path / f"{label}.csv", kind=matrix.kind)
        assert written.names == ("fa", "fb", "fc", "fd")
        assert np.array_equal(written.values, matrix.values)
