import os
import subprocess
import sys
from pathlib import Path

from feattrans import affinity as aff

ROOT = Path(__file__).resolve().parent.parent


def test_synthetic_grid_script_writes_its_outputs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_grid.py"), "--out", str(tmp_path),
         "--n", "40", "--clusters", "4", "--epochs", "2", "--dim", "8",
         "--latent-dim", "4", "--model-latent", "4"],
        env=env, check=True, capture_output=True,
    )
    for name in ("M.csv", "R.csv", "C.csv", "U.csv", "mst.json", "retrieval_summary.csv"):
        assert (tmp_path / name).exists()
    u = aff.read_matrix_csv(tmp_path / "U.csv", kind=aff.UNDIRECTED_U)
    assert u.names == ("fa", "fb", "fc", "fd")
