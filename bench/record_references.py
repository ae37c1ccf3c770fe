#!/usr/bin/env python3
"""Record paper_pair's loss after its fixed steps, per seed, into references.json.

    python3 bench/record_references.py 0 1 2 ...

Run it on a commit whose training is known to be right; the paper_pair check
then compares each run's loss with the recorded value for its seed.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

from workloads import Meter, PaperPair  # noqa: E402


def main(seeds: list[int]) -> None:
    path = HERE / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8"))
    table = refs["paper_pair_train_total"]
    workload = PaperPair()
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            out = workload.run(workload.setup(seed), Meter(), Path(tmp))
        table[str(seed)] = out["log"].train_total[-1]
        print(f"seed {seed}: {table[str(seed)]!r}", flush=True)
    refs["paper_pair_train_total"] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
