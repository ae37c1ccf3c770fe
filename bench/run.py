#!/usr/bin/env python3
"""feattrans benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload grid_test --seed 1 --seconds 10 --trace 0

Sets up the workload (several times; the median is `setup_s`), then runs
timed rounds until `--seconds` of rounds have run, each round to completion,
and checks every round's outputs outside the timed region. With `--trace 0`
it reports the end-to-end metrics; with `--trace 1` it runs one untraced and
one traced round and reports the per-layer metrics. The last line of standard
output is one JSON object; spans and a full record go to `.bench_out/`.
Exits 1 if any operation or check fails, 2 if the library is missing.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
N_SETUPS = 5

# name -> unit. The JSON line carries only metrics that exist on every
# workload and are never 0: each rate applies to two workloads, and
# fail_ratio, 0 on a good run, is carried by `failed` / `attempted`.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "train_samples_per_s": "1/s",
    "eval_queries_per_s": "1/s",
    "fail_ratio": "ratio",
}
JSON_END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("grid_test", "paper_pair", "retrieval_paper"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure rounds for at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(args, nproc: int, seeds: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        ).stdout.strip() or commit
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "feattrans").glob("*.py")
    )
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_lines": src_lines,
        "workload": args.workload,
        "seed": args.seed,
        "input_seeds": seeds,
    }


def timed_round(workload, state) -> tuple[tuple[float, float], object, dict]:
    """One timed round; returns ((start, end), meter, outputs)."""
    from workloads import Meter

    meter = Meter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        start = time.perf_counter()
        out = workload.run(state, meter, Path(tmp))
        end = time.perf_counter()
    return (start, end), meter, out


def checked(workload, state, meter, out, seed: int, tally: dict) -> list:
    """The round's output checks, tallied with its library calls."""
    checks = workload.check(state, out, seed)
    tally["attempted"] += meter.ops + len(checks)
    tally["failed"] += sum(not ok for _, ok, _ in checks)
    return checks


def timed_setup(workload, seed: int) -> tuple[float, dict]:
    start = time.perf_counter()
    state = workload.setup(seed)
    return time.perf_counter() - start, state


def measure(workload, args, tally: dict) -> dict:
    """Untraced set-ups and rounds; the end-to-end metrics as medians."""
    setups, rounds, checks = [], [], []
    for _ in range(N_SETUPS):
        state = None
        seconds, state = timed_setup(workload, args.seed)
        setups.append(seconds)
    while True:
        (start, end), meter, out = timed_round(workload, state)
        checks += checked(workload, state, meter, out, args.seed, tally)
        rounds.append((end - start, meter))
        out = None
        if sum(w for w, _ in rounds) >= args.seconds:
            break
        state = None
        seconds, state = timed_setup(workload, args.seed)
        setups.append(seconds)

    def rate(kind):
        per_round = [m.items[kind] / m.seconds[kind] for _, m in rounds if m.seconds[kind] > 0]
        return statistics.median(per_round) if per_round else None

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(w for w, _ in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "train_samples_per_s": rate("train"),
        "eval_queries_per_s": rate("eval"),
    }
    return {"metrics": metrics, "setups_s": setups, "rounds_s": [w for w, _ in rounds], "checks": checks}


def measure_traced(workload, args, tally: dict, run_id: str) -> dict:
    """One untraced round, then one traced set-up and round: per-layer metrics."""
    from layers import per_layer_metrics, traced
    from spans import Tracer

    _, state = timed_setup(workload, args.seed)
    (start, end), meter, out = timed_round(workload, state)
    untraced_wall = end - start
    checks = checked(workload, state, meter, out, args.seed, tally)
    state = out = None
    tracer = Tracer(run_id)
    # checks stay outside the traced region, so their library calls add no spans
    with traced(tracer):
        _, state = timed_setup(workload, args.seed)
        window, meter, out = timed_round(workload, state)
    checks += checked(workload, state, meter, out, args.seed, tally)
    tracer.write(OUT_DIR / f"{run_id}.spans.jsonl")
    return {
        "metrics": per_layer_metrics(tracer, window, untraced_wall),
        "rounds_s": [untraced_wall, window[1] - window[0]],
        "checks": checks,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    # at most one BLAS thread per core; set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(threads, nproc))

    if not (ROOT / "src" / "feattrans" / "__init__.py").is_file():
        print(f"error: no feattrans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    env = environment(args, nproc, workload.seeds(args.seed))
    print("environment: " + json.dumps(env))

    tally = {"attempted": 0, "failed": 0}
    try:
        if args.trace:
            from layers import PER_LAYER

            result = measure_traced(workload, args, tally, run_id)
            units, reported = PER_LAYER, tuple(PER_LAYER)
        else:
            result = measure(workload, args, tally)
            units, reported = END_TO_END, JSON_END_TO_END
            result["metrics"]["fail_ratio"] = tally["failed"] / max(tally["attempted"], 1)
    except Exception:
        traceback.print_exc()
        tally["attempted"] += 1
        tally["failed"] += 1
        print(f"failed: {tally['failed']} of {tally['attempted']} operations and checks")
        return 1

    for label, ok, detail in result["checks"]:
        if not ok:
            print(f"check FAILED: {label} ({detail})")
    print(f"checks: {sum(ok for _, ok, _ in result['checks'])} of {len(result['checks'])} passed")
    for name, value in result["metrics"].items():
        if value is not None:
            print(f"  {name:<42} {value:>16.6f} {units[name]}")
    with open(OUT_DIR / f"{run_id}.json", "w", encoding="utf-8") as f:
        json.dump({"environment": env, **tally, **result}, f, indent=1)

    correct = tally["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]} for name in reported
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
