"""Benchmark command for oamqkd: four in-process workloads, one process each.

    python3 perfbench/run.py --workload decoy_sessions --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                       # every workload, one after another

Each workload runs in its own Python process (``worker.py``), which imports
oamqkd from ``src/`` of this checkout and calls its public API, or
``oamqkd.cli.main(argv)``, in a closed loop with one client.  BLAS and OpenMP
pools are held to one thread.  Set-up is sampled in ``SETUP_SAMPLES``
processes and its median reported.  ``--seconds`` defaults to the
``run_seconds`` of ``BENCHMARK.json``.

With ``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  Results are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
NAMES = ("decoy_sessions", "link_budget_grid", "turbulence_frames", "cli_pipeline")
SETUP_SAMPLES = 5  # set-up-only processes plus the measuring one
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the worker
        raise WorkerFailed(f"worker did not finish in time: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
    probes = [_worker([*common, "--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = _worker([*common, "--trace", str(int(trace))], deadline)
    correct = main["correct"] and all(p["correct"] for p in probes)
    if trace:
        layers = dict(main["layers"])
        layers["import.oamqkd_s"] = statistics.median(
            [p["import_s"] for p in probes] + [main["import_s"]])
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median([p["setup_s"] for p in probes]
                                                   + [main["setup_s"]]), "unit": "s"},
            "ops_per_s": {"value": main["ops_per_s"], "unit": "op/s"},
            "op_p50_ms": {"value": main["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": correct, "attempted": main["attempted"], "failed": main["failed"],
            "metrics": metrics}


def unit_of(metric: str) -> str:
    if metric == "trace.overhead_pct":
        return "%"
    return "s" if metric.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(bench["run_seconds"])
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(results[name], indent=1) + "\n", encoding="utf-8")
    if len(names) > 1:
        for name, result in results.items():
            print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}", file=sys.stderr)
            for metric, m in result["metrics"].items():
                print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
            print(json.dumps({"workload": name, **result}))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
