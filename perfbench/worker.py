"""One workload in one process: set-up, warm-up, timed closed loop, checks.

Started by ``run.py``; prints one JSON object on its last stdout line.  Run by
hand as::

    python3 perfbench/worker.py --workload link_budget_grid --seed 1 --seconds 5 \
        --trace 0 --t0 <CLOCK_MONOTONIC reading taken just before the start>

With ``--setup-only`` it stops after set-up, which is how ``run.py`` samples
the set-up time several times per run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def monotonic() -> float:
    # CLOCK_MONOTONIC is one clock for all processes, so a reading taken by
    # run.py before it started this process can be subtracted from ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_program() -> float:
    """Import oamqkd from this checkout's ``src`` and return the seconds it took."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import oamqkd

    seconds = time.perf_counter() - start
    where = Path(oamqkd.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"oamqkd was imported from {where}, not from {ROOT / 'src'}")
    return seconds


class Loop:
    """Closed loop, one client: the next op starts when the previous one and
    its check are done.  The clock runs only while an op runs."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.latencies: list[float] = []  # of the ops that completed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.next_op = 0
        self.op_end = 0.0  # monotonic() when the last op returned

    def run_op(self, i: int) -> float:
        """Run op ``i`` and check its output; return the seconds the op took."""
        from oracles import CheckFailed

        w = self.workload
        inputs = w.inputs(i)
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = w.op(inputs)
        except Exception as exc:  # a refused op is counted, never fatal
            elapsed = time.perf_counter() - start
            self.op_end = monotonic()
            self.failed += 1
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return elapsed
        elapsed = time.perf_counter() - start
        self.op_end = monotonic()
        self.latencies.append(elapsed)
        try:
            w.check(inputs, output)
        except CheckFailed as exc:
            self._problem(f"op {i} output is wrong: {exc}")
        except Exception as exc:  # an unreadable output is a wrong output
            self._problem(f"op {i} output could not be checked: {type(exc).__name__}: {exc}")
        return elapsed

    def _problem(self, message: str) -> None:
        self.problems.append(message)
        if len(self.problems) <= 5:
            print(message, file=sys.stderr)

    def run_for(self, seconds: float, replay: bool = False) -> tuple[int, float]:
        """Whole rounds until the ops have taken ``seconds``; returns (ops
        completed, busy s).  The busy time includes the time of failed ops.

        ``replay`` cycles through the first round's inputs, so that counts
        per op are the same in every run of a seed.
        """
        first, busy = len(self.latencies), 0.0
        wall_limit = time.perf_counter() + 3.0 * seconds + 10.0
        while True:
            for _ in range(self.workload.round_size):
                i = self.next_op % self.workload.round_size if replay else self.next_op
                busy += self.run_op(i)
                self.next_op += 1
            if busy >= seconds or time.perf_counter() >= wall_limit:
                return len(self.latencies) - first, busy


def run(name: str, seed: int, seconds: float, trace: bool, t0: float,
        setup_only: bool = False) -> dict:
    import_s = import_program()
    import resource
    import shutil
    import tempfile

    import workloads
    from oracles import CheckFailed

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        workload = workloads.make(name, seed, workdir)
        # The warm-up op fills lazy caches such as lru_cache tables.  It is
        # checked like any other but not counted among the timed ops.
        warm_up = Loop(workload)
        warm_up.run_op(0)
        setup_s = warm_up.op_end - t0
        loop = Loop(workload)
        loop.problems = warm_up.problems
        loop.next_op = 1
        result = {"setup_s": setup_s, "import_s": import_s}
        if setup_only:
            result.update(correct=not loop.problems, attempted=1, failed=warm_up.failed)
            return result

        if trace:
            from tracing import Tracer

            plain_ops, plain_busy = loop.run_for(seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            try:
                loop.next_op = 0
                attempted_before = loop.attempted
                traced_ops, traced_busy = loop.run_for(seconds / 2.0, replay=True)
            finally:
                tracer.uninstall()
            # Failed ops ran the layers too, so per-op figures count them.
            layers = tracer.layer_metrics(loop.attempted - attempted_before)
            layers["trace.overhead_pct"] = 100.0 * (
                (plain_ops / plain_busy) / (traced_ops / traced_busy) - 1.0)
            result["layers"] = layers
            tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.json")
        else:
            ops, busy = loop.run_for(seconds)
            if not ops:
                raise SystemExit(f"{name}: no op completed")
            result.update(ops_per_s=ops / busy,
                          op_p50_ms=1e3 * statistics.median(loop.latencies))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            workload.finish()
        except CheckFailed as exc:
            loop._problem(f"final check failed: {exc}")
        result.update(correct=not loop.problems, attempted=loop.attempted, failed=loop.failed)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.t0,
                 setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
