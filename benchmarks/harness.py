"""One workload in one fresh interpreter: set-up, closed loop, checks.

Run by ``run.py``; prints one JSON object as its last line of output.

    python3 benchmarks/harness.py --workload tables --seed 1 \
        --seconds 30 --trace 0 [--setup-only]

circsym is imported from the ``src`` directory beside ``benchmarks``.
The loop is closed: the next operation starts when the previous one has
returned and been checked. It runs whole rounds (a fixed list of
operations) until ``--seconds`` of loop time have passed and at least
``MIN_OPS`` operations were attempted, so every run attempts the same mix.
Only the calls into circsym are timed; input generation and checks are not.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def import_circsym():
    """Import circsym and circsym.cli from ``ROOT/src``; the seconds it took.

    Called first in a fresh interpreter, before the harness imports any
    module of its own, so every module circsym pulls in (argparse, json,
    dataclasses, pathlib, multiprocessing, numpy, ...) is paid for here.
    """
    src = os.path.join(ROOT, "src")
    start = time.perf_counter()
    sys.path.insert(0, src)
    import circsym
    import circsym.cli  # noqa: F401  (the analysis entry point; part of set-up)

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.realpath(circsym.__file__)) != os.path.join(src, "circsym"):
        raise SystemExit(f"circsym imported from {circsym.__file__}, not from {src}")
    return elapsed


if __name__ == "__main__":
    IMPORT_S = import_circsym()

# The harness's own imports come after the timed import of circsym.
import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

# A percentile is reported only when at least ten samples lie beyond it.
TAIL_SAMPLES = 10


class CheckFailed(Exception):
    """An output of circsym disagrees with the benchmark's reference."""


@dataclass
class Op:
    """One timed call into circsym and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], None] = lambda output: None
    fault: str | None = None  # a known program fault that makes it fail


@dataclass
class Tally:
    times: list = field(default_factory=list)  # seconds; inf for failed ops
    busy_s: float = 0.0  # total time inside timed calls, failed ones too
    failed: int = 0
    by_label: dict = field(default_factory=lambda: defaultdict(float))  # busy seconds


def nearest_rank(values, q):
    """The q-quantile of ``values`` by nearest rank (inf sorts last)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_op(op, tally):
    """Time one operation into ``tally``, then check its output."""
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        elapsed = time.perf_counter() - start
        tally.times.append(math.inf)
        tally.busy_s += elapsed
        tally.by_label[op.label] += elapsed
        tally.failed += 1
        if op.fault is None:
            raise CheckFailed(f"{op.label}: unexpected failure: {exc!r}") from exc
        return elapsed
    elapsed = time.perf_counter() - start
    tally.times.append(elapsed)
    tally.busy_s += elapsed
    tally.by_label[op.label] += elapsed
    op.check(output)
    return elapsed


def peak_rss_mb(workers):
    """Peak RSS of this process plus ``workers`` times the largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def measure(workload, seconds, min_ops, tally):
    """The untraced loop; returns the end-to-end metrics but set-up."""
    start = time.perf_counter()
    r = 0
    while True:
        for op in workload.round(r):
            run_op(op, tally)
        r += 1
        if time.perf_counter() - start >= seconds and len(tally.times) >= min_ops:
            break
    workload.finish()
    if len(tally.times) >= 100 * TAIL_SAMPLES:
        print(f"op_ms_p99 {1000.0 * nearest_rank(tally.times, 0.99):.3f} ms over "
              f"{len(tally.times)} operations", file=sys.stderr)
    shares = sorted(tally.by_label.items(), key=lambda item: -item[1])
    print("share of timed call time: " + ", ".join(
        f"{label} {100.0 * busy / tally.busy_s:.1f}%" for label, busy in shares), file=sys.stderr)
    return {
        "op_ms_p50": 1000.0 * nearest_rank(tally.times, 0.5),
        "ops_per_s": (len(tally.times) - tally.failed) / tally.busy_s,
    }


def trace(workload, seconds, min_ops, total):
    """Alternate untraced and traced rounds; per-layer totals per traced round."""
    from tracing import Tracer

    tracer = Tracer()
    round_s = {False: [], True: []}
    start = time.perf_counter()
    r = 0
    while True:
        for traced in (False, True):
            busy_s = total.busy_s
            if traced:
                tracer.install()
            try:
                for op in workload.round(r):
                    run_op(op, total)
            finally:
                tracer.uninstall()
            round_s[traced].append(total.busy_s - busy_s)
            r += 1
        if time.perf_counter() - start >= seconds and len(total.times) >= min_ops:
            break
    workload.finish()
    metrics = tracer.metrics(len(round_s[True]))
    overhead = statistics.median(round_s[True]) / statistics.median(round_s[False]) - 1.0
    metrics["trace.overhead_pct"] = 100.0 * overhead
    return metrics


def main(import_s, argv=None):
    """Run one workload; ``import_s`` is the time ``import_circsym`` took."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module = importlib.import_module(args.workload)
    workdir = Path(ROOT) / "benchmarks" / "out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    result = {"correct": True}
    try:
        workload = module.Workload(args.seed, workdir)
        setup_s = import_s + run_op(workload.warm_up(), Tally())
        if args.setup_only:
            result["setup_s"] = setup_s
        elif args.trace:
            result["metrics"] = trace(workload, args.seconds, module.MIN_OPS, tally)
        else:
            result["metrics"] = {
                "setup_s": setup_s,
                **measure(workload, args.seconds, module.MIN_OPS, tally),
                "peak_rss_mb": peak_rss_mb(module.WORKERS),
            }
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # The spawn pools started multiprocessing's resource tracker, a child
        # of this process; stop it and wait for it before reporting.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    result.update(attempted=len(tally.times), failed=tally.failed)
    if args.trace and result["correct"]:
        trace_file = workdir.parent / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Run as the importable module ``harness``, so that the workloads'
    # ``from harness import CheckFailed`` names the class caught above.
    import harness

    sys.exit(harness.main(IMPORT_S))
