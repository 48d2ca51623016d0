"""Benchmark of circsym: one command for every workload.

    python3 benchmarks/run.py --workload tables|power|analysis \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: circsym is imported from its
``src`` directory, never from an installed copy. Each workload runs in a
fresh interpreter (``harness.py``). With ``--trace 0`` set-up is measured
in ``SETUP_RUNS`` fresh interpreters, the last of which then runs the
timed loop, and the median set-up is reported with the end-to-end
metrics. With ``--trace 1`` one interpreter runs the traced loop and the
per-layer metrics are reported. The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("tables", "power", "analysis")
SETUP_RUNS = 3
DEADLINE_S = 170.0

# Every workload reports every end-to-end metric.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_ms_p50", "ms"),
              ("ops_per_s", "1/s"))

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def child(args, deadline, *extra):
    """Run harness.py in a fresh interpreter; its last output line as JSON."""
    command = [sys.executable, str(BENCH_DIR / "harness.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("CIRCSYM_THREADS", None)
    proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{args.workload} interpreter exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def main(argv=None):
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description="Benchmark of circsym.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "circsym" / "__init__.py").is_file():
        print(f"no circsym sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    setup_runs = 0 if args.trace else SETUP_RUNS - 1
    results = [child(args, deadline, "--setup-only") for _ in range(setup_runs)]
    results.append(child(args, deadline))
    result = results[-1]
    for failed in (r for r in results if not r["correct"]):
        print(json.dumps({key: failed[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 1
    if args.trace:
        from tracing import METRICS

        units = (*METRICS, ("trace.overhead_pct", "%"))
    else:
        setups = [r["setup_s"] for r in results[:-1]] + [result["metrics"]["setup_s"]]
        result["metrics"]["setup_s"] = statistics.median(setups)
        units = END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
