"""Host drift and per-call costs behind the README's reference figures.

    python3 benchmarks/calibrate.py

Run from the root of a source checkout, with nothing else busy. Prints
one JSON object:

- ``drift``: iterations per second of a fixed numpy kernel and of a
  pure-Python loop in alternating 1-s slices over ``DRIFT_SECONDS`` (min,
  median, max), and process CPU time over wall time for the whole
  stretch; a CPU share near 1 with a wide iteration range means the
  host's speed drifts, not the scheduling of this process;
- ``costs``: median cost of single calls that set the workloads' figures.
"""

import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DRIFT_SECONDS = 60


def _python_loop():
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    return total


def drift(seconds):
    """Rates of a numpy kernel and a pure-Python loop, alternating 1-s slices."""
    x = np.linspace(0.0, 1.0, 4096)
    kernels = {"numpy": lambda: np.sin(x).sum(), "python": _python_loop}
    rates = {name: [] for name in kernels}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(max(1, int(seconds) // 2)):
        for name, kernel in kernels.items():
            count, start = 0, time.perf_counter()
            while time.perf_counter() - start < 1.0:
                kernel()
                count += 1
            rates[name].append(count / (time.perf_counter() - start))
    out = {"cpu_over_wall": (time.process_time() - cpu0) / (time.perf_counter() - wall0)}
    for name, values in rates.items():
        out[f"{name}_per_s_min"] = min(values)
        out[f"{name}_per_s_median"] = statistics.median(values)
        out[f"{name}_per_s_max"] = max(values)
    return out


def timed(fn, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def costs():
    sys.path.insert(0, str(ROOT / "src"))
    from circsym import cli, montecarlo, symtests
    from circsym.asymptotics import fisher_matrix
    from circsym.distributions import VonMises, WrappedCauchy
    from circsym.io import read_angles

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    out = {}
    # a fresh base per call, so the memo cache never answers
    bases = iter(np.linspace(1.0, 1.001, 1000))
    for name, make in (("vm:1", lambda: VonMises(next(bases))),
                       ("vm:700", lambda: VonMises(700.0 * next(bases))),
                       ("wcauchy:0.99", lambda: WrappedCauchy(0.99 / next(bases)))):
        out[f"fisher_cold_ms {name}"] = 1e3 * timed(lambda: fisher_matrix(make(), 1), 5)
    rng = np.random.default_rng(1)
    scratch = ROOT / "benchmarks" / "out"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        path = Path(tmp) / "angles.txt"
        path.write_text("\n".join(repr(v) for v in rng.uniform(-3, 3, 100000).tolist()) + "\n")
        out["read_angles_us_per_line"] = 1e6 * timed(lambda: read_angles(path), 5) / 100000
        small = Path(tmp) / "small.txt"
        small.write_text("\n".join(repr(v) for v in rng.uniform(-3, 3, 50).tolist()) + "\n")
        out["test_request_ms n=50"] = 1e3 * timed(
            lambda: quiet(["test", str(small), "--theta", "0", "--json"]), 50)
    out["build_parser_ms"] = 1e3 * timed(cli.build_parser, 50)
    sample = VonMises(1.0).sample(np.random.default_rng(2), 100)
    out["symmetry_test_us n=100"] = 1e6 * timed(lambda: symtests.symmetry_test(sample, 0.0, 2), 500)
    out["derive_stream_us"] = 1e6 * timed(lambda: montecarlo.derive_stream(1, "x", 5), 500)
    spec = montecarlo.preset_scenarios("table1", reps=150)[0]
    out["run_scenario_ms table1_vm1 150 reps"] = 1e3 * timed(
        lambda: montecarlo.run_scenario(spec), 3)
    return out


def main():
    print(json.dumps({"drift": drift(DRIFT_SECONDS), "costs": costs()}, indent=2))


if __name__ == "__main__":
    main()
