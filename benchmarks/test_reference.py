"""Tests of the benchmark's own references and bookkeeping.

Outside the tier-1 ``testpaths``; run with

    python3 -m pytest benchmarks -q

The closed forms are checked against brute-force integrals of the defining
densities written out here, and against numpy-only simulation. Neither
uses circsym.
"""

import math
import time

import numpy as np
import pytest

import reference as ref
from harness import nearest_rank
from tracing import Tracer

GRID = np.linspace(-np.pi, np.pi, 1 << 16, endpoint=False)
STEP = 2.0 * np.pi / GRID.size

BASES = [("vm", 0.05), ("vm", 1.0), ("vm", 10.0), ("vm", 700.0),
         ("cardioid", 0.3), ("cardioid", 0.9), ("wcauchy", 0.2), ("wcauchy", 0.9)]


def density(base, x):
    """Density and location score -f'/f, written out from the textbook forms."""
    family, v = base
    if family == "vm":
        # exp(kappa (cos x - 1)) keeps kappa = 700 finite; normalized below
        f = np.exp(v * (np.cos(x) - 1.0))
        return f / (f.sum() * STEP), v * np.sin(x)
    if family == "cardioid":
        return (1 + v * np.cos(x)) / (2 * np.pi), v * np.sin(x) / (1 + v * np.cos(x))
    denom = 1 + v * v - 2 * v * np.cos(x)
    return (1 - v * v) / (2 * np.pi * denom), 2 * v * np.sin(x) / denom


def integral(values):
    # the rectangle rule is spectrally accurate for smooth periodic integrands
    return float(values.sum() * STEP)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_cos_moment_matches_integral(base, m):
    f, _ = density(base, GRID)
    assert ref.cos_moment(base, m) == pytest.approx(integral(np.cos(m * GRID) * f),
                                                    rel=1e-10, abs=1e-12)


def test_bessel_ratio_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for kappa in (1e-3, 0.5, 1.0, 30.0, 700.0, 800.0, 5000.0):
        for m in range(1, 7):
            expected = special.ive(m, kappa) / special.ive(0, kappa)
            assert ref.bessel_ratio(m, kappa) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_fisher_entries_match_integrals(base, k):
    f, score = density(base, GRID)
    expected = (integral(score**2 * f), integral(np.sin(k * GRID) * score * f),
                integral(np.sin(k * GRID) ** 2 * f))
    assert ref.fisher_entries(base, k) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("base", BASES)
def test_sine_cross_matches_integral(base):
    f, _ = density(base, GRID)
    for k in (1, 2, 3):
        for kp in (1, 2, 3):
            expected = integral(np.sin(k * GRID) * np.sin(kp * GRID) * f)
            assert ref.sine_cross(base, k, kp) == pytest.approx(expected, abs=1e-12)


def test_von_mises_k1_information_is_singular():
    for kappa in (0.1, 1.0, 50.0, 700.0):
        g11, g12, g22 = ref.fisher_entries(("vm", kappa), 1)
        assert abs(g11 * g22 - g12 * g12) <= 1e-12 * g11 * g22


def test_local_power_shape():
    base = ("vm", 1.0)
    assert ref.local_power(base, 2, 2, 0.0) == pytest.approx(0.05, abs=1e-12)
    curve = [ref.local_power(base, 2, 2, t) for t in np.linspace(0, 5, 11)]
    assert all(a < b for a, b in zip(curve, curve[1:]))
    assert ref.local_power(base, 2, 2, -3.0) == pytest.approx(ref.local_power(base, 2, 2, 3.0))
    # k' = 2 is the matched frequency: it dominates k' = 1 and 3
    for t in (1.0, 3.0):
        assert ref.local_power(base, 2, 2, t) > max(ref.local_power(base, 2, 1, t),
                                                    ref.local_power(base, 2, 3, t))


def test_finite_n_approximation_is_local_power_at_contiguous_lambda():
    base = ("wcauchy", 0.5)
    for n in (100, 500):
        for tau2 in (0.5, 2.0, 4.0):
            assert ref.studentized_power(base, 1, 2, tau2 / math.sqrt(n), n) == pytest.approx(
                ref.local_power(base, 1, 2, tau2), rel=1e-12)


def test_finite_n_approximation_against_numpy_simulation():
    rng = np.random.default_rng(20130327)
    reps, n, lam, kappa = 4000, 100, 0.3, 2.0
    y = rng.vonmises(0.0, kappa, (reps, n))
    keep = rng.random((reps, n)) <= 0.5 * (1 + lam * np.sin(y))
    x = np.where(keep, y, -y)
    s = np.sin(2 * x)
    t = math.sqrt(n) * s.mean(axis=1) / np.sqrt((s * s).mean(axis=1))
    freq = float(np.mean(np.abs(t) > 1.959963984540054))
    expected = ref.studentized_power(("vm", kappa), 2, 1, lam, n)
    assert abs(freq - expected) < 0.03 + 4 * ref.binomial_se(expected, reps)


def test_statistics_invariances():
    rng = np.random.default_rng(7)
    x = rng.vonmises(0.3, 2.0, 200)
    t = ref.studentized_statistic(x, 0.1, 2)
    assert ref.studentized_statistic(x + 1.0, 1.1, 2) == pytest.approx(t, rel=1e-12)
    assert ref.studentized_statistic(2 * 0.1 - x, 0.1, 2) == pytest.approx(-t, rel=1e-12)
    assert ref.p_value(1.959963984540054) == pytest.approx(0.05, abs=1e-12)
    assert ref.p_value(t, "left") + ref.p_value(t, "right") == pytest.approx(1.0)
    r = ref.rayleigh_statistic(np.zeros(50), 0.0)
    assert r == pytest.approx(math.sqrt(100.0))


def test_nearest_rank_ranks_failures_last():
    values = [float(v) for v in range(1, 100)] + [math.inf]
    assert nearest_rank(values, 0.5) == 50.0
    assert nearest_rank(values, 0.99) == 99.0
    assert nearest_rank(values, 1.0) == math.inf


def test_self_times_add_up_to_the_outer_span():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()
        return sum(range(20000))

    start = time.perf_counter()
    tracer.span("outer", outer)()
    wall = time.perf_counter() - start
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert 0 < tracer.self_s["outer"] < wall
    assert tracer.self_s["outer"] + tracer.self_s["inner"] == pytest.approx(wall, rel=0.2)


def test_failed_spans_are_counted():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("boom", boom)()
    assert tracer.failed["boom"] == 1 and tracer.calls["boom"] == 1


def test_benchmark_json_lists_what_the_runs_report():
    import json
    from pathlib import Path

    import run
    from tracing import METRICS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        *METRICS, ("trace.overhead_pct", "%")]
