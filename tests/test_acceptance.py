"""Release gate: nine numbered end-to-end checks.

Each check prints one ``CRITERION n: PASS/FAIL - detail`` line (replayed
after the terminal summary via conftest). Tolerances are pinned in the
assertions; the Monte Carlo checks fix master seeds so reruns are
deterministic.
"""

import json
import time

import numpy as np
import pytest

from circsym.asymptotics import (
    efficient_central_sequence,
    fisher_matrix,
    local_power,
)
from circsym.cli import main as cli_main
from circsym.datasets import ANT_TARGET_DEGREES, load_ant_data
from circsym.distributions import (
    Cardioid,
    MoebiusSkewed,
    SineSkewed,
    SkewedMixture,
    Uniform,
    VonMises,
    VonMisesMixture,
    WrappedCauchy,
)
from circsym.montecarlo import (
    DEFAULT_MASTER_SEED,
    ScenarioSpec,
    derive_stream,
    power_curve,
    run_scenario,
)
from circsym.quadrature import integrate_periodic
from circsym.symtests import (
    parametric_statistic,
    rayleigh_cardioid_test,
    symmetry_test,
)

BASES = {"vm:1": "vm:1", "vm:10": "vm:10", "ca:0.5": "cardioid:0.5",
         "wc:0.5": "wcauchy:0.5"}


def _sineskew_spec(scenario_id, base, k, lambdas, reps):
    return ScenarioSpec(
        scenario_id=scenario_id, family="sineskew", base=base, lambdas=lambdas,
        skew_k=k, n=100, reps=reps, runs_p=None,
        master_seed=DEFAULT_MASTER_SEED,
    )


def test_criterion_1_null_size(acceptance):
    started = time.time()
    sizes = {}
    for name, base in BASES.items():
        table = run_scenario(_sineskew_spec(f"size_{name}", base, 1, (0.0,), 1000))
        for k in (1, 2, 3):
            sizes[f"{name} k={k}"] = table.frequency(f"studentized:k={k}", 0.0)
    elapsed = time.time() - started
    bad = {cell: f for cell, f in sizes.items() if not 0.030 <= f <= 0.070}
    ok = not bad and elapsed < 120.0
    detail = (f"12 null sizes in [{min(sizes.values()):.3f}, "
              f"{max(sizes.values()):.3f}], bound [0.030, 0.070], "
              f"n=100, 1000 reps, {elapsed:.1f}s")
    if bad:
        detail += f"; out of bounds: {bad}"
    acceptance(1, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_2_power_cells(acceptance):
    cells = []

    table = run_scenario(_sineskew_spec("power_1sine_vm1", "vm:1", 1, (0.0, 0.4), 1000))
    cells.append(("vm:1 1-sine lam=0.4 k'=1",
                  table.frequency("studentized:k=1", 0.4), 0.7600))
    table = run_scenario(_sineskew_spec("power_2sine_ca05", "cardioid:0.5", 2,
                                        (0.0, 0.4), 1000))
    cells.append(("cardioid:0.5 2-sine lam=0.4 k'=2",
                  table.frequency("studentized:k=2", 0.4), 0.8313))
    table = run_scenario(_sineskew_spec("power_3sine_vm1", "vm:1", 3, (0.0, 0.6), 1000))
    cells.append(("vm:1 3-sine lam=0.6 k'=3",
                  table.frequency("studentized:k=3", 0.6), 0.9920))

    mix = ScenarioSpec(scenario_id="power_mixshift_vm10", family="mixshift",
                       base="vm:10", lambdas=(0.0, 0.4), n=100, reps=1000,
                       runs_p=None, master_seed=DEFAULT_MASTER_SEED)
    mix_power = run_scenario(mix).frequency("studentized:k=3", 0.4)

    failures = [f"{name}: {got:.4f} vs {target:.4f}"
                for name, got, target in cells if abs(got - target) > 0.045]
    if mix_power < 0.99:
        failures.append(f"mixshift vm:10 lam=0.4 k'=3: {mix_power:.4f} < 0.99")
    ok = not failures
    detail = ("; ".join(f"{name}: {got:.4f} (target {target:.4f} +/- 0.045)"
                        for name, got, target in cells)
              + f"; mixshift vm:10 k'=3: {mix_power:.4f} (>= 0.99)")
    if failures:
        detail += " | failed: " + "; ".join(failures)
    acceptance(2, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_3_optimality_rank(acceptance):
    # 25000 reps where the top two curves sit within ~0.01 of each other,
    # 3000 where the lead is wide
    blocks = [
        ("rank_1sine_vm1", "vm:1", 1, 3000),
        ("rank_1sine_vm10", "vm:10", 1, 25000),
        ("rank_1sine_ca05", "cardioid:0.5", 1, 3000),
        ("rank_1sine_wc05", "wcauchy:0.5", 1, 3000),
        ("rank_2sine_vm1", "vm:1", 2, 3000),
        ("rank_2sine_vm10", "vm:10", 2, 25000),
        ("rank_2sine_ca05", "cardioid:0.5", 2, 3000),
        ("rank_2sine_wc05", "wcauchy:0.5", 2, 3000),
        ("rank_3sine_vm1", "vm:1", 3, 3000),
        ("rank_3sine_vm10", "vm:10", 3, 25000),
    ]
    failures = []
    margins = []
    for scenario_id, base, k, reps in blocks:
        table = run_scenario(_sineskew_spec(scenario_id, base, k, (0.0, 0.6), reps))
        powers = [table.frequency(f"studentized:k={kp}", 0.6) for kp in (1, 2, 3)]
        best = int(np.argmax(powers)) + 1
        margin = powers[k - 1] - max(p for i, p in enumerate(powers) if i != k - 1)
        margins.append(margin)
        if best != k:
            failures.append(f"{scenario_id}: k'={best} beat k'={k} ({powers})")
    ok = not failures
    detail = (f"matched-k' test ranked first in 10/10 blocks at lam=0.6, "
              f"min margin {min(margins):+.4f}"
              if ok else "; ".join(failures))
    acceptance(3, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_4_ant_data(acceptance):
    try:
        sample = load_ant_data()
    except FileNotFoundError as exc:
        detail = ("SKIPPED, dataset file not bundled (counts must be "
                  "transcribed from the original source; see "
                  "src/circsym/data/README.md)")
        acceptance(4, "SKIP", detail)
        pytest.skip(f"{detail}: {exc}")
    theta = np.deg2rad(ANT_TARGET_DEGREES)
    targets = {1: 0.7781, 2: 0.0107, 3: 0.0131}
    got = {k: symmetry_test(sample, theta, k).p_value for k in (1, 2, 3)}
    failures = [f"k={k}: {got[k]:.4f} vs {targets[k]:.4f}"
                for k in targets if abs(got[k] - targets[k]) > 0.0005]
    ok = not failures
    detail = ", ".join(f"k={k}: p={got[k]:.4f} (target {targets[k]:.4f})"
                       for k in (1, 2, 3))
    acceptance(4, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_5_fisher_singularity(acceptance):
    failures = []
    vm_gaps = {}
    for kappa in (0.5, 1.0, 2.0, 10.0):
        matrix = fisher_matrix(VonMises(kappa), 1)
        gap = vm_gaps[kappa] = matrix.normalized_gap
        if not gap < 1e-8:
            failures.append(f"vm:{kappa:g} k=1 gap {gap:.2e} >= 1e-8")
        if not matrix.singular:
            failures.append(f"vm:{kappa:g} k=1 not flagged singular")
    regular = {}
    for name, base, k in (("vm:1 k=2", VonMises(1.0), 2), ("vm:1 k=3", VonMises(1.0), 3),
                          ("cardioid:0.5 k=1", Cardioid(0.5), 1),
                          ("wcauchy:0.5 k=1", WrappedCauchy(0.5), 1)):
        matrix = fisher_matrix(base, k)
        gap = regular[name] = matrix.normalized_gap
        if not gap > 1e-3:
            failures.append(f"{name} gap {gap:.2e} <= 1e-3")
        if matrix.singular:
            failures.append(f"{name} flagged singular")

    worst = 0.0
    kappas = (0.5, 1.0, 2.0, 10.0)
    for i in range(100):
        rng = derive_stream(2024, "gate-efficient-sequence", i)
        sample = rng.uniform(-np.pi, np.pi, 50)
        theta = rng.uniform(-np.pi, np.pi)
        value = efficient_central_sequence(VonMises(kappas[i % 4]), 1, sample, theta)
        worst = max(worst, abs(value))
    if not worst < 1e-10:
        failures.append(f"efficient sequence reached {worst:.2e} >= 1e-10")

    ok = not failures
    detail = (f"vm k=1 gaps {max(vm_gaps.values()):.1e} (< 1e-8); "
              f"regular gaps {min(regular.values()):.3f} (> 1e-3); "
              f"efficient sequence max |value| {worst:.1e} over 100 samples (< 1e-10)")
    if failures:
        detail += " | " + "; ".join(failures)
    acceptance(5, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_6_local_power_curves(acceptance):
    base = VonMises(1.0)
    grid = [1.0, 2.0, 3.0]
    failures = []
    analytic = {}
    worst = 0.0
    empirical = {}
    for kp in (1, 2, 3):
        analytic[kp] = [p for _, p in power_curve(base, 2, kp, grid)]
        empirical[kp] = [p for _, p in power_curve(
            base, 2, kp, grid, mode="empirical", n=500, reps=10000,
            master_seed=DEFAULT_MASTER_SEED)]
        for tau2, a, e in zip(grid, analytic[kp], empirical[kp]):
            worst = max(worst, abs(a - e))
            if abs(a - e) > 0.03:
                failures.append(f"k'={kp} tau2={tau2:g}: |{e:.4f}-{a:.4f}| > 0.03")
    for i, tau2 in enumerate(grid):
        if not (analytic[2][i] > analytic[1][i] and analytic[2][i] > analytic[3][i]):
            failures.append(f"analytic k'=2 not dominant at tau2={tau2:g}")
        if not (empirical[2][i] > empirical[1][i] and empirical[2][i] > empirical[3][i]):
            failures.append(f"empirical k'=2 not dominant at tau2={tau2:g}")
    ok = not failures
    detail = (f"max |empirical - analytic| = {worst:.4f} over 9 cells "
              f"(n=500, 10000 reps, bound 0.03); k'=2 dominates at every tau2")
    if failures:
        detail += " | " + "; ".join(failures)
    acceptance(6, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_7_distribution_layer(acceptance):
    symmetric = [VonMises(0.5), VonMises(1.0), VonMises(10.0),
                 Cardioid(0.1), Cardioid(0.5), Cardioid(0.9),
                 WrappedCauchy(0.1), WrappedCauchy(0.5), WrappedCauchy(0.9),
                 Uniform(), VonMisesMixture(1.0), VonMisesMixture(10.0)]
    skew_bases = [VonMises(1.0), Cardioid(0.5), WrappedCauchy(0.5), Uniform()]
    skewed = [SineSkewed(b, lam, k=k, theta=theta)
              for b in skew_bases
              for lam, k, theta in ((-0.7, 1, 0.4), (0.6, 2, 0.0), (0.3, 3, -1.1))]
    other = [MoebiusSkewed(VonMises(1.0), 0.2, 0.5),
             MoebiusSkewed(VonMises(10.0), 0.04, 0.5),
             MoebiusSkewed(VonMises(1.0), -0.4, 0.7),
             SkewedMixture(1.0, 0.8), SkewedMixture(10.0, 0.4)]
    models = symmetric + skewed + other

    failures = []
    worst_mass = 0.0
    for model in models:
        mass = integrate_periodic(model.pdf)
        worst_mass = max(worst_mass, abs(mass - 1.0))
        if abs(mass - 1.0) > 1e-8:
            failures.append(f"{model.label}: mass off by {mass - 1.0:.2e}")

    grid = np.linspace(-np.pi, np.pi, 385)
    for model in symmetric:
        if not np.allclose(model.pdf(grid), model.pdf(-grid), rtol=1e-13, atol=0):
            failures.append(f"{model.label}: reflection identity broken")
    for model in skewed:
        mirrored = SineSkewed(model.base, -model.lam, k=model.k, theta=model.theta)
        left = model.pdf(model.theta - grid)
        right = mirrored.pdf(model.theta + grid)
        if not np.allclose(left, right, rtol=1e-12, atol=1e-15):
            failures.append(f"{model.label}: skew reflection identity broken")
    for model in models:
        if abs(model.pdf(np.pi) - model.pdf(-np.pi)) > 1e-12:
            failures.append(f"{model.label}: endpoints disagree")
        if abs(model.pdf(np.pi - 1e-9) - model.pdf(-np.pi)) > 1e-6:
            failures.append(f"{model.label}: discontinuous at the seam")

    worst_moment = 0.0
    for index, model in enumerate(models):
        draws = model.sample(derive_stream(777, f"gate-moments|{model.label}", index),
                             100_000)
        for m in (1, 2, 3):
            for trig in (np.sin, np.cos):
                expected = integrate_periodic(lambda x: trig(m * x) * model.pdf(x))
                observed = float(np.mean(trig(m * draws)))
                gap = abs(observed - expected)
                worst_moment = max(worst_moment, gap)
                if gap > 0.015:
                    failures.append(
                        f"{model.label}: {trig.__name__}({m}x) moment off by {gap:.4f}"
                    )

    ok = not failures
    detail = (f"{len(models)} models: max |mass-1| = {worst_mass:.1e} (< 1e-8); "
              f"reflection/seam identities hold; max sampler moment error "
              f"{worst_moment:.4f} at n=100000 (< 0.015)")
    if failures:
        detail += " | " + "; ".join(failures[:4])
    acceptance(7, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_8_uniformity_test(acceptance):
    failures = []
    uniform = Uniform()
    worst = 0.0
    for i in range(200):
        rng = derive_stream(31, "gate-uniformity-identity", i)
        n = int(rng.integers(5, 200))
        sample = rng.uniform(-np.pi, np.pi, n)
        direction = rng.uniform(-np.pi, np.pi)
        rayleigh = abs(rayleigh_cardioid_test(sample, direction).statistic)
        score = parametric_statistic(sample, direction - np.pi / 2, 1, uniform)
        worst = max(worst, abs(rayleigh - score))
    if not worst < 1e-12:
        failures.append(f"identity gap {worst:.2e} >= 1e-12")

    rejections = 0
    reps = 2000
    for i in range(reps):
        rng = derive_stream(32, "gate-uniformity-size", i)
        sample = rng.uniform(-np.pi, np.pi, 100)
        direction = rng.uniform(-np.pi, np.pi)
        rejections += rayleigh_cardioid_test(sample, direction, alpha=0.05).reject
    size = rejections / reps
    if not 0.03 <= size <= 0.07:
        failures.append(f"null size {size:.4f} outside 0.05 +/- 0.02")

    ok = not failures
    detail = (f"statistic matches the uniform-base score test to {worst:.1e} "
              f"(< 1e-12) on 200 samples; null size {size:.4f} in 0.05 +/- 0.02 "
              f"(2000 reps, n=100)")
    if failures:
        detail += " | " + "; ".join(failures)
    acceptance(8, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_9_determinism(acceptance, tmp_path, capsys):
    failures = []
    spec = ScenarioSpec(scenario_id="gate_det", family="sineskew", base="vm:1",
                        lambdas=(0.0, 0.5), n=20, reps=100, master_seed=13)
    tables = [run_scenario(spec, threads=t) for t in (1, 2, 3)]
    if not (tables[0].to_csv() == tables[1].to_csv() == tables[2].to_csv()):
        failures.append("scenario CSV differs across thread counts")
    if not (tables[0].to_json() == tables[1].to_json() == tables[2].to_json()):
        failures.append("scenario JSON differs across thread counts")

    serial = power_curve(VonMises(1.0), 2, 2, [0.0, 1.0], mode="empirical",
                         n=30, reps=200, master_seed=4, threads=1)
    parallel = power_curve(VonMises(1.0), 2, 2, [0.0, 1.0], mode="empirical",
                           n=30, reps=200, master_seed=4, threads=2)
    if serial != parallel:
        failures.append("empirical power curve differs across thread counts")

    outputs = []
    for _ in range(2):
        assert cli_main(["sample", "--model", "sineskew(vm:1,k=2,lam=0.3)",
                         "-n", "25", "--seed", "5"]) == 0
        outputs.append(capsys.readouterr().out)
    if outputs[0] != outputs[1]:
        failures.append("seeded sample command not reproducible")

    scen = tmp_path / "gate.txt"
    scen.write_text(
        "scenario_id = gate_cli\nfamily = sineskew\nbase = vm:1\n"
        "lambdas = 0, 0.5\nn = 20\nreps = 100\nruns_p = none\n",
        encoding="utf-8",
    )
    blobs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"run{threads}"
        code = cli_main(["mc", "--scenario", str(scen), "--seed", "13",
                         "--threads", threads, "--out", "json",
                         "--outdir", str(outdir)])
        capsys.readouterr()
        if code != 0:
            failures.append(f"mc exited {code}")
            break
        blobs.append((outdir / "gate_cli.json").read_bytes())
    if len(blobs) == 2 and blobs[0] != blobs[1]:
        failures.append("mc output differs across thread counts")
    elif len(blobs) == 2:
        payload = json.loads(blobs[0].decode("utf-8"))
        if payload["scenario"]["master_seed"] != 13:
            failures.append("mc did not honor --seed")

    ok = not failures
    detail = ("byte-identical scenario tables, power curves and CLI output "
              "across thread counts 1-3 and reruns")
    if failures:
        detail = "; ".join(failures)
    acceptance(9, "PASS" if ok else "FAIL", detail)
    assert ok, detail
