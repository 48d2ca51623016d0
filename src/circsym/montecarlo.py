"""Deterministic replication engine for rejection-frequency tables and power curves.

One engine serves both. A scenario table and each point of an empirical
power curve are a stream of replications, cut into chunks of
C = max(1, ``_CHUNK_DRAWS`` // n) replications (a bound on memory, not a
parameter of the results). Chunk ``c`` has its own counter-based stream
``derive_stream(master_seed, stream id, c)``: each sampling model, in
model order, draws the whole chunk in one ``sample(rng, C * n)`` call,
read as C rows of n, and when the stream has a modified runs test one
``rng.random(z)`` call right after it gives the fair-coin signs of that
model's z exact zeros, in row order. Workers get whole chunks, so results
are bit-identical for a fixed (master seed, stream id) however
replications are split over workers.

Every statistic is computed over the whole (models, C, n) block by the
row-wise kernels of ``symtests``. A studentized test rejects where |T_k|
exceeds z_{alpha/2}, the modified runs test where the run count is at
most the largest c with P(R <= c) < alpha (``symtests.runs_null_cdf``);
both are computed once per stream. With ``threads`` > 1 one thread pool,
which leaves one core free, serves the whole call: every scenario of
``run_scenarios`` and every grid point of ``power_curve``. numpy releases
the interpreter lock inside its array kernels and generator fills, each
chunk has its own Generator and the models are frozen, so blocks share
nothing mutable. Workers return additive integer tallies, so the merge is
order-independent by construction.
"""

import concurrent.futures  # not called here; benchmarks/tracing.py looks up this name
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .asymptotics import local_power_curve
from .distributions import (
    MoebiusSkewed,
    SineSkewed,
    SkewedMixture,
    VonMises,
    parse_base,
)
from .io import read_text_lines
from .special import check_alpha, check_frequency, check_integer, upper_quantile
from . import symtests

FAMILIES = ("sineskew", "moebius", "mixshift")

DEFAULT_MASTER_SEED = 1729
_CHUNK_DRAWS = 8192  # draws per model held at once: C = max(1, _CHUNK_DRAWS // n)


def derive_stream(master_seed, scenario_id, index):
    """Independent, platform-stable substream ``index`` of a named stream.

    The engine uses one per chunk of replications. The triple is hashed
    with SHA-256 and the digest seeds a Philox counter-based generator, so
    substreams are statistically independent and identical runs reproduce
    identical draws on any machine.
    """
    token = f"circsym|{int(master_seed)}|{scenario_id}|{int(index)}"
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    words = np.frombuffer(digest, dtype=np.uint32)
    seq = np.random.SeedSequence(entropy=[int(w) for w in words])
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class ScenarioSpec:
    """One table block: an alternative family swept over a skewness grid.

    ``models`` holds the sampling model at each grid point, built with the
    spec, so a spec that cannot be sampled is rejected when it is made.
    """

    scenario_id: str
    family: str
    base: str
    lambdas: tuple
    skew_k: int = 1
    moebius_r: float = 0.5
    n: int = 100
    reps: int = 1000
    alpha: float = 0.05
    test_ks: tuple = (1, 2, 3)
    runs_p: float | None = 0.6
    master_seed: int = DEFAULT_MASTER_SEED

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        lambdas = tuple(float(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", lambdas)
        if not any(v == 0.0 for v in lambdas):
            raise ValueError("the skewness grid must include 0 (null column)")
        object.__setattr__(self, "n", check_integer(self.n, "sample size n", 10))
        object.__setattr__(self, "reps", check_integer(self.reps, "replication count reps", 100))
        object.__setattr__(self, "master_seed",
                           check_integer(self.master_seed, "master_seed", least=None))
        check_alpha(self.alpha)
        object.__setattr__(
            self, "test_ks", tuple(check_frequency(k) for k in self.test_ks)
        )
        if self.runs_p is not None:
            symtests.runs_subset_size(self.n, self.runs_p)  # validates the percentile
        # Every field is checked whatever the family, so no value a family
        # ignores can reach to_json or format_scenario.
        object.__setattr__(self, "skew_k", check_frequency(self.skew_k))
        if not 0.0 < self.moebius_r < 1.0:
            raise ValueError(f"r must lie in (0, 1), got moebius_r={self.moebius_r!r}")
        base = parse_base(self.base)  # validates the label
        if self.family == "mixshift" and not isinstance(base, VonMises):
            raise ValueError("mixshift scenarios need a vm:<kappa> base")
        if self.family == "sineskew":
            for lam in lambdas:
                if not -1.0 < lam < 1.0:
                    raise ValueError(
                        f"sine-skew lambda must lie in (-1, 1), got {lam}"
                    )
        object.__setattr__(self, "models", tuple(self.alternative(lam) for lam in lambdas))

    @property
    def test_labels(self):
        labels = [f"studentized:k={k}" for k in self.test_ks]
        if self.runs_p is not None:
            labels.append(f"modrun:p={self.runs_p:g}")
        return tuple(labels)

    def alternative(self, lam):
        """Sampling model at one grid point."""
        base = parse_base(self.base)
        if self.family == "sineskew":
            return SineSkewed(base, lam, k=self.skew_k)
        if self.family == "moebius":
            return MoebiusSkewed(base, lam, self.moebius_r)
        return SkewedMixture(base.kappa, lam)


@dataclass(frozen=True)
class TableResult:
    """Rejection frequencies for one scenario, with binomial standard errors."""

    scenario: ScenarioSpec
    test_labels: tuple
    lambdas: tuple
    frequencies: tuple  # frequencies[i][j]: test i, lambda j
    degenerate: tuple  # same shape; samples where a test was undefined

    @property
    def standard_errors(self):
        reps = self.scenario.reps
        return tuple(
            tuple(math.sqrt(f * (1.0 - f) / reps) for f in row)
            for row in self.frequencies
        )

    def frequency(self, test_label, lam):
        i = self.test_labels.index(test_label)
        j = self.lambdas.index(float(lam))
        return self.frequencies[i][j]

    def to_csv(self):
        lines = [
            "# schema: circsym/v1",
            f"# scenario: {self.scenario.scenario_id}",
            f"# seed: {self.scenario.master_seed}",
            "test," + ",".join(f"lambda={lam:g}" for lam in self.lambdas),
        ]
        for label, row in zip(self.test_labels, self.frequencies):
            lines.append(label + "," + ",".join(f"{f:.6f}" for f in row))
        return "\n".join(lines) + "\n"

    def to_json(self):
        spec = self.scenario
        payload = {
            "schema": "circsym/v1",
            "scenario": {f.name: getattr(spec, f.name) for f in fields(spec)},
            "lambdas": list(self.lambdas),
            "tests": list(self.test_labels),
            "frequencies": [list(row) for row in self.frequencies],
            "standard_errors": [list(row) for row in self.standard_errors],
            "degenerate_samples": [list(row) for row in self.degenerate],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class _Stream:
    """One stream of replications: its draws, its tests and its length."""

    master_seed: int
    stream_id: str
    models: tuple
    n: int
    test_ks: tuple
    alpha: float
    reps: int
    runs: int | None = None  # subset size m of the modified runs test


def _scenario_stream(spec):
    runs = None if spec.runs_p is None else symtests.runs_subset_size(spec.n, spec.runs_p)
    return _Stream(
        master_seed=spec.master_seed, stream_id=spec.scenario_id,
        models=spec.models,
        n=spec.n, test_ks=spec.test_ks, alpha=spec.alpha, reps=spec.reps, runs=runs,
    )


def _chunk_reps(n):
    """Replications per chunk at sample size n."""
    return max(1, _CHUNK_DRAWS // n)


def _replication_block(stream, start, stop):
    """Additive tallies for replications [start, stop) of a stream.

    ``start`` lies on a chunk boundary. Returns (rejections, degenerate),
    each of shape (tests, models): one row per studentized frequency, then
    the modified runs test if the stream has one. Samples where T_k is
    undefined count as degenerate and are not rejections.
    """
    n_tests = len(stream.test_ks) + (stream.runs is not None)
    rejections = np.zeros((n_tests, len(stream.models)), dtype=np.int64)
    degenerate = np.zeros_like(rejections)
    size = _chunk_reps(stream.n)
    critical = upper_quantile(stream.alpha / 2.0)
    if stream.runs is not None:  # the largest c with P(R <= c) < alpha, 0 if none
        null_cdf = symtests.runs_null_cdf(np.arange(1, stream.runs + 1), stream.runs)
        runs_critical = np.count_nonzero(null_cdf < stream.alpha)
    for lo in range(start, stop, size):
        rows = min(size, stop - lo)
        rng = derive_stream(stream.master_seed, stream.stream_id, lo // size)
        samples = np.empty((len(stream.models), rows, stream.n))
        coins = []
        for j, model in enumerate(stream.models):
            samples[j] = model.sample(rng, rows * stream.n).reshape(rows, stream.n)
            # Draws are canonical angles, so sin(x - 0) vanishes exactly
            # where x == 0; the runs test's coins for those follow the draw.
            if stream.runs is not None:
                coins.append(rng.random(np.count_nonzero(samples[j] == 0.0)) < 0.5)
        for i, k in enumerate(stream.test_ks):
            signed = symtests.studentized_rows(samples, 0.0, k)
            degenerate[i] += np.count_nonzero(np.isnan(signed), axis=1)
            rejections[i] += np.count_nonzero(np.abs(signed) > critical, axis=1)
        if stream.runs is not None:
            # the coins were drawn in the row-major (model, row) order it takes
            counts = symtests.modified_runs_rows(samples, 0.0, stream.runs,
                                                 lambda _count: np.concatenate(coins))
            rejections[-1] += np.count_nonzero(counts <= runs_critical, axis=1)
    return rejections, degenerate


def _block_bounds(stream, pieces):
    """At most ``pieces`` blocks of whole chunks covering a stream's replications."""
    size = _chunk_reps(stream.n)
    chunks = math.ceil(stream.reps / size)
    step = math.ceil(chunks / pieces) * size
    return [(lo, min(lo + step, stream.reps)) for lo in range(0, stream.reps, step)]


def _tallies(streams, threads):
    """Yield the (rejections, degenerate) tallies of each stream, in order.

    With threads > 1 the replication blocks of every stream go to one
    thread pool of at most ``threads`` workers, capped at one less than the
    core count (at least one) and started once for the whole list;
    ValueError unless ``threads`` is a positive integer.
    """
    threads = check_integer(threads, "threads")
    if threads == 1:
        for stream in streams:
            yield _replication_block(stream, 0, stream.reps)
        return
    # One core stays free. Blocks hold the interpreter lock between numpy
    # calls, so with a worker on every core each one waits on the others
    # being scheduled, and a run's speed swings with the host's other load.
    cores = os.cpu_count() or 1
    pool = ThreadPoolExecutor(max_workers=min(threads, max(1, cores - 1)))
    try:
        pending = [
            [pool.submit(_replication_block, stream, lo, hi)
             for lo, hi in _block_bounds(stream, threads * 4)]
            for stream in streams
        ]
        for futures in pending:
            blocks = [future.result() for future in futures]
            yield sum(b[0] for b in blocks), sum(b[1] for b in blocks)
    finally:
        # Threads cannot be interrupted: on an error, an interrupt or an
        # abandoned generator, drop the queued blocks; running ones finish.
        pool.shutdown(cancel_futures=True)


def run_scenarios(specs, threads=1):
    """Yield the TableResult of each scenario, in order.

    Samples where a statistic is undefined count as non-rejections and are
    reported in the result's ``degenerate`` field. With ``threads`` > 1 a
    single thread pool serves every scenario; the tables are byte-identical
    to ``threads=1``.
    """
    specs = list(specs)
    streams = [_scenario_stream(spec) for spec in specs]
    for spec, (rejections, degenerate) in zip(
        specs, _tallies(streams, threads)
    ):
        freqs = rejections / float(spec.reps)
        yield TableResult(
            scenario=spec,
            test_labels=spec.test_labels,
            lambdas=spec.lambdas,
            frequencies=tuple(tuple(float(v) for v in row) for row in freqs),
            degenerate=tuple(tuple(int(v) for v in row) for row in degenerate),
        )


def run_scenario(spec, threads=1):
    """Run every replication of a scenario and tally rejection frequencies."""
    (table,) = run_scenarios([spec], threads)
    return table


def power_curve(base, k, k_prime, tau2_grid, alpha=0.05, mode="analytic",
                n=None, reps=None, master_seed=DEFAULT_MASTER_SEED, threads=1):
    """Power of the studentized frequency-k test against k'-sine-skewed drift.

    ``analytic`` evaluates the limiting power at each local drift tau2;
    ``empirical`` simulates at the contiguous skewness lambda = tau2/sqrt(n)
    and tallies rejections, each grid point a stream of the replication
    engine (one thread pool for the whole grid when ``threads`` > 1);
    samples where T_k is undefined count as non-rejections. Returns a list
    of (tau2, power) pairs.
    """
    tau2_grid = [float(t) for t in tau2_grid]
    if mode == "analytic":
        return list(zip(tau2_grid, local_power_curve(base, k, k_prime, tau2_grid, alpha)))
    if mode != "empirical":
        raise ValueError(f"mode must be 'analytic' or 'empirical', got {mode!r}")
    if not all(v is not None and v >= 1 and v % 1 == 0 for v in (n, reps)):
        raise ValueError("empirical mode needs n and reps, both positive integers; "
                         f"got n={n!r}, reps={reps!r}")
    n, reps = int(n), int(reps)
    alpha = check_alpha(alpha)
    k = check_frequency(k)
    streams = []
    for t in tau2_grid:
        lam = t / math.sqrt(n)
        if not -1.0 < lam < 1.0:
            raise ValueError(
                f"tau2={t:g} gives skewness {lam:g} outside (-1, 1) at n={n}"
            )
        streams.append(_Stream(
            master_seed=master_seed,
            stream_id=f"power|{base.label}|k={k}|kprime={k_prime}|tau2={t!r}|n={n}",
            models=(SineSkewed(base, lam, k=k_prime),),
            n=n, test_ks=(k,), alpha=alpha, reps=reps,
        ))
    tallies = _tallies(streams, threads)
    return [(t, int(rejections[0, 0]) / float(reps))
            for t, (rejections, _) in zip(tau2_grid, tallies)]


_SINE_GRID = (0.0, 0.2, 0.4, 0.6)
_TABLE_BASES = (("vm1", "vm:1"), ("vm10", "vm:10"),
                ("ca05", "cardioid:0.5"), ("wc05", "wcauchy:0.5"))


def _sine_block(table, tag, label, k):
    return ScenarioSpec(
        scenario_id=f"{table}_{tag}", family="sineskew", base=label,
        lambdas=_SINE_GRID, skew_k=k,
    )


PRESETS = {
    "table1": tuple(_sine_block("table1", tag, label, 1) for tag, label in _TABLE_BASES),
    "table2": tuple(_sine_block("table2", tag, label, 2) for tag, label in _TABLE_BASES),
    "table3": (
        ScenarioSpec(scenario_id="table3_moebius_vm1", family="moebius",
                     base="vm:1", lambdas=(0.0, 0.2 / 3, 0.4 / 3, 0.2)),
        ScenarioSpec(scenario_id="table3_moebius_vm10", family="moebius",
                     base="vm:10", lambdas=(0.0, 0.02, 0.04, 0.06)),
        ScenarioSpec(scenario_id="table3_mixshift_vm1", family="mixshift",
                     base="vm:1", lambdas=(0.0, 0.4, 0.8, 1.2)),
        ScenarioSpec(scenario_id="table3_mixshift_vm10", family="mixshift",
                     base="vm:10", lambdas=(0.0, 0.2, 0.4, 0.6)),
        _sine_block("table3", "3sine_vm1", "vm:1", 3),
        _sine_block("table3", "3sine_vm10", "vm:10", 3),
    ),
}


def override_scenarios(specs, reps=None, master_seed=None):
    """The scenarios ``specs`` resized to ``reps`` and reseeded with
    ``master_seed``, each where given; ``ScenarioSpec`` checks both."""
    updates = {name: value for name, value in
               (("reps", reps), ("master_seed", master_seed)) if value is not None}
    return tuple(replace(s, **updates) if updates else s for s in specs)


def preset_scenarios(name, reps=None, master_seed=None):
    """Scenario list for a named preset, optionally resized or reseeded."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return override_scenarios(PRESETS[name], reps, master_seed)


def _base_label(text):
    parse_base(text)  # so that a bad label is reported with its line
    return text


_SCENARIO_KEYS = {
    "scenario_id": str,
    "family": str,
    "base": _base_label,
    "lambdas": lambda text: tuple(float(v) for v in text.split(",")),
    "skew_k": int,
    "moebius_r": float,
    "n": int,
    "reps": int,
    "alpha": float,
    "test_ks": lambda text: tuple(int(v) for v in text.split(",")),
    "runs_p": lambda text: None if text.lower() == "none" else float(text),
    "master_seed": int,
}


def load_scenario_file(path):
    """Parse a declarative ``key = value`` scenario file.

    Lines are ``key = value``; ``#`` starts a comment. Recognized keys:
    scenario_id, family (sineskew|moebius|mixshift), base (e.g. vm:1),
    lambdas (comma-separated, must include 0), skew_k, moebius_r, n, reps,
    alpha, test_ks (comma-separated), runs_p (a number or ``none``),
    master_seed.
    """
    values = {}
    for lineno, raw in enumerate(read_text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _SCENARIO_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad {key} {value!r}: {exc}") from None
    for required in ("scenario_id", "family", "base", "lambdas"):
        if required not in values:
            raise ValueError(f"{path}: missing required key {required!r}")
    try:
        return ScenarioSpec(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def format_scenario(spec):
    """Scenario file text that round-trips through load_scenario_file."""
    lines = []
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name in ("lambdas", "test_ks"):
            value = ",".join(repr(v) for v in value)
        elif value is None:
            value = "none"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
