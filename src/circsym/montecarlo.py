"""Deterministic replication engine for rejection-frequency tables and power curves.

One engine serves both. A scenario table and each point of an empirical
power curve are a stream of replications, cut into chunks of
C = max(1, ``_CHUNK_DRAWS`` // n) replications (a bound on memory, not a
parameter of the results). Chunk ``c`` has its own stream
``derive_stream(master_seed, stream id, c)``: each sampling model, in
model order, draws the whole chunk in one ``sample(rng, C * n)`` call,
read as C rows of n, and when the stream has a modified runs test one
``rng.random(z)`` call right after it gives the fair-coin signs of that
model's z exact zeros, in row order. Workers get whole chunks, so results
are bit-identical for a fixed (master seed, stream id) however
replications are split over workers.

Every statistic is computed over the whole (models, C, n) block by the
row-wise kernels of ``angles`` and ``symtests``. A studentized test
rejects where |T_k| exceeds z_{alpha/2}, the modified runs test where the
run count is at most the largest c with P(R <= c) < alpha
(``symtests.runs_null_cdf``); both are computed once per stream.
``_block_bounds`` alone cuts a stream into blocks of whole chunks, each
at most one chunk or ``_WINDOW_ROWS`` replications, whichever is larger.
Each chunk keeps only its moments, the row sums of the sines and of their
squares (``angles.sine_sums``); the ratio T_k and the degenerate and
rejection counts are formed once per block (``symtests.studentize``).
T_k is a function of its row's two sums, so the blocks change no bit;
they take the interpreter-held calls of the ratio and the counts off
every chunk. With ``threads`` > 1 on more than one core, one thread pool
of at most one worker per core serves the whole call: every scenario of
``run_scenarios`` and every grid point of ``power_curve``. numpy releases
the interpreter lock inside its array kernels and generator fills, each
chunk has its own Generator and the models are frozen, so blocks share
nothing mutable. Workers return additive integer tallies, so the merge is
order-independent by construction.

Each block draws its chunks into one (models, C, n) sample array, with
``model.sample(rng, C * n, out=...)``, and takes the sums of every
studentized k of the stream in one call of the row kernel, from one
tangent pass. A block runs inside ``workspace.using()``, so the samplers
and the kernels take their scratch arrays from those its thread keeps. A
thread reuses them from chunk to chunk and block to block, and the
calling thread from call to call, so a call does not fault its scratch
in afresh; a pool worker's arrays go with the pool when its call ends.
What a thread keeps is set by the largest block it ran, not by the
number of replications: each array holds at most models x max(n,
``_CHUNK_DRAWS``) doubles, or twice max(n, ``_CHUNK_DRAWS``) for a
sampler's rejection batch. A block's array of moments is bounded in rows
too: 2 x (studentized tests) x models x max(C, ``_WINDOW_ROWS``) doubles,
however many replications the stream runs. Scratch values are written
before they are read, so the kept arrays have no effect on draws.
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
from .io import parse_number_list, read_text
from .special import MAX_SAMPLE_SIZE, check_alpha, check_frequency, check_integer, upper_quantile
from .workspace import using
from . import angles, symtests

FAMILIES = ("sineskew", "moebius", "mixshift")

DEFAULT_MASTER_SEED = 1729
_CHUNK_DRAWS = 16384  # draws per model held at once: C = max(1, _CHUNK_DRAWS // n)
_WINDOW_ROWS = 1024  # replications a block of whole chunks holds, unless one chunk holds more
# Draws n x reps per model: 100 replications at the largest n. At n = 10, the
# most time per draw, a model at the cap took 87 s on a 2-core Xeon, numpy 2.4.
MAX_DRAWS = 100 * MAX_SAMPLE_SIZE


def _check_draws(n, reps):
    """ValueError unless n x reps, the draws per model, is at most ``MAX_DRAWS``."""
    if n * reps > MAX_DRAWS:
        raise ValueError(f"n x reps, the draws per model, must be at most {MAX_DRAWS}, "
                         f"got {n} x {reps}")


def derive_stream(master_seed, scenario_id, index):
    """Independent, platform-stable substream ``index`` of a named stream.

    The engine uses one per chunk of replications. The triple is hashed
    with SHA-256 and the digest seeds a ``SeedSequence``, which seeds an
    SFC64 generator: distinct triples give distinct digests, hence unrelated
    seeds, and identical runs reproduce identical draws on any machine.
    SFC64 fills uniforms at well under half of Philox's cost, and uniforms are
    most of what a replication chunk draws.
    """
    token = f"circsym|{int(master_seed)}|{scenario_id}|{int(index)}"
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    # the digest's eight uint32 words, the entropy the list of their ints gave
    seq = np.random.SeedSequence(entropy=np.frombuffer(digest, dtype=np.uint32))
    return np.random.Generator(np.random.SFC64(seq))


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
        name = self.scenario_id  # it names the output files, so one plain file name
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ValueError(f"scenario_id must be a plain file name, got {name!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        lambdas = tuple(float(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", lambdas)
        if not any(v == 0.0 for v in lambdas):
            raise ValueError("the skewness grid must include 0 (null column)")
        object.__setattr__(self, "n",
                           check_integer(self.n, "sample size n", 10, MAX_SAMPLE_SIZE))
        object.__setattr__(self, "reps", check_integer(self.reps, "replication count reps", 100))
        _check_draws(self.n, self.reps)
        object.__setattr__(self, "master_seed",
                           check_integer(self.master_seed, "master_seed", least=None))
        check_alpha(self.alpha)
        object.__setattr__(
            self, "test_ks", tuple(check_frequency(k) for k in self.test_ks)
        )
        if self.runs_p is not None:
            symtests.runs_subset_size(self.n, self.runs_p)  # validates the percentile
        elif not self.test_ks:
            raise ValueError("a scenario needs at least one test: "
                             "test_ks is empty and runs_p is None")
        # Every field is checked whatever the family, so no value a family
        # ignores can reach to_json or format_scenario.
        object.__setattr__(self, "skew_k", check_frequency(self.skew_k))
        if not 0.0 < self.moebius_r < 1.0:
            raise ValueError(f"r must lie in (0, 1), got moebius_r={self.moebius_r!r}")
        base = parse_base(self.base)  # validates the label
        if self.family == "mixshift" and not isinstance(base, VonMises):
            raise ValueError("mixshift scenarios need a vm:<kappa> base")
        try:  # each model checks its own skewness
            models = tuple(self.alternative(lam) for lam in lambdas)
        except ValueError as exc:
            raise ValueError(f"bad lambda in {lambdas}: {exc}") from None
        object.__setattr__(self, "models", models)

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
    frequencies: tuple  # frequencies[i][j]: test i, lambda j
    degenerate: tuple  # same shape; samples where a test was undefined

    @property
    def test_labels(self):
        return self.scenario.test_labels

    @property
    def lambdas(self):
        return self.scenario.lambdas

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


def _block_bounds(stream, pieces):
    """The blocks of whole chunks that cover a stream's replications:
    ``pieces`` of them, or more where a block would otherwise hold more
    than one chunk and more than ``_WINDOW_ROWS`` replications."""
    size = _chunk_reps(stream.n)
    chunks = math.ceil(stream.reps / size)
    step = min(math.ceil(chunks / pieces), max(1, _WINDOW_ROWS // size)) * size
    return [(lo, min(lo + step, stream.reps)) for lo in range(0, stream.reps, step)]


@using()
def _replication_block(stream, start, stop):
    """Additive tallies for the block [start, stop) of a stream's replications.

    ``start`` lies on a chunk boundary. Returns (rejections, degenerate),
    each of shape (tests, models): one row per studentized frequency, then
    the modified runs test if the stream has one. Samples where T_k is
    undefined count as degenerate and are not rejections. Every chunk is
    drawn into the same sample array.

    The studentized tests take two steps. Each chunk writes only its row
    sums of the sines and of their squares (``angles.sine_sums``) into the
    block's array of moments; the ratio T_k and the degenerate and
    rejection counts are then formed once per block
    (``symtests.studentize``), from the same sums in the same order as one
    chunk at a time.
    """
    n_tests = len(stream.test_ks) + (stream.runs is not None)
    rejections = np.zeros((n_tests, len(stream.models)), dtype=np.int64)
    degenerate = np.zeros_like(rejections)
    size = _chunk_reps(stream.n)
    critical = upper_quantile(stream.alpha / 2.0)
    if stream.runs is not None:  # the largest c with P(R <= c) < alpha, 0 if none
        null_cdf = symtests.runs_null_cdf(np.arange(1, stream.runs + 1), stream.runs)
        runs_critical = np.count_nonzero(null_cdf < stream.alpha)
    block = np.empty((len(stream.models), min(size, stop - start), stream.n))
    sums = np.empty((2, len(stream.test_ks), len(stream.models), stop - start))
    for lo in range(start, stop, size):
        rows = min(size, stop - lo)
        rng = derive_stream(stream.master_seed, stream.stream_id, lo // size)
        samples = block[:, :rows]
        coins = []
        for j, model in enumerate(stream.models):
            model.sample(rng, rows * stream.n, out=samples[j].reshape(-1))
            # Draws are canonical angles, so sin(x - 0) vanishes exactly
            # where x == 0; the runs test's coins for those follow the draw.
            if stream.runs is not None:
                coins.append(rng.random(np.count_nonzero(samples[j] == 0.0)) < 0.5)
        if stream.test_ks:
            angles.sine_sums(samples, 0.0, stream.test_ks,
                             sums[..., lo - start:lo - start + rows])
        if stream.runs is not None:
            # the coins were drawn in the row-major (model, row) order it takes
            counts = symtests.modified_runs_rows(samples, 0.0, stream.runs,
                                                 lambda _count: np.concatenate(coins))
            rejections[-1] += np.count_nonzero(counts <= runs_critical, axis=1)
    if stream.test_ks:
        signed = symtests.studentize(sums, stream.n)
        degenerate[:len(stream.test_ks)] = np.count_nonzero(np.isnan(signed), axis=-1)
        rejections[:len(stream.test_ks)] = np.count_nonzero(np.abs(signed) > critical, axis=-1)
    return rejections, degenerate


def _usable_cores():
    """The CPUs this process may run on: the size of its affinity mask where
    the OS has one, so that ``taskset`` or a container's CPU set is honoured,
    else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tallies(streams, threads):
    """Yield the tallies of each stream, in order: one array holding its
    (rejections, degenerate), summed over its blocks.

    The replication blocks of every stream (``_block_bounds``) go to one
    thread pool of ``threads`` workers, capped at the usable cores and
    started once for the whole list; where that leaves one worker, the
    blocks run in the calling thread and no pool starts. ValueError unless
    ``threads`` is a positive integer.
    """
    threads = check_integer(threads, "threads")
    # A worker per core: a chunk's numpy calls are long enough that workers
    # overlap, where more workers than cores would only wait for each other.
    workers = min(threads, _usable_cores())
    if workers == 1:
        for stream in streams:
            yield np.sum([_replication_block(stream, lo, hi)
                          for lo, hi in _block_bounds(stream, 1)], axis=0)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending = [
            [pool.submit(_replication_block, stream, lo, hi)
             for lo, hi in _block_bounds(stream, workers * 4)]
            for stream in streams
        ]
        for futures in pending:
            yield np.sum([future.result() for future in futures], axis=0)
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
    n, reps = check_integer(n, "sample size n", most=MAX_SAMPLE_SIZE), int(reps)
    _check_draws(n, reps)
    alpha = check_alpha(alpha)
    master_seed = check_integer(master_seed, "master_seed", least=None)
    # as ints, so that k_prime = 2.0 and np.int64(2) name the stream of 2
    k, k_prime = check_frequency(k), check_frequency(k_prime)
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


def _checked_base(text):
    parse_base(text)  # so that a bad label is reported with its line
    return text


_SCENARIO_KEYS = {
    "scenario_id": str,
    "family": str,
    "base": _checked_base,
    "lambdas": parse_number_list,
    "skew_k": int,
    "moebius_r": float,
    "n": int,
    "reps": int,
    "alpha": float,
    "test_ks": lambda text: () if text.lower() == "none" else parse_number_list(text, int),
    "runs_p": lambda text: None if text.lower() == "none" else float(text),
    "master_seed": int,
}


def load_scenario_file(path):
    """Parse a declarative ``key = value`` scenario file.

    Lines are ``key = value``; ``#`` starts a comment; a key may appear
    once. Recognized keys: scenario_id (a plain file name), family
    (sineskew|moebius|mixshift), base (e.g. vm:1), lambdas (comma list,
    must include 0), skew_k, moebius_r, n, reps, alpha, test_ks (comma
    list, or ``none`` for a runs-only scenario), runs_p (a number or
    ``none``), master_seed. Comma lists are read by ``io.parse_number_list``,
    as the CLI reads ``--k`` and ``--grid``. The file is read and decoded
    by ``io.read_text``, as angle files are.
    """
    values = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeated")
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
            value = ",".join(repr(v) for v in value) or "none"
        elif value is None:
            value = "none"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
