import concurrent.futures
import hashlib
import json
import os
import re
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats as sp_stats

from circsym import angles, distributions, montecarlo, special, workspace
from circsym.cli import main as cli_main
from circsym.distributions import (
    MoebiusSkewed,
    SineSkewed,
    SkewedMixture,
    VonMises,
    WrappedCauchy,
)
from circsym.errors import DegenerateSampleError
from circsym.montecarlo import (
    MAX_DRAWS,
    PRESETS,
    ScenarioSpec,
    derive_stream,
    format_scenario,
    load_scenario_file,
    power_curve,
    preset_scenarios,
    run_scenario,
    run_scenarios,
)
from circsym.special import MAX_SAMPLE_SIZE, upper_quantile
from circsym.symtests import (
    modified_runs_test,
    runs_subset_size,
    studentize,
    symmetry_test,
)

SMALL_SPEC = ScenarioSpec(
    scenario_id="unit_small",
    family="sineskew",
    base="vm:1",
    lambdas=(0.0, 0.5),
    skew_k=1,
    n=30,
    reps=120,
    master_seed=77,
)


class TestDeriveStream:
    def test_deterministic(self):
        a = derive_stream(7, "scenario", 3).random(100)
        b = derive_stream(7, "scenario", 3).random(100)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_components_change_stream(self):
        base = derive_stream(7, "scenario", 3).random(8)
        for other in (
            derive_stream(8, "scenario", 3),
            derive_stream(7, "scenario2", 3),
            derive_stream(7, "scenario", 4),
        ):
            assert not np.allclose(base, other.random(8))

    def test_substreams_look_independent(self):
        a = derive_stream(7, "ks", 0).random(10_000)
        b = derive_stream(7, "ks", 1).random(10_000)
        # two-sample Kolmogorov-Smirnov sanity check
        assert sp_stats.ks_2samp(a, b).pvalue > 0.001

    def test_uniformity_of_single_stream(self):
        draws = derive_stream(11, "ks1", 0).random(10_000)
        assert sp_stats.kstest(draws, "uniform").pvalue > 0.001

    def test_seeding_from_the_digest_array_matches_the_list_of_ints(self):
        """The digest's uint32 words as an array and as a list of ints are the
        same entropy, so the seed and every draw are the same."""
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            seed = int(rng.integers(-2**63, 2**63))
            name, index = f"s{rng.integers(10**9)}", int(rng.integers(2**31))
            token = f"circsym|{seed}|{name}|{index}"
            words = np.frombuffer(hashlib.sha256(token.encode("utf-8")).digest(),
                                  dtype=np.uint32)
            by_list = np.random.SeedSequence(entropy=[int(w) for w in words])
            by_array = np.random.SeedSequence(entropy=words)
            assert (by_array.generate_state(4, np.uint64).tobytes()
                    == by_list.generate_state(4, np.uint64).tobytes())
            expected = np.random.Generator(np.random.SFC64(by_list)).random(4)
            assert derive_stream(seed, name, index).random(4).tobytes() == expected.tobytes()

    def test_stream_pinned(self):
        # SHA-256 of the first 1000 uniforms of one SFC64 stream: a change of
        # generator or of derivation fails here, before any table moves
        draws = derive_stream(7, "scenario", 3).random(1000)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == \
            "db8cdb5e6c59e6ab0879e4defa63a19f25397c7e6721336c08b49b40dc23c426"


class TestScenarioSpec:
    def test_grid_must_include_zero(self):
        with pytest.raises(ValueError, match="include 0"):
            ScenarioSpec(scenario_id="x", family="sineskew", base="vm:1",
                         lambdas=(0.2,))

    def test_family_validated(self):
        with pytest.raises(ValueError, match="family"):
            ScenarioSpec(scenario_id="x", family="cosine", base="vm:1",
                         lambdas=(0.0,))

    def test_sine_skew_lambda_range(self):
        with pytest.raises(ValueError, match="lambda"):
            ScenarioSpec(scenario_id="x", family="sineskew", base="vm:1",
                         lambdas=(0.0, 1.2))

    def test_mixshift_needs_von_mises(self):
        with pytest.raises(ValueError, match="vm"):
            ScenarioSpec(scenario_id="x", family="mixshift", base="cardioid:0.5",
                         lambdas=(0.0, 0.4))

    @pytest.mark.parametrize("family, values, message", [
        ("sineskew", dict(moebius_r=1.5), "r must lie in (0, 1)"),
        ("mixshift", dict(skew_k=0, moebius_r=-3), "frequency k"),
        ("mixshift", dict(moebius_r=-3), "r must lie in (0, 1)"),
    ], ids=["sineskew-r", "mixshift-k-r", "mixshift-r"])
    def test_fields_a_family_ignores_are_validated(self, family, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioSpec(scenario_id="x", family=family, base="vm:1",
                         lambdas=(0.0, 0.2), **values)

    @pytest.mark.parametrize("runs_p", [0.0, 1.0, 1.5, float("nan")])
    def test_runs_percentile_has_one_check(self, runs_p):
        message = "runs percentile p must lie in (0, 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioSpec(scenario_id="x", family="sineskew", base="vm:1",
                         lambdas=(0.0, 0.2), runs_p=runs_p)
        with pytest.raises(ValueError, match=re.escape(message)):
            modified_runs_test(np.linspace(-1.0, 1.0, 20), 0.0, p=runs_p)

    @pytest.mark.parametrize("values, message", [
        (dict(n=20.5), "sample size n must be an integer of at least 10, got 20.5"),
        (dict(n=9), "sample size n must be an integer of at least 10, got 9"),
        (dict(n=10**11), "sample size n must be at most 10000000, got 100000000000"),
        (dict(reps=200.5), "replication count reps must be an integer of at least 100"),
        (dict(master_seed=2.5), "master_seed must be an integer, got 2.5"),
        (dict(master_seed=float("nan")), "master_seed must be an integer"),
    ], ids=["n", "n-small", "n-large", "reps", "seed", "seed-nan"])
    def test_counts_and_seed_must_be_integers(self, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioSpec(scenario_id="x", family="sineskew", base="vm:1",
                         lambdas=(0.0, 0.2), **values)

    @pytest.mark.parametrize("values, message", [
        (dict(n="20"), "sample size n must be an integer of at least 10, got '20'"),
        (dict(reps=None), "replication count reps must be an integer of at least 100, got None"),
        (dict(master_seed=b"7"), "master_seed must be an integer, got b'7'"),
    ], ids=["n", "reps", "seed"])
    def test_a_count_that_is_not_a_number_is_refused_by_name(self, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioSpec(scenario_id="x", family="sineskew", base="vm:1",
                         lambdas=(0.0, 0.2), **values)

    def test_draws_per_model_are_bounded(self):
        """A scenario and an empirical power curve share one cap on n x reps."""
        spec = ScenarioSpec(scenario_id="x", family="sineskew", base="vm:1",
                            lambdas=(0.0, 0.2), n=10, reps=MAX_DRAWS // 10)
        reps = spec.reps + 1
        message = f"the draws per model, must be at most {MAX_DRAWS}, got 10 x {reps}"
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(spec, reps=reps)
        with pytest.raises(ValueError, match=re.escape(message)):
            power_curve(VonMises(1.0), 2, 2, [0.0], mode="empirical", n=10, reps=reps)

    @pytest.mark.parametrize("n", [10, 1000, MAX_SAMPLE_SIZE])
    def test_the_cap_holds_at_every_sample_size(self, n):
        reps = MAX_DRAWS // n
        spec = ScenarioSpec(scenario_id="x", family="sineskew", base="vm:1",
                            lambdas=(0.0, 0.2), n=n, reps=reps)
        assert spec.n * spec.reps == MAX_DRAWS
        message = f"the draws per model, must be at most {MAX_DRAWS}, got {n} x {reps + 1}"
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(spec, reps=reps + 1)
        with pytest.raises(ValueError, match=re.escape(message)):
            power_curve(VonMises(1.0), 2, 2, [0.0], mode="empirical", n=n, reps=reps + 1)

    def test_integral_floats_are_stored_as_int(self):
        spec = ScenarioSpec(scenario_id="x", family="sineskew", base="vm:1",
                            lambdas=(0.0, 0.2), n=50.0, reps=200.0, master_seed=2.0)
        assert [(v, type(v)) for v in (spec.n, spec.reps, spec.master_seed)] == [
            (50, int), (200, int), (2, int)]
        assert "# seed: 2\n" in run_scenario(replace(spec, reps=100)).to_csv()

    def test_a_scenario_needs_a_test(self):
        with pytest.raises(ValueError, match="a scenario needs at least one test"):
            ScenarioSpec(scenario_id="e", family="sineskew", base="vm:1",
                         lambdas=(0.0, 0.3), test_ks=(), runs_p=None, reps=100)
        runs_only = ScenarioSpec(scenario_id="r", family="sineskew", base="vm:1",
                                 lambdas=(0.0, 0.3), test_ks=(), reps=100)
        assert runs_only.test_labels == ("modrun:p=0.6",)

    @pytest.mark.parametrize("scenario_id", ["", ".", "..", "../escaped", "a/b", "/abs/path"])
    def test_scenario_id_is_one_plain_file_name(self, scenario_id):
        with pytest.raises(ValueError, match="scenario_id must be a plain file name"):
            ScenarioSpec(scenario_id=scenario_id, family="sineskew", base="vm:1",
                         lambdas=(0.0,))

    def test_every_preset_id_is_a_plain_file_name(self):
        for spec in (s for specs in PRESETS.values() for s in specs):
            assert replace(spec).scenario_id == spec.scenario_id

    def test_mixshift_lambda_beyond_one_allowed(self):
        spec = ScenarioSpec(scenario_id="x", family="mixshift", base="vm:1",
                            lambdas=(0.0, 1.2))
        assert spec.alternative(1.2).lam == 1.2

    def test_test_labels(self):
        assert SMALL_SPEC.test_labels == (
            "studentized:k=1", "studentized:k=2", "studentized:k=3", "modrun:p=0.6",
        )

    def test_alternative_models(self):
        sine = SMALL_SPEC.alternative(0.5)
        assert sine.base == VonMises(1.0) and sine.k == 1 and sine.lam == 0.5
        moebius_spec = ScenarioSpec(scenario_id="m", family="moebius", base="vm:10",
                                    lambdas=(0.0, 0.04), moebius_r=0.5)
        assert moebius_spec.alternative(0.04).omega == pytest.approx(1 / 3)


class TestRunScenario:
    def test_thread_count_invariance(self):
        serial = run_scenario(SMALL_SPEC, threads=1)
        parallel = run_scenario(SMALL_SPEC, threads=3)
        assert serial.to_csv() == parallel.to_csv()
        assert serial.to_json() == parallel.to_json()

    def test_rerun_is_bit_identical(self):
        a = run_scenario(SMALL_SPEC)
        b = run_scenario(SMALL_SPEC)
        assert a.to_json() == b.to_json()

    def test_frequencies_are_rep_multiples(self):
        table = run_scenario(SMALL_SPEC)
        for row in table.frequencies:
            for freq in row:
                assert (freq * SMALL_SPEC.reps) == pytest.approx(round(freq * SMALL_SPEC.reps))
                assert 0.0 <= freq <= 1.0

    def test_power_increases_with_skewness(self):
        table = run_scenario(SMALL_SPEC)
        row = table.frequencies[table.test_labels.index("studentized:k=1")]
        assert row[1] > row[0]

    def test_csv_layout(self):
        table = run_scenario(SMALL_SPEC)
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "# schema: circsym/v1"
        header = lines[3].split(",")
        assert header == ["test", "lambda=0", "lambda=0.5"]
        assert len(lines) == 4 + len(table.test_labels)

    def test_json_fields(self):
        payload = json.loads(run_scenario(SMALL_SPEC).to_json())
        assert payload["schema"] == "circsym/v1"
        assert payload["scenario"]["master_seed"] == 77
        assert len(payload["standard_errors"]) == len(payload["tests"])
        assert payload["degenerate_samples"] == [[0, 0]] * len(payload["tests"])

    def test_standard_errors(self):
        table = run_scenario(SMALL_SPEC)
        f = table.frequencies[0][0]
        expected = np.sqrt(f * (1 - f) / SMALL_SPEC.reps)
        assert table.standard_errors[0][0] == pytest.approx(expected, rel=1e-12, abs=0.0)


def _reference_tallies(stream):
    """Tallies of the per-sample loop: one test call per statistic and sample.

    It walks the engine's chunks of ``montecarlo._chunk_reps(n)``
    replications. Chunk c draws on ``derive_stream(seed, id, c)``: each
    group of models that share a draw key (``montecarlo._draw_groups``)
    draws the random inputs of every row once, and each model of the group
    maps them to its rows in turn; the runs test of each row then takes
    that row's tie-breaking coins from the same stream, before the next
    model maps. Every stream given here with a runs test uses the default
    p = 0.6.
    """
    n_tests = len(stream.test_ks) + (stream.runs is not None)
    rejections = np.zeros((n_tests, len(stream.models)), dtype=np.int64)
    degenerate = np.zeros_like(rejections)
    size = montecarlo._chunk_reps(stream.n)
    for chunk, lo in enumerate(range(0, stream.reps, size)):
        rows = min(size, stream.reps - lo)
        rng = derive_stream(stream.master_seed, stream.stream_id, chunk)
        for group in montecarlo._draw_groups(stream.models):
            inputs = stream.models[group[0]]._inputs(rng, rows * stream.n)
            for j in group:
                draws = np.empty(rows * stream.n)
                stream.models[j]._apply(inputs, draws)
                for sample in angles.wrap(draws).reshape(rows, stream.n):
                    for i, k in enumerate(stream.test_ks):
                        try:
                            result = symmetry_test(sample, 0.0, k, alpha=stream.alpha)
                        except DegenerateSampleError:
                            degenerate[i, j] += 1
                            continue
                        rejections[i, j] += result.reject
                    if stream.runs is not None:
                        result = modified_runs_test(
                            sample, 0.0, p=0.6, alpha=stream.alpha, rng=rng,
                        )
                        rejections[-1, j] += result.reject
    return rejections, degenerate


def _reference_table(spec):
    tallies = _reference_tallies(montecarlo._scenario_stream(spec))
    rejections, degenerate = (t.tolist() for t in tallies)
    return [[c / spec.reps for c in row] for row in rejections], degenerate


class _Snapped(distributions._Model):
    """Von Mises draws rounded to multiples of 1/2, so exact zeros and tied
    distances are common; about a fifth of the rows of ``n`` draws are all
    zero. It has no draw key, so it shares its draws with no other model."""

    def __init__(self, n):
        self.n = n

    def _draw(self, rng, out):
        VonMises(1.0).sample(rng, out.size, out=out)
        np.round(out * 2.0, out=out)
        out /= 2.0
        rows = out.reshape(-1, self.n)
        rows[rng.random(len(rows)) < 0.2] = 0.0


def _snapped_stream():
    """Two snapped models over two chunks, with a runs test."""
    return montecarlo._Stream(
        master_seed=3, stream_id="snapped", models=(_Snapped(16), _Snapped(16)),
        n=16, test_ks=(1, 2), alpha=0.2,
        reps=montecarlo._chunk_reps(16) + 20,
        runs=runs_subset_size(16, 0.6),
    )


class _Spy(distributions._Model):
    """Von Mises draws that record the size of every draw; with no draw
    key, a spy named twice in a stream draws twice."""

    def __init__(self):
        self.sizes = []

    def _draw(self, rng, out):
        self.sizes.append(out.size)
        VonMises(1.0).sample(rng, out.size, out=out)


# SHA-256 of the concatenated to_json() of every preset scenario (presets in
# sorted order) at 100 replications, and an empirical power curve, both
# recorded when the engine moved to one stream per chunk of replications; the
# per-sample loop (``_reference_tallies``) gives the same digests. The digests
# were re-recorded when the runs calibration key left to_json(), with every
# frequency unchanged, both pins again when the von Mises sampler moved to
# two uniforms per proposal, which changes every von Mises draw, and both
# again when ``derive_stream`` moved from Philox to SFC64, which changes
# every engine draw. The table digests were re-recorded once more when the
# cardioid sampler became rejection from the uniform envelope, which moves
# the cardioid draws of table1 and table2, and the mixtures came to draw their
# von Mises angles before their coins, which moves the mixshift draws of
# table3; the power curve, on a von Mises base, kept its points. Both pins
# were re-recorded once more when ``_CHUNK_DRAWS`` went from 8 192 to 16 384
# draws, which regroups replications into chunks and so changes every engine
# draw. Both were re-recorded again when the models of a stream that share a
# draw key came to map one draw of random inputs per chunk, and a power
# curve became one stream whose id has no tau2, which changes every engine
# draw of a skewed model.
PRESET_DIGESTS = {
    1729: "b9aac83ef1cd0d7f68063ad485964ae639df24611fa9a7f147492b2b182a24ef",
    99: "4002cf88b6ae4048cc04da4eef1f856b5c457f94aeff940a5ceca449b90ea621",
}
POWER_ARGS = (VonMises(1.0), 2, 2, [0.0, 1.0, 2.0, 3.0, 4.0])
POWER_KWARGS = dict(mode="empirical", n=200, reps=150, master_seed=7)
POWER_POINTS = [(0.0, 0.05333333333333334), (1.0, 0.1), (2.0, 0.31333333333333335),
                (3.0, 0.52), (4.0, 0.78)]


class TestEngine:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_preset_tables_are_unchanged(self, threads):
        for seed, expected in PRESET_DIGESTS.items():
            specs = [spec for name in sorted(PRESETS)
                     for spec in preset_scenarios(name, reps=100, master_seed=seed)]
            digest = hashlib.sha256()
            for table in run_scenarios(specs, threads=threads):
                digest.update(table.to_json().encode("utf-8"))
            assert digest.hexdigest() == expected

    @pytest.mark.parametrize("threads", [1, 2])
    def test_power_points_are_unchanged(self, threads):
        assert power_curve(*POWER_ARGS, **POWER_KWARGS, threads=threads) == POWER_POINTS

    @pytest.mark.parametrize("spec", [
        ScenarioSpec(scenario_id="ref_sine", family="sineskew", base="cardioid:0.5",
                     lambdas=(0.0, 0.5), skew_k=2, n=30, reps=300, master_seed=5),
        ScenarioSpec(scenario_id="ref_moebius", family="moebius", base="wcauchy:0.5",
                     lambdas=(0.0, 0.1), n=25, reps=120, master_seed=6),
        ScenarioSpec(scenario_id="ref_mix", family="mixshift", base="vm:10",
                     lambdas=(0.0, 0.6), n=20, reps=120, master_seed=7),
        ScenarioSpec(scenario_id="ref_noruns", family="sineskew", base="vm:1",
                     lambdas=(0.0, 0.3), test_ks=(1, 4), n=15, reps=120,
                     runs_p=None, master_seed=8),
        ScenarioSpec(scenario_id="ref_runs_only", family="sineskew", base="vm:1",
                     lambdas=(0.0, 0.3), test_ks=(), n=15, reps=120, master_seed=8),
    ], ids=lambda spec: spec.scenario_id)
    def test_matches_per_sample_loop(self, spec):
        frequencies, degenerate = _reference_table(spec)
        table = run_scenario(spec)
        assert [list(row) for row in table.frequencies] == frequencies
        assert [list(row) for row in table.degenerate] == degenerate

    def test_per_sample_loop_across_slices_and_workers(self):
        spec = ScenarioSpec(scenario_id="ref_slices", family="sineskew", base="vm:1",
                            lambdas=(0.0, 0.4), n=12,
                            reps=2 * montecarlo._chunk_reps(12) + 37, master_seed=9)
        frequencies, degenerate = _reference_table(spec)
        for threads in (1, 2):
            table = run_scenario(spec, threads=threads)
            assert [list(row) for row in table.frequencies] == frequencies
            assert [list(row) for row in table.degenerate] == degenerate

    @pytest.mark.parametrize("n, reps, pieces, step", [
        (100, 150, 1, 150),  # a table1 scenario of the benchmark: one chunk of 163
        (500, 800, 8, 128),  # a power grid point at two workers: 4 chunks of 32
        (40, 1284, 1, 818),  # one worker: blocks of two chunks of 409
        (10, 5000, 1, 1638),  # a chunk longer than _WINDOW_ROWS is a block of its own
        (10, 5000, 2, 1638),
    ])
    def test_block_cuts(self, n, reps, pieces, step):
        stream = montecarlo._Stream(master_seed=0, stream_id="cuts", models=(), n=n,
                                    test_ks=(1,), alpha=0.05, reps=reps)
        assert montecarlo._block_bounds(stream, pieces) == [
            (lo, min(lo + step, reps)) for lo in range(0, reps, step)]

    def test_zero_sines_and_degenerate_samples(self):
        stream = _snapped_stream()
        rejections, degenerate = montecarlo._replication_block(stream, 0, stream.reps)
        expected_rejections, expected_degenerate = _reference_tallies(stream)
        assert degenerate[:2].min() > 0  # the all-zero samples
        assert rejections.tolist() == expected_rejections.tolist()
        assert degenerate.tolist() == expected_degenerate.tolist()

    def test_models_need_not_pickle(self):
        class Local(_Snapped):
            """A class local to a function cannot be pickled, so a process
            pool could not send it; the thread pool runs both chunks."""

        stream = replace(_snapped_stream(), models=(Local(16), Local(16)))
        expected = [t.tolist() for t in _reference_tallies(stream)]
        for threads in (1, 2):
            (tallies,) = montecarlo._tallies([stream], threads)
            assert [t.tolist() for t in tallies] == expected

    @pytest.mark.parametrize("n", [12, 500, montecarlo._CHUNK_DRAWS + 100])
    def test_sample_calls_stay_within_the_chunk_bound(self, n):
        spy = _Spy()
        stream = montecarlo._Stream(master_seed=4, stream_id="spy", models=(spy, spy),
                                    n=n, test_ks=(1,), alpha=0.05,
                                    reps=2 * montecarlo._chunk_reps(n) + 1)
        montecarlo._replication_block(stream, 0, stream.reps)
        assert max(spy.sizes) <= max(montecarlo._CHUNK_DRAWS, n)
        assert sum(spy.sizes) == 2 * stream.reps * n
        assert len(spy.sizes) == 2 * 3

    @pytest.mark.parametrize("threads", [0, -3, 1.5, float("nan")])
    def test_threads_must_be_a_positive_integer(self, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="threads must be a positive integer"):
            run_scenario(SMALL_SPEC, threads=threads)
        with pytest.raises(ValueError, match="threads must be a positive integer"):
            power_curve(VonMises(1.0), 1, 1, [0.0], mode="empirical", n=20, reps=40,
                        threads=threads)

    def test_one_pool_per_run(self, monkeypatch, tmp_path, capsys):
        starts = []

        class CountingPool(montecarlo.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", CountingPool)
        # two cores, so that two threads start a pool on any host
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        outputs = {}
        for threads in ("1", "2"):
            outdir = tmp_path / threads
            assert cli_main(["mc", "--preset", "table1", "--reps", "100", "--threads",
                             threads, "--out", "both", "--outdir", str(outdir)]) == 0
            outputs[threads] = {p.name: p.read_bytes() for p in outdir.iterdir()}
        capsys.readouterr()
        assert len(outputs["1"]) == 2 * len(PRESETS["table1"])
        assert outputs["1"] == outputs["2"]
        assert len(starts) == 1
        grid = [0.0, 1.0, 2.0]
        assert power_curve(VonMises(1.0), 1, 1, grid, mode="empirical", n=20, reps=40,
                           threads=2) == power_curve(VonMises(1.0), 1, 1, grid,
                                                     mode="empirical", n=20, reps=40)
        assert len(starts) == 2

    @pytest.mark.parametrize("cores, expected", [(1, []), (2, [2, 2]), (8, [8, 8])],
                             ids=["one", "two", "eight"])
    def test_workers_capped_at_the_core_count(self, monkeypatch, cores, expected):
        workers = []

        class InlinePool:
            """Records its size and runs each block at submission."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
        assert run_scenario(SMALL_SPEC, threads=10**6).to_json() == \
            run_scenario(SMALL_SPEC).to_json()
        assert power_curve(*POWER_ARGS, **POWER_KWARGS, threads=10**6) == POWER_POINTS
        # one pool per run, one worker per core, never 10**6 threads; where
        # that is one worker the blocks run inline and no pool starts
        assert workers == expected

    @pytest.mark.parametrize("affinity, host, expected",
                             [({0}, 8, 1), ({0, 3}, None, 2), (None, 8, 8), (None, None, 1)],
                             ids=["pinned_to_one", "pinned_to_two", "no_mask", "unknown"])
    def test_usable_cores_follow_the_affinity_mask(self, monkeypatch, affinity, host,
                                                   expected):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: host)
        if affinity is None:  # a platform without affinity masks
            monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        assert montecarlo._usable_cores() == expected

    def test_a_failed_block_cancels_the_queued_ones(self, monkeypatch):
        started = []
        block = montecarlo._replication_block

        def slow(stream, lo, hi):
            started.append(stream.stream_id)
            if stream.stream_id == "s0":
                raise RuntimeError("block failed")
            time.sleep(0.2)
            return block(stream, lo, hi)

        monkeypatch.setattr(montecarlo, "_replication_block", slow)
        streams = [montecarlo._Stream(master_seed=1, stream_id=f"s{i}",
                                      models=(VonMises(1.0),), n=20, test_ks=(1,),
                                      alpha=0.05, reps=100)
                   for i in range(20)]
        with pytest.raises(RuntimeError, match="block failed"):
            list(montecarlo._tallies(streams, 2))
        # only the blocks running when s0 failed were let finish
        assert len(started) < len(streams)


def _in_a_fresh_thread(run):
    """``run()`` in a new thread, which starts without scratch arrays."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(run).result(timeout=300)


def _traced_growth(run):
    """Bytes that ``run()`` leaves allocated, and its peak above the start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        now, peak = tracemalloc.get_traced_memory()
        return now - before, peak - before
    finally:
        tracemalloc.stop()


WIDE_SPEC = replace(SMALL_SPEC, lambdas=(0.0, 0.2, 0.4, 0.5), reps=600)
LONG_ROWS = dict(POWER_KWARGS, n=20_000, reps=3)


def _per_chunk_tallies(stream):
    """Studentized tallies of T_k formed on one chunk at a time, the
    statistic and the counts of every chunk on their own."""
    rejections = np.zeros((len(stream.test_ks), len(stream.models)), dtype=np.int64)
    degenerate = np.zeros_like(rejections)
    critical = upper_quantile(stream.alpha / 2.0)
    size = montecarlo._chunk_reps(stream.n)
    for chunk, lo in enumerate(range(0, stream.reps, size)):
        rows = min(size, stream.reps - lo)
        rng = derive_stream(stream.master_seed, stream.stream_id, chunk)
        samples = np.stack([model.sample(rng, rows * stream.n).reshape(rows, stream.n)
                            for model in stream.models])
        sums = np.empty((2, len(stream.test_ks), len(stream.models), rows))
        signed = studentize(angles.sine_sums(samples, 0.0, stream.test_ks, sums), stream.n)
        degenerate += np.count_nonzero(np.isnan(signed), axis=-1)
        rejections += np.count_nonzero(np.abs(signed) > critical, axis=-1)
    return rejections, degenerate


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_windowed_tallies_match_per_chunk_rows_on_stale_scratch(monkeypatch, threads):
    """The engine scores T_k once per block of chunks from their sine sums;
    its tallies are those of the statistic formed chunk by chunk, bit for
    bit, over a block boundary and a last chunk cut short, and with the
    moment arrays of earlier blocks left behind. The models are new to
    each stream, so the workers form each von Mises envelope, which a model
    keeps, concurrently; a short switch interval makes them interleave."""
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 4)
    n, reps = 40, 1284
    size = montecarlo._chunk_reps(n)
    window = size * max(1, montecarlo._WINDOW_ROWS // size)
    # one worker: a block of two chunks, then one whole chunk and one cut short
    assert (size, window) == (409, 818) and reps == window + size + 57

    def stream(ks):
        return montecarlo._Stream(
            master_seed=13, stream_id=f"window|{ks}", n=n, test_ks=ks, alpha=0.05,
            reps=reps,
            models=(SineSkewed(VonMises(1.0), 0.3, k=2), _Snapped(n),
                    SineSkewed(VonMises(4.0), 0.0, k=1)),
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for ks in [(1,), (2,), (1, 2, 3), (2, 4, 6), (1, 17)]:  # (1, 17): a pass per k
            expected = [t.tolist() for t in _per_chunk_tallies(stream(ks))]
            (tallies,) = montecarlo._tallies([stream(ks)], threads)
            assert [t.tolist() for t in tallies] == expected
            assert expected[1][0][1] > 0  # the snapped model's all-zero rows
    finally:
        sys.setswitchinterval(interval)


class TestWorkspace:
    """Scratch arrays live with their thread: the calling thread keeps its
    own from one engine call to the next, a pool worker's go with the pool,
    and a call outside the engine keeps none."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_second_identical_call_adds_nothing(self, monkeypatch, threads):
        # two cores, so that two threads start a pool on any host
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        for run in (lambda: run_scenario(WIDE_SPEC, threads=threads),
                    lambda: power_curve(*POWER_ARGS, **LONG_ROWS, threads=threads)):
            run()
            assert _traced_growth(run)[0] < 64 * 1024

    def test_the_calling_thread_reuses_its_arrays(self):
        def kept():
            run_scenario(SMALL_SPEC)
            arrays = dict(workspace._store.arrays)
            run_scenario(SMALL_SPEC)
            return arrays, workspace._store.arrays

        before, after = _in_a_fresh_thread(kept)
        assert before
        assert all(after[key] is array for key, array in before.items())
        # each thread has its own: this one does not see the other's
        assert all(workspace._store.arrays.get(key) is not array
                   for key, array in after.items())

    def test_workers_scratch_goes_with_the_pool(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        # The warm-ups take smaller scratch arrays than the calls measured
        # after them, so scratch a worker kept past its pool would show as
        # growth; the peak shows that the workers did hold scratch.
        for warm_up, run in ((lambda: run_scenario(SMALL_SPEC, threads=2),
                              lambda: run_scenario(WIDE_SPEC, threads=2)),
                             (lambda: power_curve(*POWER_ARGS, **POWER_KWARGS, threads=2),
                              lambda: power_curve(*POWER_ARGS, **LONG_ROWS, threads=2))):
            warm_up()
            growth, peak = _traced_growth(run)
            assert growth < 64 * 1024
            assert peak > 256 * 1024

    def test_what_a_call_holds_does_not_grow_with_reps(self):
        """The sine sums are scored in blocks bounded in rows, so 32 times
        the replications leave the traced peak where it was."""
        def run(reps):
            return power_curve(VonMises(1.0), 2, 2, [2.0], mode="empirical", n=200,
                               reps=reps, threads=1)

        run(800)  # the calling thread's scratch arrays, kept from here on
        peaks = [_traced_growth(lambda: run(reps))[1] for reps in (800, 25_600)]
        assert peaks[1] - peaks[0] < 64 * 1024

    def test_calls_outside_the_engine_keep_nothing(self):
        rng = np.random.default_rng(3)
        model = VonMises(1.0)
        small, large = model.sample(rng, 100), model.sample(rng, 200_000)

        def single_calls(x):
            model.sample(rng, x.size)
            symmetry_test(x, 0.0, 2)
            modified_runs_test(x, 0.0)

        _in_a_fresh_thread(lambda: single_calls(small))
        growth, peak = _traced_growth(lambda: single_calls(large))
        assert growth < 64 * 1024
        assert peak > large.nbytes

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tables_survive_stale_scratch(self, threads):
        """Scratch left by a larger or smaller block, or by another suspended
        run, changes no table."""
        large = replace(SMALL_SPEC, scenario_id="stale_large", base="cardioid:0.5",
                        lambdas=(0.0, 0.3, 0.6), n=5000, reps=100)
        small = replace(SMALL_SPEC, scenario_id="stale_small", family="moebius",
                        base="wcauchy:0.5", n=12, reps=300)
        fresh = {spec.scenario_id: _in_a_fresh_thread(lambda: run_scenario(spec).to_json())
                 for spec in (large, small)}

        def in_turn():
            tables = [run_scenario(spec, threads=threads).to_json()
                      for spec in (large, small, large)]
            first = run_scenarios([large, small, large], threads=threads)
            second = run_scenarios([small, large], threads=threads)
            for run in (first, second, first, second, first):
                tables.append(next(run).to_json())
            return tables

        expected = [fresh[spec.scenario_id]
                    for spec in (large, small, large, large, small, small, large, large)]
        assert _in_a_fresh_thread(in_turn) == expected


def _scored_samples(monkeypatch):
    """The sample arrays that the engine scores, copied in call order."""
    samples = []
    sine_sums = angles.sine_sums

    def recording(x, theta, ks, out):
        samples.append(x.copy())
        return sine_sums(x, theta, ks, out)

    monkeypatch.setattr(angles, "sine_sums", recording)
    return samples


def _chunk_samples(stream, model, chunk):
    """``model.sample`` of a whole chunk of ``stream`` on its own generator,
    which is returned too, as rows of n."""
    size = montecarlo._chunk_reps(stream.n)
    rows = min(size, stream.reps - chunk * size)
    rng = derive_stream(stream.master_seed, stream.stream_id, chunk)
    return model.sample(rng, rows * stream.n).reshape(rows, stream.n), rng


class TestSharedDraw:
    """The models of a stream that share a draw key map one draw of random
    inputs per chunk, and each model's rows are still its own sampler's."""

    def test_keys_are_the_form_at_lam_zero(self):
        base = VonMises(1.0)
        for form, other in [
            (lambda lam: SineSkewed(base, lam, k=2, theta=0.5),
             SineSkewed(base, 0.2, k=3, theta=0.5)),
            (lambda lam: MoebiusSkewed(WrappedCauchy(0.5), lam, 0.3),
             MoebiusSkewed(WrappedCauchy(0.5), 0.2, 0.4)),
            (lambda lam: SkewedMixture(2.0, lam), SkewedMixture(3.0, 0.2)),
        ]:
            keys = {form(lam)._draw_key for lam in (0.0, -0.0, 0.2, -0.5)}
            assert keys == {form(0.0)} != {other._draw_key}
        assert base._draw_key is None

    def test_groups_in_order_of_their_first_model(self):
        sine = [SineSkewed(VonMises(1.0), lam, k=2) for lam in (0.0, 0.3, -0.2)]
        other = [SineSkewed(VonMises(2.0), lam, k=2) for lam in (0.3, 0.5)]
        models = (sine[0], other[0], _Snapped(10), sine[1], VonMises(1.0),
                  VonMises(1.0), sine[2], other[1])
        assert montecarlo._draw_groups(models) == [[0, 3, 6], [1, 7], [2], [4], [5]]

    @pytest.mark.parametrize("spec", [
        ScenarioSpec(scenario_id="shared_sine", family="sineskew", base="cardioid:0.5",
                     lambdas=(0.0, 0.5, -0.3), skew_k=2, n=20, reps=1000, master_seed=3),
        ScenarioSpec(scenario_id="shared_moebius", family="moebius", base="wcauchy:0.9",
                     lambdas=(0.0, 0.1, 0.4), n=20, reps=1000, master_seed=4),
        ScenarioSpec(scenario_id="shared_mix", family="mixshift", base="vm:10",
                     lambdas=(0.0, 0.6, 1.2), n=20, reps=1000, master_seed=5),
    ], ids=lambda spec: spec.family)
    def test_each_model_maps_the_shared_inputs_to_its_own_sample(self, monkeypatch, spec):
        """Every model of a scenario shares the chunk's one draw of inputs,
        made first, so its rows are what its own ``sample`` draws from the
        chunk's generator, runs coins and all."""
        samples = _scored_samples(monkeypatch)
        stream = montecarlo._scenario_stream(spec)
        assert len(montecarlo._draw_groups(stream.models)) == 1
        montecarlo._replication_block(stream, 0, stream.reps)
        expected = [_chunk_samples(stream, model, chunk)[0]
                    for chunk in range(2) for model in stream.models]
        assert [s.tobytes() for s in samples] == [e.tobytes() for e in expected]

    @pytest.mark.parametrize("model", [
        VonMises(1.0), _Snapped(16), SineSkewed(WrappedCauchy(0.9), -0.3, k=3, theta=2.5),
        MoebiusSkewed(VonMises(2.0), 0.3, 0.5), SkewedMixture(1.0, 0.4),
    ], ids=["vm", "snapped", "sineskew", "moebius", "mixshift"])
    def test_a_single_model_stream_draws_what_sample_draws(self, monkeypatch, model):
        """The rows of a model alone in its stream are its ``sample`` from
        the chunk's generator, and the engine leaves that generator where
        ``sample`` leaves it."""
        generators = []

        def recording(*args):
            generators.append(derive_stream(*args))
            return generators[-1]

        monkeypatch.setattr(montecarlo, "derive_stream", recording)
        samples = _scored_samples(monkeypatch)
        stream = montecarlo._Stream(master_seed=6, stream_id="alone", models=(model,),
                                    n=16, test_ks=(1,), alpha=0.05,
                                    reps=montecarlo._chunk_reps(16) + 30)
        montecarlo._replication_block(stream, 0, stream.reps)
        assert len(samples) == len(generators) == 2
        for chunk in range(2):
            expected, rng = _chunk_samples(stream, model, chunk)
            assert samples[chunk].tobytes() == expected.tobytes()
            assert generators[chunk].random() == rng.random()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_grid_point_is_the_same_alone_and_in_any_grid(self, monkeypatch, threads):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        grid = [0.0, 1.5, 3.0, 4.5]
        args = dict(mode="empirical", n=60, reps=3 * montecarlo._chunk_reps(60) - 50,
                    master_seed=5, threads=threads)
        curve = power_curve(VonMises(2.0), 1, 2, grid, **args)
        assert len({power for _, power in curve}) == len(grid)
        assert power_curve(VonMises(2.0), 1, 2, grid[::-1], **args) == curve[::-1]
        for point in curve:
            assert power_curve(VonMises(2.0), 1, 2, [point[0]], **args) == [point]


class TestPowerCurve:
    def test_analytic_zero_drift_is_level(self):
        points = power_curve(VonMises(1.0), 2, 2, [0.0], alpha=0.05)
        assert points[0][1] == pytest.approx(0.05, abs=1e-12)

    def test_analytic_matches_local_power(self):
        from circsym.asymptotics import local_power

        grid = [0.5, 1.5, 3.0]
        points = power_curve(VonMises(1.0), 2, 3, grid)
        for (tau2, power), expected in zip(
            points, [local_power(VonMises(1.0), 2, 3, t) for t in grid]
        ):
            assert power == pytest.approx(expected, abs=1e-14)

    def test_analytic_moments_once_per_curve(self, monkeypatch):
        calls = []
        moment_sum = special.bessel_ratio_sum

        def counting(orders, kappa, weight):
            calls.append(orders)
            return moment_sum(orders, kappa, weight)

        for module in (special, distributions):
            monkeypatch.setattr(module, "bessel_ratio_sum", counting)
        counts = []
        for size in (5, 21):
            calls.clear()
            power_curve(VonMises(650.0), 2, 3, np.linspace(0.0, 5.0, size))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("k_prime", [2.0, np.int64(2)], ids=["float", "int64"])
    def test_an_integral_k_prime_names_the_stream_of_its_int(self, k_prime):
        args = dict(mode="empirical", n=100, reps=200)
        assert power_curve(VonMises(1.0), 2, k_prime, (2.0,), **args) == \
            power_curve(VonMises(1.0), 2, 2, (2.0,), **args)

    def test_a_fractional_k_prime_raises_before_any_draw(self, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a stream was drawn")

        monkeypatch.setattr(montecarlo, "derive_stream", no_stream)
        with pytest.raises(ValueError, match="frequency k must be a positive integer"):
            power_curve(VonMises(1.0), 2, 2.5, (0.0, 2.0), mode="empirical", n=100,
                        reps=200)

    def test_empirical_needs_sizes(self):
        with pytest.raises(ValueError, match="n and reps"):
            power_curve(VonMises(1.0), 2, 2, [1.0], mode="empirical")

    @pytest.mark.parametrize("n, reps", [(0, 100), (20, 0), (2.5, 100), (20, -3)])
    def test_empirical_sizes_are_positive_integers(self, n, reps):
        with pytest.raises(ValueError, match="positive integers"):
            power_curve(VonMises(1.0), 2, 2, [0.0], mode="empirical", n=n, reps=reps)

    @pytest.mark.parametrize("n, reps", [("20", 100), (20, None), (b"20", 100)])
    def test_empirical_sizes_that_are_not_numbers_are_refused(self, n, reps):
        with pytest.raises(ValueError, match="positive integers"):
            power_curve(VonMises(1.0), 2, 2, [0.0], mode="empirical", n=n, reps=reps)

    @pytest.mark.parametrize("seed", [7.9, "7", float("inf")])
    def test_empirical_seed_is_refused_as_a_scenario_refuses_it(self, seed):
        with pytest.raises(ValueError) as refused:
            ScenarioSpec(scenario_id="x", family="sineskew", base="vm:1",
                         lambdas=(0.0,), master_seed=seed)
        with pytest.raises(refused.type, match=re.escape(str(refused.value))):
            power_curve(VonMises(1.0), 2, 2, [0.0], mode="empirical", n=20, reps=10,
                        master_seed=seed)

    def test_an_integral_float_seed_is_its_int(self):
        curves = [power_curve(VonMises(1.0), 2, 2, [0.0, 2.0], mode="empirical", n=20,
                              reps=200, master_seed=seed) for seed in (7, 7.0, 8)]
        assert curves[0] == curves[1] != curves[2]

    def test_empirical_sample_size_is_bounded(self):
        message = f"sample size n must be at most {MAX_SAMPLE_SIZE}, got {10**11}"
        with pytest.raises(ValueError, match=re.escape(message)):
            power_curve(VonMises(1.0), 2, 2, [0.0], mode="empirical", n=10**11, reps=100)

    def test_empirical_rejects_non_contiguous_drift(self):
        with pytest.raises(ValueError, match="outside"):
            power_curve(VonMises(1.0), 2, 2, [11.0], mode="empirical", n=100, reps=100)

    def test_empirical_zero_drift_near_level(self):
        points = power_curve(VonMises(1.0), 2, 2, [0.0], mode="empirical",
                             n=50, reps=400, master_seed=5)
        assert points[0][1] == pytest.approx(0.05, abs=0.04)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            power_curve(VonMises(1.0), 2, 2, [1.0], mode="exact")


class TestPresets:
    def test_blocks_and_grids(self):
        assert set(PRESETS) == {"table1", "table2", "table3"}
        for name, specs in PRESETS.items():
            for spec in specs:
                assert spec.lambdas[0] == 0.0
                assert spec.n == 100
                assert spec.alpha == 0.05

    def test_preset_resize(self):
        specs = preset_scenarios("table1", reps=150, master_seed=3)
        assert all(s.reps == 150 and s.master_seed == 3 for s in specs)

    @pytest.mark.parametrize("reps, master_seed, field", [
        (150.7, None, "reps"), (None, 3.9, "master_seed"), (150.7, 3.9, "reps"),
    ])
    def test_preset_resize_rejects_non_integers(self, reps, master_seed, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            preset_scenarios("table1", reps=reps, master_seed=master_seed)

    def test_preset_resize_stores_integral_floats_as_int(self):
        specs = preset_scenarios("table1", reps=150.0, master_seed=3.0)
        assert all(type(s.reps) is int and type(s.master_seed) is int for s in specs)
        assert specs == preset_scenarios("table1", reps=150, master_seed=3)

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            preset_scenarios("table9")

    def test_table3_moebius_grid(self):
        moebius = [s for s in PRESETS["table3"] if s.family == "moebius"]
        assert moebius[0].lambdas == (0.0, 0.2 / 3, 0.4 / 3, 0.2)
        assert moebius[1].lambdas == (0.0, 0.02, 0.04, 0.06)


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(format_scenario(SMALL_SPEC), encoding="utf-8")
        assert load_scenario_file(path) == SMALL_SPEC

    @pytest.mark.parametrize("spec", [s for specs in PRESETS.values() for s in specs],
                             ids=lambda spec: spec.scenario_id)
    def test_every_preset_round_trips(self, tmp_path, spec):
        path = tmp_path / "scenario.txt"
        path.write_text(format_scenario(spec), encoding="utf-8")
        assert load_scenario_file(path) == spec

    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(
            "# a comment\n"
            "scenario_id = demo\n"
            "family = sineskew   # trailing comment\n"
            "base = cardioid:0.5\n"
            "lambdas = 0, 0.3\n"
            "runs_p = none\n",
            encoding="utf-8",
        )
        spec = load_scenario_file(path)
        assert spec.scenario_id == "demo"
        assert spec.runs_p is None
        assert spec.lambdas == (0.0, 0.3)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("scenario_id = x\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key 'bogus'"):
            load_scenario_file(path)

    def test_removed_calibration_key_rejected(self, tmp_path):
        # The runs test's null law is exact, so no calibration size is read.
        path = tmp_path / "scenario.txt"
        path.write_text("scenario_id = x\nruns_calibration_reps = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown key 'runs_calibration_reps'"):
            load_scenario_file(path)

    def test_runs_only_scenario(self, tmp_path):
        spec = replace(SMALL_SPEC, test_ks=(), runs_p=0.6)
        path = tmp_path / "scenario.txt"
        path.write_text(format_scenario(spec), encoding="utf-8")
        assert "test_ks = none\n" in path.read_text(encoding="utf-8")
        assert load_scenario_file(path) == spec

    @pytest.mark.parametrize("line", [
        "reps = abc", "lambdas = 0, x", "test_ks = 1,two", "runs_p = maybe", "test_ks = ",
        "test_ks = 1,,2",
        "base = sineskew(vm:1,lam=0.1)", "base = gauss:1",
    ])
    def test_bad_value_reported_with_its_line(self, tmp_path, line):
        path = tmp_path / "scenario.txt"
        path.write_text(f"scenario_id = x\nfamily = sineskew\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: bad"):
            load_scenario_file(path)

    def test_invalid_scenario_reported_with_its_file(self, tmp_path):
        path = tmp_path / "scenario.txt"
        for lines, message in [
            ("family = sineskew\nreps = 5", "replication count"),
            ("family = moebius\nmoebius_r = 1.5", "r must lie in (0, 1)"),
            ("family = sineskew\nskew_k = 0", "frequency k must be a positive integer"),
            ("family = sineskew\nn = 100000000000", "sample size n must be at most 10000000"),
        ]:
            path.write_text(f"scenario_id = x\nbase = vm:1\nlambdas = 0, 0.1\n{lines}\n",
                            encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
                load_scenario_file(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("scenario_id = x\nfamily = sineskew\nscenario_id = y\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: key 'scenario_id' repeated")):
            load_scenario_file(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("scenario_id = x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing required"):
            load_scenario_file(path)

    def test_non_utf8_position_counts_from_the_start_of_the_file(self, tmp_path):
        # a byte past the first 8 KiB
        path = tmp_path / "scenario.txt"
        path.write_bytes(b"# c\n" * 5000 + b"\xff")
        with pytest.raises(UnicodeDecodeError, match=re.escape(
                f"position 20000: invalid start byte in {path}, which is not UTF-8 text")):
            load_scenario_file(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_once(self, tmp_path):
        content = format_scenario(SMALL_SPEC).replace("\n", "\r\n").encode("utf-8")
        path = tmp_path / "scenario.txt"
        path.write_bytes(content)
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, content)  # fits in the pipe's buffer
            os.close(write_fd)
            pipe = f"/dev/fd/{read_fd}"
            assert load_scenario_file(pipe) == load_scenario_file(path) == SMALL_SPEC
        finally:
            os.close(read_fd)
