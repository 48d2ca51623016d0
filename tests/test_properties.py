"""Invariants stated by the library, checked as properties over generated inputs."""

import argparse
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circsym import montecarlo
from circsym.angles import half_tangent, sine_multiples, sine_sums, wrap
from circsym.asymptotics import central_sequence, efficient_central_sequence, fisher_matrix
from circsym.cli import UsageError, _frequencies, _parse_grid
from circsym.distributions import (
    Cardioid,
    MoebiusSkewed,
    SineSkewed,
    SkewedMixture,
    Uniform,
    VonMises,
    VonMisesMixture,
    WrappedCauchy,
    parse_model,
)
from circsym.io import read_angles, write_angles
from circsym.montecarlo import (FAMILIES, MAX_DRAWS, ScenarioSpec, format_scenario,
                                load_scenario_file)
from circsym.special import MAX_SAMPLE_SIZE
from circsym.symtests import parametric_test, studentize, symmetry_test

properties = settings(derandomize=True, database=None, deadline=None, max_examples=200)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
canonical = st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True)

bases = st.one_of(
    st.just(Uniform()),
    st.builds(VonMises, positive),
    st.builds(Cardioid, unit_open),
    st.builds(WrappedCauchy, unit_open),
    st.builds(VonMisesMixture, positive),
)
skewness = st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True)
models = st.one_of(
    bases,
    st.builds(SineSkewed, bases, skewness,
              k=st.integers(min_value=1, max_value=10**6), theta=finite),
    st.builds(MoebiusSkewed, bases, finite, unit_open),
    st.builds(SkewedMixture, positive, finite),
)


@properties
@given(models)
def test_every_label_reads_back(model):
    assert parse_model(model.label) == model


@properties
@given(finite)
@example(-0.0)
@example(math.pi)
@example(-math.pi)
@example(np.nextafter(-math.pi, -4.0))
def test_wrap_is_idempotent_and_canonical(x):
    once = wrap(x)
    assert -math.pi <= once < math.pi
    assert wrap(once) == once


def _wrap_by_mod(arr):
    """The mod/where formula that ``wrap`` applies to every value it is given."""
    wrapped = np.mod(arr + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped >= np.pi, wrapped - 2.0 * np.pi, wrapped)
    return np.where((arr >= -np.pi) & (arr < np.pi), arr, wrapped)


def _long_row(seed, specials):
    """10**4 canonical angles with ``specials`` at random positions."""
    rng = np.random.default_rng(seed)
    row = rng.uniform(-math.pi, math.pi, 10**4)
    row[rng.choice(row.size, len(specials), replace=False)] = specials
    return row.tolist()


seam = st.sampled_from([math.pi, -math.pi, -0.0, np.nextafter(-math.pi, -4.0)])
angle_lists = st.lists(st.one_of(canonical, finite, seam), max_size=40)


@properties
@given(angle_lists)
@example([0.5, -0.0, -math.pi])
@example([math.pi, 7.0, -0.0])
@example(_long_row(1, [math.pi, -math.pi, np.nextafter(-math.pi, -4.0), -0.0]))
@example(_long_row(2, [7.0, -1e300, 3.0 * math.pi, math.pi, -4.0]))
def test_wrap_matches_mod_formula_on_a_new_array(values):
    x = np.array(values, dtype=float)
    kept = x.copy()
    expected = _wrap_by_mod(kept)
    out = wrap(x)
    assert out.tobytes() == expected.tobytes()
    assert out is not x
    out += 1.0
    assert x.tobytes() == kept.tobytes()
    for value, wrapped in zip(values, expected):
        scalar = wrap(value)
        assert type(scalar) is float
        assert np.float64(scalar).tobytes() == wrapped.tobytes()


@properties
@given(angle_lists, st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 40))
def test_wrap_rejects_non_finite_anywhere(values, bad, position):
    values.insert(min(position, len(values)), bad)
    with pytest.raises(ValueError, match="non-finite"):
        wrap(np.array(values))


@properties
@given(st.lists(canonical, min_size=1, max_size=50))
@example([-0.0])
@example([-math.pi, 0.0, np.nextafter(math.pi, 0.0)])
def test_angle_files_round_trip_bit_for_bit(tmp_path_factory, angles):
    path = tmp_path_factory.mktemp("angles") / "a.txt"
    angles = np.asarray(angles)
    write_angles(path, angles)
    assert read_angles(path).tobytes() == angles.tobytes()


def _scenarios(family, test_ks, runs_p):
    """Valid scenario specs of one alternative family, n x reps x models
    within the cap."""
    grids = st.lists(skewness if family == "sineskew" else finite, max_size=4).map(
        lambda grid: (0.0, *grid))
    sizes = st.tuples(grids, st.integers(min_value=10, max_value=10**6)).flatmap(
        lambda grid_n: st.fixed_dictionaries({
            "lambdas": st.just(grid_n[0]), "n": st.just(grid_n[1]),
            "reps": st.integers(min_value=100,
                                max_value=MAX_DRAWS // (grid_n[1] * len(grid_n[0])))}))
    return st.builds(
        lambda sizes, **fields: ScenarioSpec(**sizes, **fields),
        sizes,
        scenario_id=st.from_regex(r"[A-Za-z0-9_.-]{1,16}", fullmatch=True).filter(
            lambda name: name not in (".", "..")),
        family=st.just(family),
        base=(st.builds(VonMises, positive) if family == "mixshift" else bases).map(
            lambda base: base.label),
        skew_k=st.integers(min_value=1, max_value=10**6),
        moebius_r=unit_open,
        alpha=unit_open,
        test_ks=test_ks,
        runs_p=runs_p,
        master_seed=st.integers(min_value=0, max_value=2**63),
    )


_frequency_lists = st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                           max_size=4).map(tuple)


@properties
@given(st.one_of(  # a scenario needs a test: some k, or the runs test alone
    *(_scenarios(family, _frequency_lists, st.none() | unit_open) for family in FAMILIES),
    *(_scenarios(family, st.just(()), unit_open) for family in FAMILIES),
))
@example(ScenarioSpec(scenario_id="m", family="moebius", base="vm:1",
                      lambdas=(0.0, 0.2 / 3, 0.1 + 0.2), runs_p=None))
@example(ScenarioSpec(scenario_id="r", family="sineskew", base="vm:1", lambdas=(0.0,),
                      test_ks=(), runs_p=0.6))
def test_scenario_files_round_trip(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("scenario") / "s.txt"
    path.write_text(format_scenario(spec), encoding="utf-8")
    assert load_scenario_file(path) == spec


@properties
@given(st.integers(min_value=1, max_value=5000)
       | st.integers(min_value=1, max_value=MAX_SAMPLE_SIZE),
       st.integers(min_value=1, max_value=200_000), st.integers(min_value=1, max_value=64))
def test_block_bounds_cut_whole_chunks_of_bounded_size(n, reps, pieces):
    stream = montecarlo._Stream(master_seed=0, stream_id="bounds", models=(), n=n,
                                test_ks=(1,), alpha=0.05, reps=reps)
    size = montecarlo._chunk_reps(n)
    window = size * max(1, montecarlo._WINDOW_ROWS // size)
    bounds = montecarlo._block_bounds(stream, pieces)
    # the blocks cover [0, reps) once, in order
    assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
    assert bounds[-1][1] == reps and all(lo < hi for lo, hi in bounds)
    for lo, hi in bounds:
        assert lo % size == 0
        assert hi - lo <= max(size, montecarlo._WINDOW_ROWS)
    # one worker: every block but the last holds a whole window, several
    # chunks wherever a window holds more than one
    if pieces == 1:
        assert all(hi - lo == window for lo, hi in bounds[:-1])
        assert len(bounds) == math.ceil(reps / window)
        if reps > window > size:
            assert bounds[0][1] > size
    else:
        assert len(bounds) <= max(pieces, math.ceil(reps / window))


def _statistic(sample, theta, k):
    """T_k, or None where the sines are too small for a stable comparison."""
    sines = np.sin(k * (wrap(np.asarray(sample)) - theta))
    if np.mean(sines**2) < 1e-3:
        return None
    return symmetry_test(sample, theta, k).statistic


samples = st.lists(canonical, min_size=2, max_size=50)
frequencies = st.integers(min_value=1, max_value=5)


@properties
@given(samples, canonical, st.floats(min_value=-10.0, max_value=10.0), frequencies)
def test_statistic_is_rotation_equivariant(sample, theta, c, k):
    plain = _statistic(sample, theta, k)
    assume(plain is not None)
    rotated = symmetry_test(np.asarray(sample) + c, theta + c, k).statistic
    assert math.isclose(rotated, plain, rel_tol=1e-9, abs_tol=1e-9)


@properties
@given(samples, canonical, frequencies)
def test_statistic_changes_sign_under_reflection(sample, theta, k):
    plain = _statistic(sample, theta, k)
    assume(plain is not None)
    mirrored = symmetry_test(2.0 * theta - np.asarray(sample), theta, k).statistic
    assert math.isclose(mirrored, -plain, rel_tol=1e-9, abs_tol=1e-9)


# Canonical angles where sin could lose the sign: zeros, subnormals and the
# doubles next to the ends of [-pi, pi)
_SIGN_EDGES = [0.0, -0.0, 5e-324, -5e-324, -math.pi,
               float(np.nextafter(math.pi, 0.0)), float(np.nextafter(-math.pi, 0.0))]


@properties
@given(st.lists(canonical, max_size=64))
@example([])
def test_sine_of_a_canonical_angle_has_its_sign(values):
    """The identity the modified runs kernel takes its signs from, on arrays
    long enough for numpy's vectorized sine."""
    x = np.array(_SIGN_EDGES * 4 + values)
    assert np.array_equal(np.sign(np.sin(x)), np.sign(x))


def test_sine_has_the_sign_of_uniform_canonical_angles():
    x = np.random.default_rng(31).uniform(-math.pi, math.pi, 10**6)
    assert np.array_equal(np.sign(np.sin(x)), np.sign(x))


EPS = np.finfo(float).eps
# the sign edges, and angles where the sine or cosine is +-1 or +-1/2
_TANGENT_EDGES = _SIGN_EDGES + [math.pi / 2, -math.pi / 2, math.pi / 3, -math.pi / 3]


def _check_half_tangent(c, k):
    """Sines, cosines and half-angle squares of k c from ``half_tangent``
    against numpy's sin and cos."""
    x = k * c
    t, w = half_tangent(x, np.empty_like(x), np.empty_like(x))
    assert np.all(np.abs(2.0 * t * w - np.sin(x)) <= 2.0 * EPS)
    assert np.all(np.abs((2.0 * w - 1.0) - np.cos(x)) <= 2.0 * EPS)
    for half, exact in ((t * t * w, np.sin(0.5 * x) ** 2), (w, np.cos(0.5 * x) ** 2)):
        assert np.all(np.abs(half - exact) <= 4.0 * EPS * exact)


@properties
@given(st.lists(canonical, max_size=64), st.sampled_from([1, 2, 3]))
@example([], 1)
def test_half_tangent_gives_sines_and_cosines(values, k):
    _check_half_tangent(np.array(_TANGENT_EDGES * 4 + values), k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_half_tangent_on_uniform_canonical_angles(k):
    _check_half_tangent(np.random.default_rng(32).uniform(-math.pi, math.pi, 10**6), k)


def _check_scaled_half_tangent(c, k):
    """``half_tangent`` with scale k gives the bits of the angles k c formed
    first and then halved. Halving is exact while k |c| / 2 is a normal
    double (at least 2^-1022). Below that bound the halving could round a
    second time, but only where k c itself was rounded: for an integer k,
    k |c| < 2^-1021 makes c and k c multiples of 2^-1074 in the range where
    every such multiple is a double, so k c is exact and the bits agree
    there too. Nothing is filtered: the subnormal examples take that path."""
    ref_t, ref_w = half_tangent(k * c, np.empty_like(c), np.empty_like(c))
    t, w = half_tangent(c, np.empty_like(c), np.empty_like(c), scale=k)
    assert t.tobytes() == ref_t.tobytes()
    assert w.tobytes() == ref_w.tobytes()


@properties
@given(st.lists(canonical, max_size=64), st.integers(min_value=1, max_value=16))
@example([], 1)
@example([2.0**-1021, 3 * 2.0**-1074, -(2.0**-1073)], 3)
def test_half_tangent_scale_gives_the_bits_of_the_scaled_angles(values, k):
    _check_scaled_half_tangent(np.array(_TANGENT_EDGES * 4 + values), k)


@pytest.mark.parametrize("k", range(1, 17))
def test_half_tangent_scale_on_uniform_canonical_angles(k):
    _check_scaled_half_tangent(np.random.default_rng(35).uniform(-math.pi, math.pi, 10**5), k)


def _check_sine_multiples(c, top=16):
    """sin(j c) for j <= ``top`` by the Chebyshev recurrence against numpy's
    sin: the error grows like j^2, and 2 j^2 eps bounds it (the largest
    error over j^2 eps was 1 at j = 1 and 0.69 at j = 16 on uniform angles)."""
    sines = sine_multiples(c, [np.empty_like(c) for _ in range(top)], np.empty_like(c))
    for j, sine in enumerate(sines, start=1):
        assert np.all(np.abs(sine - np.sin(j * c)) <= 2.0 * j * j * EPS)


@properties
@given(st.lists(canonical, max_size=64))
@example([])
def test_sine_multiples_follow_sin(values):
    _check_sine_multiples(np.array(_TANGENT_EDGES * 4 + values))


def test_sine_multiples_on_uniform_canonical_angles():
    _check_sine_multiples(np.random.default_rng(33).uniform(-math.pi, math.pi, 10**6))


def _studentized_by_sin(sample, theta, k):
    """T_k from np.sin, or None where the sines are too small for a stable
    comparison."""
    sines = np.sin(k * (sample - theta))
    if np.mean(sines**2) < 1e-3:
        return None
    return math.sqrt(sample.size) * np.mean(sines) / math.sqrt(np.mean(sines**2))


def _studentized_rows(x, theta, ks):
    """T_k of every row of ``x`` for each k in ``ks``, as the engine forms it."""
    sums = np.empty((2, len(ks)) + x.shape[:-1])
    return studentize(sine_sums(x, theta, ks, sums), x.shape[-1])


@properties
@given(samples, canonical, st.lists(st.integers(min_value=1, max_value=20), min_size=1,
                                    max_size=4).map(tuple))
@example([0.1, 0.2, -3.0], 0.0, (1, 2, 3))
@example([0.1, 0.2, -3.0], 0.5, (16, 4, 8))
@example([0.1, 0.2, -3.0], 0.5, (1, 17, 1))  # past the recurrence: a pass per k
def test_studentized_rows_match_sin_at_every_k(sample, theta, ks):
    sample = np.array(sample)
    signed = _studentized_rows(sample, theta, ks)
    assert signed.shape == (len(ks),)
    for k, value in zip(ks, signed):
        expected = _studentized_by_sin(sample, theta, k)
        if expected is not None:
            assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=1e-12)


def _studentized_rows_by_one_tangent(x, theta, k):
    """The row kernel as it was when it took one k: a tangent pass per call."""
    sines, w = np.empty_like(x), np.empty_like(x)
    np.subtract(x, theta, out=sines)
    np.multiply(k, sines, out=sines)
    half_tangent(sines, sines, w)
    np.multiply(sines, w, out=sines)
    np.multiply(2.0, sines, out=sines)
    mean_sine = np.mean(sines, axis=-1)
    denom_sq = np.mean(np.square(sines, out=sines), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        signed = math.sqrt(x.shape[-1]) * mean_sine / np.sqrt(denom_sq)
    return np.where(denom_sq == 0.0, np.nan, signed)


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_a_single_k_takes_the_one_tangent_kernel_bit_for_bit(k):
    rows = np.random.default_rng(34).uniform(-math.pi, math.pi, (3, 50, 40))
    rows[1, 7] = 0.4  # a row without a statistic
    for theta in (0.0, 0.4, -2.9):
        expected = _studentized_rows_by_one_tangent(rows, theta, k)
        assert _studentized_rows(rows, theta, (k,))[0].tobytes() == expected.tobytes()


_SUBNORMAL_ROWS = np.array([[5e-324] * 8, [-5e-324] * 8, [5e-324, -5e-324] * 4])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rows_of_subnormal_angles_have_no_studentized_statistic(k):
    """Their sines square to 0 whether they come from sin or from the tangent."""
    assert np.all(np.isnan(_studentized_rows(_SUBNORMAL_ROWS, 0.0, (k,))))


@pytest.mark.parametrize("ks", [(1, 2, 3), (2, 4, 6), (1, 5), (3, 16), (1, 17)])
def test_rows_of_subnormal_angles_have_no_statistic_at_any_k(ks):
    """Nor do the sines of the recurrence: every multiple squares to 0 too."""
    signed = _studentized_rows(_SUBNORMAL_ROWS, 0.0, ks)
    assert signed.shape == (len(ks), 3)
    assert np.all(np.isnan(signed))



@properties
@given(st.lists(canonical, min_size=2, max_size=200), st.floats(min_value=-10.0, max_value=10.0),
       st.integers(min_value=1, max_value=20))
@example([0.1, 0.2, -3.0], 0.0, 1)
@example([0.1, 0.2, -3.0], -0.0, 20)
@example([-math.pi, 0.0], 10.0, 17)
def test_sample_statistics_match_their_np_sin_formulas(sample, theta, k):
    """The central sequences and the parametric statistic, which take their
    sines from ``angles.sine_sums``, against the same formulas in ``np.sin``."""
    base = VonMises(2.0)
    matrix = fisher_matrix(base, k)
    centered = wrap(np.array(sample)) - theta
    sines, score = np.sin(k * centered), base.score(centered)
    root_n = math.sqrt(centered.size)
    skewness = root_n * float(np.mean(sines))
    efficient = root_n * float(np.mean(sines - matrix.g12 / matrix.g11 * score))
    assert abs(central_sequence(base, k, sample, theta).skewness - skewness) <= 1e-12
    assert abs(efficient_central_sequence(base, k, sample, theta) - efficient) <= 1e-12
    parametric = abs(skewness) / math.sqrt(matrix.g22)
    assert abs(abs(parametric_test(sample, theta, k, base).statistic) - parametric) <= 1e-12

# Short comma lists of digits, '.', '-', 'e', spaces and 'nan': well formed,
# empty items, junk and non-finite values alike.
number_lists = st.lists(st.sampled_from([*"0123456789.-e, ", "nan"]), max_size=10).map("".join)


def _outcome(parse, text, refusals):
    try:
        return tuple(parse(text))
    except refusals:
        return None


@properties
@given(number_lists)
@example("1,,2")
@example("1,2,")
@example(" 3 , 1")
@example("0")
def test_cli_frequencies_and_scenario_test_ks_agree(text):
    """``--k`` and a scenario file's ``test_ks`` both accept a list, as equal
    tuples, or both refuse it."""

    def test_ks(text):
        read = montecarlo._SCENARIO_KEYS["test_ks"](text.strip())
        return ScenarioSpec(scenario_id="h", family="sineskew", base="vm:1",
                            lambdas=(0.0,), test_ks=read).test_ks

    assert (_outcome(_frequencies, text, argparse.ArgumentTypeError)
            == _outcome(test_ks, text, ValueError))


@properties
@given(number_lists)
@example("0,,1")
@example("0,nan")
@example(" 0 , 1e999")
def test_cli_grid_list_and_scenario_lambdas_agree(text):
    """``--grid``'s list form and a scenario file's ``lambdas``, held to the
    grid's finite rule, both accept a list, as equal tuples, or both refuse it."""

    def lambdas(text):
        values = montecarlo._SCENARIO_KEYS["lambdas"](text.strip())
        if not all(map(math.isfinite, values)):
            raise ValueError("not finite")
        return values

    assert _outcome(_parse_grid, text, UsageError) == _outcome(lambdas, text, ValueError)
