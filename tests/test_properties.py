"""Invariants stated by the library, checked as properties over generated inputs."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circsym.angles import wrap
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
from circsym.symtests import studentized_statistic

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
models = st.one_of(
    bases,
    st.builds(SineSkewed, bases,
              st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
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


@properties
@given(st.lists(canonical, min_size=1, max_size=50))
@example([-0.0])
@example([-math.pi, 0.0, np.nextafter(math.pi, 0.0)])
def test_angle_files_round_trip_bit_for_bit(tmp_path_factory, angles):
    path = tmp_path_factory.mktemp("angles") / "a.txt"
    angles = np.asarray(angles)
    write_angles(path, angles)
    assert read_angles(path).tobytes() == angles.tobytes()


def _statistic(sample, theta, k):
    """T_k, or None where the sines are too small for a stable comparison."""
    sines = np.sin(k * (wrap(np.asarray(sample)) - theta))
    if np.mean(sines**2) < 1e-3:
        return None
    return studentized_statistic(sample, theta, k)


samples = st.lists(canonical, min_size=2, max_size=50)
frequencies = st.integers(min_value=1, max_value=5)


@properties
@given(samples, canonical, st.floats(min_value=-10.0, max_value=10.0), frequencies)
def test_statistic_is_rotation_equivariant(sample, theta, c, k):
    plain = _statistic(sample, theta, k)
    assume(plain is not None)
    rotated = studentized_statistic(np.asarray(sample) + c, theta + c, k)
    assert math.isclose(rotated, plain, rel_tol=1e-9, abs_tol=1e-9)


@properties
@given(samples, canonical, frequencies)
def test_statistic_changes_sign_under_reflection(sample, theta, k):
    plain = _statistic(sample, theta, k)
    assume(plain is not None)
    mirrored = studentized_statistic(2.0 * theta - np.asarray(sample), theta, k)
    assert math.isclose(mirrored, -plain, rel_tol=1e-9, abs_tol=1e-9)
