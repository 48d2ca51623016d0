"""Tests of circular reflective symmetry about a known median direction.

Sine-based optimal tests against k-sine-skewed departures from a symmetric
circular base density, with exact samplers, Fisher information and local
power machinery, a deterministic Monte Carlo replication engine, and a
command-line front end.
"""

__version__ = "0.1.0"

from .angles import TWO_PI, as_sample, wrap
from .asymptotics import (
    CentralSequence,
    FisherMatrix,
    central_sequence,
    cross_corr,
    efficient_central_sequence,
    fisher_matrix,
    local_power,
)
from .datasets import ant_data_path, load_ant_data
from .distributions import (
    BASE_FAMILIES,
    Cardioid,
    MoebiusSkewed,
    SineSkewed,
    SkewedMixture,
    Uniform,
    VonMises,
    VonMisesMixture,
    WrappedCauchy,
    parse_base,
    parse_model,
)
from .errors import (
    CircsymError,
    DegenerateInformationError,
    DegenerateSampleError,
    EmptySampleError,
    QuadratureConvergenceError,
    UnsupportedBaseError,
)
from .io import read_angles, write_angles
from .montecarlo import (
    PRESETS,
    ScenarioSpec,
    TableResult,
    derive_stream,
    load_scenario_file,
    power_curve,
    preset_scenarios,
    run_scenario,
    run_scenarios,
)
from .quadrature import integrate_periodic
from .symtests import (
    TestResult,
    modified_runs_test,
    parametric_statistic,
    parametric_test,
    rayleigh_cardioid_test,
    studentized_statistic,
    symmetry_test,
)

__all__ = [
    "TWO_PI", "wrap", "as_sample",
    "integrate_periodic",
    "Uniform", "VonMises", "Cardioid", "WrappedCauchy", "VonMisesMixture",
    "SineSkewed", "MoebiusSkewed", "SkewedMixture", "BASE_FAMILIES", "parse_base",
    "parse_model",
    "FisherMatrix", "CentralSequence",
    "fisher_matrix", "cross_corr", "local_power",
    "central_sequence", "efficient_central_sequence",
    "TestResult", "studentized_statistic", "symmetry_test",
    "parametric_statistic", "parametric_test", "rayleigh_cardioid_test",
    "modified_runs_test",
    "ScenarioSpec", "TableResult", "derive_stream", "run_scenario", "run_scenarios",
    "power_curve", "PRESETS", "preset_scenarios", "load_scenario_file",
    "ant_data_path", "load_ant_data",
    "read_angles", "write_angles",
    "CircsymError", "EmptySampleError", "DegenerateSampleError",
    "DegenerateInformationError", "UnsupportedBaseError",
    "QuadratureConvergenceError",
]
