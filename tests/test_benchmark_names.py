"""The names that the benchmark's tracer looks up in circsym.

``benchmarks/tracing.py`` replaces module functions, sampler methods and
``montecarlo.concurrent`` by name, and fails when one of them is gone.
Installing it here makes a deleted or renamed name fail the test suite,
not only the traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import circsym
import circsym.cli  # the tracer looks up cli.main and cli.build_parser
from circsym import montecarlo, symtests

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_on_the_package_and_puts_every_name_back():
    tracing = _load_tracing()
    names = [(sys.modules[f"circsym.{module}"], attribute)
             for module, attribute, _layer in tracing.FUNCTIONS]
    names += [(montecarlo, "concurrent")]
    names += [(getattr(circsym.distributions, cls), "sample") for cls in tracing.SAMPLERS]
    before = [getattr(owner, attribute) for owner, attribute in names]
    original = symtests.symmetry_test
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert circsym.symmetry_test is not original
        circsym.symmetry_test(np.linspace(-1.0, 1.0, 9), 0.3, 1)
    finally:
        tracer.uninstall()
    assert tracer.calls["symtests.symmetry_test"] == 1
    assert circsym.symmetry_test is original
    assert all(getattr(owner, attribute) is value
               for (owner, attribute), value in zip(names, before))
