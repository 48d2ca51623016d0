"""Per-layer spans for the traced run, installed from outside circsym.

``Tracer.install`` replaces public functions and sampler methods at each
module boundary with wrappers that time the call and count it. A name that
another circsym module imported with ``from .x import f`` is replaced there
too, so every call path goes through the wrapper. ``uninstall`` puts the
originals back. Self time is a span's duration minus the time covered by
the spans it encloses, so the self times of one operation add up to its
traced wall time.

The spawn workers of ``threads > 1`` runs import circsym afresh and never
see these wrappers: only parent-side work is traced there.
"""

import concurrent.futures
import functools
import sys
import time
import types
from collections import defaultdict

# (module, attribute, layer): module-level functions
FUNCTIONS = (
    ("montecarlo", "derive_stream", "montecarlo.derive_stream"),
    ("montecarlo", "run_scenario", "montecarlo.engine"),
    ("montecarlo", "power_curve", "montecarlo.engine"),
    ("symtests", "symmetry_test", "symtests.symmetry_test"),
    ("symtests", "modified_runs_test", "symtests.modified_runs_test"),
    ("symtests", "simulate_runs_null", "symtests.simulate_runs_null"),
    ("angles", "wrap", "angles.wrap"),
    ("angles", "as_sample", "angles.as_sample"),
    ("asymptotics", "fisher_matrix", "asymptotics.fisher_matrix"),
    ("asymptotics", "cross_corr", "asymptotics.cross_corr"),
    ("asymptotics", "local_power", "asymptotics.local_power"),
    ("quadrature", "integrate_periodic", "quadrature.integrate_periodic"),
    ("special", "bessel_i", "special.bessel_i"),
    ("io", "read_angles", "io.read_angles"),
    ("io", "write_angles", "io.write_angles"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
)

SAMPLERS = ("VonMises", "Cardioid", "WrappedCauchy",
            "SineSkewed", "MoebiusSkewed", "SkewedMixture")

# Every per-layer metric a traced run reports, with its unit.
METRICS = (
    ("montecarlo.derive_stream.calls", "count"),
    ("montecarlo.derive_stream.self_s", "s"),
    ("montecarlo.engine.self_s", "s"),
    ("montecarlo.pool.starts", "count"),
    ("montecarlo.pool.wait_s", "s"),
    ("symtests.symmetry_test.calls", "count"),
    ("symtests.symmetry_test.self_s", "s"),
    ("symtests.modified_runs_test.calls", "count"),
    ("symtests.modified_runs_test.self_s", "s"),
    ("symtests.simulate_runs_null.calls", "count"),
    ("symtests.simulate_runs_null.self_s", "s"),
    *((f"distributions.{name}.sample.self_s", "s") for name in SAMPLERS),
    ("distributions.sample.calls", "count"),
    ("angles.wrap.calls", "count"),
    ("angles.wrap.self_s", "s"),
    ("angles.as_sample.calls", "count"),
    ("asymptotics.fisher_matrix.calls", "count"),
    ("asymptotics.fisher_matrix.self_s", "s"),
    ("asymptotics.fisher_matrix.failed", "count"),
    ("asymptotics.cross_corr.calls", "count"),
    ("asymptotics.cross_corr.self_s", "s"),
    ("asymptotics.local_power.calls", "count"),
    ("quadrature.integrate_periodic.calls", "count"),
    ("quadrature.integrate_periodic.self_s", "s"),
    ("quadrature.points", "count"),
    ("special.bessel_i.calls", "count"),
    ("special.bessel_i.self_s", "s"),
    ("io.read_angles.calls", "count"),
    ("io.read_angles.self_s", "s"),
    ("io.write_angles.calls", "count"),
    ("io.write_angles.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.build_parser.self_s", "s"),
)


class Tracer:
    """Span accounting for one traced run; totals are kept per layer."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []  # per open span: seconds covered by its children
        self._restore = []

    def _enter(self):
        self._open.append(0.0)
        return time.perf_counter()

    def _leave(self, layer, start, failed):
        duration = time.perf_counter() - start
        children = self._open.pop()
        if self._open:
            self._open[-1] += duration
        self.calls[layer] += 1
        self.failed[layer] += failed
        self.self_s[layer] += duration - children

    def span(self, layer, fn, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            start = self._enter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._leave(layer, start, failed)
        return traced

    def _count_points(self, args, kwargs):
        integrand, *rest = args

        def counted(x):
            self.counts["quadrature.points"] += getattr(x, "size", 1)
            return integrand(x)

        return (counted, *rest), kwargs

    def _pool_class(self):
        tracer = self

        class TracedPool(concurrent.futures.ProcessPoolExecutor):
            """Counts pool starts; the span runs from start to shutdown."""

            def __init__(self, *args, **kwargs):
                tracer.counts["montecarlo.pool.starts"] += 1
                self._span_start = tracer._enter()
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._leave("montecarlo.pool", self._span_start, exc[0] is not None)

        return TracedPool

    def _replace(self, owner, attribute, value):
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "circsym" or name.startswith("circsym.")]
        for module_name, attribute, layer in FUNCTIONS:
            original = getattr(sys.modules[f"circsym.{module_name}"], attribute)
            on_call = self._count_points if attribute == "integrate_periodic" else None
            traced = self.span(layer, original, on_call)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, traced)
        distributions = sys.modules["circsym.distributions"]
        for class_name in SAMPLERS:
            cls = getattr(distributions, class_name)
            self._replace(cls, "sample",
                          self.span(f"distributions.{class_name}.sample", cls.sample))
        montecarlo = sys.modules["circsym.montecarlo"]
        futures = types.SimpleNamespace(
            ProcessPoolExecutor=self._pool_class(),
            as_completed=concurrent.futures.as_completed,
        )
        self._replace(montecarlo, "concurrent", types.SimpleNamespace(futures=futures))

    def uninstall(self):
        while self._restore:
            owner, attribute, value = self._restore.pop()
            setattr(owner, attribute, value)

    def metrics(self, rounds):
        """Every per-layer metric, as totals per traced round."""
        values = {}
        for name, _unit in METRICS:
            layer, _, field = name.rpartition(".")
            if name == "distributions.sample.calls":
                total = sum(self.calls[f"distributions.{c}.sample"] for c in SAMPLERS)
            elif name == "montecarlo.pool.wait_s":
                total = self.self_s["montecarlo.pool"]
            elif field == "calls":
                total = self.calls[layer]
            elif field == "self_s":
                total = self.self_s[layer]
            elif field == "failed":
                total = self.failed[layer]
            else:
                total = self.counts[name]
            values[name] = total / rounds
        return values
