"""``analysis``: the interactive path, one CLI request after another.

Each operation is one ``circsym.cli.main(argv)`` request, run in-process
with its output captured. A round holds ``len(round(r))`` requests:

- ``test`` and ``uniformity`` on angle files written at set-up from the
  seed: 20 to 100 000 observations in plain, csv and grouped layouts, in
  radians and degrees, counter-clockwise and clockwise, with and without
  a zero offset, declared in the file header or by flags;
- ``fisher`` and analytic ``power`` over sweeps of von Mises (kappa up to
  700), wrapped Cauchy (rho up to 0.975) and cardioid bases. Every request
  gets a base no earlier request of the process used, so circsym's memo
  caches never answer it: a CLI user pays these integrals in every fresh
  process;
- ``sample --out`` requests, each followed later in the round by a
  ``test`` request that reads the file it wrote;
- four requests that fail every time because of faults in circsym
  (``FAULTS``); each counts as failed until the fault is mended.

Every output is checked against an independent recomputation: T_k and
the Rayleigh statistic from the angles the benchmark wrote, p-values from
the normal law, Fisher entries and local power from the closed forms in
``reference``. ``sample`` files must parse with plain numpy to n angles in
[-pi, pi) (or [-180, 180) degrees).
"""

import contextlib
import io
import json
import math

import numpy as np

import reference as ref
from harness import CheckFailed, Op

MIN_OPS = 1000
WORKERS = 0

# (observations, layout, unit, sense, zero, declared in): the angle files
FILES = (
    (20, "plain", "radians", "ccw", None, "header"),
    (50, "plain", "degrees", "ccw", None, "flags"),
    (100, "csv", "radians", "cw", None, "header"),
    (200, "grouped", "degrees", "ccw", "90deg", "header"),
    (500, "plain", "degrees", "cw", "45deg", "flags"),
    (1000, "csv", "degrees", "ccw", None, "flags"),
    (2000, "plain", "radians", "ccw", "1.5rad", "header"),
    (5000, "grouped", "degrees", "cw", None, "flags"),
    (10000, "plain", "radians", "ccw", None, "header"),
    (10000, "csv", "degrees", "cw", "180deg", "header"),
    (100000, "plain", "radians", "ccw", None, "header"),
    (100000, "plain", "degrees", "cw", "90deg", "flags"),
)
LARGE = 100000
TESTS_PER_FILE = 16  # 1 on each LARGE file
UNIFORMITY_PER_FILE = 8  # 1 on each LARGE file

# Parameter sweeps; each round scales them by 1 - 1e-9 (r + 1) so no base
# repeats. Wrapped Cauchy stops at rho = 0.975: above about 0.977 the
# quadrature's cost (and whether it converges at all) jumps with the last
# digits of rho, so rounds would not repeat the same work.
FISHER_SWEEP = (
    [("vm", v) for v in np.geomspace(0.05, 700.0, 32)]
    + [("wcauchy", 1.0 - v) for v in np.geomspace(0.95, 0.025, 32)]
    + [("cardioid", v) for v in np.linspace(0.05, 0.95, 16)]
)
POWER_SWEEP = (
    [("vm", v) for v in np.geomspace(0.07, 650.0, 24)]
    + [("wcauchy", 1.0 - v) for v in np.geomspace(0.9, 0.03, 24)]
    + [("cardioid", v) for v in np.linspace(0.07, 0.93, 12)]
)
POWER_GRIDS = (("0:5:21", np.linspace(0.0, 5.0, 21)),
               ("0,0.5,1,2,4", np.array([0.0, 0.5, 1.0, 2.0, 4.0])))

SAMPLE_MODELS = ("vm:2", "cardioid:0.4", "wcauchy:0.6", "vmmix:3",
                 "sineskew(vm:1,k=2,lam=0.3)", "sineskew(wcauchy:0.5,k=1,lam=-0.4)",
                 "moebius(vm:1,r=0.5,lam=0.1)", "mixshift(kappa=10,lam=0.4)")
SAMPLE_SIZES = (100, 250, 1000, 2500, 5000)
SAMPLES_PER_ROUND = 48

ALTERNATIVES = ("two-sided", "left", "right")
ALPHAS = (0.01, 0.05, 0.1)
K_LISTS = ("1,2,3", "1", "2,3", "3")

STAT_TOL = 1e-9  # relative, JSON statistics
P_TOL = 1e-9  # absolute, JSON p-values
FISHER_TOL = 1e-8  # relative plus absolute, quadrature against closed forms
POWER_TOL = 2e-6  # six printed decimals plus quadrature error

FAULTS = {
    "fisher-vm800": "VonMises.pdf overflows at kappa=800 and integrate_periodic "
                    "raises ValueError: traceback",
    "fisher-wcauchy0.999": "QuadratureConvergenceError under the absolute 1e-10 "
                           "tolerance on g11 ~ 5e5: exit 3",
    "test-nan": "a file holding nan raises ValueError in wrap: traceback, not exit 2",
    "test-k0": "--k 0 raises ValueError: traceback, not exit 1",
}


class OpFailed(Exception):
    """A request did not reach its documented exit code."""


def _close(value, expected, rel, abs_):
    return abs(value - expected) <= abs_ + rel * abs(expected)


class AngleFile:
    """An angle file the benchmark wrote, and the angles it means."""

    def __init__(self, path, rng, n, layout, unit, sense, zero, declared):
        self.path = str(path)
        self.n_target = n
        scale = math.pi / 180.0 if unit == "degrees" else 1.0
        zero_rad = 0.0 if zero is None else (
            float(zero[:-3]) * (math.pi / 180.0 if zero.endswith("deg") else 1.0))
        orientation = -1.0 if sense == "cw" else 1.0
        # a skewed von Mises sample about a random centre
        y = rng.vonmises(0.0, rng.uniform(0.5, 4.0), n)
        lam = rng.uniform(-0.5, 0.5)
        y = np.where(rng.random(n) <= 0.5 * (1.0 + lam * np.sin(2 * y)), y, -y)
        phi = y + rng.uniform(-math.pi, math.pi)
        raw = orientation * (phi - zero_rad) / scale
        counts = None
        if layout == "grouped":
            raw, counts = np.unique(np.round(raw, 0 if unit == "degrees" else 2),
                                    return_counts=True)
        header, flags = [], []
        settings = [("unit", unit), ("format", layout), ("sense", sense)]
        if zero is not None:
            settings.append(("zero", zero))
        for key, value in settings:
            if declared == "header":
                header.append(f"# {key}: {value}")
            else:
                flags += [f"--{key}", value]
        if layout == "csv":
            flags += ["--column", "1"]
            rows = [f"{i},{v!r},{i % 7}" for i, v in enumerate(raw.tolist())]
        elif layout == "grouped":
            rows = [f"{v!r},{c}" for v, c in zip(raw.tolist(), counts.tolist())]
        else:
            rows = [repr(v) for v in raw.tolist()]
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(header + rows) + "\n")
        self.flags = flags
        values = raw if counts is None else np.repeat(raw, counts)
        self.angles = zero_rad + orientation * values * scale

    @property
    def n(self):
        return self.angles.size


class Workload:
    def __init__(self, seed, workdir):
        from circsym import cli

        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng([seed, 0])
        self.files = [AngleFile(workdir / f"angles-{i}.txt", rng, *spec)
                      for i, spec in enumerate(FILES)]
        self.nan_file = workdir / "with-nan.txt"
        self.nan_file.write_text("0.5\n-1.25\nnan\n2.0\n", encoding="utf-8")

    # -- requests ---------------------------------------------------------

    def _request(self, label, argv, check, expect=0, fault=None):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            if code != expect:
                raise OpFailed(f"exit {code}, expected {expect}: {err.getvalue().strip()}")
            return out.getvalue()

        def checked(output):
            try:
                check(output)
            except CheckFailed as exc:
                raise CheckFailed(f"{label} ({' '.join(argv)}): {exc}") from None
            except (ValueError, KeyError, IndexError) as exc:
                raise CheckFailed(f"{label} ({' '.join(argv)}): unreadable output: "
                                  f"{exc!r}") from None

        return Op(label, run, checked, fault=fault)

    def _test(self, path, flags, angles, rng, variant, label="test"):
        """A ``test`` request; ``angles()`` gives the angles the file means.

        ``variant`` fixes the k list, alternative, level and output form, so
        every round runs the same statistics; the direction comes from ``rng``.
        """
        ks = K_LISTS[variant % len(K_LISTS)]
        k_values = [int(k) for k in ks.split(",")]
        theta_deg = int(rng.integers(-180, 180))
        human = variant % 3 == 2
        alt = "two-sided" if human else ALTERNATIVES[variant % len(ALTERNATIVES)]
        alpha = ALPHAS[variant // 3 % len(ALPHAS)]
        argv = ["test", str(path), *flags, f"--theta={theta_deg}deg", "--k", ks,
                "--alt", alt, "--alpha", repr(alpha), *([] if human else ["--json"])]

        def check(output):
            data = angles()
            expected = []
            for k in k_values:
                stat = ref.studentized_statistic(data, math.radians(theta_deg), k)
                expected.append((k, stat, ref.p_value(stat, alt)))
            if human:
                lines = output.splitlines()
                rows = [line.split() for line in lines[2:]]
                if lines[0].split()[0] != f"n={data.size}" or len(rows) != len(k_values):
                    raise CheckFailed("header or row count differs")
                for row, (k, stat, p) in zip(rows, expected):
                    if (int(row[0]) != k or abs(float(row[1]) - stat) > 1e-6 * (1 + abs(stat))
                            or abs(float(row[2]) - p) > 1e-4
                            or (abs(p - alpha) > 1e-9 and row[3] != ("yes" if p < alpha else "no"))):
                        raise CheckFailed(f"row {row} vs k={k} T={stat:.6f} p={p:.4f}")
                return
            results = json.loads(output)["results"]
            if len(results) != len(k_values):
                raise CheckFailed("result count differs from --k")
            for result, (k, stat, p) in zip(results, expected):
                if (result["k"] != k or result["n"] != data.size
                        or not _close(result["statistic"], stat, STAT_TOL, STAT_TOL)
                        or abs(result["p_value"] - p) > P_TOL
                        or result["reject"] != (result["p_value"] < alpha)):
                    raise CheckFailed(f"{result} vs k={k} T={stat!r} p={p!r}")

        return self._request(label, argv, check)

    def _uniformity(self, data, rng):
        direction_deg = int(rng.integers(-180, 180))
        argv = ["uniformity", data.path, *data.flags, f"--direction={direction_deg}deg",
                "--json"]

        def check(output):
            (result,) = json.loads(output)["results"]
            stat = ref.rayleigh_statistic(data.angles, math.radians(direction_deg))
            if (result["n"] != data.n or not _close(result["statistic"], stat, STAT_TOL, STAT_TOL)
                    or abs(result["p_value"] - ref.p_value(stat, "right")) > P_TOL):
                raise CheckFailed(f"{result} vs statistic {stat!r}")

        return self._request("uniformity", argv, check)

    def _fisher(self, family, value, k, label="fisher", fault=None):
        base = (family, value)
        argv = ["fisher", "--base", f"{family}:{value!r}", "--k", str(k), "--json"]

        def check(output):
            payload = json.loads(output)
            g11, g12, g22 = ref.fisher_entries(base, k)
            for name, expected in (("g11", g11), ("g12", g12), ("g22", g22)):
                if not _close(payload[name], expected, FISHER_TOL, FISHER_TOL):
                    raise CheckFailed(f"{name} {payload[name]!r} vs closed form {expected!r}")
            det = g11 * g22 - g12 * g12
            gap = det / (g11 * g22)
            if (abs(payload["determinant"] - det) > FISHER_TOL * (1 + g11 * g22)
                    or abs(payload["normalized_gap"] - gap) > 1e-7
                    or payload["singular"] != (gap < 1e-8)):
                raise CheckFailed(f"determinant/gap/singular {payload} vs det {det!r} gap {gap!r}")

        return self._request(label, argv, check, fault=fault)

    def _power(self, family, value, k, grid_index):
        base = (family, value)
        grid_text, grid = POWER_GRIDS[grid_index]
        argv = ["power", "--base", f"{family}:{value!r}", "--k", str(k),
                "--kprime", "1,2,3", "--grid", grid_text]

        def check(output):
            lines = output.splitlines()
            if lines[2] != "tau2,analytic_kprime1,analytic_kprime2,analytic_kprime3":
                raise CheckFailed(f"columns {lines[2]!r}")
            rows = [line.split(",") for line in lines[3:]]
            if len(rows) != grid.size:
                raise CheckFailed(f"{len(rows)} rows for {grid.size} grid points")
            for row, tau2 in zip(rows, grid):
                for kp, cell in zip((1, 2, 3), row[1:]):
                    expected = ref.local_power(base, k, kp, tau2)
                    if abs(float(cell) - expected) > POWER_TOL:
                        raise CheckFailed(f"tau2={tau2:g} k'={kp}: {cell} vs {expected:.8f}")

        return self._request("power", argv, check)

    def _sample(self, path, model, n, seed, unit):
        argv = ["sample", "--model", model, "-n", str(n), "--seed", str(seed),
                "--unit", unit, "--out", str(path)]
        half = 180.0 if unit == "degrees" else math.pi

        def check(output):
            values = np.loadtxt(path, comments="#", ndmin=1)
            if values.shape != (n,) or not np.all((values >= -half) & (values < half)):
                raise CheckFailed(f"{path} holds {values.shape} values, range "
                                  f"[{values.min()}, {values.max()}]")

        return self._request("sample", argv, check)

    def _sample_test(self, path, unit, rng, variant):
        def angles():
            values = np.loadtxt(path, comments="#", ndmin=1)
            return np.radians(values) if unit == "degrees" else values

        return self._test(path, [], angles, rng, variant, label="test-sample")

    def _faults(self):
        small = self.files[0]
        return [
            self._fisher("vm", 800.0, 1, label="fisher-vm800", fault=FAULTS["fisher-vm800"]),
            self._fisher("wcauchy", 0.999, 1, label="fisher-wcauchy0.999",
                         fault=FAULTS["fisher-wcauchy0.999"]),
            self._request("test-nan", ["test", str(self.nan_file), "--theta", "0"],
                          lambda output: None, expect=2, fault=FAULTS["test-nan"]),
            self._request("test-k0", ["test", small.path, *small.flags, "--theta", "0",
                                      "--k", "0"],
                          lambda output: None, expect=1, fault=FAULTS["test-k0"]),
        ]

    # -- rounds -----------------------------------------------------------

    def _file_test(self, data, rng, variant):
        return self._test(data.path, data.flags, lambda: data.angles, rng, variant)

    def warm_up(self):
        return self._file_test(self.files[0], np.random.default_rng([self.seed, 1]), 0)

    def round(self, r):
        rng = np.random.default_rng([self.seed, 2, r])
        # distinct from every earlier round's bases, the same sweep otherwise
        shrink = 1.0 - 1e-9 * (r + 1)
        ops = []
        for data in self.files:
            large = data.n_target >= LARGE
            for i in range(1 if large else TESTS_PER_FILE):
                ops.append(self._file_test(data, rng, i))
            for _ in range(1 if large else UNIFORMITY_PER_FILE):
                ops.append(self._uniformity(data, rng))
        for i, (family, value) in enumerate(FISHER_SWEEP):
            ops.append(self._fisher(family, float(value) * shrink, 1 + i % 3))
        for i, (family, value) in enumerate(POWER_SWEEP):
            ops.append(self._power(family, float(value) * shrink, 1 + i % 3, i % 2))
        ops += self._faults()
        order = rng.permutation(len(ops))
        ops = [ops[i] for i in order]
        writes, reads = [], []
        for i in range(SAMPLES_PER_ROUND):
            path = self.workdir / f"sample-{i}.txt"
            unit = "degrees" if i % 4 == 3 else "radians"
            n = SAMPLE_SIZES[i % len(SAMPLE_SIZES)]
            model = SAMPLE_MODELS[i % len(SAMPLE_MODELS)]
            writes.append(self._sample(path, model, n, int(rng.integers(2**31)), unit))
            reads.append(self._sample_test(path, unit, rng, i))
        return writes + ops + reads

    def finish(self):
        pass
