"""Command-line interface.

Subcommands: ``test`` (symmetry about a known direction), ``uniformity``
(Rayleigh against a fixed direction), ``mc`` (replication tables),
``power`` (local power curves), ``fisher`` (information matrix report),
``sample`` (synthetic draws). Models and bases are read by
``distributions.parse_model`` and ``parse_base``. The commands let library
exceptions through; ``main`` alone maps them to exit codes with one
``circsym: ...`` line on stderr, by ``EXIT_TABLE``: 0 success, 1 usage
error (``UsageError``, and any other ``ValueError``, which is how the
library reports a bad parameter), 2 data error (unreadable, malformed or
too short input), 3 numerical failure. The only environment variable
honored is CIRCSYM_THREADS (default worker count for ``mc`` and ``power``).
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .distributions import parse_base, parse_model
from .errors import DegenerateInformationError, DegenerateSampleError, EmptySampleError
from .asymptotics import fisher_matrix, singularity_report
from .io import AngleFileError, format_angles, parse_angle, read_angles, write_angles
from .montecarlo import (
    DEFAULT_MASTER_SEED,
    PRESETS,
    derive_stream,
    load_scenario_file,
    override_scenarios,
    power_curve,
    run_scenarios,
)
from .special import check_alpha, check_frequency
from .symtests import ALTERNATIVES, rayleigh_cardioid_test, symmetry_test

SCHEMA = "circsym/v1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main names the program; a subcommand's parser adds the subcommand
        command = self.prog.partition(" ")[2]
        raise UsageError(f"{command}: {message}" if command else message)


def _alpha(text):
    """argparse type of --alpha: a level in (0, 1)."""
    try:
        return check_alpha(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _frequency(text):
    """argparse type of a single frequency: a positive integer."""
    try:
        return check_frequency(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"frequency must be a positive integer, got {text!r}"
        ) from None


_THREADS_HELP = ("worker threads, at most one per core but one (default 1, or "
                 "CIRCSYM_THREADS); output is byte-identical at any count")


def _threads(text):
    """argparse type of --threads (and CIRCSYM_THREADS): a positive integer."""
    if not str(text).strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"threads must be a positive integer, got {text!r}")
    return int(text)


def _frequencies(text):
    """argparse type of a comma list of frequencies, at least one."""
    ks = [_frequency(part) for part in str(text).split(",") if part.strip()]
    if not ks:
        raise argparse.ArgumentTypeError(f"no frequency in {text!r}")
    return ks


def _parse_grid(text):
    """Comma list, or start:stop:count for a uniform grid, of finite values."""
    raw = str(text).strip()
    if ":" in raw:
        pieces = raw.split(":")
        if len(pieces) != 3:
            raise UsageError(f"grid {text!r} must be start:stop:count or a comma list")
        try:
            start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise UsageError(f"bad grid {text!r}") from None
        if count < 2:
            raise UsageError("grid count must be at least 2")
        step = (stop - start) / (count - 1)
        grid = [start + i * step for i in range(count)]
    else:
        try:
            grid = [float(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise UsageError(f"bad grid {text!r}") from None
    if not all(map(math.isfinite, grid)):
        raise UsageError(f"grid {text!r} must hold finite values")
    return grid


def _read_sample(args):
    return read_angles(
        args.file,
        unit=args.unit,
        fmt=args.format,
        column=args.column,
        zero=args.zero,
        sense=args.sense,
    )


def _add_file_options(sub):
    sub.add_argument("file", help="angle file (plain, csv or grouped)")
    sub.add_argument("--unit", choices=("radians", "degrees"), default="radians",
                     help="unit of file angles unless the file header says otherwise")
    sub.add_argument("--format", choices=("plain", "csv", "grouped"), default=None,
                     help="file layout when the header does not declare one")
    sub.add_argument("--column", type=int, default=0, help="csv column index")
    sub.add_argument("--zero", default=None,
                     help="direction of the file's zero (e.g. 90deg)")
    sub.add_argument("--sense", choices=("ccw", "cw"), default=None,
                     help="rotation sense of the file angles")


def _emit(args, payload, human_lines):
    if getattr(args, "json", False):
        payload = dict(payload)
        payload["schema"] = SCHEMA
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def cmd_test(args):
    if args.theta is None:
        raise UsageError(
            "--theta is required: these tests address symmetry about a known "
            "median direction and cannot estimate the center from the data"
        )
    theta = parse_angle(args.theta, args.unit)
    sample = _read_sample(args)
    results = [
        symmetry_test(sample, theta, k, alternative=args.alt, alpha=args.alpha)
        for k in args.k
    ]
    lines = [f"n={results[0].n}  theta={theta:.10g} rad  alternative={args.alt}",
             "k  statistic     p-value   reject"]
    for r in results:
        lines.append(f"{r.k}  {r.statistic:+12.6f}  {r.p_value:.4f}  "
                     f"{'yes' if r.reject else 'no'}")
    _emit(args, {"results": [r.to_dict() for r in results]}, lines)
    return EXIT_OK


def cmd_uniformity(args):
    if args.direction is None:
        raise UsageError("--direction is required: the test targets a fixed direction")
    direction = parse_angle(args.direction, args.unit)
    sample = _read_sample(args)
    result = rayleigh_cardioid_test(sample, direction, alpha=args.alpha)
    lines = [f"n={result.n}  direction={direction:.10g} rad",
             f"statistic {result.statistic:+.6f}  p-value {result.p_value:.4f}  "
             f"reject {'yes' if result.reject else 'no'}"]
    _emit(args, {"results": [result.to_dict()]}, lines)
    return EXIT_OK


def cmd_mc(args):
    if (args.preset is None) == (args.scenario is None):
        raise UsageError("pick exactly one of --preset or --scenario")
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise UsageError(
                f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}"
            )
        specs = PRESETS[args.preset]
    else:
        specs = (load_scenario_file(args.scenario),)
    specs = override_scenarios(specs, reps=args.reps, master_seed=args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for spec, table in zip(specs, run_scenarios(specs, threads=args.threads)):
        written = []
        if args.out in ("csv", "both"):
            path = outdir / f"{spec.scenario_id}.csv"
            path.write_text(table.to_csv(), encoding="utf-8")
            written.append(path)
        if args.out in ("json", "both"):
            path = outdir / f"{spec.scenario_id}.json"
            path.write_text(table.to_json(), encoding="utf-8")
            written.append(path)
        for path in written:
            print(f"wrote {path}")
    return EXIT_OK


def cmd_power(args):
    base = parse_base(args.base)
    grid = _parse_grid(args.grid)
    columns = {}
    for kp in args.kprime:
        columns[f"analytic_kprime{kp}"] = [
            p for _, p in power_curve(base, args.k, kp, grid, alpha=args.alpha)
        ]
    if args.empirical is not None:
        n, reps = args.empirical
        for kp in args.kprime:
            columns[f"empirical_kprime{kp}"] = [
                p for _, p in power_curve(
                    base, args.k, kp, grid, alpha=args.alpha, mode="empirical",
                    n=n, reps=reps, master_seed=args.seed, threads=args.threads,
                )
            ]
    names = list(columns)
    lines = [f"# schema: {SCHEMA}",
             f"# base: {base.label}  k: {args.k}  alpha: {args.alpha:g}",
             "tau2," + ",".join(names)]
    for i, tau2 in enumerate(grid):
        lines.append(f"{tau2:g}," + ",".join(f"{columns[c][i]:.6f}" for c in names))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_fisher(args):
    base = parse_base(args.base)
    matrix = fisher_matrix(base, args.k)
    try:
        report = singularity_report(base, args.k)
        gap, singular = report.normalized_gap, report.singular
    except DegenerateInformationError:
        gap, singular = None, None
    payload = {
        "base": base.label, "k": args.k,
        "g11": matrix.g11, "g12": matrix.g12, "g22": matrix.g22,
        "determinant": matrix.determinant,
        "normalized_gap": gap, "singular": singular,
    }
    lines = [f"base {base.label}  k={args.k}",
             f"g11 {matrix.g11:.12g}",
             f"g12 {matrix.g12:.12g}",
             f"g22 {matrix.g22:.12g}",
             f"determinant {matrix.determinant:.12g}"]
    if gap is None:
        lines.append("normalized_gap undefined (g11 * g22 is zero)")
    else:
        lines.append(f"normalized_gap {gap:.12g}")
        lines.append(f"singular {'true' if singular else 'false'}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_sample(args):
    model = parse_model(args.model)
    rng = derive_stream(args.seed, f"cli-sample|{model.label}", 0)
    draws = model.sample(rng, args.n)
    if args.out:
        write_angles(args.out, draws, unit=args.unit)
        print(f"wrote {args.out}")
    else:
        print(format_angles(draws, unit=args.unit), end="")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="circsym",
                     description="Tests of circular reflective symmetry about "
                                 "a known median direction, with replication "
                                 "and power tooling.")
    parser.add_argument("--version", action="version", version=f"circsym {__version__}")
    # a string default goes through the option's type, so a bad value is a usage error
    default_threads = os.environ.get("CIRCSYM_THREADS", "1")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("test", help="sine-based symmetry tests at chosen k")
    _add_file_options(sub)
    sub.add_argument("--theta", default=None,
                     help="known median direction, e.g. 180deg or 3.14rad")
    sub.add_argument("--k", type=_frequencies, default="1,2,3",
                     help="comma list of frequencies")
    sub.add_argument("--alt", choices=ALTERNATIVES, default="two-sided")
    sub.add_argument("--alpha", type=_alpha, default=0.05)
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.set_defaults(func=cmd_test)

    sub = commands.add_parser("uniformity",
                              help="Rayleigh test against a fixed direction")
    _add_file_options(sub)
    sub.add_argument("--direction", default=None,
                     help="hypothesized concentration direction")
    sub.add_argument("--alpha", type=_alpha, default=0.05)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_uniformity)

    sub = commands.add_parser("mc", help="replication tables for preset or file scenarios")
    sub.add_argument("--preset", default=None, help="table1, table2 or table3")
    sub.add_argument("--scenario", default=None, help="scenario file path")
    sub.add_argument("--reps", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--threads", type=_threads, default=default_threads,
                     help=_THREADS_HELP)
    sub.add_argument("--out", choices=("csv", "json", "both"), default="csv")
    sub.add_argument("--outdir", default=".")
    sub.set_defaults(func=cmd_mc)

    sub = commands.add_parser("power", help="local power curves of the k test")
    sub.add_argument("--base", default="vm:1")
    sub.add_argument("--k", type=_frequency, default=2)
    sub.add_argument("--kprime", type=_frequencies, default="1,2,3")
    sub.add_argument("--alpha", type=_alpha, default=0.05)
    sub.add_argument("--grid", default="0:5:21",
                     help="tau2 grid, comma list or start:stop:count")
    sub.add_argument("--empirical", nargs=2, type=int, metavar=("N", "REPS"),
                     default=None, help="add simulated columns at sample size N")
    sub.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    sub.add_argument("--threads", type=_threads, default=default_threads,
                     help=_THREADS_HELP)
    sub.add_argument("--out", default=None, help="write CSV here instead of stdout")
    sub.set_defaults(func=cmd_power)

    sub = commands.add_parser("fisher", help="information matrix and singularity report")
    sub.add_argument("--base", required=True)
    sub.add_argument("--k", type=_frequency, required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_fisher)

    sub = commands.add_parser("sample", help="draw synthetic angles from a model")
    sub.add_argument("--model", required=True,
                     help="e.g. vm:1 or sineskew(vm:1,k=2,lam=0.3)")
    sub.add_argument("-n", type=int, required=True)
    sub.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    sub.add_argument("--unit", choices=("radians", "degrees"), default="radians")
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_sample)

    return parser


# Exception classes, exit code and message prefix; the first row that
# matches wins. Most data and numerical errors are ValueErrors too, so the
# ValueError row comes last.
EXIT_TABLE = (
    ((AngleFileError, EmptySampleError, DegenerateSampleError, OSError,
      UnicodeDecodeError), EXIT_DATA, "data error: "),
    ((DegenerateInformationError, ArithmeticError), EXIT_NUMERICAL, "numerical failure: "),
    ((UsageError, ValueError), EXIT_USAGE, ""),
)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        for classes, code, prefix in EXIT_TABLE:
            if isinstance(exc, classes):
                print(f"circsym: {prefix}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
