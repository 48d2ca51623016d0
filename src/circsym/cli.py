"""Command-line interface.

Subcommands: ``test`` (symmetry about a known direction), ``uniformity``
(Rayleigh against a fixed direction), ``mc`` (replication tables),
``power`` (local power curves), ``fisher`` (information matrix report),
``sample`` (synthetic draws). Models and bases are read by
``distributions.parse_model`` and ``parse_base``, comma lists of numbers by
``io.parse_number_list``, and each checked value by the library's own
check (``special.check_alpha`` and the like). The commands let library
exceptions through; ``main`` alone maps them to exit codes with one
``circsym: ...`` line on stderr, by ``EXIT_TABLE``: 0 success, 1 usage
error (``UsageError``, and any other ``ValueError``, which is how the
library reports a bad parameter), 2 data error (unreadable, malformed or
too short input), 3 numerical failure. One exception prints no line: a
closed stdout (``BrokenPipeError``) ends the command with exit 2, as its
reader has gone and its output is incomplete. The CLI reads no
environment variable: ``--threads`` alone sets the worker count of ``mc``
and ``power``.

``COMMANDS`` lists the subcommands. A request builds the parser of the
subcommand that its first argument names and no other; help before a
subcommand, ``--version``, no argument or an unknown name builds all six,
so help and the invalid-choice message list them all.
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
from .asymptotics import fisher_matrix
from .io import (FORMATS, SENSES, UNITS, AngleFileError, format_angles, parse_angle,
                 parse_number_list, read_angles, write_angles)
from .montecarlo import (
    DEFAULT_MASTER_SEED,
    MAX_DRAWS,
    PRESETS,
    derive_stream,
    load_scenario_file,
    override_scenarios,
    power_curve,
    run_scenarios,
)
from .special import MAX_SAMPLE_SIZE, check_alpha, check_frequency, check_integer
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


def _checked(name, read):
    """argparse type of ``name``: ``read(text)``, which applies the library's
    own check, so the argument parser refuses what the library would, before
    any file is read or any pool starts. A ValueError is reported as a
    scenario file reports a bad value: ``bad <name> <text>: <reason>``."""
    def parse(text):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {name} {text!r}: {exc}") from None
    return parse


_alpha = _checked("alpha", check_alpha)
_frequency = _checked("frequency", lambda text: check_frequency(int(text)))
_frequencies = _checked("frequency list",  # as ScenarioSpec reads test_ks
                        lambda text: tuple(map(check_frequency, parse_number_list(text, int))))
_threads = _checked("threads", lambda text: check_integer(int(text), "threads"))
_column = _checked("column", lambda text: check_integer(int(text), "column", least=0))

_THREADS_HELP = ("worker threads, at most one per core (default 1; no environment "
                 "variable is read); output is byte-identical at any count")
_DRAWS_HELP = (f"n x reps is at most {MAX_DRAWS} draws per model (a model at the cap "
               "took 87 s at n = 10 on a 2-core Xeon)")

_GRID_MAX_POINTS = 100_000  # a start:stop:count grid is built as a list of floats


def _parse_grid(text):
    """Comma list (``io.parse_number_list``), or start:stop:count for a
    uniform grid of 2 to ``_GRID_MAX_POINTS`` points, of finite values."""
    raw = str(text).strip()
    if ":" in raw:
        pieces = raw.split(":")
        if len(pieces) != 3:
            raise UsageError(f"grid {text!r} must be start:stop:count or a comma list")
        try:
            start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise UsageError(f"bad grid {text!r}") from None
        if not 2 <= count <= _GRID_MAX_POINTS:
            raise UsageError(f"grid count must be from 2 to {_GRID_MAX_POINTS}, got {count}")
        step = (stop - start) / (count - 1)
        grid = [start + i * step for i in range(count)]
    else:
        try:
            grid = list(parse_number_list(raw))
        except ValueError as exc:
            raise UsageError(f"bad grid {text!r}: {exc}") from None
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
    sub.add_argument("--unit", choices=UNITS, default="radians",
                     help="unit of file angles unless the file header says otherwise")
    sub.add_argument("--format", choices=FORMATS, default=None,
                     help="file layout when the header does not declare one")
    sub.add_argument("--column", type=_column, default=0, help="csv column index")
    sub.add_argument("--zero", default=None,
                     help="direction of the file's zero (e.g. 90deg)")
    sub.add_argument("--sense", choices=SENSES, default=None,
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
        gap, singular = matrix.normalized_gap, matrix.singular
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
    n = check_integer(args.n, "sample size", most=MAX_SAMPLE_SIZE)
    rng = derive_stream(args.seed, f"cli-sample|{model.label}", 0)
    draws = model.sample(rng, n)
    if args.out:
        write_angles(args.out, draws, unit=args.unit)
        print(f"wrote {args.out}")
    else:
        print(format_angles(draws, unit=args.unit), end="")
    return EXIT_OK


def _test_arguments(sub):
    _add_file_options(sub)
    sub.add_argument("--theta", default=None,
                     help="known median direction, e.g. 180deg or 3.14rad")
    sub.add_argument("--k", type=_frequencies, default="1,2,3",
                     help="comma list of frequencies, no empty item")
    sub.add_argument("--alt", choices=ALTERNATIVES, default="two-sided")
    sub.add_argument("--alpha", type=_alpha, default=0.05)
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.set_defaults(func=cmd_test)


def _uniformity_arguments(sub):
    _add_file_options(sub)
    sub.add_argument("--direction", default=None,
                     help="hypothesized concentration direction")
    sub.add_argument("--alpha", type=_alpha, default=0.05)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_uniformity)


def _mc_arguments(sub):
    sub.add_argument("--preset", default=None, help="table1, table2 or table3")
    sub.add_argument("--scenario", default=None, help="scenario file path")
    sub.add_argument("--reps", type=int, default=None,
                     help="replications per scenario, at least 100; " + _DRAWS_HELP)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--threads", type=_threads, default=1, help=_THREADS_HELP)
    sub.add_argument("--out", choices=("csv", "json", "both"), default="csv")
    sub.add_argument("--outdir", default=".")
    sub.set_defaults(func=cmd_mc)


def _power_arguments(sub):
    sub.add_argument("--base", default="vm:1")
    sub.add_argument("--k", type=_frequency, default=2)
    sub.add_argument("--kprime", type=_frequencies, default="1,2,3")
    sub.add_argument("--alpha", type=_alpha, default=0.05)
    sub.add_argument("--grid", default="0:5:21",
                     help="tau2 grid: a comma list, or start:stop:count with "
                          f"count from 2 to {_GRID_MAX_POINTS}; write a grid that "
                          "starts with a minus sign as --grid=-1,2")
    sub.add_argument("--empirical", nargs=2, type=int, metavar=("N", "REPS"),
                     default=None, help="add simulated columns at sample size N "
                                        f"(at most {MAX_SAMPLE_SIZE}) from REPS "
                                        "replications; " + _DRAWS_HELP)
    sub.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    sub.add_argument("--threads", type=_threads, default=1, help=_THREADS_HELP)
    sub.add_argument("--out", default=None, help="write CSV here instead of stdout")
    sub.set_defaults(func=cmd_power)


def _fisher_arguments(sub):
    sub.add_argument("--base", required=True)
    sub.add_argument("--k", type=_frequency, required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_fisher)


def _sample_arguments(sub):
    sub.add_argument("--model", required=True,
                     help="e.g. vm:1 or sineskew(vm:1,k=2,lam=0.3)")
    sub.add_argument("-n", type=int, required=True,
                     help=f"sample size, from 1 to {MAX_SAMPLE_SIZE}")
    sub.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    sub.add_argument("--unit", choices=UNITS, default="radians")
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_sample)


# Subcommands in help order: name, help line, and the function that adds
# the subcommand's arguments to its parser.
COMMANDS = (
    ("test", "sine-based symmetry tests at chosen k", _test_arguments),
    ("uniformity", "Rayleigh test against a fixed direction", _uniformity_arguments),
    ("mc", "replication tables for preset or file scenarios", _mc_arguments),
    ("power", "local power curves of the k test", _power_arguments),
    ("fisher", "information matrix and singularity report", _fisher_arguments),
    ("sample", "draw synthetic angles from a model", _sample_arguments),
)


def build_parser(command=None):
    """The argument parser with every subcommand, or with only ``command``,
    one of the names in ``COMMANDS``."""
    parser = _Parser(prog="circsym",
                     description="Tests of circular reflective symmetry about "
                                 "a known median direction, with replication "
                                 "and power tooling.")
    parser.add_argument("--version", action="version", version=f"circsym {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_line, add_arguments in COMMANDS:
        if command in (None, name):
            add_arguments(commands.add_parser(name, help=help_line))
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
        argv = sys.argv[1:] if argv is None else list(argv)
        # help, --version, no argument and an unknown name list all six
        names = [name for name, _, _ in COMMANDS]
        command = argv[0] if argv and argv[0] in names else None
        args = build_parser(command).parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a late EPIPE surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:  # stdout's reader has gone: the output is incomplete
        # later writes, the exit-time flush among them, go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_DATA
    except Exception as exc:
        for classes, code, prefix in EXIT_TABLE:
            if isinstance(exc, classes):
                print(f"circsym: {prefix}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
