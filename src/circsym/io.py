"""Angle file input and output.

Three layouts: ``plain`` (one angle per line), ``csv`` (one angle per row
in a chosen column), and ``grouped`` (angle,count pairs expanded to
individual observations). Files may carry ``# key: value`` header
directives (unit, format, zero, sense) which take precedence over caller
flags; the fallback unit is radians. Every angle is mapped to canonical
form wrap(zero + sense * raw) with sense -1 for clockwise files.

``read_text`` is the one reader of input files, angle files and scenario
files alike: it reads a file once and decodes it whole as UTF-8, with
universal newlines, before any line is parsed.
"""

import io
import math

import numpy as np

from .angles import wrap
from .special import check_integer

FORMATS = ("plain", "csv", "grouped")
UNITS = ("radians", "degrees")
SENSES = ("ccw", "cw")

_DEG = np.pi / 180.0


class AngleFileError(ValueError):
    """Malformed angle file contents."""


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def parse_angle(text, unit="radians"):
    """Angle literal in radians: a finite number with an optional deg/rad
    suffix, else in ``unit``. ValueError for anything else."""
    raw = str(text).strip().lower()
    factor = _DEG if unit == "degrees" else 1.0
    for suffix, suffix_factor in (("deg", _DEG), ("rad", 1.0)):
        if raw.endswith(suffix):
            raw, factor = raw[: -len(suffix)], suffix_factor
            break
    try:
        value = float(raw) * factor
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"bad angle {text!r}; write a finite number with an optional deg/rad suffix"
        )
    return value


def parse_number_list(text, convert=float):
    """The items of a comma list, each stripped and read by ``convert``, as a
    tuple. ValueError for an empty item, so ``1,,2``, ``1,2,`` and ``,`` are
    refused, and for any item that ``convert`` refuses."""
    items = [item.strip() for item in str(text).split(",")]
    if not all(items):
        raise ValueError("empty item in the comma list")
    return tuple(map(convert, items))


def read_text(path):
    """The whole of a UTF-8 text file as one string, with universal newlines.
    The file is read once, so a pipe works, and decoded whole before any
    line is parsed; a file that is not UTF-8 text raises UnicodeDecodeError
    naming the file, its position counted from the start of the file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise UnicodeDecodeError(exc.encoding, exc.object, exc.start, exc.end,
                                 f"{exc.reason} in {path}, which is not UTF-8 text") from None


def _choice(value, choices, name, where):
    """``value`` in lower case; AngleFileError naming ``where`` unless it is
    one of ``choices``."""
    value = value.strip().lower()
    if value not in choices:
        raise AngleFileError(f"{where}: {name} must be one of {choices}, got {value!r}")
    return value


def _row(line, fmt, column):
    """Raise ValueError or IndexError saying what is wrong with one stripped
    data line under ``fmt``; return if nothing is."""
    fields = [f.strip() for f in line.split(",")] if "," in line else line.split()
    if fmt == "plain":
        if len(fields) != 1:
            raise ValueError("expected exactly one angle")
        _finite(fields[0])
    elif fmt == "csv":
        if column >= len(fields):
            raise ValueError(f"column {column} is past the end of a {len(fields)}-field row")
        _finite(fields[column])
    else:
        if len(fields) != 2:
            raise ValueError("expected angle,count")
        _finite(fields[0])
        if int(fields[1]) <= 0:
            raise ValueError(f"count must be a positive integer, got {fields[1]}")


def _convert(data, fmt, column):
    """Angles of every data line and, for ``grouped``, their counts, in one
    pass; ValueError or IndexError if any line breaks ``_row``'s rules.
    ``float`` and ``int`` strip the whitespace that ``_row`` strips from
    each field."""
    if fmt == "plain":  # a line float reads holds neither a comma nor a space
        values = np.fromiter(map(float, data), float, len(data))
        counts = None
    elif fmt == "csv":
        values = np.fromiter((float((line.split(",") if "," in line else line.split())[column])
                              for line in data), float, len(data))
        counts = None
    else:
        pairs = [(float(angle), int(count)) for angle, count in
                 (line.split(",") if "," in line else line.split() for line in data)]
        values = np.fromiter((angle for angle, _ in pairs), float, len(pairs))
        counts = [count for _, count in pairs]
        if min(counts) <= 0:
            raise ValueError("a count is not positive")
    if not np.isfinite(values).all():
        raise ValueError("an angle is not finite")
    return values, counts


def read_angles(path, unit=None, fmt=None, column=0, zero=None, sense=None):
    """Read an angle file into canonical wrapped radians.

    Caller arguments fill in whatever the header does not specify. ``zero``
    is an angle literal like ``"90deg"``, or a number in the file's unit;
    ``sense`` is ``ccw`` (mathematical, default) or ``cw``. ``column``, the
    field a ``csv`` row is read from, counts from 0; a negative one is a
    ValueError. A line with a comma splits on commas, any other on
    whitespace; header directives may appear anywhere, and the last of each
    key wins. An error names the first bad line.
    """
    column = check_integer(column, "column", least=0)
    text = read_text(path)
    lines = list(map(str.strip, text.split("\n")))
    notes = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if line and line[0] != "#"]
    if not data:
        raise AngleFileError(f"{path}: no data lines")
    header = {}
    for line in notes:
        key, sep, value = line.lstrip("#").strip().partition(":")
        if sep and key.strip().lower() in ("unit", "format", "zero", "sense"):
            header[key.strip().lower()] = value.strip()

    unit = _choice(header.get("unit", unit or "radians"), UNITS, "unit", path)
    fmt = header.get("format", fmt)
    if fmt is None and len(data[0].split(",")) != 1:
        raise AngleFileError(
            f"{path}: multi-column data needs an explicit format "
            "(csv or grouped), via header or flag"
        )
    fmt = _choice("plain" if fmt is None else fmt, FORMATS, "format", path)
    sense = _choice(header.get("sense", sense or "ccw"), SENSES, "sense", path)
    zero_raw = header.get("zero", zero)
    try:
        zero_angle = 0.0 if zero_raw is None else parse_angle(zero_raw, unit)
    except ValueError:
        raise AngleFileError(
            f"{path}: zero direction must be a finite angle, got {zero_raw!r}"
        ) from None

    try:
        angles, counts = _convert(data, fmt, column)
    except (ValueError, IndexError):
        # the first line that _row refuses is the one to name
        for lineno, line in enumerate(lines, start=1):
            if line and line[0] != "#":
                try:
                    _row(line, fmt, column)
                except (ValueError, IndexError) as exc:
                    raise AngleFileError(f"{path}:{lineno}: {exc}") from None
        raise  # no line refused: _convert and _row disagree, a defect
    if unit == "degrees":
        angles = angles * _DEG
    if fmt == "grouped":
        angles = np.repeat(angles, counts)
    if sense == "cw":
        angles = -angles
    if zero_angle:  # adding a zero would turn -0.0 into 0.0
        angles = zero_angle + angles
    return wrap(angles)


def format_angles(angles, unit="radians"):
    """Angle file text: a unit header, then one angle per line in ``unit``
    with 17 significant digits, so float64 values round-trip."""
    unit = _choice(unit, UNITS, "unit", "angle file")
    scale = 1.0 / _DEG if unit == "degrees" else 1.0
    lines = [f"# unit: {unit}", "# format: plain"]
    lines.extend(f"{value * scale:.17g}" for value in np.asarray(angles, dtype=float))
    return "\n".join(lines) + "\n"


def write_angles(path, angles, unit="radians"):
    """Write ``format_angles(angles, unit)`` to ``path``."""
    text = format_angles(angles, unit)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
