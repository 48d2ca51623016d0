"""Angle file input and output.

Three layouts: ``plain`` (one angle per line), ``csv`` (one angle per row
in a chosen column), and ``grouped`` (angle,count pairs expanded to
individual observations). Files may carry ``# key: value`` header
directives (unit, format, zero, sense) which take precedence over caller
flags; the fallback unit is radians. Every angle is mapped to canonical
form wrap(zero + sense * raw) with sense -1 for clockwise files.
"""

import math

import numpy as np

from .angles import wrap

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


def read_text_lines(path):
    """Yield the lines of a UTF-8 text file, one at a time; a file that is
    not UTF-8 text raises UnicodeDecodeError naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield from handle
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


def read_angles(path, unit=None, fmt=None, column=0, zero=None, sense=None):
    """Read an angle file into canonical wrapped radians.

    Caller arguments fill in whatever the header does not specify. ``zero``
    is an angle literal like ``"90deg"``, or a number in the file's unit;
    ``sense`` is ``ccw`` (mathematical, default) or ``cw``.
    """
    header = {}
    rows = []
    for lineno, raw in enumerate(read_text_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            key, sep, value = body.partition(":")
            if sep and key.strip().lower() in ("unit", "format", "zero", "sense"):
                header[key.strip().lower()] = value.strip()
            continue
        rows.append((lineno, line))
    if not rows:
        raise AngleFileError(f"{path}: no data lines")

    unit = _choice(header.get("unit", unit or "radians"), UNITS, "unit", path)
    fmt = header.get("format", fmt)
    if fmt is None and len(rows[0][1].split(",")) != 1:
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

    values = []
    counts = []
    for lineno, line in rows:
        fields = [f.strip() for f in line.split(",")] if "," in line else line.split()
        try:
            if fmt == "plain":
                if len(fields) != 1:
                    raise ValueError("expected exactly one angle")
                values.append(_finite(fields[0]))
            elif fmt == "csv":
                values.append(_finite(fields[column]))
            else:
                if len(fields) != 2:
                    raise ValueError("expected angle,count")
                values.append(_finite(fields[0]))
                count = int(fields[1])
                if count <= 0:
                    raise ValueError(f"count must be a positive integer, got {fields[1]}")
                counts.append(count)
        except (ValueError, IndexError) as exc:
            raise AngleFileError(f"{path}:{lineno}: {exc}") from None

    angles = np.asarray(values, dtype=float)
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
