"""The row-by-row angle-file reader that ``circsym.io.read_angles`` replaced.

It walks the lines that ``circsym.io.read_text`` decodes one at a time
and converts one field at a time, so every rule is plain to see. The differential tests in test_io.py require the
bulk reader to return the same bits and raise the same errors.
"""

import math

import numpy as np

from circsym.angles import wrap
from circsym.io import (_DEG, FORMATS, SENSES, UNITS, AngleFileError, _choice, parse_angle,
                        read_text)
from circsym.special import check_integer


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def read_angles(path, unit=None, fmt=None, column=0, zero=None, sense=None):
    column = check_integer(column, "column", least=0)
    header = {}
    rows = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
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
                if column >= len(fields):
                    raise ValueError(f"column {column} is past the end of a "
                                     f"{len(fields)}-field row")
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
