import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import reference_io
from circsym.angles import wrap
from circsym.io import AngleFileError, parse_number_list, read_angles, write_angles

SAMPLE = np.array([0.1, -2.7, 3.0, 1.25, -0.4])


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestPlainFormat:
    def test_radians_default(self, tmp_path):
        path = _write(tmp_path / "a.txt", "0.1\n-2.7\n3.0\n")
        assert_allclose(read_angles(path), [0.1, -2.7, 3.0], rtol=0, atol=0)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = _write(tmp_path / "a.txt", "# a note\n\n0.5\n\n# another\n1.5\n")
        assert_allclose(read_angles(path), [0.5, 1.5])

    def test_values_wrapped(self, tmp_path):
        path = _write(tmp_path / "a.txt", "7.0\n-7.0\n")
        assert_allclose(read_angles(path), wrap(np.array([7.0, -7.0])))

    def test_degrees_flag(self, tmp_path):
        path = _write(tmp_path / "a.txt", "90\n-45\n")
        assert_allclose(read_angles(path, unit="degrees"),
                        [math.pi / 2, -math.pi / 4], rtol=1e-15)

    def test_header_unit_beats_flag(self, tmp_path):
        path = _write(tmp_path / "a.txt", "# unit: degrees\n180\n")
        got = read_angles(path, unit="radians")
        assert got[0] == pytest.approx(wrap(math.pi), abs=1e-12)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path / "a.txt", "# unit: radians\n\n")
        with pytest.raises(AngleFileError, match="no data"):
            read_angles(path)

    def test_junk_line_reports_line_number(self, tmp_path):
        path = _write(tmp_path / "a.txt", "0.5\nnot-a-number\n")
        with pytest.raises(AngleFileError, match=r"a\.txt:2"):
            read_angles(path)

    @pytest.mark.parametrize("text, fmt", [
        ("0.5\nnan\n", "plain"), ("0.5\n-inf\n", "plain"),
        ("0.5,1\ninf,2\n", "csv"), ("0.5,1\nnan,2\n", "grouped"),
    ])
    def test_non_finite_angle_reports_line_number(self, tmp_path, text, fmt):
        path = _write(tmp_path / "a.txt", text)
        with pytest.raises(AngleFileError, match=r"a\.txt:2: angle must be finite"):
            read_angles(path, fmt=fmt)

    @pytest.mark.parametrize("zero", ["north", "nan", "infdeg"])
    def test_bad_zero_direction(self, tmp_path, zero):
        path = _write(tmp_path / "a.txt", "0.5\n")
        with pytest.raises(AngleFileError, match="zero direction"):
            read_angles(path, zero=zero)

    def test_multi_column_needs_format(self, tmp_path):
        path = _write(tmp_path / "a.txt", "0.5,1\n0.7,2\n")
        with pytest.raises(AngleFileError, match="explicit format"):
            read_angles(path)


class TestCsvFormat:
    def test_column_selection(self, tmp_path):
        path = _write(tmp_path / "a.csv", "id,angle\n", )
        path = _write(tmp_path / "a.csv", "1,0.25\n2,0.75\n")
        got = read_angles(path, fmt="csv", column=1)
        assert_allclose(got, [0.25, 0.75], rtol=0, atol=0)

    def test_header_format_directive(self, tmp_path):
        path = _write(tmp_path / "a.csv", "# format: csv\n0.25,9\n0.75,9\n")
        assert_allclose(read_angles(path), [0.25, 0.75])

    def test_out_of_range_column(self, tmp_path):
        path = _write(tmp_path / "a.csv", "0.25,9\n")
        with pytest.raises(AngleFileError, match=r"a\.csv:1"):
            read_angles(path, fmt="csv", column=5)

    @pytest.mark.parametrize("column, line, fields", [(2, 2, 2), (10**20, 1, 3)])
    def test_a_column_past_a_row_names_its_field_count(self, tmp_path, column, line, fields):
        path = _write(tmp_path / "a.csv", "1,2,3\n0.25,9\n")
        with pytest.raises(AngleFileError, match=rf"a\.csv:{line}: column {column} is past "
                                                 rf"the end of a {fields}-field row$"):
            read_angles(path, fmt="csv", column=column)

    @pytest.mark.parametrize("fmt", ["csv", "plain", None])
    def test_a_negative_column_is_refused(self, tmp_path, fmt):
        path = _write(tmp_path / "a.csv", "1,2\n3,4,5\n0.5,0.25\n")
        with pytest.raises(ValueError) as info:
            read_angles(path, fmt=fmt, column=-1)
        assert type(info.value) is ValueError
        assert str(info.value) == "column must be a nonnegative integer, got -1"


class TestGroupedFormat:
    def test_expansion_matches_plain(self, tmp_path):
        grouped = _write(tmp_path / "g.txt", "# format: grouped\n0.5, 3\n-1.0, 2\n")
        plain = _write(tmp_path / "p.txt", "0.5\n0.5\n0.5\n-1.0\n-1.0\n")
        assert_allclose(read_angles(grouped), read_angles(plain), rtol=0, atol=0)

    def test_whitespace_separated(self, tmp_path):
        path = _write(tmp_path / "g.txt", "0.5 3\n", )
        assert read_angles(path, fmt="grouped").size == 3

    def test_zero_count_rejected(self, tmp_path):
        path = _write(tmp_path / "g.txt", "0.5, 0\n")
        with pytest.raises(AngleFileError, match="positive"):
            read_angles(path, fmt="grouped")

    def test_fractional_count_rejected(self, tmp_path):
        path = _write(tmp_path / "g.txt", "0.5, 2.5\n")
        with pytest.raises(AngleFileError, match=r"g\.txt:1"):
            read_angles(path, fmt="grouped")


class TestZeroAndSense:
    def test_clockwise_from_north(self, tmp_path):
        # compass convention: 0 at north (90deg math), angles grow clockwise
        path = _write(tmp_path / "a.txt", "# unit: degrees\n0\n90\n")
        got = read_angles(path, zero="90deg", sense="cw")
        assert_allclose(got, [math.pi / 2, 0.0], atol=1e-12)

    def test_header_sense_beats_flag(self, tmp_path):
        path = _write(tmp_path / "a.txt", "# sense: cw\n0.5\n")
        assert read_angles(path, sense="ccw")[0] == pytest.approx(-0.5)

    def test_numeric_zero_uses_file_unit(self, tmp_path):
        path = _write(tmp_path / "a.txt", "# unit: degrees\n10\n")
        got = read_angles(path, zero=30.0)
        assert got[0] == pytest.approx(np.deg2rad(40.0), abs=1e-12)

    def test_bad_sense(self, tmp_path):
        path = _write(tmp_path / "a.txt", "0.5\n")
        with pytest.raises(AngleFileError, match="sense"):
            read_angles(path, sense="widdershins")

    def test_bad_unit(self, tmp_path):
        path = _write(tmp_path / "a.txt", "0.5\n")
        with pytest.raises(AngleFileError, match="unit"):
            read_angles(path, unit="gradians")

    @pytest.mark.parametrize("header, flags, name", [
        ("# unit: grads\n", {}, "unit"),
        ("# format: table\n", {}, "format"),
        ("", {"fmt": "table"}, "format"),
        ("# sense: up\n", {}, "sense"),
    ])
    def test_bad_choice_names_the_file(self, tmp_path, header, flags, name):
        path = _write(tmp_path / "a.txt", header + "0.5\n")
        with pytest.raises(AngleFileError, match=re.escape(f"{path}: {name} must be one of")):
            read_angles(path, **flags)


class TestParseNumberList:
    def test_items_are_stripped_and_converted(self):
        assert parse_number_list(" 0, 0.25 ,2") == (0.0, 0.25, 2.0)
        assert parse_number_list("3", int) == (3,)

    @pytest.mark.parametrize("text", ["", " ", ",", "1,,2", "1,2,", ",1", "1, ,2"])
    def test_an_empty_item_is_refused(self, text):
        with pytest.raises(ValueError, match="empty item"):
            parse_number_list(text)

    def test_an_item_the_conversion_refuses(self):
        with pytest.raises(ValueError):
            parse_number_list("1,x")
        with pytest.raises(ValueError):
            parse_number_list("1,2.5", int)


class TestWriteAngles:
    def test_radian_round_trip_exact(self, tmp_path):
        path = tmp_path / "out.txt"
        write_angles(path, SAMPLE)
        assert_allclose(read_angles(path), SAMPLE, rtol=0, atol=0)

    def test_degree_round_trip(self, tmp_path):
        path = tmp_path / "out.txt"
        write_angles(path, SAMPLE, unit="degrees")
        assert path.read_text(encoding="utf-8").startswith("# unit: degrees")
        assert_allclose(read_angles(path), SAMPLE, atol=1e-12)

    def test_degree_agreement_with_radian_file(self, tmp_path):
        deg, rad = tmp_path / "d.txt", tmp_path / "r.txt"
        write_angles(deg, SAMPLE, unit="degrees")
        write_angles(rad, SAMPLE, unit="radians")
        assert_allclose(read_angles(deg), read_angles(rad), atol=1e-12)


# Pieces of angle files for the differential test: valid and invalid
# numbers, counts and directives, and whitespace that str.strip, str.split
# and float treat alike but str.splitlines would not.
_NUMBERS = ("0.5", "-1.25", "3", "180", "-0.0", "2", "1", "7", "1e3", "+4", "1_000.5",
            "\u0663", "1\xa0", "\x0c2", "3\u2028", "4\x85")
_TOKENS = _NUMBERS * 4 + ("0", "-3", "2.0", "nan", "-inf", "inf", "1e400", "-1e400", "1__0",
                          "x", "", "0x1")
_DIRECTIVES = {
    "unit": ("radians", "degrees", " Degrees ", "furlongs"),
    "format": ("plain", "csv", "grouped", "CSV", "table"),
    "zero": ("90deg", "0.5", "1rad", "-45", "nan"),
    "sense": ("ccw", "cw", "CW", "up"),
}


def _data_lines(width):
    """Data lines, most of ``width`` fields."""
    fields = st.sampled_from((width,) * 6 + (1, 2, 3)).flatmap(
        lambda size: st.lists(st.sampled_from(_TOKENS), min_size=size, max_size=size))
    return st.builds(lambda fields, sep, pad: pad + sep.join(fields) + pad, fields,
                     st.sampled_from((",", " , ", ", ", " ", "\t", "\x0b")),
                     st.sampled_from(("", " ", "\t")))


_directives = st.sampled_from(sorted(_DIRECTIVES)).flatmap(
    lambda key: st.builds("{} {}: {}".format, st.sampled_from(("#", "##", "#\t")),
                          st.sampled_from((key, key.upper())),
                          st.sampled_from(_DIRECTIVES[key])))
_other_lines = st.sampled_from(("", "   ", "#", "# a note", "# unit degrees", "# colour: red",
                                " # zero: 1", "\x0c"))
_ends = st.sampled_from(("\n", "\r\n", "\r"))
_files = st.tuples(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda width: st.lists(st.tuples(_data_lines(width), _ends), min_size=1, max_size=6)),
    st.lists(st.tuples(st.one_of(_directives, _other_lines), _ends), max_size=4),
).flatmap(lambda parts: st.permutations(parts[0] + parts[1])).map(
    lambda lines: "".join(line + end for line, end in lines))
_calls = st.fixed_dictionaries({
    "unit": st.sampled_from((None, "radians", "degrees")),
    "fmt": st.sampled_from((None, "plain", "csv", "grouped")),
    "column": st.integers(min_value=-2, max_value=2),
    "zero": st.sampled_from((None, "90deg", "0.5", "-1rad", "nan")),
    "sense": st.sampled_from((None, "ccw", "cw")),
})


def _outcome(read, path, kwargs):
    """The bytes of what ``read`` returns, or the type and message of what it raises."""
    try:
        return "angles", read(path, **kwargs).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


class TestAgainstRowByRowReader:
    """``read_angles`` converts every line in one pass and reports errors in a
    second; ``reference_io.read_angles`` reads one row at a time. They must
    agree bit for bit and message for message."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(text=_files, kwargs=_calls, trailing=st.booleans())
    @example(text="# format: grouped\n1,2\n3,0\n", kwargs={}, trailing=True)
    @example(text="1\r2\r\n3\n# unit: degrees\n# unit: radians\n", kwargs={}, trailing=True)
    @example(text="1\u20282\n", kwargs={}, trailing=True)
    @example(text="# unit: degrees\n\r \n", kwargs={}, trailing=True)
    def test_same_bits_and_errors(self, tmp_path_factory, text, kwargs, trailing):
        path = tmp_path_factory.mktemp("differential") / "a.txt"
        path.write_bytes((text if trailing else text.rstrip("\r\n")).encode("utf-8"))
        assert _outcome(read_angles, path, kwargs) == _outcome(reference_io.read_angles,
                                                               path, kwargs)

    @pytest.mark.parametrize("fmt, row, bad, message", [
        ("plain", "{:.17g}", "nan", "angle must be finite"),
        ("csv", "{:.17g},1", "7", "column 1 is past the end of a 1-field row"),
        ("grouped", "{:.17g},3", "0.5,0", "count must be a positive integer"),
    ])
    def test_large_file_names_the_bad_line(self, tmp_path, fmt, row, bad, message):
        values = np.random.default_rng(5).uniform(-4.0, 4.0, 30000)
        lines = [row.format(v) for v in values]
        path = _write(tmp_path / "a.txt", "\n".join(lines) + "\n")
        assert (read_angles(path, fmt=fmt).tobytes()
                == reference_io.read_angles(path, fmt=fmt).tobytes())
        lines[21000] = bad
        _write(path, "\r\n".join(lines) + "\r\n")
        for read in (read_angles, reference_io.read_angles):
            with pytest.raises(AngleFileError, match=re.escape(f"{path}:21001: {message}")):
                read(path, fmt=fmt, column=1)

    @pytest.mark.parametrize("prefix_lines", [0, 5000])
    def test_non_utf8_file_is_named(self, tmp_path, prefix_lines):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"0.5\n" * prefix_lines + bytes(range(256)))
        errors = []
        for read in (read_angles, reference_io.read_angles):
            with pytest.raises(UnicodeDecodeError) as info:
                read(path)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert f"in {path}, which is not UTF-8 text" in errors[0]
        # the byte 0x80 after the prefix lines, counted from the start of the file
        assert f"in position {4 * prefix_lines + 128}:" in errors[0]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("content", [b"0.5\n" * 5000 + bytes(range(256)),
                                         b"# unit: degrees\r\n90\r180\n"],
                             ids=["not-utf8", "crlf"])
    def test_a_pipe_is_read_once(self, tmp_path, content):
        """A pipe can be read only once, so the error, or the sample, must
        be the one a regular file with the same bytes gives."""
        path = tmp_path / "a.txt"
        path.write_bytes(content)
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, content)  # fits in the pipe's buffer
            os.close(write_fd)
            pipe = f"/dev/fd/{read_fd}"
            outcomes = [_outcome(read_angles, source, {}) for source in (pipe, path)]
        finally:
            os.close(read_fd)
        kind, result = outcomes[1]
        if kind != "angles":
            result = result.replace(str(path), pipe)
        assert outcomes[0] == (kind, result)
