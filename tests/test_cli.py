import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circsym import cli
from circsym.cli import (
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _parse_grid,
    build_parser,
    main,
)
from circsym.distributions import SineSkewed, VonMises, parse_model
from circsym.errors import (
    DegenerateInformationError,
    DegenerateSampleError,
    EmptySampleError,
    UnsupportedBaseError,
)
from circsym.io import AngleFileError, parse_angle, read_angles, write_angles
from circsym.montecarlo import derive_stream
from circsym.symtests import symmetry_test


@pytest.fixture
def sample_file(tmp_path):
    rng = np.random.default_rng(42)
    path = tmp_path / "angles.txt"
    write_angles(path, rng.uniform(-np.pi, np.pi, 60))
    return path


class TestParsers:
    def test_parse_angle_suffixes(self):
        assert parse_angle("90deg") == pytest.approx(math.pi / 2)
        assert parse_angle("1.5rad") == 1.5
        assert parse_angle("-45deg") == pytest.approx(-math.pi / 4)
        assert parse_angle("2", unit="degrees") == pytest.approx(math.radians(2))
        assert parse_angle("2") == 2.0

    def test_parse_angle_rejects_junk(self):
        with pytest.raises(ValueError, match="bad angle"):
            parse_angle("north")

    @pytest.mark.parametrize("text", ["nan", "inf", "-infdeg", "nanrad", "1e309"])
    def test_parse_angle_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="bad angle"):
            parse_angle(text)

    def test_parse_grid(self):
        assert _parse_grid("0:1:3") == pytest.approx([0.0, 0.5, 1.0])
        assert _parse_grid("0,0.25,2") == [0.0, 0.25, 2.0]
        with pytest.raises(UsageError):
            _parse_grid("0:1")
        with pytest.raises(UsageError):
            _parse_grid("0:1:1")
        with pytest.raises(UsageError):
            _parse_grid("a,b")
        for bad in ("nan,1", "0,inf", "0:inf:3", "nan:1:3"):
            with pytest.raises(UsageError, match="finite"):
                _parse_grid(bad)

    def test_parse_model_bases_and_skews(self):
        assert parse_model("vm:2").label == "vm:2"
        skew = parse_model("sineskew(cardioid:0.5,k=2,lam=0.3)")
        assert isinstance(skew, SineSkewed)
        assert (skew.k, skew.lam) == (2, 0.3)
        moebius = parse_model("moebius(vm:1,r=0.5,lam=0.1)")
        assert moebius.omega == pytest.approx(1 / 3)
        mix = parse_model("mixshift(kappa=10,lam=0.4)")
        assert mix.lam == 0.4

    def test_parse_model_rejects_junk(self):
        for bad in ("warp:1", "sineskew(vm:1)", "mixshift(vm:1,lam=0.1)",
                    "sineskew(vm:1,lam=0.3", "banana(vm:1,lam=0.1)"):
            with pytest.raises(ValueError):
                parse_model(bad)


class TestTestCommand:
    def test_human_output(self, sample_file, capsys):
        assert main(["test", str(sample_file), "--theta", "0.3rad"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n=60" in out and "p-value" in out

    def test_json_matches_library(self, sample_file, capsys):
        assert main(["test", str(sample_file), "--theta", "0.3rad",
                     "--k", "1,2", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "circsym/v1"
        sample = read_angles(sample_file)
        for entry, k in zip(payload["results"], (1, 2)):
            expected = symmetry_test(sample, 0.3, k)
            assert entry["statistic"] == expected.statistic
            assert entry["p_value"] == expected.p_value
            assert entry["k"] == k

    def test_degree_and_radian_files_agree(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        angles = rng.uniform(-np.pi, np.pi, 40)
        deg, rad = tmp_path / "d.txt", tmp_path / "r.txt"
        write_angles(deg, angles, unit="degrees")
        write_angles(rad, angles, unit="radians")
        stats = []
        for path in (deg, rad):
            assert main(["test", str(path), "--theta", "45deg", "--json"]) == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            stats.append([r["statistic"] for r in payload["results"]])
        assert stats[0] == pytest.approx(stats[1], abs=1e-12)

    def test_grouped_equals_expanded(self, tmp_path, capsys):
        grouped = tmp_path / "g.txt"
        grouped.write_text("# format: grouped\n0.5, 3\n-0.9, 2\n2.2, 4\n",
                           encoding="utf-8")
        plain = tmp_path / "p.txt"
        plain.write_text("\n".join(["0.5"] * 3 + ["-0.9"] * 2 + ["2.2"] * 4) + "\n",
                         encoding="utf-8")
        outputs = []
        for path in (grouped, plain):
            assert main(["test", str(path), "--theta", "0", "--json"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_missing_theta_is_usage_error(self, sample_file, capsys):
        assert main(["test", str(sample_file)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "known" in err and "--theta" in err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert main(["test", str(missing), "--theta", "0"]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_bad_alpha_is_usage_error(self, sample_file, capsys):
        for alpha in ("1.5", "0", "nan", "abc"):
            assert main(["test", str(sample_file), "--theta", "0",
                         "--alpha", alpha]) == EXIT_USAGE
            assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("ks", ["0", "1,0", "-2", ",", "x"])
    def test_bad_frequency_is_usage_error(self, sample_file, capsys, ks):
        assert main(["test", str(sample_file), "--theta", "0", "--k", ks]) == EXIT_USAGE
        assert "frequency" in capsys.readouterr().err

    def test_non_finite_angle_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("0.5\n-1.25\nnan\n2.0\n", encoding="utf-8")
        assert main(["test", str(path), "--theta", "0"]) == EXIT_DATA
        assert ":3:" in capsys.readouterr().err

    def test_degenerate_sample_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "flat.txt"
        path.write_text("0\n0\n0\n0\n", encoding="utf-8")
        assert main(["test", str(path), "--theta", "0", "--k", "1"]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestUniformityCommand:
    def test_requires_direction(self, sample_file, capsys):
        assert main(["uniformity", str(sample_file)]) == EXIT_USAGE
        assert "--direction" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        write_angles(path, [0.7] * 9)
        assert main(["uniformity", str(path), "--direction", "0.7rad",
                     "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        result = payload["results"][0]
        assert result["statistic"] == pytest.approx(math.sqrt(18.0), rel=1e-12, abs=0.0)
        assert result["p_value"] < 1e-4


class TestMcCommand:
    def test_preset_and_scenario_mutually_exclusive(self, capsys):
        assert main(["mc"]) == EXIT_USAGE
        assert main(["mc", "--preset", "table1", "--scenario", "x"]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_preset(self, capsys):
        assert main(["mc", "--preset", "table9"]) == EXIT_USAGE
        assert "unknown preset" in capsys.readouterr().err

    def test_scenario_file_run_and_seeded_determinism(self, tmp_path, capsys):
        scen = tmp_path / "scen.txt"
        scen.write_text(
            "scenario_id = demo\nfamily = sineskew\nbase = vm:1\n"
            "lambdas = 0, 0.5\nn = 20\nreps = 100\nruns_p = none\n",
            encoding="utf-8",
        )
        outdir = tmp_path / "out"
        argv = ["mc", "--scenario", str(scen), "--seed", "9",
                "--out", "both", "--outdir", str(outdir)]
        assert main(argv) == EXIT_OK
        first_csv = (outdir / "demo.csv").read_bytes()
        first_json = (outdir / "demo.json").read_bytes()
        assert main(argv) == EXIT_OK
        assert (outdir / "demo.csv").read_bytes() == first_csv
        assert (outdir / "demo.json").read_bytes() == first_json
        payload = json.loads(first_json.decode("utf-8"))
        assert payload["scenario"]["master_seed"] == 9
        capsys.readouterr()

    @pytest.mark.parametrize("scenario_id", ["../escaped", "/abs/path", "a/b", ".."])
    def test_scenario_id_cannot_leave_outdir(self, tmp_path, capsys, scenario_id):
        work = tmp_path / "work"
        (work / "out").mkdir(parents=True)
        scen = tmp_path / "scen.txt"
        scen.write_text(f"scenario_id = {scenario_id}\nfamily = sineskew\nbase = vm:1\n"
                        "lambdas = 0\nn = 20\nreps = 100\n", encoding="utf-8")
        assert main(["mc", "--scenario", str(scen), "--outdir", str(work / "out")]) == EXIT_USAGE
        assert "scenario_id" in capsys.readouterr().err
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
            Path("scen.txt"), Path("work"), Path("work/out")]

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        scen = tmp_path / "scen.txt"
        scen.write_text(
            "scenario_id = par\nfamily = sineskew\nbase = cardioid:0.5\n"
            "lambdas = 0, 0.4\nn = 15\nreps = 120\nruns_p = none\n",
            encoding="utf-8",
        )
        blobs = []
        for threads in ("1", "2"):
            outdir = tmp_path / f"t{threads}"
            assert main(["mc", "--scenario", str(scen), "--threads", threads,
                         "--outdir", str(outdir)]) == EXIT_OK
            blobs.append((outdir / "par.csv").read_bytes())
        assert blobs[0] == blobs[1]
        capsys.readouterr()


class TestPowerCommand:
    def test_zero_drift_row_equals_level(self, capsys):
        assert main(["power", "--base", "vm:1", "--k", "2", "--kprime", "1,2",
                     "--grid", "0,2"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "# schema: circsym/v1"
        header = lines[2].split(",")
        assert header == ["tau2", "analytic_kprime1", "analytic_kprime2"]
        row0 = lines[3].split(",")
        assert float(row0[1]) == pytest.approx(0.05, abs=1e-6)
        assert float(row0[2]) == pytest.approx(0.05, abs=1e-6)

    def test_out_file_and_empirical_columns(self, tmp_path, capsys):
        out = tmp_path / "power.csv"
        assert main(["power", "--base", "vm:1", "--k", "2", "--kprime", "2",
                     "--grid", "0,1", "--empirical", "30", "200",
                     "--seed", "4", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[2] == "tau2,analytic_kprime2,empirical_kprime2"
        assert len(lines) == 5

    def test_a_grid_that_starts_with_a_minus_sign_is_joined_by_equals(self, capsys):
        assert main(["power", "--grid", "-1,2"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "circsym: power: argument --grid: expected one argument\n")
        assert main(["power", "--grid=-1,2"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[3:]
        assert [row.split(",")[0] for row in rows] == ["-1", "2"]

    def test_tiny_level(self, capsys):
        # z_(alpha/2) is formed from alpha itself, never from 1 - alpha/2
        assert main(["power", "--base", "vm:1", "--k", "2", "--kprime", "2",
                     "--grid", "0,1", "--alpha", "1e-20"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[3:]
        assert [row.split(",")[1] for row in rows] == ["0.000000", "0.000000"]


class TestFisherCommand:
    def test_von_mises_k1_singular(self, capsys):
        assert main(["fisher", "--base", "vm:1", "--k", "1", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["singular"] is True
        assert payload["normalized_gap"] == pytest.approx(0.0, abs=1e-8)
        assert payload["determinant"] == pytest.approx(0.0, abs=1e-10)

    def test_uniform_base_has_no_location_information(self, capsys):
        assert main(["fisher", "--base", "uniform", "--k", "1", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["g22"] == pytest.approx(0.5, abs=1e-12)
        assert payload["singular"] is None and payload["normalized_gap"] is None

    def test_human_report_mentions_gap(self, capsys):
        assert main(["fisher", "--base", "wcauchy:0.5", "--k", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "normalized_gap" in out and "singular false" in out

    def test_unknown_base_family(self, capsys):
        assert main(["fisher", "--base", "cauchy:0.5", "--k", "1"]) == EXIT_USAGE
        capsys.readouterr()

    def _json(self, capsys, base):
        assert main(["fisher", "--base", base, "--k", "1", "--json"]) == EXIT_OK
        return json.loads(capsys.readouterr().out)

    def test_large_kappa_von_mises(self, capsys):
        from scipy.special import ive

        payload = self._json(capsys, "vm:800")
        rho1 = ive(1, 800.0) / ive(0, 800.0)
        rho2 = ive(2, 800.0) / ive(0, 800.0)
        assert payload["g11"] == pytest.approx(800.0 * rho1, rel=1e-13, abs=0.0)
        assert payload["g12"] == pytest.approx(rho1, rel=1e-13, abs=0.0)
        assert payload["g22"] == pytest.approx(0.5 * (1.0 - rho2), rel=1e-11, abs=0.0)
        assert payload["singular"] is True

    def test_wrapped_cauchy_near_one(self, capsys):
        rho = 0.999
        payload = self._json(capsys, "wcauchy:0.999")
        assert payload["g11"] == pytest.approx(
            2 * rho**2 / (1 - rho**2) ** 2, rel=1e-12, abs=0.0)
        assert payload["g12"] == pytest.approx(rho, rel=1e-15, abs=0.0)
        assert payload["g22"] == pytest.approx(0.5 * (1 - rho**2), rel=1e-12, abs=0.0)

    def test_smallest_kappa(self, capsys):
        # kappa / 2 rounds to 0 here; the moments are 0, so the matrix is uniform's
        payload = self._json(capsys, "vm:5e-324")
        assert (payload["g11"], payload["g12"], payload["g22"]) == (0.0, 0.0, 0.5)
        assert payload["normalized_gap"] is None and payload["singular"] is None
        assert main(["power", "--base", "vm:5e-324", "--k", "1", "--grid", "0,1"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[3:] == [
            "0,0.050000,0.050000,0.050000", "1,0.108955,0.050000,0.050000"]

    def test_huge_kappa_is_quick_and_finite(self, capsys):
        import time

        start = time.perf_counter()
        payload = self._json(capsys, "vm:1e300")
        assert time.perf_counter() - start < 1.0
        for key in ("g11", "g12", "g22", "determinant"):
            assert math.isfinite(payload[key])


# The full stdout of ``fisher --k 1``, human and --json, byte for byte.
FISHER_GOLDEN = {
    "vm:1": (
        "base vm:1  k=1\n"
        "g11 0.446389965897\n"
        "g12 0.446389965897\n"
        "g22 0.446389965897\n"
        "determinant 0\n"
        "normalized_gap 0\n"
        "singular true\n",
        '{\n'
        '  "base": "vm:1",\n'
        '  "determinant": 0.0,\n'
        '  "g11": 0.4463899658965345,\n'
        '  "g12": 0.4463899658965345,\n'
        '  "g22": 0.4463899658965345,\n'
        '  "k": 1,\n'
        '  "normalized_gap": 0.0,\n'
        '  "schema": "circsym/v1",\n'
        '  "singular": true\n'
        '}\n',
    ),
    "wcauchy:0.5": (
        "base wcauchy:0.5  k=1\n"
        "g11 0.888888888889\n"
        "g12 0.5\n"
        "g22 0.375\n"
        "determinant 0.0833333333333\n"
        "normalized_gap 0.25\n"
        "singular false\n",
        '{\n'
        '  "base": "wcauchy:0.5",\n'
        '  "determinant": 0.08333333333333331,\n'
        '  "g11": 0.8888888888888888,\n'
        '  "g12": 0.5,\n'
        '  "g22": 0.375,\n'
        '  "k": 1,\n'
        '  "normalized_gap": 0.24999999999999994,\n'
        '  "schema": "circsym/v1",\n'
        '  "singular": false\n'
        '}\n',
    ),
    "uniform": (
        "base uniform  k=1\n"
        "g11 0\n"
        "g12 0\n"
        "g22 0.5\n"
        "determinant 0\n"
        "normalized_gap undefined (g11 * g22 is zero)\n",
        '{\n'
        '  "base": "uniform",\n'
        '  "determinant": 0.0,\n'
        '  "g11": 0.0,\n'
        '  "g12": 0.0,\n'
        '  "g22": 0.5,\n'
        '  "k": 1,\n'
        '  "normalized_gap": null,\n'
        '  "schema": "circsym/v1",\n'
        '  "singular": null\n'
        '}\n',
    ),
}


@pytest.mark.parametrize("base", sorted(FISHER_GOLDEN))
@pytest.mark.parametrize("as_json", [False, True], ids=["human", "json"])
def test_fisher_stdout_golden(base, as_json, capsys):
    argv = ["fisher", "--base", base, "--k", "1"] + ["--json"] * as_json
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == FISHER_GOLDEN[base][as_json]


class TestSampleCommand:
    def test_seeded_stdout_reproducible(self, capsys):
        argv = ["sample", "--model", "vm:2", "-n", "5", "--seed", "11"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first
        assert first.startswith("# unit: radians\n# format: plain\n")

    def test_file_round_trip_matches_library(self, tmp_path, capsys):
        model_text = "sineskew(vm:1,k=2,lam=0.4)"
        path = tmp_path / "draws.txt"
        assert main(["sample", "--model", model_text, "-n", "80",
                     "--seed", "6", "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        model = SineSkewed(VonMises(1.0), 0.4, k=2)
        expected = model.sample(derive_stream(6, f"cli-sample|{model.label}", 0), 80)
        np.testing.assert_array_equal(read_angles(path), expected)
        # and the test command sees exactly those draws
        assert main(["test", str(path), "--theta", "0", "--k", "2",
                     "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        direct = symmetry_test(expected, 0.0, 2)
        assert payload["results"][0]["statistic"] == direct.statistic

    def test_bad_model_is_usage_error(self, capsys):
        assert main(["sample", "--model", "vm", "-n", "3"]) == EXIT_USAGE
        capsys.readouterr()

    def test_nonpositive_n(self, capsys):
        assert main(["sample", "--model", "vm:1", "-n", "0"]) == EXIT_USAGE
        capsys.readouterr()


class TestNoTraceback:
    """Bad input ends with a documented exit code and one message, never a traceback."""

    @pytest.mark.parametrize("argv, code", [
        (["test", "{nan}", "--theta", "0"], EXIT_DATA),
        (["test", "{ok}", "--theta", "0", "--k", "0"], EXIT_USAGE),
        (["test", "{ok}", "--theta", "0", "--alpha", "1.5"], EXIT_USAGE),
        (["fisher", "--base", "vm:1", "--k", "0"], EXIT_USAGE),
        (["power", "--base", "vm:1", "--kprime", "0", "--grid", "0,1"], EXIT_USAGE),
        (["power", "--base", "vm:1", "--grid", "nan,1"], EXIT_USAGE),
        (["test", "{ok}", "--theta=nan"], EXIT_USAGE),
        (["uniformity", "{ok}", "--direction=nan"], EXIT_USAGE),
        (["test", "{zero_nan}", "--theta", "0"], EXIT_DATA),
        (["sample", "--model", "vm:inf", "-n", "5"], EXIT_USAGE),
        (["sample", "--model", "moebius(vm:1,r=0.5,lam=nan)", "-n", "5"], EXIT_USAGE),
        (["sample", "--model", "mixshift(kappa=10,lam=inf)", "-n", "5"], EXIT_USAGE),
        (["sample", "--model", "vmmix:inf", "-n", "5"], EXIT_USAGE),
        (["fisher", "--base", "vm:800", "--k", "1", "--json"], EXIT_OK),
        (["fisher", "--base", "wcauchy:0.999", "--k", "1"], EXIT_OK),
        (["fisher", "--base", "vm:1e300", "--k", "1"], EXIT_OK),
        (["fisher", "--base", "vmmix:1", "--k", "1"], EXIT_USAGE),
        (["power", "--base", "vmmix:1"], EXIT_USAGE),
        (["power", "--empirical", "4", "100", "--grid", "0:5:3"], EXIT_USAGE),
        (["power", "--empirical", "0", "100"], EXIT_USAGE),
        (["mc", "--preset", "table1", "--reps", "5"], EXIT_USAGE),
        (["mc", "--scenario", "{reps_abc}"], EXIT_USAGE),
        (["mc", "--scenario", "{skewed_base}"], EXIT_USAGE),
        (["test", "{one}", "--theta", "0"], EXIT_DATA),
        (["uniformity", "{one}", "--direction", "0"], EXIT_DATA),
        (["test", "{dir}", "--theta", "0"], EXIT_DATA),
        (["test", "{binary}", "--theta", "0"], EXIT_DATA),
        (["sample", "--model", "vm:1e300", "-n", "5"], EXIT_OK),
        (["sample", "--model", "sineskew(vm:1,lam=0.3,k=2.5)", "-n", "5"], EXIT_USAGE),
        (["sample", "--model", "sineskew(vm:1,lam=0.3,foo=1)", "-n", "5"], EXIT_USAGE),
        (["mc", "--scenario", "{calibration}"], EXIT_USAGE),
        (["mc", "--scenario", "{repeated}"], EXIT_USAGE),
        (["mc", "--scenario", "{empty_item}"], EXIT_USAGE),
        (["test", "{ok}", "--theta", "0", "--k", "1,,2"], EXIT_USAGE),
        (["power", "--kprime", "1,2,"], EXIT_USAGE),
        (["power", "--grid", "0,,1"], EXIT_USAGE),
        # refused before the list of points is built
        (["power", "--grid", "0:5:99999999999"], EXIT_USAGE),
        # the moment gap stops where the moments underflow to 0
        (["fisher", "--base", "vm:1", "--k", "10000000"], EXIT_OK),
        # sample sizes above MAX_SAMPLE_SIZE, refused before any sample is drawn
        (["sample", "--model", "vm:1", "-n", "100000000000"], EXIT_USAGE),
        (["power", "--grid", "0,1", "--empirical", "100000000000", "100"], EXIT_USAGE),
        (["mc", "--scenario", "{huge_n}"], EXIT_USAGE),
        # more than MAX_DRAWS draws per stream, refused before any is drawn
        (["power", "--grid", "0,1", "--empirical", "100", "100000000000"], EXIT_USAGE),
        (["mc", "--preset", "table1", "--reps", "100000000000"], EXIT_USAGE),
    ])
    def test_exit_code_without_traceback(self, tmp_path, argv, code):
        self._check(tmp_path, argv, code)

    # each is refused by the argument parser, before any replication or pool
    @pytest.mark.parametrize("argv", [
        ["mc", "--preset", "table1", "--threads", "0"],
        ["power", "--empirical", "30", "100", "--threads", "-3"],
    ], ids=["mc-0", "power-minus-3"])
    def test_threads_must_be_positive(self, tmp_path, argv):
        stderr = self._check(tmp_path, argv, EXIT_USAGE)
        assert "threads must be a positive integer" in stderr

    @pytest.mark.parametrize("argv", [
        ["test", "{binary}", "--theta", "0"],
        ["mc", "--scenario", "{binary}"],
        ["test", "{long_binary}", "--theta", "0"],
        ["mc", "--scenario", "{long_binary_scenario}"],
        # decoded whole before line 6, whose key is repeated, is parsed
        ["mc", "--scenario", "{repeated_then_binary}"],
    ])
    def test_non_utf8_file_is_named(self, tmp_path, argv):
        stderr = self._check(tmp_path, argv, EXIT_DATA)
        path = tmp_path / next(a for a in argv if a.startswith("{"))[1:-1]
        assert f"in {path}, which is not UTF-8 text" in stderr
        # the first byte that is not ASCII, counted from the start of the file
        position = min(i for i, byte in enumerate(path.read_bytes()) if byte > 127)
        assert f"in position {position}:" in stderr

    def _check(self, tmp_path, argv, code):
        files = {
            "nan": "0.5\n-1.25\nnan\n2.0\n",
            "ok": "0.5\n-1.25\n1.0\n2.0\n",
            "zero_nan": "# zero: nan\n0.5\n-1.25\n",
            "one": "0.5\n",
            "reps_abc": "scenario_id = s\nfamily = sineskew\nbase = vm:1\n"
                        "lambdas = 0\nreps = abc\n",
            "skewed_base": "scenario_id = s\nfamily = sineskew\n"
                           "base = sineskew(vm:1,lam=0.1)\nlambdas = 0\n",
            "calibration": "scenario_id = s\nfamily = sineskew\nbase = vm:1\n"
                           "lambdas = 0\nruns_calibration_reps = 2000\n",
            "repeated": "scenario_id = s\nfamily = sineskew\nbase = vm:1\n"
                        "lambdas = 0\nreps = 100\nreps = 200\n",
            "empty_item": "scenario_id = s\nfamily = sineskew\nbase = vm:1\n"
                          "lambdas = 0,,0.2\n",
            "huge_n": "scenario_id = s\nfamily = sineskew\nbase = vm:1\n"
                      "lambdas = 0\nn = 100000000000\n",
        }
        binaries = {
            "binary": bytes(range(256)),
            "long_binary": b"0.5\n" * 5000 + b"\xff",
            "long_binary_scenario": b"# c\n" * 5000 + b"\xff",
            "repeated_then_binary": files["repeated"].encode() + b"# c\n" * 5000 + b"\xff",
        }
        paths = {"dir": tmp_path}
        for name, data in binaries.items():
            paths[name] = tmp_path / name
            paths[name].write_bytes(data)
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text, encoding="utf-8")
        argv = [a.format(**paths) for a in argv]
        done = _fresh_process(argv, tmp_path)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert "circsym: circsym" not in done.stderr
        if code != EXIT_OK:
            assert done.stderr.startswith("circsym: ")
            assert len(done.stderr.splitlines()) == 1
        return done.stderr


def _fresh_process(argv, cwd):
    """``circsym argv`` run in a new interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "circsym.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60, cwd=cwd)


# stdout is a pipe whose read end is closed, so every write to it fails with
# EPIPE; a shell pipe into a reader that has exited may not show that
_CLOSED_STDOUT_SCRIPT = """
import os, sys
from circsym.cli import main

read_end, write_end = os.pipe()
os.close(read_end)
os.dup2(write_end, 1)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["fisher", "--base", "vm:1", "--k", "2"],
    ["mc", "--preset", "table1", "--reps", "100", "--outdir", "out"],
], ids=lambda argv: argv[0])
def test_a_closed_stdout_exits_2_without_a_message(tmp_path, argv):
    """The output is incomplete, so the code is not 0, but no data was at fault."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _CLOSED_STDOUT_SCRIPT, *argv],
                          capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path)
    assert (done.returncode, done.stderr) == (EXIT_DATA, "")

class TestInProcess:
    """Calls to ``main`` in one process see no state left by earlier calls."""

    @pytest.mark.parametrize("argv", [
        ["test", "{sample}", "--theta", "0.3", "--k", "1,3", "--json"],
        ["uniformity", "{sample}", "--direction", "45deg"],
        ["fisher", "--base", "cardioid:0.3", "--k", "2"],
        ["power", "--base", "wcauchy:0.4", "--grid", "0,1.5", "--kprime", "2"],
        ["sample", "--model", "vm:2", "-n", "7", "--seed", "11"],
    ], ids=lambda argv: argv[0])
    def test_the_same_argv_twice_gives_the_same_stdout(self, sample_file, capsys, argv):
        argv = [a.format(sample=sample_file) for a in argv]
        outputs = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""


# argument lists that end before a namespace is parsed: help, the version,
# an unknown or missing subcommand and one usage error per subcommand
_UNPARSED = [
    *([command, "--help"] for command, _, _ in cli.COMMANDS),
    ["--help"], ["-h", "test"], ["--version"], [], ["bogus"], ["TEST"],
    ["--bogus", "test"], ["test", "--bogus"],
    ["test", "{sample}", "--theta", "0", "--column", "-1"],
    ["uniformity", "--direction", "0"],
    ["mc", "--preset", "table1", "--threads", "0"],
    ["power", "--k", "x"],
    ["fisher", "--base", "vm:1"],
    ["sample", "--model", "vm:1"],
]
# one valid request per subcommand
_PARSED = [
    ["test", "{sample}", "--theta", "0.3", "--k", "1,3", "--json"],
    ["uniformity", "{sample}", "--direction", "45deg"],
    ["mc", "--scenario", "{scenario}", "--outdir", "{outdir}"],
    ["power", "--base", "wcauchy:0.4", "--grid", "0,1.5", "--kprime", "2"],
    ["fisher", "--base", "vm:1", "--k", "1"],
    ["sample", "--model", "vm:2", "-n", "7", "--seed", "11"],
]


class TestParserPaths:
    """``main`` builds only the subcommand that its first argument names. It
    must answer as the parser with all six subcommands does: the same
    stdout, stderr, exit code and parsed namespace."""

    @staticmethod
    def _run(monkeypatch, capsys, argv, every_command):
        build = cli.build_parser
        parsed = []

        def recorded(command=None):
            parser = build() if every_command else build(command)
            parse = parser.parse_args

            def parse_args(args=None, namespace=None):
                parsed.append(parse(args, namespace))
                return parsed[-1]

            parser.parse_args = parse_args
            return parser

        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", recorded)
            try:
                code = main(argv)
            except SystemExit as exc:  # --help and --version
                code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, parsed

    @pytest.mark.parametrize("argv, valid", [
        pytest.param(argv, valid, id=" ".join(argv) or "none")
        for argvs, valid in ((_UNPARSED, False), (_PARSED, True)) for argv in argvs])
    def test_one_subcommand_answers_as_all_six(self, sample_file, tmp_path, monkeypatch,
                                               capsys, argv, valid):
        scenario = tmp_path / "s.txt"
        scenario.write_text("scenario_id = s\nfamily = sineskew\nbase = vm:1\n"
                            "lambdas = 0\nn = 10\nreps = 100\n", encoding="utf-8")
        argv = [a.format(sample=sample_file, scenario=scenario, outdir=tmp_path / "out")
                for a in argv]
        alone = self._run(monkeypatch, capsys, argv, every_command=False)
        assert alone == self._run(monkeypatch, capsys, argv, every_command=True)
        _, out, err, parsed = alone
        assert bool(parsed) == valid
        assert out or err

    def test_a_named_subcommand_builds_one_subparser(self, monkeypatch, capsys):
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            added.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        assert main(["fisher", "--base", "vm:1", "--k", "1"]) == EXIT_OK
        assert added == ["fisher"]
        every = [name for name, _, _ in cli.COMMANDS]
        for argv in (["bogus"], ["--bogus", "fisher"]):
            added.clear()
            assert main(argv) == EXIT_USAGE
            assert added == every
        added.clear()
        build_parser()
        assert added == every
        capsys.readouterr()


class TestColumn:
    """``--column j`` reads field j, counted from 0, of every csv row."""

    @pytest.fixture
    def rows(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3,4,5\n0.5,0.25\n", encoding="utf-8")
        return path

    def test_a_negative_column_is_a_usage_error(self, rows, capsys):
        assert main(["test", str(rows), "--format", "csv", "--theta", "0",
                     "--column", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "circsym: test: argument --column: bad column '-1': "
            "column must be a nonnegative integer, got -1\n")

    @pytest.mark.parametrize("column", ["2", "100000000000000000000"])
    def test_a_column_past_a_row_names_its_field_count(self, rows, capsys, column):
        assert main(["test", str(rows), "--format", "csv", "--theta", "0",
                     "--column", column]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"circsym: data error: {rows}:1: column {column} is past the end of a 2-field row\n")


class TestNoEnvironment:
    """The CLI reads no environment variable."""

    def test_the_old_threads_variable_changes_nothing(self, tmp_path, monkeypatch, capsys):
        scenario = tmp_path / "s.txt"
        scenario.write_text("scenario_id = s\nfamily = sineskew\nbase = vm:1\n"
                            "lambdas = 0,0.2\nn = 10\nreps = 100\n", encoding="utf-8")
        monkeypatch.delenv("CIRCSYM_THREADS", raising=False)
        outputs = []
        for value in ("unset", "abc"):
            if value == "abc":
                monkeypatch.setenv("CIRCSYM_THREADS", value)
            outdir = tmp_path / value
            assert main(["mc", "--scenario", str(scenario), "--out", "both",
                         "--outdir", str(outdir)]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append((captured.out.replace(str(outdir), "OUT"),
                            [(outdir / f"s.{suffix}").read_bytes() for suffix in ("csv", "json")]))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "3"])
    @pytest.mark.parametrize("argv", [
        ["mc", "--preset", "table1"],
        ["power", "--empirical", "30", "100"],
    ], ids=["mc", "power"])
    def test_the_worker_count_defaults_to_one(self, monkeypatch, argv, value):
        monkeypatch.setenv("CIRCSYM_THREADS", value)
        assert build_parser().parse_args(argv).threads == 1

    @pytest.mark.parametrize("argv", [
        ["test", "a.txt", "--k", "1,2"],
        ["uniformity", "a.txt"],
        ["mc", "--preset", "table1", "--threads", "2"],
        ["power", "--empirical", "30", "100"],
        ["fisher", "--base", "vm:1", "--k", "1"],
        ["sample", "--model", "vm:1", "-n", "10"],
    ], ids=lambda argv: argv[0])
    def test_parsing_reads_no_variable_of_its_own(self, monkeypatch, argv):
        # argparse's gettext looks up the locale variables; circsym reads none
        environment = _ReadsRecorded(os.environ, CIRCSYM_THREADS="3")
        with monkeypatch.context() as patch:
            patch.setattr(os, "environ", environment)
            args = build_parser().parse_args(argv)
        assert args.command == argv[0]
        assert not [key for key in environment.read if "CIRCSYM" in key.upper()]


class _ReadsRecorded(dict):
    """A copy of ``os.environ`` that records each key looked up in it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.append(key)
        return super().__contains__(key)


class TestExitTable:
    """``main`` maps each exception a command raises to one exit code."""

    @pytest.mark.parametrize("exc, code", [
        (UsageError("x"), EXIT_USAGE),
        (ValueError("x"), EXIT_USAGE),
        (UnsupportedBaseError("x"), EXIT_USAGE),
        (AngleFileError("x"), EXIT_DATA),
        (EmptySampleError("x"), EXIT_DATA),
        (DegenerateSampleError("x"), EXIT_DATA),
        (FileNotFoundError("x"), EXIT_DATA),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "x"), EXIT_DATA),
        (DegenerateInformationError("x"), EXIT_NUMERICAL),
        (FloatingPointError("x"), EXIT_NUMERICAL),
        (OverflowError("x"), EXIT_NUMERICAL),
    ])
    def test_exit_code(self, monkeypatch, capsys, exc, code):
        def command(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_fisher", command)
        assert main(["fisher", "--base", "vm:1", "--k", "1"]) == code
        err = capsys.readouterr().err
        assert err.startswith("circsym: ") and len(err.splitlines()) == 1

    def test_other_exceptions_propagate(self, monkeypatch):
        def command(args):
            raise RuntimeError("a defect, not an input error")

        monkeypatch.setattr(cli, "cmd_fisher", command)
        with pytest.raises(RuntimeError):
            main(["fisher", "--base", "vm:1", "--k", "1"])


_NUMPY_ONLY_SCRIPT = """
import sys
from circsym.cli import main

requests = [
    ["sample", "--model", "vm:1", "-n", "40", "--seed", "3", "--out", "x.txt"],
    ["test", "x.txt", "--theta", "0"],
    ["uniformity", "x.txt", "--direction", "0"],
    ["fisher", "--base", "vm:1", "--k", "1"],
    ["power", "--base", "vm:1", "--grid", "0,1"],
    ["mc", "--preset", "table1", "--reps", "100", "--outdir", "out"],
]
codes = [main(argv) for argv in requests]
loaded = sorted(name for name in ("scipy", "hypothesis", "pytest") if name in sys.modules)
print(codes, loaded, file=sys.stderr)
"""


def test_runtime_needs_numpy_only(tmp_path):
    """Every command runs without importing a test dependency."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"
