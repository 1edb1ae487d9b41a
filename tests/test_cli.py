"""Command-line driver: input documents, report formats, exit codes."""

import json
import math
import sys
from fractions import Fraction

import pytest

from matpress import cli, jsr, pressure, svpressure
from matpress.errors import InvalidInputError
from matpress.measure import FiniteMatrixMeasure, WordBudget

DIAG_PAIR_DOC = {
    "d": 2,
    "atoms": [
        {"weight": 1.0, "matrix": [[0.5, 0.0], [0.0, 1.0 / 3.0]]},
        {"weight": 1.0, "matrix": [[0.25, 0.0], [0.0, 0.5]]},
    ],
}

NILPOTENT_DOC = {
    "d": 2,
    "atoms": [{"weight": 1.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]}],
}

SCALAR_HALF_DOC = {
    "d": 2,
    "atoms": [{"weight": 1.0, "matrix": [[0.5, 0.0], [0.0, 0.5]]}],
}

TENTH_SCALE_DOC = {
    "d": 2,
    "atoms": [
        {"weight": 1.0, "matrix": [[0.3, 0.0], [0.0, 0.3]]},
        {"weight": 1.0, "matrix": [[0.3, 0.0], [0.0, 0.3]]},
    ],
}

MORAN3_DOC = {
    "d": 2,
    "atoms": [{"weight": 1.0, "matrix": [[0.5, 0.0], [0.0, 0.5]]}] * 3,
}

DET4_DOC = {
    "d": 2,
    "atoms": [{"weight": 1.0, "matrix": [[0.8, 0.0], [0.0, 0.8]]}] * 4,
}


def write_doc(tmp_path, doc, name="measure.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def cli_default_budget():
    # mirror of the argparse defaults, so library calls reproduce CLI runs
    return WordBudget(max_word_length=64, max_words=10_000_000, wall_clock_cap=600.0)


class TestParseExponent:
    def test_slash_is_exact(self):
        s = cli.parse_exponent("3/2")
        assert isinstance(s, Fraction) and s == Fraction(3, 2)

    def test_mixed_form(self):
        assert cli.parse_exponent("1+1/2") == Fraction(3, 2)
        assert cli.parse_exponent("2+1/3") == Fraction(7, 3)

    def test_plain_integer_is_exact(self):
        s = cli.parse_exponent("2")
        assert isinstance(s, Fraction) and s == 2

    def test_decimal_is_float(self):
        s = cli.parse_exponent("1.5")
        assert isinstance(s, float) and s == 1.5
        assert cli.parse_exponent("1e-3") == 1e-3

    @pytest.mark.parametrize("text", ["nan", "NaN", "-nan"])
    def test_nan_is_a_float_left_to_the_validators(self, text):
        assert math.isnan(cli.parse_exponent(text))

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "3//2", "1+/2"])
    def test_rejects_junk(self, bad):
        with pytest.raises(InvalidInputError):
            cli.parse_exponent(bad)


class TestParseInput:
    def test_round_trip_preserves_every_bit(self, tmp_path):
        doc = {
            "d": 2,
            "atoms": [
                {"weight": 0.1, "matrix": [[1.0 / 3.0, 0.2], [-0.7, 1e-17]]},
                {"weight": 2.5, "matrix": [[0.0, -0.0], [0.3 + 0.1 - 0.1, 0.5]]},
            ],
        }
        mu = cli.parse_input(write_doc(tmp_path, doc))
        again = json.loads(cli.emit_input(mu))
        # repr-based JSON floats round-trip exactly, -0.0 included
        assert json.dumps(again, sort_keys=True) == json.dumps(doc, sort_keys=True)

    def test_emit_then_parse_is_stable(self, tmp_path):
        mu = cli.parse_input(write_doc(tmp_path, DIAG_PAIR_DOC))
        second = tmp_path / "echo.json"
        second.write_text(cli.emit_input(mu))
        mu2 = cli.parse_input(str(second))
        assert cli.emit_input(mu2) == cli.emit_input(mu)

    def test_weight_defaults_to_one(self, tmp_path):
        doc = {"d": 2, "atoms": [{"matrix": [[0.5, 0.0], [0.0, 0.5]]}]}
        mu = cli.parse_input(write_doc(tmp_path, doc))
        assert isinstance(mu, FiniteMatrixMeasure)
        assert mu.atoms[0][0] == 1.0
        assert '"weight": 1.0' in cli.emit_input(mu)

    def test_zero_weight_rejected(self, tmp_path):
        doc = {"d": 2, "atoms": [{"weight": 0.0, "matrix": [[0.5, 0.0], [0.0, 0.5]]}]}
        with pytest.raises(InvalidInputError, match="weight"):
            cli.parse_input(write_doc(tmp_path, doc))

    def test_row_length_error_names_the_atom(self, tmp_path):
        doc = {
            "d": 2,
            "atoms": [
                {"matrix": [[0.5, 0.0], [0.0, 0.5]]},
                {"matrix": [[0.5, 0.0], [0.0]]},
            ],
        }
        with pytest.raises(InvalidInputError, match="atom 1"):
            cli.parse_input(write_doc(tmp_path, doc))

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"atoms": [{"matrix": [[0.5]]}]},
            {"d": 0, "atoms": [{"matrix": []}]},
            {"d": True, "atoms": [{"matrix": [[0.5]]}]},
            {"d": 1, "atoms": []},
            {"d": 1, "atoms": [{"matrix": [["x"]]}]},
            {"d": 1, "atoms": [{"weight": "heavy", "matrix": [[0.5]]}]},
        ],
    )
    def test_rejects_malformed_documents(self, tmp_path, doc):
        with pytest.raises(InvalidInputError):
            cli.parse_input(write_doc(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError, match="cannot read"):
            cli.parse_input(str(tmp_path / "nope.json"))


class TestPressureCommand:
    # DIAG_PAIR and the nilpotent atom are triangular: the library answers
    # them in closed form, except where a test turns that route off.
    def test_json_report_matches_library_bitwise(self, tmp_path, capsys):
        path = write_doc(tmp_path, DIAG_PAIR_DOC)
        code = cli.main(["pressure", path, "--s", "1", "--eps", "0.75",
                         "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        br = pressure.bracket(
            cli.parse_input(path), 1.0, 0.75, budget=cli_default_budget()
        )
        assert code == 0
        assert data["status"] == br.status == "certified"
        assert data["bracket"]["lower"] == br.lower
        assert data["bracket"]["upper"] == br.upper
        assert data["n_used"] == br.n_used
        assert data["words_evaluated"] == br.words_evaluated
        assert data["provenance"] == br.provenance == "triangular"
        assert data["input"]["d"] == 2
        assert data["input"]["budget"]["max_word_length"] == 64

    def test_minus_infinity_exits_zero(self, tmp_path, capsys):
        path = write_doc(tmp_path, NILPOTENT_DOC)
        code = cli.main(["pressure", path, "--s", "1", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["status"] == "minus_infinity"
        assert data["bracket"]["lower"] == "-inf"
        assert data["bracket"]["upper"] == "-inf"

    def test_budget_exhaustion_exits_two_with_report(self, tmp_path, capsys, enumeration_only):
        path = write_doc(tmp_path, DIAG_PAIR_DOC)
        code = cli.main(["pressure", path, "--s", "1", "--max-n", "3",
                         "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert enumeration_only["weighted_sums"] > 0
        assert code == 2
        assert data["status"] == "budget_exhausted"
        assert data["bracket"]["lower"] < data["bracket"]["upper"]
        assert data["input"]["budget"]["max_word_length"] == 3

    def test_text_format(self, tmp_path, capsys):
        path = write_doc(tmp_path, DIAG_PAIR_DOC)
        code = cli.main(["pressure", path, "--s", "1", "--eps", "0.75"])
        out = capsys.readouterr().out
        assert code == 0
        assert "command: pressure" in out
        assert "bracket: [" in out
        assert "status: certified" in out
        assert "provenance: triangular" in out


class TestPradiusCommand:
    def test_matches_library_and_contains_value(self, tmp_path, capsys):
        # a triangular family: CLI and library agree on the closed form
        # two atoms 0.3*I, p = 1: the radius is (1/2) * 2 * 0.3 = 0.3
        path = write_doc(tmp_path, TENTH_SCALE_DOC)
        code = cli.main(["pradius", path, "--p", "1", "--eps", "0.75",
                         "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        br = pressure.p_radius_bracket(
            cli.parse_input(path), 1.0, 0.75, budget=cli_default_budget()
        )
        assert code == 0
        assert data["status"] == br.status == "certified"
        assert data["bracket"]["lower"] == br.lower
        assert data["bracket"]["upper"] == br.upper
        assert data["bracket"]["lower"] - 1e-9 <= 0.3 <= data["bracket"]["upper"] + 1e-9

    def test_weighted_input_rejected(self, tmp_path, capsys):
        doc = {
            "d": 2,
            "atoms": [{"weight": 2.0, "matrix": [[0.3, 0.0], [0.0, 0.3]]}],
        }
        code = cli.main(["pradius", write_doc(tmp_path, doc), "--p", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")


class TestSvpressureCommand:
    def test_planar_route_matches_library(self, tmp_path, capsys, enumeration_only):
        doc = {"d": 2, "atoms": [{"weight": 1.0, "matrix": [[0.4, 0.0], [0.0, 0.4]]}]}
        path = write_doc(tmp_path, doc)
        code = cli.main(["svpressure", path, "--s", "3/2", "--eps", "0.5",
                         "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        br = svpressure.bracket(
            cli.parse_input(path), Fraction(3, 2), 0.5,
            budget=cli_default_budget(),
        )
        assert enumeration_only["weighted_sums"] > 0
        assert code == 0
        assert data["parameters"]["s"] == "3/2"
        assert data["provenance"] == br.provenance == "planar-sv-bound"
        assert data["status"] == br.status == "certified"
        assert data["bracket"]["lower"] == br.lower
        assert data["bracket"]["upper"] == br.upper
        target = 1.5 * math.log(0.4)
        assert data["bracket"]["lower"] - 1e-9 <= target <= data["bracket"]["upper"] + 1e-9

    def test_lift_above_the_dimension_cap_takes_the_irrational_route(
            self, tmp_path, capsys, enumeration_only):
        # a diagonal atom is answered in closed form, so enumeration_only; 5/2
        # lifts to C(6,2) C(6,3) = 300 > 256, so it has no lift row of its own
        eye6 = [[0.5 if i == j else 0.0 for j in range(6)] for i in range(6)]
        doc = {"d": 6, "atoms": [{"weight": 1.0, "matrix": eye6}]}
        code = cli.main(["svpressure", write_doc(tmp_path, doc), "--s", "2+1/2",
                         "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert enumeration_only["weighted_sums"] > 0
        assert code in (0, 2)
        assert data["provenance"] == "lift-sv-bound"
        target = 2.5 * math.log(0.5)
        assert data["bracket"]["lower"] - 1e-9 <= target <= data["bracket"]["upper"] + 1e-9


class TestAffdimCommand:
    def test_text_report_certifies(self, tmp_path, capsys):
        # MORAN3 is triangular: this reports the closed form's interval
        path = write_doc(tmp_path, MORAN3_DOC)
        code = cli.main(["affdim", path, "--eps", "1.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "command: affdim" in out
        assert "bracket: [" in out
        assert "status: certified" in out

    def test_determinant_branch_json(self, tmp_path, capsys):
        path = write_doc(tmp_path, DET4_DOC)
        code = cli.main(["affdim", path, "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["provenance"] == "determinant"
        assert data["status"] == "certified"
        # 4 * 0.64^(t/2) = 1; the bisection stops well inside the default eps
        root = 2.0 * math.log(4.0) / math.log(1.0 / 0.64)
        assert data["bracket"]["lower"] - 1e-9 <= root <= data["bracket"]["upper"] + 1e-9
        assert data["bracket"]["upper"] - data["bracket"]["lower"] <= 1e-9


class TestJsrCommand:
    def test_exact_bracket_default_eps(self, tmp_path, capsys):
        # DIAG_PAIR is triangular: the radius is exactly its largest diagonal entry
        path = write_doc(tmp_path, DIAG_PAIR_DOC)
        code = cli.main(["jsr", path, "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["bracket"]["lower"] == 0.5
        assert data["bracket"]["upper"] == 0.5
        assert data["status"] == "certified"
        assert data["provenance"] == "triangular"

    def test_radius_past_the_float_range_exits_with_budget_status(self, tmp_path, capsys):
        # a radius of 2e308 is reported as [largest float, inf], not a traceback
        doc = {"d": 2, "atoms": [{"weight": 1.0, "matrix": [[1e308, 1e308], [1e308, 1e308]]}]}
        code = cli.main(["jsr", write_doc(tmp_path, doc), "--format", "json"])
        out = capsys.readouterr()
        data = json.loads(out.out)
        assert code == 2 and out.err == ""
        assert data["status"] == "budget_exhausted"
        assert data["bracket"] == {"lower": sys.float_info.max, "upper": "inf"}

    def test_no_spectral_floor_flag(self, tmp_path, capsys, enumeration_only):
        path = write_doc(tmp_path, DIAG_PAIR_DOC)
        code = cli.main(["jsr", path, "--no-spectral-floor", "--eps", "0.2",
                         "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        br = jsr.jsr_bracket(
            cli.parse_input(path), eps=0.2, budget=cli_default_budget(),
            use_spectral_floor=False,
        )
        assert enumeration_only["max_norm_word"] > 0
        assert code == 0
        assert data["provenance"] == br.provenance == "bochi-lower-bound"
        assert data["bracket"]["lower"] == br.lower < 0.5
        assert data["bracket"]["upper"] == br.upper


class TestScanCommand:
    def test_csv_shape_and_values(self, tmp_path, capsys):
        # a scalar atom is triangular: the rows are the closed form's
        path = write_doc(tmp_path, SCALAR_HALF_DOC)
        code = cli.main(["scan", path, "--s", "1,2,4"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "s,m_lower,m_upper,radius_lower,radius_upper,status"
        footers = [ln for ln in lines[1:] if ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        assert footers[0] == "# command: scan"
        assert sum(ln.startswith("# jsr bracket: [") for ln in footers) == 1
        assert [float(r[0]) for r in rows] == [1.0, 2.0, 4.0]
        for row in rows:
            assert row[5] == "certified"
            assert float(row[1]) <= float(row[2])  # m_lower <= m_upper
            assert float(row[4]) == pytest.approx(0.5, rel=1e-12)
            assert float(row[3]) <= float(row[4]) + 1e-12
        assert code == 0

    def test_json_points_and_exhaustion_exit(self, tmp_path, capsys, enumeration_only):
        path = write_doc(tmp_path, SCALAR_HALF_DOC)
        code = cli.main(["scan", path, "--s", "8", "--max-n", "4",
                         "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert enumeration_only["weighted_sums"] > 0
        assert code == 2
        (point,) = data["points"]
        assert point["s"] == 8.0
        assert point["status"] == "budget_exhausted"
        assert point["bracket"]["lower"] <= point["bracket"]["upper"]
        assert data["status"] == "certified"  # the JSR's


class TestMainErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main(["pressure", str(tmp_path / "absent.json"), "--s", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["pressure", str(path), "--s", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "line 1" in captured.err

    def test_bad_exponent(self, tmp_path, capsys):
        path = write_doc(tmp_path, DIAG_PAIR_DOC)
        code = cli.main(["pressure", path, "--s", "two"])
        captured = capsys.readouterr()
        assert code == 1
        assert "exponent" in captured.err

    @pytest.mark.parametrize("command", ["pressure", "svpressure"])
    def test_nan_exponent_is_reported_as_not_finite(self, tmp_path, capsys, command):
        code = cli.main([command, write_doc(tmp_path, DIAG_PAIR_DOC), "--s", "nan"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: exponent s must be positive and finite, got nan\n"
        assert captured.out == ""

    @pytest.mark.parametrize("grid", ["nan", "1,nan"])
    def test_nan_scan_exponent_is_reported_as_not_finite(self, tmp_path, capsys, grid):
        code = cli.main(["scan", write_doc(tmp_path, DIAG_PAIR_DOC), "--s", grid])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: scan exponents must be positive and finite\n"
        assert captured.out == ""

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("command, extra", [
        ("pressure", ["--s", "1"]), ("pradius", ["--p", "2"]), ("svpressure", ["--s", "1.5"]),
        ("affdim", []), ("jsr", []), ("scan", ["--s", "1,2"]),
    ])
    def test_bad_workers_exit_one(self, tmp_path, capsys, command, extra, workers):
        path = write_doc(tmp_path, DIAG_PAIR_DOC)
        code = cli.main([command, path, *extra, "--workers", workers])
        captured = capsys.readouterr()
        assert code == 1
        assert "workers" in captured.err
        assert captured.out == ""

    def test_workers_default_to_automatic(self, tmp_path):
        path = write_doc(tmp_path, DIAG_PAIR_DOC)
        assert cli.build_parser().parse_args(["pressure", path, "--s", "1"]).workers is None


COMMANDS = [("pressure", ["--s", "1"]), ("pradius", ["--p", "2"]),
            ("svpressure", ["--s", "3/2"]), ("affdim", []), ("jsr", ["--eps", "0.1"]),
            ("scan", ["--s", "1,2"])]


class TestOnePrinter:
    """Every command prints its record through one JSON and one text printer."""

    KEYS = {"command", "input", "parameters", "bracket", "status", "n_used", "steps",
            "history", "words_evaluated", "wall_time", "provenance", "points"}

    def test_json_reports_share_one_key_set(self, tmp_path, capsys):
        path = write_doc(tmp_path, DIAG_PAIR_DOC)
        for command, extra in COMMANDS:
            cli.main([command, path, *extra, "--format", "json"])
            data = json.loads(capsys.readouterr().out)
            assert set(data) == self.KEYS, command
            assert set(data["bracket"]) == {"lower", "upper"}
            for point in data["points"]:
                assert set(point) == self.KEYS - {"command", "input", "parameters", "points"} | {"s"}
            assert (command == "scan") == bool(data["points"])

    def test_text_reports_print_bracket_status_and_provenance(self, tmp_path, capsys):
        path = write_doc(tmp_path, DIAG_PAIR_DOC)
        for command, extra in COMMANDS:
            cli.main([command, path, *extra])
            out = capsys.readouterr().out
            lines = [ln.removeprefix("# ") for ln in out.splitlines()]
            assert f"command: {command}" in lines
            for head in ("bracket: [", "status: ", "provenance: "):
                assert sum(head in ln.split("  ")[0] for ln in lines) == 1, (command, head)
