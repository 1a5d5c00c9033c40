"""Command-line interface: subcommands, exit codes, config merging."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from hyptiling.cli import main


def run(argv):
    """Invoke the CLI in-process, capturing stdout."""
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert out, f"no stdout (exit {code}, stderr: {err})"
    return code, json.loads(out)


def num(entry):
    """Collapse an exact JSON scalar back to a Fraction-like pair."""
    return (int(entry["num"]), int(entry["den"]))


class TestGen:
    def test_toeplitz_window(self):
        code, payload = run_json(
            ["gen", "--model", "toeplitz", "--r", "2", "--from", "0", "--to", "9"]
        )
        assert code == 0
        assert payload["letters"] == [1, 2, 1, 1, 1, 1, 1, 2, 1]

    def test_substitution_window(self):
        code, payload = run_json(
            ["gen", "--model", "substitution", "--from", "-3", "--to", "3"]
        )
        assert code == 0
        assert payload["letters"] == [1, 2, 2, 1, 1, 2]

    def test_out_file(self, tmp_path):
        out = tmp_path / "win.json"
        code, stdout, _ = run(
            ["gen", "--model", "toeplitz", "--from", "0", "--to", "3",
             "--out", str(out)]
        )
        assert code == 0 and stdout == ""
        assert json.loads(out.read_text())["letters"] == [1, 2, 1]

    def test_depth_cap_exit(self):
        code, _, err = run(
            ["gen", "--model", "toeplitz", "--max-depth", "1",
             "--from", "0", "--to", "3"]
        )
        assert code == 4
        assert "error" in err

    def test_missing_model_is_usage(self):
        code, _, _ = run(["gen", "--from", "0", "--to", "3"])
        assert code == 2

    @pytest.mark.parametrize("stop", ["1000001", "1000000000"])
    def test_window_cap_exit(self, stop):
        code, out, err = run(
            ["gen", "--model", "substitution", "--from", "0", "--to", stop]
        )
        assert code == 5
        assert out == "" and "cap" in err


class TestAtlas:
    def test_level_words_as_digit_strings(self):
        code, payload = run_json(
            ["atlas", "--model", "toeplitz", "--r", "2", "--level", "2"]
        )
        assert code == 0
        assert payload["length"] == 9
        assert payload["words"] == {"1": "121111121", "2": "121121121"}

    def test_single_letter(self):
        code, payload = run_json(
            ["atlas", "--model", "substitution", "--level", "1",
             "--letter", "2"]
        )
        assert code == 0
        assert payload["words"] == {"2": "122"}

    def test_materialization_budget_exit(self):
        code, _, _ = run(
            ["atlas", "--model", "toeplitz", "--level", "5",
             "--max-letters", "1000"]
        )
        assert code == 5


class TestMatrices:
    def test_single_level(self):
        code, payload = run_json(
            ["matrices", "--model", "toeplitz", "--r", "2", "--level", "1"]
        )
        assert code == 0
        entries = payload["schemes"]["triangle"]["matrix"]["entries"]
        assert [[num(e) for e in row] for row in entries] == [
            [(1, 1), (0, 1)], [(2, 1), (3, 1)],
        ]
        assert payload["schemes"]["triangle"]["mass_residuals"]["conserved"]

    def test_both_schemes(self):
        code, payload = run_json(
            ["matrices", "--model", "substitution", "--scheme", "both",
             "--level", "1"]
        )
        assert code == 0
        paper = payload["schemes"]["paper"]["matrix"]["entries"]
        assert num(paper[0][0]) == (5, 4)
        assert num(paper[1][0]) == (1, 16)
        residual = payload["schemes"]["paper"]["mass_residuals"]["residuals"][0]
        assert num(residual) == (81, 16)

    def test_composition_range(self):
        code, payload = run_json(
            ["matrices", "--model", "toeplitz", "--r", "2",
             "--from", "1", "--to", "3"]
        )
        assert code == 0
        entries = payload["schemes"]["triangle"]["matrix"]["entries"]
        assert [[num(e) for e in row] for row in entries] == [
            [(9, 1), (2, 1)], [(18, 1), (25, 1)],
        ]

    def test_paper_product_under_default_digit_limit(self):
        """Entries of 160k decimal digits are written without raising
        Python's int-to-str digit limit."""
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONINTMAXSTRDIGITS"}
        proc = subprocess.run(
            [sys.executable, "-m", "hyptiling", "matrices", "--model",
             "substitution", "--scheme", "paper", "--from", "1", "--to", "12"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        entries = json.loads(proc.stdout)["schemes"]["paper"]["matrix"]["entries"]
        digest = hashlib.sha256()
        for row in entries:
            for e in row:
                digest.update(f"{e['num']}/{e['den']};".encode())
        # Recorded from the reduced Fraction entries of the same product.
        assert digest.hexdigest() == (
            "34e0919a20255e97595b8c0b835d707abd3e3b731324390feeaa18f938d7218d"
        )

    def test_level_and_range_conflict(self):
        code, _, err = run(
            ["matrices", "--model", "toeplitz", "--level", "1",
             "--from", "1", "--to", "3"]
        )
        assert code == 2 and "usage" in err
        code2, _, _ = run(["matrices", "--model", "toeplitz"])
        assert code2 == 2

    @pytest.mark.parametrize("bound", ["--from", "--to"])
    def test_level_with_one_range_end(self, bound):
        code, out, err = run(
            ["matrices", "--model", "toeplitz", "--level", "1", bound, "3"]
        )
        assert code == 2 and out == "" and "usage" in err

    def test_paper_scheme_needs_substitution(self):
        code, _, _ = run(
            ["matrices", "--model", "toeplitz", "--scheme", "paper",
             "--level", "1"]
        )
        assert code == 3


class TestMeasures:
    def test_substitution_is_uniquely_ergodic(self):
        code, payload = run_json(["measures", "--model", "substitution"])
        assert code == 0
        assert payload["ergodic_count"] == 1
        assert payload["status"] == "stabilized"

    def test_toeplitz_counts_colors(self):
        code, payload = run_json(
            ["measures", "--model", "toeplitz", "--r", "3"]
        )
        assert code == 0
        assert payload["ergodic_count"] == 3

    def test_shallow_depth_is_inconclusive(self):
        code, payload = run_json(
            ["measures", "--model", "toeplitz", "--r", "3", "--depth", "5"]
        )
        assert code == 6
        assert payload["status"] == "inconclusive"
        assert payload["ergodic_count"] == 3  # raw count, not certified


class TestCertify:
    def test_substitution_certificate(self):
        code, payload = run_json(
            ["certify", "--model", "substitution", "--from", "1", "--to", "4"]
        )
        assert code == 0
        assert payload["verdict"] == "uniformly contracting"
        assert len(payload["levels"]) == 3

    def test_empty_range_is_usage_error(self):
        code, _, _ = run(
            ["certify", "--model", "substitution", "--from", "3", "--to", "3"]
        )
        assert code == 2


class TestFrequencies:
    def test_json_output(self):
        code, payload = run_json(
            ["frequencies", "--model", "substitution", "--level", "2"]
        )
        assert code == 0
        assert [num(f) for f in payload["frequencies"]] == [(5, 9), (4, 9)]

    def test_second_measure(self):
        code, payload = run_json(
            ["frequencies", "--model", "toeplitz", "--r", "2",
             "--measure", "1", "--level", "2"]
        )
        assert code == 0
        assert [num(f) for f in payload["frequencies"]] == [(2, 3), (1, 3)]

    def test_csv_output(self):
        code, out, _ = run(
            ["frequencies", "--model", "substitution", "--level", "2",
             "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "letter,numerator,denominator,value"
        assert lines[1].startswith("1,5,9,")
        assert lines[2].startswith("2,4,9,")

    def test_level_deeper_than_the_recursion_limit(self):
        code, payload = run_json(
            ["frequencies", "--model", "substitution", "--level", "1500"]
        )
        assert code == 0
        assert sum(Fraction(*num(f)) for f in payload["frequencies"]) == 1

    def test_inconclusive_exit(self):
        code, payload = run_json(
            ["frequencies", "--model", "toeplitz", "--r", "3",
             "--level", "2", "--depth", "5"]
        )
        assert code == 6
        assert payload["status"] == "inconclusive"

    def test_bad_measure_index(self):
        code, _, _ = run(
            ["frequencies", "--model", "substitution", "--level", "2",
             "--measure", "5"]
        )
        assert code == 3


class TestDiffuse:
    def test_small_run(self):
        code, payload = run_json(
            ["diffuse", "--model", "substitution", "--dt", "0.01",
             "--horizon", "2", "--paths", "31", "--seed", "3"]
        )
        assert code == 0
        assert payload["config"]["steps_per_path"] == 200
        assert payload["height"]["paths"] == 31
        assert payload["occupancy"]["unique_measure"] is True
        assert len(payload["occupancy"]["labels"]) == 2

    def test_few_paths_note_instead_of_stats(self):
        code, payload = run_json(
            ["diffuse", "--model", "substitution", "--dt", "0.01",
             "--horizon", "1", "--paths", "5"]
        )
        assert code == 0
        assert "note" in payload["height"]

    def test_trace_csv(self, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run(
            ["diffuse", "--model", "substitution", "--dt", "0.01",
             "--horizon", "1", "--paths", "2", "--mode", "full",
             "--stride", "20", "--trace-csv", str(trace)]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "path,step,u,row"
        assert len(lines) > 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"

    def test_trace_cap_exits_before_any_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr("hyptiling.diffusion.simulate_path",
                            lambda *args: calls.append(args))
        code, stdout, err = run(["diffuse", "--model", "substitution",
                                 "--stride", "1"])
        assert code == 5
        assert stdout == "" and "trace points exceeds" in err
        assert calls == []

    def test_all_partial_paths_exit(self):
        code, _, err = run(
            ["diffuse", "--model", "toeplitz", "--max-depth", "1",
             "--dt", "0.01", "--horizon", "5", "--paths", "3"]
        )
        assert code == 4
        assert "uncolorable" in err

    def test_zero_horizon_exit(self):
        code, stdout, err = run(["diffuse", "--model", "substitution",
                                 "--paths", "31", "--horizon", "0", "--seed", "2"])
        assert code == 3
        assert stdout == "" and "no complete path took a step" in err


class TestRender:
    def test_basic_window(self, tmp_path):
        out = tmp_path / "tiles.svg"
        code, stdout, _ = run(
            ["render", "--model", "substitution", "--rows", "0", "2",
             "--x", "0", "4", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(stdout) == {"tiles": 7, "out": str(out)}
        assert out.read_text().startswith("<?xml")

    def test_overlays_accumulate(self, tmp_path):
        out = tmp_path / "ov.svg"
        code, _, _ = run(
            ["render", "--model", "substitution", "--rows", "0", "2",
             "--x", "0", "4", "--overlay", "1", "--overlay", "2",
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().count("<rect") == 13  # 12 overlays + frame

    def test_model_is_optional(self, tmp_path):
        out = tmp_path / "plain.svg"
        code, stdout, _ = run(
            ["render", "--rows", "0", "0", "--x", "0", "2", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(stdout)["tiles"] == 2

    def test_missing_required_flag(self, tmp_path):
        code, _, _ = run(
            ["render", "--rows", "0", "2", "--x", "0", "4"]
        )
        assert code == 2

    def test_huge_window_exit(self, tmp_path):
        code, _, _ = run(
            ["render", "--rows", "0", "0", "--x", "0", "1000000",
             "--out", str(tmp_path / "x.svg")]
        )
        assert code == 5

    @pytest.mark.parametrize("width", ["0", "-5", "inf", "nan"])
    def test_bad_width_exit(self, tmp_path, width):
        out = tmp_path / "x.svg"
        code, stdout, err = run(
            ["render", "--rows", "0", "2", "--x", "0", "4", "--width", width,
             "--out", str(out)]
        )
        assert code == 3
        assert stdout == "" and "width" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--x", "0", "inf"], ["--x", "0", "1", "--tol", "nan"],
    ])
    def test_bad_window_or_tolerance_exit(self, tmp_path, flags):
        out = tmp_path / "y.svg"
        code, stdout, err = run(
            ["render", "--rows", "0", "0", *flags, "--out", str(out)]
        )
        assert code == 3
        assert stdout == "" and err
        assert not out.exists()

    def test_infinite_tolerance_is_valid(self, tmp_path):
        out = tmp_path / "y.svg"
        code, stdout, _ = run(
            ["render", "--rows", "0", "0", "--x", "0", "1", "--tol", "inf",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(stdout)["tiles"] == 1

    def test_infinite_height_clip_exit(self, tmp_path):
        out = tmp_path / "y.svg"
        code, stdout, err = run(
            ["render", "--rows", "0", "0", "--x", "0", "1", "--y-clip", "1",
             "inf", "--out", str(out)]
        )
        assert code == 3
        assert stdout == "" and "clip" in err
        assert not out.exists()

    def test_outline_point_cap_exit(self, tmp_path):
        out = tmp_path / "y.svg"
        code, stdout, err = run(
            ["render", "--rows", "0", "0", "--x", "0", "1e-300", "--out",
             str(out)]
        )
        assert code == 5
        assert stdout == "" and "outline" in err
        assert not out.exists()

    def test_overlay_box_cap_exit(self, tmp_path):
        out = tmp_path / "x.svg"
        code, stdout, err = run(
            ["render", "--rows", "-16", "0", "--x", "0", "1", "--y-clip",
             "1", "2", "--overlay", "1", "--out", str(out)]
        )
        assert code == 5
        assert stdout == "" and "boxes" in err
        assert not out.exists()


class TestVerify:
    def test_quick_json(self):
        code, payload = run_json(["verify", "--json"])
        assert code == 0
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 7
        names = {c["name"] for c in payload["checks"]}
        assert len(names) == 7 and "mode-agreement" in names

    def test_text_lines(self):
        code, out, _ = run(["verify"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all(line.startswith("[PASS]") for line in lines)


class TestDispatch:
    def test_no_subcommand(self):
        assert run([])[0] == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == 2

    def test_unknown_flag(self):
        assert run(["gen", "--model", "toeplitz", "--banana", "1"])[0] == 2

    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hyptiling",
             "gen", "--model", "toeplitz", "--r", "2", "--from", "0", "--to", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["letters"] == [1, 2, 1]


class TestConfigFiles:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("model = toeplitz\nr = 3\nfrom = 0\nto = 3\n")
        code, payload = run_json(["gen", "--config", str(cfg)])
        assert code == 0
        assert payload["letters"] == [1, 2, 1]
        assert payload["from"] == 0

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("model = toeplitz\nr = 3\nfrom = 0\nto = 9\n")
        code, payload = run_json(
            ["gen", "--config", str(cfg), "--to", "3", "--r", "2"]
        )
        assert code == 0
        assert payload["letters"] == [1, 2, 1]
        assert payload["to"] == 3

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("# window\nmodel = substitution\n\nfrom = 0\nto = 1\n")
        code, payload = run_json(["gen", "--config", str(cfg)])
        assert code == 0 and payload["letters"] == [1]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = toeplitz\nbanana = 7\nfrom = 0\nto = 1\n")
        code, _, err = run(["gen", "--config", str(cfg)])
        assert code == 2 and "banana" in err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model toeplitz\n")
        assert run(["gen", "--config", str(cfg)])[0] == 2

    def test_missing_file_rejected(self, tmp_path):
        assert run(["gen", "--config", str(tmp_path / "absent.cfg")])[0] == 2

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = toeplitz\nfrom = zero\nto = 1\n")
        assert run(["gen", "--config", str(cfg)])[0] == 2

    def test_nargs_pairs_from_config(self, tmp_path):
        cfg = tmp_path / "render.cfg"
        out = tmp_path / "cfg.svg"
        cfg.write_text(
            f"model = substitution\nrows = 0,2\nx = 0,4\n"
            f"overlay = 1,2\nout = {out}\n"
        )
        code, stdout, _ = run(["render", "--config", str(cfg)])
        assert code == 0
        assert json.loads(stdout)["tiles"] == 7
        assert out.read_text().count("<rect") == 13

    def test_boolean_values_for_flags(self, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("json = yes\n")
        code, payload = run_json(["verify", "--config", str(cfg)])
        assert code == 0
        assert payload["all_passed"] is True
