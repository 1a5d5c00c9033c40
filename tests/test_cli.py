"""Command-line interface: subcommands, exit codes, config merging."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from hyptiling import (TRIANGLE, BudgetError, ToeplitzModel,
                       ergodic_measure_count, measure_frequencies)
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


def big_int(text):
    """int() of a decimal string longer than Python's default digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


def assert_short_error(out, err):
    """Nothing on stdout and one short line on stderr."""
    assert out == "" and err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 200 and "cap" in err


EMPTY = hashlib.sha256(b"").hexdigest()  # the stdout of a usage error
NINES = "9" * 4300  # the longest int Python's default digit limit parses


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

    def test_window_cap_past_the_digit_limit(self):
        code, out, err = run(["gen", "--model", "substitution",
                              "--from", "-" + NINES, "--to", NINES])
        assert code == 5
        assert_short_error(out, err)


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

    def test_max_letters_cannot_raise_the_cap(self):
        tracemalloc.start()
        try:
            code, out, err = run(
                ["atlas", "--model", "substitution", "--level", "30",
                 "--max-letters", str(10**15)]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 5
        assert out == "" and "cap" in err
        assert peak < 10**5

    def test_max_letters_at_the_cap(self):
        code, payload = run_json(
            ["atlas", "--model", "substitution", "--level", "1",
             "--max-letters", "1000000"]
        )
        assert code == 0
        assert payload["words"] == {"1": "112", "2": "122"}

    def test_materialization_cap_past_the_digit_limit(self):
        code, out, err = run(["atlas", "--model", "substitution",
                              "--level", "10000", "--letter", "1"])
        assert code == 5
        assert_short_error(out, err)

    def test_all_words_cap_exits_before_any_word(self, monkeypatch):
        calls = []
        monkeypatch.setattr("hyptiling.symbolic._expand",
                            lambda *args: calls.append(args))
        code, out, err = run(["atlas", "--model", "toeplitz", "--r", "1000000",
                              "--level", "1"])
        assert code == 5
        assert_short_error(out, err)
        assert "3000000 letters" in err and calls == []

    @pytest.mark.parametrize("flags", [["--letter", "1"], []],
                             ids=["one-word", "all-words"])
    def test_deep_toeplitz_level_exits_before_any_length(self, monkeypatch,
                                                         flags):
        """A level whose length has millions of digits is refused from q
        alone, by the level-size rule that `frequencies` and `matrices`
        read: p_q = 3**(1 + q(q-1)/2) has more than 10^6 bits."""
        def no_length(*args):
            raise AssertionError("a level length was built")

        monkeypatch.setattr("hyptiling.ToeplitzModel.level_length", no_length)
        code, out, err = run(["atlas", "--model", "toeplitz", "--max-depth",
                              "100000", "--level", "6000", *flags])
        assert code == 5
        assert_short_error(out, err)
        assert err == ("error: level-6000 word length is over the 1000000-bit "
                       "cap\n")

    def test_deep_toeplitz_level_past_max_depth_is_a_cap_error(self,
                                                                monkeypatch):
        monkeypatch.setattr("hyptiling.ToeplitzModel.level_length",
                            lambda *args: 1 / 0)
        code, out, err = run(["atlas", "--model", "toeplitz", "--max-depth",
                              "1000", "--level", "6000", "--letter", "1"])
        assert (code, out) == (4, "")
        assert err == "error: period index 6000 exceeds max_depth 1000\n"

    def test_one_letter_memory_does_not_grow_with_r(self):
        argv = ["atlas", "--model", "toeplitz", "--r", "100000", "--level", "1",
                "--letter", "1"]
        tracemalloc.start()
        try:
            code, out, _ = run(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["words"] == {"1": "1,1,1"}
        assert peak < 10**6


class TestFrozenOutput:
    """Stdout of commands, byte for byte, as SHA-256 digests: large `atlas`
    and `gen` runs recorded from the per-level tuple expansion, and a table
    of every subcommand."""

    @pytest.mark.parametrize("argv, digest", [
        (["atlas", "--model", "substitution", "--level", "12"],
         "cded58a05c85d5c2c6c7f6ab2b23376640c3c46989e24f4f2f93aca8bd5c3619"),
        (["atlas", "--model", "toeplitz", "--r", "3", "--level", "4"],
         "15ebc761618a9df865c60fe8fc81cfea933f119b4f9e51e1c4e279e62029c21c"),
        (["gen", "--model", "substitution", "--from", "-50000", "--to", "50000"],
         "7fbf878e4eb34fdb07f00b91881e01cfed732ef16449bc6953a1a00f8d94caec"),
    ])
    def test_stdout_digest(self, argv, digest):
        code, out, _ = run(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    #: SHA-256 of stdout and the exit code of the commands one pass of the
    #: `cli` benchmark workload runs (bench/wl_cli.py, at seed 7717), of text
    #: `verify`, and of `--help` for the program and each subcommand.
    COMMANDS = [
        (["gen", "--model", "substitution", "--from", "0", "--to", "10"], 0,
         "fa58223016bcd8da897282f2fcfdae2ba428be464e3dc628b9ebf3ee373001fb"),
        (["gen", "--model", "substitution", "--from", "-59109", "--to",
          "40891"], 0,
         "6fedf3216d9084e9fcf0e7d88efac35e800cfbfc5ba5b948ec702bbdc99042d2"),
        (["atlas", "--model", "substitution", "--level", "12"], 0,
         "cded58a05c85d5c2c6c7f6ab2b23376640c3c46989e24f4f2f93aca8bd5c3619"),
        (["matrices", "--model", "substitution", "--level", "1", "--scheme",
          "both"], 0,
         "27751732314272c450b7c032cf6b761fac36b8a4dbc285c03e9dc5763d378aad"),
        (["matrices", "--model", "substitution", "--scheme", "paper", "--from",
          "1", "--to", "12"], 0,
         "e4b1476542b95fa6c888d49e675d7746783b26eef0f8db63f759a7fa1e0c4b5f"),
        (["measures", "--model", "toeplitz", "--r", "8"], 0,
         "2498b277c21a4d82a32df76fff940b99f50b31fde9c9becf372a85a26808171b"),
        (["certify", "--model", "substitution", "--scheme", "paper", "--from",
          "1", "--to", "10"], 0,
         "151751fd6a8e2c9df3b3222401a4a223a9eb506592ff467955daf22ce5e38ceb"),
        (["frequencies", "--model", "substitution", "--level", "10",
          "--format", "csv"], 0,
         "962861d2f76491f248d6f4db8302e2c68ee6293ca4eb9192c29ca667db904c33"),
        (["diffuse", "--model", "substitution", "--paths", "30", "--horizon",
          "10", "--seed", "7717"], 0,
         "1438e477d18be082e01e7cada1a97f2fa09d3aa0856bd714a53a790a57d849bd"),
        (["diffuse", "--model", "substitution", "--paths", "2", "--horizon",
          "10", "--mode", "full", "--seed", "7717"], 0,
         "3f0c08b4597d750c3dcc46343ac9df92b7d8965ffb532fda6d65a97f4e26b145"),
        (["render", "--model", "substitution", "--rows", "-10", "3", "--x",
          "-8", "16", "--out", "render.svg"], 0,
         "f05201d8f08643ede585df05bdc846a3b11d38274a7ec3179656782b2f2bc203"),
        (["verify", "--json"], 0,
         "93a43cf16debc7d7adfba6d4b8bc0ac4f963c8e8d1878b52d01a9af9b75f8fd8"),
        (["verify"], 0,
         "871c3f261e4caf5d38de11e17e2ff8be209d1c78c76b3429364cc6bbe372e263"),
        (["--help"], 0,
         "e76f79fb503600b8a2f796349962b35d2b44e326668ae39ac328242efa40fcbe"),
        (["gen", "--help"], 0,
         "68dcca295f0f53a85647705e8e92da0ff640d8faa7d2e12cf30e93e33c064edd"),
        (["atlas", "--help"], 0,
         "b7f979692fe7a5afa8a24589042d5df4d9b5379760986d5add273bd4e4a9d596"),
        (["matrices", "--help"], 0,
         "89744d66cd6f5f9f526b95a6455985f3686fe186b50d56170d3e752b31c2baab"),
        (["measures", "--help"], 0,
         "c5514b6acda0625b55fb2b6a3408ad8e22be639be94eeb1a1573b288bbb1ffa3"),
        (["certify", "--help"], 0,
         "03005e1e41967de48cd5087bbf0ad8653b034e9367fb5b526985f930b38ee72d"),
        (["frequencies", "--help"], 0,
         "40f26a8ee380549df4b5619ce7e48eeaf3eeaf1c3464e44b473db83d2d291eee"),
        (["diffuse", "--help"], 0,
         "fa5ca8136c3ba592342b88568eaca22176ac6a3e20634c03b9bd65dc9a9c42e4"),
        (["render", "--help"], 0,
         "734eb3c7f356b5a9c37bcbc27f1c665c14c55287e64acbae447f535025252e77"),
        (["verify", "--help"], 0,
         "0cc9505e16419ea0f085dc816d8d13b81ec53fedda3a840e6462357b3ce3edd0"),
    ]
    RENDER_SVG = (
        "a327715c4fda63b524f34bf3c437b605feb94018cd6cbd861c8249b6e2a36999")

    #: The same for Toeplitz and capped runs, one-letter atlas words of a
    #: large alphabet, a second measure, a two-overlay render and two usage
    #: errors.
    MORE_COMMANDS = [
        (["diffuse", "--model", "toeplitz", "--r", "2", "--paths", "20",
          "--horizon", "10", "--seed", "7717"], 0,
         "418876c105b5f6f1ff9a10e1a19d7cd5b24afce93f1c12b59a51c8aec6559d13"),
        (["diffuse", "--model", "toeplitz", "--r", "3", "--max-depth", "3",
          "--paths", "3", "--horizon", "5"], 0,
         "c27e57b662002cd62789d3d1716e7cb5de7028d938ee42547674b57089625a4d"),
        (["atlas", "--model", "toeplitz", "--r", "3", "--level", "3"], 0,
         "cdfaf0ba1649da1dbf3bbc04b4238e9339d9104d4a8ac6185806eafe169ff90b"),
        (["atlas", "--model", "toeplitz", "--r", "100000", "--level", "1",
          "--letter", "99999"], 0,
         "1e77129dd48f8269cf737a7ab23dedc84bd0b4ee94ee788d86192c7059c12f7c"),
        (["measures", "--model", "toeplitz", "--r", "3", "--depth", "5"], 6,
         "e40b73ce3e2f7f175e042c29c9277b954de462b7ade7d10271557597333262df"),
        (["frequencies", "--model", "toeplitz", "--r", "3", "--measure", "2",
          "--level", "3"], 0,
         "b61e50d8dcd89f8f4a2687e81c3a06f4d1befdaa04ed9ee462384e638e98bb31"),
        (["matrices", "--model", "toeplitz", "--r", "3", "--from", "1", "--to",
          "4"], 0,
         "f272a0747bc0cc1a7d0101fc7c5de6c84def60a04d5bbb7c33b38f142fea05b1"),
        (["render", "--model", "substitution", "--rows", "0", "4", "--x", "0",
          "8", "--overlay", "1", "--overlay", "2", "--out", "overlays.svg"], 0,
         "c566c9303cf8dfaeec1c1eb49ce200181613503add8829a890f7b07d9e1134de"),
        (["certify", "--model", "substitution", "--from", "3", "--to", "3"], 2,
         EMPTY),
        (["matrices", "--model", "substitution", "--level", "1", "--from",
          "1"], 2, EMPTY),
    ]
    OVERLAY_SVG = (
        "37dce7050f51dfb529bf8193f67ba55fdd032c4c4cd1f5fcea67364f958787e4")

    #: The same for commands run cold, as `python -m hyptiling`.
    COLD_COMMANDS = [
        (["gen", "--model", "toeplitz", "--r", "3", "--from", "-20", "--to",
          "20"], 0,
         "0a0a07e7ce08bb195f49fe5d89022d847a2ddba9704321ac660b4f475ee79819"),
        (["atlas", "--model", "substitution", "--level", "3"], 0,
         "b535673b5123dd2594d039df1c6fedd90412b7a8beaf7cd2cfdcd9a35e06b0df"),
        (["gen", "--model", "toeplitz", "--from", "0"], 2, EMPTY),
    ]

    #: Toeplitz ranks past what the nested-simplex count can certify by its
    #: default depth 36: both commands print the inconclusive count, exit 6.
    LARGE_RANK_REFUSALS = [
        (["measures", "--model", "toeplitz", "--r", "48"], 6,
         "d2a7c206cad6b7c8d3ac4de1fa10d2070f052c22c4cd45377cbd521d0b031e5e"),
        (["frequencies", "--model", "toeplitz", "--r", "48", "--level", "3"],
         6, "d2a7c206cad6b7c8d3ac4de1fa10d2070f052c22c4cd45377cbd521d0b031e5e"),
    ]

    def test_large_rank_refusal_digests(self):
        wrong = self._mismatches(self.LARGE_RANK_REFUSALS, self._in_process)
        assert not wrong, "; ".join(wrong)

    @staticmethod
    def _mismatches(commands, runner):
        """Commands whose exit code or stdout digest differs from the table."""
        wrong = []
        for argv, code, digest in commands:
            got_code, out = runner(argv)
            got = hashlib.sha256(out).hexdigest()
            if (got_code, got) != (code, digest):
                wrong.append(f"{' '.join(argv)}: exit {got_code}, {got}")
        return wrong

    @staticmethod
    def _in_process(argv):
        code, out, _ = run(argv)
        return code, out.encode()

    def _frozen(self, monkeypatch, tmp_path, commands, svg, svg_digest):
        import numpy

        monkeypatch.chdir(tmp_path)  # render writes its SVG here
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to
        wrong = self._mismatches(commands, self._in_process)
        got = hashlib.sha256((tmp_path / svg).read_bytes()).hexdigest()
        if got != svg_digest:
            wrong.append(f"{svg}: {got}")
        assert not wrong, (f"numpy {numpy.__version__}: "
                           + "; ".join(wrong))

    def test_command_digests(self, monkeypatch, tmp_path):
        self._frozen(monkeypatch, tmp_path, self.COMMANDS, "render.svg",
                     self.RENDER_SVG)

    def test_more_command_digests(self, monkeypatch, tmp_path):
        self._frozen(monkeypatch, tmp_path, self.MORE_COMMANDS, "overlays.svg",
                     self.OVERLAY_SVG)

    def test_cold_command_digests(self):
        def cold(argv):
            proc = subprocess.run([sys.executable, "-m", "hyptiling", *argv],
                                  capture_output=True)
            return proc.returncode, proc.stdout

        wrong = self._mismatches(self.COLD_COMMANDS, cold)
        assert not wrong, "; ".join(wrong)


class TestColdImports:
    """Each command, run cold as `python -m hyptiling`, imports only the
    layers it calls, and prints what it prints in process."""

    BASE = {"hyptiling", "hyptiling.cli", "hyptiling.errors", "hyptiling.exact",
            "hyptiling.record", "hyptiling.symbolic"}

    @pytest.mark.parametrize("argv, layers", [
        (["gen", "--model", "toeplitz", "--r", "3", "--from", "-20", "--to",
          "20"], ()),
        (["atlas", "--model", "substitution", "--level", "3"], ()),
        (["matrices", "--model", "substitution", "--scheme", "both",
          "--level", "1"], ("measures",)),
        (["measures", "--model", "toeplitz", "--r", "3"], ("measures",)),
        (["certify", "--model", "substitution", "--from", "1", "--to", "4"],
         ("measures",)),
        (["frequencies", "--model", "substitution", "--level", "3"],
         ("measures",)),
        (["render", "--model", "substitution", "--rows", "0", "2", "--x", "0",
          "4", "--out", "tiles.svg"], ("render",)),
        (["diffuse", "--model", "substitution", "--paths", "3", "--horizon",
          "1", "--seed", "5"], ("diffusion", "measures")),
        (["verify", "--json"], ("diffusion", "geometry", "harmonic", "measures",
                                "verification")),
    ], ids=["gen", "atlas", "matrices", "measures", "certify", "frequencies",
            "render", "diffuse", "verify"])
    def test_command_loads_only_its_layers(self, monkeypatch, tmp_path, argv,
                                           layers):
        monkeypatch.chdir(tmp_path)  # render writes its SVG here
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "hyptiling", *argv],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip()
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:") and "|" in line}
        assert {m for m in loaded if m.split(".")[0] == "hyptiling"} == (
            self.BASE | {f"hyptiling.{m}" for m in layers})
        assert (0, proc.stdout) == run(argv)[:2]


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

    def test_level_past_the_digit_limit(self):
        code, payload = run_json(
            ["matrices", "--model", "substitution", "--level", "10000"]
        )
        assert code == 0
        residuals = payload["schemes"]["triangle"]["mass_residuals"]
        assert [big_int(w) for w in residuals["weights"]] == [3**10000] * 2
        assert [num(x) for x in residuals["residuals"]] == [(0, 1)] * 2

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

    @pytest.mark.parametrize("model, scheme, q", [
        *((model, "triangle", q) for model in ("substitution", "toeplitz")
          for q in range(4)),
        *(("substitution", "paper", q) for q in range(1, 4)),
    ])
    def test_level_is_the_one_level_range(self, model, scheme, q):
        level = run_json(["matrices", "--model", model, "--scheme", scheme,
                          "--level", str(q)])
        span = run_json(["matrices", "--model", model, "--scheme", scheme,
                         "--from", str(q), "--to", str(q + 1)])
        assert level[0] == span[0] == 0
        assert (level[1]["schemes"][scheme]["matrix"]["entries"]
                == span[1]["schemes"][scheme]["matrix"]["entries"])

    def test_paper_level_over_the_bit_budget(self):
        """The level-12 closed form has 1,062,880-bit denominators: refused
        at once, as the one-level range is."""
        start = time.perf_counter()
        code, out, err = run(["matrices", "--model", "substitution",
                              "--scheme", "paper", "--level", "12"])
        elapsed = time.perf_counter() - start
        assert (code, out) == (5, "")
        assert (code, out, err) == run(
            ["matrices", "--model", "substitution", "--scheme", "paper",
             "--from", "12", "--to", "13"])
        assert elapsed < 1.0

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

    @pytest.mark.parametrize("command", [
        ["measures"], ["frequencies", "--level", "2"],
    ], ids=["measures", "frequencies"])
    @pytest.mark.parametrize("tolerance", ["inf", "nan", "-1"])
    def test_tolerance_outside_the_range_exits_3(self, monkeypatch, command,
                                                   tolerance):
        # an infinite tolerance merged the three rays into one "stabilized"
        # measure; nan and -1 ran every depth before exiting 6
        calls = []
        monkeypatch.setattr("hyptiling.measures._prefix_products",
                            lambda *args: calls.append(args))
        code, out, err = run([*command, "--model", "toeplitz", "--r", "3",
                              "--tolerance", tolerance])
        assert (code, out, calls) == (3, "", [])
        assert "tolerance" in err and err.count("\n") == 1


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

    def test_level_cap_exits_before_any_matrix(self, monkeypatch):
        calls = []
        monkeypatch.setattr("hyptiling.measures.contraction_certificate",
                            lambda *args: calls.append(args))
        code, out, err = run(["certify", "--model", "substitution",
                              "--from", "0", "--to", "10001"])
        assert code == 5
        assert_short_error(out, err)
        assert "10001 levels" in err and calls == []


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

    def test_csv_past_the_digit_limit(self):
        code, out, _ = run(
            ["frequencies", "--model", "substitution", "--level", "10000",
             "--format", "csv"]
        )
        assert code == 0
        three = 3**10000
        want = (Fraction((three + 1) // 2, three), Fraction((three - 1) // 2, three))
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["1", "2"]
        assert [Fraction(big_int(row[1]), big_int(row[2])) for row in rows] == list(want)
        assert [float(row[3]) for row in rows] == [float(f) for f in want]

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

    def test_negative_seed_is_a_domain_error(self):
        code, out, err = run(["diffuse", "--model", "substitution",
                              "--horizon", "1", "--seed", "-1"])
        assert (code, out) == (3, "")
        assert err == "error: seed -1 must be nonnegative\n"

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

    def test_capped_measure_count_keeps_the_paths(self):
        # the count's walk needs period index 4, past max_depth 3, but the
        # three paths finish; the report says why no expectation is given
        code, payload = run_json(
            ["diffuse", "--model", "toeplitz", "--r", "3", "--max-depth", "3",
             "--paths", "3", "--horizon", "5"]
        )
        assert code == 0
        occupancy = payload["occupancy"]
        assert occupancy["complete_paths"] == 3
        assert occupancy["unique_measure"] is False
        assert occupancy["note"] == (
            "measure count not certified (period index 4 exceeds max_depth 3); "
            "no expected fractions")
        assert [row["expected"] for row in occupancy["labels"]] == [None] * 3

    def test_capped_expected_fractions_keep_the_paths(self):
        # one letter is one measure; the level-2 fractions read level 2 only,
        # inside max_depth 3
        code, payload = run_json(
            ["diffuse", "--model", "toeplitz", "--r", "1", "--max-depth", "3",
             "--paths", "3", "--horizon", "5", "--level", "2"]
        )
        assert code == 0
        occupancy = payload["occupancy"]
        assert occupancy["complete_paths"] == 3
        assert occupancy["unique_measure"] is True
        assert occupancy["note"] == ""
        assert [row["expected"] for row in occupancy["labels"]] == [1.0]

    @pytest.mark.parametrize("flags, text", [
        (["--horizon", "1", "--dt", "1e-300"],
         "at least 10^299 steps exceeds the 100000000 step cap"),
        (["--horizon", "1", "--dt", "1", "--stride", "1", "--paths", "1" + "0" * 39],
         "at least 10^39 trace points exceeds"),
    ], ids=["steps", "trace-points"])
    def test_size_caps_print_the_power_of_ten(self, flags, text):
        code, stdout, err = run(["diffuse", "--model", "substitution", *flags])
        assert code == 5
        assert_short_error(stdout, err)
        assert text in err

    def test_overflowing_step_count_exits_before_any_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr("hyptiling.diffusion.simulate_path",
                            lambda *args: calls.append(args))
        code, stdout, err = run(["diffuse", "--model", "substitution",
                                 "--horizon", "1e300", "--dt", "1e-300"])
        assert code == 5
        assert stdout == "" and "overflows the step count" in err
        assert calls == []

    def test_zero_horizon_exit(self):
        code, stdout, err = run(["diffuse", "--model", "substitution",
                                 "--paths", "31", "--horizon", "0", "--seed", "2"])
        assert code == 3
        assert stdout == "" and "no complete path took a step" in err


class TestSizeCaps:
    """r x r matrices stop at r = 256, and `--level` and `--depth` at 10^4,
    with exit 5 before anything that grows with them is built."""

    @pytest.mark.parametrize("command", [
        ["matrices", "--level", "1"], ["matrices", "--from", "2", "--to", "2"],
        ["measures"], ["certify", "--from", "1", "--to", "2"],
    ], ids=["matrices-level", "matrices-empty-range", "measures", "certify"])
    def test_matrix_cap_exits_before_any_matrix(self, monkeypatch, command):
        calls = []
        monkeypatch.setattr("hyptiling.ToeplitzModel.children_count_vector",
                            lambda *args: calls.append(args))
        code, out, err = run([*command, "--model", "toeplitz", "--r", "257"])
        assert code == 5
        assert_short_error(out, err)
        assert "257 x 257 matrices" in err and calls == []

    def test_matrix_cap_keeps_the_diffusion_paths(self):
        code, payload = run_json(["diffuse", "--model", "toeplitz", "--r", "257",
                                  "--paths", "2", "--horizon", "1"])
        assert code == 0
        occupancy = payload["occupancy"]
        assert occupancy["complete_paths"] == 2
        assert occupancy["unique_measure"] is False
        assert occupancy["note"] == (
            "measure count not certified (257 x 257 matrices hold 66049 "
            "entries, over the cap 65536); no expected fractions")
        assert [row["expected"] for row in occupancy["labels"]] == [None] * 257

    def test_matrix_at_the_cap(self, tmp_path):
        out = tmp_path / "matrix.json"
        code, stdout, _ = run(["matrices", "--model", "toeplitz", "--r", "256",
                               "--level", "1", "--out", str(out)])
        assert code == 0 and stdout == ""
        matrix = json.loads(out.read_text())["schemes"]["triangle"]["matrix"]
        assert (matrix["rows"], len(matrix["entries"])) == (256, 256)

    @pytest.mark.parametrize("command, first_call", [
        (["atlas", "--letter", "1", "--level"], "cli.atlas_words"),
        (["matrices", "--level"], "measures.transition_matrix"),
        (["frequencies", "--level"], "measures.ergodic_measure_count"),
        (["diffuse", "--level"], "diffusion.run_paths"),
        (["measures", "--depth"], "measures.ergodic_measure_count"),
        (["frequencies", "--level", "1", "--depth"],
         "measures.ergodic_measure_count"),
    ], ids=["atlas", "matrices", "frequencies", "diffuse", "measures-depth",
            "frequencies-depth"])
    def test_level_cap_exits_before_any_library_call(self, monkeypatch, command,
                                                     first_call):
        calls = []
        monkeypatch.setattr(f"hyptiling.{first_call}",
                            lambda *args, **kwargs: calls.append(args))
        code, out, err = run([*command, "10001", "--model", "substitution"])
        assert code == 5
        assert_short_error(out, err)
        assert f"{command[-1]} 10001 is over the cap 10000" in err
        assert calls == []

    def test_matrices_range_cap_exits_before_any_matrix(self, monkeypatch):
        calls = []
        monkeypatch.setattr("hyptiling.measures.compose_range",
                            lambda *args: calls.append(args))
        code, out, err = run(["matrices", "--model", "substitution",
                              "--from", "0", "--to", "10001"])
        assert code == 5
        assert_short_error(out, err)
        assert "10001 levels are over the cap 10000" in err and calls == []

    def test_matrices_range_at_the_cap(self, tmp_path):
        out = tmp_path / "product.json"
        code, stdout, _ = run(["matrices", "--model", "substitution",
                               "--from", "0", "--to", "10000", "--out", str(out)])
        assert code == 0 and stdout == ""
        matrix = json.loads(out.read_text())["schemes"]["triangle"]
        assert matrix["range"] == [0, 10000]

    #: Runs the command in its argv with `measures.compose_range` recording
    #: its calls, and fails unless it recorded none.
    NO_PRODUCT = ("import sys\n"
                  "from hyptiling import cli, measures\n"
                  "calls = []\n"
                  "measures.compose_range = lambda *args: calls.append(args)\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "assert calls == [], calls\n"
                  "sys.exit(code)\n")

    def test_deep_toeplitz_frequencies_exit_before_any_product(self):
        """Counts never exceed the word length, so a level whose length is
        over the bit budget is refused from q alone, cold, at once."""
        argv = ["frequencies", "--model", "toeplitz", "--max-depth", "10000",
                "--level", "2000"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.NO_PRODUCT, *argv],
                              capture_output=True, text=True, timeout=30)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 5, proc.stderr
        assert_short_error(proc.stdout, proc.stderr)
        assert proc.stderr == ("error: level-2000 word length is over the "
                               "1000000-bit cap\n")
        assert elapsed < 1.0

    @pytest.mark.parametrize("level, code", [("1122", 0), ("1123", 5)])
    def test_deep_toeplitz_mass_residuals_size_rule(self, level, code):
        """For Toeplitz r = 2 the level-1123 word length has 998,533 bits and
        is printed; the level-1124 one has 1,000,313, and the level-1123
        matrix is refused from q alone, cold, at once."""
        argv = ["matrices", "--model", "toeplitz", "--max-depth", "10001",
                "--level", level]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hyptiling", *argv],
                              capture_output=True, text=True, timeout=30)
        elapsed = time.perf_counter() - start
        assert proc.returncode == code, proc.stderr
        if code:
            assert_short_error(proc.stdout, proc.stderr)
            assert proc.stderr == ("error: level-1124 word length is over the "
                                   "1000000-bit cap\n")
            assert elapsed < 1.0
        else:
            residuals = json.loads(proc.stdout)["schemes"]["triangle"][
                "mass_residuals"]
            assert residuals["conserved"] and len(set(residuals["weights"])) == 1

    @pytest.mark.parametrize("level, code, message", [
        ("1200", 4, "period index 1200 exceeds max_depth 48"),
        ("-1", 3, "need 0 <= base <= level, got base=0, level=-1"),
    ], ids=["past-max-depth", "negative"])
    def test_frequencies_errors_keep_their_order(self, level, code, message):
        assert run(["frequencies", "--model", "toeplitz", "--r", "2",
                    "--level", level]) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize("depth, level, code", [
        ("1000", "1124", 4), ("1000", "6000", 4), ("1200", "1124", 5),
        ("1200", "6000", 4), ("10000", "1124", 5), ("10000", "6000", 5),
    ])
    @pytest.mark.parametrize("argv", [
        ["atlas", "--letter", "1"], ["atlas"], ["frequencies"], ["matrices"],
    ], ids=["atlas-one-word", "atlas-all-words", "frequencies", "matrices"])
    def test_level_size_rule_grid(self, argv, depth, level, code):
        """Toeplitz r = 2 past max_depth exits 4 and, within it, a level
        whose word length (or, for `matrices`, the next level's) has more
        than 10^6 bits exits 5, alike in every command that reads a level."""
        got, out, err = run([*argv, "--model", "toeplitz", "--r", "2",
                             "--max-depth", depth, "--level", level])
        assert (got, out) == (code, ""), err
        read = int(level) + (argv == ["matrices"])  # the residuals' level
        assert err == (f"error: period index {read} exceeds max_depth {depth}\n"
                       if code == 4 else f"error: level-{read} word length is "
                       "over the 1000000-bit cap\n")

    @pytest.mark.parametrize("depth, codes", [("1200", (5, 5, 5)),
                                              ("1000", (5, 5, 4))])
    @pytest.mark.parametrize("flags", [["--letter", "1"], []],
                             ids=["one-word", "all-words"])
    def test_atlas_levels_under_the_rule(self, flags, depth, codes):
        """Levels 647, 648 and 1123 pass the level-size rule; their words
        are refused by the letter caps, or level 1123 past max_depth 1000."""
        for level, code in zip(("647", "648", "1123"), codes):
            got, out, err = run(["atlas", *flags, "--model", "toeplitz",
                                 "--max-depth", depth, "--level", level])
            assert (got, out) == (code, ""), err
            assert err.count("\n") == 1 and len(err) < 200

    def test_frequencies_size_rule_boundary(self, monkeypatch):
        """For Toeplitz r = 2, the level-1123 word length has 998,533 bits
        and passes; the level-1124 one has 1,000,313 and is refused."""
        lengths = (3 ** (1 + 1123 * 1122 // 2), 3 ** (1 + 1124 * 1123 // 2))
        assert [n.bit_length() for n in lengths] == [998_533, 1_000_313]

        class Built(Exception):
            pass

        def product(*args):
            raise Built

        model = ToeplitzModel.of_rank(2, max_depth=10000)
        stab = ergodic_measure_count(model)
        monkeypatch.setattr("hyptiling.measures.compose_range", product)
        with pytest.raises(Built):
            measure_frequencies(model, TRIANGLE, 0, 1123, stab)
        with pytest.raises(BudgetError, match="level-1124 word length"):
            measure_frequencies(model, TRIANGLE, 0, 1124, stab)

    def test_path_cap_exits_before_any_path(self, monkeypatch):
        def no_path(*args, **kwargs):
            raise AssertionError("a path ran")

        monkeypatch.setattr("hyptiling.diffusion.simulate_path", no_path)
        code, out, err = run(["diffuse", "--model", "substitution",
                              "--paths", "100001", "--horizon", "0.001"])
        assert code == 5
        assert_short_error(out, err)
        assert "100001 paths exceeds the 100000 path cap" in err

    @pytest.mark.parametrize("horizon, rows", [("3000000", "2164043"),
                                               ("100000000", "72134753")])
    def test_row_cap_exits_before_any_path(self, monkeypatch, horizon, rows):
        """One path at dt = 1 crosses about T / (2 ln 2) rows and keeps each
        in its occupancy: at T = 3 * 10^6 that peaked at 428 MB, and at the
        step cap it ran out of a 1 GiB address space."""
        def no_path(*args, **kwargs):
            raise AssertionError("a path ran")

        monkeypatch.setattr("hyptiling.diffusion.simulate_path", no_path)
        code, out, err = run(["diffuse", "--model", "substitution", "--dt",
                              "1", "--paths", "1", "--horizon", horizon])
        assert code == 5
        assert_short_error(out, err)
        assert err == (f"error: {rows} rows exceeds the 1000000 row cap; a "
                       "path crosses about T / (2 ln 2) rows\n")


def run_cold(argv, limit=1 << 29, timeout=60):
    """(exit code, stdout, stderr, seconds) of `python -m hyptiling argv` in
    a fresh interpreter whose address space is held to `limit` bytes."""
    def hold():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hyptiling", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=hold)
    return (proc.returncode, proc.stdout, proc.stderr,
            time.perf_counter() - start)


TOEPLITZ_DEEP = ["--model", "toeplitz", "--max-depth", "10000"]
SUB_ONLY = ["--model", "substitution"]

#: For each cap of `errors.CAPS` a command can reach: a command just under
#: it with its exit code (None where it takes seconds: 10^5 paths run 7 s),
#: and the same command just over it, with a part of its refusal.  Under the
#: entry budget the level-1123 word length is built and the word is still
#: too long to print.
CAP_EDGES = [
    ("entry_bits", ["matrices", *SUB_ONLY, "--scheme", "paper", "--level"],
     "11", 0, "12", "12 exceeds the 1000000-bit entry budget"),
    ("product_bits", ["matrices", *TOEPLITZ_DEEP, "--r", "256", "--from"],
     "1292 --to 1293", 0, "1293 --to 1294",
     "134217728-bit product budget of 256 x 256 entries"),
    ("matrix_entries", ["certify", "--model", "toeplitz", "--from", "1",
                        "--to", "2", "--r"], "256", 0, "257",
     "257 x 257 matrices hold 66049 entries, over the cap 65536"),
    ("letters", ["gen", *SUB_ONLY, "--from", "0", "--to"], "1000000", 0,
     "1000001", "window of 1000001 letters is over the cap 1000000"),
    ("atlas_letters", ["atlas", *SUB_ONLY, "--level"], "12", 0, "13",
     "words hold 3188646 letters together, over the cap 2000000"),
    ("entry_bits", ["atlas", *TOEPLITZ_DEEP, "--letter", "1", "--level"],
     "1123", 5, "1124", "level-1124 word length is over the 1000000-bit cap"),
    ("levels", ["measures", *SUB_ONLY, "--depth"], "10000", 0, "10001",
     "--depth 10001 is over the cap 10000"),
    ("levels", ["certify", *SUB_ONLY, "--from", "0", "--to"], "10000", 0,
     "10001", "10001 levels are over the cap 10000"),
    ("steps", ["diffuse", *SUB_ONLY, "--paths", "1", "--horizon"], "100000",
     0, "100000.001", "100000001 steps exceeds the 100000000 step cap"),
    ("paths", ["diffuse", *SUB_ONLY, "--horizon", "0.001", "--paths"],
     "100000", None, "100001", "100001 paths exceeds the 100000 path cap"),
    ("trace_points", ["diffuse", *SUB_ONLY, "--paths", "1", "--dt", "1",
                      "--stride", "1", "--horizon"], "999999", 0, "1000000",
     "1000001 trace points exceeds the 1000000 point cap"),
    ("rows", ["diffuse", *SUB_ONLY, "--paths", "1", "--dt", "1000",
              "--horizon"], "1386294", 0, "1386295",
     "1000001 rows exceeds the 1000000 row cap"),
    ("tiles", ["render", "--rows", "0", "0", "--x", "0"], "50000", 0, "50001",
     "window holds more than 50000 tiles"),
    ("outline_points", ["render", "--rows", "0", "0", "--x", "0"], "0.001",
     0, "0.0005", "tile outline holds 32770 points, more than 32768"),
]

#: Caps no command reaches: `verify` alone lists occurrence classes and
#: runs the quadrature, on fixed small cases.
UNREACHED_CAPS = {"classes", "quadrature_pieces"}


class TestCapEdges:
    """Every cap a command reaches, run cold at its edge, one child at a
    time under an address-space limit: just under finishes, just over exits
    5 within a second."""

    def test_every_cap_has_an_edge_or_is_unreached(self):
        from hyptiling.errors import CAPS

        edged = {case[0] for case in CAP_EDGES}
        assert edged | UNREACHED_CAPS == set(CAPS)
        assert not edged & UNREACHED_CAPS

    @pytest.mark.parametrize("cap, argv, under, code, over, refusal", CAP_EDGES,
                             ids=[f"{case[0]}-{case[1][0]}" for case in CAP_EDGES])
    def test_cap_edge(self, tmp_path, cap, argv, under, code, over, refusal):
        if argv[0] == "render":
            argv = ["render", "--out", str(tmp_path / "tiles.svg"), *argv[1:]]
        if code is not None:
            got = run_cold(argv + under.split())
            assert got[0] == code, got[2]
        got = run_cold(argv + over.split())
        assert got[:2] == (5, "") and refusal in got[2], got[2]
        assert got[3] < 1.0

    @pytest.mark.parametrize("argv, code, seconds, message", [
        (["matrices", *TOEPLITZ_DEEP, "--r", "64", "--from", "0", "--to",
          "300"], 5, 2.0, "error: composition through level 203 exceeds the "
         "134217728-bit product budget of 64 x 64 entries\n"),
        (["measures", *TOEPLITZ_DEEP, "--r", "256", "--depth", "2000"], 6,
         15.0, "composition through level 51 exceeds the 134217728-bit "
         "product budget of 256 x 256 entries"),
        (["certify", *SUB_ONLY, "--scheme", "paper", "--from", "16", "--to",
          "17"], 5, 1.0, "error: composition through level 16 exceeds the "
         "1000000-bit entry budget\n"),
    ], ids=["matrices-rank-64", "measures-rank-256", "certify-paper-16"])
    def test_products_past_the_box_stop(self, argv, code, seconds, message):
        """Inputs within every other cap whose exact products grow to
        hundreds of megabytes and minutes: a rank-64 range of 300 levels, a
        rank-256 count 2,000 levels deep and the level-16 closed form."""
        got = run_cold(argv, timeout=10 * seconds)
        assert got[0] == code and got[3] < seconds
        if code == 6:  # the count stops at the product budget, with a note
            assert json.loads(got[1])["note"] == message
        else:
            assert got[1:3] == ("", message)


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

    def test_a_failing_check(self, monkeypatch):
        """One check made to fail: exit 1, its line or entry alone fails."""
        from hyptiling import verification

        monkeypatch.setattr(verification, "hull_contains", lambda *a: False)
        code, out, _ = run(["verify"])
        lines = out.splitlines()
        assert code == 1 and len(lines) == 7
        failed = [line for line in lines if not line.startswith("[PASS] ")]
        assert failed == [
            "[FAIL] nesting: substitution: depth-4 simplex escapes depth-3 hull"]
        code, payload = run_json(["verify", "--json"])
        assert code == 1 and payload["all_passed"] is False
        assert [c["name"] for c in payload["checks"]
                if not c["passed"]] == ["nesting"]

    def test_one_fixed_run(self, tmp_path):
        assert run(["verify", "--full"])[0] == 2
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("full = yes\n")
        code, out, err = run(["verify", "--config", str(cfg)])
        assert code == 2 and out == "" and "full" in err


class TestDispatch:
    @pytest.mark.parametrize("command", [
        ["frequencies", "--level", "6"], ["diffuse", "--paths", "5",
                                          "--horizon", "5"],
    ], ids=["frequencies", "diffuse"])
    def test_no_scheme_option(self, tmp_path, command):
        """Both read the triangle-scheme product in every case, so neither
        takes a scheme, from a flag or from a config file."""
        argv = [*command, "--model", "substitution"]
        assert run([*argv, "--scheme", "triangle"])[:2] == (2, "")
        cfg = tmp_path / "scheme.cfg"
        cfg.write_text("scheme = triangle\n")
        code, out, err = run([*argv, "--config", str(cfg)])
        assert (code, out) == (2, "") and "unknown config key 'scheme'" in err

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
