"""The `cli` workload: cold-start `python -m hyptiling` runs, one at a time.

Why: this is how users reproduce the paper.  Interpreter start, imports,
argument parsing and config merge, and JSON/SVG emission dominate, and
neither in-process workload touches them.  Every run builds its model from
scratch, as users' runs do.

One pass runs MINIMAL_PER_PASS minimal `gen` runs (10 letters), which
measure start-up, and then each command of the mix once.  Every run is a
request whose latency is reported.  Each child's peak RSS comes from
os.wait4.

Sizes, and where they come from:
  gen_large     10^5 letters; a 10^6-letter window() takes seconds per run;
  atlas         level 12, whose 531,441-letter words are the largest under
                the command's default 10^6-letter cap;
  matrices      level 1 with both schemes, and paper levels 1..11 (the
                known defect below);
  measures      Toeplitz r=8, the largest rank the exact workload counts;
  certify       paper levels 1..9 (`--from 1 --to 10`);
  frequencies   substitution level 10, the deepest level of criterion 4;
  diffuse       small runs of the criterion-8 step (dt=1e-3): 30 fast paths
                and 2 full paths of T=10 (10^4 steps each), so start-up and
                JSON output stay a visible share;
  render        rows -10..3 over an x-range of width 24: 49,149 tiles, the
                largest such band under render.MAX_TILES = 50,000;
  verify        the quick `verify --json` a user runs.

Known defect: `matrices --scheme paper --from 1 --to 12` exits 1 with
"Exceeds the limit (4300 digits) for integer string conversion" once the
product is written as JSON.  It stays in the mix and counts as a failed
operation, without marking the run incorrect; any other failure, a different
exit code or traceback included, does.  The benchmark leaves Python's default
limit in place, for itself and its children.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

from harness import OUT, expect, median, run_child

MINIMAL_PER_PASS = 1
MINIMAL_GEN = ["gen", "--model", "substitution", "--from", "0", "--to", "10"]
# First ten letters of the fixed point of 1 -> 112, 2 -> 122.
MINIMAL_LETTERS = [1, 1, 2, 1, 1, 2, 1, 2, 2, 1]
GEN_LETTERS = 100_000
ATLAS_LEVEL = 12
RENDER_ROWS = (-10, 3)
RENDER_WIDTH = 24
# Row n holds RENDER_WIDTH / 2**n tiles when x0 is a multiple of 8.
RENDER_TILES = 49_149
DIGIT_LIMIT_ERROR = (
    "ValueError: Exceeds the limit (4300 digits) for integer string conversion"
)
# SHA-256 over "num/den;" of the decimal JSON strings of the paper-scheme
# product of levels 1..11, row by row, for when the command stops failing.
PAPER_JSON_DIGEST = (
    "34e0919a20255e97595b8c0b835d707abd3e3b731324390feeaa18f938d7218d"
)
INTERPRETER_RUNS = 5


class ExitCodeError(Exception):
    def __init__(self, code: int, stderr: str):
        lines = stderr.strip().splitlines()
        super().__init__(f"exit {code}: {lines[-1] if lines else ''}")
        self.code = code
        self.stderr = stderr


def _digit_limit_defect(err) -> bool:
    """The known defect: exit 1 from the int-to-str digit limit."""
    return (isinstance(err, ExitCodeError) and err.code == 1
            and DIGIT_LIMIT_ERROR in err.stderr)


KNOWN_FAILURES = {"matrices_paper": _digit_limit_defect}


def prepare(seed: int) -> dict:
    rng = random.Random(seed)
    gen_from = -rng.randint(1, GEN_LETTERS - 1)
    x0 = 8 * rng.randint(-4, 4)  # multiples of 8 keep the tile count fixed
    OUT.mkdir(exist_ok=True)
    svg = OUT / "render.svg"
    mix = [
        ("gen_large", ["gen", "--model", "substitution", "--from", str(gen_from),
                       "--to", str(gen_from + GEN_LETTERS)],
         lambda out: _check_gen(out, gen_from, GEN_LETTERS)),
        ("atlas", ["atlas", "--model", "substitution", "--level",
                   str(ATLAS_LEVEL)], _check_atlas),
        ("matrices_level", ["matrices", "--model", "substitution", "--level",
                            "1", "--scheme", "both"], _check_level_one),
        ("matrices_paper", ["matrices", "--model", "substitution", "--scheme",
                            "paper", "--from", "1", "--to", "12"],
         _check_paper_range),
        ("measures", ["measures", "--model", "toeplitz", "--r", "8"],
         _check_measures),
        ("certify", ["certify", "--model", "substitution", "--scheme", "paper",
                     "--from", "1", "--to", "10"], _check_certify),
        ("frequencies", ["frequencies", "--model", "substitution", "--level",
                         "10", "--format", "csv"], _check_frequencies),
        ("diffuse_fast", ["diffuse", "--model", "substitution", "--paths", "30",
                          "--horizon", "10", "--seed", str(seed)],
         lambda out: _check_diffuse(out, "fast")),
        ("diffuse_full", ["diffuse", "--model", "substitution", "--paths", "2",
                          "--horizon", "10", "--mode", "full", "--seed",
                          str(seed)], lambda out: _check_diffuse(out, "full")),
        ("render", ["render", "--model", "substitution", "--rows",
                    *map(str, RENDER_ROWS), "--x", str(x0),
                    str(x0 + RENDER_WIDTH), "--out", str(svg)],
         lambda out: _check_render(out, svg)),
        ("verify", ["verify", "--json"], _check_verify),
    ]
    minimal = ("gen_min", MINIMAL_GEN, _check_minimal)
    return {"schedule": [minimal] * MINIMAL_PER_PASS + mix}


def setup_command(seed: int) -> list:
    """The set-up probe: one minimal cold-start run, which also leaves the
    checkout's bytecode compiled for the timed runs."""
    return ["-m", "hyptiling", *MINIMAL_GEN]


def run_pass(state: dict, ledger, tracer=None) -> dict:
    extra = {"cli.stdout_bytes": 0, "peak_rss_mb": 0.0}
    start_up = []
    for name, args, check in state["schedule"]:
        def invoke(name=name, args=args):
            if tracer is None:
                child = run_child(["-m", "hyptiling", *args])
            else:
                with tracer.span(f"cli.{name}") as span:
                    child = run_child(["-m", "hyptiling", *args])
                span.tags["rss_mb"] = child.rss_mb
            if name == "gen_min":
                start_up.append(child.seconds)
            extra["cli.stdout_bytes"] += len(child.stdout)
            extra["peak_rss_mb"] = max(extra["peak_rss_mb"], child.rss_mb)
            if child.code != 0:
                raise ExitCodeError(child.code,
                                    child.stderr.decode(errors="replace"))
            return child.stdout

        ledger.run(f"cli.{name}", invoke, check, request=True,
                   known_failure=KNOWN_FAILURES.get(name))
    extra["cli_start_ms"] = median(start_up) * 1e3 if start_up else 0.0
    return extra


def layer_metrics(spans, run_ids) -> dict:
    """Per command: median wall time and peak RSS of its runs in the traced
    passes; plus a bare interpreter and `import hyptiling`."""
    out = {}
    traced = [s for s in spans if s.run_id in run_ids]
    for command in COMMANDS:
        hits = [s for s in traced if s.name == f"cli.{command}"]
        if hits:
            out[f"cli.{command}_ms"] = median(s.duration for s in hits) * 1e3
            out[f"cli.{command}_rss_mb"] = median(s.tags["rss_mb"] for s in hits)
    out.update(interpreter_ms())
    return out


def interpreter_ms(runs: int = INTERPRETER_RUNS) -> dict:
    """Medians of a bare interpreter and of `import hyptiling`, in ms."""
    out = {}
    for name, argv in (("cli.python_ms", ["-c", "pass"]),
                       ("cli.import_ms", ["-c", "import hyptiling"])):
        times = [child.seconds for child in map(run_child, [argv] * runs)
                 if child.code == 0]
        out[name] = median(times) * 1e3 if times else 0.0
    return out


# ---------------------------------------------------------------------------
# Output checks


def _json(out: bytes):
    return json.loads(out)


def _check_exact_scalar(obj) -> None:
    expect(isinstance(obj, dict) and set(obj) == {"num", "den"}
           and all(isinstance(v, str) for v in obj.values()),
           f"exact value not in {{num, den}} string form: {str(obj)[:80]}")


def _fraction(obj) -> Fraction:
    _check_exact_scalar(obj)
    return Fraction(int(obj["num"]), int(obj["den"]))


def _check_minimal(out: bytes) -> None:
    letters = _json(out)["letters"]
    expect(letters == MINIMAL_LETTERS, f"gen letters {letters}")


def _check_gen(out: bytes, start: int, count: int) -> None:
    payload = _json(out)
    letters = payload["letters"]
    expect(payload["from"] == start and len(letters) == count
           and set(letters) <= {1, 2}, "gen window has the wrong shape")
    expect(letters[-start:-start + 10] == MINIMAL_LETTERS,
           "gen window disagrees with the minimal run at position 0")


def _check_atlas(out: bytes) -> None:
    payload = _json(out)
    words = payload["words"]
    expect(payload["length"] == 3 ** ATLAS_LEVEL
           and all(len(words[k]) == 3 ** ATLAS_LEVEL for k in ("1", "2")),
           "atlas words have the wrong length")


def _check_level_one(out: bytes) -> None:
    schemes = _json(out)["schemes"]
    paper = [[_fraction(x) for x in row]
             for row in schemes["paper"]["matrix"]["entries"]]
    expect(paper == [[Fraction(5, 4), Fraction(1)],
                     [Fraction(1, 16), Fraction(5, 16)]],
           f"paper level-1 matrix {paper}")
    triangle = [[_fraction(x) for x in row]
                for row in schemes["triangle"]["matrix"]["entries"]]
    expect(triangle == [[2, 1], [1, 2]], f"triangle level-1 matrix {triangle}")


def _check_paper_range(out: bytes) -> None:
    entries = _json(out)["schemes"]["paper"]["matrix"]["entries"]
    h = hashlib.sha256()
    for row in entries:
        for x in row:
            _check_exact_scalar(x)
            h.update(f"{x['num']}/{x['den']};".encode())
    expect(h.hexdigest() == PAPER_JSON_DIGEST,
           "paper product JSON differs from the recorded digest")


def _check_measures(out: bytes) -> None:
    payload = _json(out)
    expect(payload["ergodic_count"] == 8 and payload["status"] == "stabilized",
           f"toeplitz r=8 count {payload['ergodic_count']} {payload['status']}")


def _check_certify(out: bytes) -> None:
    levels = _json(out)["levels"]
    expect(len(levels) == 9 and all(lc["strictly_positive"] for lc in levels)
           and all(lc["one_minus_factor"] > 0 for lc in levels
                   if lc["level"] <= 6),
           "paper levels 1..6 do not all contract")


def _check_frequencies(out: bytes) -> None:
    rows = list(csv.reader(io.StringIO(out.decode())))
    expect(rows[0] == ["letter", "numerator", "denominator", "value"]
           and len(rows) == 3, "frequencies CSV has the wrong shape")
    total = sum(Fraction(int(num), int(den)) for _, num, den, _ in rows[1:])
    expect(total == 1, f"frequencies sum to {total}")


def _check_diffuse(out: bytes, mode: str) -> None:
    payload = _json(out)
    expect(payload["config"]["mode"] == mode
           and payload["config"]["steps_per_path"] == 10_000
           and payload["occupancy"]["partial_paths"] == 0,
           f"diffuse {mode} output has the wrong shape")


def _check_render(out: bytes, svg) -> None:
    payload = _json(out)
    expect(payload["tiles"] == RENDER_TILES, f"{payload['tiles']} tiles drawn")
    root = ET.parse(svg).getroot()
    expect(root.tag.endswith("svg"), "render output is not SVG")


def _check_verify(out: bytes) -> None:
    payload = _json(out)
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    expect(payload["all_passed"] and not failed, f"verify failed {failed}")


COMMANDS = ("gen_min", "gen_large", "atlas", "matrices_level", "matrices_paper",
            "measures", "certify", "frequencies", "diffuse_fast",
            "diffuse_full", "render", "verify")
COUNTERS = ("cli.stdout_bytes",)
REQUEST = "cli"
DETAIL = {"cli_start_ms": "ms"}
TRACE_LIBRARY = False
