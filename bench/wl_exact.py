"""The `exact` workload: the exact symbolic and linear-algebra layers.

Why: the exact layers do all the work and diffusion does none.  Big-integer
growth (paper scheme, entries of 531,417 bits) sits beside small-integer
matrices (triangle scheme, Toeplitz r=8), so an exact-matrix change that
helps one and slows the other shows.  Every operation builds a fresh model,
as every CLI run starts with cold caches.

The request whose latency is reported is a window of WINDOW_LETTERS letters
at a seed-chosen place across 0, the in-process form of `hyptiling gen`.

Sizes, and where they come from:
  paper product       levels 1..11 (`compose_range(..., 1, 12)`), whose
                      entries reach 531,417 bits;
  triangle products   substitution levels 0..35, the deepest product that
                      ergodic_measure_count builds at its default max_depth
                      of 36; Toeplitz r=8 levels 0..46, below the model's
                      default filling cap max_depth=48;
  ergodic counts      Toeplitz r in {2, 3, 5, 8} and the substitution under
                      both schemes (criteria 1 and 2);
  certificates        triangle levels 1..6 and paper levels 1..9, criterion
                      2's range and the CLI's `--from 1 --to 10`;
  frequencies         the cases of criterion 4;
  windows             WINDOWS windows of 10^5 letters; a 10^6-letter window
                      takes seconds;
  atlas words         level 12, whose 531,441-letter words are the largest
                      under `hyptiling atlas`'s default 10^6-letter cap;
  occurrences and partitions, transports and boundary recovery: the cases
                      of criteria 10, 6 and 7.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

from harness import expect
from spans import span_metrics

PAPER_RANGE = (1, 12)
# SHA-256 over "hex(num)/hex(den);" of the reduced entries of the paper-scheme
# product of levels 1..11, row by row.
PAPER_DIGEST = "ec346db534f24c6ae9aaea5bc75b26aa216ab8f5cfce9c26d40d176afad6cd23"
PAPER_BITS = 531417
TRIANGLE_SUBSTITUTION_LEVELS = 36
TRIANGLE_TOEPLITZ = (8, 47)  # rank, levels
TOEPLITZ_RANKS = (2, 3, 5, 8)
FREQUENCY_CASES = (
    ("toeplitz", 2, range(1, 5)),
    ("toeplitz", 3, range(1, 5)),
    ("substitution", 2, range(1, 11)),
)
WINDOW_LETTERS = 100_000
WINDOWS = 3
ATLAS_LEVEL = 12
PARTITION_DEPTHS = range(1, 13)
TRANSPORT_CASES = 100


def prepare(seed: int) -> dict:
    """Import, draw the seeded inputs, and call the main layers once on
    small inputs so that no lazy set-up lands in the first pass."""
    from hyptiling import geometry, harmonic, measures, symbolic

    rng = random.Random(seed)
    state = {
        "geometry": geometry,
        "harmonic": harmonic,
        "measures": measures,
        "symbolic": symbolic,
        "window_starts": [-rng.randint(1, WINDOW_LETTERS - 1)
                          for _ in range(WINDOWS)],
        "transport": [_transport_case(rng) for _ in range(TRANSPORT_CASES)],
    }
    sub = symbolic.SubstitutionModel.standard()
    measures.compose_range(sub, measures.PAPER, 1, 3)
    measures.ergodic_measure_count(sub)
    symbolic.window(sub, -10, 10)
    geometry.patch_partition_check(0, range(0, 1), 2)
    harmonic.boundary_recover(_atom_evaluator(harmonic), 0.0, 1.0,
                              y_probe=1e-4, breakpoints=(0.25,))
    return state


def _transport_case(rng):
    a = Fraction(2) ** rng.randint(-10, 10)
    b = Fraction(rng.randint(-1000, 1000), 2 ** rng.randint(0, 10))
    x0 = Fraction(rng.randint(-500, 500), 2 ** rng.randint(0, 8))
    width = Fraction(rng.randint(0, 300), 2 ** rng.randint(0, 8))
    y0 = Fraction(rng.randint(1, 400), 2 ** rng.randint(0, 8))
    ratio = Fraction(rng.randint(2, 50))
    coeff = Fraction(rng.randint(0, 60), 2 ** rng.randint(0, 6))
    return a, b, coeff, (x0, x0 + width, y0, y0 * ratio)


def _atom_evaluator(harmonic, atoms=((0.25, 2.0),), slope=0.0):
    measure = harmonic.BoundaryAtoms(atoms=atoms, slope=slope)
    return lambda x, y: harmonic.herglotz_evaluate(measure, x, y)


def run_pass(state: dict, ledger, tracer=None) -> dict:
    measures, symbolic = state["measures"], state["symbolic"]
    geometry, harmonic = state["geometry"], state["harmonic"]
    sub = symbolic.SubstitutionModel.standard
    toeplitz = symbolic.ToeplitzModel.of_rank
    extra = {"measures.max_entry_bits": 0, "measures.ergodic_depth": 0}

    def bits(matrix):
        extra["measures.max_entry_bits"] = max(
            extra["measures.max_entry_bits"], _max_bits(matrix.rows))

    # Products of level matrices.
    def check_paper(matrix):
        bits(matrix)
        expect(_digest(matrix.rows) == PAPER_DIGEST,
               "paper product differs from the recorded digest")
        expect(_max_bits(matrix.rows) == PAPER_BITS,
               f"paper product has {_max_bits(matrix.rows)}-bit entries")

    ledger.run("compose_paper",
               lambda: measures.compose_range(sub(), measures.PAPER, *PAPER_RANGE),
               check_paper)
    for make, levels in ((sub, TRIANGLE_SUBSTITUTION_LEVELS),
                         (lambda: toeplitz(TRIANGLE_TOEPLITZ[0]),
                          TRIANGLE_TOEPLITZ[1])):
        def check_triangle(matrix, make=make, levels=levels):
            bits(matrix)
            _check_against_block_counts(symbolic, make(), matrix, levels)

        ledger.run("compose_triangle",
                   lambda make=make, levels=levels: measures.compose_range(
                       make(), measures.TRIANGLE, 0, levels),
                   check_triangle)

    # Ergodic counts.
    def check_count(result, expected):
        extra["measures.ergodic_depth"] += result.depth
        expect(result.status == "stabilized" and result.count == expected,
               f"count {result.count} ({result.status}), expected {expected}")

    for r in TOEPLITZ_RANKS:
        ledger.run(f"ergodic_toeplitz_r{r}",
                   lambda r=r: measures.ergodic_measure_count(toeplitz(r)),
                   lambda result, r=r: check_count(result, r))
    for scheme in (measures.TRIANGLE, measures.PAPER):
        ledger.run(f"ergodic_substitution_{scheme}",
                   lambda s=scheme: measures.ergodic_measure_count(sub(), s),
                   lambda result: check_count(result, 1))

    # Contraction certificates (criterion 2).
    def check_triangle_certificate(report):
        bound = math.tanh(math.log(4.0) / 4.0) + 1e-12
        worst = max(lc.factor for lc in report.levels)
        expect(report.verdict == "uniformly contracting" and worst <= bound,
               f"triangle verdict {report.verdict}, factor {worst}")

    def check_paper_certificate(report):
        # Gaps past level 6 are below the smallest float; only 1..6 are
        # required to be positive, as in criterion 2.
        expect(all(lc.strictly_positive for lc in report.levels)
               and all(lc.gap > 0.0 for lc in report.levels if lc.level <= 6),
               "paper levels 1..6 do not all contract")

    ledger.run("certify_triangle",
               lambda: measures.contraction_certificate(
                   sub(), measures.TRIANGLE, range(1, 7)),
               check_triangle_certificate)
    ledger.run("certify_paper",
               lambda: measures.contraction_certificate(
                   sub(), measures.PAPER, range(1, 10)),
               check_paper_certificate)

    # Nested simplices: the depth-6 hull inside the depth-3 hull.
    for make, scheme in ((sub, measures.TRIANGLE), (sub, measures.PAPER),
                         (lambda: toeplitz(3), measures.TRIANGLE)):
        def nested(make=make, scheme=scheme):
            model = make()
            outer = measures.nested_simplex(model, scheme, 1, 3)
            inner = measures.nested_simplex(model, scheme, 1, 6)
            return measures.hull_contains(outer, inner)

        ledger.run("hull", nested,
                   lambda inside: expect(inside, "depth-6 simplex escapes"))

    # Frequencies of each extreme measure (criterion 4), one operation per
    # model family.
    for family, r, levels in FREQUENCY_CASES:
        make = (lambda r=r: toeplitz(r)) if family == "toeplitz" else sub

        def frequencies(make=make, levels=levels):
            got = []
            for q in levels:
                model = make()
                stab = measures.ergodic_measure_count(model)
                got.append((q, [
                    measures.measure_frequencies(model, measures.TRIANGLE,
                                                 idx, q, stab)
                    for idx in range(stab.count)
                ]))
            return got

        ledger.run(f"frequencies_{family}_r{r}", frequencies,
                   lambda got, make=make, r=r: _check_frequencies(
                       symbolic, make, r, got))

    # Windows crossing 0, checked against atlas-word expansion.
    for start in state["window_starts"]:
        stop = start + WINDOW_LETTERS
        ledger.run("window",
                   lambda a=start, b=stop: symbolic.window(sub(), a, b),
                   lambda letters, a=start, b=stop: _check_window(
                       symbolic, a, b, letters),
                   request=True)

    # Atlas words at level 12.
    for letter in (1, 2):
        ledger.run("atlas_word",
                   lambda c=letter: symbolic.atlas_words(sub(), ATLAS_LEVEL).word(c),
                   lambda word, c=letter: _check_atlas(symbolic, c, word))

    # Occurrence classes and patch partitions (criterion 10).
    for make in (sub, lambda: toeplitz(2), lambda: toeplitz(3)):
        def occurrences(make=make):
            model = make()
            return model, [
                (q, parent, geometry.occurrence_classes(model, q, parent))
                for q in range(3) for parent in range(1, model.r + 1)
            ]

        ledger.run("occurrences", occurrences, _check_occurrences)
    ledger.run("partition_depths",
               lambda: [geometry.patch_partition_check(0, range(0, 1), d)
                        for d in PARTITION_DEPTHS],
               lambda reports: [_check_partition(r) for r in reports])
    ledger.run("partition_row",
               lambda: geometry.patch_partition_check(6, range(-2, 3), 12),
               _check_partition)

    # Transport identities (criterion 6) and boundary recovery (criterion 7).
    def transports():
        return [
            harmonic.transport_scaling_check(coeff, rect,
                                             geometry.AffineMap(a, b))
            for a, b, coeff, rect in state["transport"]
        ]

    ledger.run("transport", transports,
               lambda checks: expect(all(c.equal for c in checks),
                                     "a transport identity is not exact"))
    ledger.run("boundary_atom",
               lambda: harmonic.boundary_recover(
                   _atom_evaluator(harmonic), 0.0, 1.0, y_probe=1e-4,
                   breakpoints=(0.25,)),
               lambda mass: expect(abs(mass - 2.0) / 2.0 <= 0.02,
                                   f"atom mass {mass}, expected 2"))
    ledger.run("boundary_slope",
               lambda: harmonic.boundary_recover(
                   _atom_evaluator(harmonic, atoms=(), slope=3.0), -2.0, 2.0,
                   y_probe=1e-4),
               lambda mass: expect(abs(mass) < 1e-3,
                                   f"pure-slope interval mass {mass}"))
    return extra


def _max_bits(rows) -> int:
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for row in rows for x in row)


def _digest(rows) -> str:
    # hex() has no digit limit, unlike str() of a large int.
    h = hashlib.sha256()
    for row in rows:
        for x in row:
            h.update(f"{hex(x.numerator)}/{hex(x.denominator)};".encode())
    return h.hexdigest()


def _check_against_block_counts(symbolic, model, matrix, levels) -> None:
    """Column j of the triangle product of levels 0..q-1 counts the letters
    of the level-q word j, which block_type_counts gets by recursion."""
    for j in range(model.r):
        counts = symbolic.block_type_counts(model, 0, levels, j + 1)
        column = tuple(matrix.rows[i][j] for i in range(model.r))
        expect(column == tuple(Fraction(c) for c in counts),
               f"{model.name} r={model.r} column {j + 1} differs from block counts")


def _check_frequencies(symbolic, make, r, got) -> None:
    for q, results in got:
        model = make()
        expect(len(results) == (r if model.name == "toeplitz" else 1),
               f"{len(results)} measures for {model.name} r={r}")
        level = symbolic.atlas_words(model, q)
        for result in results:
            word = level.word(result.anchor_letter)
            brute = tuple(Fraction(word.count(c), len(word))
                          for c in range(1, model.r + 1))
            expect(result.frequencies == brute,
                   f"{model.name} r={r} q={q} measure {result.measure_index} "
                   "differs from brute-force counts")


def _check_window(symbolic, start, stop, letters) -> None:
    """Positions >= 0 read the level-n word of 1, positions < 0 the tail of
    the level-n word of 2, for any n with 3**n covering the window."""
    model = symbolic.SubstitutionModel.standard()
    level = 0
    while 3 ** level < max(stop, -start):
        level += 1
    atlas = symbolic.atlas_words(model, level)
    right = atlas.word(1)
    left = atlas.word(2)
    expected = left[len(left) + start:] + right[:stop]
    expect(tuple(letters) == expected,
           f"window [{start}, {stop}) differs from atlas-word expansion")


def _check_atlas(symbolic, letter, word) -> None:
    model = symbolic.SubstitutionModel.standard()
    counts = symbolic.block_type_counts(model, 0, ATLAS_LEVEL, letter)
    expect(len(word) == 3 ** ATLAS_LEVEL
           and tuple(word.count(c) for c in (1, 2)) == counts,
           f"level-{ATLAS_LEVEL} word of {letter} has wrong letter counts")


def _check_occurrences(outcome) -> None:
    model, tables = outcome
    for q, parent, classes in tables:
        low = model.level_length(q)
        high = model.level_length(q + 1)
        total = sum(c.count * (2 ** low - 1) for c in classes)
        expect(total == 2 ** high - 1,
               f"{model.name} r={model.r} q={q} parent {parent}: tile counts "
               "do not reconcile with the patch size")


def _check_partition(report) -> None:
    expect(report["exact"], f"patch partition not exact: {report}")


# (metric, span names, operations they serve, tag filter, kind); see
# spans.span_metrics.
LAYERS = (
    ("symbolic.window_s", "symbolic.window", "op:window", {}, "pass"),
    ("symbolic.atlas_word_s", "symbolic.AtlasWord.word", "op:atlas_word", {},
     "pass"),
    ("symbolic.block_counts_s", "symbolic.block_type_counts", None, {}, "pass"),
    ("measures.compose_paper_s", "measures.compose_range", "op:compose_paper",
     {}, "pass"),
    ("measures.compose_triangle_s", "measures.compose_range",
     "op:compose_triangle", {}, "pass"),
    ("measures.ergodic_toeplitz_s", "measures.ergodic_measure_count",
     "op:ergodic_toeplitz", {}, "pass"),
    ("measures.ergodic_substitution_triangle_s",
     "measures.ergodic_measure_count", "op:ergodic_substitution_triangle", {},
     "pass"),
    ("measures.ergodic_substitution_paper_s", "measures.ergodic_measure_count",
     "op:ergodic_substitution_paper", {}, "pass"),
    ("measures.certify_s", "measures.contraction_certificate", "op:certify",
     {}, "pass"),
    # nested_simplex composes its own product, so the hull time covers the
    # compose_range calls made inside it.
    ("measures.hull_s", ("measures.nested_simplex", "measures.hull_contains",
                         "measures.compose_range"), "op:hull", {}, "pass"),
    # One ergodic count per level precedes the frequencies of its measures.
    ("measures.frequencies_s", ("measures.measure_frequencies",
                                "measures.ergodic_measure_count"),
     "op:frequencies", {}, "pass"),
    ("geometry.occurrence_s", "geometry.occurrence_classes", None, {}, "pass"),
    ("geometry.partition_s", "geometry.patch_partition_check", None, {},
     "pass"),
    ("harmonic.recover_s", "harmonic.boundary_recover", None, {}, "pass"),
    ("harmonic.transport_s", "harmonic.transport_scaling_check", None, {},
     "pass"),
)
COUNTERS = ("measures.max_entry_bits", "measures.ergodic_depth")
REQUEST = "window"
DETAIL = {}
TRACE_LIBRARY = True


def layer_metrics(spans, run_ids) -> dict:
    out = span_metrics(LAYERS, spans, run_ids)
    window_s = out["symbolic.window_s"]
    out["symbolic.window_letters_per_s"] = (
        WINDOWS * WINDOW_LETTERS / window_s if window_s else 0.0)
    return out
