"""Acceptance suite: one test per published claim, each printing a
single pass/fail line with its measured numbers."""

import math
import random
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from hyptiling import (
    PAPER,
    TRIANGLE,
    AffineMap,
    BoundaryAtoms,
    DiffusionConfig,
    SubstitutionModel,
    ToeplitzModel,
    atlas_words,
    boundary_recover,
    contraction_certificate,
    ergodic_measure_count,
    garnett_compare,
    height_law_test,
    herglotz_evaluate,
    mass_conservation_check,
    measure_frequencies,
    occurrence_classes,
    patch_partition_check,
    run_paths,
    transition_matrix,
    transport_scaling_check,
)

SUB = SubstitutionModel.standard()


def _report(capsys, number, checks, timing=""):
    ok = all(passed for passed, _ in checks)
    failures = "; ".join(msg for passed, msg in checks if not passed)
    detail = failures if failures else "; ".join(msg for _, msg in checks if msg)
    if timing:
        detail = f"{detail} ({timing})" if detail else timing
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {failures}"


def test_criterion_01_toeplitz_measure_counts(capsys):
    # r colors give exactly r extreme measures, certified at 1e-6
    t0 = time.perf_counter()
    checks = []
    for r in (2, 3, 5):
        res = ergodic_measure_count(ToeplitzModel.of_rank(r), tolerance=1e-6)
        checks.append((
            res.status == "stabilized" and res.count == r,
            f"r={r}: count {res.count} {res.status} at depth {res.depth}",
        ))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 10.0, ""))
    _report(capsys, 1, checks, f"{elapsed:.2f}s < 10s")


def test_criterion_02_substitution_unique_and_contracting(capsys):
    t0 = time.perf_counter()
    checks = []
    for scheme in (TRIANGLE, PAPER):
        res = ergodic_measure_count(SUB, scheme)
        checks.append((
            res.status == "stabilized" and res.count == 1,
            f"{scheme}: count {res.count}",
        ))
    tri = contraction_certificate(SUB, TRIANGLE, range(1, 7))
    bound = math.tanh(math.log(4.0) / 4.0) + 1e-12
    worst = max(lc.factor for lc in tri.levels)
    checks.append((worst <= bound, f"triangle factor {worst:.12f} <= {bound:.12f}"))
    pap = contraction_certificate(SUB, PAPER, range(1, 7))
    strict = all(lc.strictly_positive and lc.gap > 0.0 for lc in pap.levels)
    smallest = min(lc.gap for lc in pap.levels)
    checks.append((strict, f"closed-form gaps positive through level 6 "
                           f"(min {smallest:.3e})"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 5.0, ""))
    _report(capsys, 2, checks, f"{elapsed:.2f}s < 5s")


def test_criterion_03_closed_form_matrices_exact(capsys):
    m1 = transition_matrix(SUB, 1, PAPER)
    want1 = ((Fraction(5, 4), Fraction(1)),
             (Fraction(1, 16), Fraction(5, 16)))
    t = Fraction(1, 2**8)
    s = Fraction(1, 2**16)
    m2 = transition_matrix(SUB, 2, PAPER)
    want2 = ((1 + t, Fraction(1)), (s, t + s))
    checks = [
        (m1.rows == want1, "level 1 entries bit-exact"),
        (m2.rows == want2, "level 2 entries bit-exact"),
    ]
    _report(capsys, 3, checks)


def test_criterion_04_frequencies_match_brute_force(capsys):
    t0 = time.perf_counter()
    checks = []
    cases = (
        [(ToeplitzModel.of_rank(r), q) for r in (2, 3) for q in range(1, 5)]
        + [(SUB, q) for q in range(1, 11)]
    )
    compared = 0
    for model, q in cases:
        stab = ergodic_measure_count(model)
        lvl = atlas_words(model, q)
        for idx in range(stab.count):
            got = measure_frequencies(model, TRIANGLE, idx, q, stab)
            word = lvl.word(got.anchor_letter)
            brute = tuple(
                Fraction(word.count(c), len(word))
                for c in range(1, model.r + 1)
            )
            compared += 1
            if got.frequencies != brute:
                checks.append((False, f"{model.name} r={model.r} q={q} "
                                      f"measure {idx} mismatch"))
    elapsed = time.perf_counter() - t0
    checks.append((compared == 30, f"{compared} frequency vectors exact"))
    checks.append((elapsed < 30.0, ""))
    _report(capsys, 4, checks, f"{elapsed:.2f}s < 30s")


def test_criterion_05_mass_conservation(capsys):
    checks = []
    models = [SUB] + [ToeplitzModel.of_rank(r) for r in (2, 3, 5)]
    for model in models:
        conserved = all(
            mass_conservation_check(model, TRIANGLE, q).conserved
            for q in range(7)
        )
        checks.append((conserved,
                       f"{model.name} r={model.r} conserved through level 6"))
    paper = mass_conservation_check(SUB, PAPER, 1)
    checks.append((
        paper.residuals == (Fraction(81, 16), Fraction(81, 16)),
        "closed-form level-1 residual = 81/16 per column",
    ))
    _report(capsys, 5, checks)


def test_criterion_06_transport_exactness(capsys):
    t0 = time.perf_counter()
    rng = random.Random(12345)
    bad = 0
    for _ in range(100):
        g = AffineMap(
            Fraction(2) ** rng.randint(-10, 10),
            Fraction(rng.randint(-1000, 1000), 2 ** rng.randint(0, 10)),
        )
        x0 = Fraction(rng.randint(-500, 500), 2 ** rng.randint(0, 8))
        width = Fraction(rng.randint(0, 300), 2 ** rng.randint(0, 8))
        y0 = Fraction(rng.randint(1, 400), 2 ** rng.randint(0, 8))
        ratio = Fraction(rng.randint(2, 50))
        coeff = Fraction(rng.randint(0, 60), 2 ** rng.randint(0, 6))
        check = transport_scaling_check(coeff, (x0, x0 + width, y0, y0 * ratio), g)
        if not check.equal:
            bad += 1
    elapsed = time.perf_counter() - t0
    checks = [
        (bad == 0, f"100 random dyadic transport identities exact"),
        (elapsed < 1.0, ""),
    ]
    _report(capsys, 6, checks, f"{elapsed:.3f}s < 1s")


def test_criterion_07_boundary_recovery(capsys):
    t0 = time.perf_counter()
    atom = BoundaryAtoms(atoms=((0.25, 2.0),))
    got = boundary_recover(partial(herglotz_evaluate, atom), 0.0, 1.0,
                           y_probe=1e-4, breakpoints=(0.25,))
    rel = abs(got - 2.0) / 2.0
    slope_only = BoundaryAtoms(atoms=(), slope=3.0)
    leak = abs(boundary_recover(partial(herglotz_evaluate, slope_only),
                                -2.0, 2.0, y_probe=1e-4))
    elapsed = time.perf_counter() - t0
    checks = [
        (rel <= 0.02, f"atom mass error {rel:.2e} <= 2%"),
        (leak < 1e-3, f"pure-slope interval mass {leak:.2e} < 1e-3"),
        (elapsed < 5.0, ""),
    ]
    _report(capsys, 7, checks, f"{elapsed:.2f}s < 5s")


def test_criterion_08_height_law_at_scale(capsys):
    t0 = time.perf_counter()
    cfg = DiffusionConfig(SUB, dt=1e-3, horizon=100.0, paths=10**4, seed=0)
    results = run_paths(cfg)
    stat, pvalue = height_law_test(results)
    mean_disp = float(np.mean([r.displacement for r in results]))
    elapsed = time.perf_counter() - t0
    checks = [
        (pvalue >= 0.01, f"KS p={pvalue:.3f} >= 0.01 (stat {stat:.4f})"),
        (abs(mean_disp + 50.0) <= 0.3,
         f"mean displacement {mean_disp:.3f} within 0.3 of -50"),
        (elapsed < 120.0, ""),
    ]
    _report(capsys, 8, checks, f"{elapsed:.1f}s < 120s")


def test_criterion_09_occupancy_matches_frequencies(capsys):
    t0 = time.perf_counter()
    cfg = DiffusionConfig(SUB, dt=1e-3, horizon=2000.0, paths=50, seed=0)
    results = run_paths(cfg)
    letters = garnett_compare(cfg, q=0, results=results)
    blocks = garnett_compare(cfg, q=1, results=results)
    elapsed = time.perf_counter() - t0
    frac1 = letters["labels"][0]["empirical"]
    dev = max(abs(row["empirical"] - 0.5) for row in blocks["labels"])
    checks = [
        (letters["partial_paths"] == 0, "all 50 paths complete"),
        (0.45 <= frac1 <= 0.55, f"color-1 time fraction {frac1:.4f} in [0.45, 0.55]"),
        (dev <= 0.05, f"level-1 block fractions within {dev:.4f} <= 0.05 of 1/2"),
        (elapsed < 300.0, ""),
    ]
    _report(capsys, 9, checks, f"{elapsed:.1f}s < 300s")


def test_criterion_10_partition_and_occurrence_counts(capsys):
    checks = []
    exact = all(
        patch_partition_check(0, range(0, 1), depth)["exact"]
        for depth in range(1, 13)
    )
    multi = patch_partition_check(6, range(-2, 3), 12)["exact"]
    checks.append((exact and multi, "patch partitions exact through 12 rows"))
    models = [SUB, ToeplitzModel.of_rank(2), ToeplitzModel.of_rank(3)]
    reconciled = True
    for model in models:
        for q in range(3):
            low = model.level_length(q)
            high = model.level_length(q + 1)
            for parent in range(1, model.r + 1):
                total = sum(
                    c.count * (2**low - 1)
                    for c in occurrence_classes(model, q, parent)
                )
                if total != 2**high - 1:
                    reconciled = False
    checks.append((reconciled,
                   "occurrence tile counts reconcile with patch sizes, q <= 2"))
    _report(capsys, 10, checks)
