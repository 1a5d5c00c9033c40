"""End-to-end consistency checks tying the independent computation routes
together.  Each check compares two ways of obtaining the same quantity; all
of them passing is strong evidence the pieces compose correctly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial, wraps

from .diffusion import (DiffusionConfig, PathResult, height_law_test, run_paths,
                        simulate_path)
from .geometry import occurrence_classes
from .harmonic import REL_TOL, BoundaryAtoms, boundary_recover, herglotz_evaluate
from .measures import (
    TRIANGLE,
    compose_range,
    contraction_certificate,
    hull_contains,
    mass_conservation_check,
    nested_simplex,
    projective_diameter,
    transition_matrix,
)
from .record import record
from .symbolic import SubstitutionModel, ToeplitzModel


@record
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _check(name):
    """Name a check: its body returns (passed, detail), and the function put
    in its place returns the CheckResult."""
    def named(body):
        @wraps(body)
        def check() -> CheckResult:
            return CheckResult(name, *body())
        return check
    return named


def _models():
    return (
        ("substitution", SubstitutionModel.standard()),
        ("toeplitz-r2", ToeplitzModel.of_rank(2)),
        ("toeplitz-r3", ToeplitzModel.of_rank(3)),
    )


@_check("counting-equivalence")
def check_counting_equivalence():
    """Matrix entries versus dilation-weighted occurrence tallies.

    Each occurrence class of depth d holds 2**d congruent placements of
    weight 2**-d, so the tallies must reproduce the block-count matrix
    exactly, and the class counts must add up to the patch tile budget.
    """
    for label, model in _models():
        for q in (0, 1, 2):
            matrix = transition_matrix(model, q, TRIANGLE)
            low = model.level_length(q)
            high = model.level_length(q + 1)
            for j in range(1, model.r + 1):
                tally = [Fraction(0)] * model.r
                tiles = 0
                for cls in occurrence_classes(model, q, j):
                    tally[cls.child_letter - 1] += Fraction(
                        cls.count, 2**cls.depth
                    )
                    tiles += cls.count * (2**low - 1)
                for i in range(model.r):
                    if tally[i] != matrix.ints[i][j - 1]:
                        return False, (f"{label} level {q} parent {j}: tally "
                                       f"{tally[i]} != entry "
                                       f"{matrix.ints[i][j - 1]}")
                if tiles != 2**high - 1:
                    return False, (f"{label} level {q} parent {j}: {tiles} "
                                   f"tiles != {2**high - 1}")
    return True, ("occurrence tallies match matrix entries and tile budgets "
                  "exactly")


@_check("mass-conservation")
def check_mass_conservation():
    for label, model in _models():
        for q in (0, 1, 2, 3):
            res = mass_conservation_check(model, TRIANGLE, q)
            if not res.conserved:
                return False, f"{label} level {q}: residuals {res.residuals}"
    return True, ("box-count weights are conserved exactly at all checked "
                  "levels")


@_check("nesting")
def check_nesting():
    """Deeper simplices must sit inside shallower ones, exactly."""
    for label, model in _models():
        for n, m in ((1, 3), (1, 4), (2, 4)):
            outer = nested_simplex(model, TRIANGLE, n, m)
            inner = nested_simplex(model, TRIANGLE, n, m + 1)
            if not hull_contains(outer, inner):
                return False, (f"{label}: depth-{m + 1} simplex escapes "
                               f"depth-{m} hull")
    return True, ("depth m+1 vertex hulls lie inside depth m hulls (exact "
                  "barycentrics)")


@_check("contraction")
def check_contraction():
    """Strictly positive matrices must contract, and composed products must
    have no larger diameter than their last factor allows."""
    model = SubstitutionModel.standard()
    report = contraction_certificate(model, TRIANGLE, range(0, 5))
    if report.verdict != "uniformly contracting":
        return False, f"verdict {report.verdict!r} for {model.name}"
    prev = math.inf
    for m in (2, 3, 4, 5):
        diam = projective_diameter(compose_range(model, TRIANGLE, 1, m))
        if diam > prev + 1e-12:
            return False, (f"composed diameter grew from {prev} to {diam} at "
                           f"depth {m}")
        prev = diam
    return True, "positive levels contract and composed diameters are monotone"


def _atoms_interval_mass(measure: BoundaryAtoms, a, b, y) -> float:
    """Closed form of what boundary_recover integrates: the Poisson kernel of
    an atom integrates to an arctangent, the slope term to slope * y."""
    return (math.fsum(m * (math.atan((b - s) / y) - math.atan((a - s) / y))
                      for s, m in measure.atoms)
            + measure.slope * y * (b - a)) / math.pi


@_check("boundary-recovery")
def check_boundary_recovery():
    """Adaptive quadrature of the Poisson extension versus the arctangent
    closed form, within the quadrature's own acceptance rule."""
    cases = (
        (((0.25, 2.0),), 1e-4, (0.25,)),
        (((0.2, 1.0), (0.8, 4.0)), 1e-5, (0.2, 0.8)),
    )
    for atoms, y, breaks in cases:
        measure = BoundaryAtoms(atoms=atoms)
        got = boundary_recover(partial(herglotz_evaluate, measure), 0.0, 1.0,
                               y_probe=y, breakpoints=breaks)
        want = _atoms_interval_mass(measure, 0.0, 1.0, y)
        bound = REL_TOL * max(abs(want) * math.pi, 1.0) / math.pi
        if abs(got - want) > bound:
            return False, (f"atoms {atoms} at height {y}: quadrature {got!r} "
                           f"!= closed form {want!r}")
    return True, ("quadrature of the Poisson extension matches the arctangent "
                  "closed form on 2 atom measures")


#: The seed of the two seeded checks.
_SEED = 2024


@_check("height-law")
def check_height_law():
    """The discrete chain's terminal law is exactly Gaussian; a KS test on a
    fixed seed should never be extreme."""
    config = DiffusionConfig(
        model=SubstitutionModel.standard(),
        dt=1e-3,
        horizon=20.0,
        paths=40,
        seed=_SEED,
    )
    results = run_paths(config, mode="fast")
    stat, pvalue = height_law_test(results)
    return pvalue > 1e-3, (f"KS statistic {stat:.4f}, p-value {pvalue:.4f} "
                           f"on {len(results)} paths")


#: PathResult fields both modes fill: all but the mode's own name.
_SHARED_FIELDS = tuple(f for f in PathResult.__match_args__ if f != "mode")


@_check("mode-agreement")
def check_mode_agreement():
    """Fast mode (vectorized chunks, occupancy from row changes) versus full
    mode (step by step) on the same noise.  Steps of dt = 1 cross several
    rows at a time, and the depth-3 Toeplitz filling truncates the path."""
    jump = truncated = 0
    for label, model in (("substitution", SubstitutionModel.standard()),
                         ("toeplitz-r2-depth3",
                          ToeplitzModel.of_rank(2, max_depth=3))):
        config = DiffusionConfig(model, dt=1.0, horizon=100.0, seed=_SEED,
                                 trace_stride=1)
        fast = simulate_path(config, mode="fast")
        full = simulate_path(config, mode="full")
        differ = [name for name in _SHARED_FIELDS
                  if getattr(fast, name) != getattr(full, name)]
        if differ:
            return False, f"{label}: fast and full mode differ on {differ}"
        rows = [row for _, _, row in fast.trace]
        jump = max([jump] + [abs(b - a) for a, b in zip(rows, rows[1:])])
        truncated += fast.partial
    return True, (f"fast and full mode agree on {len(_SHARED_FIELDS)} fields "
                  f"of 2 paths ({truncated} truncated), with steps of up to "
                  f"{jump} rows")


def run_all() -> list:
    """Every check, in the order defined above."""
    return [check() for check in (
        check_counting_equivalence, check_mass_conservation, check_nesting,
        check_contraction, check_boundary_recovery, check_height_law,
        check_mode_agreement)]
