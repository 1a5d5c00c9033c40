"""Transition matrices and the projective-limit measure computation.

A level-q transition matrix sends level-(q+1) box masses to level-q box
masses: entry (i, j) is the total dilation weight of all placements of a
level-q patch of type i inside the level-(q+1) patch of type j.  Each
occurrence class contributes count * 2**(-depth) = 1, so under the triangle
patch shape the entry is simply the number of level-q blocks labelled i in
the level-(q+1) word j ("triangle" scheme).  The "paper" scheme instead uses
the closed-form matrix family published for the 112/122 substitution; the
two schemes disagree, and both are kept so the discrepancy can be reported
rather than silently resolved.

Everything here is exact rational arithmetic; floats appear only in Hilbert
distances and contraction factors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import (
    BudgetError,
    DegeneracyError,
    DomainError,
    InconclusiveError,
    UnsupportedSchemeError,
)
from .exact import log_ratio, reduce_dyadic, scalar_to_json, to_float
from .record import record
from .symbolic import SubstitutionModel, as_model, block_type_counts, rule_112_122

TRIANGLE = "triangle"
PAPER = "paper"
SCHEMES = (TRIANGLE, PAPER)

#: Entries above this many bits abort deep compositions instead of thrashing.
DEFAULT_BIT_BUDGET = 10**6


def _require_scheme(scheme: str):
    if scheme not in SCHEMES:
        raise UnsupportedSchemeError(
            f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
        )


@record
class TransitionMatrix:
    """Entry (i, j) is ints[i][j] / 2**shift: shift 0 for the triangle
    scheme, 2*3**q - 2 for the level-q closed form.  Products multiply the
    ints and add the shifts, so no gcd is ever taken."""

    level: int
    scheme: str
    ints: tuple  # tuple of tuples of int, ints[i][j]
    shift: int = 0

    @property
    def r(self) -> int:
        return len(self.ints)

    @cached_property
    def rows(self) -> tuple:
        """Exact entries: the ints when shift is 0, else reduced Fractions.
        Cached; the library never asks, as huge entries cost seconds of gcd."""
        if self.shift == 0:
            return self.ints
        den = 1 << self.shift
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.ints)

    def column_sums(self) -> tuple:
        den = 1 << self.shift
        return tuple(Fraction(sum(col), den) for col in zip(*self.ints))

    def strictly_positive(self) -> bool:
        return all(x > 0 for row in self.ints for x in row)

    def entry_bits(self) -> int:
        """Largest numerator or denominator bit length of the reduced entries."""
        reduced = (reduce_dyadic(x, self.shift) for row in self.ints for x in row)
        return max(max(n.bit_length(), d.bit_length()) for n, d in reduced)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "scheme": self.scheme,
            "rows": self.r,
            "cols": self.r,
            "entries": [
                [scalar_to_json(x, self.shift) for x in row] for row in self.ints
            ],
        }


def transition_matrix(model_like, q: int, scheme: str = TRIANGLE) -> TransitionMatrix:
    """The matrix carrying level-(q+1) masses down to level q."""
    _require_scheme(scheme)
    model = as_model(model_like)
    if scheme == TRIANGLE:
        if q < 0:
            raise DomainError(f"triangle matrices need level >= 0, got {q}")
        cols = [model.children_count_vector(q + 1, j) for j in range(1, model.r + 1)]
        return TransitionMatrix(level=q, scheme=scheme, ints=tuple(zip(*cols)))
    return _paper_matrix(model, q)


def _paper_matrix(model, q: int) -> TransitionMatrix:
    if not isinstance(model, SubstitutionModel) or model.rule != rule_112_122():
        raise UnsupportedSchemeError(
            "the published closed-form matrices exist only for the "
            "two-letter 112/122 substitution"
        )
    if q < 1:
        raise DomainError(f"published matrices start at level 1, got {q}")
    if 2 * 3**q > 10**8:
        raise BudgetError(
            f"level-{q} published matrix needs 2*3**{q}-bit denominators"
        )
    # ((1 + t, 1), (s, t + s)) with t = 2**(1 - 3**q), s = 2**(2 - 2*3**q),
    # scaled by 2**shift = 1 / s.
    shift = 2 * 3**q - 2
    one, t = 1 << shift, 1 << (3**q - 1)
    ints = ((one + t, one), (1, t + 1))
    return TransitionMatrix(level=q, scheme=PAPER, ints=ints, shift=shift)


def _prefix_products(model, scheme: str, q_from: int, q_to: int):
    """Yield (q, exact product of the level matrices q_from .. q) for each
    q in q_from .. q_to-1: the one composition loop of this module."""
    ints, shift = None, 0
    for q in range(q_from, q_to):
        level = transition_matrix(model, q, scheme)
        if ints is None:
            ints = level.ints
        else:
            cols = tuple(zip(*level.ints))
            ints = tuple(
                tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                for row in ints
            )
        shift += level.shift
        yield q, TransitionMatrix(level=q_from, scheme=scheme, ints=ints,
                                  shift=shift)


def compose_range(model_like, scheme: str, q_from: int, q_to: int,
                  bit_budget: int = DEFAULT_BIT_BUDGET) -> TransitionMatrix:
    """Exact product of the level matrices q_from .. q_to-1, left to right.

    An empty range gives the identity.  Aborts with a budget error once any
    reduced entry outgrows bit_budget bits.
    """
    _require_scheme(scheme)
    model = as_model(model_like)
    if q_from > q_to:
        raise DomainError(f"reversed level range [{q_from}, {q_to})")
    identity = tuple(tuple(int(i == j) for j in range(model.r))
                     for i in range(model.r))
    product = TransitionMatrix(level=q_from, scheme=scheme, ints=identity)
    for q, product in _prefix_products(model, scheme, q_from, q_to):
        if product.entry_bits() > bit_budget:
            raise BudgetError(
                f"composition through level {q} exceeds the "
                f"{bit_budget}-bit entry budget"
            )
    return product


# ---------------------------------------------------------------------------
# Simplices and the Hilbert metric


@record
class SimplexVertices:
    """Images of the level-m unit faces inside the level-n simplex."""

    base_level: int
    depth: int
    vertices: tuple  # tuple of tuples of Fraction, each summing to 1


def _vertex(ray) -> tuple:
    """The point of the simplex on the ray of a nonnegative integer vector."""
    total = sum(ray)
    if total == 0:
        raise DegeneracyError("zero column cannot be normalized")
    return tuple(Fraction(x, total) for x in ray)


def nested_simplex(model_like, scheme: str, n: int, m: int,
                   bit_budget: int = DEFAULT_BIT_BUDGET) -> SimplexVertices:
    """Vertices of the depth-m simplex seen at level n: normalized columns
    of the exact product of matrices n .. m-1."""
    if m < n:
        raise DomainError(f"depth {m} below base level {n}")
    product = compose_range(model_like, scheme, n, m, bit_budget)
    return SimplexVertices(
        base_level=n,
        depth=m,
        vertices=tuple(_vertex(col) for col in zip(*product.ints)),
    )


def _validate_simplex_point(x) -> tuple:
    vec = tuple(Fraction(v) if isinstance(v, (int, Fraction)) else v for v in x)
    total = 0.0
    for v in vec:
        fv = float(v)
        if fv < 0:
            raise DomainError("simplex points need nonnegative coordinates")
        total += fv
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"coordinates sum to {total}, not 1")
    return vec


def hilbert_distance(x, y) -> float:
    """Hilbert projective distance between two simplex points.

    max over coordinate pairs of ln((x_i/y_i) * (y_j/x_j)); infinite when the
    supports differ, zero on the shared support extremes.
    """
    vx = _validate_simplex_point(x)
    vy = _validate_simplex_point(y)
    if len(vx) != len(vy):
        raise DomainError("dimension mismatch")
    return projective_distance(vx, vy)


def projective_distance(vx, vy) -> float:
    """Hilbert distance on rays of the positive cone (no simplex validation).

    The extreme ratios x_i / y_i are picked by exact cross multiplication,
    so exact input is rounded once.  The distance ignores scaling, so
    integer matrix columns need no normalization.
    """
    hi = lo = None
    for x, y in zip(vx, vy):
        if x == 0 and y == 0:
            continue
        if x == 0 or y == 0:
            return math.inf
        if hi is None:
            hi = lo = (x, y)
        elif x * hi[1] > hi[0] * y:
            hi = (x, y)
        elif x * lo[1] < lo[0] * y:
            lo = (x, y)
    if hi is None:
        raise DegeneracyError("zero vectors have no projective distance")
    num, den = hi[0] * lo[1], lo[0] * hi[1]
    if isinstance(num, float) or isinstance(den, float):
        return math.log(hi[0] / hi[1]) - math.log(lo[0] / lo[1])
    return log_ratio(num.numerator * den.denominator,
                     num.denominator * den.numerator)


def hilbert_distance_segment(x, y) -> float:
    """Cross-ratio form of the same distance, as an independent route.

    Extends the chord through x, y to the simplex boundary and returns
    |ln((m+l)(m+r)/(l r))| with m the chord length and l, r the two boundary
    gaps.  Coincident points give 0; a boundary endpoint gives inf.
    """
    vx = [Fraction(v) for v in _validate_simplex_point(x)]
    vy = [Fraction(v) for v in _validate_simplex_point(y)]
    if vx == vy:
        return 0.0
    # Walk from y in direction (x - y): coordinates hit zero at parameters
    # t_plus >= 1 (beyond x) and t_minus <= 0 (behind y).
    t_plus, t_minus = None, None
    for a, b in zip(vx, vy):
        d = a - b
        if d == 0:
            continue
        t_zero = -b / d
        if d < 0:
            t_plus = t_zero if t_plus is None else min(t_plus, t_zero)
        else:
            t_minus = t_zero if t_minus is None else max(t_minus, t_zero)
    if t_plus is None or t_minus is None:
        raise DomainError("points do not span a chord inside the simplex")
    chord = math.sqrt(sum(float(a - b) ** 2 for a, b in zip(vx, vy)))
    l_gap = float(-t_minus) * chord
    r_gap = float(t_plus - 1) * chord
    if l_gap == 0.0 or r_gap == 0.0:
        return math.inf
    return abs(
        math.log((chord + l_gap) * (chord + r_gap) / (l_gap * r_gap))
    )


def projective_diameter(matrix: TransitionMatrix) -> float:
    """Diameter of the image cone: max pairwise distance of the columns.

    Infinite as soon as two columns have different supports (zero entries).
    """
    cols = list(zip(*matrix.ints))  # scaled columns: the same rays
    diam = 0.0
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            diam = max(diam, projective_distance(cols[i], cols[j]))
    return diam


def birkhoff_factor(diameter: float) -> tuple:
    """(tanh(diameter/4), 1 - tanh(diameter/4)) with the gap kept stable.

    The gap equals 2 / (exp(diameter/2) + 1); for large diameters the direct
    tanh rounds to 1.0 while the gap is still a positive float.
    """
    if diameter < 0:
        raise DomainError("diameter must be nonnegative")
    if math.isinf(diameter):
        return (1.0, 0.0)
    half = diameter / 2.0
    if half > 700.0:
        gap = 2.0 * math.exp(-half)
    else:
        gap = 2.0 / (math.exp(half) + 1.0)
    return (math.tanh(diameter / 4.0), gap)


# ---------------------------------------------------------------------------
# Contraction certificates


@record
class LevelContraction:
    level: int
    diameter: float
    factor: float
    gap: float
    strictly_positive: bool
    note: str

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "diameter": self.diameter if math.isfinite(self.diameter) else "inf",
            "factor": self.factor,
            "one_minus_factor": self.gap,
            "strictly_positive": self.strictly_positive,
            "note": self.note,
        }


@record
class ContractionReport:
    scheme: str
    levels: tuple  # of LevelContraction
    verdict: str

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "levels": [lc.to_json() for lc in self.levels],
            "verdict": self.verdict,
        }


def contraction_certificate(model_like, scheme: str, levels) -> ContractionReport:
    """Per-level projective diameters and contraction factors.

    Verdict "uniformly contracting" requires every level strictly positive
    with a positive contraction gap; a single zero entry withholds it.
    """
    model = as_model(model_like)
    reports = []
    for q in levels:
        matrix = transition_matrix(model, q, scheme)
        positive = matrix.strictly_positive()
        diam = projective_diameter(matrix)
        factor, gap = birkhoff_factor(diam)
        if not positive:
            note = "zero entries: diameter infinite, verdict withheld"
        elif diam == 0.0:
            note = "degenerate image: all columns projectively equal"
        else:
            note = ""
        reports.append(
            LevelContraction(
                level=q,
                diameter=diam,
                factor=factor,
                gap=gap,
                strictly_positive=positive,
                note=note,
            )
        )
    if reports and all(lc.strictly_positive and lc.gap > 0.0 for lc in reports):
        verdict = "uniformly contracting"
    else:
        verdict = "withheld"
    return ContractionReport(scheme=scheme, levels=tuple(reports), verdict=verdict)


# ---------------------------------------------------------------------------
# Ergodic measure count


@record
class ErgodicCount:
    count: int
    status: str  # "stabilized" | "inconclusive"
    base_level: int
    depth: int
    tolerance: float
    max_matched_distance: float
    clusters: tuple  # tuple of tuples of 0-based column indices
    witnesses: tuple  # one exact vertex per cluster, at the final depth
    note: str = ""

    def to_json(self) -> dict:
        return {
            "ergodic_count": self.count,
            "status": self.status,
            "base_level": self.base_level,
            "depth": self.depth,
            "tolerance": self.tolerance,
            "max_matched_distance": (
                self.max_matched_distance
                if math.isfinite(self.max_matched_distance)
                else "inf"
            ),
            "clusters": [list(c) for c in self.clusters],
            "witnesses": [
                [to_float(v) for v in vertex] for vertex in self.witnesses
            ],
            "note": self.note,
        }


def _cluster_rays(rays, tol: float) -> tuple:
    clusters = []
    for idx, ray in enumerate(rays):
        for members in clusters:
            if projective_distance(rays[members[0]], ray) <= tol:
                members.append(idx)
                break
        else:
            clusters.append([idx])
    return tuple(tuple(c) for c in clusters)


def ergodic_measure_count(model_like, scheme: str = TRIANGLE,
                          tolerance: float = 1e-6, max_depth: int = 36,
                          base_level: int = 1,
                          bit_budget: int = DEFAULT_BIT_BUDGET) -> ErgodicCount:
    """Count the extreme invariant masses by deepening the nested simplex.

    Vertices at depth m are the normalized columns of the exact product of
    level matrices base_level .. m-1.  The count is certified once two
    consecutive depths produce the same cluster count with every matched
    vertex within the tolerance; otherwise the result is inconclusive.
    """
    _require_scheme(scheme)
    model = as_model(model_like)
    if max_depth < base_level + 2:
        raise DomainError("max_depth leaves no room for a consecutive-depth pair")

    products = _prefix_products(model, scheme, base_level, max_depth)
    prev = tuple(zip(*next(products)[1].ints))
    prev_clusters = _cluster_rays(prev, tolerance)
    note, depth, moved = "", base_level + 1, math.inf
    try:
        for q, product in products:
            if product.entry_bits() > bit_budget:
                note = f"entry growth passed the {bit_budget}-bit budget at depth {q + 1}"
                break
            cur = tuple(zip(*product.ints))
            cur_clusters = _cluster_rays(cur, tolerance)
            depth = q + 1
            moved = math.inf  # a depth whose cluster count changed
            if len(cur_clusters) == len(prev_clusters):
                moved = max(projective_distance(a, b) for a, b in zip(prev, cur))
            prev, prev_clusters = cur, cur_clusters
            if moved <= tolerance:
                break
    except BudgetError as err:
        note = str(err)
    stabilized = moved <= tolerance
    return ErgodicCount(
        count=len(prev_clusters),
        status="stabilized" if stabilized else "inconclusive",
        base_level=base_level,
        depth=depth,
        tolerance=tolerance,
        max_matched_distance=moved if stabilized else math.inf,
        clusters=prev_clusters,
        witnesses=tuple(_vertex(prev[members[0]]) for members in prev_clusters),
        note="" if stabilized else note or (
            f"no consecutive-depth match within {tolerance} by depth {max_depth}"),
    )


def hull_membership(outer: SimplexVertices, point) -> tuple:
    """Exact barycentric coordinates of a point in the outer vertex hull.

    Solves the linear system over Fractions; membership holds iff every
    coordinate is nonnegative (they sum to 1 automatically for simplex data).
    """
    verts = outer.vertices
    r = len(verts)
    vec = [Fraction(v) for v in point]
    if len(vec) != r:
        raise DomainError("dimension mismatch")
    # Augmented system: columns are vertices, plus the affine constraint.
    matrix = [[verts[j][i] for j in range(r)] + [vec[i]] for i in range(r)]
    matrix.append([Fraction(1)] * r + [Fraction(1)])
    cols = r
    pivot_rows = []
    row_used = [False] * len(matrix)
    for c in range(cols):
        pivot = None
        for ri, row in enumerate(matrix):
            if not row_used[ri] and row[c] != 0:
                pivot = ri
                break
        if pivot is None:
            raise DegeneracyError("vertex matrix is singular")
        row_used[pivot] = True
        pivot_rows.append(pivot)
        inv = 1 / matrix[pivot][c]
        matrix[pivot] = [x * inv for x in matrix[pivot]]
        for ri, row in enumerate(matrix):
            if ri != pivot and row[c] != 0:
                factor = row[c]
                matrix[ri] = [x - factor * p for x, p in zip(row, matrix[pivot])]
    for ri, row in enumerate(matrix):
        if not row_used[ri] and row[cols] != 0:
            raise DegeneracyError("inconsistent system: point outside affine span")
    coords = [Fraction(0)] * cols
    for c, ri in enumerate(pivot_rows):
        coords[c] = matrix[ri][cols]
    return tuple(coords)


def hull_contains(outer: SimplexVertices, inner: SimplexVertices) -> bool:
    """Exact check that every inner vertex lies in the outer hull."""
    for vertex in inner.vertices:
        coords = hull_membership(outer, vertex)
        if any(c < 0 for c in coords):
            return False
    return True


# ---------------------------------------------------------------------------
# Mass conservation and frequencies


@record
class MassResiduals:
    level: int
    scheme: str
    weights: tuple  # level-q word lengths per letter
    residuals: tuple  # per parent letter, exact

    @property
    def conserved(self) -> bool:
        return all(x == 0 for x in self.residuals)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "scheme": self.scheme,
            "weights": [str(w) for w in self.weights],
            "residuals": [scalar_to_json(x) for x in self.residuals],
            "conserved": self.conserved,
        }


def mass_conservation_check(model_like, scheme: str, q: int) -> MassResiduals:
    """Residual of (level-(q+1) weight) - sum_i (level-q weight) * entry(i, j).

    Weights are word lengths, i.e. patch areas in units of the prototile
    leafwise area.  The triangle scheme conserves mass identically; the
    published closed-form matrices do not, and the exact residual is the
    cleanest statement of that mismatch.
    """
    model = as_model(model_like)
    matrix = transition_matrix(model, q, scheme)
    w_low = model.level_length(q)
    w_high = model.level_length(q + 1)
    residuals = tuple(Fraction(w_high) - w_low * c for c in matrix.column_sums())
    return MassResiduals(
        level=q,
        scheme=scheme,
        weights=tuple(w_low for _ in range(model.r)),
        residuals=residuals,
    )


@record
class FrequencyResult:
    measure_index: int
    anchor_letter: int
    level: int
    status: str
    frequencies: tuple  # exact Fractions summing to 1

    def to_json(self) -> dict:
        return {
            "measure": self.measure_index,
            "anchor_letter": self.anchor_letter,
            "level": self.level,
            "status": self.status,
            "frequencies": [scalar_to_json(f) for f in self.frequencies],
            "floats": [to_float(f) for f in self.frequencies],
        }


def measure_frequencies(model_like, scheme: str, measure_index: int,
                        q: int, stabilization: ErgodicCount = None) -> FrequencyResult:
    """Letter frequencies of one extreme measure, at finite depth q.

    The measure indexed by a stabilized cluster is anchored at that cluster's
    lowest column letter; its depth-q frequency vector is the letter-count
    vector of the level-q word with that label, divided by the word length.
    Exact rationals; the reported level is the depth of the estimate.
    """
    model = as_model(model_like)
    if stabilization is None:
        stabilization = ergodic_measure_count(model, scheme)
    if stabilization.status != "stabilized":
        raise InconclusiveError(
            "measure frequencies need a stabilized ergodic count; "
            f"got status {stabilization.status!r}"
        )
    if not (0 <= measure_index < stabilization.count):
        raise DomainError(
            f"measure index {measure_index} outside 0..{stabilization.count - 1}"
        )
    clusters = sorted(stabilization.clusters, key=min)
    anchor = min(clusters[measure_index]) + 1
    counts = block_type_counts(model, 0, q, anchor)
    length = model.level_length(q)
    return FrequencyResult(
        measure_index=measure_index,
        anchor_letter=anchor,
        level=q,
        status="stabilized",
        frequencies=tuple(Fraction(c, length) for c in counts),
    )

