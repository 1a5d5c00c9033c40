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
from functools import cached_property, partial, reduce
from itertools import combinations, repeat
from operator import add, lshift, ne, not_

from .errors import (
    BudgetError,
    DegeneracyError,
    DomainError,
    InconclusiveError,
    SizeError,
    UnsupportedSchemeError,
    cap,
)
from .exact import decimal_string, log_ratio, scalar_to_json, to_float
from .record import record
from .symbolic import SubstitutionModel, _require_length

TRIANGLE = "triangle"
PAPER = "paper"
SCHEMES = (TRIANGLE, PAPER)

#: Weights up to this many bits multiply: cheaper there than shifts and an add.
_SHIFT_BITS = 64


def _require_matrices(model, scheme: str):
    """A known scheme, and r x r matrices within the matrix-entries cap."""
    if scheme not in SCHEMES:
        raise UnsupportedSchemeError(
            f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
        )
    if model.r**2 > cap("matrix_entries"):
        raise SizeError(f"{model.r} x {model.r} matrices hold {model.r**2} "
                        f"entries, over the cap {cap('matrix_entries')}")


@record
class TransitionMatrix:
    """Entry (i, j) is ints[i][j] / 2**shift: shift 0 for the triangle
    scheme, 2*3**q - 2 for the level-q closed form.  Products add the shifts
    and multiply the ints (wide two-bit ones by shifts), so no gcd is taken."""

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
        """Largest numerator or denominator bit length of the reduced entries,
        read off the tz trailing zeros that reducing x / 2**shift strips."""
        shift = self.shift
        if not shift:  # denominators 1
            return max(1, max(x.bit_length() for row in self.ints for x in row))
        tzs = ((x, min((x & -x).bit_length() - 1, shift) if x else shift)
               for row in self.ints for x in row)
        return max(max(x.bit_length() - tz, shift - tz + 1) for x, tz in tzs)

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


def transition_matrix(model, q: int, scheme: str = TRIANGLE) -> TransitionMatrix:
    """The matrix carrying level-(q+1) masses down to level q."""
    _require_matrices(model, scheme)
    if scheme == TRIANGLE:
        if q < 0:
            raise DomainError(f"triangle matrices need level >= 0, got {q}")
        cols = [model.children_count_vector(q + 1, j) for j in range(1, model.r + 1)]
        # From a list, as in _prefix_products.
        return TransitionMatrix(level=q, scheme=scheme,
                                ints=tuple([*zip(*cols)]))
    return _paper_matrix(model, q)


def _paper_matrix(model, q: int) -> TransitionMatrix:
    if model != SubstitutionModel.standard():
        raise UnsupportedSchemeError(
            "the published closed-form matrices exist only for the "
            "two-letter 112/122 substitution"
        )
    if q < 1:
        raise DomainError(f"published matrices start at level 1, got {q}")
    # ((1 + t, 1), (s, t + s)) with t = 2**(1 - 3**q), s = 2**(2 - 2*3**q),
    # scaled by 2**shift = 1 / s, the entry of the most bits.
    shift = 2 * 3**q - 2
    if over := _over_budget(q, 2, shift + 1):  # before any int is built
        raise BudgetError(over)
    one, t = 1 << shift, 1 << (3**q - 1)
    ints = ((one + t, one), (1, t + 1))
    return TransitionMatrix(level=q, scheme=PAPER, ints=ints, shift=shift)


def _scaled(col, x: int):
    """Nonzero x times each entry of col, lazily: by shifts when x has at
    most two set bits, as every closed-form entry has, else by a multiply."""
    low = x & -x
    high = x ^ low  # negative, so never a power of two, when x < 0
    if high & (high - 1):
        return map(x.__mul__, col)
    terms = map(lshift, col, repeat(low.bit_length() - 1))
    if not high:
        return terms
    return map(add, terms, map(lshift, col, repeat(high.bit_length() - 1)))


def _over_budget(q: int, r: int, bits: int) -> str:
    """Why the entry or product budget refuses a product through level q of
    r x r entries of up to `bits` bits; "" if neither does."""
    if bits > cap("entry_bits"):
        return (f"composition through level {q} exceeds the "
                f"{cap('entry_bits')}-bit entry budget")
    if r * r * bits > cap("product_bits"):
        return (f"composition through level {q} exceeds the "
                f"{cap('product_bits')}-bit product budget of {r} x {r} "
                "entries")
    return ""


def _prefix_products(model, scheme: str, q_from: int, q_to: int):
    """Yield (q, exact product of the level matrices q_from .. q) for each
    q in q_from .. q_to-1: the one composition loop of the package, and the
    one place that refuses a product, by `_over_budget`, before yielding it.
    The product is kept by columns; column j of the next one sums x times
    column k over the nonzero entries x = (k, j) of the level matrix only; a
    weight wider than _SHIFT_BITS is applied by `_scaled`."""
    cols, shift, add_maps = None, 0, partial(map, add)
    for q in range(q_from, q_to):
        level = transition_matrix(model, q, scheme)
        if cols is None:
            cols = list(zip(*level.ints))
        else:
            cols = [list(reduce(add_maps, [
                _scaled(col, x) if x.bit_length() > _SHIFT_BITS
                else map(x.__mul__, col) for col, x in zip(cols, weights) if x]))
                for weights in zip(*level.ints)]
        shift += level.shift
        # From a list: CPython's free lists keep tuples shrunk from a zip.
        product = TransitionMatrix(level=q_from, scheme=scheme,
                                   ints=tuple([*zip(*cols)]), shift=shift)
        if over := _over_budget(q, model.r, product.entry_bits()):
            raise BudgetError(over)
        yield q, product


def compose_range(model, scheme: str, q_from: int,
                  q_to: int) -> TransitionMatrix:
    """Exact product of the level matrices q_from .. q_to-1, left to right.

    An empty range gives the identity.  The product loop refuses a product
    over the entry or product budget; a triangle range gets that refusal up
    front where its column sums decide it: each column of the product of
    levels q_from .. q sums to B, the product of their branchings, so its
    entry bits lie between those of ceil(B / r) and B, and the first level
    whose B is refused is the loop's if ceil(B / r) is refused alike.
    """
    _require_matrices(model, scheme)
    if q_from > q_to:
        raise DomainError(f"reversed level range [{q_from}, {q_to})")
    total, r = 1, model.r
    for q in range(q_from, q_to) if scheme == TRIANGLE and q_from >= 0 else ():
        total *= model.branching(q)
        if over := _over_budget(q, r, total.bit_length()):
            if over == _over_budget(q, r, (-(-total // r)).bit_length()):
                raise BudgetError(over)
            break
    identity = tuple(tuple(int(i == j) for j in range(model.r))
                     for i in range(model.r))
    product = TransitionMatrix(level=q_from, scheme=scheme, ints=identity)
    for _, product in _prefix_products(model, scheme, q_from, q_to):
        pass
    return product


# ---------------------------------------------------------------------------
# Simplices and the Hilbert metric


def _vertex(ray) -> tuple:
    """The point of the simplex on the ray of a nonnegative integer vector."""
    total = sum(ray)
    if total == 0:
        raise DegeneracyError("zero column cannot be normalized")
    return tuple(Fraction(x, total) for x in ray)


def nested_simplex(model, scheme: str, n: int, m: int) -> tuple:
    """Exact vertices of the depth-m simplex seen at level n: normalized
    columns of the exact product of matrices n .. m-1."""
    if m < n:
        raise DomainError(f"depth {m} below base level {n}")
    product = compose_range(model, scheme, n, m)
    return tuple(_vertex(col) for col in zip(*product.ints))


def projective_distance(vx, vy) -> float:
    """Hilbert distance on rays of the positive cone.

    The extreme ratios x_i / y_i are picked by exact cross multiplication,
    so exact input is rounded once.  The distance ignores scaling, so
    integer matrix columns need no normalization.  Rays of different
    supports are infinitely far apart, decided before any multiplication.
    """
    if any(map(ne, map(not_, vx), map(not_, vy))):
        return math.inf
    hi = lo = None
    for x, y in zip(vx, vy):
        if not x:  # zero in both rays
            continue
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


def projective_diameter(matrix: TransitionMatrix) -> float:
    """Diameter of the image cone: max pairwise distance of the columns.

    Infinite as soon as two columns have different supports (zero entries),
    which one pass over the support patterns decides before any distance.
    """
    cols = list(zip(*matrix.ints))  # scaled columns: the same rays
    if len({tuple(map(bool, col)) for col in cols}) > 1:
        return math.inf
    return max([0.0, *(projective_distance(a, b)
                       for a, b in combinations(cols, 2))])


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


def contraction_certificate(model, scheme: str, levels) -> ContractionReport:
    """Per-level projective diameters and contraction factors.

    Verdict "uniformly contracting" holds iff every level is strictly
    positive, decided exactly from the ints: a positive matrix has a finite
    Hilbert diameter D, so its Birkhoff factor tanh(D/4) is below 1, even
    where the float gap rounds to 0.0.  A single zero entry withholds it.
    """
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
        elif gap == 0.0:
            note = "float gap rounds to 0.0; every entry positive, so it contracts"
        else:
            note = ""
        reports.append(LevelContraction(level=q, diameter=diam, factor=factor,
                                        gap=gap, strictly_positive=positive,
                                        note=note))
    verdict = ("uniformly contracting" if reports and all(
        lc.strictly_positive for lc in reports) else "withheld")
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


def ergodic_measure_count(model, scheme: str = TRIANGLE,
                          tolerance: float = 1e-6,
                          max_depth: int = 36) -> ErgodicCount:
    """Count the extreme invariant masses by deepening the nested simplex.

    Vertices at depth m are the normalized columns of the exact product of
    level matrices 1 .. m-1.  The count is certified once two
    consecutive depths produce the same cluster count with every matched
    vertex within the tolerance; otherwise the result is inconclusive.  A
    product the loop refuses ends the count, with the refusal as its note;
    the first, at depth 2, leaves no simplex, so its refusal propagates.
    Only the depths whose matched vertices settled, and the last, are clustered.
    """
    _require_matrices(model, scheme)
    if max_depth < 3:
        raise DomainError("max_depth leaves no room for a consecutive-depth pair")
    if not (0 <= tolerance < math.inf):
        raise DomainError(f"tolerance {tolerance} must be finite and nonnegative")

    products = _prefix_products(model, scheme, 1, max_depth)
    prev = tuple(zip(*next(products)[1].ints))
    prev_clusters, note, depth, moved = None, "", 2, math.inf
    try:
        for q, product in products:
            cur, cur_clusters = tuple(zip(*product.ints)), None
            depth = q + 1
            moved = max(map(projective_distance, prev, cur))
            if moved <= tolerance:
                cur_clusters = _cluster_rays(cur, tolerance)
                if len(cur_clusters) != len(
                        prev_clusters or _cluster_rays(prev, tolerance)):
                    moved = math.inf  # a depth whose cluster count changed
            prev, prev_clusters = cur, cur_clusters
            if moved <= tolerance:
                break
    except BudgetError as err:
        note = str(err)
    stabilized = moved <= tolerance
    clusters = prev_clusters or _cluster_rays(prev, tolerance)
    return ErgodicCount(
        count=len(clusters),
        status="stabilized" if stabilized else "inconclusive",
        base_level=1,
        depth=depth,
        tolerance=tolerance,
        max_matched_distance=moved if stabilized else math.inf,
        clusters=clusters,
        witnesses=tuple(_vertex(prev[members[0]]) for members in clusters),
        note="" if stabilized else note or (
            f"no consecutive-depth match within {tolerance} by depth {max_depth}"),
    )


def hull_membership(verts, point) -> tuple:
    """Exact barycentric coordinates of a point in the hull of the vertices.

    Solves the linear system over Fractions; membership holds iff every
    coordinate is nonnegative (they sum to 1 automatically for simplex data).
    """
    r, vec = len(verts), [Fraction(v) for v in point]
    if len(vec) != r:
        raise DomainError("dimension mismatch")
    # Augmented system: columns are vertices, plus the affine constraint.
    matrix = [[Fraction(verts[j][i]) for j in range(r)] + [vec[i]]
              for i in range(r)] + [[Fraction(1)] * (r + 1)]
    pivots = []
    for c in range(r):
        pivot = next((ri for ri, row in enumerate(matrix)
                      if ri not in pivots and row[c] != 0), None)
        if pivot is None:
            raise DegeneracyError("vertex matrix is singular")
        pivots.append(pivot)
        top = matrix[pivot] = [x / matrix[pivot][c] for x in matrix[pivot]]
        for ri, row in enumerate(matrix):
            if ri != pivot and row[c] != 0:
                matrix[ri] = [x - row[c] * p for x, p in zip(row, top)]
    if any(row[r] for ri, row in enumerate(matrix) if ri not in pivots):
        raise DegeneracyError("inconsistent system: point outside affine span")
    return tuple(matrix[ri][r] for ri in pivots)


def hull_contains(outer, inner) -> bool:
    """Exact check that every inner vertex lies in the outer vertices' hull."""
    for vertex in inner:
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
        text = {w: decimal_string(w) for w in set(self.weights)}  # once each
        return {
            "level": self.level,
            "scheme": self.scheme,
            "weights": [text[w] for w in self.weights],
            "residuals": [scalar_to_json(x) for x in self.residuals],
            "conserved": self.conserved,
        }


def mass_conservation_check(model, scheme: str, q: int) -> MassResiduals:
    """Residual of (level-(q+1) weight) - sum_i (level-q weight) * entry(i, j).

    Weights are word lengths, i.e. patch areas in units of the prototile
    leafwise area.  The triangle scheme conserves mass identically; the
    published closed-form matrices do not, and the exact residual is the
    cleanest statement of that mismatch.  A level-(q+1) length over the
    entry budget is refused from q alone, once the matrix is built.
    """
    matrix = transition_matrix(model, q, scheme)
    _require_length(model, q + 1)
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


def measure_frequencies(model, scheme: str, measure_index: int,
                        q: int, stabilization: ErgodicCount) -> FrequencyResult:
    """Letter frequencies of one extreme measure, at finite depth q.

    The measure indexed by a stabilized cluster is anchored at that cluster's
    lowest column letter; its depth-q frequencies are the letter counts of
    the level-q word `anchor`, column `anchor` of the triangle product of
    levels 0 .. q-1, over the word length.  A length over the entry budget,
    which bounds the counts, is refused from q alone, before any product.
    scheme names the matrices the count was made with and is not read.
    """
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
    if q < 0:
        raise DomainError(f"need 0 <= base <= level, got base=0, level={q}")
    _require_length(model, q)
    product = compose_range(model, TRIANGLE, 0, q)
    length = model.level_length(q)
    return FrequencyResult(
        measure_index=measure_index,
        anchor_letter=anchor,
        level=q,
        status="stabilized",
        frequencies=tuple(Fraction(row[anchor - 1], length)
                          for row in product.ints),
    )

