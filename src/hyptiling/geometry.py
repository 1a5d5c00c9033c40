"""Half-plane tiling geometry.

The prototile is the pentagon with vertices (0,1), (1/2,1), (1,1), (1,2),
(0,2); its images under z -> 2**row * (z + col) tile the upper half plane in
horizontal bands, one band per integer row, with the tile width doubling per
row upward.  This module provides the dilation/translation maps, exact tile
addressing, triangular patches with their occurrence combinatorics, the
projection of a dilation onto the suspension circle, and a simplified
agreement metric between two decorated tilings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat

from .errors import CapError, DomainError, SizeError
from .exact import exact, floor_log2_fraction, log_fraction, log2_fraction, pow2
from .record import record
from .symbolic import as_model

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Affine maps z -> a z + b with a > 0


@record
class AffineMap:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", exact(self.a))
        object.__setattr__(self, "b", exact(self.b))
        if self.a <= 0:
            raise DomainError(f"dilation coefficient must be positive, got {self.a}")

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: z -> a1*(a2 z + b2) + b1."""
        return AffineMap(self.a * other.a, self.a * other.b + self.b)

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self) -> "AffineMap":
        return AffineMap(1 / self.a, -self.b / self.a)

    def apply(self, point) -> tuple:
        """Act on a half-plane point (x, y)."""
        x, y = point
        return (self.a * x + self.b, self.a * y)

    def power(self, n: int) -> "AffineMap":
        result = identity_map()
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            result = base.compose(result)
        return result


def identity_map() -> AffineMap:
    return AffineMap(Fraction(1), Fraction(0))


def doubling_map() -> AffineMap:
    """z -> 2z, one row up."""
    return AffineMap(Fraction(2), Fraction(0))


def shift_map() -> AffineMap:
    """z -> z + 1, one tile right."""
    return AffineMap(Fraction(1), Fraction(1))


def alpha(g: AffineMap) -> Fraction:
    """Dilation coefficient; multiplicative under composition."""
    return g.a


# ---------------------------------------------------------------------------
# Tiles


@record
class TileAddress:
    """Tile at band y in [2**row, 2**(row+1)), x in [col*2**row, (col+1)*2**row)."""

    row: int
    col: int

    def region(self) -> tuple:
        """(x0, x1, y0, y1) as exact fractions."""
        h = pow2(self.row)
        return (self.col * h, (self.col + 1) * h, h, 2 * h)

    def vertices(self) -> tuple:
        """The five pentagon corners, counterclockwise from the lower left.

        The bottom edge carries a midpoint vertex: it abuts two tiles of the
        half-width row below.
        """
        x0, x1, y0, y1 = self.region()
        xm = (x0 + x1) / 2
        return ((x0, y0), (xm, y0), (x1, y0), (x1, y1), (x0, y1))

    def map_from_prototile(self) -> AffineMap:
        """The dilation/translation sending the base tile (0,0) here."""
        h = pow2(self.row)
        return AffineMap(h, self.col * h)


def tile_containing_point(x: float, y: float) -> TileAddress:
    """Address of the tile whose half-open region contains (x, y)."""
    y = float(y)
    x = float(x)
    if not (y > 0) or not math.isfinite(y) or not math.isfinite(x):
        raise DomainError(f"point ({x}, {y}) is not in the upper half plane")
    _, e = math.frexp(y)  # y = m * 2**e with m in [0.5, 1)
    row = e - 1
    col = math.floor(math.ldexp(x, -row))
    return TileAddress(row=row, col=int(col))


# ---------------------------------------------------------------------------
# Patches and occurrences


@record
class Patch:
    """Triangular patch: an apex tile plus everything below it.

    Depth j holds the 2**j tiles of row (apex.row - j) spanning the apex
    x-extent; they carry color word[j], so the word is read apex first,
    going downward.
    """

    word: tuple
    apex: TileAddress

    def __post_init__(self):
        if not self.word:
            raise DomainError("a patch needs a nonempty word")

    @property
    def depth(self) -> int:
        return len(self.word)

    def tile_count(self) -> int:
        return (1 << self.depth) - 1

    def tiles(self):
        """Yield (TileAddress, color) over the whole patch, apex first."""
        for j, color in enumerate(self.word):
            row = self.apex.row - j
            base = self.apex.col << j
            for k in range(1 << j):
                yield TileAddress(row, base + k), color

    def region(self) -> tuple:
        """Bounding (x0, x1, y0, y1): each depth spans the apex x-extent."""
        x0, x1, _, y1 = self.apex.region()
        y0 = pow2(self.apex.row - self.depth + 1)
        return (x0, x1, y0, y1)


@record
class OccurrenceClass:
    """All placements of a child patch at one depth inside a parent patch.

    count = 2**depth placements, one per horizontal slot of that depth row;
    each placement map scales by 2**(-depth), so the class's total dilation
    weight is exactly 1.
    """

    parent_level: int
    parent_letter: int
    child_letter: int
    depth: int
    count: int

    def placement_map(self, horizontal: int = 0) -> AffineMap:
        if not (0 <= horizontal < self.count):
            raise DomainError(
                f"horizontal index {horizontal} outside 0..{self.count - 1}"
            )
        scale = pow2(-self.depth)
        return AffineMap(scale, horizontal * scale)


def occurrence_classes(model_like, q: int, parent_letter: int,
                       max_classes: int = 1 << 20) -> tuple:
    """Placements of level-q patches inside the level-(q+1) patch of a parent.

    One class per block of the parent word's decomposition: block m sits at
    depth m * (level-q length) with 2**depth horizontal slots.
    """
    model = as_model(model_like)
    if q < 0:
        raise DomainError(f"level must be >= 0, got {q}")
    blocks = model.branching(q)
    if blocks > max_classes:
        raise SizeError(
            f"{blocks} occurrence classes exceed the cap {max_classes}"
        )
    length = model.level_length(q)
    classes = []
    for m in range(blocks):
        child = model.child_at(q + 1, parent_letter, m)
        depth = m * length
        classes.append(
            OccurrenceClass(
                parent_level=q + 1,
                parent_letter=parent_letter,
                child_letter=child,
                depth=depth,
                count=1 << depth,
            )
        )
    return tuple(classes)


def patch_partition_check(apex_row: int, apex_cols: range, depth: int) -> dict:
    """Cover check for triangle patches with apexes along one row.

    Patches of the given depth apexed at every col in apex_cols must tile the
    slab of rows (apex_row - depth, apex_row] over the matching x-extent:
    zero uncovered, zero doubly covered.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    # Tiles are keyed by their (row, col) ints: tuples hash and compare in C.
    covered = [
        (tile.row, tile.col)
        for apex_col in apex_cols
        for tile, _ in Patch((1,) * depth, TileAddress(apex_row, apex_col)).tiles()
    ]
    seen = set(covered)
    doubled = len(covered) - len(seen)
    expected = set()
    for j in range(depth):
        row = apex_row - j
        for apex_col in apex_cols:
            base = apex_col << j
            expected.update(zip(repeat(row), range(base, base + (1 << j))))
    missing = len(expected - seen)
    extra = len(seen - expected)
    return {
        "tiles": len(seen),
        "doubly_covered": doubled,
        "uncovered": missing,
        "outside": extra,
        "exact": doubled == 0 and missing == 0 and extra == 0,
    }


# ---------------------------------------------------------------------------
# Suspension projection


def suspension_project(g: AffineMap) -> tuple:
    """Project a dilation onto the suspension circle: (frac, shift).

    shift = floor(log2 a) counts whole rows; frac = log2(a) - shift in [0, 1)
    is the position inside the unit suspension interval.  Exact when a is a
    power of two.
    """
    a = g.a
    shift = floor_log2_fraction(a)
    ratio = a / pow2(shift)  # in [1, 2)
    frac = 0.0 if ratio == 1 else log2_fraction(ratio)
    if frac >= 1.0:  # guard the float boundary
        frac, shift = 0.0, shift + 1
    return (frac, shift)


# ---------------------------------------------------------------------------
# Agreement metric between two decorated tilings


@record
class AnchoredTiling:
    """A decorated tiling: the model's tiling pulled back by an anchor map.

    Band q of the anchored tiling lies at y in [2**q / a, 2**(q+1) / a) and
    carries the model letter at position q; its x-grid has spacing 2**q / a
    and offset -b/a.
    """

    model: object
    anchor: AffineMap

    def __post_init__(self):
        object.__setattr__(self, "model", as_model(self.model))

    def band(self, q: int) -> tuple:
        lo = pow2(q) / self.anchor.a
        return (lo, 2 * lo)

    def grid_offset(self) -> Fraction:
        return -self.anchor.b / self.anchor.a


def _band_distance_to_origin(lo: Fraction, hi: Fraction) -> float:
    """Hyperbolic distance from the base point (0, 1) to the band [lo, hi]."""
    if lo <= 1 <= hi:
        return 0.0
    return min(abs(log_fraction(lo)), abs(log_fraction(hi)))


def _power_of_two_ratio(x: Fraction):
    """Exponent m with x = 2**m, or None."""
    num, den = x.numerator, x.denominator
    if num & (num - 1) or den & (den - 1):
        return None
    return (num.bit_length() - 1) - (den.bit_length() - 1)


def agreement_radius(first: AnchoredTiling, second: AnchoredTiling,
                     max_band_offset: int = 64) -> float:
    """Radius of the largest ball around (0, 1) on which the tilings agree.

    Agreement means identical tile regions with identical colors.  Bands
    coincide only when the anchors' dilation coefficients differ by a power
    of two; otherwise no tile matches and the radius is 0.  Identical inputs
    give math.inf; if every scanned band agrees the scan cap is reported as
    a cap error rather than guessing.
    """
    if first.model == second.model and first.anchor == second.anchor:
        return math.inf
    ratio = _power_of_two_ratio(second.anchor.a / first.anchor.a)
    if ratio is None:
        return 0.0  # incommensurate bands: mismatch at the base point
    delta = second.grid_offset() - first.grid_offset()
    center = floor_log2_fraction(first.anchor.a)  # band of the base point
    best = math.inf
    for q in range(center - max_band_offset, center + max_band_offset + 1):
        lo, hi = first.band(q)
        dist = _band_distance_to_origin(lo, hi)
        if dist >= best:
            continue
        spacing = pow2(q) / first.anchor.a
        grids_match = (delta / spacing).denominator == 1
        colors_match = (
            first.model.letter(q) == second.model.letter(q + ratio)
        )
        if not (grids_match and colors_match):
            best = min(best, dist)
    if math.isinf(best):
        raise CapError(
            f"tilings agree on every band within offset {max_band_offset} "
            "of the base point; agreement radius exceeds the scan cap"
        )
    return best


def hull_distance(first: AnchoredTiling, second: AnchoredTiling,
                  max_band_offset: int = 64) -> float:
    """min(1, 1/agreement_radius): 1 for immediate disagreement, 0 at infinity."""
    rho = agreement_radius(first, second, max_band_offset)
    if rho == 0.0:
        return 1.0
    if math.isinf(rho):
        return 0.0
    return min(1.0, 1.0 / rho)
