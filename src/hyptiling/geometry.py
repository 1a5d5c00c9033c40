"""Half-plane tiling geometry.

The prototile is the pentagon with vertices (0,1), (1/2,1), (1,1), (1,2),
(0,2); its images under z -> 2**row * (z + col) tile the upper half plane in
horizontal bands, one band per integer row, with the tile width doubling per
row upward.  This module provides the affine maps, exact tile addressing,
triangular patches with their occurrence combinatorics, and the patch
partition check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, SizeError, cap
from .exact import exact, pow2
from .record import record


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

    def spans(self):
        """Yield (row, first_col, end_col, color) per depth, apex first."""
        row, col = self.apex.row, self.apex.col
        for j, color in enumerate(self.word):
            yield row - j, col << j, (col + 1) << j, color


@record
class OccurrenceClass:
    """All placements of a child patch at one depth inside a parent patch.

    count = 2**depth placements, one per horizontal slot of that depth row;
    each placement scales the child by 2**(-depth), so the dilation weights
    of the class sum to exactly 1.
    """

    parent_level: int
    parent_letter: int
    child_letter: int
    depth: int
    count: int


def occurrence_classes(model, q: int, parent_letter: int) -> tuple:
    """Placements of level-q patches inside the level-(q+1) patch of a parent.

    One class per block of the parent word's decomposition: block m sits at
    depth m * (level-q length) with 2**depth horizontal slots.
    """
    if q < 0:
        raise DomainError(f"level must be >= 0, got {q}")
    blocks = model.branching(q)
    if blocks > cap("classes"):
        raise SizeError(
            f"{blocks} occurrence classes exceed the cap {cap('classes')}"
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


def _union_length(spans) -> int:
    """Number of cols covered by half-open (first, end) intervals."""
    total, reach = 0, -math.inf
    for first, end in sorted(spans):
        first = max(first, reach)
        if end > first:
            total, reach = total + end - first, end
    return total


def patch_partition_check(apex_row: int, apex_cols: range, depth: int) -> dict:
    """Cover check for triangle patches with apexes along one row.

    Patches of the given depth apexed at every col in apex_cols must tile the
    slab of rows (apex_row - depth, apex_row] over the matching x-extent:
    zero uncovered, zero doubly covered.  Each row's column intervals from
    `Patch.spans()` are compared with the slab's through union lengths,
    |A & B| = |A| + |B| - |A | B|, so the cost grows with rows, not tiles.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    covered, expected, word = {}, {}, (1,) * depth
    for apex_col in apex_cols:
        for row, first, end, _ in Patch(word, TileAddress(apex_row, apex_col)).spans():
            covered.setdefault(row, []).append((first, end))
        for j in range(depth):
            expected.setdefault(apex_row - j, []).append(
                (apex_col << j, (apex_col + 1) << j))
    tiles = doubled = missing = extra = 0
    for row in covered.keys() | expected.keys():
        got, want = covered.get(row, []), expected.get(row, [])
        seen, both = _union_length(got), _union_length(got + want)
        tiles += seen
        doubled += sum(max(end - first, 0) for first, end in got) - seen
        missing += both - seen
        extra += both - _union_length(want)
    return {"tiles": tiles, "doubly_covered": doubled, "uncovered": missing,
            "outside": extra, "exact": doubled == missing == extra == 0}

