"""Reference routines the tests compare the library against.

Each one takes a different route from the library code it checks: the
Hilbert distance through a chord's cross-ratio, level words by iterating a
substitution letter by letter, single letters of an atlas word by a
`child_at` walk down the levels, block counts by expanding a word through
`children` and counting its labels, aligned windows block by block through
`block_letter`, word strings parsed back to letters, patch partitions
tile by tile, and the expected block fractions as a deepening limit.
"""

import math
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from hyptiling import (DomainError, Patch, SizeError, TileAddress,
                       transition_matrix)


def hilbert_distance_segment(x, y) -> float:
    """Hilbert distance between two simplex points in cross-ratio form.

    Extends the chord through x, y to the simplex boundary and returns
    |ln((m+l)(m+r)/(l r))| with m the chord length and l, r the two boundary
    gaps.  Coincident points give 0; a boundary endpoint gives inf.
    """
    vx = [Fraction(v) for v in x]
    vy = [Fraction(v) for v in y]
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


def substitution_image(model, word, n: int, max_letters: int = 10**6) -> tuple:
    """n-fold image of a word under the model's rule, read from
    `model.images`; n = 0 returns the word."""
    if n < 0:
        raise DomainError(f"iteration count must be >= 0, got {n}")
    current = tuple(word)
    for a in current:
        if not (1 <= a <= model.r):
            raise DomainError(f"letter {a} outside 1..{model.r}")
    predicted = len(current) * len(model.images[0])**n
    if predicted > max_letters:
        raise SizeError(
            f"image would have {predicted} letters, over the cap {max_letters}"
        )
    for _ in range(n):
        grown = []
        for a in current:
            grown.extend(model.images[a - 1])
        current = tuple(grown)
    return current


def letter_at(model, q: int, letter: int, pos: int) -> int:
    """Letter at position pos of the level-q atlas word `letter`, found in
    O(q) steps by walking down one child slot per level."""
    length = model.level_length(q)
    if not (0 <= pos < length):
        raise DomainError(f"position {pos} outside the word of length {length}")
    label, offset = letter, pos
    for level in range(q, 0, -1):
        sub = model.level_length(level - 1)
        label = model.child_at(level, label, offset // sub)
        offset %= sub
    return label


def expanded_label_counts(model, base: int, q: int, letter: int) -> tuple:
    """Multiplicity of each level-`base` label in the level-q word `letter`:
    the word expanded down to level `base` through `model.children`, label
    by label, and the labels counted."""
    labels = [letter]
    for level in range(q, base, -1):
        labels = [a for label in labels for a in model.children(level, label)]
    return tuple(labels.count(a) for a in range(1, model.r + 1))


class AlignmentError(DomainError):
    """Window boundaries not aligned to the block grid of the requested level."""


class BlockDecomposition(NamedTuple):
    q: int
    start: int
    stop: int
    blocks: tuple  # ((offset, letter), ...) with offsets relative to start


def block_decompose(model, bounds, q: int) -> BlockDecomposition:
    """Decompose an aligned window into level-q atlas words.

    Both window edges must be multiples of the level-q length; the
    concatenation of the returned atlas words reproduces the window exactly.
    """
    start, stop = bounds
    length = model.level_length(q)
    if start % length or stop % length:
        raise AlignmentError(
            f"window [{start}, {stop}) is not aligned to the level-{q} "
            f"grid of length {length}"
        )
    if stop < start:
        raise DomainError(f"reversed window [{start}, {stop})")
    blocks = tuple(
        ((k - start // length) * length, model.block_letter(q, k))
        for k in range(start // length, stop // length)
    )
    return BlockDecomposition(q=q, start=start, stop=stop, blocks=blocks)


def word_from_str(text: str) -> tuple:
    """Letters of a `word_to_str` string: digits, or comma-separated."""
    text = text.strip()
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return tuple(int(ch) for ch in text)


def partition_by_tiles(apex_row: int, apex_cols: range, depth: int) -> dict:
    """`patch_partition_check` one tile at a time: every patch's
    `Patch.spans()`, expanded into tiles, against the expected tile set of
    the slab."""
    if depth < 1:
        raise DomainError("depth must be >= 1")
    # Tiles are keyed by their (row, col) ints: tuples hash and compare in C.
    covered = [
        (row, col)
        for apex_col in apex_cols
        for row, first, end, _ in Patch((1,) * depth,
                                        TileAddress(apex_row, apex_col)).spans()
        for col in range(first, end)
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


def deepened_block_fractions(model, q: int) -> tuple:
    """Limit fractions of the level-q block labels by deepening.

    Column 0 of the triangle product of levels q .. Q-1 counts the level-q
    blocks of each label inside the level-Q word with label 1; Q grows until
    one more level moves the normalized column less than 1e-10 in sup norm,
    and the walk gives up past level 80.
    """
    product, prev = None, None
    for level in range(q, 80):
        ints = transition_matrix(model, level).ints
        product = ints if product is None else [
            [sum(a * b for a, b in zip(row, col)) for col in zip(*ints)]
            for row in product]
        counts = [row[0] for row in product]
        cur = tuple(float(Fraction(c, sum(counts))) for c in counts)
        if prev is not None and max(abs(a - b) for a, b in zip(prev, cur)) < 1e-10:
            return cur
        prev = cur
    raise DomainError("block fractions did not settle within 80 levels")
