"""Bi-infinite decoration sequences and their word hierarchies.

Two families are implemented behind one model interface:

* a Toeplitz sequence over r letters, built by inductive filling steps with
  periods p_0 = 3, p_{i+1} = 3**i * p_i, and
* the fixed point of a constant-length substitution, read off a seed pair
  (right-infinite limit from letter 1, left-infinite limit from letter 2).

Both sequences decompose, for every level q, into a bi-infinite concatenation
of level-q words drawn from an atlas indexed by the alphabet.  The model
interface exposes level lengths, the label of the level-q word at a given
block index (the letter, at level 0), and the composition of a level-q word
into level-(q-1) words.  Everything downstream (occurrence tables,
transition matrices, frequencies) is driven by that interface.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from itertools import chain

from .errors import CapError, DomainError, ModelError, SizeError, cap
from .record import record

Letter = int  # letters are 1-based: 1..r
Word = tuple  # tuple of Letter

_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # letters as digits


def word_to_str(word: Iterable[int], r: int) -> str:
    """Digit string for r <= 9, comma-separated otherwise."""
    if r <= 9:
        return bytes(word).translate(_DIGITS).decode("ascii")
    return ",".join(str(a) for a in word)


def _size_text(n: int) -> str:
    """A size for an error message: its digits up to 18 of them, else the
    power of ten it reaches, so that the message stays one short line."""
    if n < 10**18:
        return str(n)
    k = int(math.log10(n))
    return f"at least 10^{k - (10**k > n)}"


# ---------------------------------------------------------------------------
# Models


@record
class ToeplitzModel:
    """Sequence model for the Toeplitz family over r letters.

    Step 1 writes color s_1 at every position q = 0, -1 (mod p_1).  Step i+1
    writes color s_{i+1} into the still-undefined positions of the p_i-blocks
    whose index k satisfies k = 0 or -1 (mod 3**i).  Colors cycle through the
    alphabet: s_i = ((i-1) mod r) + 1.  Block indices use floor division, so
    negative positions are covered without special cases.  max_depth bounds
    how many filling steps a positional query may walk before raising a cap
    error; each step is O(1), so generous caps are fine.
    """

    r: int
    max_depth: int = 48
    name = "toeplitz"

    def __post_init__(self):
        if self.r < 1:
            raise DomainError(f"alphabet size must be >= 1, got {self.r}")
        if self.max_depth < 1:
            raise DomainError(f"max_depth must be >= 1, got {self.max_depth}")

    @classmethod
    def of_rank(cls, r: int, max_depth: int = 48) -> "ToeplitzModel":
        return cls(r, max_depth)

    def color(self, i: int) -> Letter:
        """Step color s_i = ((i-1) mod r) + 1, for i >= 1."""
        if i < 1:
            raise DomainError(f"step index must be >= 1, got {i}")
        return (i - 1) % self.r + 1

    def level_length(self, q: int) -> int:
        """Length of a level-q word: 1 at level 0, p_q = 3**(1 + q(q-1)/2)
        above, which solves p_0 = 3, p_{i+1} = 3**i * p_i."""
        if q < 0:
            raise DomainError(f"level must be >= 0, got {q}")
        if q > self.max_depth:
            raise CapError(f"period index {q} exceeds max_depth {self.max_depth}")
        return 1 if q == 0 else 3 ** (1 + q * (q - 1) // 2)

    def branching(self, q: int) -> int:
        """Number of level-q words inside one level-(q+1) word: 3**q, and 3
        at q = 0 (p_{q+1} over the level-q length)."""
        if q < 0:
            raise DomainError(f"level must be >= 0, got {q}")
        if q >= self.max_depth:
            raise CapError(f"period index {q + 1} exceeds max_depth {self.max_depth}")
        return 3 ** max(q, 1)

    def block_letter(self, q: int, block: int) -> Letter:
        """Atlas index of the level-q word at block `block` of the sequence.

        Walks up the block hierarchy: a block sitting first or last inside its
        parent is filled by the parent-level step; otherwise its pending
        positions are those of the parent, and the walk continues.
        """
        level, k = q, block
        while level < self.max_depth:
            b = self.branching(level)
            pos = k % b
            if pos == 0 or pos == b - 1:
                return self.color(level + 1)
            k //= b
            level += 1
        raise CapError(
            f"level-{q} block {block} not determined within "
            f"{self.max_depth} filling steps; raise max_depth"
        )

    def children(self, q: int, letter: Letter) -> Word:
        """Level-(q-1) labels inside the level-q word `letter`, left to right.

        The first and last slots carry the step color s_q; every middle slot
        repeats the word's own label.  The label None stands for a word not
        determined within max_depth, whose middle slots stay undetermined.
        """
        b, s = self._rule(q, letter)
        return (s,) + (letter,) * (b - 2) + (s,)

    def child_at(self, q: int, letter: Letter, slot: int) -> Letter:
        """Label at one slot of `children(q, letter)`, with the same checks."""
        b, s = self._rule(q, letter)
        if not (0 <= slot < b):
            raise DomainError(f"slot {slot} outside 0..{b - 1}")
        return s if slot == 0 or slot == b - 1 else letter

    def children_count_vector(self, q: int, letter: Letter) -> tuple:
        """Multiplicity of each level-(q-1) label in the level-q word `letter`."""
        b, s = self._rule(q, letter)
        counts = [0] * self.r
        counts[s - 1] += 2
        counts[letter - 1] += b - 2
        return tuple(counts)

    def _rule(self, q: int, letter: Letter):
        """The branching b_{q-1} and step color s_q that a level-q word of
        `letter` (or None) is cut by, after the letter and level checks."""
        if letter is not None and not (1 <= letter <= self.r):
            raise DomainError(f"letter {letter} outside 1..{self.r}")
        if q < 1:
            raise DomainError("children are defined for levels >= 1")
        return self.branching(q - 1), self.color(q)


@record
class SubstitutionModel:
    """Sequence model for the fixed point of a constant-length substitution
    over letters 1..r; images[i-1] is the image word of letter i.

    The sequence is the two-sided limit word: positions >= 0 follow the
    right-infinite limit of rule^n(1), positions < 0 the left-infinite limit
    of rule^n(2).  The limits exist iff image(1) starts with 1 and image(2)
    ends with 2; the constructor rejects rules without that property.
    """

    images: tuple
    name = "substitution"

    def __post_init__(self):
        if not self.images:
            raise DomainError("substitution rule needs at least one image")
        images = tuple(tuple(w) for w in self.images)
        object.__setattr__(self, "images", images)
        if len(images[0]) < 2:
            raise DomainError("substitution images must have length >= 2")
        for i, img in enumerate(images, start=1):
            if len(img) != len(images[0]):
                raise DomainError("substitution must have constant length")
            for a in img:
                if not (1 <= a <= self.r):
                    raise DomainError(f"image of {i} uses letter {a} outside 1..{self.r}")
        if self.r < 2:
            raise ModelError("fixed-point model needs letters 1 and 2")
        if images[0][0] != 1:
            raise ModelError("image of 1 must start with 1 for the right limit")
        if images[1][-1] != 2:
            raise ModelError("image of 2 must end with 2 for the left limit")

    @classmethod
    def standard(cls) -> "SubstitutionModel":
        """The two-letter rule 1 -> 112, 2 -> 122."""
        return cls(((1, 1, 2), (1, 2, 2)))

    def __repr__(self):
        images = [word_to_str(w, self.r) for w in self.images]
        return f"SubstitutionModel({'/'.join(images)})"

    @property
    def r(self) -> int:
        return len(self.images)

    @property
    def length(self) -> int:
        return len(self.images[0])

    def level_length(self, q: int) -> int:
        if q < 0:
            raise DomainError(f"level must be >= 0, got {q}")
        return self.length**q

    def branching(self, q: int) -> int:
        return self.length

    def block_letter(self, q: int, block: int) -> Letter:
        """Level-q atlas labels along the sequence coincide with the letters:
        the fixed-point letter at position `block` (negative included)."""
        length = self.length
        if block >= 0:
            seed, span = 1, 1
            while span <= block:
                span *= length
            offset = block
        else:
            seed, span = 2, 1
            while span < -block:
                span *= length
            offset = block + span
        current = seed
        while span > 1:
            span //= length
            current = self.images[current - 1][offset // span]
            offset %= span
        return current

    def children(self, q: int, letter: Letter) -> Word:
        if q < 1:
            raise DomainError("children are defined for levels >= 1")
        if not (1 <= letter <= self.r):
            raise DomainError(f"letter {letter} outside 1..{self.r}")
        return self.images[letter - 1]

    def child_at(self, q: int, letter: Letter, slot: int) -> Letter:
        image = self.children(q, letter)
        if not (0 <= slot < len(image)):
            raise DomainError(f"slot {slot} outside 0..{len(image) - 1}")
        return image[slot]

    def children_count_vector(self, q: int, letter: Letter) -> tuple:
        counts = [0] * self.r
        for a in self.children(q, letter):
            counts[a - 1] += 1
        return tuple(counts)


# ---------------------------------------------------------------------------
# Positional queries


def window(model, start: int, stop: int) -> Word:
    """Letters at positions start..stop-1 of the model's sequence, at most
    the letters cap of them."""
    if stop < start:
        raise DomainError(f"empty-or-reversed window [{start}, {stop})")
    if stop - start > cap("letters"):
        raise SizeError(f"window of {_size_text(stop - start)} letters is over "
                        f"the cap {cap('letters')}")
    letters, undetermined = _labels(model, 0, start, stop)
    if undetermined >= 0:
        model.block_letter(0, start + undetermined)  # raises the cap error
    return tuple(letters)


def block_labels(model, q: int, start: int, stop: int) -> Word:
    """Labels of the level-q blocks start..stop-1, None where
    `model.block_letter(q, k)` would raise a cap error.

    Reads the labels of the aligned level-Q blocks covering the range, for
    the smallest level Q >= q whose blocks are at least as long as the range
    (or the deepest level a capped model has), and expands them to level q
    as joined bytes (see `_expand`), converted to a tuple once.
    """
    labels, undetermined = _labels(model, q, start, stop)
    return tuple(labels) if undetermined < 0 else tuple([a or None for a in labels])


def _labels(model, q: int, start: int, stop: int):
    """The labels of `block_labels` as `_expand` returns them."""
    unit, top, span = model.level_length(q), q, 1
    try:
        while span < stop - start:
            span = model.level_length(top + 1) // unit
            top += 1
    except CapError:  # level_length raises past a model's max_depth
        pass
    labels = []
    for k in range(start // span, -(-stop // span)):
        try:
            labels.append(model.block_letter(top, k))
        except CapError:
            labels.append(None)  # a block not determined within the cap
    return _expand(model, top, labels, start // span * span, start, stop, q)


def _expand(model, q: int, labels, first: int, start: int, stop: int,
            bottom: int = 0):
    """Level-`bottom` labels at block positions start..stop-1 of the
    concatenated level-q words `labels`, the first of which begins at block
    position `first` (positions count level-`bottom` blocks), as items:
    bytes for r < 256, else 4-byte unsigned ints (8-byte for r >= 2**32) in
    a memoryview, 0 for None.  Also returns the index of the first 0, or -1.

    The labels are walked down from q to m, the highest level whose words,
    one per label (and None if it occurs), fit in the range together.  The
    level-m words of the labels met are built bottom-up as `bytes` joins.
    """
    unit, r, none = model.level_length(bottom), model.r, None in labels
    m, span = q, model.level_length(q) // unit
    while m > bottom and (r + none) * span > max(stop - start, 1):
        table = {label: model.children(m, label) for label in set(labels)}
        m, span = m - 1, model.level_length(m - 1) // unit
        lo = (start - first) // span
        hi = -(-(stop - first) // span)
        labels = tuple(chain.from_iterable(map(table.__getitem__, labels)))[lo:hi]
        first += lo * span
    tables = []  # children of the labels met, levels m down to bottom + 1
    for level in range(m, bottom, -1):
        met = set(chain.from_iterable(tables[-1].values())) if tables else set(labels)
        tables.append({label: model.children(level, label) for label in met})
    size, words = (1 if r < 2**8 else 4 if r < 2**32 else 8), None
    for table in reversed(tables):
        words = {label: _join(words, children, size)
                 for label, children in table.items()}
    items = _join(words, labels, size)[(start - first) * size:(stop - first) * size]
    zero = items.find(bytes(size)) if none else -1
    while zero % size and zero >= 0:  # a match across two items
        zero = items.find(bytes(size), zero + 1)
    if size > 1:
        items = memoryview(items).cast("I" if size == 4 else "Q")
    return items, zero // size


def _join(words, labels, size: int) -> bytes:
    """The words of `labels` joined; with no words, the labels as items."""
    if words is None:
        if size == 1 and None not in labels:
            return bytes(labels)
        words = {a: (a or 0).to_bytes(size, sys.byteorder) for a in set(labels)}
    return b"".join(map(words.__getitem__, labels))


# ---------------------------------------------------------------------------
# Atlas


@record
class AtlasWord:
    """Handle on the level-q atlas, one word per letter.

    Holds the words' length without materializing any; `word()` expands the
    letters of one word on request, up to a cap.
    """

    model: object
    q: int
    length: int

    def word(self, letter: Letter, max_letters: int = None) -> Word:
        """Materialize the word of `letter`; refuses above max_letters, by
        default the letters cap."""
        if not (1 <= letter <= self.model.r):
            raise DomainError(f"letter {letter} outside 1..{self.model.r}")
        max_letters = cap("letters") if max_letters is None else max_letters
        if self.length > max_letters:
            raise SizeError(
                f"level-{self.q} word has {_size_text(self.length)} letters, "
                f"over the cap {max_letters}"
            )
        return tuple(_expand(self.model, self.q, (letter,), 0, 0, self.length)[0])


def _log2_length(model, q: int) -> float:
    """log2 of level_length(q) for q >= 1, from q alone: p_q = 3**(1 +
    q(q-1)/2) for Toeplitz, length**q for a substitution."""
    return ((1 + q * (q - 1) // 2) * math.log2(3) if model.name == "toeplitz"
            else q * math.log2(model.length))


def atlas_words(model, q: int) -> AtlasWord:
    """The level-q atlas of `model`, refused from q alone past the
    length-digits cap: building that length would take seconds or minutes."""
    if q < 0:
        raise DomainError(f"level must be >= 0, got {q}")
    digits = _log2_length(model, q) * math.log10(2)
    if digits > cap("length_digits"):
        model.branching(q - 1)  # past max_depth: level_length's cap error
        low = int(digits * (1 - 1e-12))  # under the float error of `digits`
        raise SizeError(f"level-{q} word has at least 10^{low} letters, over "
                        f"the cap {cap('letters')}")
    return AtlasWord(model=model, q=q, length=model.level_length(q))


def block_type_counts(model, base: int, q: int, letter: Letter) -> tuple:
    """Multiplicity of each level-`base` label inside the level-q word `letter`.

    Index 0 of the result counts label 1.  It is column `letter` of the
    triangle product of the level matrices base .. q-1, so it works far
    beyond materializable lengths, within that product's bit budget.
    """
    from .measures import TRIANGLE, compose_range
    if base < 0 or q < base:
        raise DomainError(f"need 0 <= base <= level, got base={base}, level={q}")
    if not (1 <= letter <= model.r):
        raise DomainError(f"letter {letter} outside 1..{model.r}")
    return tuple(row[letter - 1]
                 for row in compose_range(model, TRIANGLE, base, q).ints)
