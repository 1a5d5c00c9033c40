"""Bi-infinite decoration sequences and their word hierarchies.

Two families are implemented behind one model interface:

* a Toeplitz sequence over r letters, built by inductive filling steps with
  periods p_0 = 3, p_{i+1} = 3**i * p_i, and
* the fixed point of a constant-length substitution, read off a seed pair
  (right-infinite limit from letter 1, left-infinite limit from letter 2).

Both sequences decompose, for every level q, into a bi-infinite concatenation
of level-q words drawn from an atlas indexed by the alphabet.  The model
interface exposes letters, level lengths, the label of the level-q word at a
given block index, and the composition of a level-q word into level-(q-1)
words.  Everything downstream (occurrence tables, transition matrices,
frequencies) is driven by that interface.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import suppress
from itertools import chain

from .errors import AlignmentError, CapError, DomainError, ModelError, SizeError
from .record import record

Letter = int  # letters are 1-based: 1..r
Word = tuple  # tuple of Letter

#: Words longer than this are not materialized eagerly; callers get lazy
#: handles with O(level) random access instead.
DEFAULT_MATERIALIZE_LIMIT = 10**6

_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # letters as digits


def word_to_str(word: Iterable[int], r: int) -> str:
    """Digit string for r <= 9, comma-separated otherwise."""
    if r <= 9:
        return bytes(word).translate(_DIGITS).decode("ascii")
    return ",".join(str(a) for a in word)


def word_from_str(text: str) -> Word:
    text = text.strip()
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return tuple(int(ch) for ch in text)


# ---------------------------------------------------------------------------
# Specs


@record
class ToeplitzSpec:
    """Parameters of the Toeplitz family: alphabet size and a step cap.

    max_depth bounds how many filling steps a positional query may walk
    before raising a cap error; each step is O(1), so generous caps are fine.
    """

    r: int
    max_depth: int = 48

    def __post_init__(self):
        if self.r < 1:
            raise DomainError(f"alphabet size must be >= 1, got {self.r}")
        if self.max_depth < 1:
            raise DomainError(f"max_depth must be >= 1, got {self.max_depth}")


@record
class SubstitutionRule:
    """Constant-length substitution over letters 1..r.

    images[i-1] is the image word of letter i; all images share one length.
    """

    images: tuple

    def __post_init__(self):
        if not self.images:
            raise DomainError("substitution rule needs at least one image")
        images = tuple(tuple(w) for w in self.images)
        object.__setattr__(self, "images", images)
        length = len(images[0])
        if length < 2:
            raise DomainError("substitution images must have length >= 2")
        r = len(images)
        for i, img in enumerate(images, start=1):
            if len(img) != length:
                raise DomainError("substitution must have constant length")
            for a in img:
                if not (1 <= a <= r):
                    raise DomainError(f"image of {i} uses letter {a} outside 1..{r}")

    @property
    def r(self) -> int:
        return len(self.images)

    @property
    def length(self) -> int:
        return len(self.images[0])

    def image(self, letter: int) -> Word:
        if not (1 <= letter <= self.r):
            raise DomainError(f"letter {letter} outside 1..{self.r}")
        return self.images[letter - 1]


def rule_112_122() -> SubstitutionRule:
    """The two-letter rule 1 -> 112, 2 -> 122."""
    return SubstitutionRule(((1, 1, 2), (1, 2, 2)))


# ---------------------------------------------------------------------------
# Models


class ToeplitzModel:
    """Sequence model for the Toeplitz family.

    Step 1 writes color s_1 at every position q = 0, -1 (mod p_1).  Step i+1
    writes color s_{i+1} into the still-undefined positions of the p_i-blocks
    whose index k satisfies k = 0 or -1 (mod 3**i).  Colors cycle through the
    alphabet: s_i = ((i-1) mod r) + 1.  Block indices use floor division, so
    negative positions are covered without special cases.
    """

    name = "toeplitz"

    def __init__(self, spec: ToeplitzSpec):
        self.spec = spec
        self._periods = [3]  # p_0
        self._counts_cache = {}

    @classmethod
    def of_rank(cls, r: int, max_depth: int = 48) -> "ToeplitzModel":
        return cls(ToeplitzSpec(r=r, max_depth=max_depth))

    def __eq__(self, other):
        return isinstance(other, ToeplitzModel) and self.spec == other.spec

    def __hash__(self):
        return hash(("toeplitz", self.spec))

    def __repr__(self):
        return f"ToeplitzModel(r={self.r}, max_depth={self.spec.max_depth})"

    @property
    def r(self) -> int:
        return self.spec.r

    def color(self, i: int) -> Letter:
        """Step color s_i = ((i-1) mod r) + 1, for i >= 1."""
        if i < 1:
            raise DomainError(f"step index must be >= 1, got {i}")
        return (i - 1) % self.r + 1

    def period(self, i: int) -> int:
        """p_i with p_0 = 3 and p_{i+1} = 3**i * p_i."""
        if i < 0:
            raise DomainError(f"period index must be >= 0, got {i}")
        if i > self.spec.max_depth:
            raise CapError(
                f"period index {i} exceeds max_depth {self.spec.max_depth}"
            )
        while len(self._periods) <= i:
            j = len(self._periods) - 1
            self._periods.append(3**j * self._periods[j])
        return self._periods[i]

    def level_length(self, q: int) -> int:
        """Length of a level-q word: 1 at level 0, p_q above."""
        if q < 0:
            raise DomainError(f"level must be >= 0, got {q}")
        return 1 if q == 0 else self.period(q)

    def branching(self, q: int) -> int:
        """Number of level-q words inside one level-(q+1) word."""
        return self.level_length(q + 1) // self.level_length(q)

    def block_letter(self, q: int, block: int) -> Letter:
        """Atlas index of the level-q word at block `block` of the sequence.

        Walks up the block hierarchy: a block sitting first or last inside its
        parent is filled by the parent-level step; otherwise its pending
        positions are those of the parent, and the walk continues.
        """
        return self.block_letter_step(q, block)[0]

    def block_letter_step(self, q: int, block: int) -> tuple:
        level, k = q, block
        while level < self.spec.max_depth:
            b = self.branching(level)
            pos = k % b
            if pos == 0 or pos == b - 1:
                return self.color(level + 1), level + 1
            k //= b
            level += 1
        raise CapError(
            f"level-{q} block {block} not determined within "
            f"{self.spec.max_depth} filling steps; raise max_depth"
        )

    def letter(self, position: int) -> Letter:
        return self.block_letter(0, position)

    def children(self, q: int, letter: Letter) -> Word:
        """Level-(q-1) labels inside the level-q word `letter`, left to right.

        The first and last slots carry the step color s_q; every middle slot
        repeats the word's own label.  The label None stands for a word not
        determined within max_depth, whose middle slots stay undetermined.
        """
        if letter is not None:
            self._check_letter(letter)
        if q < 1:
            raise DomainError("children are defined for levels >= 1")
        b = self.branching(q - 1)
        s = self.color(q)
        return (s,) + (letter,) * (b - 2) + (s,)

    def child_at(self, q: int, letter: Letter, slot: int) -> Letter:
        b = self.branching(q - 1)
        if not (0 <= slot < b):
            raise DomainError(f"slot {slot} outside 0..{b - 1}")
        if slot == 0 or slot == b - 1:
            return self.color(q)
        return letter

    def children_count_vector(self, q: int, letter: Letter) -> tuple:
        """Multiplicity of each level-(q-1) label in the level-q word `letter`."""
        self._check_letter(letter)
        if q < 1:
            raise DomainError("children are defined for levels >= 1")
        b = self.branching(q - 1)
        counts = [0] * self.r
        counts[self.color(q) - 1] += 2
        counts[letter - 1] += b - 2
        return tuple(counts)

    def _check_letter(self, letter: Letter):
        if not (1 <= letter <= self.r):
            raise DomainError(f"letter {letter} outside 1..{self.r}")


class SubstitutionModel:
    """Sequence model for a constant-length substitution fixed point.

    The sequence is the two-sided limit word: positions >= 0 follow the
    right-infinite limit of rule^n(1), positions < 0 the left-infinite limit
    of rule^n(2).  The limits exist iff image(1) starts with 1 and image(2)
    ends with 2; the constructor rejects rules without that property.
    """

    name = "substitution"

    def __init__(self, rule: SubstitutionRule):
        if rule.r < 2:
            raise ModelError("fixed-point model needs letters 1 and 2")
        if rule.image(1)[0] != 1:
            raise ModelError("image of 1 must start with 1 for the right limit")
        if rule.image(2)[-1] != 2:
            raise ModelError("image of 2 must end with 2 for the left limit")
        self.rule = rule
        self._counts_cache = {}

    @classmethod
    def standard(cls) -> "SubstitutionModel":
        return cls(rule_112_122())

    def __eq__(self, other):
        return isinstance(other, SubstitutionModel) and self.rule == other.rule

    def __hash__(self):
        return hash(("substitution", self.rule))

    def __repr__(self):
        images = [word_to_str(w, self.r) for w in self.rule.images]
        return f"SubstitutionModel({'/'.join(images)})"

    @property
    def r(self) -> int:
        return self.rule.r

    def level_length(self, q: int) -> int:
        if q < 0:
            raise DomainError(f"level must be >= 0, got {q}")
        return self.rule.length**q

    def branching(self, q: int) -> int:
        return self.rule.length

    def letter(self, position: int) -> Letter:
        """Fixed-point letter at any integer position (negative included)."""
        length = self.rule.length
        if position >= 0:
            seed, span = 1, 1
            while span <= position:
                span *= length
            offset = position
        else:
            seed, span = 2, 1
            while span < -position:
                span *= length
            offset = position + span
        current = seed
        while span > 1:
            span //= length
            current = self.rule.image(current)[offset // span]
            offset %= span
        return current

    def block_letter(self, q: int, block: int) -> Letter:
        """Level-q atlas labels along the sequence coincide with the letters."""
        return self.letter(block)

    def children(self, q: int, letter: Letter) -> Word:
        if q < 1:
            raise DomainError("children are defined for levels >= 1")
        return self.rule.image(letter)

    def child_at(self, q: int, letter: Letter, slot: int) -> Letter:
        return self.rule.image(letter)[slot]

    def children_count_vector(self, q: int, letter: Letter) -> tuple:
        if q < 1:
            raise DomainError("children are defined for levels >= 1")
        counts = [0] * self.r
        for a in self.rule.image(letter):
            counts[a - 1] += 1
        return tuple(counts)


def as_model(source):
    """Coerce a spec/rule/model into a model object."""
    if isinstance(source, (ToeplitzModel, SubstitutionModel)):
        return source
    if isinstance(source, ToeplitzSpec):
        return ToeplitzModel(source)
    if isinstance(source, SubstitutionRule):
        return SubstitutionModel(source)
    raise DomainError(f"not a sequence model: {source!r}")


# ---------------------------------------------------------------------------
# Positional queries


def window(model_like, start: int, stop: int) -> Word:
    """Letters at positions start..stop-1 of the model's sequence, at most
    DEFAULT_MATERIALIZE_LIMIT of them."""
    model = as_model(model_like)
    if stop < start:
        raise DomainError(f"empty-or-reversed window [{start}, {stop})")
    if stop - start > DEFAULT_MATERIALIZE_LIMIT:
        raise SizeError(f"window of {stop - start} letters is over the cap "
                        f"{DEFAULT_MATERIALIZE_LIMIT}")
    letters = block_labels(model, 0, start, stop)
    if None in letters:
        model.letter(start + letters.index(None))  # raises the cap error
    return letters


def block_labels(model, q: int, start: int, stop: int) -> Word:
    """Labels of the level-q blocks start..stop-1, None where
    `model.block_letter(q, k)` would raise a cap error.

    Reads the labels of the aligned level-Q blocks covering the range, for
    the smallest level Q >= q whose blocks are at least as long as the range
    (or the deepest level a capped model has), and expands them level by
    level down to q.
    """
    unit = model.level_length(q)
    top = q
    with suppress(CapError):  # level_length raises past a model's max_depth
        while model.level_length(top) < (stop - start) * unit:
            model.level_length(top + 1)
            top += 1
    span = model.level_length(top) // unit
    labels = []
    for k in range(start // span, -(-stop // span)):
        try:
            labels.append(model.block_letter(top, k))
        except CapError:
            labels.append(None)  # a block not determined within the cap
    return _expand(model, top, labels, start // span * span, start, stop, q)


def _expand(model, q: int, labels, first: int, start: int, stop: int,
            bottom: int = 0) -> Word:
    """Level-`bottom` labels at block positions start..stop-1 of the
    concatenated level-q words `labels`, the first of which begins at block
    position `first` (positions count level-`bottom` blocks)."""
    unit = model.level_length(bottom)
    for level in range(q, bottom, -1):
        table = {label: model.children(level, label) for label in set(labels)}
        sub = model.level_length(level - 1) // unit
        lo = (start - first) // sub
        hi = -(-(stop - first) // sub)
        labels = tuple(chain.from_iterable(map(table.__getitem__, labels)))[lo:hi]
        first += lo * sub
    return tuple(labels)[start - first:stop - first]


def substitution_image(rule: SubstitutionRule, word, n: int,
                       max_letters: int = DEFAULT_MATERIALIZE_LIMIT) -> Word:
    """n-fold image of a word under the rule; n = 0 returns the word."""
    if n < 0:
        raise DomainError(f"iteration count must be >= 0, got {n}")
    current = tuple(word)
    for a in current:
        rule.image(a)  # validates letters
    predicted = len(current) * rule.length**n
    if predicted > max_letters:
        raise SizeError(
            f"image would have {predicted} letters, over the cap {max_letters}"
        )
    for _ in range(n):
        grown = []
        for a in current:
            grown.extend(rule.image(a))
        current = tuple(grown)
    return current


# ---------------------------------------------------------------------------
# Atlas


@record
class AtlasWord:
    """Handle on the level-q atlas word with a given label.

    Supports O(level) random access without materialization, so it stays
    usable at levels whose words would not fit in memory.
    """

    model: object
    q: int
    letter: Letter
    length: int

    def letter_at(self, pos: int) -> Letter:
        if not (0 <= pos < self.length):
            raise DomainError(f"position {pos} outside the word of length {self.length}")
        level, label, offset = self.q, self.letter, pos
        while level > 0:
            sub = self.model.level_length(level - 1)
            label = self.model.child_at(level, label, offset // sub)
            offset %= sub
            level -= 1
        return label

    def word(self, max_letters: int = DEFAULT_MATERIALIZE_LIMIT) -> Word:
        """Materialize the full word; refuses above max_letters."""
        if self.length > max_letters:
            raise SizeError(
                f"level-{self.q} word has {self.length} letters, "
                f"over the cap {max_letters}"
            )
        return _expand(self.model, self.q, (self.letter,), 0, 0, self.length)


@record
class AtlasLevel:
    q: int
    length: int
    handles: tuple

    @property
    def r(self) -> int:
        return len(self.handles)

    def word(self, letter: Letter, max_letters: int = DEFAULT_MATERIALIZE_LIMIT) -> Word:
        if not (1 <= letter <= self.r):
            raise DomainError(f"letter {letter} outside 1..{self.r}")
        return self.handles[letter - 1].word(max_letters)


def atlas_words(model_like, q: int) -> AtlasLevel:
    """The level-q atlas: one word handle per letter of the alphabet."""
    model = as_model(model_like)
    if q < 0:
        raise DomainError(f"level must be >= 0, got {q}")
    length = model.level_length(q)
    handles = tuple(
        AtlasWord(model=model, q=q, letter=i, length=length)
        for i in range(1, model.r + 1)
    )
    return AtlasLevel(q=q, length=length, handles=handles)


# ---------------------------------------------------------------------------
# Block decomposition and counting


@record
class BlockDecomposition:
    q: int
    start: int
    stop: int
    blocks: tuple  # ((offset, letter), ...) with offsets relative to start


def block_decompose(model_like, bounds, q: int) -> BlockDecomposition:
    """Decompose an aligned window into level-q atlas words.

    Both window edges must be multiples of the level-q length; the
    concatenation of the returned atlas words reproduces the window exactly.
    """
    model = as_model(model_like)
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


def block_type_counts(model_like, base: int, q: int, letter: Letter) -> tuple:
    """Multiplicity of each level-`base` label inside the level-q word `letter`.

    Index 0 of the result counts label 1.  Built one level at a time upward
    from the highest level at or below q already in the model's cache, so it
    works far beyond materializable lengths; the counts of every label at
    each level passed are cached.
    """
    model = as_model(model_like)
    if base < 0 or q < base:
        raise DomainError(f"need 0 <= base <= level, got base={base}, level={q}")
    if not (1 <= letter <= model.r):
        raise DomainError(f"letter {letter} outside 1..{model.r}")
    cache = model._counts_cache  # (base, level) -> counts of labels 1..r
    level = q
    while level > base and (base, level) not in cache:
        level -= 1
    rows = cache.get((base, level)) or tuple(
        tuple(int(i == j) for i in range(model.r)) for j in range(model.r))
    for level in range(level + 1, q + 1):
        grown = []
        for parent in range(1, model.r + 1):
            acc = [0] * model.r
            for mult, sub in zip(model.children_count_vector(level, parent), rows):
                if mult:
                    for i in range(model.r):
                        acc[i] += mult * sub[i]
            grown.append(tuple(acc))
        rows = cache[(base, level)] = tuple(grown)
    return rows[letter - 1]
