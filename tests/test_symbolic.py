"""Sequence-layer tests: frozen examples, an independent construction
oracle, and the counting identities."""

import re
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyptiling import (
    CapError,
    DomainError,
    ModelError,
    SizeError,
    SubstitutionModel,
    ToeplitzModel,
    atlas_words,
    block_type_counts,
    ergodic_measure_count,
    occurrence_classes,
    transition_matrix,
    window,
    word_to_str,
)
from hyptiling.errors import cap
from hyptiling.symbolic import block_labels
from oracles import (AlignmentError, block_decompose, expanded_label_counts,
                     letter_at, substitution_image, word_from_str)

SUB = SubstitutionModel.standard()
# three letters, length 4: image(1) starts with 1 and image(2) ends with 2
SUB_3 = SubstitutionModel(((1, 3, 2, 2), (3, 1, 1, 2), (2, 3, 1, 3)))


def brute_force_filling(r: int, lo: int, hi: int, max_step: int = 6) -> dict:
    """Literal step-by-step execution of the two-sided filling procedure.

    Step 1 writes color 1 at positions congruent to 0 or -1 mod 3; step i+1
    writes color s_{i+1} into every still-empty position of the period-p_i
    blocks whose index is congruent to 0 or -1 mod 3**i.  Independent of the
    library's chain-walk evaluation.
    """
    def color(i):
        return ((i - 1) % r) + 1

    periods = [3]
    for i in range(max_step + 1):
        periods.append(3**i * periods[i])
    out = {}
    for q in range(lo, hi):
        if q % 3 in (0, 2):
            out[q] = (color(1), 1)
    for i in range(1, max_step):
        p, mod = periods[i], 3**i
        for q in range(lo, hi):
            if q in out:
                continue
            if (q // p) % mod in (0, mod - 1):
                out[q] = (color(i + 1), i + 1)
    return out


class TestPeriods:
    def test_frozen_values(self):
        model = ToeplitzModel(r=2)
        assert [model.level_length(i) for i in range(6)] == [
            1, 3, 9, 81, 2187, 177147,
        ]

    def test_recurrence(self):
        model = ToeplitzModel(r=3, max_depth=12)
        for i in range(1, 12):
            assert model.level_length(i + 1) == 3**i * model.level_length(i)

    def test_depth_cap(self):
        model = ToeplitzModel(r=2, max_depth=4)
        model.level_length(4)
        with pytest.raises(CapError, match="period index 5 exceeds"):
            model.level_length(5)

    @pytest.mark.parametrize("r", [1, 2, 3, 8])
    def test_branching_is_the_period_ratio(self, r):
        model = ToeplitzModel(r=r, max_depth=12)
        for q in range(12):
            assert model.branching(q) == (
                model.level_length(q + 1) // model.level_length(q))

    def test_branching_keeps_its_errors(self):
        model = ToeplitzModel(r=2, max_depth=4)
        with pytest.raises(CapError, match="period index 7 exceeds"):
            model.branching(6)
        model.branching(3)
        with pytest.raises(CapError, match="period index 5 exceeds"):
            model.branching(4)
        for q in (-1, -3):
            with pytest.raises(DomainError):
                model.branching(q)


class TestToeplitzLetters:
    def test_frozen_positions(self):
        model = ToeplitzModel(r=2)
        assert model.block_letter(0, 0) == 1
        assert model.block_letter(0, 1) == 2
        assert model.block_letter(0, 4) == 1
        assert model.block_letter(0, -1) == 1

    def test_frozen_windows(self):
        assert window(ToeplitzModel.of_rank(2), 0, 9) == (1, 2, 1, 1, 1, 1, 1, 2, 1)
        assert window(ToeplitzModel.of_rank(2), -1, 0) == (1,)
        assert window(ToeplitzModel.of_rank(1), 0, 3) == (1, 1, 1)

    @pytest.mark.parametrize("r", [2, 3])
    def test_against_construction_oracle(self, r):
        model = ToeplitzModel(r=r)
        p3 = 81
        oracle = brute_force_filling(r, -p3, p3)
        assert len(oracle) == 2 * p3  # every position is filled by step 6
        for q, (letter, step) in oracle.items():
            assert model.block_letter(0, q) == letter, q

    def test_every_position_defined_by_step_six(self):
        # the full two-sided window of length 2 * p_5, with the cap at 6: a
        # position that needs a seventh step raises a cap error
        model = ToeplitzModel.of_rank(2, max_depth=6)
        p5 = 177147
        for q in range(-p5, p5, 101):  # stride keeps the sweep under a second
            model.block_letter(0, q)
        # edges and block corners, exhaustively near the period boundaries
        for q in list(range(-p5, -p5 + 2200)) + list(range(p5 - 2200, p5)):
            model.block_letter(0, q)

    def test_cap_error_mentions_depth(self):
        model = ToeplitzModel.of_rank(2, max_depth=1)
        assert model.block_letter(0, 0) == 1
        with pytest.raises(CapError, match="max_depth"):
            model.block_letter(0, 1)

    def test_letter_matches_window(self):
        model = ToeplitzModel.of_rank(3)
        letters = window(model, -30, 30)
        assert letters == tuple(model.block_letter(0, q) for q in range(-30, 30))

    @given(start=st.integers(-3000, 3000), length=st.integers(0, 50),
           r=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_window_consistency(self, start, length, r):
        model = ToeplitzModel.of_rank(r)
        letters = window(model, start, start + length)
        assert len(letters) == length
        assert all(1 <= x <= r for x in letters)
        assert letters == tuple(model.block_letter(0, q)
                                for q in range(start, start + length))

    def test_reversed_window_rejected(self):
        with pytest.raises(DomainError):
            window(ToeplitzModel.of_rank(2), 5, 4)

    def test_window_cap(self):
        sub = SubstitutionModel.standard()
        limit = cap("letters")
        assert len(window(sub, -5, limit - 5)) == limit
        with pytest.raises(SizeError, match="cap"):
            window(sub, -5, limit - 4)

    def test_window_cap_fails_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                window(SubstitutionModel.standard(), 0, 10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**5


class TestSubstitution:
    def test_image_examples(self):
        assert substitution_image(SUB, (1,), 1) == (1, 1, 2)
        assert substitution_image(SUB, (1,), 2) == (1, 1, 2, 1, 1, 2, 1, 2, 2)
        assert substitution_image(SUB, (2,), 0) == (2,)

    def test_image_size_guard(self):
        with pytest.raises(SizeError):
            substitution_image(SUB, (1,), 20, max_letters=10**6)

    def test_fixed_window_examples(self):
        model = SUB
        assert window(model, -3, 3) == (1, 2, 2, 1, 1, 2)
        assert window(model, 0, 1) == (1,)
        assert window(model, -1, 0) == (2,)

    def test_fixed_point_re_expansion(self):
        # applying the rule to w[-n, n) and re-aligning at the dot must give
        # w[-3n, 3n) verbatim
        model = SUB
        for n in (1, 4, 9, 27):
            base = window(model, -n, n)
            grown = tuple(
                letter for x in base for letter in model.images[x - 1]
            )
            assert grown == window(model, -3 * n, 3 * n)

    def test_rule_validation(self):
        with pytest.raises(DomainError, match="at least one image"):
            SubstitutionModel(())
        with pytest.raises(DomainError, match="length >= 2"):
            SubstitutionModel(((1,), (2,)))
        with pytest.raises(DomainError, match="constant length"):
            SubstitutionModel(((1, 1), (1, 2, 2)))
        with pytest.raises(DomainError, match="outside 1..2"):
            SubstitutionModel(((1, 3, 2), (1, 2, 2)))
        with pytest.raises(ModelError, match="letters 1 and 2"):
            SubstitutionModel(((1, 1),))
        with pytest.raises(ModelError, match="start with 1"):
            SubstitutionModel(((2, 1, 1), (1, 2, 2)))
        with pytest.raises(ModelError, match="end with 2"):
            SubstitutionModel(((1, 1, 2), (2, 2, 1)))
        assert SubstitutionModel(([1, 1, 2], [1, 2, 2])) == SUB  # lists become tuples

    def test_model_letters_match_fixed_window(self):
        model = SubstitutionModel.standard()
        fresh = SubstitutionModel(((1, 1, 2), (1, 2, 2)))
        assert window(model, -9, 9) == tuple(fresh.block_letter(0, p)
                                             for p in range(-9, 9))


def _per_letter(model, start, stop):
    """Reference window: one positional query per letter."""
    try:
        return tuple(model.block_letter(0, p) for p in range(start, stop))
    except CapError as exc:
        return str(exc)


MODELS = st.one_of(
    st.sampled_from([SubstitutionModel.standard(), SUB_3]),
    st.builds(ToeplitzModel.of_rank, st.integers(1, 6),
              st.sampled_from([1, 2, 3, 4, 5, 6, 48])),
)


class TestWindowExpansion:
    """window() expands level words; it must agree with letter() everywhere."""

    @given(model=MODELS,
           start=st.one_of(st.integers(-3000, 3000), st.integers(-10**9, 10**9)),
           length=st.one_of(st.integers(0, 30), st.integers(0, 4000)))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_letter_lookup(self, model, start, length):
        expected = _per_letter(model, start, start + length)
        try:
            got = window(model, start, start + length)
        except CapError as exc:
            got = str(exc)
        assert got == expected

    def test_cap_error_inside_a_block_read_with_a_cap(self):
        # the level-1 block of position 1 is undetermined at max_depth 1,
        # yet its first letter is fixed by step 1
        model = ToeplitzModel.of_rank(2, max_depth=1)
        assert window(model, 0, 1) == (1,)
        assert window(model, 3, 4) == (1,)
        with pytest.raises(CapError) as exc:
            window(model, 0, 5)
        assert str(exc.value) == _per_letter(model, 0, 5)

    def test_no_per_position_state(self):
        """A model keeps nothing between calls: after use it holds only its
        record fields and equals a fresh one."""
        for make in (SubstitutionModel.standard, lambda: ToeplitzModel.of_rank(3)):
            model = make()
            assert len(window(model, 0, 10**5)) == 10**5
            block_type_counts(model, 0, 40, 1)
            transition_matrix(model, 5)
            ergodic_measure_count(model)
            assert tuple(vars(model)) == type(model).__match_args__
            assert model == make()


class TestBlockLabels:
    """block_labels() is block_letter() over a range, None for cap errors."""

    @given(model=MODELS, q=st.integers(0, 3),
           start=st.one_of(st.integers(-3000, 3000), st.integers(-10**9, 10**9)),
           length=st.one_of(st.integers(0, 30), st.integers(0, 2000)))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_block_lookup(self, model, q, start, length):
        try:
            model.level_length(q)
        except CapError as exc:  # a level past a capped model's depth
            with pytest.raises(CapError, match=re.escape(str(exc))):
                block_labels(model, q, start, start + length)
            return
        expected = []
        for k in range(start, start + length):
            try:
                expected.append(model.block_letter(q, k))
            except CapError:
                expected.append(None)
        assert block_labels(model, q, start, start + length) == tuple(expected)

    def test_undetermined_blocks_are_none(self):
        model = ToeplitzModel.of_rank(2, max_depth=1)
        assert block_labels(model, 0, -3, 3) == (1, None, 1, 1, None, 1)
        assert block_labels(model, 1, 0, 3) == (None, None, None)


# Models for the route comparison: r = 300 stores letters as 4-byte items,
# and capped Toeplitz models have blocks labelled None.
ROUTE_MODELS = st.one_of(
    st.sampled_from([SubstitutionModel.standard(), SUB_3]
                    + [ToeplitzModel.of_rank(r) for r in (1, 2, 3, 8, 300)]),
    st.builds(ToeplitzModel.of_rank, st.sampled_from([2, 3, 8, 300]),
              st.integers(1, 3)),
)


def _label_or_none(model, q, k):
    try:
        return model.block_letter(q, k)
    except CapError:
        return None


class TestExpansionRoutes:
    """block_labels, window and AtlasWord.word, which share one level-word
    expansion, against per-position queries."""

    @given(model=ROUTE_MODELS, q=st.integers(0, 2), data=st.data())
    @settings(max_examples=250, deadline=None)
    def test_ranges_match_per_position(self, model, q, data):
        try:
            unit = model.level_length(q)
            span = model.level_length(q + data.draw(st.integers(0, 3))) // unit
        except CapError:
            assume(False)
        edge = data.draw(st.integers(-4, 4)) * span
        # r = 300 builds level words (not only single letters) from 903 on
        length = data.draw(st.sampled_from([0, 1, 2, span, 3 * span])
                           | st.integers(0, 400) | st.integers(900, 3000))
        start = data.draw(st.sampled_from([
            edge, edge - length, -(length // 2) - 1, edge + 1,
        ]) | st.integers(-10**6, 10**6))
        stop = start + length
        expected = tuple(_label_or_none(model, q, k) for k in range(start, stop))
        assert block_labels(model, q, start, stop) == expected
        if q == 0:
            if None in expected:
                with pytest.raises(CapError) as exc:
                    window(model, start, stop)
                with pytest.raises(CapError, match=re.escape(str(exc.value))):
                    model.block_letter(0, start + expected.index(None))
            else:
                assert window(model, start, stop) == expected

    @given(model=ROUTE_MODELS, q=st.integers(0, 5), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_atlas_word_matches_letter_at(self, model, q, data):
        try:
            length = model.level_length(q)
        except CapError:
            assume(False)
        assume(length <= 3000)
        letter = data.draw(st.sampled_from([1, model.r]) | st.integers(1, model.r))
        expected = tuple(letter_at(model, q, letter, k) for k in range(length))
        assert atlas_words(model, q).word(letter) == expected

    def test_window_peak_allocation_is_near_the_result(self):
        model = SubstitutionModel.standard()
        window(model, 0, 10)
        tracemalloc.start()
        try:
            letters = window(model, -400_000, 600_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(letters) == 10**6
        assert peak <= 1.5 * sys.getsizeof(letters)


class TestAtlas:
    @given(model=MODELS, q=st.integers(0, 6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_word_matches_letter_at(self, model, q, data):
        try:
            length = model.level_length(q)
        except CapError:
            length = None
        assume(length is not None and length <= 5000)
        letter = data.draw(st.integers(1, model.r))
        expected = tuple(letter_at(model, q, letter, k) for k in range(length))
        assert atlas_words(model, q).word(letter) == expected

    def test_toeplitz_level_words(self):
        t2 = ToeplitzModel.of_rank(2)
        lvl1 = atlas_words(t2, 1)
        assert word_to_str(lvl1.word(1), 2) == "111"
        assert word_to_str(lvl1.word(2), 2) == "121"
        lvl2 = atlas_words(t2, 2)
        assert word_to_str(lvl2.word(1), 2) == "121111121"
        assert word_to_str(lvl2.word(2), 2) == "121121121"

    def test_substitution_level_words(self):
        sub = SubstitutionModel.standard()
        lvl1 = atlas_words(sub, 1)
        assert word_to_str(lvl1.word(1), 2) == "112"
        assert word_to_str(lvl1.word(2), 2) == "122"
        lvl2 = atlas_words(sub, 2)
        assert lvl2.word(1) == substitution_image(SUB, (1,), 2)

    def test_level_zero(self):
        for model in (ToeplitzModel.of_rank(3), SubstitutionModel.standard()):
            lvl = atlas_words(model, 0)
            assert lvl.length == 1
            assert [lvl.word(i) for i in range(1, model.r + 1)] == [
                (i,) for i in range(1, model.r + 1)
            ]

    def test_lengths(self):
        t2 = ToeplitzModel.of_rank(2)
        assert [atlas_words(t2, q).length for q in range(5)] == [1, 3, 9, 81, 2187]
        sub = SubstitutionModel.standard()
        assert [atlas_words(sub, q).length for q in range(5)] == [1, 3, 9, 27, 81]

    def test_concatenation_structure(self):
        # level-(q+1) words are exact concatenations of level-q words
        for model in (ToeplitzModel.of_rank(3), SubstitutionModel.standard()):
            for q in (0, 1, 2):
                low = atlas_words(model, q)
                high = atlas_words(model, q + 1)
                for i in range(1, model.r + 1):
                    parts = []
                    for child in model.children(q + 1, i):
                        parts.extend(low.word(child))
                    assert tuple(parts) == high.word(i)

    def test_materialization_cap(self):
        sub = SubstitutionModel.standard()
        with pytest.raises(SizeError):
            atlas_words(sub, 5).word(1, max_letters=100)  # length 243
        assert len(atlas_words(sub, 5).word(1, max_letters=243)) == 243

    def test_lazy_letter_at(self):
        t2 = ToeplitzModel.of_rank(2)
        handle = atlas_words(t2, 5)
        assert handle.length == 177147  # not materialized
        expected = window(t2, 0, 40)
        # level-5 word 1 occupies positions [0, p_5) of the sequence itself
        assert tuple(letter_at(t2, 5, 1, k) for k in range(40)) == expected

    @pytest.mark.parametrize("model", [ToeplitzModel.of_rank(2),
                                       SubstitutionModel.standard()],
                             ids=["toeplitz", "substitution"])
    def test_child_at_checks_like_children(self, model):
        assert [model.child_at(1, 2, k) for k in range(3)] == list(
            model.children(1, 2))
        # a letter outside 1..r, a slot outside 0..2 (negative ones too) and
        # level 0 are all refused, by both models alike
        for q, letter, slot in ((1, 99, 1), (1, 0, 0), (1, 1, -1), (1, 1, 3),
                                (0, 1, 0)):
            with pytest.raises(DomainError):
                model.child_at(q, letter, slot)
        with pytest.raises(DomainError):
            occurrence_classes(model, 0, 99)


class TestBlockDecompose:
    def test_frozen_examples(self):
        t2 = ToeplitzModel.of_rank(2)
        dec = block_decompose(t2, (0, 9), 1)
        assert [(b[0], b[1]) for b in dec.blocks] == [(0, 2), (3, 1), (6, 2)]
        dec2 = block_decompose(t2, (0, 9), 2)
        assert [(b[0], b[1]) for b in dec2.blocks] == [(0, 1)]
        sub = SubstitutionModel.standard()
        dec3 = block_decompose(sub, (0, 3), 1)
        assert [(b[0], b[1]) for b in dec3.blocks] == [(0, 1)]

    def test_alignment_required(self):
        t2 = ToeplitzModel.of_rank(2)
        with pytest.raises(AlignmentError):
            block_decompose(t2, (1, 10), 1)
        with pytest.raises(AlignmentError):
            block_decompose(t2, (0, 8), 1)

    @pytest.mark.parametrize("model_key", ["t2", "t3", "sub"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_reconstruction(self, model_key, q):
        model = {
            "t2": ToeplitzModel.of_rank(2),
            "t3": ToeplitzModel.of_rank(3),
            "sub": SubstitutionModel.standard(),
        }[model_key]
        length = model.level_length(q)
        lvl = atlas_words(model, q)
        for start_block in (-4, -1, 0, 2):
            start = start_block * length
            stop = start + 3 * length
            dec = block_decompose(model, (start, stop), q)
            rebuilt = []
            for _, letter in dec.blocks:
                rebuilt.extend(lvl.word(letter))
            assert tuple(rebuilt) == window(model, start, stop)


@st.composite
def counted_models(draw):
    """The standard rule, a constant-length rule with the fixed-point
    property over 2..4 letters of length 2..4, or Toeplitz over 1..5 letters."""
    kind = draw(st.sampled_from(["standard", "rule", "toeplitz"]))
    if kind == "standard":
        return SUB
    if kind == "toeplitz":
        return ToeplitzModel.of_rank(draw(st.integers(1, 5)))
    r, length = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    images = [draw(st.lists(st.integers(1, r), min_size=length,
                            max_size=length)) for _ in range(r)]
    images[0][0], images[1][-1] = 1, 2
    return SubstitutionModel(tuple(map(tuple, images)))


class TestCounting:
    @given(model=counted_models(), base=st.integers(0, 6), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_counts_from_any_base_match_expanded_words(self, model, base, data):
        """Levels base .. q whose word holds at most 10^5 level-base labels."""
        top = base
        while top < base + 8 and (model.level_length(top + 1)
                                  // model.level_length(base) <= 10**5):
            top += 1
        q = data.draw(st.integers(base, top), label="q")
        letter = data.draw(st.integers(1, model.r), label="letter")
        assert block_type_counts(model, base, q, letter) == (
            expanded_label_counts(model, base, q, letter))

    def test_frozen_counts(self):
        sub = SubstitutionModel.standard()
        assert block_type_counts(sub, 0, 1, 1) == (2, 1)
        assert block_type_counts(sub, 0, 2, 1) == (5, 4)
        t2 = ToeplitzModel.of_rank(2)
        assert block_type_counts(t2, 0, 1, 2) == (2, 1)

    @pytest.mark.parametrize("r", [2, 3])
    def test_toeplitz_counts_match_materialized(self, r):
        model = ToeplitzModel.of_rank(r)
        for q in range(5):  # p_4 = 2187 <= 1e5
            lvl = atlas_words(model, q)
            for i in range(1, r + 1):
                word = lvl.word(i)
                brute = tuple(word.count(c) for c in range(1, r + 1))
                assert block_type_counts(model, 0, q, i) == brute

    def test_substitution_counts_match_materialized(self):
        model = SubstitutionModel.standard()
        for q in range(11):  # 3^10 = 59049 <= 1e5
            lvl = atlas_words(model, q)
            for i in (1, 2):
                word = lvl.word(i)
                brute = (word.count(1), word.count(2))
                assert block_type_counts(model, 0, q, i) == brute

    def test_counts_sum_to_length(self):
        for model in (ToeplitzModel.of_rank(5), SubstitutionModel.standard()):
            for q in (0, 1, 3, 7):
                for i in range(1, model.r + 1):
                    counts = block_type_counts(model, 0, q, i)
                    assert sum(counts) == model.level_length(q)

    def test_block_type_counts_against_decomposition(self):
        t3 = ToeplitzModel.of_rank(3)
        # count level-1 blocks inside the level-3 word and cross-check by
        # decomposing the actual sequence window the word covers
        counts = block_type_counts(t3, 1, 3, 1)
        dec = block_decompose(t3, (0, t3.level_length(3)), 1)
        brute = [0, 0, 0]
        for _, letter in dec.blocks:
            brute[letter - 1] += 1
        assert list(counts) == brute

    def test_counts_deeper_than_the_recursion_limit(self):
        three = 3**5000
        assert block_type_counts(SubstitutionModel.standard(), 0, 5000, 1) == (
            (three + 1) // 2, (three - 1) // 2)

    def test_cached_counts_do_not_depend_on_query_order(self):
        warm = ToeplitzModel.of_rank(3)
        block_type_counts(warm, 0, 6, 2)
        block_type_counts(warm, 1, 6, 2)
        for base, q in ((1, 3), (1, 8), (0, 6), (1, 6), (1, 1), (2, 7)):
            for i in (1, 2, 3):
                cold = ToeplitzModel.of_rank(3)
                assert block_type_counts(warm, base, q, i) == (
                    block_type_counts(cold, base, q, i))

    @pytest.mark.parametrize("order", [
        (9, 5, 2, 0), (0, 2, 5, 9), (5, 5, 9, 9, 2, 2)],
        ids=["descending", "ascending", "repeated"])
    def test_counts_do_not_depend_on_level_order(self, order):
        warm = ToeplitzModel.of_rank(3)
        for q in order:
            for base in {0, min(q, 2)}:
                assert block_type_counts(warm, base, q, 2) == (
                    block_type_counts(ToeplitzModel.of_rank(3), base, q, 2))

    def test_counts_keep_one_level_per_base(self):
        model = SubstitutionModel.standard()
        tracemalloc.start()
        try:
            block_type_counts(model, 0, 3000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_deep_counts_without_materialization(self):
        t2 = ToeplitzModel.of_rank(2)
        counts = block_type_counts(t2, 0, 8, 1)
        assert sum(counts) == t2.level_length(8)  # astronomically long word


class TestWordStrings:
    def test_compact_digits(self):
        assert word_to_str((1, 2, 1), 2) == "121"
        assert word_from_str("121") == (1, 2, 1)

    def test_comma_form_above_nine(self):
        text = word_to_str((1, 10, 3), 12)
        assert text == "1,10,3"
        assert word_from_str(text) == (1, 10, 3)

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, letters):
        assert word_from_str(word_to_str(tuple(letters), 9)) == tuple(letters)
