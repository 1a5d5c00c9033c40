"""Transition matrices, Hilbert-metric contraction, ergodic counting,
mass conservation, frequencies."""

import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyptiling import (
    PAPER,
    TRIANGLE,
    BudgetError,
    DegeneracyError,
    DomainError,
    InconclusiveError,
    SubstitutionModel,
    ToeplitzModel,
    TransitionMatrix,
    UnsupportedSchemeError,
    atlas_words,
    birkhoff_factor,
    compose_range,
    contraction_certificate,
    ergodic_measure_count,
    expected_block_fractions,
    hull_contains,
    hull_membership,
    mass_conservation_check,
    measure_frequencies,
    nested_simplex,
    projective_diameter,
    projective_distance,
    transition_matrix,
)
from hyptiling import errors, measures
from hyptiling.exact import reduce_dyadic
from oracles import hilbert_distance_segment

SUB = SubstitutionModel.standard()
T2 = ToeplitzModel.of_rank(2)
T3 = ToeplitzModel.of_rank(3)


def brute_matrix(model, q):
    """Independent tally: decompose the level-(q+1) words into level-q blocks
    and count each child label."""
    high = model.level_length(q + 1)
    rows = [[0] * model.r for _ in range(model.r)]
    lvl1 = atlas_words(model, q + 1)
    lvlq = atlas_words(model, q)
    for j in range(1, model.r + 1):
        word = lvl1.word(j)
        length = model.level_length(q)
        for start in range(0, high, length):
            block = word[start:start + length]
            for i in range(1, model.r + 1):
                if block == lvlq.word(i):
                    rows[i - 1][j - 1] += 1
                    break
            else:
                raise AssertionError("block is not a level word")
    return rows


simplex_point = st.integers(1, 50).flatmap(
    lambda a: st.integers(1, 50).map(
        lambda b: (Fraction(a, a + b), Fraction(b, a + b))
    )
)


class TestTriangleMatrices:
    def test_substitution_constant(self):
        for q in range(4):
            m = transition_matrix(SUB, q, TRIANGLE)
            assert m.rows == ((2, 1), (1, 2))
            assert m.level == q and m.scheme == TRIANGLE

    def test_toeplitz_levels(self):
        assert transition_matrix(T2, 1, TRIANGLE).rows == ((1, 0), (2, 3))
        assert transition_matrix(T2, 2, TRIANGLE).rows == ((9, 2), (0, 7))

    @pytest.mark.parametrize("model", [SUB, T2, T3], ids=["sub", "t2", "t3"])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_against_decomposition_tally(self, model, q):
        m = transition_matrix(model, q, TRIANGLE)
        brute = brute_matrix(model, q)
        for i in range(model.r):
            for j in range(model.r):
                assert m.rows[i][j] == brute[i][j]

    @pytest.mark.parametrize("model", [SUB, T2, T3], ids=["sub", "t2", "t3"])
    def test_column_sums_count_blocks(self, model):
        for q in range(5):
            m = transition_matrix(model, q, TRIANGLE)
            blocks = model.level_length(q + 1) // model.level_length(q)
            assert m.column_sums() == (blocks,) * model.r

    def test_entries_are_exact(self):
        m = transition_matrix(T2, 4, TRIANGLE)
        assert all(
            isinstance(m.rows[i][j], (int, Fraction))
            for i in range(2) for j in range(2)
        )
        assert sum(row[0] for row in m.rows) == 3**4


class TestClosedFormMatrices:
    def test_level_one(self):
        m = transition_matrix(SUB, 1, PAPER)
        assert m.rows == (
            (Fraction(5, 4), 1),
            (Fraction(1, 16), Fraction(5, 16)),
        )

    def test_level_two(self):
        m = transition_matrix(SUB, 2, PAPER)
        t = Fraction(1, 2**8)
        s = Fraction(1, 2**16)
        assert m.rows == ((1 + t, 1), (s, t + s))

    def test_strictly_positive(self):
        assert transition_matrix(SUB, 1, PAPER).strictly_positive()
        assert not transition_matrix(T2, 1, TRIANGLE).strictly_positive()

    def test_scheme_restrictions(self):
        with pytest.raises(UnsupportedSchemeError):
            transition_matrix(T2, 1, PAPER)
        other = SubstitutionModel(((1, 2, 2), (1, 2, 2)))
        with pytest.raises(UnsupportedSchemeError):
            transition_matrix(other, 1, PAPER)
        with pytest.raises(DomainError):
            transition_matrix(SUB, 0, PAPER)
        with pytest.raises(UnsupportedSchemeError):
            transition_matrix(SUB, 1, "banana")


class TestComposition:
    def test_toeplitz_product(self):
        m = compose_range(T2, TRIANGLE, 1, 3)
        assert m.rows == ((9, 2), (18, 25))

    def test_substitution_cube(self):
        m = compose_range(SUB, TRIANGLE, 0, 3)
        assert m.rows == ((14, 13), (13, 14))

    def test_empty_range_is_identity(self):
        m = compose_range(T3, TRIANGLE, 4, 4)
        assert m.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_reversed_range_rejected(self):
        with pytest.raises(DomainError):
            compose_range(SUB, TRIANGLE, 3, 1)

    def test_bit_budget(self, monkeypatch):
        monkeypatch.setitem(errors.CAPS, "entry_bits", (64, "bits"))
        with pytest.raises(BudgetError):
            compose_range(T2, TRIANGLE, 1, 12)

    def test_matches_repeated_multiplication(self):
        prod = [[1, 0], [0, 1]]
        for q in range(1, 4):
            m = transition_matrix(T2, q, TRIANGLE).rows
            prod = [
                [sum(prod[i][k] * m[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]
        got = compose_range(T2, TRIANGLE, 1, 4)
        assert [list(r) for r in got.rows] == prod


class TestNestedSimplices:
    def test_first_levels(self):
        s = nested_simplex(SUB, TRIANGLE, 1, 2)
        assert s == (
            (Fraction(2, 3), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(2, 3)),
        )
        s3 = nested_simplex(SUB, TRIANGLE, 1, 3)
        assert s3 == (
            (Fraction(5, 9), Fraction(4, 9)),
            (Fraction(4, 9), Fraction(5, 9)),
        )

    def test_toeplitz_boundary_vertex(self):
        s = nested_simplex(T2, TRIANGLE, 1, 2)
        assert s == (
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(0), Fraction(1)),
        )

    def test_vertices_are_stochastic(self):
        for m in (2, 3, 5):
            s = nested_simplex(T3, TRIANGLE, 1, m)
            for v in s:
                assert sum(v) == 1
                assert all(x >= 0 for x in v)

    def test_depth_below_base_rejected(self):
        with pytest.raises(DomainError):
            nested_simplex(SUB, TRIANGLE, 3, 2)


def ray(point, k):
    """An integer vector on the ray of a simplex point, scaled by k: the
    unnormalized form in which matrix columns reach `projective_distance`."""
    total = math.lcm(*(v.denominator for v in point))
    return tuple(k * int(v * total) for v in point)


class TestHilbertMetric:
    def test_frozen_example(self):
        d = projective_distance((Fraction(1, 4), Fraction(3, 4)),
                                (Fraction(1, 2), Fraction(1, 2)))
        assert d == pytest.approx(math.log(3), rel=1e-15)

    def test_coincident_points(self):
        p = (Fraction(2, 5), Fraction(3, 5))
        assert projective_distance(p, p) == 0.0
        assert hilbert_distance_segment(p, p) == 0.0

    def test_boundary_is_infinitely_far(self):
        assert projective_distance(
            (0, 1), (Fraction(1, 2), Fraction(1, 2))) == math.inf
        assert hilbert_distance_segment(
            (0, 1), (Fraction(1, 2), Fraction(1, 2))
        ) == math.inf

    def test_supports_are_compared_before_any_product(self):
        """Rays that differ in support only at the last index are infinitely
        far apart, whatever their other entries would multiply to."""

        class Entry:
            def __bool__(self):
                return True

            def __mul__(self, other):
                raise AssertionError("an entry was multiplied")

            __rmul__ = __mul__

        wide = (Entry(), Entry(), Entry())
        assert projective_distance((*wide, 1), (*wide, 0)) == math.inf
        assert projective_distance((*wide, 0), (*wide, 1)) == math.inf

    @given(x=simplex_point, y=simplex_point, k=st.integers(2, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_segment_route_agrees(self, x, y, k):
        direct = projective_distance(x, y)
        via_chord = hilbert_distance_segment(x, y)
        assert via_chord == pytest.approx(direct, rel=1e-9, abs=1e-12)
        assert projective_distance(ray(x, k), ray(y, 1)) == direct

    @given(x=simplex_point, y=simplex_point, k=st.integers(2, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_positive_matrix_contracts(self, x, y, k):
        rows = ((2, 1), (1, 2))
        def image(p):
            return (
                rows[0][0] * p[0] + rows[0][1] * p[1],
                rows[1][0] * p[0] + rows[1][1] * p[1],
            )
        def act(p):
            img = image(p)
            total = img[0] + img[1]
            return (img[0] / total, img[1] / total)
        before = projective_distance(x, y)
        after = projective_distance(act(x), act(y))
        assert after <= before / 3 + 1e-12  # factor tanh(ln(4)/4) = 1/3
        assert projective_distance(image(ray(x, k)), image(ray(y, 1))) == after


class TestContraction:
    def test_triangle_diameter_and_factor(self):
        m = transition_matrix(SUB, 1, TRIANGLE)
        diam = projective_diameter(m)
        assert diam == pytest.approx(math.log(4), rel=1e-15)
        factor, gap = birkhoff_factor(diam)
        assert factor == pytest.approx(1 / 3, abs=1e-15)
        assert gap == pytest.approx(2 / 3, abs=1e-15)

    def test_infinite_diameter(self):
        m = transition_matrix(T2, 1, TRIANGLE)
        assert projective_diameter(m) == math.inf
        assert birkhoff_factor(math.inf) == (1.0, 0.0)

    @given(data=st.data(), r=st.integers(1, 4), shared=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_diameter_is_the_largest_pairwise_distance(self, data, r, shared):
        """Against every pair of columns: columns of one support pattern
        (shared) or of one each, with all-zero rows.  No column is zero, as
        no column of a level matrix is."""
        pattern = st.lists(st.booleans(), min_size=r, max_size=r).filter(any)
        patterns = [data.draw(pattern)] * r if shared else [
            data.draw(pattern) for _ in range(r)]
        cols = [[data.draw(st.integers(1, 5)) if p else 0 for p in support]
                for support in patterns]
        m = TransitionMatrix(level=0, scheme=TRIANGLE,
                             ints=tuple(zip(*cols)), shift=0)
        want = max([0.0] + [projective_distance(a, b)
                            for i, a in enumerate(cols) for b in cols[i + 1:]])
        assert projective_diameter(m) == want

    def test_supports_decide_before_any_distance(self, monkeypatch):
        """A rank-64 Toeplitz level has 64 support patterns: its diameter is
        infinite without one of the 2,016 pairwise distances."""
        calls = []
        monkeypatch.setattr(measures, "projective_distance",
                            lambda *rays: calls.append(rays))
        m = transition_matrix(ToeplitzModel.of_rank(64), 5, TRIANGLE)
        assert projective_diameter(m) == math.inf
        assert calls == []

    def test_gap_stays_positive_for_huge_diameters(self):
        factor, gap = birkhoff_factor(500.0)
        assert factor == 1.0  # saturated in float
        assert 0.0 < gap < 1e-100

    def test_negative_diameter_rejected(self):
        with pytest.raises(DomainError):
            birkhoff_factor(-0.5)

    def test_substitution_certificate(self):
        report = contraction_certificate(SUB, TRIANGLE, range(1, 5))
        assert report.verdict == "uniformly contracting"
        for lc in report.levels:
            assert lc.strictly_positive
            assert lc.factor == pytest.approx(1 / 3, abs=1e-15)
            assert lc.gap > 0

    def test_toeplitz_certificate_withholds(self):
        report = contraction_certificate(T2, TRIANGLE, [1])
        lc = report.levels[0]
        assert not lc.strictly_positive
        assert math.isinf(lc.diameter)
        assert "withheld" in lc.note
        assert report.verdict == "withheld"

    def test_closed_form_certificate(self):
        report = contraction_certificate(SUB, PAPER, range(1, 4))
        assert report.verdict == "uniformly contracting"
        for lc in report.levels:
            assert lc.factor < 1.0 or lc.gap > 0.0


class TestErgodicCount:
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_toeplitz_counts(self, r):
        result = ergodic_measure_count(ToeplitzModel.of_rank(r))
        assert result.status == "stabilized"
        assert result.count == r
        assert result.max_matched_distance <= 1e-6
        assert len(result.witnesses) == r

    def test_substitution_both_schemes(self):
        for scheme in (TRIANGLE, PAPER):
            result = ergodic_measure_count(SUB, scheme)
            assert (result.count, result.status) == (1, "stabilized"), scheme

    def test_shallow_scan_is_inconclusive(self):
        result = ergodic_measure_count(T3, max_depth=5)
        assert result.status == "inconclusive"
        assert result.count == 3  # the raw cluster count is already right
        assert result.note

    def test_depth_must_allow_a_pair(self):
        with pytest.raises(DomainError):
            ergodic_measure_count(T2, max_depth=2)

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, -1e-9])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        with pytest.raises(DomainError, match="tolerance"):
            ergodic_measure_count(T3, tolerance=tolerance)
        assert ergodic_measure_count(T3, tolerance=0.0).count == 3

    def test_witnesses_lie_in_clusters(self):
        result = ergodic_measure_count(T2)
        assert result.count == 2
        seen = sorted(idx for cluster in result.clusters for idx in cluster)
        assert seen == [0, 1]
        for vertex in result.witnesses:
            assert sum(vertex) == 1

    def test_json_shape(self):
        payload = ergodic_measure_count(SUB).to_json()
        assert payload["ergodic_count"] == 1
        assert payload["status"] == "stabilized"
        assert isinstance(payload["witnesses"][0][0], float)


class TestHulls:
    def test_deeper_simplex_nests_inside(self):
        outer = nested_simplex(SUB, TRIANGLE, 1, 3)
        inner = nested_simplex(SUB, TRIANGLE, 1, 4)
        assert hull_contains(outer, inner)
        assert not hull_contains(inner, outer)

    def test_nesting_chain(self):
        prev = nested_simplex(T3, TRIANGLE, 1, 2)
        for m in (3, 4):
            cur = nested_simplex(T3, TRIANGLE, 1, m)
            assert hull_contains(prev, cur)
            prev = cur

    def test_membership_coordinates_exact(self):
        outer = nested_simplex(SUB, TRIANGLE, 1, 2)
        # the barycenter of the outer vertices has coordinates (1/2, 1/2)
        mid = tuple(
            (a + b) / 2 for a, b in zip(outer[0], outer[1])
        )
        coords = hull_membership(outer, mid)
        assert coords == (Fraction(1, 2), Fraction(1, 2))

    def test_integer_vertices_stay_exact(self):
        unit = ((1, 0), (0, 1))
        for point in ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2),) * 2):
            coords = hull_membership(unit, point)
            assert coords == point
            assert all(type(c) is Fraction for c in coords)

    def test_outside_point_gets_negative_coordinate(self):
        outer = nested_simplex(SUB, TRIANGLE, 1, 2)
        coords = hull_membership(outer, (Fraction(9, 10), Fraction(1, 10)))
        assert any(c < 0 for c in coords)
        assert sum(coords) == 1


class TestMassConservation:
    @pytest.mark.parametrize("model", [SUB, T2, T3, ToeplitzModel.of_rank(5)],
                             ids=["sub", "t2", "t3", "t5"])
    def test_triangle_scheme_conserves(self, model):
        for q in range(7):
            res = mass_conservation_check(model, TRIANGLE, q)
            assert res.conserved
            assert res.residuals == (Fraction(0),) * model.r

    def test_closed_form_residual(self):
        res = mass_conservation_check(SUB, PAPER, 1)
        assert res.residuals == (Fraction(81, 16), Fraction(81, 16))
        assert not res.conserved

    def test_closed_form_residual_grows(self):
        r1 = mass_conservation_check(SUB, PAPER, 1).residuals[0]
        r2 = mass_conservation_check(SUB, PAPER, 2).residuals[0]
        assert r2 > r1 > 0

    def test_each_weight_is_written_once(self, monkeypatch):
        model = ToeplitzModel.of_rank(5)
        want = [str(model.level_length(3))] * 5
        calls = []

        def decimal_string(n):
            calls.append(n)
            return str(n)

        monkeypatch.setattr(measures, "decimal_string", decimal_string)
        assert mass_conservation_check(model, TRIANGLE, 3).to_json()[
            "weights"] == want
        assert calls == [model.level_length(3)]

    def test_json_round_trip_exact(self):
        payload = mass_conservation_check(SUB, PAPER, 1).to_json()
        assert payload["residuals"][0] == {"num": "81", "den": "16"}
        assert payload["conserved"] is False


class TestFrequencies:
    def test_substitution_level_two(self):
        result = measure_frequencies(SUB, TRIANGLE, 0, 2,
                                     ergodic_measure_count(SUB))
        assert result.frequencies == (Fraction(5, 9), Fraction(4, 9))
        assert result.anchor_letter == 1

    def test_toeplitz_two_measures(self):
        stab = ergodic_measure_count(T2)
        m0 = measure_frequencies(T2, TRIANGLE, 0, 2, stab)
        assert m0.frequencies == (Fraction(7, 9), Fraction(2, 9))
        m1 = measure_frequencies(T2, TRIANGLE, 1, 2, stab)
        assert m1.frequencies == (Fraction(2, 3), Fraction(1, 3))

    def test_matches_direct_word_counts(self):
        stab = ergodic_measure_count(T3)
        for idx in range(3):
            result = measure_frequencies(T3, TRIANGLE, idx, 3, stab)
            word = atlas_words(T3, 3).word(result.anchor_letter)
            assert result.frequencies == tuple(
                Fraction(word.count(c), len(word)) for c in (1, 2, 3)
            )

    def test_unstabilized_input_rejected(self):
        shallow = ergodic_measure_count(T3, max_depth=5)
        with pytest.raises(InconclusiveError):
            measure_frequencies(T3, TRIANGLE, 0, 2, shallow)

    def test_bad_measure_index(self):
        stab = ergodic_measure_count(T2)
        with pytest.raises(DomainError):
            measure_frequencies(T2, TRIANGLE, 2, 2, stab)

    def test_limit_frequencies_unique_case(self):
        freqs = expected_block_fractions(SUB, 0)
        assert freqs[0] == pytest.approx(0.5, abs=1e-9)
        assert freqs[1] == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# The integer-plus-shift representation against plain Fraction arithmetic.
#
# The references below multiply Fraction matrices and normalize Fraction
# columns, measuring entry sizes on the reduced rationals: the arithmetic the
# integer form replaces.  They share no code with measures.py beyond the
# Fraction route of projective_distance.


def fraction_level(model, q, scheme):
    if scheme == PAPER:
        t = Fraction(1, 2 ** (3**q - 1))
        s = Fraction(1, 2 ** (2 * 3**q - 2))
        return ((1 + t, Fraction(1)), (s, t + s))
    cols = [model.children_count_vector(q + 1, j) for j in range(1, model.r + 1)]
    return tuple(
        tuple(Fraction(cols[j][i]) for j in range(model.r))
        for i in range(model.r)
    )


def fraction_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def fraction_bits(rows):
    return max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for row in rows for x in row
    )


def fraction_compose(model, scheme, q_from, q_to, budget):
    rows = tuple(
        tuple(Fraction(int(i == j)) for j in range(model.r))
        for i in range(model.r)
    )
    for q in range(q_from, q_to):
        rows = fraction_mul(rows, fraction_level(model, q, scheme))
        if fraction_bits(rows) > budget:
            raise BudgetError(
                f"composition through level {q} exceeds the "
                f"{budget}-bit entry budget"
            )
    return rows


def fraction_vertices(rows):
    cols = [tuple(row[j] for row in rows) for j in range(len(rows))]
    return tuple(tuple(x / sum(c) for x in c) for c in cols)


def fraction_clusters(vertices, tol):
    clusters = []
    for idx, vertex in enumerate(vertices):
        for members in clusters:
            if projective_distance(vertices[members[0]], vertex) <= tol:
                members.append(idx)
                break
        else:
            clusters.append([idx])
    return tuple(tuple(c) for c in clusters)


def fraction_ergodic(model, scheme, tol=1e-6, max_depth=36, base=1,
                     budget=10**6):
    """(count, status, depth, clusters, witnesses, note) by Fractions; a
    first level over the budget leaves no simplex and is refused."""
    rows = fraction_level(model, base, scheme)
    if fraction_bits(rows) > budget:
        raise BudgetError(f"composition through level {base} exceeds the "
                          f"{budget}-bit entry budget")
    prev = fraction_vertices(rows)
    prev_clusters = fraction_clusters(prev, tol)
    note, depth = "", base + 1
    for m in range(base + 2, max_depth + 1):
        rows = fraction_mul(rows, fraction_level(model, m - 1, scheme))
        if fraction_bits(rows) > budget:
            note = (f"composition through level {m - 1} exceeds the "
                    f"{budget}-bit entry budget")
            break
        cur = fraction_vertices(rows)
        cur_clusters = fraction_clusters(cur, tol)
        depth = m
        if len(cur_clusters) == len(prev_clusters):
            moved = max(projective_distance(a, b) for a, b in zip(prev, cur))
            if moved <= tol:
                wit = tuple(cur[c[0]] for c in cur_clusters)
                return (len(cur_clusters), "stabilized", m, cur_clusters, wit, "")
        prev, prev_clusters = cur, cur_clusters
    wit = tuple(prev[c[0]] for c in prev_clusters)
    note = note or f"no consecutive-depth match within {tol} by depth {max_depth}"
    return (len(prev_clusters), "inconclusive", depth, prev_clusters, wit, note)


def ergodic_tuple(result):
    return (result.count, result.status, result.depth, result.clusters,
            result.witnesses, result.note)


MODELS = {
    "sub": SUB,
    **{f"t{r}": ToeplitzModel.of_rank(r) for r in range(1, 6)},
}

level_ranges = st.one_of(
    st.tuples(st.sampled_from(sorted(MODELS)), st.just(TRIANGLE),
              st.integers(0, 24), st.integers(0, 12)),
    st.tuples(st.just("sub"), st.just(PAPER),
              st.integers(1, 7), st.integers(0, 3)),
).map(lambda t: (MODELS[t[0]], t[1], t[2], t[2] + t[3]))

budgets = st.one_of(st.just(10**6), st.integers(1, 400))


@st.composite
def fixed_point_rules(draw):
    """Constant-length rules over 2..4 letters with images of length 2..5,
    image of 1 starting with 1 and image of 2 ending with 2."""
    r, length = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    images = [draw(st.lists(st.integers(1, r), min_size=length,
                            max_size=length)) for _ in range(r)]
    images[0][0], images[1][-1] = 1, 2
    return SubstitutionModel(tuple(map(tuple, images)))


def outcome(call):
    try:
        return call()
    except BudgetError as err:
        return ("budget", str(err))


class TestIntegerRepresentation:
    @given(case=level_ranges, budget=budgets)
    @settings(max_examples=120, deadline=None)
    def test_compose_matches_fraction_product(self, case, budget):
        model, scheme, q_from, q_to = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(errors.CAPS, "entry_bits", (budget, "bits"))
            got = outcome(
                lambda: compose_range(model, scheme, q_from, q_to).rows)
        want = outcome(
            lambda: fraction_compose(model, scheme, q_from, q_to, budget))
        assert got == want

    @pytest.mark.parametrize("model,scheme", [
        (ToeplitzModel.of_rank(r), TRIANGLE) for r in (2, 3, 5, 8)
    ] + [(SUB, TRIANGLE), (SUB, PAPER)],
        ids=["t2", "t3", "t5", "t8", "sub-triangle", "sub-paper"])
    def test_ergodic_count_unchanged(self, model, scheme):
        got = ergodic_measure_count(model, scheme)
        assert ergodic_tuple(got) == fraction_ergodic(model, scheme)

    @given(case=st.one_of(
               st.integers(1, 8).map(lambda r: (ToeplitzModel.of_rank(r),
                                                TRIANGLE)),
               st.sampled_from([(SUB, TRIANGLE), (SUB, PAPER)])),
           tol=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.5]),
           max_depth=st.integers(3, 16))
    @settings(max_examples=40, deadline=None)
    def test_ergodic_count_matches_eager_clustering(self, case, tol,
                                                    max_depth):
        """fraction_ergodic clusters every depth; the count must agree at
        any tolerance and depth, stabilized or not."""
        model, scheme = case
        got = ergodic_measure_count(model, scheme, tolerance=tol,
                                    max_depth=max_depth)
        assert ergodic_tuple(got) == fraction_ergodic(
            model, scheme, tol=tol, max_depth=max_depth)

    @given(model=fixed_point_rules(), q_from=st.integers(0, 4),
           levels=st.integers(0, 8), gate=st.sampled_from([None, 0]))
    @settings(max_examples=60, deadline=None)
    def test_rule_products_match_fraction_product(self, model, q_from,
                                                  levels, gate):
        """Triangle weights of random rules are small counts such as 3, 5
        and 6; with the shift gate at 0 bits they take the shift branch."""
        q_to = q_from + levels
        with pytest.MonkeyPatch.context() as patch:
            if gate is not None:
                patch.setattr(measures, "_SHIFT_BITS", gate, raising=False)
            got = outcome(lambda: compose_range(model, TRIANGLE, q_from,
                                                q_to).ints)
        want = outcome(lambda: fraction_compose(model, TRIANGLE, q_from, q_to,
                                                10**6))
        assert got == want

    @pytest.mark.parametrize("x", [
        1 << 70, 8, 3, (1 << 40) + 2, (1 << 100) + (1 << 99),
        (1 << 354_000) + 2, (1 << 100) + (1 << 50) + 1, 3**200 + 7,
    ], ids=["wide-power", "narrow-power", "narrow-adjacent", "narrow-apart",
            "wide-adjacent", "wide-apart", "three-bits", "general"])
    def test_scaled_column_is_the_product(self, x):
        col = (0, 1, -1, 7, -(1 << 63), 10**3010 + 17, -(10**3010) - 1)
        assert list(measures._scaled(col, x)) == [x * c for c in col]

    def test_count_clusters_only_settled_depths(self, monkeypatch):
        calls = []
        cluster = measures._cluster_rays

        def counted(rays, tol):
            calls.append(len(rays))
            return cluster(rays, tol)

        monkeypatch.setattr(measures, "_cluster_rays", counted)
        result = ergodic_measure_count(ToeplitzModel.of_rank(8))
        assert (result.count, result.status) == (8, "stabilized")
        assert len(calls) <= 3

    def test_rank_48_stays_inconclusive(self):
        result = ergodic_measure_count(ToeplitzModel.of_rank(48))
        assert (result.count, result.status, result.depth) == (
            48, "inconclusive", 36)
        assert result.note == "no consecutive-depth match within 1e-06 by depth 36"

    @given(name=st.sampled_from(["sub", "t2", "t3"]),
           scheme=st.sampled_from([TRIANGLE, PAPER]),
           budget=st.integers(1, 300), max_depth=st.integers(3, 14))
    @settings(max_examples=60, deadline=None)
    def test_ergodic_budget_note_unchanged(self, name, scheme, budget,
                                           max_depth):
        model = MODELS[name]
        if scheme == PAPER and name != "sub":
            scheme = TRIANGLE
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(errors.CAPS, "entry_bits", (budget, "bits"))
            got = outcome(lambda: ergodic_tuple(ergodic_measure_count(
                model, scheme, max_depth=max_depth)))
        want = outcome(lambda: fraction_ergodic(model, scheme,
                                                max_depth=max_depth,
                                                budget=budget))
        assert got == want

    @given(model=st.one_of(
               st.integers(1, 12).map(ToeplitzModel.of_rank),
               st.just(SUB), fixed_point_rules()),
           q_from=st.integers(0, 30), levels=st.integers(1, 12),
           entry=st.one_of(st.just(10**6), st.integers(1, 3000)),
           product=st.one_of(st.just(2**27), st.integers(1, 60000)))
    @settings(max_examples=150, deadline=None)
    def test_refusal_from_sums_is_the_loops(self, model, q_from, levels,
                                            entry, product):
        """compose_range refuses up front, from the column sums, only where
        the product loop refuses, and with its message."""
        q_to = q_from + levels  # within a Toeplitz model's depth 48

        def loop_alone():
            for _, last in measures._prefix_products(model, TRIANGLE, q_from,
                                                     q_to):
                pass
            return last.ints

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(errors.CAPS, "entry_bits", (entry, "bits"))
            patch.setitem(errors.CAPS, "product_bits", (product, "bits"))
            got = outcome(lambda: compose_range(model, TRIANGLE, q_from,
                                                q_to).ints)
            assert got == outcome(loop_alone)

    def test_sums_refuse_before_any_level_matrix(self, monkeypatch):
        monkeypatch.setattr(measures, "transition_matrix", None)
        model = ToeplitzModel.of_rank(64, max_depth=10000)
        with pytest.raises(BudgetError, match="through level 203 exceeds the "
                           "134217728-bit product budget of 64 x 64 entries"):
            compose_range(model, TRIANGLE, 0, 300)

    def test_paper_levels_are_integers_over_one_shift(self):
        for q in (1, 2, 3):
            m = transition_matrix(SUB, q, PAPER)
            assert m.shift == 2 * 3**q - 2
            assert m.rows == fraction_level(SUB, q, PAPER)
        assert transition_matrix(T3, 2, TRIANGLE).shift == 0

    def test_paper_product_bits_without_the_exact_view(self):
        m = compose_range(SUB, PAPER, 1, 12)
        assert m.entry_bits() == 531417
        m.to_json()
        projective_diameter(m)
        m.column_sums()
        assert "rows" not in vars(m)  # the Fraction view was never built

    def test_entry_bits_read_the_reduced_entries(self):
        # 4/4, 8/4, 12/4, 16/4 reduce to 1, 2, 3, 4.
        m = TransitionMatrix(level=0, scheme=PAPER, ints=((4, 8), (12, 16)),
                             shift=2)
        assert m.entry_bits() == 3
        assert m.rows == ((1, 2), (3, 4))

    @given(x=st.one_of(st.just(0), st.integers(-2**2000, 2**2000),
                       st.integers(0, 2000).map(lambda k: -(1 << k))),
           others=st.lists(st.integers(-2**70, 2**70), min_size=3, max_size=3),
           shift=st.one_of(st.just(0), st.integers(1, 2100)))
    @settings(max_examples=150, deadline=None)
    def test_entry_bits_match_the_reduced_route(self, x, others, shift):
        ints = ((x, others[0]), (others[1], others[2]))
        m = TransitionMatrix(level=0, scheme=TRIANGLE, ints=ints, shift=shift)
        reduced = [reduce_dyadic(v, shift) for row in ints for v in row]
        assert m.entry_bits() == max(
            max(n.bit_length(), d.bit_length()) for n, d in reduced)

    def test_entry_bits_of_zero_matrix(self):
        m = TransitionMatrix(level=0, scheme=TRIANGLE, ints=((0, 0), (0, 0)))
        assert m.entry_bits() == 1

    @pytest.mark.parametrize("model,scheme,q_from,q_to,budget,level", [
        (T2, TRIANGLE, 1, 12, 64, 9),
        (SUB, TRIANGLE, 0, 200, 100, 63),
        (SUB, PAPER, 1, 8, 1000, 6),
        (ToeplitzModel.of_rank(8), TRIANGLE, 0, 47, 300, 19),
    ], ids=["t2", "sub-triangle", "sub-paper", "t8"])
    def test_budget_error_level(self, monkeypatch, model, scheme, q_from, q_to,
                                budget, level):
        monkeypatch.setitem(errors.CAPS, "entry_bits", (budget, "bits"))
        with pytest.raises(BudgetError, match=f"through level {level} exceeds"):
            compose_range(model, scheme, q_from, q_to)

    def test_view_is_cached(self):
        m = compose_range(SUB, PAPER, 1, 3)
        assert m.rows is m.rows
        assert tuple(row[1] for row in m.rows) == tuple(
            Fraction(row[1], 1 << m.shift) for row in m.ints)

    @pytest.mark.parametrize("scheme,levels", [
        (TRIANGLE, range(2, 12)), (PAPER, range(2, 7)),
    ])
    def test_diameters_against_high_precision(self, scheme, levels):
        """Distances near zero keep full relative precision."""
        with decimal.localcontext() as ctx:
            ctx.prec = 400  # enough for a log of 1 + 1e-107
            for m in levels:
                product = compose_range(SUB, scheme, 1, m)
                ratios = [Fraction(a, b) for a, b in product.ints]
                q = max(ratios) / min(ratios)
                want = float((decimal.Decimal(q.numerator)
                              / decimal.Decimal(q.denominator)).ln())
                got = projective_diameter(product)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
