"""Half-plane tiling geometry: maps, tiles, patches, occurrence bookkeeping
and the partition check."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyptiling import (
    AffineMap,
    DomainError,
    Patch,
    SizeError,
    SubstitutionModel,
    TileAddress,
    ToeplitzModel,
    occurrence_classes,
    patch_partition_check,
    tile_containing_point,
)
from oracles import partition_by_tiles

R = AffineMap(2, 0)  # z -> 2z, one row up
S = AffineMap(1, 1)  # z -> z + 1, one tile right


class TestAffineMaps:
    def test_generators(self):
        assert (R.a, R.b) == (2, 0)
        assert (S.a, S.b) == (1, 1)

    def test_positive_dilation_required(self):
        with pytest.raises(DomainError):
            AffineMap(0, 1)
        with pytest.raises(DomainError):
            AffineMap(-2, 0)


class TestTiles:
    def test_region_uses_exact_arithmetic(self):
        x0, x1, y0, y1 = TileAddress(-3, 5).region()
        assert (x0, x1, y0, y1) == (
            Fraction(5, 8), Fraction(6, 8), Fraction(1, 8), Fraction(1, 4),
        )

    def test_containing_point_examples(self):
        assert tile_containing_point(0.5, 1.5) == TileAddress(0, 0)
        assert tile_containing_point(3.9, 1.0) == TileAddress(0, 3)
        assert tile_containing_point(0.1, 0.7) == TileAddress(-1, 0)
        assert tile_containing_point(5.0, 4.0) == TileAddress(2, 1)
        assert tile_containing_point(-0.1, 1.0) == TileAddress(0, -1)

    def test_containing_point_domain(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                tile_containing_point(0.0, bad)
        with pytest.raises(DomainError):
            tile_containing_point(float("nan"), 1.0)

    @given(row=st.integers(-20, 20), col=st.integers(-1000, 1000),
           fx=st.floats(0.0, 0.999), fy=st.floats(0.0, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_containing_point_roundtrip(self, row, col, fx, fy):
        h = math.ldexp(1.0, row)
        x = (col + fx) * h
        y = (1.0 + fy) * h
        assert tile_containing_point(x, y) == TileAddress(row, col)


class TestPatches:
    def test_small_patch(self):
        patch = Patch(word=(1, 2), apex=TileAddress(2, 1))
        assert list(patch.spans()) == [(2, 1, 2, 1), (1, 2, 4, 2)]

    def test_tile_count_matches_enumeration(self):
        patch = Patch(word=(1, 2, 1, 2, 2), apex=TileAddress(0, -3))
        assert sum(end - first for _, first, end, _ in patch.spans()) == 31

    def test_rows_shrink_downward(self):
        patch = Patch(word=(1, 1, 1), apex=TileAddress(5, 2))
        assert [(row, end - first) for row, first, end, _ in patch.spans()] == [
            (5, 1), (4, 2), (3, 4)]

    def test_tiles_expand_spans(self):
        # each span holds the two half-width tiles below each tile above it
        patch = Patch(word=(2, 1, 1, 2), apex=TileAddress(-1, -3))
        spans = list(patch.spans())
        assert spans[:2] == [(-1, -3, -2, 2), (-2, -6, -4, 1)]
        for (row, first, end, _), below in zip(spans, spans[1:]):
            assert below[:3] == (row - 1, 2 * first, 2 * end)

    def test_empty_word_rejected(self):
        with pytest.raises(DomainError):
            Patch(word=(), apex=TileAddress(0, 0))

    def test_tiles_cover_region_exactly(self):
        # the tiles fill the box of the apex's x-extent over the patch's rows
        patch = Patch(word=(2, 1, 2, 1), apex=TileAddress(3, 0))
        x0, x1, _, y1 = patch.apex.region()
        y0 = Fraction(2) ** (patch.apex.row - len(patch.word) + 1)
        area = sum(
            (r[1] - r[0]) * (r[3] - r[2])
            for row, first, end, _ in patch.spans()
            for r in (TileAddress(row, col).region() for col in range(first, end))
        )
        assert area == (x1 - x0) * (y1 - y0)


class TestOccurrences:
    def test_substitution_classes(self):
        sub = SubstitutionModel.standard()
        classes = occurrence_classes(sub, 1, 1)
        assert [(c.depth, c.count, c.child_letter) for c in classes] == [
            (0, 1, 1), (3, 8, 1), (6, 64, 2),
        ]

    def test_toeplitz_classes(self):
        t2 = ToeplitzModel.of_rank(2)
        classes = occurrence_classes(t2, 1, 1)
        assert [(c.depth, c.count, c.child_letter) for c in classes] == [
            (0, 1, 2), (3, 8, 1), (6, 64, 2),
        ]

    def test_level_zero_parent(self):
        sub = SubstitutionModel.standard()
        classes = occurrence_classes(sub, 0, 2)
        assert [(c.depth, c.count, c.child_letter) for c in classes] == [
            (0, 1, 1), (1, 2, 2), (2, 4, 2),
        ]

    @pytest.mark.parametrize("model_key", ["t2", "t3", "sub"])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_tile_count_completeness(self, model_key, q):
        model = {
            "t2": ToeplitzModel.of_rank(2),
            "t3": ToeplitzModel.of_rank(3),
            "sub": SubstitutionModel.standard(),
        }[model_key]
        lq = model.level_length(q)
        lq1 = model.level_length(q + 1)
        for parent in range(1, model.r + 1):
            classes = occurrence_classes(model, q, parent)
            total = sum(c.count * (2**lq - 1) for c in classes)
            assert total == 2**lq1 - 1

    def test_table_json_shape(self):
        t2 = ToeplitzModel.of_rank(2)
        classes = occurrence_classes(t2, 1, 2)
        assert classes[1].parent_level == 2 and classes[1].parent_letter == 2
        assert (classes[1].depth, classes[1].count, classes[1].child_letter) == (
            3, 8, 2)

    def test_class_cap(self):
        t2 = ToeplitzModel.of_rank(2)
        with pytest.raises(SizeError, match=f"the cap {2**20}"):
            occurrence_classes(t2, 13, 1)  # 3**13 classes


class TestPartition:
    @pytest.mark.parametrize("depth", [1, 2, 3, 6, 12])
    def test_single_apex_exact(self, depth):
        report = patch_partition_check(0, range(0, 1), depth)
        assert report["exact"]
        assert report["tiles"] == 2**depth - 1
        assert report["doubly_covered"] == report["uncovered"] == 0

    def test_multiple_apexes_exact(self):
        report = patch_partition_check(4, range(-3, 5), 5)
        assert report["exact"]
        assert report["tiles"] == 8 * (2**5 - 1)

    def test_depth_must_be_positive(self):
        with pytest.raises(DomainError):
            patch_partition_check(0, range(0, 1), 0)

    @pytest.mark.parametrize("fault, key, tiles", [
        ("drop", "uncovered", -1),
        ("duplicate", "doubly_covered", 0),
        ("outside", "outside", 1),
    ])
    def test_faulty_patch_is_caught(self, monkeypatch, fault, key, tiles):
        """One patch of the row yields a wrong span set; the report names it."""
        enumerate_spans = Patch.spans

        def faulty(patch):
            out = list(enumerate_spans(patch))
            if patch.apex.col != 0:
                return out
            row, first, end, color = out[-1]
            if fault == "drop":
                return out[:-1] + [(row, first, end - 1, color)]
            if fault == "duplicate":
                return out + [(row, end - 1, end, color)]
            apex = patch.apex
            return out + [(apex.row + 1, apex.col, apex.col + 1, 1)]

        monkeypatch.setattr(Patch, "spans", faulty)
        report = patch_partition_check(4, range(-3, 5), 5)
        counts = {"doubly_covered": 0, "uncovered": 0, "outside": 0}
        counts[key] = 1
        assert report == {"tiles": 8 * (2**5 - 1) + tiles, **counts,
                          "exact": False}

    @given(apex_row=st.integers(-30, 30), start=st.integers(-40, 40),
           stop=st.integers(-40, 40), step=st.sampled_from([1, 2, 3, -1, -2, -3]),
           depth=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_tile_by_tile_oracle(self, apex_row, start, stop, step,
                                             depth):
        cols = range(start, stop, step)
        assert patch_partition_check(apex_row, cols, depth) == (
            partition_by_tiles(apex_row, cols, depth))

    def test_cost_does_not_grow_with_tiles(self):
        report = patch_partition_check(0, range(0, 1), 200)
        assert report["exact"] and report["tiles"] == 2**200 - 1
