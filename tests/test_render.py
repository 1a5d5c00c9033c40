"""SVG rendering: tile counts, geodesic arc flattening, overlays."""

import hashlib
import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyptiling import (
    DomainError,
    SizeError,
    SubstitutionModel,
    ToeplitzModel,
    render_svg,
)
from hyptiling.errors import cap
from hyptiling.render import (
    UNCOLORED,
    _arc_points,
    _row_outline,
)

SVG_NS = "{http://www.w3.org/2000/svg}"
SUB = SubstitutionModel.standard()


def svg_paths(path):
    tree = ET.parse(path)
    return tree.getroot().findall(f".//{SVG_NS}path")


def svg_rects(path):
    tree = ET.parse(path)
    # skip the full-frame background rectangle
    return [
        r for r in tree.getroot().findall(f".//{SVG_NS}rect")
        if r.get("fill") != "#ffffff"
    ]


def arc(xa, xb, y, tol_world):
    """The flattened arc in world coordinates, start point excluded."""
    center, offsets = _arc_points(xa, xb, y, tol_world)
    return [(center + dx, py) for dx, py in offsets]


def sagittas(points, xa, xb, y):
    """Distance from each chord's midpoint to the geodesic through
    (xa, y) and (xb, y)."""
    cx, radius = (xa + xb) / 2, math.hypot((xb - xa) / 2, y)
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        mx, my = (ax + bx) / 2, (ay + by) / 2
        yield abs(radius - math.hypot(mx - cx, my))


class TestArcFlattening:
    def test_points_stay_on_the_circle(self):
        xa, xb, y = 0.0, 1.0, 1.0
        cx = 0.5
        radius = math.hypot(0.5, 1.0)
        pts = arc(xa, xb, y, tol_world=1e-4)
        for px, py in pts:
            assert math.hypot(px - cx, py) == pytest.approx(radius, rel=1e-12)

    def test_endpoint_is_exact(self):
        pts = arc(2.0, 4.0, 2.0, tol_world=1e-3)
        assert pts[-1] == (4.0, 2.0)

    def test_flatness_bound(self):
        xa, xb, y = 0.0, 8.0, 8.0
        tol = 1e-3
        pts = [(xa, y)] + arc(xa, xb, y, tol_world=tol)
        for sagitta in sagittas(pts, xa, xb, y):
            assert sagitta <= tol * 1.01

    def test_coarse_tolerance_uses_few_points(self):
        fine = arc(0.0, 1.0, 1.0, tol_world=1e-6)
        coarse = arc(0.0, 1.0, 1.0, tol_world=0.5)
        assert len(coarse) < len(fine)

    @given(row=st.integers(-12, 6), n=st.integers(-2**20, 2**20),
           tol=st.floats(1e-6, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_translated_tiles_stay_flat(self, row, n, tol):
        """Tile n of a row, built from the row's column-0 outline, meets the
        flatness bound on each arc, and each arc ends on its exact corner."""
        w = math.ldexp(1.0, row)
        x0, mid, x1, y0, y1 = n * w, (n + 0.5) * w, (n + 1) * w, w, 2 * w
        pts = [(n * w + c + dx, y) for c, dx, y in _row_outline(w, tol)]
        assert pts[0] == (x0, y0) and pts[-1] == (x0, y1)
        i_mid, i_right = pts.index((mid, y0)), pts.index((x1, y0))
        assert pts[i_right + 1] == (x1, y1)
        for xa, xb, y, part in ((x0, mid, y0, pts[:i_mid + 1]),
                                (mid, x1, y0, pts[i_mid:i_right + 1]),
                                (x1, x0, y1, pts[i_right + 1:])):
            for sagitta in sagittas(part, xa, xb, y):
                assert sagitta <= tol * 1.01


class TestRenderCounts:
    def test_single_prototile(self, tmp_path):
        out = tmp_path / "one.svg"
        assert render_svg(SUB, (0, 0), (0.0, 1.0), str(out)) == 1
        assert len(svg_paths(out)) == 1

    def test_pyramid_window(self, tmp_path):
        out = tmp_path / "pyr.svg"
        # rows 0..2 over x in [0, 4): 4 + 2 + 1 tiles
        assert render_svg(SUB, (0, 2), (0.0, 4.0), str(out)) == 7

    def test_inverted_rows_give_empty_picture(self, tmp_path):
        out = tmp_path / "empty.svg"
        assert render_svg(SUB, (2, 0), (0.0, 4.0), str(out)) == 0
        root = ET.parse(out).getroot()
        assert root.tag == f"{SVG_NS}svg"
        assert len(svg_paths(out)) == 0

    def test_negative_rows_and_offsets(self, tmp_path):
        out = tmp_path / "neg.svg"
        # row -1 has width 1/2: x in [-1, 1) holds 4 tiles; row 0 holds 2
        assert render_svg(SUB, (-1, 0), (-1.0, 1.0), str(out)) == 6

    def test_size_guard(self, tmp_path):
        with pytest.raises(SizeError):
            render_svg(SUB, (0, 0), (0.0, 10.0**6), str(tmp_path / "big.svg"))

    def test_size_guard_leaves_no_file(self, tmp_path):
        out = tmp_path / "big.svg"
        # row -10 alone fits (49,152 tiles); row -9 crosses the cap
        with pytest.raises(SizeError):
            render_svg(SUB, (-10, 3), (0.0, 48.0), str(out))
        assert not out.exists()

    def test_input_validation(self, tmp_path):
        out = str(tmp_path / "bad.svg")
        with pytest.raises(DomainError):
            render_svg(SUB, (0, 0), (1.0, 1.0), out)
        with pytest.raises(DomainError):
            render_svg(SUB, (0, 0), (0.0, 1.0), out, tol=0.0)
        with pytest.raises(DomainError):
            render_svg(SUB, (0, 0), (0.0, 1.0), out, y_clip=(0.0, 1.0))
        with pytest.raises(DomainError):
            render_svg(SUB, (0, 2000), (0.0, 1.0), out)

    @pytest.mark.parametrize("x_range", [
        (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308),
    ])
    def test_window_of_infinite_width(self, tmp_path, x_range):
        out = tmp_path / "wide.svg"
        with pytest.raises(DomainError, match="finite positive width"):
            render_svg(SUB, (0, 0), x_range, str(out))
        assert not out.exists()

    def test_outline_point_cap(self, tmp_path):
        # a window 1/1000 of the tile wide: 24,578 points per outline
        out = tmp_path / "narrow.svg"
        assert render_svg(None, (0, 0), (0.0, 1e-3), str(out)) == 1
        assert 24_578 <= cap("outline_points") < 32_770
        out.unlink()
        for width in (5e-4, 1e-300):  # 32,770 and 196,610 points
            with pytest.raises(SizeError, match="outline"):
                render_svg(None, (0, 0), (0.0, width), str(out))
            assert not out.exists()


class TestColoring:
    def test_default_palette_tracks_letters(self, tmp_path):
        out = tmp_path / "colors.svg"
        render_svg(SUB, (0, 2), (0.0, 4.0), str(out))
        fills = {p.get("fill") for p in svg_paths(out)}
        # letters 1, 1, 2 on rows 0..2: exactly two distinct colors
        assert len(fills) == 2

    def test_no_model_renders_uncolored(self, tmp_path):
        out = tmp_path / "plain.svg"
        assert render_svg(None, (0, 1), (0.0, 2.0), str(out)) == 3
        assert {p.get("fill") for p in svg_paths(out)} == {UNCOLORED}

    def test_uncolorable_rows_fall_back(self, tmp_path):
        shallow = ToeplitzModel.of_rank(2, max_depth=1)
        out = tmp_path / "shallow.svg"
        render_svg(shallow, (0, 1), (0.0, 2.0), str(out))
        fills = [p.get("fill") for p in svg_paths(out)]
        assert UNCOLORED in fills  # row 1 is uncolorable at depth 1
        assert any(f != UNCOLORED for f in fills)


class TestOverlays:
    def test_level_one_boxes_every_tile(self, tmp_path):
        out = tmp_path / "ov1.svg"
        render_svg(SUB, (0, 2), (0.0, 4.0), str(out), overlay_levels=(1,))
        assert len(svg_rects(out)) == 7

    def test_level_two_patches(self, tmp_path):
        out = tmp_path / "ov2.svg"
        render_svg(SUB, (0, 2), (0.0, 4.0), str(out), overlay_levels=(2,))
        # apex row 2: one 2-row patch; remaining apex row 0: four boxes
        assert len(svg_rects(out)) == 5

    def test_multiple_overlays_stack(self, tmp_path):
        out = tmp_path / "ov12.svg"
        render_svg(SUB, (0, 2), (0.0, 4.0), str(out), overlay_levels=(1, 2))
        assert len(svg_rects(out)) == 12

    def test_overlay_level_must_be_positive(self, tmp_path):
        with pytest.raises(DomainError):
            render_svg(SUB, (0, 2), (0.0, 4.0), str(tmp_path / "x.svg"),
                       overlay_levels=(0,))

    def test_bad_level_leaves_no_file(self, tmp_path):
        out = tmp_path / "x.svg"
        with pytest.raises(DomainError, match="overlay level 0"):
            render_svg(SUB, (0, 2), (0.0, 4.0), str(out),
                       overlay_levels=(1, 0))
        assert not out.exists()

    def test_box_cap_under_a_clip_leaves_no_file(self, tmp_path):
        out = tmp_path / "boxes.svg"
        # the clip keeps one tile, but the level-1 overlay walks every apex
        # row of -16..0: 2**17 - 1 = 131,071 boxes
        with pytest.raises(SizeError, match="boxes"):
            render_svg(SUB, (-16, 0), (0.0, 1.0), str(out),
                       overlay_levels=(1,), y_clip=(1.0, 2.0))
        assert not out.exists()

    def test_box_cap_counts_every_level(self, tmp_path):
        # rows -14..0 over (0, 1): 32,767 level-1 boxes, fewer at level 2;
        # each level fits under the cap, the two together do not
        out = tmp_path / "boxes.svg"
        assert render_svg(SUB, (-14, 0), (0.0, 1.0), str(out),
                          overlay_levels=(1,), y_clip=(1.0, 2.0)) == 1
        assert len(svg_rects(out)) == 2**15 - 1
        out.unlink()
        with pytest.raises(SizeError):
            render_svg(SUB, (-14, 0), (0.0, 1.0), str(out),
                       overlay_levels=(1, 2), y_clip=(1.0, 2.0))
        assert not out.exists()


class TestClipping:
    def test_y_clip_limits_rows(self, tmp_path):
        out = tmp_path / "clip.svg"
        # rows 0..3 requested but the clip keeps only row 0's band [1, 2)
        count = render_svg(SUB, (0, 3), (0.0, 4.0), str(out), y_clip=(1.0, 2.0))
        assert count == 4

    @pytest.mark.parametrize("y_clip", [(1.0, math.inf), (0.0, 1.0),
                                        (2.0, 1.0), (1.0, math.nan)])
    def test_bad_clip_leaves_no_file(self, tmp_path, y_clip):
        out = tmp_path / "clip.svg"
        with pytest.raises(DomainError, match="height clip"):
            render_svg(SUB, (0, 3), (0.0, 4.0), str(out), y_clip=y_clip)
        assert not out.exists()

    def test_declaration_and_size(self, tmp_path):
        out = tmp_path / "decl.svg"
        render_svg(SUB, (0, 1), (0.0, 2.0), str(out), width_px=400.0)
        text = out.read_text(encoding="utf-8")
        assert text.startswith("<?xml")
        root = ET.parse(out).getroot()
        assert root.get("width") == "400.00"


class TestByteIdentity:
    """SHA-256 digests of the ElementTree writer's output, which the text
    writer reproduces byte for byte."""

    CASES = {
        "band": ((SUB, (-10, 3), (0.0, 24.0)), {},
                 "0a15b7ebc518dfa2c6c5b8ce2cc7d6b45872e736fdd7ea16b4d08c407c51d98e"),
        "band_negative": ((SUB, (-10, 3), (-32.0, -8.0)), {},
                          "a327715c4fda63b524f34bf3c437b605feb94018cd6cbd861c8249b6e2a36999"),
        "overlays": ((SUB, (-3, 4), (-4.0, 12.0)), {"overlay_levels": (1, 2)},
                     "f0d0aceac90ed8310a1bebc68fd20472501a95a57a047eb6e5f89ae96edd55f3"),
        "no_model": ((None, (-2, 2), (0.0, 8.0)), {},
                     "fc0b63f076f655f8447339deac6c26988ce1f9b4690da18a2f1dc9f5423b605d"),
        "capped_toeplitz": ((ToeplitzModel.of_rank(2, max_depth=1), (-2, 3),
                             (0.0, 8.0)), {},
                            "f5bc78b4b52a930482ab0fd67606ab5a167cf553ce9aa4e52464c313cac59d5d"),
        "fine_tol": ((SUB, (-3, 2), (-5.3, 7.9)), {"tol": 1e-5},
                     "c83a8985cfbada08146ccafc9e147e8a4908b9a7ecdc9502ecfdec207c903466"),
        "empty_group": ((SUB, (0, 0), (0.0, 4.0)), {"y_clip": (5.0, 6.0)},
                        "0449be2c3d07e97c81b5ebb4c3f29e774a5d10f7c1f03a20bf4906d0369ad628"),
        "inverted": ((SUB, (2, 0), (0.0, 4.0)), {"overlay_levels": (1,)},
                     "fd63ac01e5b319310b50a6c18532f51607d95029fcacd8a4992aa916fb38e5b0"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digest(self, tmp_path, name):
        args, kwargs, digest = self.CASES[name]
        out = tmp_path / f"{name}.svg"
        render_svg(*args, str(out), **kwargs)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
