"""SVG pictures of the tiled half-plane.

Tiles are pentagons: four corners of a dyadic box plus the bottom edge's
midpoint.  Edges joining points of equal height are drawn as hyperbolic
geodesics, circular arcs centered on the boundary axis, flattened to
polylines by recursive bisection until the sagitta drops below a screen-unit
tolerance.  Vertical edges are already geodesics and stay straight.

Every tile of row r is the translate x -> x + n * 2**r of the row's column-0
tile, so the arcs are flattened once per row and stored as offsets from
their centers; tile n adds its offset to each center.  Centers and corners
are exact dyadic floats, so each point is the sum a per-tile flattening
gives.  Heights are formatted once per row.  The SVG is written as text, one
row at a time, once every size and level check has passed.

The output coordinate system maps the requested world window onto a fixed
pixel width; content outside the window is clipped by the viewBox.
"""

from __future__ import annotations

import math

from .errors import CapError, DomainError, SizeError, cap

DEFAULT_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14c", "#e15759", "#b07aa1",
    "#76b7b2", "#edc948", "#ff9da7", "#9c755f",
)
UNCOLORED = "#d4d4d4"
OVERLAY_STROKES = ("#1a1a1a", "#b10026", "#08306b", "#54278f")


def _arc_points(xa: float, xb: float, y: float, tol_world: float) -> tuple:
    """Flatten the geodesic from (xa, y) to (xb, y) by bisection.

    Returns the arc's center and its polyline after the start point, endpoint
    included, as (x offset from the center, height) pairs.  The endpoint is
    exactly (xb - center, y).
    """
    center = (xa + xb) / 2.0
    radius = math.hypot((xb - xa) / 2.0, y)
    out = []

    def recurse(t1, p1, t2, p2, depth):  # points are (x, y, x - center)
        tm = (t1 + t2) / 2.0
        dx = radius * math.cos(tm)
        pm = (center + dx, radius * math.sin(tm), dx)
        err = math.hypot(pm[0] - (p1[0] + p2[0]) / 2.0,
                         pm[1] - (p1[1] + p2[1]) / 2.0)
        if err <= tol_world or depth >= 16:
            out.append((p2[2], p2[1]))
            return
        recurse(t1, p1, tm, pm, depth + 1)
        recurse(tm, pm, t2, p2, depth + 1)

    recurse(math.atan2(y, xa - center), (xa, y, xa - center),
            math.atan2(y, xb - center), (xb, y, xb - center), 0)
    return center, out


def _row_outline(width: float, tol_world: float) -> list:
    """The closed outline of the row's column-0 pentagon as (center, x offset,
    y) points; tile n's points are (n * width + center + offset, y)."""
    y0, y1 = width, 2.0 * width
    half = width / 2.0
    arcs = [(0.0, [(0.0, y0)]), _arc_points(0.0, half, y0, tol_world),
            _arc_points(half, width, y0, tol_world), (width, [(0.0, y1)]),
            _arc_points(width, 0.0, y1, tol_world)]
    return [(c, dx, y) for c, arc in arcs for dx, y in arc]


def _row_paths(width, points, n_lo, n_hi, fill, x_min, y_hi, scale):
    """The path elements of tiles n_lo..n_hi-1 of the row of this width and
    outline, in a fill color that needs no escaping."""
    d = " L".join(f"%.4f,{(y_hi - y) * scale:.4f}" for _, _, y in points)
    template = f'<path fill-opacity="0.75" d="M{d} Z" fill="{fill}" />'
    offsets = [(c, dx) for c, dx, _ in points]
    for n in range(n_lo, n_hi):
        base = n * width
        yield template % tuple(
            [(base + c + dx - x_min) * scale for c, dx in offsets])


def render_svg(model, rows, x_range, out_path, overlay_levels=(),
               tol: float = 1e-3, width_px: float = 800.0,
               y_clip=None) -> int:
    """Write an SVG of the tiles in the given row band and x-window.

    rows is an inclusive (low, high) pair of band indices; an inverted pair
    renders an empty (but valid) picture.  Returns the number of tiles drawn.
    """
    row_lo, row_hi = int(rows[0]), int(rows[1])
    x_min, x_max = float(x_range[0]), float(x_range[1])
    if not (0 < x_max - x_min < math.inf):
        raise DomainError(f"x-window [{x_min}, {x_max}] needs a finite positive width")
    if max(abs(row_lo), abs(row_hi)) > 1000:
        raise DomainError("row indices beyond float range")
    if not (tol > 0):
        raise DomainError(f"tolerance {tol} must be positive")
    if not (0 < width_px < math.inf):
        raise DomainError(f"image width {width_px} must be positive and finite")

    has_rows = row_hi >= row_lo
    y_lo = math.ldexp(1.0, row_lo) if has_rows else 0.0
    y_hi = math.ldexp(1.0, row_hi + 1) if has_rows else 1.0
    if y_clip is not None:
        c_lo, c_hi = float(y_clip[0]), float(y_clip[1])
        if not (0 < c_lo < c_hi < math.inf):
            raise DomainError(f"bad height clip [{c_lo}, {c_hi}]")
        y_lo, y_hi = c_lo, c_hi

    scale = width_px / (x_max - x_min)
    height_px = (y_hi - y_lo) * scale
    tol_world = tol / scale

    drawn = 0
    bands = []  # (width, outline, n_lo, n_hi, fill) of each row the clip keeps
    for row in range(row_lo, row_hi + 1):
        width = math.ldexp(1.0, row)
        if 2.0 * width <= y_lo or width >= y_hi:
            continue
        n_lo = math.floor(x_min / width)
        n_hi = math.ceil(x_max / width)
        drawn += n_hi - n_lo
        if drawn > cap("tiles"):
            raise SizeError(
                f"window holds more than {cap('tiles')} tiles; "
                "shrink the x-range or raise the lowest row"
            )
        outline = _row_outline(width, tol_world)
        if len(outline) > cap("outline_points"):
            raise SizeError(
                f"a row-{row} tile outline holds {len(outline)} points, more "
                f"than {cap('outline_points')}; widen the x-range or raise the "
                "tolerance"
            )
        fill = UNCOLORED
        if model is not None:
            try:
                letter = model.block_letter(0, row)
                fill = DEFAULT_PALETTE[(letter - 1) % len(DEFAULT_PALETTE)]
            except CapError:
                pass
        bands.append((width, outline, n_lo, n_hi, fill))
    levels = []  # (q, [(width, n_lo, n_hi) of each apex row]) per level
    boxes = 0
    for q in map(int, overlay_levels):
        if q < 1:
            raise DomainError(f"overlay level {q} must be at least 1")
        spans = []
        for apex in range(row_hi, row_lo - 1, -q):
            h = math.ldexp(1.0, apex)
            n_lo, n_hi = math.floor(x_min / h), math.ceil(x_max / h)
            spans.append((h, n_lo, n_hi))
            boxes += n_hi - n_lo
        levels.append((q, spans))
        if boxes > cap("tiles"):
            raise SizeError(
                f"overlays hold more than {cap('tiles')} boxes; "
                "shrink the x-range or raise the lowest row"
            )

    size = f'width="{width_px:.2f}" height="{max(height_px, 1.0):.2f}"'
    with open(out_path, "w", encoding="utf-8") as out:
        out.write("<?xml version='1.0' encoding='utf-8'?>\n"
                  f'<svg xmlns="http://www.w3.org/2000/svg" {size} viewBox="0 0 '
                  f'{width_px:.2f} {max(height_px, 1.0):.2f}">'
                  f'<rect x="0" y="0" {size} fill="#ffffff" />')
        if has_rows:
            out.write('<g stroke="#333333" stroke-width="0.8"'
                      + (">" if bands else " />"))
            for band in bands:
                out.writelines(_row_paths(*band, x_min, y_hi, scale))
            out.write("</g>" if bands else "")
        for idx, (q, spans) in enumerate(levels if has_rows else ()):
            stroke = OVERLAY_STROKES[idx % len(OVERLAY_STROKES)]
            out.write(f'<g stroke="{stroke}" stroke-width="1.6" fill="none">')
            for h, n_lo, n_hi in spans:
                sy0 = (y_hi - 2.0 * h) * scale
                sy1 = (y_hi - math.ldexp(h, 1 - q)) * scale
                for n in range(n_lo, n_hi):
                    sx0 = (n * h - x_min) * scale
                    sx1 = ((n + 1) * h - x_min) * scale
                    out.write(f'<rect x="{sx0:.4f}" y="{sy0:.4f}" width='
                              f'"{sx1 - sx0:.4f}" height="{sy1 - sy0:.4f}" />')
            out.write("</g>")
        out.write("</svg>")
    return drawn
