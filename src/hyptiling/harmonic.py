"""Boundary measures, their harmonic extensions, and cylinder masses.

A positive harmonic function on the upper half-plane splits into a boundary
part and a linear part: H(x, y) = slope * y + sum of atom_mass * P(x, y; s)
with the half-plane kernel P(x, y; s) = y / ((s - x)**2 + y**2).  We keep
boundary measures as finite atom lists plus the slope coefficient, which is
all the tiling computations produce.

Cylinder masses use the invariant leafwise density: the mass a density
carries on an axis-aligned box [x0, x1] x [y0, y1] is
coefficient * (x1 - x0) * ln(y1 / y0), homogeneous of degree one under the
affine maps acting on the half-plane.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction

from .errors import DomainError, QuadratureError
from .exact import exact, log_fraction, to_float
from .geometry import AffineMap
from .record import record


@record
class BoundaryAtoms:
    """A purely atomic boundary measure plus a slope (mass at infinity)."""

    atoms: tuple  # ((position, mass), ...) with mass > 0
    slope: float = 0.0

    def __post_init__(self):
        for s, m in self.atoms:
            if not math.isfinite(s):
                raise DomainError(f"atom position {s} is not finite")
            if not (m > 0) or not math.isfinite(m):
                raise DomainError(f"atom mass {m} must be positive and finite")
        if self.slope < 0 or not math.isfinite(self.slope):
            raise DomainError(f"slope {self.slope} must be nonnegative and finite")

    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)


def herglotz_evaluate(measure: BoundaryAtoms, x: float, y: float) -> float:
    """Value at (x, y), y > 0, of the harmonic function the measure induces."""
    if not (y > 0) or not math.isfinite(y) or not math.isfinite(x):
        raise DomainError(f"evaluation point ({x}, {y}) is not in the half-plane")
    total = measure.slope * y
    for s, m in measure.atoms:
        total += m * y / ((s - x) ** 2 + y * y)
    return total


def herglotz_evaluator(measure: BoundaryAtoms):
    """Closure form of the same evaluation, for quadrature callbacks."""

    def func(x: float, y: float) -> float:
        return herglotz_evaluate(measure, x, y)

    return func


#: Pieces the adaptive quadrature may cut its interval into.
_MAX_PIECES = 200


def boundary_recover(func, a: float, b: float, y_probe: float = 1e-4,
                     breakpoints=None, rel_tol: float = 1e-8) -> float:
    """Mass the boundary measure gives the open interval (a, b).

    Integrates func(x, y_probe) dx over [a, b] and divides by pi; as the
    probe height drops this converges to the measure of the interval (plus
    half of any atoms sitting exactly on the endpoints).  The slope part
    contributes slope * y_probe * (b - a), vanishing with the probe.

    The integral is adaptive Gauss-Kronrod (7, 15) quadrature: the interval
    is cut at the breakpoints, then the piece with the largest error
    estimate is bisected until the summed estimate abserr meets
    abserr <= rel_tol * max(|value|, 1), or QuadratureError is raised once
    there are _MAX_PIECES pieces.

    func must be smooth on each piece between the breakpoints.  The rule
    does not extrapolate: a singularity at a breakpoint is reached by
    bisection alone, so a weak one such as |x - c|^(-1/4) converges and a
    strong one raises QuadratureError, but a singularity inside a piece can
    return a value outside the tolerance with no error.  The Poisson
    extensions of boundary measures are smooth for y_probe > 0.
    """
    if not (a < b):
        raise DomainError(f"empty interval [{a}, {b}]")
    if not (y_probe > 0):
        raise DomainError(f"probe height {y_probe} must be positive")

    def piece(lo, hi):
        value, err = _kronrod15(func, y_probe, lo, hi)
        return (-err, lo, hi, value)

    inner = () if breakpoints is None else breakpoints
    cuts = sorted({a, b, *(p for p in inner if a < p < b)})
    heap = [piece(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    heapq.heapify(heap)
    while True:
        value = math.fsum(entry[3] for entry in heap)
        abserr = -math.fsum(entry[0] for entry in heap)
        if abserr <= rel_tol * max(abs(value), 1.0) or len(heap) >= _MAX_PIECES:
            break
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        heapq.heappush(heap, piece(lo, mid))
        heapq.heappush(heap, piece(mid, hi))
    if not math.isfinite(value) or abserr > rel_tol * max(abs(value), 1.0):
        raise QuadratureError(
            f"quadrature error {abserr} too large for value {value}",
            residual=abserr,
        )
    return value / math.pi


# QUADPACK's qk15 (Piessens et al., 1983): the positive nodes of the
# 15-point Kronrod rule on [-1, 1], each with its Kronrod weight and its
# weight in the 7-point Gauss rule (0 off the Gauss nodes); the center's
# two weights come last.
_KRONROD_NODES = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_KRONROD_CENTER = (0.209482141084727828012999174891714,
                   0.417959183673469387755102040816327)
_EPS = sys.float_info.epsilon


def _kronrod15(func, y: float, lo: float, hi: float) -> tuple:
    """Integral of func(x, y) dx over [lo, hi] and its error estimate, as
    QUADPACK's qk15 gives them: the Kronrod value, and the Kronrod-Gauss
    difference scaled by resasc * min(1, (200 |K - G| / resasc)^1.5),
    floored at 50 eps resabs."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fc = func(center, y)
    wk_center, wg_center = _KRONROD_CENTER
    kronrod, gauss, resabs = wk_center * fc, wg_center * fc, wk_center * abs(fc)
    values = []
    for x, wk, wg in _KRONROD_NODES:
        f1, f2 = func(center - half * x, y), func(center + half * x, y)
        kronrod += wk * (f1 + f2)
        gauss += wg * (f1 + f2)
        resabs += wk * (abs(f1) + abs(f2))
        values.append((wk, f1, f2))
    mean = 0.5 * kronrod
    resasc = wk_center * abs(fc - mean) + sum(
        wk * (abs(f1 - mean) + abs(f2 - mean)) for wk, f1, f2 in values)
    resabs, resasc = resabs * half, resasc * half
    err = abs((kronrod - gauss) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > sys.float_info.min / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return kronrod * half, err


# ---------------------------------------------------------------------------
# Cylinder masses for leafwise-invariant densities


def _rect_exact(rect) -> tuple:
    x0, x1, y0, y1 = (exact(v) for v in rect)
    if x0 > x1:
        raise DomainError(f"inverted x-extent [{x0}, {x1}]")
    if not (0 < y0 < y1):
        raise DomainError(f"box heights need 0 < {y0} < {y1}")
    return x0, x1, y0, y1


def cylinder_mass_exact(coefficient, rect) -> tuple:
    """Mass of the box as the exact pair (linear part, height ratio).

    The mass is linear_part * ln(height_ratio) with
    linear_part = coefficient * (x1 - x0) and height_ratio = y1 / y0;
    the pair keeps everything rational so transported masses can be
    compared without rounding.
    """
    x0, x1, y0, y1 = _rect_exact(rect)
    coeff = exact(coefficient)
    if coeff < 0:
        raise DomainError(f"density coefficient {coeff} must be nonnegative")
    return (coeff * (x1 - x0), y1 / y0)


def cylinder_mass(coefficient, rect) -> float:
    """Float value of the same mass."""
    linear, ratio = cylinder_mass_exact(coefficient, rect)
    return to_float(linear) * log_fraction(ratio)


def map_rect(g: AffineMap, rect) -> tuple:
    """Forward image of an axis-aligned box; affine maps preserve the class."""
    x0, x1, y0, y1 = _rect_exact(rect)
    return (g.a * x0 + g.b, g.a * x1 + g.b, g.a * y0, g.a * y1)


@record
class TransportCheck:
    lhs: tuple  # exact (linear, ratio) for mass(g . rect)
    rhs: tuple  # exact (linear, ratio) for alpha(g) * mass(rect)
    alpha: Fraction
    equal: bool

    def to_json(self) -> dict:
        from .exact import scalar_to_json

        return {
            "lhs": [scalar_to_json(self.lhs[0]), scalar_to_json(self.lhs[1])],
            "rhs": [scalar_to_json(self.rhs[0]), scalar_to_json(self.rhs[1])],
            "alpha": scalar_to_json(self.alpha),
            "equal": self.equal,
        }


def transport_scaling_check(coefficient, rect, g: AffineMap) -> TransportCheck:
    """Exact check that pushing a box through g scales its mass by g's dilation.

    Both sides stay in (linear part, height ratio) form; the height ratio is
    unchanged by the map, so equality reduces to the linear parts.
    """
    lhs = cylinder_mass_exact(coefficient, map_rect(g, rect))
    linear, ratio = cylinder_mass_exact(coefficient, rect)
    rhs = (g.a * linear, ratio)
    return TransportCheck(
        lhs=lhs,
        rhs=rhs,
        alpha=g.a,
        equal=(lhs[0] == rhs[0] and lhs[1] == rhs[1]),
    )
