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

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, QuadratureError
from .exact import exact, log_fraction, to_float
from .geometry import AffineMap


@dataclass(frozen=True)
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


def boundary_recover(func, a: float, b: float, y_probe: float = 1e-4,
                     breakpoints=None, rel_tol: float = 1e-8) -> float:
    """Mass the boundary measure gives the open interval (a, b).

    Integrates func(x, y_probe) dx over [a, b] and divides by pi; as the
    probe height drops this converges to the measure of the interval (plus
    half of any atoms sitting exactly on the endpoints).  The slope part
    contributes slope * y_probe * (b - a), vanishing with the probe.
    """
    if not (a < b):
        raise DomainError(f"empty interval [{a}, {b}]")
    if not (y_probe > 0):
        raise DomainError(f"probe height {y_probe} must be positive")
    from scipy import integrate

    points = None
    if breakpoints is not None:
        points = [p for p in breakpoints if a < p < b]
        if not points:
            points = None
    value, abserr = integrate.quad(
        func, a, b, args=(y_probe,), points=points, limit=200
    )
    scale = max(abs(value), 1.0)
    if not math.isfinite(value) or abserr > rel_tol * scale:
        raise QuadratureError(
            f"quadrature error {abserr} too large for value {value}",
            residual=abserr,
        )
    return value / math.pi


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


@dataclass(frozen=True)
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
