"""Boundary measures, harmonic extensions, cylinder masses, transport."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyptiling
from hyptiling import (
    AffineMap,
    BoundaryAtoms,
    DomainError,
    QuadratureError,
    alpha,
    boundary_recover,
    cylinder_mass,
    cylinder_mass_exact,
    doubling_map,
    herglotz_evaluate,
    herglotz_evaluator,
    map_rect,
    shift_map,
    transport_scaling_check,
)


class TestHerglotz:
    def test_slope_only(self):
        lin = BoundaryAtoms(atoms=(), slope=2.0)
        assert herglotz_evaluate(lin, 0.0, 1.0) == 2.0
        assert herglotz_evaluate(lin, 100.0, 0.25) == 0.5

    def test_single_atom(self):
        atom = BoundaryAtoms(atoms=((0.0, 1.0),))
        # kernel at height 1 above the atom: 1 / (0 + 1) = 1
        assert herglotz_evaluate(atom, 0.0, 1.0) == 1.0
        assert herglotz_evaluate(atom, 1.0, 1.0) == 0.5

    def test_superposition(self):
        both = BoundaryAtoms(atoms=((0.0, 1.0), (2.0, 3.0)), slope=0.5)
        expected = 0.5 * 1.0 + 1.0 / 1.0 + 3.0 * 1.0 / (4.0 + 1.0)
        assert herglotz_evaluate(both, 0.0, 1.0) == pytest.approx(expected)

    def test_zero_measure(self):
        zero = BoundaryAtoms(atoms=())
        assert herglotz_evaluate(zero, 5.0, 0.1) == 0.0
        assert zero.total_mass() == 0.0

    def test_domain_checks(self):
        atom = BoundaryAtoms(atoms=((0.0, 1.0),))
        for bad_y in (0.0, -1.0, float("inf")):
            with pytest.raises(DomainError):
                herglotz_evaluate(atom, 0.0, bad_y)
        with pytest.raises(DomainError):
            BoundaryAtoms(atoms=((0.0, -1.0),))
        with pytest.raises(DomainError):
            BoundaryAtoms(atoms=((float("nan"), 1.0),))

    def test_evaluator_closure(self):
        atom = BoundaryAtoms(atoms=((1.0, 2.0),), slope=0.25)
        func = herglotz_evaluator(atom)
        assert func(0.3, 0.7) == herglotz_evaluate(atom, 0.3, 0.7)

    @pytest.mark.parametrize("x,y", [(0.0, 1.0), (1.3, 0.2), (-2.0, 3.0)])
    def test_harmonicity_by_finite_differences(self, x, y):
        # five-point Laplacian of the kernel vanishes to O(h**2); halving h
        # must cut the residual by about 4
        measure = BoundaryAtoms(atoms=((0.5, 1.0), (-1.0, 2.0)), slope=1.0)
        func = herglotz_evaluator(measure)

        def laplacian(h):
            return (
                func(x + h, y) + func(x - h, y)
                + func(x, y + h) + func(x, y - h)
                - 4.0 * func(x, y)
            ) / h**2

        r1, r2 = laplacian(1e-3), laplacian(5e-4)
        assert abs(r1) < 1e-3
        if abs(r1) > 1e-6:  # only truncation-dominated residuals halve cleanly
            assert abs(r2) < abs(r1) / 2.5
        else:
            assert abs(r2) < 1e-5


class TestBoundaryRecovery:
    def test_atom_mass_recovered(self):
        atom = BoundaryAtoms(atoms=((0.25, 2.0),))
        func = herglotz_evaluator(atom)
        mass = boundary_recover(func, 0.0, 1.0, y_probe=1e-4,
                                breakpoints=(0.25,))
        assert abs(mass - 2.0) / 2.0 < 0.02

    def test_interval_missing_the_atom(self):
        atom = BoundaryAtoms(atoms=((5.0, 1.0),))
        func = herglotz_evaluator(atom)
        mass = boundary_recover(func, 0.0, 1.0, y_probe=1e-4)
        assert abs(mass) < 1e-4

    def test_slope_contribution_vanishes(self):
        lin = BoundaryAtoms(atoms=(), slope=3.0)
        func = herglotz_evaluator(lin)
        mass = boundary_recover(func, -2.0, 2.0, y_probe=1e-4)
        assert abs(mass) < 1e-3

    def test_two_atoms_one_interval(self):
        pair = BoundaryAtoms(atoms=((0.2, 1.0), (0.8, 4.0)))
        func = herglotz_evaluator(pair)
        mass = boundary_recover(func, 0.0, 1.0, y_probe=1e-5,
                                breakpoints=(0.2, 0.8))
        assert abs(mass - 5.0) / 5.0 < 0.01

    def test_domain_checks(self):
        func = herglotz_evaluator(BoundaryAtoms(atoms=()))
        with pytest.raises(DomainError):
            boundary_recover(func, 1.0, 1.0)
        with pytest.raises(DomainError):
            boundary_recover(func, 2.0, 1.0)
        with pytest.raises(DomainError):
            boundary_recover(func, 0.0, 1.0, y_probe=0.0)

    def test_quadrature_failure_is_reported(self):
        def jagged(x, y):
            # non-integrable spike: quad cannot reach the tolerance
            return 1.0 / abs(x - 0.5 + 1e-15)

        with pytest.raises(QuadratureError) as err:
            boundary_recover(jagged, 0.0, 1.0)
        assert err.value.residual > 0

    @staticmethod
    def _spike(power):
        def func(x, y):
            return abs(x - 1 / 3) ** -power if x != 1 / 3 else math.inf
        return func

    def test_weak_singularity_at_a_breakpoint_converges(self):
        got = boundary_recover(self._spike(0.25), 0.0, 1.0,
                               breakpoints=(1 / 3,))
        want = ((1 / 3) ** 0.75 + (2 / 3) ** 0.75) / 0.75 / math.pi
        assert abs(got - want) <= 1e-8 * want

    def test_strong_singularity_at_a_breakpoint_is_reported(self):
        with pytest.raises(QuadratureError):
            boundary_recover(self._spike(0.9), 0.0, 1.0, breakpoints=(1 / 3,))


class TestCylinderMass:
    def test_prototile_band(self):
        # unit-width box doubling in height: mass = coeff * 1 * ln 2
        assert cylinder_mass(1, (0, 1, 1, 2)) == pytest.approx(math.log(2))
        linear, ratio = cylinder_mass_exact(1, (0, 1, 1, 2))
        assert (linear, ratio) == (1, 2)

    def test_coefficient_and_width_scale_linearly(self):
        base = cylinder_mass(1, (0, 1, 1, 2))
        assert cylinder_mass(3, (0, 1, 1, 2)) == pytest.approx(3 * base)
        assert cylinder_mass(1, (0, 4, 1, 2)) == pytest.approx(4 * base)

    def test_zero_coefficient_and_zero_width(self):
        assert cylinder_mass(0, (0, 1, 1, 2)) == 0.0
        linear, ratio = cylinder_mass_exact(1, (3, 3, 1, 8))
        assert linear == 0 and ratio == 8

    def test_exact_fractions_survive(self):
        linear, ratio = cylinder_mass_exact(
            Fraction(2, 3), (Fraction(1, 4), Fraction(3, 4), Fraction(1, 2), 2)
        )
        assert linear == Fraction(1, 3)
        assert ratio == 4

    def test_thin_band_keeps_relative_precision(self):
        # ln(1 + 1e-20): subtracting two rounded logs of 1e20 gave 0.0
        mass = cylinder_mass(1, (0, 1, 10**20, 10**20 + 1))
        assert mass == pytest.approx(1e-20, rel=1e-12)

    def test_invalid_rectangles(self):
        with pytest.raises(DomainError):
            cylinder_mass(1, (1, 0, 1, 2))  # inverted x
        with pytest.raises(DomainError):
            cylinder_mass(1, (0, 1, 2, 1))  # inverted y
        with pytest.raises(DomainError):
            cylinder_mass(1, (0, 1, 0, 2))  # touches the boundary
        with pytest.raises(DomainError):
            cylinder_mass(-1, (0, 1, 1, 2))  # negative density


class TestTransport:
    def test_doubling_map(self):
        check = transport_scaling_check(1, (0, 1, 1, 2), doubling_map())
        assert check.equal
        assert check.alpha == 2
        assert check.lhs == (2, 2)
        assert check.rhs == (2, 2)

    def test_shift_map(self):
        check = transport_scaling_check(5, (0, 1, 1, 2), shift_map())
        assert check.equal and check.alpha == 1

    def test_contraction(self):
        g = AffineMap(Fraction(1, 2), Fraction(-3, 4))
        check = transport_scaling_check(Fraction(7, 2), (0, 2, 1, 4), g)
        assert check.equal
        assert check.lhs[0] == Fraction(7, 2) * 1  # halved width, same coeff
        assert check.lhs[1] == 4  # height ratio is map-invariant

    def test_map_rect_image(self):
        g = AffineMap(2, 1)
        assert map_rect(g, (0, 1, 1, 2)) == (1, 3, 2, 4)

    def test_json_exactness(self):
        check = transport_scaling_check(1, (0, 1, 1, 2), doubling_map())
        payload = check.to_json()
        assert payload["equal"] is True
        assert payload["alpha"] == {"num": "2", "den": "1"}

    @given(
        k=st.integers(-6, 6),
        bnum=st.integers(-40, 40),
        x0=st.integers(-8, 8),
        w=st.integers(0, 8),
        ynum=st.integers(1, 16),
        hmul=st.integers(2, 9),
        cnum=st.integers(0, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_dyadic_exactness(self, k, bnum, x0, w, ynum, hmul, cnum):
        g = AffineMap(Fraction(2) ** k, Fraction(bnum, 8))
        y0 = Fraction(ynum, 4)
        rect = (Fraction(x0, 2), Fraction(x0, 2) + w, y0, y0 * hmul)
        coeff = Fraction(cnum, 3)
        check = transport_scaling_check(coeff, rect, g)
        assert check.equal
        assert check.alpha == alpha(g)


def test_import_leaves_scipy_unloaded():
    """scipy is imported by the calls that need it, not by `import hyptiling`."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hyptiling; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_heavy_modules_unloaded():
    """numpy, scipy and the XML and URL libraries load only when a call
    needs them, and records do not use dataclasses, so commands that never
    use them start quickly."""
    heavy = ("numpy", "scipy", "xml.etree", "urllib.request", "dataclasses",
             "inspect")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, hyptiling; print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_typing_unloaded():
    """Without site (whose .pth hooks may load typing themselves), importing
    the CLI does not load typing."""
    src = os.path.dirname(os.path.dirname(hyptiling.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {src!r}); import hyptiling.cli; "
         "print('typing' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_checks_leave_scipy_unloaded():
    """The KS test, the quadrature and every verify check run without
    scipy."""
    code = (
        "import sys\n"
        "from hyptiling import *\n"
        "from hyptiling.verification import run_all\n"
        "assert all(c.passed for c in run_all())\n"
        "cfg = DiffusionConfig(SubstitutionModel.standard(), dt=0.01,"
        " horizon=1.0, paths=30)\n"
        "height_law_test(run_paths(cfg))\n"
        "boundary_recover(herglotz_evaluator(BoundaryAtoms(((0.25, 2.0),))),"
        " 0.0, 1.0, breakpoints=(0.25,))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("offset,passed", [(0.5, True), (2.0, False)])
def test_verify_check_holds_quadrature_to_its_rule(monkeypatch, offset, passed):
    """The boundary-recovery check of `verify` fails once the quadrature
    strays from the closed form by more than rel_tol * max(|value|, 1) / pi."""
    from hyptiling import verification

    def shifted(*args, **kwargs):
        value = boundary_recover(*args, **kwargs)
        scale = verification._RECOVERY_RTOL * max(abs(value) * math.pi, 1.0)
        return value + offset * scale / math.pi

    monkeypatch.setattr(verification, "boundary_recover", shifted)
    check = verification.check_boundary_recovery()
    assert check.name == "boundary-recovery"
    assert check.passed is passed
