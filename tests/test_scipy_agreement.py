"""The in-repo KS p-value and quadrature against scipy's, on seeded grids.

scipy is a test dependency only: the library computes both itself.
"""

import math
import random
import warnings
from types import SimpleNamespace
from functools import partial

import numpy as np
import pytest
from scipy import integrate, stats

from hyptiling import (
    BoundaryAtoms,
    DiffusionConfig,
    QuadratureError,
    SubstitutionModel,
    boundary_recover,
    height_law_test,
    herglotz_evaluate,
    log_height_samples,
    run_paths,
)
from hyptiling.diffusion import _kolmogorov_sf
from hyptiling.harmonic import REL_TOL

KS_RTOL = 1e-9
# 2 exp(-740) and below are subnormal: relative precision is gone there.
KS_ATOL = 1e-300
SIZES = (30, 40, 60, 140, 141, 200, 10**3, 10**4)


def branch_edges(n):
    """Statistics d at which _kolmogorov_sf changes branch for this n."""
    return (0.5 / n, 1.0 / n, (n - 1) / n, 0.5, math.sqrt(2.2 / n),
            math.sqrt(4.0 / n), math.sqrt(370.0 / n), (1.4 / n) ** (2 / 3))


def grid(n):
    ds = set(np.geomspace(0.4 / n, 0.999, 40).tolist())
    ds |= set(np.linspace(0.02, 0.98, 25).tolist())
    for edge in branch_edges(n):
        ds |= {edge * (1 - 1e-12), edge, edge * (1 + 1e-12)}
    return sorted(d for d in ds if 0.0 < d < 1.0)


@pytest.mark.parametrize("n", SIZES)
def test_kolmogorov_sf_matches_kstwo(n):
    for d in grid(n):
        want = float(stats.kstwo.sf(d, n))
        got = _kolmogorov_sf(n, d)
        assert math.isclose(got, want, rel_tol=KS_RTOL, abs_tol=KS_ATOL), (n, d)


def test_durbin_power_with_many_set_bits_stays_finite():
    """n = 2**16 - 1 multiplies sixteen scaled factors into Durbin's power.

    For t between about 16 and 24 that product passes 2**1024 unless it is
    rescaled; `kstwo.sf` overflows there itself and returns 0.  Where the
    limiting law's tail rounds to 1.0 the exact tail must too; elsewhere it
    must match `kstwo.sf`.
    """
    n = 2**16 - 1
    for d in np.geomspace(2.0 / n, (1.4 / n) ** (2 / 3), 30).tolist():
        got = _kolmogorov_sf(n, d)
        if stats.kstwobign.sf(math.sqrt(n) * d) == 1.0:
            assert got == 1.0, d
        else:
            want = float(stats.kstwo.sf(d, n))
            assert math.isclose(got, want, rel_tol=KS_RTOL), d


def test_grid_reaches_every_branch():
    t_d = [(n * d, d, n) for n in SIZES for d in grid(n)]
    assert any(t <= 0.5 for t, _, _ in t_d)
    assert any(0.5 < t <= 1.0 for t, _, _ in t_d)
    assert any(t >= n - 1 for t, _, n in t_d)
    assert any(d >= 0.5 and t < n - 1 for t, d, n in t_d)
    small = [(t, d) for t, d, n in t_d if n <= 140 and 1.0 < t and d < 0.5]
    assert any(t * d > 4.0 for t, d in small)
    assert any(t * d <= 4.0 for t, d in small)
    large = [(t, d, n) for t, d, n in t_d if n > 140 and 1.0 < t and d < 0.5]
    assert any(t * d >= 370.0 for t, d, _ in large)
    assert any(2.2 <= t * d < 370.0 for t, d, _ in large)
    assert any(t * d < 2.2 and n * d**1.5 <= 1.4 for t, d, n in large)
    assert any(t * d < 2.2 and n * d**1.5 > 1.4 for t, d, n in large)


@pytest.mark.parametrize("seed", range(6))
def test_height_law_matches_kstest_on_paths(seed):
    cfg = DiffusionConfig(SubstitutionModel.standard(), dt=1e-2, horizon=5.0,
                          paths=30 + 37 * seed, seed=seed)
    results = run_paths(cfg)
    stat, pvalue = height_law_test(results)
    horizon = max(r.time_elapsed for r in results)
    want = stats.kstest(log_height_samples(results), "norm",
                        args=(0.0, math.sqrt(horizon)))
    assert abs(stat - want.statistic) <= 1e-14
    assert math.isclose(pvalue, want.pvalue, rel_tol=KS_RTOL)


@pytest.mark.parametrize("n,shift", [(500, 0.0), (10**3, 0.05),
                                     (10**4, 0.0), (10**4, 0.03)])
def test_height_law_matches_kstest_at_scale(n, shift):
    # stand-in results whose compensated samples are the drawn values;
    # the shifted ones push the p-value into the tail branches
    rng = np.random.default_rng(n)
    values = rng.normal(shift * 3.0, 3.0, n)
    results = [SimpleNamespace(displacement=float(v), steps_used=0, dt=1.0,
                               partial=False, time_elapsed=9.0)
               for v in values]
    stat, pvalue = height_law_test(results)
    want = stats.kstest(values, "norm", args=(0.0, 3.0))
    assert abs(stat - want.statistic) <= 1e-14
    assert math.isclose(pvalue, want.pvalue, rel_tol=KS_RTOL, abs_tol=KS_ATOL)


def atoms_interval_mass(measure, a, b, y):
    """(1/pi) [sum m (atan((b - s)/y) - atan((a - s)/y)) + slope y (b - a)]."""
    return (sum(m * (math.atan((b - s) / y) - math.atan((a - s) / y))
                for s, m in measure.atoms)
            + measure.slope * y * (b - a)) / math.pi


def test_boundary_recover_on_random_atom_measures():
    """2,000 seeded measures: the quadrature lands within its acceptance
    rule of the closed form, and it never gives up where scipy's quad met
    the same rule."""
    rng = random.Random(20240607)
    for _ in range(2000):
        atoms = tuple((rng.uniform(-0.5, 1.5), rng.uniform(0.1, 5.0))
                      for _ in range(rng.randint(1, 4)))
        measure = BoundaryAtoms(atoms=atoms,
                                slope=rng.choice((0.0, rng.uniform(0.0, 3.0))))
        y = 10.0 ** rng.uniform(-5.0, -2.0)
        breaks = [s for s, _ in atoms]
        func = partial(herglotz_evaluate, measure)
        want = atoms_interval_mass(measure, 0.0, 1.0, y)
        try:
            got = boundary_recover(func, 0.0, 1.0, y_probe=y,
                                   breakpoints=breaks)
        except QuadratureError:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                value, abserr = integrate.quad(
                    func, 0.0, 1.0, args=(y,), limit=200,
                    points=[s for s in breaks if 0.0 < s < 1.0] or None)
            assert abserr > REL_TOL * max(abs(value), 1.0), (measure, y)
            continue
        scale = REL_TOL * max(abs(want) * math.pi, 1.0) / math.pi
        assert abs(got - want) <= scale, (measure, y, got, want)
