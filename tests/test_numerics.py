"""Extrapolation helpers, their cached weights and the constant grids."""

from fractions import Fraction

import numpy as np
import pytest

from kreindirac import finitegap, herglotz
from kreindirac.errors import NoConvergence
from kreindirac.finitegap import (
    GapSet,
    KreinProfile,
    boundary_points,
    boundary_reduce,
    build_M,
    e_interior_grid,
    gap_interior_grid,
    gap_realness_points,
    reflectionless_defect,
)
from kreindirac.herglotz import (
    asymptotic_points,
    asymptotic_reduce,
    krein_xi_points,
    krein_xi_reduce,
    profile_m_function,
)
from kreindirac.mat2 import re_part
from kreindirac.numerics import (
    LIMIT_OFFSETS,
    LIMIT_ORDER,
    _weights,
    convergence_error,
    extrapolate_schedule,
)


def test_neville_exact_on_polynomials():
    xs = np.array([0.4, 0.3, 0.2, 0.1])
    coeffs = [2.0, -1.5, 0.25, 3.0]
    values = [sum(c * x ** k for k, c in enumerate(coeffs)) for x in xs]
    limit, _ = extrapolate_schedule(xs, [v * np.eye(2) for v in values], len(xs) - 1)
    np.testing.assert_allclose(limit, coeffs[0] * np.eye(2), rtol=0, atol=1e-12)


def test_neville_carries_matrix_samples():
    xs = np.array([0.3, 0.2, 0.1])
    a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    a1 = np.array([[0.5, 0.0], [0.0, -0.5]])
    values = [a0 + x * a1 + x ** 2 * np.eye(2) for x in xs]
    limit, _ = extrapolate_schedule(xs, values, len(xs) - 1)
    np.testing.assert_allclose(limit, a0, atol=1e-13)


def test_extrapolate_schedule_converges_and_reports_residual():
    xs = LIMIT_OFFSETS
    # smooth limit with a small curvature term
    values = [np.array([[1.0 + y + y ** 2, 0.0], [0.0, 2.0 - 3.0 * y]]) for y in xs]
    limit, residual = extrapolate_schedule(xs, values, LIMIT_ORDER)
    np.testing.assert_allclose(limit, np.diag([1.0, 2.0]), atol=1e-10)
    assert residual < 1e-10


def _lagrange_at_zero(xs, values):
    # the interpolating polynomial at 0 in Lagrange form, not by a tableau
    return sum(v * np.prod([x / (x - xi) for x in xs if x != xi]) for xi, v in zip(xs, values))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_extrapolate_schedule_residual_without_a_preceding_window(order):
    # with exactly order + 1 samples the second extrapolant is the one of
    # order - 1 through the last order samples
    rng = np.random.default_rng(order)
    xs = 0.4 * 0.5 ** np.arange(order + 1)
    values = rng.normal(size=(order + 1, 3, 2, 2)) + 1j * rng.normal(size=(order + 1, 3, 2, 2))
    limit, residual = extrapolate_schedule(xs, values, order)
    np.testing.assert_allclose(limit, _lagrange_at_zero(xs, values), rtol=0, atol=1e-12)
    lower = _lagrange_at_zero(xs[1:], values[1:])
    assert residual.shape == (3,)
    np.testing.assert_allclose(residual, np.abs(limit - lower).max(axis=(-2, -1)),
                               rtol=0, atol=1e-12)


def test_extrapolate_schedule_needs_enough_samples():
    with pytest.raises(ValueError):
        extrapolate_schedule([0.1, 0.05], [1.0, 1.0], order=3)


def test_convergence_error():
    assert convergence_error(1e-9, 1e-6, "fine") is None
    err = convergence_error(1e-3, 1e-6, "coarse")
    assert isinstance(err, NoConvergence)
    assert str(err) == "coarse: residual 1.000e-03 exceeds 1.0e-06"
    assert isinstance(convergence_error(float("nan"), 1e-6, "nan is not convergence"),
                      NoConvergence)



def test_limit_and_residual_keep_the_digits_the_samples_share():
    # samples of size 50 whose differences are 1e-3 of that, as the
    # large-z law gives for a gap of width 100: the residual, a difference
    # of two extrapolants, is exact to the rounding of the differences, not
    # of the samples.  Against exact rational arithmetic on the same samples.
    rng = np.random.default_rng(11)
    xs = 1.0 / (100.0 * 2.0 ** np.arange(5))
    coeffs = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
    values = np.array([50.0 + 0.05 * sum(c * (100.0 * x) ** k for k, c in enumerate(coeffs))
                       for x in xs])
    limit, residual = extrapolate_schedule(xs, values, 4)

    def at_zero(nodes, vals):
        nodes = [Fraction(float(x)) for x in nodes]
        total = Fraction(0)
        for i, (xi, v) in enumerate(zip(nodes, vals)):
            w = Fraction(1)
            for j, x in enumerate(nodes):
                if j != i:
                    w *= x / (x - xi)
            total += w * Fraction(float(v))
        return total

    exact = np.zeros(2 * (2, 2))
    for a, b in np.ndindex(2, 2):
        for p, part in enumerate((values.real, values.imag)):
            v = part[:, a, b]
            exact[p, 0, a, b] = at_zero(xs, v)
            exact[p, 1, a, b] = at_zero(xs, v) - at_zero(xs[1:], v[1:])
    np.testing.assert_allclose(limit, exact[0, 0] + 1j * exact[1, 0], rtol=0, atol=1e-14)
    worst = np.hypot(exact[0, 1], exact[1, 1]).max()
    assert 1e-6 < worst < 1e-3
    assert abs(residual - worst) <= 1e-15 * worst


def test_default_heights_of_any_radius_share_one_cache_entry():
    # the weights are cached per abscissae over their largest, so the
    # default large-z heights of every spectral radius read one entry, and
    # the boundary schedule one more: a cache keyed on the raw abscissae
    # would grow by an entry per profile in a long-lived process
    _weights.cache_clear()
    rng = np.random.default_rng(5)
    radii = np.unique(rng.uniform(1.0, 20.0, 1000))
    assert len(radii) == 1000
    for r in radii:
        prof = KreinProfile.uniform(GapSet(((-r, r),)), 0.3)
        zs = asymptotic_points(prof.gapset)
        asymptotic_reduce(zs, build_M(prof, zs), ("value",))
    assert _weights.cache_info().currsize == 1
    ts, errors, zs = krein_xi_points(prof.gapset, [0.5])
    krein_xi_reduce(ts, errors, build_M(prof, zs.ravel()).reshape(zs.shape + (2, 2)))
    reflectionless_defect(profile_m_function(prof), [r + 0.5, r + 2.0])
    assert _weights.cache_info().currsize == 2


def test_cached_weights_and_grid_constants_are_read_only():
    shared = [_weights(tuple(LIMIT_OFFSETS[-5:] / LIMIT_OFFSETS[-5]), LIMIT_ORDER),
              LIMIT_OFFSETS, herglotz._YGRID, finitegap._OUTER_ROW, finitegap._UNIT_ROW]
    for a in shared:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_mutating_a_result_leaves_the_next_call_unchanged():
    gs = GapSet(((-2.0, -1.0), (1.0, 3.0)))
    prof = KreinProfile.uniform(gs, 0.7)
    grids = [lambda: gap_interior_grid(gs), lambda: e_interior_grid(gs),
             lambda: gap_realness_points(gs)[0], lambda: asymptotic_points(gs)]
    zs = boundary_points(gs, e_interior_grid(gs))
    mats = build_M(prof, zs.ravel()).reshape(zs.shape + (2, 2))
    limits = [lambda: boundary_reduce(mats, re_part)[0], lambda: boundary_reduce(mats, re_part)[1],
              lambda: extrapolate_schedule(LIMIT_OFFSETS, np.ones((8, 2, 2)), LIMIT_ORDER)[0]]
    for make in grids + limits:
        first = make()
        kept = first.copy()
        first[...] = 0.0
        np.testing.assert_array_equal(make(), kept)
