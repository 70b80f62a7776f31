"""Extrapolation helpers."""

import numpy as np
import pytest

from kreindirac.errors import NoConvergence
from kreindirac.numerics import (
    LIMIT_OFFSETS,
    LIMIT_ORDER,
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

