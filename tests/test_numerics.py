"""Extrapolation helpers."""

import numpy as np
import pytest

from kreindirac.errors import NoConvergence
from kreindirac.numerics import (
    LIMIT_OFFSETS,
    LIMIT_ORDER,
    convergence_error,
    extrapolate_schedule,
    neville_at_zero,
)


def test_neville_exact_on_polynomials():
    xs = np.array([0.4, 0.3, 0.2, 0.1])
    coeffs = [2.0, -1.5, 0.25, 3.0]
    values = [sum(c * x ** k for k, c in enumerate(coeffs)) for x in xs]
    np.testing.assert_allclose(neville_at_zero(xs, values), coeffs[0],
                               rtol=0, atol=1e-12)


def test_neville_carries_matrix_samples():
    xs = np.array([0.3, 0.2, 0.1])
    a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    a1 = np.array([[0.5, 0.0], [0.0, -0.5]])
    values = [a0 + x * a1 + x ** 2 * np.eye(2) for x in xs]
    np.testing.assert_allclose(neville_at_zero(xs, values), a0, atol=1e-13)


def test_extrapolate_schedule_converges_and_reports_residual():
    xs = LIMIT_OFFSETS
    # smooth limit with a small curvature term
    values = [np.array([[1.0 + y + y ** 2, 0.0], [0.0, 2.0 - 3.0 * y]]) for y in xs]
    limit, residual = extrapolate_schedule(xs, values, LIMIT_ORDER)
    np.testing.assert_allclose(limit, np.diag([1.0, 2.0]), atol=1e-10)
    assert residual < 1e-10


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

