"""Shared extrapolation plumbing.

Boundary values on the real axis are never evaluated directly: they are
reached along the schedule ``LIMIT_OFFSETS``, y_k = 1e-2 * 2^(-k) for
k = 0, ..., 7, by extrapolating to y = 0 with polynomials of order
``LIMIT_ORDER`` = 3 (the sampled quantities extend analytically through
the relevant real intervals, so low-order polynomial extrapolation
converges fast).  :func:`extrapolate_schedule` reads the last
``LIMIT_ORDER + 2`` offsets, k = 3, ..., 7, and ``finitegap.boundary_limit``
samples only those, scaled by min(1, d_t / y_0) at a distance d_t from
the nearest gap endpoint.  Large-z asymptotics use the same Neville
tableau in the variable 1/Y.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

__all__ = [
    "LIMIT_OFFSETS",
    "LIMIT_ORDER",
    "neville_at_zero",
    "extrapolate_schedule",
    "convergence_error",
]

LIMIT_OFFSETS = 1e-2 * 0.5 ** np.arange(8)
LIMIT_OFFSETS.flags.writeable = False
LIMIT_ORDER = 3


def _neville_column(xs, values, levels: int) -> np.ndarray:
    """Column ``levels`` of the Neville tableau at 0: entry i is the value at
    0 of the polynomial through points i, ..., i + levels."""
    xs = np.asarray(xs, dtype=float)
    tab = np.asarray(values, dtype=complex)
    n = len(tab)
    if n == 0 or xs.shape != (n,):
        raise ValueError("need one abscissa per value")
    # one tableau column per step, all its entries at once
    x = xs.reshape((n,) + (1,) * (tab.ndim - 1))
    for k in range(1, levels + 1):
        tab = (x[k:] * tab[:-1] - x[:-k] * tab[1:]) / (x[k:] - x[:-k])
    return tab


def neville_at_zero(xs, values) -> np.ndarray:
    """Value at 0 of the polynomial through (xs[i], values[i]).

    ``values`` may be scalars or arrays of a common shape; the tableau is
    carried entrywise.
    """
    return _neville_column(xs, values, len(values) - 1)[0]


def extrapolate_schedule(xs, values, order: int):
    """Extrapolate samples along a schedule to 0 and estimate the residual.

    ``values`` holds one sample per abscissa along its first axis: a 2x2
    matrix, or a stack of them (shape (K, ..., 2, 2)), which shares the
    abscissae and one tableau.  Uses the last ``order + 1`` samples for the
    returned limit.  The residual is the maximum entry difference against a
    second extrapolant: the preceding window of the same length when one
    exists, otherwise the order-lowered extrapolant on the same tail.  It is
    taken per matrix, so a float for matrix samples and an array of the
    stack's shape for stacked ones.  Needs ``order + 1`` samples.

    Returns
    -------
    (limit, residual)
    """
    xs = np.asarray(xs, dtype=float)
    if len(values) < order + 1:
        raise ValueError(f"need at least {order + 1} samples for order {order}")
    if len(values) > order + 1:
        # one tableau over the last order + 2 samples holds both windows
        prev, last = _neville_column(xs[-(order + 2):], values[-(order + 2):], order)
    else:
        last = neville_at_zero(xs[-(order + 1):], values[-(order + 1):])
        prev = neville_at_zero(xs[-order:], values[-order:])
    residual = np.abs(last - prev).max(axis=(-2, -1))
    return last, residual


def convergence_error(residual: float, tol: float, what: str) -> NoConvergence | None:
    """The NoConvergence for an extrapolation residual beyond ``tol`` (NaN
    included), or None."""
    if residual <= tol:
        return None
    return NoConvergence(f"{what}: residual {residual:.3e} exceeds {tol:.1e}")

