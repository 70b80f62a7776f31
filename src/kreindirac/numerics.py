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
    "extrapolate_schedule",
    "convergence_error",
]

LIMIT_OFFSETS = 1e-2 * 0.5 ** np.arange(8)
LIMIT_OFFSETS.flags.writeable = False
LIMIT_ORDER = 3


def _neville_step(xs: np.ndarray, tab: np.ndarray, k: int) -> np.ndarray:
    """Column k of the Neville tableau at 0 from column k - 1, all its
    entries at once: entry i is the value at 0 of the polynomial through
    points i, ..., i + k."""
    x = xs.reshape((len(xs),) + (1,) * (tab.ndim - 1))
    return (x[k:] * tab[:-1] - x[:-k] * tab[1:]) / (x[k:] - x[:-k])


def extrapolate_schedule(xs, values, order: int):
    """Extrapolate samples along a schedule to 0 and estimate the residual.

    ``values`` holds one sample per abscissa along its first axis: a 2x2
    matrix, or a stack of them (shape (K, ..., 2, 2)), which shares the
    abscissae.  One Neville tableau over the last min(K, order + 2) samples
    gives the limit, the extrapolant of order ``order`` through the last
    ``order + 1`` samples, and a second extrapolant: the one through the
    preceding window of the same length when there is one, else the one of
    order ``order - 1`` through the last ``order`` samples.  The residual is
    the maximum entry difference of the two, per matrix: a float for matrix
    samples and an array of the stack's shape for stacked ones.  Needs
    ``order >= 1`` and ``order + 1`` samples.

    Returns
    -------
    (limit, residual)
    """
    if order < 1 or len(values) < order + 1:
        raise ValueError(f"need order >= 1 and at least order + 1 samples, got order {order} "
                         f"and {len(values)} samples")
    m = min(len(values), order + 2)
    xs = np.asarray(xs, dtype=float)[-m:]
    tab = np.asarray(values[-m:], dtype=complex)
    if xs.shape != (m,):
        raise ValueError("need one abscissa per value")
    for k in range(1, order):
        tab = _neville_step(xs, tab, k)
    top = _neville_step(xs, tab, order)
    prev = top[-2] if m > order + 1 else tab[-1]
    residual = np.abs(top[-1] - prev).max(axis=(-2, -1))
    return top[-1], residual


def convergence_error(residual: float, tol: float, what: str) -> NoConvergence | None:
    """The NoConvergence for an extrapolation residual beyond ``tol`` (NaN
    included), or None."""
    if residual <= tol:
        return None
    return NoConvergence(f"{what}: residual {residual:.3e} exceeds {tol:.1e}")

