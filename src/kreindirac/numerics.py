"""Shared extrapolation plumbing.

The constructed M gives its boundary values on the real axis in closed
form, and ``construct`` and ``verify`` read them there.  The library's
limit routes (``herglotz.krein_xi``, ``finitegap.reflectionless_defect``),
which take any M function and are the reference the commands' boundary
values are tested against, never evaluate the real axis: they reach it
along the schedule ``LIMIT_OFFSETS``, y_k = 1e-2 * 2^(-k) for
k = 0, ..., 7, by extrapolating to y = 0 with polynomials of order
``LIMIT_ORDER`` = 3 (the sampled quantities extend analytically through
the relevant real intervals, so low-order polynomial extrapolation
converges fast).  :func:`extrapolate_schedule` reads the last
``LIMIT_ORDER + 2`` offsets, k = 3, ..., 7, and ``finitegap.boundary_points``
samples only those, scaled by min(1, d_t / y_0) at a distance d_t from
the nearest gap endpoint.  Large-z asymptotics extrapolate the same way in
the variable 1/Y.

Each extrapolation applies the Lagrange weights at 0 of its abscissae
(Berrut & Trefethen, SIAM Rev. 46, 2004), w_i = prod_{j != i} x_j / (x_j - x_i).
Every factor is unchanged when all abscissae are scaled alike, so the
weights are cached per abscissae divided by the largest: the boundary
schedule and the large-z heights (any spectral radius) each have
one entry, and the cache keeps at most 64.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NoConvergence

__all__ = [
    "LIMIT_OFFSETS",
    "LIMIT_ORDER",
    "extrapolate_schedule",
    "convergence_error",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only: a cached or module constant is shared by every
    caller."""
    a.flags.writeable = False
    return a


LIMIT_OFFSETS = _read_only(1e-2 * 0.5 ** np.arange(8))
LIMIT_ORDER = 3


def _at_zero(xs: tuple[float, ...]) -> list[float]:
    """The Lagrange weights at 0 of the nodes ``xs``."""
    return [math.prod(x / (x - xi) for j, x in enumerate(xs) if j != i) for i, xi in enumerate(xs)]


@functools.lru_cache(maxsize=64)
def _weights(xs: tuple[float, ...], order: int) -> np.ndarray:
    """The read-only (2, len(xs)) weights of :func:`extrapolate_schedule`:
    row 0 gives the limit, row 1 the limit minus the second extrapolant."""
    top = [0.0] * (len(xs) - order - 1) + _at_zero(xs[-order - 1:])
    low = _at_zero(xs[:-1]) + [0.0] if len(xs) > order + 1 else [0.0] + _at_zero(xs[1:])
    return _read_only(np.array([top, np.subtract(top, low)]))


def extrapolate_schedule(xs, values, order: int):
    """Extrapolate samples along a schedule to 0 and estimate the residual.

    ``values`` holds one sample per abscissa along its first axis: a 2x2
    matrix, or a stack of them (shape (K, ..., 2, 2)), which shares the
    abscissae.  Of the last m = min(K, order + 2) samples, the limit is the
    extrapolant of order ``order`` through the last ``order + 1``, and the
    second extrapolant is the one through the preceding window of the same
    length when there is one, else the one of order ``order - 1`` through
    the last ``order`` samples.  Both are one contraction of the samples,
    less the last one, with their Lagrange weights at 0: the weights of each
    row sum to 1 or 0, and the differences keep the digits that the samples
    share.  The contraction is elementwise in the stack, so a matrix's
    limit does not depend on the stack it sits in.  The residual is the
    maximum entry difference of the two, per matrix: a float for matrix
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
    if xs.shape != (m,):
        raise ValueError("need one abscissa per value")
    # the weights at 0 do not change under a common scale of the abscissae
    w = _weights(tuple((xs / np.abs(xs).max()).tolist()), order)
    v = np.asarray(values[-m:], dtype=complex)
    out = np.einsum("wk,k...->w...", w, v - v[-1])
    return out[0] + v[-1], np.abs(out[1]).max(axis=(-2, -1))


def convergence_error(residual: float, tol: float, what: str) -> NoConvergence | None:
    """The NoConvergence for an extrapolation residual beyond ``tol`` (NaN
    included), or None."""
    if residual <= tol:
        return None
    return NoConvergence(f"{what}: residual {residual:.3e} exceeds {tol:.1e}")
