"""Matrix Herglotz functions, Krein densities and large-z asymptotics.

A matrix Herglotz function here is a symmetric 2x2 function M(z) on the
upper half plane with positive imaginary part and det M = -1.  Its Krein
density

    xi(t) = (1/pi) lim_{y -> 0+} Im log M(t + i y)

satisfies 0 <= xi <= 1 and tr xi = 1 (the trace is pinned by
-1 = det M = exp(tr log M)), and log M is recovered from xi by the
exponential representation

    log M(z) = A + (i pi / 2) I + sum_gaps int (xi(t) - I/2) / (t - z) dt,

where A is a real symmetric constant (zero for the canonical construction;
the density I/2 on E contributes the explicit (i pi/2) I term).  For a
Krein profile the gap integrals have the closed form of
``finitegap.build_logM``, and ``build_M`` evaluates a real point t clear
of the endpoint margins as the limit from above, M(t + i0).  The module
reads xi by one map of such boundary values, a (T, 2, 2) stack over T
points (:func:`krein_xi_values`, which the commands apply to the closed
form through the matrix logarithm they share with other reads), or by
the limit schedule of any MFunction, which applies the same map at
heights above each point and extrapolates (:func:`krein_xi`, the
reference of the boundary read), with the failed points in a map beside
the stack.  It extracts the potential at the origin from the two large-z
laws

    M(c + i Y) = i (I - W(0) / (iY) + O(Y^-2)),
    log M(c + i Y) = (i pi / 2) I - W(0) / (iY) + O(Y^-2),

on the vertical through the midpoint c of the gaps' hull, where the
heights Y stay near the hull's half width for gaps far from 0.  The
Herglotz certificate reads the closed form at real points of the gaps,
where M(t + i0) needs no limit: by the minimum principle the smallest
eigenvalue of Im M over the upper half plane is reached there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotTraceless
from .finitegap import (GapSet, KreinProfile, PotentialSample, boundary_points, boundary_reduce,
                        build_M, gap_realness_points)
from .mat2 import I2, as_mat2, im_part, mlog_spectral
from .numerics import _read_only, convergence_error, extrapolate_schedule

__all__ = [
    "MFunction",
    "KreinSample",
    "profile_m_function",
    "krein_xi_values",
    "krein_xi_points",
    "krein_xi_reduce",
    "krein_xi",
    "asymptotic_points",
    "asymptotic_reduce",
    "asymptotic_W",
    "herglotz_reduce",
    "herglotz_defect",
]

# the convergence tolerance of a boundary limit of xi, which verify also
# applies to the boundary values of xi on the bands and gaps, and the
# heights of the large-z points in hull half widths; both are read at call
# time
XI_TOL = 1e-6
_YGRID = _read_only(np.array([8.0, 16.0, 32.0, 64.0, 128.0]))


@dataclass(frozen=True)
class MFunction:
    """A matrix Herglotz function: an evaluator and its gap set.

    ``evaluator`` maps one point z to a 2x2 complex array and a 1-D array
    of N points to an (N, 2, 2) stack; calling the MFunction calls it and
    checks the values.  It must be defined on the open upper half plane and
    may extend to real points away from the declared gap endpoints (as the
    constructed functions do).  ``gapset`` carries the declared logarithmic
    singularities; the default, the gapless set, declares none.
    """

    evaluator: Callable[[complex], np.ndarray]
    gapset: GapSet = GapSet(())

    def __call__(self, z) -> np.ndarray:
        m = as_mat2(self.evaluator(z))
        if m.shape != np.shape(z) + (2, 2):
            raise ValueError(f"evaluator gave shape {m.shape} for points of shape {np.shape(z)}")
        return m


def profile_m_function(profile: KreinProfile) -> MFunction:
    """The constructed M function of a Krein profile, in closed form."""
    return MFunction(lambda z: build_M(profile, z), profile.gapset)


@dataclass(frozen=True)
class KreinSample:
    """One boundary sample of the Krein density.

    ``xi`` is real symmetric with eigenvalues in [0, 1] and trace 1;
    ``residual`` is the extrapolation residual of the limit schedule.
    """

    t: float
    xi: np.ndarray
    residual: float = 0.0


def krein_xi_values(mats: np.ndarray) -> np.ndarray:
    """Krein density xi(t) = (1/pi) Im log M(t + i0) from the (T, 2, 2)
    boundary values of M at T real points, symmetrised: a real symmetric
    (T, 2, 2) stack.

    ``build_M`` gives the constructed function's boundary values in closed
    form at every real point clear of the endpoint margins, so the
    commands read xi there with no limit; :func:`krein_xi_reduce` applies
    this map to each sample of its limit schedule.  Each point's value
    goes through ``mlog_spectral``, its branch and its eigen-apparatus.

    Raises
    ------
    SpectrumOnCut
        If an M has an eigenvalue on the cut of the logarithm.
    """
    return _krein_xi_of_logs(mlog_spectral(mats))


def _krein_xi_of_logs(logs: np.ndarray) -> np.ndarray:
    """:func:`krein_xi_values` from the ``mlog_spectral`` of the boundary
    values, which a caller may share with other reads of log M."""
    x = im_part(logs).real / np.pi
    return 0.5 * (x + np.swapaxes(x, -1, -2))


def krein_xi_points(gapset: GapSet, ts) -> tuple[np.ndarray, dict, np.ndarray]:
    """The points at which the limit schedule evaluates M for the Krein
    density at the points of ``ts``: ``ts`` as floats, the
    EndpointSingularity of each point inside a gap-endpoint margin of
    ``gapset`` (keyed by its index, see ``GapSet.endpoint_errors``), and
    the (K, T) :func:`boundary_points` of the T other points, at heights
    above them, in order.  :func:`krein_xi_reduce` takes all three.  The
    commands read the constructed M at the real points instead
    (:func:`krein_xi_values`)."""
    ts = np.array([float(t) for t in np.atleast_1d(ts)])
    errors = gapset.endpoint_errors(ts)
    return ts, errors, boundary_points(gapset, np.delete(ts, list(errors)))


def krein_xi_reduce(ts: np.ndarray, errors: dict,
                    mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Krein density xi(t) = (1/pi) lim Im log M(t + iy) at every point of
    ``ts`` by extrapolation, from :func:`krein_xi_points`' ``ts`` and
    ``errors`` and the (K, T, 2, 2) values of M at its points, with one
    matrix logarithm per sample: the map of :func:`krein_xi_values`.

    Returns the (T, 2, 2) stack of xi, real symmetric, the (T,)
    extrapolation residuals and the failed points: a map, by index in
    increasing order, holding the EndpointSingularity of each point of
    ``errors`` and a NoConvergence for each point whose last two
    extrapolants differ by more than ``XI_TOL`` (1e-6).  The rows and
    residuals of failed points are NaN.

    Raises
    ------
    SpectrumOnCut
        If a sampled M has an eigenvalue on the cut of the logarithm; this
        fails the whole call.
    """
    xi = np.full((len(ts), 2, 2), np.nan)
    residual = np.full(len(ts), np.nan)
    clear = np.ones(len(ts), dtype=bool)
    clear[list(errors)] = False
    if clear.any():
        limit, residual[clear] = boundary_reduce(mats, krein_xi_values)
        xi[clear] = limit.real
    # the points of errors have NaN residuals, so they fail here in order
    failed = {}
    for i in map(int, np.flatnonzero(~(residual <= XI_TOL))):
        failed[i] = errors[i] if i in errors else convergence_error(
            residual[i], XI_TOL, f"krein_xi at t = {float(ts[i])}")
        xi[i] = residual[i] = np.nan
    return xi, residual, failed


def krein_xi(mfun: MFunction, t: float) -> KreinSample:
    """Krein density xi(t) = (1/pi) lim Im log M(t + iy) by extrapolation.

    The one-point form of :func:`krein_xi_points` and
    :func:`krein_xi_reduce`.  The point t must stay clear of the
    gap-endpoint margins of the function's gap set.

    Raises
    ------
    EndpointSingularity
        If t lies inside a gap-endpoint margin.
    NoConvergence
        If the last two extrapolants differ by more than ``XI_TOL``.
    SpectrumOnCut
        If a sampled M has an eigenvalue on the cut of the logarithm.
    """
    ts, errors, zs = krein_xi_points(mfun.gapset, float(t))
    xi, residual, failed = krein_xi_reduce(ts, errors, mfun(zs.ravel()).reshape(zs.shape + (2, 2)))
    if failed:
        raise failed[0]
    return KreinSample(t=float(ts[0]), xi=xi[0], residual=float(residual[0]))


def asymptotic_points(gapset: GapSet) -> np.ndarray:
    """The points c + i ys at which :func:`asymptotic_W` evaluates M, up
    the vertical through the midpoint c of the gaps' hull (``GapSet.hull``).

    Moving the spectral parameter by c only rotates the potential and
    leaves W(0), and the heights stay near the hull's half width R, where
    y (iI - M(c + iy)) keeps its digits for gaps far from 0: ys is
    ``_YGRID`` = (8, 16, 32, 64, 128) times max(1, R), finite for every
    gap set that ``GapSet`` accepts.
    """
    c, r = gapset.hull
    return c + 1j * (max(1.0, r) * _YGRID)


def asymptotic_reduce(zs: np.ndarray, mats: np.ndarray,
                      routes: Sequence[str]) -> list[PotentialSample]:
    """W(0) by each of ``routes`` from the (Y, 2, 2) values of M at the
    :func:`asymptotic_points` zs, extrapolated in one contraction in
    1/Im z: "value" fits W(0) ~ (z - c) (I - M(z)/i) and "log" fits
    W(0) ~ (z - c) ((i pi/2) I - log M(z)).  The two routes agree for
    admissible functions and check each other.  Each route's limit is
    checked in turn, as if alone, so one evaluation serves both routes."""
    y, vals = zs.imag[:, None, None], []
    for route in routes:
        if route not in ("value", "log"):
            raise ValueError(f"unknown route {route!r}")
        vals.append(1j * y * I2 - y * mats if route == "value"
                    else 1j * y * (0.5j * np.pi * I2 - mlog_spectral(mats)))
    limits, residuals = extrapolate_schedule(1.0 / zs.imag, np.stack(vals, axis=1),
                                             order=min(len(zs) - 1, 6))
    out = []
    for limit, residual in zip(limits, residuals):
        err = convergence_error(residual, 1e-6 * max(1.0, float(np.max(np.abs(limit)))),
                                "large-z extrapolation")
        if err is not None:
            raise err
        tr = abs(limit[0, 0] + limit[1, 1])
        if tr > 1e-6:
            raise NotTraceless(f"extracted W(0) has trace magnitude {tr:.3e}")
        w = limit.real
        drift = max(float(np.max(np.abs(limit.imag))), abs(limit[0, 1] - limit[1, 0]))
        out.append(PotentialSample(x=0.0, p=0.5 * float(w[0, 0] - w[1, 1]),
                                   q=0.5 * float(w[0, 1] + w[1, 0]),
                                   residual=max(residual, float(drift))))
    return out


def asymptotic_W(mfun: MFunction) -> PotentialSample:
    """Extract W(0) from the large-z law by Richardson extrapolation,
    fitting W(0) ~ (z - c) (I - M(z)/i), the "value" route of
    :func:`asymptotic_reduce`, which also reads the "log" route.

    Parameters
    ----------
    mfun : MFunction
        The matrix Herglotz function; it is evaluated at the
        :func:`asymptotic_points` of its gap set, (8, 16, 32, 64, 128)
        times max(1, R) above the midpoint c of the gaps' hull, R the
        hull's half width.

    Returns
    -------
    PotentialSample
        (p, q) at x = 0 with the extrapolation residual.  The points
        stand above the hull midpoint c, so a profile's value is, bit for
        bit, the one its co-rotating frame (``dirac.co_rotating_frame``)
        gives at i ys.

    Raises
    ------
    NoConvergence
        If the extrapolation residual exceeds 1e-6 max(1, |W(0)|).
    NotTraceless
        If the extrapolated matrix has |trace| > 1e-6.
    """
    zs = asymptotic_points(mfun.gapset)
    return asymptotic_reduce(zs, mfun(zs), ("value",))[0]


def herglotz_reduce(mats: np.ndarray) -> float:
    """The smallest eigenvalue of Im M over a stack of M values and at
    infinity, where M = iI: at most 1, and 1 for an empty stack."""
    h = im_part(mats)
    # smallest eigenvalue of the hermitian 2x2 Im M, in closed form
    mean = 0.5 * (h[:, 0, 0].real + h[:, 1, 1].real)
    half_diff = 0.5 * (h[:, 0, 0].real - h[:, 1, 1].real)
    return float(np.min(mean - np.hypot(half_diff, np.abs(h[:, 0, 1])), initial=1.0))


def herglotz_defect(mfun: MFunction) -> float:
    """Worst (most negative) eigenvalue of Im M over C+, read on the gaps.

    A matrix Herglotz function has Im M(z) >= 0 throughout C+, so a
    negative return value certifies that ``mfun`` is not the M function of
    any Dirac operator.  The smallest eigenvalue of Im M is the infimum of
    the harmonic functions v* Im M v over unit vectors v, so it is
    superharmonic and takes its infimum over C+ on the boundary or at
    infinity (the minimum principle).  For the functions built here
    M -> iI at infinity and Im M(t + i0) = e^{S(t)} > 0 on the bands,
    with log M(t + i0) = S(t) + (i pi / 2) I, so the infimum sits on the
    gaps: the value is :func:`herglotz_reduce` of the boundary values at
    ``finitegap.gap_realness_points`` of ``mfun.gapset``, 7 per gap clear
    of the endpoint margins, which ``mfun`` must extend to.  A value >= 0
    says that no sampled gap point is a witness.
    """
    ts, _ = gap_realness_points(mfun.gapset)
    return herglotz_reduce(mfun(ts))
