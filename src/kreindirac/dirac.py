"""Dirac systems J y' + W y = -z y with trace-zero symmetric potentials.

The potential W(x) = [[p(x), q(x)], [q(x), -p(x)]] enters through the
first-order system y' = K(x, z) y with

    K = J (W + z) = [[-q, p - z], [p + z, q]],   tr K = 0,

so transfer matrices have determinant one.  Half-line Weyl functions are
solution ratios m_plus(z) = y1/y2 of the solution decaying at +infinity
(m_minus = -y1/y2 for the one decaying at -infinity); they satisfy the
Riccati equation

    m' = (p - z) - 2 q m - (p + z) m^2.

The module provides step potentials with exact piecewise transfer matrices,
closed-form Weyl functions for constant coefficients (the fixed points of
this equation), and the orbit sampler that marches the gap boundary values
of the Herglotz matrix by congruence, M_x(t) = T M_0(t) T^t, and reads W(x)
off the trace formula over the shifted Krein density.  The sampler works in
the co-rotating frame: moving the spectral parameter by c only rotates the
potential, (p + iq)(x) -> e^{-2icx} (p + iq)(x), so it marches the profile
with gaps moved by the midpoint c of their hull and turns each sample back.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, DegenerateDichotomy, NoConvergence
from .finitegap import (GapSet, KreinProfile, PotentialSample, sharp_bound,
                        WeylPair, assemble_M, build_M, sphere_ratio)
from .herglotz import MFunction, asymptotic_W, profile_m_function
from .mat2 import I2, J, mexp, mlog_spectral

__all__ = [
    "StepPotential",
    "coefficient_matrix",
    "transfer",
    "const_weyl",
    "ode_weyl",
    "ode_m_function",
    "sample_potential",
]

@dataclass(frozen=True)
class StepPotential:
    """Piecewise-constant potential: tails outside the breakpoints, one
    constant (p, q) per bounded interval between consecutive breakpoints."""

    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[float, float], ...]
    tails: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        if not bp:
            raise ValueError("need at least one breakpoint")
        if any(not b1 < b2 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        pieces = tuple((float(p), float(q)) for p, q in self.pieces)
        if len(pieces) != len(bp) - 1:
            raise ValueError(f"expected {len(bp) - 1} pieces, got {len(pieces)}")
        tails = tuple((float(p), float(q)) for p, q in self.tails)
        if len(tails) != 2:
            raise ValueError("need exactly two tails")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "tails", tails)

    @classmethod
    def constant(cls, p: float, q: float) -> "StepPotential":
        return cls((0.0,), (), (((p, q)), (p, q)))

    def value_at(self, x: float) -> tuple[float, float]:
        i = bisect.bisect_right(self.breakpoints, x)
        if i == 0:
            return self.tails[0]
        if i == len(self.breakpoints):
            return self.tails[1]
        return self.pieces[i - 1]


def coefficient_matrix(p: float, q: float, z) -> np.ndarray:
    """K = J (W + z) = J W + z J = [[-q, p - z], [p + z, q]] (trace zero),
    for one z or as an (N, 2, 2) stack for an array of N points."""
    return np.array([[-q, p], [p, q]], dtype=complex) + np.multiply.outer(z, J)


def transfer(w: StepPotential, x0: float, x1: float, z) -> np.ndarray:
    """Propagator T with y(x1) = T y(x0); det T = 1.

    The product of per-segment matrix exponentials exp(l K) over the
    constant pieces covering [x0, x1].  For the free piece (p = q = 0) a
    segment contributes the rotation [[cos zl, -sin zl], [sin zl, cos zl]].
    One z gives a (2, 2) matrix, an array of N points an (N, 2, 2) stack.
    """
    if not x0 <= x1:
        raise ValueError("need x0 <= x1")
    cuts = [x0] + [b for b in w.breakpoints if x0 < b < x1] + [x1]
    # at least one segment, so the product takes the shape of exp(l K)
    T = I2
    for u, v in zip(cuts, cuts[1:]):
        p, q = w.value_at(0.5 * (u + v))
        T = mexp((v - u) * coefficient_matrix(p, q, z)) @ T
    return T


def _dichotomy(p: float, q: float, z) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_plus, lambda_minus) with Re lambda_plus > 0 > Re lambda_minus
    for the constant-coefficient system, at each z; lambda^2 = p^2 + q^2 - z^2.
    The first z without a dichotomy raises."""
    z = np.asarray(z, dtype=complex)
    lam = np.sqrt(p * p + q * q - z * z)
    flat = np.abs(lam.real) <= 1e-12 * np.maximum(1.0, np.abs(lam))
    if flat.any():
        k = np.argmax(flat)  # the first z without one
        raise DegenerateDichotomy(f"Re lambda = {lam.flat[k].real:.3e} at z = {z.flat[k]}")
    lam = np.where(lam.real < 0, -lam, lam)
    return lam, -lam


def const_weyl(p: float, q: float, z) -> WeylPair:
    """Weyl pair of the constant potential [[p, q], [q, -p]] at Im z > 0.

        m_plus = (p - z)/(lambda_minus + q),
        m_minus = -(p - z)/(lambda_plus + q),

    from the decaying eigenvectors (p - z, q + lambda) of K.  One z gives a
    pair of complex numbers, an array of N points a pair of (N,) arrays.
    """
    z = np.asarray(z, dtype=complex)
    if not (z.imag > 0).all():
        raise ValueError("const_weyl needs Im z > 0")
    lam_p, lam_m = _dichotomy(p, q, z)
    return WeylPair(m_plus=sphere_ratio(p - z, q + lam_m),
                    m_minus=sphere_ratio(z - p, q + lam_p))


def ode_weyl(w: StepPotential, z) -> WeylPair:
    """Weyl pair of a step potential by seeding decaying tail eigenvectors
    at the outer breakpoints and transporting them to 0 with transfer
    matrices.  One z gives a pair of complex numbers, an array of N points
    a pair of (N,) arrays."""
    z = np.asarray(z, dtype=complex)
    if not (z.imag > 0).all():
        raise ValueError("ode_weyl needs Im z > 0")
    b_first, b_last = w.breakpoints[0], w.breakpoints[-1]

    pt, qt = w.tails[1]
    _, lam_m = _dichotomy(pt, qt, z)
    v0, v1 = pt - z, qt + lam_m
    if b_last > 0:
        T = transfer(w, 0.0, b_last, z)
        # inverse of a det-1 matrix
        v0, v1 = (T[..., 1, 1] * v0 - T[..., 0, 1] * v1,
                  -T[..., 1, 0] * v0 + T[..., 0, 0] * v1)
    m_plus = sphere_ratio(v0, v1)

    pt, qt = w.tails[0]
    lam_p, _ = _dichotomy(pt, qt, z)
    v0, v1 = pt - z, qt + lam_p
    if b_first < 0:
        T = transfer(w, b_first, 0.0, z)
        v0, v1 = (T[..., 0, 0] * v0 + T[..., 0, 1] * v1,
                  T[..., 1, 0] * v0 + T[..., 1, 1] * v1)
    return WeylPair(m_plus=m_plus, m_minus=sphere_ratio(-v0, v1))


def ode_m_function(w: StepPotential) -> MFunction:
    """The matrix Herglotz function assembled from a step potential's Weyl
    pair (an independent oracle for the explicit construction)."""
    return MFunction(lambda z: assemble_M(ode_weyl(w, z)))


def _gap_nodes(gapset, n: int):
    """Gauss-Legendre nodes and weights on each gap, concatenated."""
    u, w = np.polynomial.legendre.leggauss(n)
    ts, ws = [], []
    for a, b in gapset.gaps:
        ts.append(0.5 * (a + b) + 0.5 * (b - a) * u)
        ws.append(0.5 * (b - a) * w)
    return np.concatenate(ts), np.concatenate(ws)


_HALF_I = 0.5 * np.eye(2)


def _xi_defect(mats: np.ndarray) -> np.ndarray:
    """Batched Im log(M)/pi - I/2 for symmetric det = -1 matrices.

    The logarithm of a symmetric matrix is symmetric, so its matrix
    imaginary part is the entrywise one.
    """
    return mlog_spectral(mats).imag / np.pi - _HALF_I


def _pin(mats: np.ndarray) -> np.ndarray:
    # project back onto the symmetric det = -1 slice (rounding control)
    mats = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
    dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    return mats / np.sqrt(-dets)[:, None, None]


def _congruence_step(mats: np.ndarray, ts: np.ndarray, p: float, q: float,
                     h: float) -> np.ndarray:
    """Advance gap boundary values by M(t) <- T M(t) T^t with the
    frozen-coefficient propagator T = exp(h K(p, q, t)) per node.

    K(p, q, t) is real for real t with K^2 = (p^2 + q^2 - t^2) I, so T has
    the closed form cosh(kappa h) I + sinh(kappa h)/kappa K, hyperbolic or
    rotational depending on the sign of kappa^2.  A step that overflows
    returns non-finite states."""
    kap = np.sqrt((p * p + q * q - ts * ts).astype(complex))
    th = kap * h
    ch = np.cosh(th).real
    small = np.abs(th) < 1e-8
    safe = np.where(small, 1.0, kap)
    sh = np.where(small, h * (1.0 + th * th / 6.0), np.sinh(th) / safe).real
    T = np.empty((len(ts), 2, 2))
    T[:, 0, 0] = ch - sh * q
    T[:, 0, 1] = sh * (p - ts)
    T[:, 1, 0] = sh * (p + ts)
    T[:, 1, 1] = ch + sh * q
    return _pin(np.einsum("nij,njk,nlk->nil", T, mats, T))


def sample_potential(profile: KreinProfile, xgrid, ygrid=None,
                     loc_tol: float = 1e-8, bound_slack: float = 1e-4) -> list[PotentialSample]:
    """Sample the potential W(x) along the shift orbit of a Krein profile.

    The shifted operator is reflectionless on the same bands, so its
    Herglotz matrix has gap boundary values M_x(t) = T(0->x, t) M_0(t)
    T(0->x, t)^t with the (real, unimodular) transfer matrices of the
    potential itself, and W(x) follows from the trace formula at the
    shifted origin, W(x) = integral over the gaps of (xi_x(t) - I/2) dt.
    The march freezes (p, q) per substep with a midpoint corrector,
    controls the local error by step doubling, and applies one Richardson
    sweep to the boundary matrices; each march state costs one matrix
    logarithm over all quadrature nodes.  A node t evolves at rate at most
    max(||W||, |t|), unlike the Weyl trajectories m_pm(x, iY), which repel
    perturbations at rate 2Y and cannot carry a forward march.

    The march runs in the co-rotating frame.  Moving every gap by -c turns
    the potential, (p + iq)(x) -> e^{-2icx} (p + iq)(x), with the norm
    unchanged; so the profile with gaps moved by the hull midpoint
    c = (a_1 + b_n)/2, the shift with the smallest largest |t|, is marched,
    and each sample is turned back by e^{2icx} before the bound check.  For
    c = 0 the frame is the identity.  The large-z Weyl asymptotics of the
    original profile cross-check the x = 0 sample.

    Parameters
    ----------
    profile : KreinProfile
    xgrid : array_like
        Increasing sample positions starting at 0.
    ygrid : array_like, optional
        Heights for the x = 0 Weyl-law cross-check; defaults to
        (8, ..., 128) times the spectral scale.
    loc_tol : float
        Local error target per march substep.
    bound_slack : float
        Slack over the sharp bound before BoundViolation is raised.

    Returns
    -------
    list of PotentialSample
        One sample per grid point, residuals included.

    Raises
    ------
    BoundViolation
        If any sampled ||W(x)|| exceeds sharp_bound + bound_slack.  For a
        profile whose constructed M function is a genuine matrix Herglotz
        function (every aligned profile is, by the explicit realization),
        the sharp bound holds along the whole orbit and this is never
        raised.  Profiles with mismatched gap projections yield formal M
        functions that need not be Herglotz; their orbits can cross the
        bound, and the exception then certifies non-realizability (check
        herglotz_defect for an independent witness).  Never ignored.
    NoConvergence
        If the step size underflows before reaching the next grid point, or
        the x = 0 Weyl-law cross-check does not converge (no samples then).

    Both exceptions carry the grid samples accepted before the failure in
    their ``samples`` attribute.
    """
    xg = np.asarray(xgrid, dtype=float)
    if xg.ndim != 1 or len(xg) == 0 or xg[0] != 0.0 or np.any(np.diff(xg) <= 0):
        raise ValueError("xgrid must be increasing and start at 0")
    gs = profile.gapset
    if gs.n == 0:
        return [PotentialSample(x=float(x), p=0.0, q=0.0, residual=0.0)
                for x in xg]

    bound = sharp_bound(gs)
    # co-rotating frame; the hull midpoint gives the smallest largest |t|
    c = 0.5 * (gs.gaps[0][0] + gs.gaps[-1][1])
    frame = KreinProfile(GapSet(tuple((a - c, b - c) for a, b in gs.gaps)),
                         profile.angles)
    # the trace formula takes a 20-node Gauss-Legendre rule per gap; a coarse
    # 14-node companion rides along to expose the quadrature error
    ts_f, ws_f = _gap_nodes(frame.gapset, 20)
    ts_c, ws_c = _gap_nodes(frame.gapset, 14)
    nf = len(ts_f)
    ts = np.concatenate([ts_f, ts_c])
    mats = _pin(build_M(frame, ts))

    def w_of(mats):
        # (p, q) by the trace formula, integrating xi_x(t) - I/2 over the
        # gaps; one matrix log of the joined stack serves both node sets.
        # A trial state that overflowed has no potential: NaN, which the
        # step control rejects
        if not np.isfinite(mats).all():
            return math.nan, math.nan, math.nan
        xi = _xi_defect(mats)
        f = np.einsum("n,nij->ij", ws_f, xi[:nf])
        g = np.einsum("n,nij->ij", ws_c, xi[nf:])
        pf, qf = 0.5 * (f[0, 0] - f[1, 1]), 0.5 * (f[0, 1] + f[1, 0])
        pc, qc = 0.5 * (g[0, 0] - g[1, 1]), 0.5 * (g[0, 1] + g[1, 0])
        return pf, qf, math.hypot(pf - pc, qf - qc)

    def record(x, p, q, residual):
        if c:  # at c = 0 the frame is the identity, signed zeros included
            cos, sin = math.cos(2.0 * c * x), math.sin(2.0 * c * x)
            p, q = p * cos - q * sin, p * sin + q * cos
        sample = PotentialSample(x=float(x), p=p, q=q, residual=residual)
        if sample.norm > bound + bound_slack:
            raise BoundViolation(
                f"||W({x:.6g})|| = {sample.norm:.8f} exceeds the sharp bound "
                f"{bound:.8f} + {bound_slack:g}")
        return sample

    def pc_step(mats, p0, q0, span):
        # frozen-coefficient midpoint predictor-corrector
        half = _congruence_step(mats, ts, p0, q0, 0.5 * span)
        pm, qm, _ = w_of(half)
        return _congruence_step(mats, ts, pm, qm, span)

    # (p, q, quadrature residual) of the current state, carried from each
    # accepted step into the next predictor and the grid-point sample
    state = w_of(mats)
    p0, q0, quad_res = state
    samples: list[PotentialSample] = []
    try:
        # independent seed check: the large-z Weyl law of the original
        # profile against the trace formula (the frame turns nothing at x = 0)
        seed = asymptotic_W(profile_m_function(profile), ygrid)
        seed_res = seed.residual + math.hypot(seed.p - p0, seed.q - q0)
        samples.append(record(xg[0], p0, q0, quad_res + seed_res))
        # an overflowing trial step yields non-finite states, which the
        # step control rejects; numpy need not warn about them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for x_next in xg[1:]:
                x = samples[-1].x
                h = x_next - x
                while x < x_next - 1e-13 * max(1.0, abs(x_next)):
                    h = min(h, x_next - x)
                    p0, q0, _ = state
                    coarse = pc_step(mats, p0, q0, h)
                    pa, qa, _ = w_of(coarse)
                    # a trial whose states overflow is a rejected step
                    err = math.inf
                    if math.isfinite(pa):
                        mid = pc_step(mats, p0, q0, 0.5 * h)
                        pm, qm, _ = w_of(mid)
                        fine = pc_step(mid, pm, qm, 0.5 * h)
                        pb, qb, _ = w_of(fine)
                        if math.isfinite(pb):
                            err = math.hypot(pa - pb, qa - qb)
                    if err <= loc_tol:
                        # the midpoint scheme is second order, so the coarse/fine
                        # pair admits one Richardson sweep on the states
                        mats = _pin((4.0 * fine - coarse) / 3.0)
                        x += h
                        if err:
                            h *= min(3.0, max(1.0, 0.9 * (loc_tol / err) ** (1 / 3)))
                        else:
                            h *= 3.0
                        # interior acceptances also face the bound check
                        state = w_of(mats)
                        record(x, *state)
                    else:
                        h *= max(0.25, 0.9 * (loc_tol / err) ** (1 / 3))
                        if h < 1e-10 * max(x_next, 1.0):
                            raise NoConvergence(f"x-march stalled near x = {x}")
                samples.append(record(x_next, *state))
    except (BoundViolation, NoConvergence) as exc:
        # grid points accepted before the failure ride along so callers
        # can report the last good x next to the certificate
        exc.samples = samples
        raise
    return samples
