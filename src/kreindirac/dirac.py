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
from .mat2 import I2, J, _branch_log, _cut_error, _on_cut, _slope, mexp

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
    The first z without a dichotomy raises, as does a z so large that
    lambda overflows (its real part is then not finite)."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
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


# predictor step fractions of a stacked trial, as a (2, 1) column: the
# coarse step's and the first fine step's; their correctors take twice these
_PAIR = np.array([[0.5], [0.25]], dtype=complex)


def _pin(states: np.ndarray) -> np.ndarray:
    # rescale symmetric states (a, b, d) in place back to det = -1 (rounding
    # control); a division, so an overflowed state stays non-finite.  A
    # congruence keeps det = -1, so b^2 - a d is 1 up to rounding; a node
    # where it is off by more than 1/2 has lost its determinant to
    # cancellation (entries near 1e15 after a strongly hyperbolic trial)
    # and becomes NaN, an overflowed state that the step control rejects
    a, b, d = states
    s2 = b * b - a * d
    lost = np.abs(s2 - 1.0) > 0.5
    if lost.any():
        s2[lost] = np.nan
    states /= np.sqrt(s2)
    return states


def _congruence_step(states: np.ndarray, ts: np.ndarray, p, q, h) -> np.ndarray:
    """Advance gap boundary values by M(t) <- T M(t) T^t with the
    frozen-coefficient propagator T = exp(h K(p, q, t)) per node.

    ``states`` is a (3, S, N) array of the components (a, b, d) of S stacks
    of symmetric matrices [[a, b], [b, d]] over the nodes ``ts``, a complex
    (1, N) row.  p, q and h are numbers or (S, 1) columns, one value per
    stack.  K(p, q, t) is real for real t with K^2 = (p^2 + q^2 - t^2) I,
    so T has the closed form cosh(kappa h) I + sinh(kappa h)/kappa K,
    hyperbolic or rotational depending on the sign of kappa^2; its
    coefficients are held complex, which numpy multiplies into complex
    states faster than real ones.  The product is written out on the
    components, so the result is symmetric by construction.  A step that
    overflows returns non-finite states."""
    kap = np.sqrt(p * p + q * q - ts * ts)
    th = kap * h
    if kap.all():
        sh = np.sinh(th) / kap
    else:  # sinh(kappa h)/kappa -> h as kappa -> 0
        sh = np.where(kap == 0, h, np.sinh(th) / np.where(kap == 0, 1.0, kap))
    ch = np.cosh(th)
    shq = sh * q
    t00, t01, t10, t11 = ch - shq, sh * (p - ts), sh * (p + ts), ch + shq
    a, b, d = states
    u0, u1 = t00 * a + t01 * b, t00 * b + t01 * d
    v0, v1 = t10 * a + t11 * b, t10 * b + t11 * d
    out = np.empty((3,) + u0.shape, dtype=complex)
    np.add(u0 * t00, u1 * t01, out=out[0])
    np.add(u0 * t10, u1 * t11, out=out[1])
    np.add(v0 * t10, v1 * t11, out=out[2])
    return _pin(out)


def _trace_pq(states: np.ndarray, wq: np.ndarray):
    """Trace-formula integrals of stacked march states, with no matrix log.

    ``states`` is a (3, S, N) array of the components (a, b, d) of
    symmetric matrices M = [[a, b], [b, d]].  ``wq`` is an (R, 2 N) array
    of R quadrature rules over the N nodes, divided by pi, with the weight
    of node k in column 2 k + 1 and zeros in the even columns: it
    integrates the imaginary parts of a complex row read as floats.  The
    sums run in einsum's own loop, which, unlike a matmul, touches no BLAS
    work buffer, so a march adds nothing to the peak memory.  With M = h I + N,
    N = [[u, b], [b, -u]] and r = sqrt(u^2 + b^2), the eigenvalues are
    h +/- r and log M = log(h - r) I + sigma (M - (h - r) I), sigma the
    divided difference of the branch logarithm (1/h on confluent
    matrices), as in :func:`mat2.mlog_spectral`.  Only the traceless part
    sigma N of log M enters W, so

        p = (1/pi) int Im(sigma u),   q = (1/pi) int Im(sigma b).

    Returns the (2, S, R) array of (p, q) per stack and rule, NaN on a
    stack with a non-finite entry, and per stack either None or the
    SpectrumOnCut error that ``mlog_spectral`` raises on its matrices.
    """
    a, b, d = states
    h = 0.5 * (a + d)
    u = 0.5 * (a - d)
    r = np.sqrt(u * u + b * b)
    lam = np.empty((2,) + h.shape, dtype=complex)
    np.add(h, r, out=lam[0])
    np.subtract(h, r, out=lam[1])
    mod = np.abs(lam)
    sigma, _ = _slope(lam, mod, h, b, b, _branch_log(lam), np.reciprocal)
    pq = np.empty((2,) + h.shape, dtype=complex)
    np.multiply(sigma, u, out=pq[0])
    np.multiply(sigma, b, out=pq[1])
    pq = np.einsum("ijk,rk->ijr", pq.view(float), wq)
    finite = np.isfinite(states).all(axis=(0, 2))
    bad = _on_cut(lam, mod)
    hit = bad.any(axis=(0, 2)) & finite
    errors = [_cut_error(lam[:, k], bad[:, k]) if cut else None for k, cut in enumerate(hit)]
    if not finite.all():
        pq[:, ~finite] = np.nan
    return pq, errors


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
    sweep to the boundary matrices.  Each march state costs one
    evaluation of the trace density over all quadrature nodes, which reads
    the traceless part of log M off the eigenvalues of M without forming
    the logarithm (see _trace_pq); the coarse step and the first fine
    step of a trial run as one stacked pass.  A node t evolves at rate at most
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
    # the two rules as the rows of one weight array, over pi, on the
    # imaginary parts of complex node values read as floats
    wq = np.zeros((2, 2 * len(ts)))
    wq[0, 1:2 * nf:2] = ws_f / np.pi
    wq[1, 2 * nf + 1::2] = ws_c / np.pi
    m0 = build_M(frame, ts)
    # one stack of states (a, b, d), symmetrised and pinned to det = -1
    mats = _pin(np.stack((m0[:, 0, 0], 0.5 * (m0[:, 0, 1] + m0[:, 1, 0]), m0[:, 1, 1]))[:, None])
    ts = ts.astype(complex)[None]

    def w_of(states):
        # (p, q, quadrature residual) of each stacked state by the trace
        # formula, the 20-node rule against the 14-node one, and its branch
        # cut error or None.  A trial state that overflowed has no
        # potential: NaN, which the step control rejects
        pq, errors = _trace_pq(states, wq)
        res = np.hypot(pq[0, :, 0] - pq[0, :, 1], pq[1, :, 0] - pq[1, :, 1])
        return [((p, q, r), err) for p, q, r, err in
                zip(pq[0, :, 0].tolist(), pq[1, :, 0].tolist(), res.tolist(), errors)]

    def w_one(states):
        # w_of of one stack, raising its branch cut error
        w, err = w_of(states)[0]
        if err is not None:
            raise err
        return w

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

    # (p, q, quadrature residual) of the current state, carried from each
    # accepted step into the next predictor and the grid-point sample
    state = w_one(mats)
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
                    # frozen-coefficient midpoint predictor-corrector: a
                    # coarse step of h against two fine steps of h/2.  The
                    # coarse step and the first fine step start from the
                    # same state, so their predictors (h/2 and h/4) and
                    # correctors (h and h/2) run as one pass over two stacks
                    pair = np.concatenate((mats, mats), axis=1)
                    (w_c, err_c), (w_f, err_f) = w_of(
                        _congruence_step(pair, ts, p0, q0, _PAIR * h))
                    if err_c is not None:
                        raise err_c
                    pm, qm = np.array([w_c[:2], w_f[:2]], dtype=complex).T[:, :, None]
                    both = _congruence_step(pair, ts, pm, qm, _PAIR * (2.0 * h))
                    (coarse_w, err_a), (mid_w, err_m) = w_of(both)
                    if err_a is not None:
                        raise err_a
                    pa, qa, _ = coarse_w
                    # a trial whose states overflow is a rejected step; the
                    # fine steps' failures count only after a coarse step
                    # that stays finite and off the cut
                    err = math.inf
                    if math.isfinite(pa):
                        for e in (err_f, err_m):
                            if e is not None:
                                raise e
                        mid = both[:, 1:]
                        pm, qm, _ = mid_w
                        half = _congruence_step(mid, ts, pm, qm, 0.25 * h)
                        pm, qm, _ = w_one(half)
                        fine = _congruence_step(mid, ts, pm, qm, 0.5 * h)
                        pb, qb, _ = w_one(fine)
                        if math.isfinite(pb):
                            err = math.hypot(pa - pb, qa - qb)
                    if err <= loc_tol:
                        # the midpoint scheme is second order, so the coarse/fine
                        # pair admits one Richardson sweep on the states
                        mats = _pin((4.0 * fine - both[:, :1]) / 3.0)
                        x += h
                        if err:
                            h *= min(3.0, max(1.0, 0.9 * (loc_tol / err) ** (1 / 3)))
                        else:
                            h *= 3.0
                        # interior acceptances also face the bound check
                        state = w_one(mats)
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
