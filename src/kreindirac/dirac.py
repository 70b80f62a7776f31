"""Dirac systems J y' + W y = -z y with trace-zero symmetric potentials.

The potential W(x) = [[p(x), q(x)], [q(x), -p(x)]] enters through the
first-order system y' = K(x, z) y with

    K = J (W + z) = [[-q, p - z], [p + z, q]],   tr K = 0,

so transfer matrices have determinant one.  Half-line Weyl functions are
solution ratios m_plus(z) = y1/y2 of the solution decaying at +infinity
(m_minus = -y1/y2 for the one decaying at -infinity); they satisfy the
Riccati equation

    m' = (p - z) - 2 q m - (p + z) m^2.

The module provides the Weyl functions of a constant potential, in closed
form (the fixed points of this equation) and by transport with its
transfer matrix exp(l K), and the orbit sampler, which has two routes:

* a commuting profile (every angle alpha or alpha + pi/2) solves for
  its Dirichlet divisor, the zeros mu_j(x) of M_11(x, .), one per gap, at
  each grid point by inverting the Abel map, which is linear in x along
  the orbit, from a closed-form start on the isospectral torus, and reads
  W(x) off the trace formula p = sum_j mu_j - (1/2) sum_k (a_k + b_k);
* a non-commuting profile has complex gap values and no realizing
  operator; it marches the gap boundary values of its formal M function
  by congruence, M_x(t) = T M_0(t) T^t, with the embedded Dormand-Prince
  8(5) pair of DOP853, and reads W(x) off the trace formula over the
  shifted Krein density, until its orbit crosses the sharp bound; a
  perturbed companion state measures how the march amplifies its local
  errors.

Both work in the co-rotating frame: moving the spectral parameter by c
only rotates the potential, (p + iq)(x) -> e^{-2icx} (p + iq)(x), so the
sampler marches the profile with gaps moved by the midpoint c of their
hull (``GapSet.hull``) and turns each sample back.  The rotation leaves
||W|| and the sharp bound alone, which is also why the large-z law of
``herglotz``, which stands above the same hull, and its Herglotz
certificate, which reads the gaps themselves, need no frame.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BoundViolation, DegenerateDichotomy, NoConvergence
from .finitegap import (GapSet, KreinProfile, PotentialSample, sharp_bound, WeylPair,
                        _trace_formula, build_M, gap_realness, sphere_ratio)
from .herglotz import asymptotic_W, profile_m_function
from .mat2 import J, _Workspace, _stage, mexp
from .numerics import _read_only

__all__ = [
    "coefficient_matrix",
    "const_weyl",
    "ode_weyl",
    "co_rotating_frame",
    "sample_potential",
]


def coefficient_matrix(p: float, q: float, z) -> np.ndarray:
    """K = J (W + z) = J W + z J = [[-q, p - z], [p + z, q]] (trace zero),
    for one z or as an (N, 2, 2) stack for an array of N points."""
    return np.array([[-q, p], [p, q]], dtype=complex) + np.multiply.outer(z, J)


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


def ode_weyl(p: float, q: float, ell: float, z) -> WeylPair:
    """Weyl pair of the constant potential [[p, q], [q, -p]] by transport:
    the decaying tail eigenvectors are seeded at x = ell and x = -ell and
    carried to 0 by the one transfer matrix T = exp(ell K), det T = 1, of
    a piece of length ell.  An independent route to :func:`const_weyl`; T
    is well conditioned while ell |K| is of order 1.  One z gives a pair
    of complex numbers, an array of N points a pair of (N,) arrays."""
    z = np.asarray(z, dtype=complex)
    if not (z.imag > 0).all():
        raise ValueError("ode_weyl needs Im z > 0")
    lam_p, lam_m = _dichotomy(p, q, z)
    T = mexp(ell * coefficient_matrix(p, q, z))
    # y(ell) = T y(0): back to 0 by the inverse of the det-1 T
    v0, v1 = p - z, q + lam_m
    m_plus = sphere_ratio(T[..., 1, 1] * v0 - T[..., 0, 1] * v1,
                          -T[..., 1, 0] * v0 + T[..., 0, 0] * v1)
    # y(0) = T y(-ell)
    v0, v1 = p - z, q + lam_p
    return WeylPair(m_plus=m_plus,
                    m_minus=sphere_ratio(-(T[..., 0, 0] * v0 + T[..., 0, 1] * v1),
                                         T[..., 1, 0] * v0 + T[..., 1, 1] * v1))


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], computed on first use:
    numpy.polynomial is not loaded until a congruence march needs it."""
    return tuple(map(_read_only, np.polynomial.legendre.leggauss(n)))


def _gap_nodes(gapset, n: int):
    """Gauss-Legendre nodes and weights on each gap, concatenated."""
    u, w = _legendre(n)
    ts, ws = [], []
    for a, b in gapset.gaps:
        ts.append(0.5 * (a + b) + 0.5 * (b - a) * u)
        ws.append(0.5 * (b - a) * w)
    return np.concatenate(ts), np.concatenate(ws)


def _pin(states: np.ndarray) -> np.ndarray:
    # rescale symmetric states (a, b, d) in place back to det = -1 (rounding
    # control); a division, so an overflowed state stays non-finite.  A
    # congruence keeps det = -1, so b^2 - a d is 1 up to rounding; a node
    # where it is off by more than 1/2 has lost its determinant to
    # cancellation (entries near 1e15 after a strongly hyperbolic step)
    # and becomes NaN, an overflowed state that the step control rejects
    a, b, d = states
    s2 = b * b - a * d
    lost = np.abs(s2 - 1.0) > 0.5
    if np.count_nonzero(lost):
        s2[lost] = np.nan
    states /= np.sqrt(s2)
    return states


# Dormand and Prince's 8(5, 3) pair, DOP853 (Hairer, Norsett & Wanner,
# Solving Ordinary Differential Equations I, 2nd ed., II.10), its
# coefficients rounded to doubles.  The stage rows: row i weights the i
# stages before stage i + 1, and the last one holds the eighth-order
# weights, so its stage is the rate at the new point, which is the next
# step's first stage.  Then the weights of the embedded error estimate,
# the eighth-order step minus the fifth-order one (DOP853's E5 row); its
# third-order estimate E3 is not used.
_DP_A = tuple(np.array(row) for row in (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
))
_DP_E5 = np.array((0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                   -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                   0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0))


def _congruence_orbit(frame: KreinProfile, xg: np.ndarray, loc_tol: float):
    """March the gap boundary values of the non-commuting profile ``frame``
    by congruence.

    Such a profile has complex gap values and no real divisor, and its
    formal M function need not be Herglotz.  The march's job is the
    certificate: an orbit that crosses the sharp bound shows that no
    reflectionless operator realizes the profile.  The boundary values
    move as M_x(t) = T M_0(t) T^t, T the transfer matrix of the potential
    itself, so

        M' = K M + M K^t,   K = K(p(x), q(x), t),

    with (p, q) the trace formula of the current state: per stage, one call
    of the stage kernel (``mat2._stage``) evaluates the trace density over
    all quadrature nodes and writes the rates into the stage's slot, on
    buffers allocated once per march.  With the stage sum that makes 44
    numpy calls, none of which allocates its result.
    A node t evolves at rate at most max(||W||, |t|), unlike the Weyl
    trajectories m_pm(x, iY), which repel perturbations at rate 2Y and
    cannot carry a forward march.

    The march steps on the eighth-order state of the Dormand-Prince 8(5)
    pair of DOP853.  A step costs 12 rates: 11 stages and the rate at its
    new point, which is the next step's first stage.  It is accepted where
    the (p, q) distance between its eighth- and fifth-order states is at
    most ``loc_tol`` per unit of phase, loc_tol R h with R the frame's
    largest |t| (``sample_potential`` passes ``LOC_TOL``); the step
    changes by 0.9 (target/err)^(1/6), held to [0.2, 10], and carries over
    from one grid interval to the next.  A step with a non-finite stage,
    or whose new state loses its determinant (see _pin), is rejected.

    The step floor is 1e-10 max(|x|, 1): a march whose step falls below it
    before meeting the tolerance stalls with NoConvergence.  It scales with
    the position and not with the end of the grid interval, so a first
    step of a long interval shrinks through rejections down to the step
    the profile needs.

    Hyperbolic nodes (|t| < ||W||) amplify the local errors, so the
    accumulated estimate E is propagated, E <- g E + err, with the growth g
    over each step read off a companion: a copy of the state perturbed by
    about 1e-7, g the ratio of its (p, q) distances from the state after
    and before the step.  It rides as a second stack through every call
    and changes no reported value.  Its offset from the state is rescaled
    when that distance leaves [1e-3, 1e3] times the one at x = 0, and a
    lost companion makes E infinite.  Its local errors measure the
    fifth-order state, not the eighth-order one that is reported, so E
    bounds the error loosely.

    A generator: it yields (x, p, q, residual, on_grid) for x = 0, for
    every accepted step and for every grid point of ``xg`` past 0, with
    ``residual`` the quadrature residual of the trace formula plus E.
    """
    # the trace formula takes a 20-node Gauss-Legendre rule per gap; a coarse
    # 14-node rule rides along to expose the quadrature error
    ts_f, ws_f = _gap_nodes(frame.gapset, 20)
    ts_c, ws_c = _gap_nodes(frame.gapset, 14)
    ts = np.concatenate([ts_f, ts_c])
    # the two rules over pi, on the imaginary parts of complex node values
    # read as floats
    wq = np.zeros((2, 2 * len(ts)))
    wq[0, 1:2 * len(ts_f):2] = ws_f / np.pi
    wq[1, 2 * len(ts_f) + 1::2] = ws_c / np.pi
    m0 = build_M(frame, ts)
    # two stacks of (a, b, d), symmetrised and pinned to det = -1: the state
    # and its companion, each node's matrix turned by its own angle of about
    # 1e-7 (R M R^t to first order), a perturbation of no particular direction
    a, b, d = main = np.stack((m0[:, 0, 0], 0.5 * (m0[:, 0, 1] + m0[:, 1, 0]), m0[:, 1, 1]))
    th = 1e-7 * np.cos(np.arange(len(ts)))
    comp = main + th * np.stack((-2.0 * b, a - d, 2.0 * b))
    gaps = frame.gapset.gaps
    tol = loc_tol * max(-gaps[0][0], gaps[-1][1])
    # the kernel's buffers for the two stacks and for the fifth-order state
    ws, ws5 = _Workspace(ts, wq, 2), _Workspace(ts, wq, 1)
    # the march runs on the float view (3, 2, 2 N) of the complex states:
    # numpy forms the same stage combinations twice as fast on floats.  The
    # accepted state y and the stage state trade buffers on acceptance
    yc = _pin(np.stack((main, comp), axis=1))
    y, stage, acc = yc.view(float), np.empty_like(yc).view(float), np.empty_like(yc).view(float)
    sc, dyc, y5 = stage.view(complex), acc.view(complex), np.empty_like(yc[:, :1])
    # the stages of a step, which the kernel writes in place; the last one,
    # the rate at the new point, is the next step's first
    ks = np.empty((len(_DP_E5),) + y.shape)
    kc = ks.view(complex)

    def rate(states, i):
        # the rates of both stacks into stage slot i, and their (2, 2, 2)
        # trace integrals; a branch cut hit by the companion alone is not
        # an error
        pq, errors = _stage(ws, states, kc[i])
        if errors[0] is not None:
            raise errors[0]
        return pq

    pq = rate(yc, 0)
    (p, pc), (q, qc) = pq[:, :, 0].tolist()
    start = dist = math.hypot(pc - p, qc - q)
    if 0.0 < start < math.inf:
        march, last = 0.0, (p, q, math.hypot(p - pq[0, 0, 1], q - pq[1, 0, 1]))
    else:
        # a lost companion leaves the growth unknown
        march, last = math.inf, (p, q, math.inf)
    yield (0.0, *last, True)
    h = float(xg[1]) if len(xg) > 1 else 0.0
    for x, x_next in zip(xg[:-1].tolist(), xg[1:].tolist()):
        while x < x_next - 1e-13 * max(1.0, abs(x_next)):
            step = min(h, x_next - x)
            for i, row in enumerate(_DP_A, 1):
                np.einsum("i,i...->...", row, ks[:i], out=acc)
                acc *= step
                np.add(y, acc, out=stage)
                pq = rate(sc, i)
            np.einsum("i,i...->...", _DP_E5, ks, out=acc)
            acc *= step
            # a lost determinant pins the state to NaN, which rejects the step
            _pin(sc)
            pq5, _ = _stage(ws5, np.subtract(sc[:, :1], dyc[:, :1], out=y5))
            err = math.hypot(pq[0, 0, 0] - pq5[0, 0, 0], pq[1, 0, 0] - pq5[1, 0, 0])
            if not math.isfinite(err):
                err = math.inf
            target = tol * step
            factor = min(10.0, max(0.2, 0.9 * (target / err) ** (1 / 6))) if err else 10.0
            if err > target:
                h = step * factor
                if h < 1e-10 * max(abs(x), 1.0):
                    # a profile whose M is not real on its gaps has no
                    # realizing operator, and its formal orbit may stall
                    raise NoConvergence(
                        f"x-march stalled near x = {x}; gap_realness is "
                        f"{gap_realness(frame):.3g} (0 when an operator realizes "
                        f"the profile)")
                continue
            x += step
            y, stage, yc, sc = stage, y, sc, yc
            ks[0] = ks[-1]
            # a step cut short at a grid point keeps the longer step
            h = max(h, step * factor) if step < h else step * factor
            (p, pc), (q, qc) = pq[:, :, 0].tolist()
            d = math.hypot(pc - p, qc - q)
            if not 0.0 < d < math.inf or math.isinf(march):
                march = math.inf
                last = p, q, march
            else:
                march = march * (d / dist) + err
                if not 1e-3 * start <= d <= 1e3 * start:
                    # rescale the companion's offset, and its rate's to
                    # first order
                    s = start / d
                    for arr in (y, ks[0]):
                        arr[:, 1] = arr[:, 0] + s * (arr[:, 1] - arr[:, 0])
                    d = start
                dist = d
                last = p, q, math.hypot(p - pq[0, 0, 1], q - pq[1, 0, 1]) + march
            yield (x, *last, False)
        yield (x_next, *last, True)


# Degree of the Chebyshev interpolant of the Abel integrands on a panel
_CHEB_N = 24

# Floats of Chebyshev coefficients one Abel-map call of _abel_solve may
# gather: a block of grid points solves together within it
_BLOCK = 1 << 15


@functools.lru_cache(maxsize=None)
def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Chebyshev-Lobatto nodes cos(pi i / n) on [-1, 1], and the
    (n + 3, 2, n + 1) map from values at them to the Chebyshev coefficients
    [k, 0] of the antiderivative from -1 and [k, 1] of the interpolant
    itself; the rows past their degrees are 0."""
    i = np.arange(n + 1)
    weights = np.cos(np.pi * np.outer(i, i) / n) * (2.0 / n)
    weights[:, [0, -1]] *= 0.5
    weights[[0, -1]] *= 0.5
    # the antiderivative of sum a_k T_k has b_k = (a_{k-1} - a_{k+1}) / 2k,
    # with a_0 counted twice, and b_0 puts its zero at -1
    integ = np.zeros((n + 2, n + 1))
    for k in range(1, n + 2):
        integ[k, k - 1] = (2.0 if k == 1 else 1.0) / (2 * k)
        if k < n:
            integ[k, k + 1] = -1.0 / (2 * k)
    integ[0] = -np.einsum("k,ki->i", (-1.0) ** np.arange(n + 2), integ)
    maps = np.zeros((n + 3, 2, n + 1))
    maps[:-1, 0] = np.einsum("ij,jk->ik", integ, weights)
    maps[:-2, 1] = weights
    return _read_only(np.cos(np.pi * i / n)), _read_only(maps)


def _panel_edges(near0: float, near_pi: float) -> list[float]:
    """Edges of the panels on [0, pi] of an integrand whose nearest complex
    singularities lie ``near0`` from theta = 0 and ``near_pi`` from pi.

    Panels double in width away from either end, starting at the
    singularity's distance, and equal panels no wider than the last doubled
    ones fill the middle.  So every panel is at most as wide as its
    distance from the singularities, and its Chebyshev interpolant of
    degree N converges at least like 4.6^-N (Bernstein's ellipse through
    the singularity of the first panel [0, near0])."""
    half = 0.5 * math.pi
    left, right = [0.0], [math.pi]
    # a singularity nearer than 2^-40, a spacing of 4e-25 half widths, is
    # graded to 2^-40 only
    d = max(near0, 2.0 ** -40)
    while d < half:
        left.append(d)
        d *= 2.0
    d = max(near_pi, 2.0 ** -40)
    while d < half:
        right.append(math.pi - d)
        d *= 2.0
    lo, hi = left.pop(), right.pop()
    width = min(max(lo, min(near0, half)), max(math.pi - hi, min(near_pi, half)))
    k = math.ceil((hi - lo) / width)
    return left + [lo + (hi - lo) * i / k for i in range(k)] + [hi] + right[::-1]


def _abel_map(a: np.ndarray, b: np.ndarray):
    """The Abel map of the gaps (a_j, b_j) in divisor angles, and its
    Jacobian, as one function of (S, n) stacks of angles.

    With c_j and r_j the midpoint and half width of gap j and
    mu_j = c_j + r_j cos(theta), the map is A_m(phi) = sum_j F_mj(phi_j),
    F_mj an integral of

        f_mj(theta) = eps_j prod_{i != m} (mu_j - c_i) / sqrt(prod_{k != j} (mu_j - a_k)(mu_j - b_k)),

    eps_j = (-1)^(n-1-j): f_jj = D_j and f_mj = D_j r_j cos(theta) / (mu_j - c_m),
    D_j = prod_{i != j} |mu_j - c_i| / sqrt((mu_j - a_i)(mu_j - b_i)) > 0.
    Along the divisor of the shift orbit, Dubrovin's equations and
    Lagrange's identity sum_j mu_j^k / prod_{i != j} (mu_j - mu_i) = h_{k-n+1}
    (complete symmetric polynomials: 0 below k = n - 1, 1 at it, sum mu at
    k = n) give dA_m/dx = -2 c_m: the map is linear in x.

    f_mj is 2 pi periodic, so its integral from -pi over [-pi, pi] and a
    winding count give F_mj for any real angle.  On [-pi, pi] it is a
    piecewise Chebyshev interpolant, on the panels of _panel_edges and
    their mirror images: the nearest singularities, where mu_j meets a
    neighbouring gap, lie acosh(1 + spacing / r_j) off theta = 0 (right
    neighbour) or +-pi (left neighbour).  The differences to other gaps'
    points are formed from the near end of gap j,
    mu_j = b_j - 2 r_j sin^2(theta/2) for gaps to the right and
    a_j + 2 r_j cos^2(theta/2) for gaps to the left, so a spacing far below
    the widths keeps its digits.  The Jacobian J_mj = f_mj(phi_j) comes
    from the same evaluation, one matrix product per angle.

    Returns the function phi -> (A, J) of an (S, n) array, A an (S, n)
    array and J an (S, n, n) stack, and the period matrix P: P_mj is the
    change of A_m as phi_j turns once.
    """
    n = len(a)
    c, r = 0.5 * (a + b), 0.5 * (b - a)

    def reach(ratio):
        # acosh(1 + ratio) without cancellation
        return np.log1p(ratio + np.sqrt(ratio * (ratio + 2.0)))

    # s the spacing to the neighbour on each side; no neighbour, no
    # singularity
    s = a[1:] - b[:-1]
    near0 = np.append(reach(s / r[:-1]), math.inf).tolist()
    near_pi = np.insert(reach(s / r[1:]), 0, math.inf).tolist()
    edges = []
    for d0, dpi in zip(near0, near_pi):
        half = _panel_edges(d0, dpi)
        edges.append(np.array([-e for e in half[:0:-1]] + half))
    counts = [len(e) - 1 for e in edges]
    ends = np.cumsum(counts)
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])

    # mu_j - e_i = (near end of gap j - e_i) + r_j move, the near end b_j
    # for the gaps i to the right and a_j for those to the left, with
    # mu_j = b_j - 2 r_j sin^2(theta/2) = a_j + 2 r_j cos^2(theta/2); gap
    # j's own entries are held at 1 and set apart
    right = np.arange(n) > np.arange(n)[:, None]
    bases = [np.where(right, b[:, None] - e, a[:, None] - e) for e in (c, a, b)]
    for base in bases:
        np.fill_diagonal(base, 1.0)
    nodes, maps = _chebyshev(_CHEB_N)
    theta = lo[:, None] + 0.5 * (hi - lo)[:, None] * (1.0 + nodes)
    from_b = -2.0 * np.sin(0.5 * theta)[..., None] ** 2
    from_a = 2.0 * np.cos(0.5 * theta)[..., None] ** 2
    cos = np.cos(theta)[..., None]
    # per panel, gap by gap: [k, (F, f) x m], the Chebyshev coefficients of
    # the integral from -pi, then of the integrand, and a last row that
    # carries the integral over a period, to be weighted by the winding
    # count.  The integrands are built one gap at a time, which keeps the
    # scratch arrays at the size of the coefficients
    coef = np.empty((len(lo), _CHEB_N + 3, 2 * n))
    period = np.empty((n, n))
    for j, end in enumerate(ends.tolist()):
        at = slice(end - counts[j], end)
        move = r[j] * np.where(right[j], from_b[at], from_a[at])
        move[..., j] = 0.0
        dc, da, db = (base[j] + move for base in bases)
        dj = np.sqrt((dc * dc / (da * db)).prod(axis=-1))[..., None]
        vals = r[j] * cos[at] / dc
        vals[..., j] = 1.0
        vals *= dj
        block = coef[at]
        block[:] = (maps.reshape(-1, _CHEB_N + 1) @ vals).reshape(block.shape)
        block[:, :, :n] *= 0.5 * (hi[at] - lo[at])[:, None, None]
        # shifted by the integral over the gap's earlier panels
        whole = block[:, :-1, :n].sum(axis=1)
        block[:, 0, :n] += np.cumsum(whole, axis=0) - whole
        period[:, j] = block[:, -1, :n] = whole.sum(axis=0)
    # the panel's right edge as a search key, gap j's in (8 j, 8 j + 8]
    # with the last one 8 j + 8, and its map to the Chebyshev variable
    shift = 8.0 * np.arange(n) + 4.0
    keys = hi + np.repeat(shift, counts)
    keys[ends - 1] = shift + 4.0
    scale, offset = 2.0 / (hi - lo), -(lo + hi) / (hi - lo)
    degrees = np.arange(_CHEB_N + 2)

    def abel(phi):
        # Chebyshev polynomials at each angle, then its winding count to
        # weight the period row
        cheb = np.empty(phi.shape + (_CHEB_N + 3,))
        wind = np.rint(phi * (0.5 / math.pi), out=cheb[..., -1])
        psi = phi - (2.0 * math.pi) * wind
        p = np.searchsorted(keys, psi + shift, side="right")
        u = psi * scale.take(p, mode="clip") + offset.take(p, mode="clip")
        np.minimum(u, 1.0, out=u)
        np.maximum(u, -1.0, out=u)
        np.multiply(np.arccos(u)[..., None], degrees, out=cheb[..., :-1])
        np.cos(cheb[..., :-1], out=cheb[..., :-1])
        val = (cheb[..., None, :] @ coef.take(p, axis=0, mode="clip"))[..., 0, :]
        return val[..., :n].sum(axis=-2), val[..., n:].swapaxes(-1, -2)

    return abel, period


def _abel_solve(abel, period: np.ndarray, goals: np.ndarray, r: np.ndarray):
    """Solve A(phi) = goals[k] for each (2, n) slice of the (K, 2, n) stack
    ``goals``, by Newton continuation over blocks of consecutive points.

    A generator: per block it yields the (k, 2, n) solved angles and the
    (k,) sizes of their last Newton corrections, mapped to (p, q) by
    |dp| <= sum_j r_j |dphi_j|.  A point whose continuation stalls ends
    the run: its block yields only the points before it, and no later
    block is solved.

    Every point of a block starts from one known solution: phi = 0, with
    A(0) = (1/2) P (1, ..., 1), for the first block, and the last point of
    the block before for the others.  Turning phi_j once moves A by the
    period column P e_j, so the nearest whole periods of each point's move
    from the known value go into a winding count (phi is the divisor less
    2 pi k, its target A less P k), and what is left is a path of at most
    half a period per gap.  All rows of the block then run one
    continuation, one Abel-map call and one batched solve per Newton
    iteration, and each point keeps its own stride and stopping rule.
    Along its path a point's Newton starts from the rate J^{-1} (move)
    times its stride and ends when its correction falls to rounding level;
    where the corrections grow or 10 do not suffice, its stride halves.
    A converged point is frozen.  A block gathers the Chebyshev
    coefficients of each of its 2 n k angles, (_CHEB_N + 3) 2 n floats,
    so it holds as many points as _BLOCK floats allow, and at least one.
    A point's Newton path starts from its block's known solution, so the
    block size moves its value at rounding level: by up to 2.1e-14 at 16
    gaps, against each point solved from phi = 0.
    """
    n = goals.shape[-1]
    lattice = np.linalg.inv(period)
    tol = 1e-13 * max(1.0, float(r.sum()))
    size = max(1, _BLOCK // (4 * n * n * (_CHEB_N + 3)))
    # the known solution: its angles, Abel value and Jacobian
    known = np.zeros((2, n))
    value, jac = abel(known)
    for lo in range(0, len(goals), size):
        goal = goals[lo:lo + size]
        goal = goal - np.rint((goal - value) @ lattice.T) @ period.T
        move = goal - value
        count = len(goal)
        solved, res = np.empty_like(goal), np.empty(count)
        # per point still solving, in block order: its place in the block,
        # progress s along the path, stride h, the trial's step and the
        # progress it aims at, its last correction and its iterations.
        # Every first trial takes the whole path, from the known angles
        # along the rate there
        live = [[i, 0.0, 1.0, 1.0, 1.0, math.inf, 0] for i in range(count)]
        anchor = np.repeat(known[None], count, axis=0)
        rate = np.linalg.solve(jac, move.transpose(1, 2, 0)).transpose(2, 0, 1)
        phi, aimed = anchor + rate, value + move
        # Newton's right-hand side, and each point's move, whose solve is
        # the rate at the Newton iterate
        rhs = np.empty(goal.shape + (2,))
        rhs[..., 1] = move
        stall = count
        while live:
            # the (2 m, n, n) Jacobians are solved as they come: numpy
            # solves a stack of three axes faster than one of four
            found, jacs = abel(phi.reshape(-1, n))
            np.subtract(aimed, found.reshape(phi.shape), out=rhs[..., 0])
            sol = np.linalg.solve(jacs, rhs.reshape(-1, n, 2)).reshape(rhs.shape)
            phi += sol[..., 0]
            # the places in ``live`` of the points solved, of those whose
            # trial is accepted, of those that start a new trial, and of
            # all that go on
            done, accepted, retried, keep = [], [], [], []
            for k, (point, pq) in enumerate(zip(live, (np.abs(sol[..., 0]) @ r).tolist())):
                at, s, h, step, aim, prev, tries = point
                corr = math.hypot(*pq)
                # a small correction that no longer shrinks fourfold sits
                # at rounding level
                if corr <= tol or prev <= 1e3 * tol and corr > 0.25 * prev:
                    if aim == 1.0:
                        res[at] = corr
                        done.append(k)
                        continue
                    s, h = aim, 2.0 * step
                    accepted.append(k)
                elif not corr <= 2.0 * prev or tries == 9:
                    # the corrections grow or 10 do not suffice: the stride
                    # halves, and below 1e-10 the point stalls
                    h = 0.5 * step
                    if h < 1e-10:
                        stall = min(stall, at)
                        continue
                else:
                    point[5:] = corr, tries + 1
                    keep.append(k)
                    continue
                step = min(h, 1.0 - s)
                live[k] = [at, s, h, step, 1.0 if step == 1.0 - s else s + step, math.inf, 0]
                retried.append(k)
                keep.append(k)
            for k in done:
                solved[live[k][0]] = phi[k]
            if done and live[done[-1]][0] == count - 1:
                # the next block's known Jacobian: a copy, so that the Abel
                # map's output is freed, in the layout abel returns, which
                # numpy solves faster than a C-ordered one
                jac = jacs.reshape(phi.shape + (n,))[done[-1]].copy(order="K")
            if accepted:
                anchor[accepted], rate[accepted] = phi[accepted], sol[accepted, ..., 1]
            if retried:
                step, aim = np.array([live[k][3:5] for k in retried]).T
                phi[retried] = anchor[retried] + step[:, None, None] * rate[retried]
                aimed[retried] = value + aim[:, None, None] * rhs[retried, ..., 1]
            # drop the points solved, and those at or past a stall
            if stall < count:
                keep = [k for k in keep if live[k][0] < stall]
            if not keep:
                break
            if len(keep) < len(live):
                live = [live[k] for k in keep]
                anchor, rate, phi, aimed, rhs = (v[keep] for v in (anchor, rate, phi, aimed, rhs))
        yield solved[:stall], res[:stall]
        if stall < count:
            return
        known, value = solved[-1], goal[-1]


def _divisor_orbit(a: np.ndarray, b: np.ndarray, angles, xg: np.ndarray):
    """Solve for the Dirichlet divisors of the commuting profile with gaps
    (a_j, b_j) and ``angles`` on the grid ``xg`` by inverting the Abel map.

    The gaps are those of the co-rotating frame, :func:`_frame_endpoints`.

    A generator: it yields (x, p, q, residual, True) for every grid point.
    At x = 0 it yields the trace formula W(0) of the gaps' widths, with
    residual 0; past x = 0
    ``residual`` is the size of the point's last Newton correction plus
    the (p, q) distance of the solved start from that W(0).

    The divisor of W(x) is the set of zeros mu_j(x) of M_11(x, .), one in
    each gap (Gesztesy & Holden, Soliton Equations and Their
    Algebro-Geometric Solutions I, AKNS hierarchy).  With
    mu_j = c_j + r_j cos(phi_j), c_j and r_j the midpoint and half width of
    gap j in increasing order, the trace formula reads

        p = sum_j mu_j - (1/2) sum_k (a_k + b_k) = sum_j r_j cos(phi_j),

    and Dubrovin's equations, d_x M_11 = 2 (p - mu) M_12 at a zero, where
    M_12 = +-1 since det M = -1 and sin(phi_j) takes its sign, become

        phi_j' = 2 (p - mu_j) prod_{k != j} sqrt((mu_j - a_k)(mu_j - b_k)) / |mu_j - mu_k|.

    On the Jacobian the flow is linear: the Abel map of _abel_map obeys
    A(phi(x)) = A(phi(0)) - 2 c x, so each grid point is its own Jacobi
    inversion, and no error accumulates along x.  The profile with its
    angles lowered by pi/4 has the potential [[q, -p], [-p, -q]], so q is
    the p of its divisor: both systems solve as one (2, n) slice on the
    same map.

    The start needs no root-finder.  In the torus coordinates
    theta = P^{-1} A(phi) mod 1, P the period matrix, the uniform profile
    of angle alpha sits at (1/2 - alpha/pi) (1, ..., 1), and raising one
    gap's angle by pi/2 moves its coordinate by 1/2.  So the commuting
    profile with angles alpha_j = alpha + (pi/2) s_j, s_j in {0, 1},
    starts at theta_j = 1/2 - alpha_j/pi, and its q-system at theta + 1/4.
    The grid point x_k then has the targets P theta - 2 c x_k and
    P (theta + 1/4) - 2 c x_k, and the whole grid, the start at x = 0
    first, is one (K, 2, n) stack of targets for _abel_solve: it takes
    the whole periods out of each target relative to a known solution,
    phi = 0 (every zero at the right end of its gap) for the first block
    of points and the last solved point after that, and solves each block
    of points in one Newton continuation.  One gap has A(phi) = phi + pi
    and starts at phi = -2 alpha_1 in closed form.
    """
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    w0 = _trace_formula((b - a).tolist(), angles)
    # the x = 0 sample comes before any setup that can raise
    yield 0.0, w0.p, w0.q, 0.0, True

    alphas = np.array(angles)
    n = len(a)
    xs = xg.tolist()
    if n == 1:
        # one gap: A(phi) = phi + pi puts the start at phi = -2 alpha, and
        # the gap is centred in its frame, so the target stands still, and
        # so does the divisor
        phi = np.array([-2.0 * alphas, 0.5 * math.pi - 2.0 * alphas])
        p, q = (r * np.cos(phi)).sum(axis=1).tolist()
        res = math.hypot(p - w0.p, q - w0.q)
        for x in xs[1:]:
            yield x, p, q, res, True
        return
    abel, period = _abel_map(a, b)
    theta = 0.5 - alphas / math.pi
    goals = np.stack((theta, theta + 0.25)) @ period.T - (2.0 * xg)[:, None, None] * c
    done, shift = 0, 0.0
    for phi, res in _abel_solve(abel, period, goals, r):
        pq = (r * np.cos(phi)).sum(axis=-1).tolist()
        for x, (p, q), e in zip(xs[done:], pq, res.tolist()):
            if x:
                yield x, p, q, e + shift, True
            else:
                shift = math.hypot(p - w0.p, q - w0.q)
        done += len(phi)
    if done < len(xs):
        raise NoConvergence("Abel inversion stalled " + (
            f"between x = {xs[done - 1]} and {xs[done]}" if done else "at the start, x = 0"))


def _frame_endpoints(gs: GapSet) -> tuple[float, np.ndarray, np.ndarray]:
    """The hull midpoint c of the gaps (``GapSet.hull``, 0 for the gapless
    set) and the gaps' endpoint arrays a - c and b - c, not validated
    again: a narrow gap far from c keeps whatever width the shift leaves
    it, 0 included.

    Moving every gap by -c turns the potential,
    (p + iq)(x) -> e^{-2icx} (p + iq)(x), and leaves W(0), which depends
    only on the gap widths and angles.  Of all shifts, the hull midpoint
    gives the smallest largest |t|, so the march's rates stay near the
    hull's half width for gaps far from 0.
    """
    c = gs.hull[0]
    a, b = gs.endpoints
    return c, a - c, b - c


def co_rotating_frame(profile: KreinProfile) -> tuple[float, KreinProfile]:
    """The hull midpoint c of the profile's gaps and the profile with every
    gap moved by -c (:func:`_frame_endpoints`), validated as a GapSet."""
    c, a, b = _frame_endpoints(profile.gapset)
    return c, KreinProfile(GapSet(tuple(zip(a.tolist(), b.tolist()))), profile.angles)


# the congruence march's local error target per unit of phase, read at call
# time, and the slack a sampled ||W(x)|| may take over the sharp bound
LOC_TOL = 1e-8
BOUND_SLACK = 1e-4
# the rounding unit of a double, for the rounding of the frame's angle
_EPS = float(np.finfo(float).eps)


def sample_potential(profile: KreinProfile, xgrid) -> list[PotentialSample]:
    """Sample the potential W(x) along the shift orbit of a Krein profile.

    The shifted operator is reflectionless on the same bands.  Two routes
    march it:

    * A commuting profile (``profile.is_commuting``: every angle alpha or
      alpha + pi/2) solves for its Dirichlet divisor, the zeros of
      M_11(x, .) in the gaps, by inverting the Abel map, which moves
      linearly in x, and reads W(x) off the trace formula for the divisor
      (see _divisor_orbit).  Each grid point x_k has its own target,
      P theta - 2 c x_k from a closed-form point theta of the isospectral
      torus (the q-system's a quarter period on); each target less its
      whole periods from a known solution is one Newton continuation, and
      all points of a block, as many as a fixed memory budget allows,
      solve together.  The x = 0 sample is the trace formula W(0).  The
      route carries 2 n angles per point, has no growing mode, no
      quadrature and no step tolerance, and its residual is the x = 0
      seed check below, plus, past x = 0, the distance of the solved start
      from W(0) and the point's own last Newton correction: no error
      accumulates along x.
    * A non-commuting profile has complex gap values and no real divisor.
      The gap boundary values of its formal M function march by congruence
      with the transfer matrices of the potential itself, and W(x) is the
      trace formula at the shifted origin (see _congruence_orbit), whose
      local error target per unit of phase is ``LOC_TOL`` (1e-8).  Its
      residual is the trace formula's quadrature residual plus the march's
      propagated error estimate and the seed check at x = 0.

    Both routes march in the co-rotating frame of :func:`_frame_endpoints`:
    the gaps moved by the hull midpoint c are marched, and each sample is
    turned back by e^{2icx} before the bound check.  The Abel route reads
    the moved endpoints as arrays, so a narrow gap far from c marches with
    whatever width the shift leaves it; only the congruence route builds
    the frame as a profile (:func:`co_rotating_frame`).  c and the
    product 2 c x round by up to half an ulp each, so the angle is off by
    up to eps |2 c x|, and each sample's residual carries
    eps |2 c x| ||W(x)|| on top of its route's terms; the rounding of 2 c x
    inside the Abel targets is not counted.  For c = 0 the frame is the
    identity and adds nothing, as at x = 0.  The large-z Weyl law of the profile itself,
    :func:`asymptotic_W` at the points c + i ys above the same hull
    midpoint, cross-checks the x = 0 sample; its heights stay near the
    hull's half width, where y (iI - M(c + iy)) keeps its digits for gaps
    far from 0, and its value is the frame's W(0) at i ys, bit for bit.
    The law is an independent route to W(0), as it shares no code with the
    trace formula or the divisor.

    Parameters
    ----------
    profile : KreinProfile
    xgrid : array_like
        Increasing sample positions starting at 0.

    Returns
    -------
    list of PotentialSample
        One sample per grid point, residuals included.

    Raises
    ------
    BoundViolation
        If any sampled ||W(x)|| of a non-commuting profile exceeds
        sharp_bound + BOUND_SLACK (1e-4).  Profiles with mismatched gap
        projections yield formal M functions that need not be Herglotz;
        their orbits can cross the bound, and the exception then certifies
        non-realizability (herglotz_defect is an independent witness: the
        smallest eigenvalue of Im M(t + i0) on the gaps, where by the
        minimum principle Im M takes its least value over C+).  Never
        ignored.  A commuting profile's M function is a genuine matrix
        Herglotz function, by the explicit realization, so the sharp bound
        holds along its whole orbit and it never raises this.
    NoConvergence
        If the step size of the congruence march, or the continuation
        stride of the Abel inversion, underflows before reaching a grid
        point or the start, or the x = 0 Weyl-law cross-check does not
        converge (no samples then).  A stalled congruence march names the
        profile's gap_realness, which is 0 for a realizable profile.  A
        commuting orbit that crosses the bound has lost its digits, most
        likely to 2 c x in its Abel targets at large x, and raises this,
        naming x and the digits lost.

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
    c, a, b = _frame_endpoints(gs)

    def record(x, p, q, residual):
        if c:  # at c = 0 the frame is the identity, signed zeros included
            angle = 2.0 * c * x
            cos, sin = math.cos(angle), math.sin(angle)
            p, q = p * cos - q * sin, p * sin + q * cos
            # the angle's rounding, up to eps |2 c x|, turns W(x) by as much
            residual += _EPS * abs(angle) * math.hypot(p, q)
        sample = PotentialSample(x=float(x), p=p, q=q, residual=residual)
        if sample.norm > bound + BOUND_SLACK:
            crossing = (f"||W({x:.6g})|| = {sample.norm:.8f} exceeds the sharp bound "
                        f"{bound:.8f} + {BOUND_SLACK:g}")
            if not profile.is_commuting:
                raise BoundViolation(crossing)
            # a commuting orbit stays within the bound, so its targets
            # P theta - 2 c x, c the frame's gap midpoints, have lost the
            # digits that 2 c x takes from a double
            shift = float(np.abs((a + b) * x).max())
            lost = min(16.0, math.log10(max(1.0, shift)))
            raise NoConvergence(
                f"{crossing} on a commuting profile: the Abel targets hold "
                f"2 c x = {shift:.3g} and have lost {lost:.3g} of a double's 16 digits")
        return sample

    orbit = (_divisor_orbit(a, b, profile.angles, xg) if profile.is_commuting
             else _congruence_orbit(co_rotating_frame(profile)[1], xg, LOC_TOL))
    _, p0, q0, res0, _ = next(orbit)
    samples: list[PotentialSample] = []
    try:
        # independent seed check: the large-z Weyl law against the x = 0
        # state (the frame turns nothing at x = 0)
        seed = asymptotic_W(profile_m_function(profile))
        seed_res = seed.residual + math.hypot(seed.p - p0, seed.q - q0)
        samples.append(record(xg[0], p0, q0, res0 + seed_res))
        # a divisor orbit runs from the checked W(0), so the seed check's
        # error rides along it with the start's distance from that W(0);
        # congruence samples past x = 0 carry their own quadrature residual
        # and march error estimate
        carried = seed_res if profile.is_commuting else 0.0
        # an overflowing trial step yields non-finite states, which the
        # step control rejects; numpy need not warn about them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # interior acceptances of a congruence march also face the
            # bound check
            for x, p, q, res, on_grid in orbit:
                sample = record(x, p, q, res + carried)
                if on_grid:
                    samples.append(sample)
    except (BoundViolation, NoConvergence) as exc:
        # grid points accepted before the failure ride along so callers
        # can report the last good x next to the certificate
        exc.samples = samples
        raise
    return samples
