"""The march against closed-form orbits.

Two gaps have a closed-form orbit, ||W||^2 = A + B cd^2(kappa x | m) on a
uniform profile and A + B sn^2(kappa x | m) on an orthogonal one (see
``conftest._two_gap_norm``); one centred gap keeps ||W|| at its half
width.  Commuting profiles, uniform or orthogonal, solve for their
Dirichlet divisor by inverting the Abel map from a closed-form point of the
isospectral torus.  The congruence march, the route of non-commuting
profiles, is held to the orthogonal orbits directly, its only closed-form
ground truth.  Both routes are held to their numbers and their reported
residuals to the true error.
"""

import math

import numpy as np
import pytest

from kreindirac import GapSet, KreinProfile, sample_potential, sharp_bound
from kreindirac import dirac
from kreindirac.dirac import co_rotating_frame
from kreindirac.errors import NoConvergence
from kreindirac.finitegap import build_M, trace_formula_W0

# (gaps, common angle, march length): widths from 0.1 to 20, spacings from
# 1e-3 to 2, centres from -1e3 to 1e2, angles in every quadrant and next to
# 0 and pi/2, where the divisor sits within 1e-18 widths of a gap end
TWO_GAP_ORBITS = [
    (((-2.0, -1.0), (1.0, 2.0)), math.pi / 4, 20.0),
    (((-3.0, -2.0), (1.0, 2.5)), 0.3, 20.0),
    (((-6.0, -1.0), (1.0, 6.0)), 0.3, 20.0),
    (((-20.0, -1.0), (1.0, 20.0)), 0.3, 5.0),
    (((-20.0, -0.5), (0.5, 1.0)), 2.0, 20.0),
    (((-1.0, -0.5), (0.5, 20.5)), 1.0, 20.0),
    (((100.0, 100.5), (101.5, 102.3)), 2.5, 20.0),
    (((-1.0, -0.5), (0.5, 1.02)), 1.1, 20.0),
    (((0.0, 1.0), (1.001, 2.0)), 0.7, 20.0),
    (((0.0, 1.0), (1.001, 2.0)), 1e-9, 20.0),
    (((-3.0, -2.9), (1.0, 6.0)), math.pi / 2 - 1e-9, 20.0),
    (((-1e3, -1e3 + 0.4), (-1e3 + 2.0, -1e3 + 3.0)), 0.2, 20.0),
]
# gaps 1e-6 apart, whose orbits pass close to a soliton: held at 1e-8, the
# others at 1e-11
NEARLY_TOUCHING = [
    (((0.0, 1.0), (1.000001, 2.0)), 0.4, 20.0),
    (((0.0, 100.0), (100.000001, 101.0)), 0.4, 20.0),
]
TWO_GAP_ORBITS += NEARLY_TOUCHING


@pytest.mark.parametrize("gaps, alpha, stop", TWO_GAP_ORBITS)
def test_two_gap_march_follows_the_closed_form(two_gap_norm, gaps, alpha, stop):
    xg = np.linspace(0.0, stop, 101)
    samples = sample_potential(KreinProfile.uniform(GapSet(gaps), alpha), xg)
    err = np.abs([s.norm for s in samples] - two_gap_norm(gaps, xg))
    assert err.max() < (1e-8 if (gaps, alpha, stop) in NEARLY_TOUCHING else 1e-11)
    # the residual is an honest bound: seed check plus the last Newton
    # correction of the Abel inversion
    assert all(s.residual >= e for s, e in zip(samples, err))


# (gaps, alpha, march length) of orthogonal profiles, angles
# (alpha, alpha + pi/2): widths 0.5 to 5, centres -3.5 to 102.25
ORTHOGONAL_ORBITS = [
    (((-2.0, -1.0), (1.0, 2.0)), 0.3, 5.0),
    (((-1.0, -0.5), (0.5, 1.02)), 1.0, 5.0),
    (((-2.0, -1.5), (0.2, 1.7)), 2.5, 3.0),
    (((100.0, 101.0), (101.5, 103.0)), 0.7, 3.0),
    (((-6.0, -1.0), (1.0, 6.0)), 0.3, 2.0),
]


@pytest.mark.parametrize("gaps, alpha, stop", ORTHOGONAL_ORBITS)
def test_orthogonal_march_starts_at_the_bottom_of_the_orbit(two_gap_norm, gaps, alpha, stop):
    # W(0) = sum (b_j - a_j)(P_j - I/2) with P_2 = I - P_1 has norm
    # |w2 - w1|/2, the bottom of the orbit, so x0 = 0.  The congruence
    # march runs on the co-rotating frame, whose turn the norm does not see
    xg = np.linspace(0.0, stop, 21)
    _, frame = co_rotating_frame(KreinProfile(GapSet(gaps), (alpha, alpha + math.pi / 2)))
    rows = [row[1:4] for row in dirac._congruence_orbit(frame, xg, 1e-8) if row[4]]
    p, q, res = np.array(rows).T
    err = np.abs(np.hypot(p, q) - two_gap_norm(gaps, xg, start="bottom"))
    assert err.max() < 1e-9
    # past x = 0 the residual carries the propagated march error estimate
    assert (res[1:] >= err[1:]).all()


@pytest.mark.parametrize("gaps, alpha, stop", ORTHOGONAL_ORBITS)
def test_orthogonal_profiles_take_the_abel_route(two_gap_norm, gaps, alpha, stop):
    # an orthogonal profile commutes: it starts on the isospectral torus at
    # the flipped point and meets the closed form to rounding
    xg = np.linspace(0.0, stop, 21)
    prof = KreinProfile(GapSet(gaps), (alpha, alpha + math.pi / 2))
    samples = sample_potential(prof, xg)
    err = np.abs([s.norm for s in samples] - two_gap_norm(gaps, xg, start="bottom"))
    assert err.max() < 1e-11
    assert all(s.residual >= e for s, e in zip(samples, err))


def _dubrovin_orbit(frame, xg):
    """p + iq of a commuting frame on the grid ``xg`` from Dubrovin's
    equations as ``dirac._divisor_orbit`` states them,

        phi_j' = 2 (p - mu_j) prod_{k != j} sqrt((mu_j - a_k)(mu_j - b_k)) / |mu_j - mu_k|,

    mu_j = c_j + r_j cos(phi_j), integrated by DOP853 for the divisor and
    its q-system (whose p is q) from the x = 0 divisor of the Abel
    inversion: a reference that shares only the start with the march."""
    from scipy.integrate import solve_ivp

    a, b = frame.gapset.endpoints
    n = len(a)
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    abel, period = dirac._abel_map(a, b)
    theta = 0.5 - np.array(frame.angles) / math.pi
    goals = np.stack((theta, theta + 0.25)) @ period.T
    (start, _), = dirac._abel_solve(abel, period, goals[None], r)
    own = np.eye(n, dtype=bool)

    def rate(x, y):
        phi = y.reshape(2, n)
        mu = c + r * np.cos(phi)
        p = (r * np.cos(phi)).sum(axis=1, keepdims=True)
        to_ends = (mu[..., None] - a) * (mu[..., None] - b)
        apart = np.abs(mu[..., None] - mu[:, None, :])
        factor = np.sqrt(np.where(own, 1.0, to_ends)) / np.where(own, 1.0, apart)
        return (2.0 * (p - mu) * factor.prod(axis=-1)).ravel()

    sol = solve_ivp(rate, (xg[0], xg[-1]), start[0].ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-13, t_eval=xg)
    assert sol.success
    p, q = (r[:, None] * np.cos(sol.y.reshape(2, n, -1))).sum(axis=1)
    return p + 1j * q


@pytest.mark.parametrize("n", [3, 4, 5])
def test_mixed_commuting_profiles_agree_with_the_congruence_march(n):
    # angles alpha and alpha + pi/2 over three to five gaps have no closed
    # form; two references: the congruence march at a tight step tolerance,
    # and Dubrovin's equations from the Abel route's start (measured
    # within 3.9e-13, 1.6e-12 and 1.7e-12 for n = 3, 4 and 5)
    rng = np.random.default_rng(30 + n)
    gs, alpha = _random_uniform(rng, n)
    flips = np.arange(n) % 2
    rng.shuffle(flips)
    prof = KreinProfile(gs, tuple(alpha + 0.5 * math.pi * flips))
    xg = np.linspace(0.0, 2.0, 11)
    got = np.array([complex(s.p, s.q) for s in sample_potential(prof, xg)])
    c, frame = co_rotating_frame(prof)
    march = [complex(p, q) * np.exp(2j * c * x)
             for x, p, q, _, on_grid in dirac._congruence_orbit(frame, xg, 1e-11) if on_grid]
    assert np.abs(got - np.array(march)).max() < 1e-9
    # the frame's orbit turned back by e^{2icx}
    dubrovin = _dubrovin_orbit(frame, xg) * np.exp(2j * c * xg)
    assert np.abs(got - dubrovin).max() < 1e-9


@pytest.mark.parametrize("r", [10.0, 50.0])
def test_centred_gap_keeps_its_norm(r):
    # the divisor of one centred gap stands still: ||W|| stays at r
    prof = KreinProfile.uniform(GapSet(((-r, r),)), 0.3)
    samples = sample_potential(prof, np.linspace(0.0, 3.0, 61))
    assert max(abs(s.norm - r) for s in samples) < 1e-8


def _random_uniform(rng, n):
    widths = rng.uniform(0.1, 2.0, n)
    spacings = rng.uniform(0.05, 2.0, n)
    left = np.cumsum(spacings + np.concatenate([[0.0], widths[:-1]])) + rng.uniform(-5, 5)
    gaps = tuple(zip(left.tolist(), (left + widths).tolist()))
    return GapSet(gaps), float(rng.uniform(0.0, math.pi))


def _start_divisor(monkeypatch, prof):
    """The (2, n) divisor angles the Abel route starts from, the q-system's
    in the second row: for one gap, where p = r cos(phi) and
    q = -r sin(phi), read back off the orbit, and otherwise the last angles
    of the start solve, whose final correction is at rounding level."""
    if prof.gapset.n == 1:
        _, frame = co_rotating_frame(prof)
        _, (_, p, q, _, _) = dirac._divisor_orbit(*frame.gapset.endpoints, frame.angles,
                                                  np.array([0.0, 1.0]))
        phi = math.atan2(-q, p)
        return np.array([[phi], [phi + math.pi / 2]])
    seen = []
    abel_map = dirac._abel_map

    def traced(a, b):
        abel, period = abel_map(a, b)

        def record(phi):
            seen.append(phi.copy())
            return abel(phi)
        return record, period

    with monkeypatch.context() as patch:
        patch.setattr(dirac, "_abel_map", traced)
        sample_potential(prof, [0.0])
    return seen[-1]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 16])
def test_divisor_is_the_zero_set_of_m11(monkeypatch, n):
    # one zero of M_11 per gap, where M_12 = +-1 takes the sign of
    # sin(phi); the trace formula over the divisor is W(0).  The start is
    # solved from its torus point, with gaps flipped by pi/2 as well
    rng, flip_rng = np.random.default_rng(n), np.random.default_rng(100 + n)
    for _ in range(4):
        gs, alpha = _random_uniform(rng, n)
        a, b = gs.endpoints
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        for flips in (np.zeros(n), flip_rng.integers(0, 2, n)):
            prof = KreinProfile(gs, tuple(alpha + 0.5 * math.pi * flips))
            phi = _start_divisor(monkeypatch, prof)
            mu = c + r * np.cos(phi[0])
            assert ((a < mu) & (mu < b)).all()
            # M is evaluated only clear of the endpoint margins
            near = gs.endpoint_errors(mu)
            clear = [j for j in range(n) if j not in near]
            m = build_M(prof, mu[clear])
            np.testing.assert_allclose(m[:, 0, 0], 0.0, atol=1e-11)
            np.testing.assert_allclose(m[:, 0, 1], np.sign(np.sin(phi[0, clear])), atol=1e-11)
            w0 = trace_formula_W0(prof)
            p, q = (r * np.cos(phi)).sum(axis=1)
            assert abs(p - w0.p) < 1e-12 * n and abs(q - w0.q) < 1e-12 * n


def test_divisor_sits_on_the_gap_ends_at_the_axes(monkeypatch):
    # angle 0 puts every zero of M_11 on b_j, angle pi/2 on a_j; the
    # q-system's angle is pi/4 lower
    gs = GapSet(((-2.0, -1.0), (1.0, 2.0), (3.0, 5.0)))
    for alpha, row, end in ((0.0, 0, 0.0), (math.pi / 2, 0, math.pi),
                            (math.pi / 4, 1, 0.0), (3 * math.pi / 4, 1, math.pi)):
        phi = _start_divisor(monkeypatch, KreinProfile.uniform(gs, alpha))
        np.testing.assert_allclose(np.abs(phi[row]), [end] * 3, atol=1e-12)


# the isospectral torus: theta = P^{-1} A(phi) mod 1 of a divisor phi found
# as the zeros of M_11, without the Abel route's start
TORUS_GAPS = GapSet(((-3.0, -2.0), (-1.0, 0.5), (1.5, 2.0), (3.0, 4.5)))


def _torus_point(prof):
    from scipy.optimize import brentq

    phi = []
    for lo, hi in prof.gapset.gaps:
        c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        margin = 2e-3 * (hi - lo)
        mu = brentq(lambda t: build_M(prof, np.array([t]))[0, 0, 0].real,
                    lo + margin, hi - margin, xtol=1e-15, rtol=1e-15)
        sign = np.sign(build_M(prof, np.array([mu]))[0, 0, 1].real)
        phi.append(sign * math.acos((mu - c) / r))
    abel, period = dirac._abel_map(*prof.gapset.endpoints)
    return np.linalg.solve(period, abel(np.array([phi]))[0][0])


def _mod1(v):
    return v - np.rint(v)


def test_abel_map_starts_at_half_the_periods():
    # every integrand is even in its angle: A(0) = (1/2) P (1, ..., 1)
    abel, period = dirac._abel_map(*TORUS_GAPS.endpoints)
    value, _ = abel(np.zeros((1, TORUS_GAPS.n)))
    np.testing.assert_allclose(value[0], 0.5 * period.sum(axis=1), rtol=0, atol=1e-13)


def test_uniform_profiles_lie_on_the_torus_diagonal():
    # theta = (1/2 - alpha/pi) (1, ..., 1), so dtheta/dalpha = -1/pi in
    # every component
    alphas = [0.4, 0.9, 1.3, 2.0, 2.6]
    thetas = [_torus_point(KreinProfile.uniform(TORUS_GAPS, al)) for al in alphas]
    for al, th in zip(alphas, thetas):
        assert np.abs(_mod1(th - (0.5 - al / math.pi))).max() < 1e-12
    for a1, a2, t1, t2 in zip(alphas, alphas[1:], thetas, thetas[1:]):
        np.testing.assert_allclose(_mod1(t2 - t1) / (a2 - a1), -1.0 / math.pi, rtol=0, atol=1e-12)


def test_flipping_a_gap_moves_its_coordinate_by_half():
    # raising gap j's angle by pi/2 moves theta_j by 1/2 and no other
    base = _torus_point(KreinProfile.uniform(TORUS_GAPS, 0.9))
    for flips in np.eye(4, dtype=int).tolist() + [[0, 1, 1, 0]]:
        moved = _torus_point(KreinProfile(TORUS_GAPS, tuple(0.9 + 0.5 * math.pi * np.array(flips))))
        assert np.abs(_mod1(moved - base - 0.5 * np.array(flips))).max() < 1e-12


def test_q_system_sits_a_quarter_period_on():
    # the profile with every angle lowered by pi/4 has the potential
    # [[q, -p], [-p, -q]]: its divisor, the q-system, sits at theta + 1/4
    for angles in ((0.9,) * 4, (0.9, 0.9 + math.pi / 2, 0.9, 0.9 + math.pi / 2)):
        p = _torus_point(KreinProfile(TORUS_GAPS, angles))
        q = _torus_point(KreinProfile(TORUS_GAPS, tuple(al - math.pi / 4 for al in angles)))
        assert np.abs(_mod1(q - p - 0.25)).max() < 1e-12


def test_divisor_residual_is_the_seed_check_and_rounding(two_gap_norm):
    # past x = 0 the Abel inversion's residual adds no more than rounding
    # to the seed check, yet still bounds the error
    gaps = ((-2.0, -1.0), (1.0, 2.0))
    xg = np.linspace(0.0, 10.0, 11)
    prof = KreinProfile.uniform(GapSet(gaps), 0.4)
    run = sample_potential(prof, xg)
    seed, bound = run[0].residual, sharp_bound(prof.gapset)
    assert all(s.residual - seed <= 1e-12 * max(1.0, bound) for s in run[1:])
    err = np.abs([s.norm for s in run] - two_gap_norm(gaps, xg))
    assert all(s.residual >= e for s, e in zip(run, err))


def test_stalled_inversion_raises_with_the_samples(monkeypatch):
    # a Jacobian with no finite correction halves the continuation stride
    # until it underflows, here in the solve of the start: NoConvergence
    # names x and carries the x = 0 sample, the trace formula W(0), which
    # comes before the Abel map is built
    abel_map = dirac._abel_map

    def broken(a, b):
        abel, period = abel_map(a, b)
        return (lambda phi: (abel(phi)[0], np.full((len(phi), len(a), len(a)), np.nan))), period

    monkeypatch.setattr(dirac, "_abel_map", broken)
    prof = KreinProfile.uniform(GapSet(((-2.0, -1.0), (1.0, 2.0))), 0.4)
    with pytest.raises(NoConvergence, match="stalled at the start, x = 0") as info:
        sample_potential(prof, [0.0, 0.5, 1.0])
    assert [s.x for s in info.value.samples] == [0.0]


def test_inversion_stalled_past_x_keeps_the_samples_before(monkeypatch):
    # a Jacobian that breaks only where the Abel value has moved far
    # enough along the flow: the start and every target lie on
    # A(0) + R P (1, ..., 1) - 2 c x (uniform profile, R real), so the
    # value's component u orthogonal to P (1, ..., 1) grows as -2 (c . u) x
    # along each path, and the break at x = 0.25 leaves the points to
    # x = 0.2 untouched and stalls the one at x = 0.3
    gaps = ((-2.0, -1.0), (1.0, 2.5))
    prof = KreinProfile.uniform(GapSet(gaps), 0.1)
    _, frame = co_rotating_frame(prof)
    a, b = frame.gapset.endpoints
    c = 0.5 * (a + b)
    abel_map = dirac._abel_map

    def broken(a, b):
        abel, period = abel_map(a, b)
        ones = period.sum(axis=1)
        u = np.array([ones[1], -ones[0]]) / math.hypot(*ones)
        origin = abel(np.zeros((1, 2)))[0][0]
        edge = 0.25 * abs(2.0 * c @ u)

        def map_(phi):
            value, jac = abel(phi)
            jac[np.abs((value - origin) @ u) > edge] = np.nan
            return value, jac
        return map_, period

    monkeypatch.setattr(dirac, "_abel_map", broken)
    with pytest.raises(NoConvergence, match="stalled between x = 0.2 and 0.3$") as info:
        sample_potential(prof, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    assert [s.x for s in info.value.samples] == [0.0, 0.1, 0.2]


def _orbit_rows(frame, xg):
    # (x, p, q, residual) of every grid point of the Abel route
    xg = np.asarray(xg, dtype=float)
    return np.array([row[:4] for row in
                     dirac._divisor_orbit(*frame.gapset.endpoints, frame.angles, xg)])


@pytest.mark.parametrize("n, stop, count, stride", [(2, 20.0, 2001, 23), (16, 2.0, 9, 1)])
def test_grid_solved_at_once_agrees_with_each_point_alone(n, stop, count, stride):
    # every grid point is its own Jacobi inversion: a block of points
    # solved together, or continued from the block before, gives each
    # point's solve from the start alone, to rounding of the bound's size.
    # Two gaps take 75 points a block, 16 gaps one
    gs, alpha = _random_uniform(np.random.default_rng(40 + n), n)
    _, frame = co_rotating_frame(KreinProfile.uniform(gs, alpha))
    rows = _orbit_rows(frame, np.linspace(0.0, stop, count))
    assert (rows[:, 3] <= 1e-12).all()
    scale = max(1.0, sharp_bound(gs))
    for row in rows[1::stride]:
        alone = _orbit_rows(frame, [0.0, row[0]])[1]
        assert np.abs(alone[1:3] - row[1:3]).max() <= 1e-14 * scale
        assert alone[3] <= 1e-12


def test_two_gap_march_takes_a_few_abel_calls(monkeypatch):
    # the 21 points of a two-gap march to x = 10 solve as one block: one
    # call at phi = 0 and one per Newton iteration of the slowest point
    calls = []
    abel_map = dirac._abel_map

    def counted(a, b):
        abel, period = abel_map(a, b)

        def count(phi):
            calls.append(len(phi))
            return abel(phi)
        return count, period

    monkeypatch.setattr(dirac, "_abel_map", counted)
    prof = KreinProfile.uniform(GapSet(((-2.0, -1.0), (1.0, 2.0))), 0.4)
    sample_potential(prof, np.linspace(0.0, 10.0, 21))
    assert len(calls) <= 12
