"""Dirac system oracles and the potential march."""

import math

import numpy as np
import pytest

from kreindirac import (
    GapSet,
    KreinProfile,
    StepPotential,
    assemble_M,
    build_M,
    const_weyl,
    ode_m_function,
    ode_weyl,
    sample_potential,
    sharp_bound,
    trace_formula_W0,
    transfer,
    weyl_from_M,
)
from kreindirac import dirac
from kreindirac.dirac import coefficient_matrix
from kreindirac.errors import BoundViolation, DegenerateDichotomy, SpectrumOnCut
from kreindirac.mat2 import im_part, mexp, mlog_spectral

WITNESS_GAPS = ((-2.0, -1.0), (1.0, 2.0))
WITNESS_ANGLES = (0.3, 1.9)

# march values for the aligned two-gap profile, frozen from converged runs
# (loc_tol refinement 1e-6 -> 1e-10 moves the x = 0.3 value by < 2e-7, and
# the small-x law q(x) = 1 - 4 x^2 + O(x^4) matches to the quartic term)
TAYLOR_PROFILE = (WITNESS_GAPS, math.pi / 4)
Q_AT_01 = 0.960136319578
Q_AT_02 = 0.842317450331
Q_AT_03 = 0.652766370017


def test_step_potential_lookup():
    w = StepPotential(breakpoints=(0.0, 1.0), pieces=((1.0, 2.0),),
                      tails=((0.0, 0.0), (3.0, -1.0)))
    assert w.value_at(-0.5) == (0.0, 0.0)
    assert w.value_at(0.5) == (1.0, 2.0)
    assert w.value_at(2.0) == (3.0, -1.0)
    with pytest.raises(ValueError):
        StepPotential(breakpoints=(), pieces=(), tails=((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        StepPotential(breakpoints=(1.0, 0.0), pieces=((0, 0),),
                      tails=((0, 0), (0, 0)))


def test_coefficient_matrix_square_is_scalar():
    rng = np.random.default_rng(41)
    for _ in range(50):
        p, q = rng.normal(size=2)
        z = complex(rng.normal(), rng.normal())
        k = coefficient_matrix(p, q, z)
        np.testing.assert_allclose(np.trace(k), 0.0, atol=1e-14)
        np.testing.assert_allclose(k @ k, (p * p + q * q - z * z) * np.eye(2),
                                   atol=1e-12)


def test_transfer_cocycle_and_det():
    w = StepPotential(breakpoints=(0.0, 0.7, 1.3), pieces=((1.0, 0.5), (-0.4, 0.9)),
                      tails=((0.2, 0.0), (0.0, -0.8)))
    z = 0.6 + 0.8j
    t_all = transfer(w, -0.5, 2.0, z)
    t_two = transfer(w, 1.0, 2.0, z) @ transfer(w, -0.5, 1.0, z)
    np.testing.assert_allclose(t_all, t_two, atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(t_all), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        transfer(w, 1.0, 0.0, z)


def test_const_weyl_is_riccati_fixed_point():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p, q = rng.normal(size=2)
        z = complex(rng.normal(), abs(rng.normal()) + 0.1)
        pair = const_weyl(p, q, z)
        # m_plus is the attracting fixed point of the Riccati flow
        # m' = (p - z) - 2 q m - (p + z) m^2 and -m_minus is the other
        # algebraic root of the same quadratic
        for m in (pair.m_plus, -pair.m_minus):
            assert abs((p - z) - 2.0 * q * m - (p + z) * m * m) < 1e-9
        assert pair.m_plus.imag > 0


def test_const_weyl_free_case():
    pair = const_weyl(0.0, 0.0, 0.5j)
    np.testing.assert_allclose(pair.m_plus, 1j, atol=1e-14)
    np.testing.assert_allclose(pair.m_minus, 1j, atol=1e-14)


def test_dichotomy_degenerates_on_bands():
    # |t| > r puts z in the essential spectrum: no decaying direction;
    # the public routes guard with Im z > 0 before ever reaching this
    from kreindirac.dirac import _dichotomy
    with pytest.raises(DegenerateDichotomy):
        _dichotomy(0.0, 1.0, 5.0)
    with pytest.raises(ValueError):
        const_weyl(0.0, 1.0, 5.0)


def _constant_steps(p, q, z):
    """The constant potential (p, q) as a step potential with breakpoints
    at -l and l, l = 1 / max(1, r, |z|): the ODE route then transports
    through transfer matrices with exponents of order 1."""
    ell = 1.0 / max(1.0, math.hypot(p, q), float(np.abs(z).max()))
    return StepPotential((-ell, ell), ((p, q),), ((p, q), (p, q)))


def test_ode_weyl_matches_const_weyl():
    rng = np.random.default_rng(43)
    for _ in range(20):
        p, q = rng.normal(size=2)
        z = complex(rng.normal(), abs(rng.normal()) + 0.2)
        cw = const_weyl(p, q, z)
        ow = ode_weyl(_constant_steps(p, q, z), z)
        assert abs(cw.m_plus - ow.m_plus) < 1e-10
        assert abs(cw.m_minus - ow.m_minus) < 1e-10
    with pytest.raises(ValueError):
        ode_weyl(StepPotential.constant(1.0, 0.0), 2.0)  # needs Im z > 0


def test_ode_m_function_triangle():
    # constant (p, q) <-> uniform profile on the gap (-r, r): the ODE
    # route, the closed Weyl form and the gap construction coincide
    p, q = 3.0, 4.0
    prof = KreinProfile.uniform(GapSet(((-5.0, 5.0),)), 0.5 * math.atan2(q, p))
    zs = np.array([2j, 6j, 1.0 + 3.0j, -4.0 + 0.5j])
    mfun = ode_m_function(_constant_steps(p, q, zs))
    for z in zs:
        np.testing.assert_allclose(mfun(z), build_M(prof, z), atol=1e-8)
        np.testing.assert_allclose(assemble_M(const_weyl(p, q, z)),
                                   build_M(prof, z), atol=1e-8)


def test_weyl_routes_take_z_arrays():
    # one call over an array of z gives the per-z values
    w = StepPotential(breakpoints=(-0.4, 0.3, 1.1), pieces=((1.0, 0.5), (-0.4, 0.9)),
                      tails=((0.2, -0.7), (0.0, -0.8)))
    zs = np.array([0.5j, 1.0 + 2.0j, -3.0 + 0.1j, 40j])
    np.testing.assert_array_equal(coefficient_matrix(0.3, -0.2, zs),
                                  [coefficient_matrix(0.3, -0.2, z) for z in zs])
    ts = transfer(w, -1.0, 2.0, zs)
    assert ts.shape == (4, 2, 2)
    for z, t in zip(zs, ts):
        np.testing.assert_allclose(transfer(w, -1.0, 2.0, z), t, rtol=1e-14, atol=0)
    for pair, one in ((const_weyl(0.3, -0.2, zs), lambda z: const_weyl(0.3, -0.2, z)),
                      (ode_weyl(w, zs), lambda z: ode_weyl(w, z))):
        assert pair.m_plus.shape == pair.m_minus.shape == (4,)
        for k, z in enumerate(zs):
            single = one(z)
            assert isinstance(single.m_plus, complex)
            np.testing.assert_allclose([pair.m_plus[k], pair.m_minus[k]],
                                       [single.m_plus, single.m_minus], rtol=1e-14)
    mats = ode_m_function(w)(zs)
    assert mats.shape == (4, 2, 2)
    with pytest.raises(ValueError):
        ode_weyl(w, np.array([1j, 2.0]))  # one point off the upper half plane


def test_march_single_gap_is_constant():
    prof = KreinProfile.uniform(GapSet(((-1.0, 1.0),)), math.pi / 4)
    for s in sample_potential(prof, np.linspace(0.0, 2.0, 9)):
        assert abs(s.norm - 1.0) < 1e-10
        assert abs(s.p) < 1e-10
        assert abs(s.q - 1.0) < 1e-10


def test_march_off_center_gap_rotates():
    # gap (c - r, c + r): the orbit is the rigid rotation
    # (p + iq)(x) = exp(2 i c x) (p + iq)(0) with the norm pinned at r
    c, r, alpha = 1.5, 1.0, 0.7
    prof = KreinProfile.uniform(GapSet(((c - r, c + r),)), alpha)
    w0 = trace_formula_W0(prof)
    np.testing.assert_allclose([w0.p, w0.q],
                               [math.cos(2 * alpha), math.sin(2 * alpha)],
                               atol=1e-14)
    for s in sample_potential(prof, np.linspace(0.0, 1.0, 5)):
        pred = (w0.p + 1j * w0.q) * np.exp(2j * c * s.x)
        assert abs((s.p + 1j * s.q) - pred) < 1e-7
        assert abs(s.norm - r) < 1e-12


# march values of off-centre profiles on xgrid = linspace(0, 0.5, 6), frozen
# from the march in the original frame (before the co-rotating frame): the
# march now runs every profile in its co-rotating frame, so only these
# values check the gauge identity independently
OFF_CENTRE_MARCHES = [
    (((3.0, 3.5), (4.5, 5.2)), (0.4, 0.4), [
        (0.4180240256083, 0.4304136545397), (-0.0391852646763, 0.5922938451790),
        (-0.4514252685124, 0.3552109999811), (-0.5345224463097, -0.0939571170474),
        (-0.2614016134226, -0.4249490752085), (0.1318668045930, -0.4237049030677)]),
    (((-7.0, -6.4), (8.0, 8.5)), (0.2, 1.2), [
        (0.0919698693156, 0.2856912978304), (0.0231424646782, -0.4392324543745),
        (0.0133269707551, -0.3655373033829), (-0.1452649393535, 0.3563014632057),
        (-0.1543098881243, 0.3940794509213), (0.2143306527886, -0.2391611209124)]),
    (((20.0, 20.4), (21.0, 21.5), (22.3, 22.8)), (0.9, 0.9, 0.9), [
        (-0.1590414662852, 0.6816933416147), (0.6757738879606, -0.1372341404194),
        (-0.3880313622808, -0.5321199989715), (-0.2971298283664, 0.5304192959412),
        (0.5377621729845, 0.0429565309081), (-0.1574841886445, -0.4276066659109)]),
]


@pytest.mark.parametrize("gaps, angles, frozen", OFF_CENTRE_MARCHES)
def test_march_off_centre_frozen_values(gaps, angles, frozen):
    ss = sample_potential(KreinProfile(GapSet(gaps), angles), np.linspace(0.0, 0.5, 6))
    for s, (p, q) in zip(ss, frozen):
        assert abs(complex(s.p - p, s.q - q)) < 1e-7


@pytest.mark.parametrize("c", [100.0, -100.0])
def test_march_far_gap_follows_the_rotation_law(c):
    # far from 0 the orbit is the rotation e^{2icx} W(0); its sign checks
    # the turn back out of the co-rotating frame
    prof = KreinProfile.uniform(GapSet(((c - 0.25, c + 0.25),)), 1.1)
    w0 = trace_formula_W0(prof)
    for s in sample_potential(prof, np.linspace(0.0, 0.5, 6)):
        pred = (w0.p + 1j * w0.q) * np.exp(2j * c * s.x)
        assert abs((s.p + 1j * s.q) - pred) < 1e-7


def test_march_takes_one_trace_evaluation_per_state(monkeypatch):
    # every march state costs one trace-formula evaluation: each congruence
    # step makes one state per stack, and accepted states carry their
    # (p, q) along.  Stacked passes hold several states, so states are
    # counted as stack columns over the node count, not as calls
    counts = {"trace": 0, "cong": 0}
    trace_pq, congruence_step = dirac._trace_pq, dirac._congruence_step

    def counted_trace(states, wq):
        counts["trace"] += states[0].size // (wq.shape[1] // 2)
        return trace_pq(states, wq)

    def counted_cong(states, ts, *args):
        out = congruence_step(states, ts, *args)
        counts["cong"] += out[0].size // ts.size
        return out

    monkeypatch.setattr(dirac, "_trace_pq", counted_trace)
    monkeypatch.setattr(dirac, "_congruence_step", counted_cong)
    gaps, alpha = TAYLOR_PROFILE
    sample_potential(KreinProfile.uniform(GapSet(gaps), alpha), [0.0, 0.1, 0.2, 0.3])
    assert counts["cong"] > 0
    assert counts["trace"] <= 1.2 * counts["cong"] + 2


@pytest.mark.parametrize("coarse_overflows", [True, False])
def test_fine_step_errors_count_only_after_a_finite_coarse_step(monkeypatch, coarse_overflows):
    # the first stacked pass reports a branch cut error on its fine stack;
    # as in a sequential march it is raised only if the coarse step stays
    # finite and off the cut, and an overflowed coarse step is a rejected
    # trial instead
    trace_pq = dirac._trace_pq
    injected = []

    def faulty(states, wq):
        pq, errors = trace_pq(states, wq)
        if len(errors) == 2 and not injected:
            injected.append(True)
            errors[1] = SpectrumOnCut("injected")
            if coarse_overflows:
                pq[:, 0] = np.nan
        return pq, errors

    monkeypatch.setattr(dirac, "_trace_pq", faulty)
    prof = KreinProfile.uniform(GapSet(WITNESS_GAPS), 0.7)
    if coarse_overflows:
        assert len(sample_potential(prof, [0.0, 0.1])) == 2
    else:
        with pytest.raises(SpectrumOnCut, match="injected"):
            sample_potential(prof, [0.0, 0.1])
    assert injected


def _states(mats):
    # symmetric (N, 2, 2) matrices as one (3, 1, N) stack of march states
    return np.stack((mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]))[:, None]


def _per_node(n):
    # trace_pq weights that return each node's density instead of a sum:
    # rule k is node k, over pi, read off the imaginary parts
    wq = np.zeros((n, 2 * n))
    wq[:, 1::2] = np.eye(n) / np.pi
    return wq


def _near_confluent(rng, n):
    # complex symmetric det = -1 matrices h I + N with a small traceless
    # part N = eps [[u, b], [b, -u]] and h^2 = eps^2 (u^2 + b^2) - 1,
    # Im h > 0, on both sides of the JORDAN_TOL confluence threshold
    eps = np.logspace(-12, -2, n)
    u, b = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    u, b = eps * u, eps * b
    h = np.sqrt(u * u + b * b - 1.0)
    h = np.where(h.imag < 0, -h, h)
    return np.stack([np.array([[hk + uk, bk], [bk, hk - uk]]) for hk, uk, bk in zip(h, u, b)])


def _kernel_cases():
    gs = GapSet(WITNESS_GAPS)
    ts, _ = dirac._gap_nodes(gs, 20)
    rng = np.random.default_rng(9)
    return {
        # real gap values of aligned profiles
        "aligned": build_M(KreinProfile.uniform(gs, 0.7), ts),
        # complex gap values of mismatched angles, |Im M| up to about 0.2
        "witness": build_M(KreinProfile(gs, WITNESS_ANGLES), ts),
        "mismatched": build_M(KreinProfile(gs, (0.0, 1.2)), ts),
        "near_confluent": _near_confluent(rng, 40),
    }


@pytest.mark.parametrize("kind", ["aligned", "witness", "mismatched", "near_confluent"])
def test_trace_kernel_matches_the_matrix_log(kind):
    # the fused trace density is the traceless part of Im log(M)/pi
    mats = _kernel_cases()[kind]
    if kind == "mismatched":
        assert 0.1 < np.abs(mats.imag).max() <= 0.2
    xi = im_part(mlog_spectral(mats)) / np.pi
    pq, errors = dirac._trace_pq(_states(mats), _per_node(len(mats)))
    assert errors == [None]
    np.testing.assert_allclose(pq[0, 0], 0.5 * (xi[:, 0, 0] - xi[:, 1, 1]), rtol=0, atol=1e-13)
    np.testing.assert_allclose(pq[1, 0], xi[:, 0, 1], rtol=0, atol=1e-13)


def test_congruence_step_matches_the_propagator():
    # T M T^t with T = exp(h K(p, q, t)) per node, on two stacks with their
    # own (p, q, h): hyperbolic nodes (|t| < ||W||), rotational ones, and
    # t = 0.5 where kappa = 0 for (p, q) = (0, 0.5), so T = I + h K there
    ts = np.array([-2.0, -0.5, 0.1, 0.5, 1.7])
    mats = _kernel_cases()["witness"][:5]
    pqh = [(0.0, 0.5, 0.3), (-0.4, 0.7, 0.05)]
    cols = [np.array([[v[k]] for v in pqh], dtype=complex) for k in range(3)]
    states = np.concatenate([_states(mats)] * 2, axis=1)
    out = dirac._congruence_step(states, ts.astype(complex)[None], *cols)
    for k, (p, q, h) in enumerate(pqh):
        t = np.array([mexp(h * coefficient_matrix(p, q, tk)) for tk in ts])
        ref = t @ mats @ np.transpose(t, (0, 2, 1))
        ref /= np.sqrt(-np.linalg.det(ref))[:, None, None]
        np.testing.assert_allclose(out[:, k], [ref[:, 0, 0], ref[:, 0, 1], ref[:, 1, 1]],
                                   rtol=0, atol=1e-13)


def test_pin_rescales_and_drops_lost_determinants():
    # b^2 - ad is 1 up to rounding after a congruence: such a node is
    # rescaled onto det = -1, and a node whose determinant cancelled away
    # (entries near 1e15) becomes NaN, which the march rejects
    big = 4e15
    states = np.array([[[2.0, big]], [[1.5 * (1 + 1e-10), big * (1 + 1e-15)]],
                       [[0.625, big]]], dtype=complex)
    with np.errstate(invalid="ignore"):  # as in the march
        a, b, d = dirac._pin(states.copy())
    assert abs(b[0, 0] ** 2 - a[0, 0] * d[0, 0] - 1.0) < 1e-15
    assert np.isnan([a[0, 1], b[0, 1], d[0, 1]]).all()


def _rotated(eigs, angle):
    # the symmetric matrix Q diag(eigs) Q^t for a real rotation Q
    c, s = math.cos(angle), math.sin(angle)
    q = np.array([[c, -s], [s, c]])
    return q @ np.diag(eigs).astype(complex) @ q.T


@pytest.mark.parametrize("eigs", [
    (-2j, -0.5j),                          # both eigenvalues on the cut
    (1e-15 - 2j, -1.0 / (1e-15 - 2j)),     # within the cut tolerance
    (1e-6 - 2j, -1.0 / (1e-6 - 2j)),       # just off it
    (2.0, -0.5),                           # real, the negative one limits from above
    (1j, 1j),                              # confluent, on the imaginary axis
])
def test_trace_kernel_refuses_the_cut_where_mlog_does(eigs):
    good = _kernel_cases()["witness"]
    mats = np.concatenate([good[:3], [_rotated(eigs, 0.4)], good[3:6]])
    try:
        mlog_spectral(mats)
        expected = None
    except SpectrumOnCut:
        expected = SpectrumOnCut
    # three stacks: the matrices above, a clean one, and one that overflowed
    states = np.concatenate([_states(mats), _states(good[:7]), _states(good[:7])], axis=1)
    states[1, 2, 4] = np.inf
    # the march evaluates overflowed states under the same errstate
    with np.errstate(invalid="ignore", over="ignore"):
        pq, errors = dirac._trace_pq(states, _per_node(7))
    assert errors[1] is None and errors[2] is None
    if expected is None:
        assert errors[0] is None
    else:
        assert isinstance(errors[0], SpectrumOnCut)
        assert "lies on the branch cut" in str(errors[0])
    assert np.isnan(pq[:, 2]).all() and np.isfinite(pq[:, 1]).all()


def test_march_two_gap_frozen_values():
    gaps, alpha = TAYLOR_PROFILE
    prof = KreinProfile.uniform(GapSet(gaps), alpha)
    ss = sample_potential(prof, [0.0, 0.1, 0.2, 0.3])
    qs = [s.q for s in ss]
    assert abs(qs[0] - 1.0) < 1e-12
    assert abs(qs[1] - Q_AT_01) < 1e-6
    assert abs(qs[2] - Q_AT_02) < 1e-6
    assert abs(qs[3] - Q_AT_03) < 1e-6
    # p stays zero along this symmetric orbit
    assert max(abs(s.p) for s in ss) < 1e-10
    # small-x law: q(x) = 1 - 4 x^2 + O(x^4)
    fine = sample_potential(prof, [0.0, 0.005, 0.01], loc_tol=1e-10)
    qpp = (fine[2].q - 2 * fine[1].q + fine[0].q) / 0.005 ** 2
    assert abs(qpp + 8.0) < 1e-3


def test_march_derivative_against_large_z_fit():
    # independent route to W'(0): fit m_plus(iy) = i + g1/z + g2/z^2 + ...
    # and use q' + i p' = 2 i g2 - (q^2 - p^2) - 2 i p q at x = 0
    prof = KreinProfile.uniform(GapSet(WITNESS_GAPS), math.pi / 3)
    ys = np.array([300.0, 420.0, 600.0, 850.0, 1200.0, 1700.0])
    rows = np.array([[(1j * y) ** -k for k in range(1, 5)] for y in ys])
    vals = np.array([weyl_from_M(build_M(prof, 1j * y)).m_plus - 1j for y in ys])
    g1, g2, _, _ = np.linalg.lstsq(rows, vals, rcond=None)[0]
    w0 = trace_formula_W0(prof)
    np.testing.assert_allclose(g1, -(w0.q + 1j * w0.p), atol=1e-6)
    slope_law = 2j * g2 - (w0.q ** 2 - w0.p ** 2) - 2j * w0.p * w0.q
    ss = sample_potential(prof, [0.0, 0.01, 0.02], loc_tol=1e-10)
    dq = (-3 * ss[0].q + 4 * ss[1].q - ss[2].q) / 0.02
    dp = (-3 * ss[0].p + 4 * ss[1].p - ss[2].p) / 0.02
    assert abs(complex(dq, dp) - slope_law) < 1e-3


def test_march_respects_sharp_bound_for_aligned():
    rng = np.random.default_rng(45)
    for _ in range(5):
        gs = GapSet(WITNESS_GAPS)
        prof = KreinProfile.uniform(gs, float(rng.uniform(0.0, math.pi)))
        bound = sharp_bound(gs)
        for s in sample_potential(prof, np.linspace(0.0, 0.5, 6)):
            assert s.norm <= bound + 1e-10


def test_march_flags_witness_profile():
    # non-commuting projections: the formal M function is not Herglotz and
    # its orbit crosses the sharp bound; the certificate carries the
    # samples accepted before the crossing
    prof = KreinProfile(GapSet(WITNESS_GAPS), WITNESS_ANGLES)
    with pytest.raises(BoundViolation) as info:
        sample_potential(prof, np.linspace(0.0, 0.8, 17))
    assert "sharp bound" in str(info.value)
    partial = info.value.samples
    assert partial and abs(partial[-1].x - 0.5) < 1e-12


def test_march_gapless_profile():
    prof = KreinProfile(GapSet(()), ())
    for s in sample_potential(prof, [0.0, 1.0, 2.0]):
        assert s.norm == 0.0


def test_march_validates_xgrid():
    prof = KreinProfile.uniform(GapSet(((-1.0, 1.0),)), 0.4)
    with pytest.raises(ValueError):
        sample_potential(prof, [0.5, 1.0])  # must start at 0
    with pytest.raises(ValueError):
        sample_potential(prof, [0.0, 0.2, 0.1])  # not increasing


def test_march_loc_tol_refinement_consistency():
    prof = KreinProfile.uniform(GapSet(WITNESS_GAPS), math.pi / 4)
    loose = sample_potential(prof, [0.0, 0.3], loc_tol=1e-6)[-1].q
    tight = sample_potential(prof, [0.0, 0.3], loc_tol=1e-9)[-1].q
    assert abs(loose - tight) < 1e-5
    assert abs(tight - Q_AT_03) < 1e-7
