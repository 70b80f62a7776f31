"""Dirac system oracles and the potential march."""

import math
import warnings

import numpy as np
import pytest

from kreindirac import (
    GapSet,
    KreinProfile,
    assemble_M,
    build_M,
    const_weyl,
    ode_weyl,
    sample_potential,
    sharp_bound,
    trace_formula_W0,
    weyl_from_M,
)
from kreindirac import dirac
from kreindirac.dirac import coefficient_matrix
from kreindirac.errors import BoundViolation, DegenerateDichotomy, SpectrumOnCut
from kreindirac.mat2 import JORDAN_TOL, im_part, mexp, mlog_spectral

WITNESS_GAPS = ((-2.0, -1.0), (1.0, 2.0))
WITNESS_ANGLES = (0.3, 1.9)

# march values for the aligned two-gap profile, frozen from converged runs
# (the congruence march at local tolerances 1e-6 to 1e-10 and the Abel
# inversion agree at x = 0.3 to 1e-9, and the small-x law
# q(x) = 1 - 4 x^2 + O(x^4) matches to the quartic term)
TAYLOR_PROFILE = (WITNESS_GAPS, math.pi / 4)


def _congruence_march(prof, xs, loc_tol):
    """The grid samples (x, p, q) of the congruence march of a profile on
    centred gaps at an explicit local tolerance; sample_potential sends
    commuting profiles to the Abel inversion, which has no step tolerance."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return [(x, p, q) for x, p, q, _, on_grid
                in dirac._congruence_orbit(prof, np.asarray(xs, dtype=float), loc_tol) if on_grid]
Q_AT_01 = 0.960136319578
Q_AT_02 = 0.842317450331
Q_AT_03 = 0.652766370017


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
    # the transfer matrix exp(l K) of the constant potential, which
    # ode_weyl transports by, composes along x and has determinant one
    p, q, z = 1.0, 0.5, 0.6 + 0.8j
    k = coefficient_matrix(p, q, z)
    t_all = mexp(2.5 * k)
    np.testing.assert_allclose(t_all, mexp(1.0 * k) @ mexp(1.5 * k), atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(t_all), 1.0, atol=1e-12)


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


@pytest.mark.parametrize("z", [1e308 + 1e308j, 1e200 + 1e200j])
def test_const_weyl_far_out_raises_degenerate_dichotomy(z):
    # lambda^2 = p^2 + q^2 - z^2 overflows: the dichotomy check refuses the
    # non-finite lambda, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDichotomy, match="^Re lambda = inf"):
            const_weyl(0.3, 0.4, np.array([z]))


def _ell(p, q, z):
    """l = 1 / max(1, r, |z|): the ODE route then transports through a
    transfer matrix whose exponent is of order 1."""
    return 1.0 / max(1.0, math.hypot(p, q), float(np.abs(z).max()))


def test_ode_weyl_matches_const_weyl():
    rng = np.random.default_rng(43)
    for _ in range(20):
        p, q = rng.normal(size=2)
        z = complex(rng.normal(), abs(rng.normal()) + 0.2)
        cw = const_weyl(p, q, z)
        ow = ode_weyl(p, q, _ell(p, q, z), z)
        assert abs(cw.m_plus - ow.m_plus) < 1e-10
        assert abs(cw.m_minus - ow.m_minus) < 1e-10
    with pytest.raises(ValueError):
        ode_weyl(1.0, 0.0, 1.0, 2.0)  # needs Im z > 0


def test_ode_route_triangle():
    # constant (p, q) <-> uniform profile on the gap (-r, r): the ODE
    # route, the closed Weyl form and the gap construction coincide
    p, q = 3.0, 4.0
    prof = KreinProfile.uniform(GapSet(((-5.0, 5.0),)), 0.5 * math.atan2(q, p))
    zs = np.array([2j, 6j, 1.0 + 3.0j, -4.0 + 0.5j])
    ell = _ell(p, q, zs)
    for z in zs:
        np.testing.assert_allclose(assemble_M(ode_weyl(p, q, ell, z)), build_M(prof, z),
                                   atol=1e-8)
        np.testing.assert_allclose(assemble_M(const_weyl(p, q, z)),
                                   build_M(prof, z), atol=1e-8)


def test_weyl_routes_take_z_arrays():
    # one call over an array of z gives the per-z values
    zs = np.array([0.5j, 1.0 + 2.0j, -3.0 + 0.1j, 40j])
    np.testing.assert_array_equal(coefficient_matrix(0.3, -0.2, zs),
                                  [coefficient_matrix(0.3, -0.2, z) for z in zs])
    for pair, one in ((const_weyl(0.3, -0.2, zs), lambda z: const_weyl(0.3, -0.2, z)),
                      (ode_weyl(0.3, -0.2, 0.7, zs), lambda z: ode_weyl(0.3, -0.2, 0.7, z))):
        assert pair.m_plus.shape == pair.m_minus.shape == (4,)
        for k, z in enumerate(zs):
            single = one(z)
            assert isinstance(single.m_plus, complex)
            np.testing.assert_allclose([pair.m_plus[k], pair.m_minus[k]],
                                       [single.m_plus, single.m_minus], rtol=1e-14)
    mats = assemble_M(ode_weyl(0.3, -0.2, 0.7, zs))
    assert mats.shape == (4, 2, 2)
    with pytest.raises(ValueError):
        ode_weyl(0.3, -0.2, 0.7, np.array([1j, 2.0]))  # one point off the upper half plane


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
    # every march state costs one trace-formula evaluation, one call of the
    # stage kernel: the twelve new stages of a DOP853 step, where the state
    # and its companion ride as two stacks of one call that also writes
    # their rates, and the step's fifth-order state, for its error
    # estimate, without rates.  Accepted states carry their (p, q) along
    calls = {"trace": 0, "rates": 0}
    stacks = set()
    stage = dirac._stage

    def counted(ws, states, rates=None):
        calls["trace"] += 1
        stacks.add(states.shape[1])
        pq, errors = stage(ws, states, rates)
        if rates is not None:
            calls["rates"] += 1
            # each stack is driven by its own (p, q), as the written-out
            # formula with (S, 1) columns of the first rule's values
            p, q = pq[0, :, :1], pq[1, :, :1]
            assert p.shape == q.shape == (states.shape[1], 1)
            np.testing.assert_array_equal(rates, _ref_rates(states, ws.tt[1], p, q))
        return pq, errors

    monkeypatch.setattr(dirac, "_stage", counted)
    # mismatched angles take the congruence march
    sample_potential(KreinProfile(GapSet(WITNESS_GAPS), WITNESS_ANGLES), [0.0, 0.1, 0.2, 0.3])
    # one rate at x = 0, then twelve per attempted step, and at most one
    # error trace per attempt
    attempts, rest = divmod(calls["rates"] - 1, 12)
    assert attempts > 0 and rest == 0
    assert calls["trace"] <= 13 * attempts + 1
    assert max(stacks) <= 2


def test_march_tableau_is_the_dop853_pair():
    # the nodes of DOP853, the last one that of the rate at the new point
    c4 = (6.0 - math.sqrt(6.0)) / 30.0
    c = np.array([4.0 * c4 / 9.0, 2.0 * c4 / 3.0, c4, (6.0 + math.sqrt(6.0)) / 30.0,
                  1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0, 1.0])
    rows = dirac._DP_A
    assert [len(row) for row in rows] == list(range(1, 13))
    assert np.allclose([row.sum() for row in rows], c, rtol=0.0, atol=1e-14)
    # the eighth-order weights integrate t^(k-1) exactly for k = 1, ..., 8,
    # over the nodes of the stages they weight (the first one at 0)
    b, nodes = rows[-1], np.concatenate([[0.0], c[:-1]])
    for k in range(1, 9):
        assert b @ nodes ** (k - 1) == pytest.approx(1.0 / k, abs=1e-14)
    assert len(dirac._DP_E5) == 13
    assert abs(dirac._DP_E5.sum()) < 1e-14

    def step(lam, h):
        # one step of y' = lam y from y = 1: the eighth-order solution and
        # the embedded fifth-order one
        ks = np.empty(13, dtype=complex)
        ks[0] = lam
        for i, row in enumerate(rows, 1):
            ks[i] = lam * (1.0 + h * (row @ ks[:i]))
        y8 = 1.0 + h * (b @ ks[:12])
        return y8, y8 - h * (dirac._DP_E5 @ ks)

    for lam in (1j, -1.0):
        coarse, fine = (np.abs(np.array(step(lam, h)) - np.exp(lam * h)) for h in (0.5, 0.25))
        # halving h divides the errors by about 2^9 and 2^6
        assert np.log2(coarse / fine) == pytest.approx([9.0, 6.0], abs=0.5)


@pytest.mark.parametrize("fault", ["overflow", "main_cut", "companion_cut"])
def test_stage_faults_reject_the_step_or_raise(monkeypatch, fault):
    # a fault injected into the first stage of the first step: an
    # overflowed stage (an inf entry, whose (p, q) the kernel reports as
    # NaN) is a rejected step, a branch cut on the finite main state
    # raises, and one hit by the companion alone is not an error
    stage = dirac._stage
    calls = []
    inject = []

    def faulty(ws, states, rates=None):
        calls.append(states.shape[1])
        if inject and len(calls) == 2 and fault == "overflow":  # the first stage past x = 0
            states[1, 0, 3] = np.inf
        pq, errors = stage(ws, states, rates)
        if inject and len(calls) == 2:
            if fault == "overflow":
                assert np.isnan(pq[:, 0]).all() and np.isfinite(pq[:, 1]).all()
            else:
                errors[fault == "companion_cut"] = SpectrumOnCut("injected")
        return pq, errors

    monkeypatch.setattr(dirac, "_stage", faulty)
    prof = KreinProfile(GapSet(WITNESS_GAPS), WITNESS_ANGLES)
    sample_potential(prof, [0.0, 0.1])
    clean = len(calls)
    calls.clear()
    inject.append(True)
    if fault == "main_cut":
        with pytest.raises(SpectrumOnCut, match="injected"):
            sample_potential(prof, [0.0, 0.1])
    else:
        samples = sample_potential(prof, [0.0, 0.1])
        assert len(samples) == 2 and np.isfinite([samples[-1].p, samples[-1].q]).all()
    assert calls[:2] == [2, 2]
    if fault == "overflow":
        # the rejected step is retried: 13 more kernel calls than a clean march
        assert len(calls) == clean + 13


def _states(mats):
    # symmetric (N, 2, 2) matrices as one (3, 1, N) stack of march states
    return np.stack((mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]))[:, None]


def _stage(states, wq, ts=None, rates=None):
    # the stage kernel on a fresh workspace for the states' stacks, their
    # nodes ts (any, when no rates are asked for) and the rules wq
    ws = dirac._Workspace(np.zeros(states.shape[2]) if ts is None else ts, wq, states.shape[1])
    return dirac._stage(ws, states, rates)


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
    pq, errors = _stage(_states(mats), _per_node(len(mats)))
    assert errors == [None]
    np.testing.assert_allclose(pq[0, 0], 0.5 * (xi[:, 0, 0] - xi[:, 1, 1]), rtol=0, atol=1e-13)
    np.testing.assert_allclose(pq[1, 0], xi[:, 0, 1], rtol=0, atol=1e-13)


def test_an_overflowing_pair_reads_as_a_non_finite_stack():
    # finite states whose u^2 + b^2 overflows, here by a traceless part
    # u = 1e200, have the eigenvalues (+/-inf + i Im h), which the cut test
    # flags: the stack reads NaN, for the step control to reject, and
    # raises no SpectrumOnCut (a march that raised it lost the
    # BoundViolation of a witness on a far grid)
    mats = _kernel_cases()["witness"]
    far = _states(mats) + np.array([1e200, 0.0, -1e200])[:, None, None]
    states = np.concatenate([_states(mats), far], axis=1)
    assert np.isfinite(states).all()
    with np.errstate(all="ignore"):
        pq, errors = _stage(states, _per_node(len(mats)))
    assert errors == [None, None]
    assert np.isnan(pq[:, 1]).all()
    ref, _ = _stage(_states(mats), _per_node(len(mats)))
    np.testing.assert_array_equal(pq[:, 0], ref[:, 0])


def test_congruence_rates_match_the_generator():
    # K M + M K^t with K = K(p, q, t) per node, on two stacks with their
    # own (p, q), the kernel's trace values, at hyperbolic nodes
    # (|t| < ||W||) and rotational ones
    ts = np.array([-2.0, -0.5, 0.1, 0.5, 1.7])
    cases = _kernel_cases()
    stacks = [cases["witness"][:5], cases["mismatched"][5:10]]
    states = np.concatenate([_states(m) for m in stacks], axis=1)
    # the first rule sums all five nodes, scaled so that the first stack's
    # ||W|| is 0.6: three of the nodes are hyperbolic for it
    wq = np.zeros((1, 10))
    wq[0, 1::2] = 1.0
    pq, _ = _stage(states, wq)
    wq *= 0.6 / math.hypot(*pq[:, 0, 0])
    out = np.empty_like(states)
    pq, errors = _stage(states, wq, ts, out)
    assert errors == [None, None]
    assert math.hypot(*pq[:, 0, 0]) == pytest.approx(0.6, rel=1e-12)
    assert abs(pq[0, 0, 0] - pq[0, 1, 0]) > 1e-3
    for k, mats in enumerate(stacks):
        p, q = pq[:, k, 0]
        kk = np.array([coefficient_matrix(p, q, tk) for tk in ts])
        ref = kk @ mats + mats @ np.transpose(kk, (0, 2, 1))
        np.testing.assert_allclose(out[:, k], [ref[:, 0, 0], ref[:, 0, 1], ref[:, 1, 1]],
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("angles, dtype", [((0.7, 0.7), float), (WITNESS_ANGLES, complex),
                                           ((0.7, 0.7 + math.pi / 2), float)])
def test_uniform_marches_carry_real_states(monkeypatch, angles, dtype):
    # a commuting profile, uniform or orthogonal, solves for its Dirichlet
    # divisor, 2 n real angles, on its Abel map and never marches a
    # boundary matrix; mismatched angles, whose gap values are complex,
    # keep the congruence march of complex boundary matrices
    seen = {}
    abel_map, stage = dirac._abel_map, dirac._stage

    def traced_map(a, b):
        abel, period = abel_map(a, b)

        def traced_abel(phi):
            value, jac = abel(phi)
            seen.setdefault("_abel_map", set()).update((value.dtype, jac.dtype))
            return value, jac
        return traced_abel, period

    def traced_stage(ws, states, rates=None):
        out = stage(ws, states, rates)
        seen.setdefault("_stage", set()).update({states.dtype} | (
            set() if rates is None else {rates.dtype}))
        return out

    monkeypatch.setattr(dirac, "_abel_map", traced_map)
    monkeypatch.setattr(dirac, "_stage", traced_stage)
    sample_potential(KreinProfile(GapSet(WITNESS_GAPS), angles), [0.0, 0.1])
    route = "_abel_map" if dtype is float else "_stage"
    assert seen == {route: {np.dtype(dtype)}}


def test_gap_nodes_are_the_legendre_rules():
    # the rules are computed once and kept; the nodes and weights are
    # numpy's, bit for bit
    gs = GapSet(WITNESS_GAPS)
    for n in (14, 20):
        u, w = np.polynomial.legendre.leggauss(n)
        for _ in range(2):
            ts, ws = dirac._gap_nodes(gs, n)
            np.testing.assert_array_equal(ts, np.concatenate([-1.5 + 0.5 * u, 1.5 + 0.5 * u]))
            np.testing.assert_array_equal(ws, np.concatenate([0.5 * w, 0.5 * w]))


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


def test_workspace_keeps_no_state():
    # a stage run after the workspace has served a NaN, an inf, a cut and
    # near-confluent matrices gives the same bits as on a fresh workspace:
    # each call writes every buffer it reads
    cases = _kernel_cases()
    n = len(cases["witness"])
    ts = np.linspace(-2.5, 2.5, n)
    wq = np.zeros((2, 2 * n))
    wq[:, 1::2] = np.random.default_rng(5).uniform(0.0, 1.0, (2, n))
    clean = np.concatenate([_states(cases["witness"]), _states(cases["mismatched"])], axis=1)
    faulty = clean.copy()
    faulty[0, 0, 3], faulty[2, 1, 5] = np.nan, np.inf
    cut = clean.copy()
    cut[:, 0, n // 2] = _states(_rotated((1e-15 - 2j, -1.0 / (1e-15 - 2j)), 0.4)[None])[:, 0, 0]
    conf = np.concatenate([_states(cases["near_confluent"])] * 2, axis=1)

    def run(ws):
        rates = np.empty_like(clean)
        pq, errors = dirac._stage(ws, clean, rates)
        return pq.copy(), errors, rates

    fresh = run(dirac._Workspace(ts, wq, 2))
    ws = dirac._Workspace(ts, wq, 2)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        pq, _ = dirac._stage(ws, faulty, np.empty_like(faulty))
        assert np.isnan(pq).all()
        _, errors = dirac._stage(ws, cut, np.empty_like(cut))
        assert errors[0] is not None
        dirac._stage(ws, conf, np.empty_like(conf))
    again = run(ws)
    assert fresh[1] == again[1] == [None, None]
    for k in (0, 2):  # (p, q) and the rates, bit for bit
        assert again[k].tobytes() == fresh[k].tobytes()


def test_yielded_samples_do_not_change_as_the_march_goes_on():
    # two marches advanced in turn yield, row for row, what each yields
    # alone, so the two share no buffer; each row is Python floats and a
    # flag, so a row already yielded cannot change as the march reuses its
    # stage slots, stage buffer and accepted state
    xg = np.linspace(0.0, 0.8, 17)
    frames = [KreinProfile(GapSet(WITNESS_GAPS), angles) for angles in (WITNESS_ANGLES, (0.0, 1.2))]

    def hexed(row):
        return [v.hex() for v in row[:4]] + [row[4]]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        alone = [[hexed(row) for row in dirac._congruence_orbit(f, xg, 1e-8)] for f in frames]
        marches = [dirac._congruence_orbit(f, xg, 1e-8) for f in frames]
        rows, seen = [[], []], [[], []]
        for pair in zip(*marches):
            for k, row in enumerate(pair):
                assert [type(v) for v in row] == [float] * 4 + [bool]
                rows[k].append(row)
                seen[k].append(hexed(row))
    assert [len(r) for r in rows] == [len(a) for a in alone] == [33, 33]
    assert seen == alone
    assert [[hexed(row) for row in r] for r in rows] == alone


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
        pq, errors = _stage(states, _per_node(7))
    assert errors[1] is None and errors[2] is None
    if expected is None:
        assert errors[0] is None
    else:
        assert isinstance(errors[0], SpectrumOnCut)
        assert "lies on the branch cut" in str(errors[0])
    assert np.isnan(pq[:, 2]).all() and np.isfinite(pq[:, 1]).all()


# Reference kernel: the formulas of the march's trace and rate kernels and
# of the spectral exp and log, written out plainly.  The kernels compute the
# same values with fewer numpy calls, and must match these bit for bit (+0
# and -0 count as equal, NaN as equal to NaN).

def _ref_branch_log(w):
    ang = np.arctan2(w.imag, w.real)
    out = np.empty(w.shape, dtype=complex)
    out.real = np.log(np.abs(w))
    out.imag = np.where(ang < -0.5 * np.pi, ang + 2.0 * np.pi, ang)
    return out


def _ref_slope(lam, h, a01, a10, f, fprime):
    # divided difference of f on the pairs lam, fprime(h) where confluent
    mod = np.abs(lam)
    gap = lam[0] - lam[1]
    conf = np.abs(gap) <= JORDAN_TOL * (mod[0] + mod[1] + np.abs(a01) + np.abs(a10))
    f_lam = f(lam)
    s = (f_lam[0] - f_lam[1]) / (gap + conf)
    s[conf] = fprime(h[conf])
    return s, conf, f_lam


def _ref_on_cut(lam):
    # the eigenvalues within 1e-13 (relative) of the ray {-iy : y >= 0}
    mod = np.abs(lam)
    tol = 1e-13 * np.maximum(mod[0], mod[1])
    return (np.abs(lam.real) <= tol) & ((lam.imag < 0.0) | (mod <= tol))


def _ref_cut_message(lam, bad):
    k, i = np.argwhere(bad.T)[0]
    return f"eigenvalue {complex(lam[i, k])} lies on the branch cut"


def _ref_trace_pq(states, wq):
    a, b, d = states
    h, u = 0.5 * (a + d), 0.5 * (a - d)
    r = np.sqrt(u * u + b * b)
    lam = np.stack((h + r, h - r))
    sigma, _, _ = _ref_slope(lam, h, b, b, _ref_branch_log, np.reciprocal)
    pq = np.einsum("ijk,rk->ijr", np.stack((sigma * u, sigma * b)).view(float), wq)
    finite = np.isfinite(states).all(axis=(0, 2))
    pq[:, ~finite] = np.nan
    bad = _ref_on_cut(lam)
    return pq, [_ref_cut_message(lam[:, k], bad[:, k]) if ok and bad[:, k].any() else None
                for k, ok in enumerate(finite)]


def _ref_rates(states, ts, p, q):
    a, b, d = states
    pm, pp = p - ts, p + ts
    return np.stack((2.0 * (pm * b - q * a), pp * a + pm * d, 2.0 * (pp * b + q * d)))


def _ref_analytic(m, f, fprime):
    # f(A) = f(mu) I + s (A - mu I), mu = lam2, or the half trace where confluent
    h = 0.5 * (m[:, 0, 0] + m[:, 1, 1])
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    lam = h + np.array([[1.0], [-1.0]]) * np.sqrt(h * h - det)
    if f is _ref_branch_log and _ref_on_cut(lam).any():
        return _ref_cut_message(lam, _ref_on_cut(lam))
    s, conf, f_lam = _ref_slope(lam, h, m[:, 0, 1], m[:, 1, 0], f, fprime)
    mu = np.where(conf, h, lam[1])
    f_mu = np.where(conf, f(mu), f_lam[1])
    out = s[:, None, None] * m
    diag = f_mu - s * mu
    out[:, 0, 0] += diag
    out[:, 1, 1] += diag
    return out


@pytest.mark.parametrize("kind", ["aligned", "witness", "mismatched", "near_confluent"])
def test_kernels_are_bitwise_the_reference_formulas(kind):
    mats = _kernel_cases()[kind]
    n = len(mats)
    cut = mats.copy()
    cut[n // 2] = _rotated((1e-15 - 2j, -1.0 / (1e-15 - 2j)), 0.4)  # within the cut tolerance
    # stacks: the clean matrices, one with an inf, one with a NaN, one with
    # an eigenvalue on the cut, and the clean ones again
    states = np.concatenate([_states(m) for m in (mats, mats, mats, cut, mats)], axis=1)
    states[0, 1, 3] = np.inf
    states[1, 2, n - 1] = np.nan
    rng = np.random.default_rng(4)
    wq = np.zeros((2, 2 * n))
    wq[:, 1::2] = rng.uniform(0.0, 1.0, (2, n))
    # rates at real nodes, driven by each stack's float (p, q) columns of the
    # first rule, as in the march (NaN on the non-finite stacks)
    ts = np.linspace(-2.5, 2.5, n)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for w in (_per_node(n), wq):
            rates = np.empty_like(states)
            pq, errors = _stage(states, w, ts, rates)
            ref, messages = _ref_trace_pq(states, w)
            np.testing.assert_array_equal(pq, ref)
            assert [e if e is None else str(e) for e in errors] == messages
            assert messages[3] is not None and messages[1] is messages[2] is None
            np.testing.assert_array_equal(rates, _ref_rates(
                states, ts.astype(complex)[None], ref[0, :, :1], ref[1, :, :1]))
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(mexp(mats), _ref_analytic(mats, np.exp, np.exp))
    np.testing.assert_array_equal(mlog_spectral(mats),
                                  _ref_analytic(mats, _ref_branch_log, np.reciprocal))
    with pytest.raises(SpectrumOnCut) as err:
        mlog_spectral(cut)
    assert str(err.value) == _ref_analytic(cut, _ref_branch_log, np.reciprocal)


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
    fine = [q for _, _, q in _congruence_march(prof, [0.0, 0.005, 0.01], 1e-10)]
    qpp = (fine[2] - 2 * fine[1] + fine[0]) / 0.005 ** 2
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
    (_, p0, q0), (_, p1, q1), (_, p2, q2) = _congruence_march(prof, [0.0, 0.01, 0.02], 1e-10)
    dq = (-3 * q0 + 4 * q1 - q2) / 0.02
    dp = (-3 * p0 + 4 * p1 - p2) / 0.02
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
    loose = _congruence_march(prof, [0.0, 0.3], 1e-6)[-1][2]
    tight = _congruence_march(prof, [0.0, 0.3], 1e-9)[-1][2]
    assert abs(loose - tight) < 1e-5
    assert abs(tight - Q_AT_03) < 1e-7
