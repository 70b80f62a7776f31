"""Batched evaluation over point arrays and matrix stacks against one-point
evaluation and independent references."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kreindirac import (
    GapSet,
    KreinProfile,
    WeylPair,
    assemble_M,
    build_logM,
    build_M,
    krein_xi,
    mexp,
    mlog_spectral,
    profile_m_function,
    weyl_from_M,
)
from kreindirac.errors import (
    DegenerateEigenproblem,
    EndpointSingularity,
    KreinDiracError,
    NoConvergence,
    NotAdmissible,
)
from kreindirac.finitegap import ENDPOINT_MARGIN, boundary_reduce, reflectionless_reduce
from kreindirac import herglotz
from kreindirac.herglotz import (asymptotic_points, asymptotic_reduce, krein_xi_points,
                                 krein_xi_reduce)
from kreindirac.mat2 import I2, im_part, op_norm, re_part
from kreindirac.numerics import LIMIT_OFFSETS, LIMIT_ORDER, extrapolate_schedule


def _close(batched, reference, rtol):
    scale = max(1.0, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(batched - reference))) <= rtol * scale


unit = st.floats(0.0, 1.0)


@st.composite
def profile_and_points(draw):
    """A piecewise-constant profile with 0 to 64 gaps, whose angles are one
    angle, one angle flipped by pi/2 on some gaps, drawn from a pool of one
    to three, or all drawn, so that gap classes of one projection have one
    to 64 members; and a shuffled mix of upper-half-plane points, at
    heights down to 1e-9 and over gaps and bands, real points in E and real
    points inside gaps, all clear of the endpoint margins."""
    n = draw(st.integers(0, 64))
    a = draw(st.floats(-6.0, 0.0))
    gaps = []
    for _ in range(n):
        w = draw(st.floats(0.1, 2.0))
        gaps.append((a, a + w))
        a += w + draw(st.floats(0.1, 2.0))
    gs = GapSet(tuple(gaps))
    alpha = draw(st.floats(0.0, math.pi))
    kind = draw(st.sampled_from(["uniform", "flipped", "pool", "drawn"]))
    if kind == "uniform":
        angles = [alpha] * n
    elif kind == "flipped":
        angles = [alpha + 0.5 * math.pi * draw(st.integers(0, 1)) for _ in gaps]
    elif kind == "pool":
        pool = draw(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=3))
        angles = [draw(st.sampled_from(pool)) for _ in gaps]
    else:
        angles = [draw(st.floats(0.0, math.pi)) for _ in gaps]
    prof = KreinProfile(gs, tuple(angles))

    edges = [g[0] for g in gaps] + [g[1] for g in gaps]
    lo, hi = (min(edges), max(edges)) if gaps else (0.0, 0.0)
    height = st.floats(-9.0, 0.7).map(lambda e: 10.0 ** e)
    pts = [complex(draw(st.floats(lo - 4.0, hi + 4.0)), draw(height))
           for _ in range(draw(st.integers(1, 6)))]
    # real points in E: outside the hull of the gaps and in drawn bands
    pts.append(complex(lo - 0.1 - 3.0 * draw(unit)))
    pts.append(complex(hi + 0.1 + 3.0 * draw(unit)))
    some = st.lists(st.integers(0, max(n - 1, 0)), max_size=6, unique=True)
    bands = list(zip(gaps, gaps[1:]))
    for j in draw(some) if len(bands) else []:
        (_, b), (a2, _) = bands[j % len(bands)]
        t = b + (a2 - b) * (0.05 + 0.9 * draw(unit))
        pts += [complex(t), complex(t, draw(height))]
    # real points inside drawn gaps, and points just above them
    for j in draw(some) if gaps else []:
        g0, g1 = gaps[j]
        t = g0 + (g1 - g0) * (0.05 + 0.9 * draw(unit))
        pts += [complex(t), complex(t, draw(height))]
    order = draw(st.permutations(range(len(pts))))
    return prof, np.array([pts[i] for i in order])


def _logM_reference(profile, z):
    """The per-gap loop: (i pi/2) I + sum_j log((b_j - z)/(a_j - z)) (P_j - I/2)."""
    total = 0.5j * math.pi * np.eye(2, dtype=complex)
    for j, (a, b) in enumerate(profile.gapset.gaps):
        if z.imag > 0:
            lg = cmath.log((b - z) / (a - z))
        elif a < z.real < b:
            lg = complex(math.log((b - z.real) / (z.real - a)), math.pi)
        else:
            lg = complex(math.log((b - z.real) / (a - z.real)))
        total = total + lg * (profile.projection(j) - 0.5 * np.eye(2))
    return total


@given(profile_and_points())
@settings(max_examples=120, deadline=None)
def test_batched_build_agrees_with_points(case):
    prof, zs = case
    logs = build_logM(prof, zs)
    ms = build_M(prof, zs)
    assert logs.shape == ms.shape == (len(zs), 2, 2)
    for z, lg, m in zip(zs, logs, ms):
        np.testing.assert_array_equal(lg, build_logM(prof, complex(z)))
        np.testing.assert_array_equal(m, build_M(prof, complex(z)))
        assert _close(lg, _logM_reference(prof, complex(z)), 1e-12)


def test_class_products_of_many_gaps_keep_the_branch():
    # the arguments of a class's ratios sum to the angle its gaps subtend
    # at z, below pi however many gaps it has; just above a gap the sum
    # comes within rounding of pi
    gs = GapSet(tuple((3.0 * j, 3.0 * j + 2.0) for j in range(64)))
    zs = np.array([98.5 + 1e-9j, 98.5 + 1e-3j, 97.5 + 1e-9j, 96.7 + 1e-12j,
                   96.7 + 1e-300j, 100.0 + 5.0j, -50.0 + 1e-9j, 300.0 + 1.0j])
    uniform = KreinProfile.uniform(gs, 0.4)
    flipped = KreinProfile(gs, tuple(0.4 + 0.5 * math.pi * (j % 3 == 0) for j in range(64)))
    assert uniform.gap_classes == (tuple(range(64)),)
    assert [len(m) for m in flipped.gap_classes] == [42, 22]
    for prof in (uniform, flipped):
        for z, lg in zip(zs, build_logM(prof, zs)):
            assert _close(lg, _logM_reference(prof, complex(z)), 1e-12)


def test_class_products_that_round_below_the_axis_keep_the_branch():
    # the gaps cover the line but for two bands 1e-200 and 2^-52 wide, so
    # the product's argument is within rounding of pi, and rounds below it
    prof = KreinProfile.uniform(GapSet(((-1e200, -1e-200), (0.0, 1.0),
                                        (1.0 + 2.0 ** -52, 1e200))), 0.3)
    zs = (np.linspace(0.05, 0.95, 19)[:, None] + 1j * np.array([1e-9, 1e-7, 1e-5])).ravel()
    below = [math.prod((b - z) / (a - z) for a, b in prof.gapset.gaps).imag < 0
             for z in map(complex, zs)]
    assert sum(below) >= 5
    for z, lg in zip(zs, build_logM(prof, zs)):
        assert _close(lg, _logM_reference(prof, complex(z)), 1e-12)


def test_class_products_are_renormalised():
    # two gaps of one class whose ratios at z multiply to 5e319: past float
    # range, though each ratio and each logarithm is finite
    prof = KreinProfile.uniform(GapSet(((1e-20, 1.0), (2.0, 1e300))), 0.3)
    for z in (1e-30j, 0.5e-20 + 1e-25j):
        ratios = [(b - z) / (a - z) for a, b in prof.gapset.gaps]
        assert all(map(cmath.isfinite, ratios)) and not cmath.isfinite(ratios[0] * ratios[1])
        lg = build_logM(prof, z)
        assert np.isfinite(lg).all()
        assert _close(lg, _logM_reference(prof, z), 1e-12)


def test_batched_build_in_slices():
    # more points x classes than one block holds: the slices must line up
    gs = GapSet(tuple((3.0 * j, 3.0 * j + 1.0) for j in range(8)))
    prof = KreinProfile(gs, tuple(0.3 * j for j in range(8)))
    rng = np.random.default_rng(7)
    zs = rng.uniform(-2.0, 26.0, 5000) + 1j * rng.uniform(1e-3, 3.0, 5000)
    whole = build_M(prof, zs)
    parts = np.concatenate([build_M(prof, zs[i:i + 64]) for i in range(0, 5000, 64)])
    np.testing.assert_array_equal(whole, parts)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
def test_a_point_alone_and_in_a_large_call_agree_bitwise(n):
    # a point's value does not depend on the points beside it in the call:
    # not through how many factors a pass of a class product takes, nor
    # through the renormalisation bound of the other points (Im z down to
    # 1e-6 renormalises 64-gap products of the large call, not of a point
    # high above the axis alone; at Im z = 1e-305 a ratio's modulus bound
    # spans more than the 1000 bits a product may, and that point
    # renormalises after every factor while the others keep their periods)
    rng = np.random.default_rng(n)
    widths = rng.uniform(0.05, 1.5, n)
    lefts = np.cumsum(widths + rng.uniform(1e-3, 3.0, n)) - widths
    gs = GapSet(tuple((float(a), float(a + w)) for a, w in zip(lefts - lefts.mean(), widths)))
    zs = rng.uniform(-3.0 * n, 3.0 * n, 3000) + 1j * 10.0 ** rng.uniform(-6.0, 3.0, 3000)
    # every seventh point real, at a gap's centre, and every other
    # compared point at height 1e-305
    zs[::7] = rng.choice([(a + b) / 2.0 for a, b in gs.gaps], len(zs[::7]))
    zs[97::194] = zs[97::194].real + 1e-305j
    uniform = KreinProfile.uniform(gs, 0.4)
    classes = KreinProfile(gs, tuple(rng.choice((0.4, 1.3), n)))
    for prof in (uniform, classes):
        for f in (build_logM, build_M):
            whole = f(prof, zs)
            for k in range(0, len(zs), 97):
                np.testing.assert_array_equal(f(prof, zs[k]), whole[k])


@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_limits_alone_and_in_a_large_call_agree_bitwise(monkeypatch, n):
    # a point's boundary limits and residuals, and a profile's large-z W(0),
    # do not depend on the stack they are extrapolated in: the contraction
    # with the weights is elementwise, with no BLAS call whose rounding
    # depends on the shape
    rng = np.random.default_rng(100 + n)
    widths = rng.uniform(0.05, 1.5, n)
    lefts = np.cumsum(widths + rng.uniform(1e-3, 3.0, n)) - widths
    gs = GapSet(tuple((float(a), float(a + w)) for a, w in zip(lefts - lefts.mean(), widths)))
    prof = KreinProfile(gs, tuple(rng.choice((0.4, 1.3), n)))
    ts = rng.uniform(-3.0 * n - 2.0, 3.0 * n + 2.0, 1500)
    ts = np.delete(ts, list(gs.endpoint_errors(ts)))
    assert len(ts) >= 1000
    _, errors, zs = krein_xi_points(gs, ts)
    assert not errors
    mats = build_M(prof, zs.ravel()).reshape(zs.shape + (2, 2))
    whole_xi, whole_res, failed = krein_xi_reduce(ts, {}, mats)
    assert not failed and np.isfinite(whole_xi).all() and np.isfinite(whole_res).all()
    for k in range(0, len(ts), 7):
        one_xi, one_res, _ = krein_xi_reduce(ts[k:k + 1], {}, mats[:, k:k + 1])
        np.testing.assert_array_equal(one_xi[0], whole_xi[k])
        assert one_res[0] == whole_res[k]
    # a point's xi row, residual and error, alone and among points inside
    # endpoint margins and points that miss a tolerance inside the spread
    # of the residuals
    a, b = gs.endpoints
    margin = ENDPOINT_MARGIN * (b - a)
    near = np.concatenate([a + 0.5 * margin, b - 0.25 * margin])
    mixed = rng.permutation(np.concatenate([ts, near]))
    tol = float(np.median(whole_res))
    monkeypatch.setattr(herglotz, "XI_TOL", tol)
    mixed, errors, zs = krein_xi_points(gs, mixed)
    assert len(errors) == len(near)
    xi, res, failed = krein_xi_reduce(mixed, errors,
                                      build_M(prof, zs.ravel()).reshape(zs.shape + (2, 2)))
    assert list(failed) == sorted(failed)
    assert {i for i, e in failed.items() if isinstance(e, EndpointSingularity)} == set(errors)
    unconverged = [i for i, e in failed.items() if isinstance(e, NoConvergence)]
    assert len(failed) == len(errors) + len(unconverged) and len(unconverged) >= 100
    assert np.isnan(xi[list(failed)]).all() and np.isnan(res[list(failed)]).all()
    ok = np.setdiff1d(np.arange(len(mixed)), list(failed))
    assert np.isfinite(xi[ok]).all() and (res[ok] <= tol).all()
    for k in [*range(0, len(mixed), 7), *errors]:
        one_ts, one_errors, one_zs = krein_xi_points(gs, mixed[k:k + 1])
        one_xi, one_res, one_failed = krein_xi_reduce(
            one_ts, one_errors, build_M(prof, one_zs.ravel()).reshape(one_zs.shape + (2, 2)))
        np.testing.assert_array_equal(one_xi[0], xi[k])
        np.testing.assert_array_equal(one_res[0], res[k])
        assert [(type(e), str(e)) for e in one_failed.values()] == (
            [(type(failed[k]), str(failed[k]))] if k in failed else [])
    band = np.flatnonzero(gs.containing_gaps(ts) < 0)
    limit, residual = boundary_reduce(mats[:, band], re_part)
    for k in range(0, len(band), 7):
        one_limit, one_residual = boundary_reduce(mats[:, band[k:k + 1]], re_part)
        np.testing.assert_array_equal(one_limit[0], limit[k])
        assert one_residual[0] == residual[k]
    assert reflectionless_reduce(mats[:, band]) == max(
        reflectionless_reduce(mats[:, band[k:k + 1]]) for k in range(len(band)))
    # W(0) of 1000 profiles on one gap set, extrapolated in one stack and
    # each alone; the two routes of one profile extrapolated together
    zs = asymptotic_points(gs)
    ys = zs.imag
    y = ys[:, None, None]
    angles = rng.uniform(0.0, np.pi, 1000)
    stack = np.stack([build_M(KreinProfile.uniform(gs, a), zs) for a in angles], axis=1)
    limits, _ = extrapolate_schedule(1.0 / ys, 1j * y[:, None] * I2 - y[:, None] * stack,
                                     min(len(ys) - 1, 6))
    for k in range(0, len(angles), 13):
        w, = asymptotic_reduce(zs, stack[:, k], ("value",))
        assert (w.p, w.q) == (0.5 * float(limits[k, 0, 0].real - limits[k, 1, 1].real),
                              0.5 * float(limits[k, 0, 1].real + limits[k, 1, 0].real))
        assert asymptotic_reduce(zs, stack[:, k], ("value", "log")) == \
            [w, *asymptotic_reduce(zs, stack[:, k], ("log",))]


def test_batched_build_rejects_endpoint_points():
    prof = KreinProfile.uniform(GapSet(((-1.0, 1.0), (2.0, 3.0))), 0.4)
    zs = np.array([0.5j, 0.0, 2.0 + 1e-5, 1.5 + 0.2j])
    with pytest.raises(EndpointSingularity, match="gap \\(2.0, 3.0\\)"):
        build_logM(prof, zs)
    with pytest.raises(EndpointSingularity):
        build_M(prof, zs)
    with pytest.raises(ValueError):
        build_M(prof, np.array([1j, 0.5 - 1e-3j]))  # lower half plane


entry = st.floats(-3.0, 3.0)
scalar = st.builds(complex, entry, entry)


@st.composite
def matrix_stacks(draw):
    """Random matrices mixed with scalar, Jordan and near-confluent ones,
    every spectrum clear of the log cut."""
    mats = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("random", "scalar", "jordan", "near")))
        lam = complex(draw(entry), draw(st.floats(0.2, 3.0)))
        if kind == "random":
            m = np.array([[draw(scalar), draw(scalar)], [draw(scalar), draw(scalar)]])
        elif kind == "scalar":
            m = lam * np.eye(2)
        elif kind == "jordan":
            m = np.array([[lam, draw(scalar)], [0.0, lam]])
        else:
            eps = 10.0 ** draw(st.floats(-11.0, -4.0))
            m = np.array([[lam, 1.0], [0.0, lam * (1.0 + eps)]])
        mats.append(np.asarray(m, dtype=complex))
    return np.stack(mats)


def _exp_reference(a):
    """Exact exp of a triangular matrix, the divided difference taken as
    e^l2 expm1(l1 - l2)/(l1 - l2); scipy's expm otherwise (it loses digits
    on near-confluent triangular matrices)."""
    if a[1, 0] != 0:
        return expm(a)
    l1, l2 = a[0, 0], a[1, 1]
    d = l1 - l2
    # expm1(d)/d rounds to 1 below |d| = 1e-300, where the complex
    # division of a subnormal d would overflow
    dd = np.exp(l2) * (np.expm1(d) / d if abs(d) > 1e-300 else 1.0)
    return np.array([[np.exp(l1), a[0, 1] * dd], [0.0, np.exp(l2)]])


def _off_cut(m):
    lam = np.linalg.eigvals(m)
    return bool(np.all(np.where(lam.imag >= 0, np.abs(lam), np.abs(lam.real)) > 0.05))


@given(matrix_stacks())
@settings(max_examples=150, deadline=None)
# a confluent matrix beside a trace-free one, and a subnormal eigenvalue gap
@example(np.array([[[1j, 0], [0, 1j]], [[0, 1j], [1, 0]]], dtype=complex))
@example(np.array([[[0, 0], [0, 2.2250738585e-309j]]], dtype=complex))
def test_batched_mexp_mlog_agree_with_one_matrix(stack):
    exps = mexp(stack)
    for a, e in zip(stack, exps):
        assert _close(e, mexp(a), 1e-13)
        assert _close(e, _exp_reference(a), 1e-9)
    stack = np.array([a for a in stack if _off_cut(a)]).reshape(-1, 2, 2)
    logs = mlog_spectral(stack)
    for a, lg in zip(stack, logs):
        assert _close(lg, mlog_spectral(a), 1e-13)
        assert _close(mexp(lg), a, 1e-8)


def _xi_reference(mfun, t):
    """The one-point limit: the schedule offsets scaled by
    min(1, d_t / y0), one log per offset, extrapolated to 0."""
    a, b = mfun.gapset.endpoints
    d = min(np.abs(t - a).min(), np.abs(t - b).min()) if mfun.gapset.n else np.inf
    ys = LIMIT_OFFSETS
    samples = im_part(mlog_spectral(mfun(t + 1j * min(1.0, d / ys[0]) * ys))) / np.pi
    limit, residual = extrapolate_schedule(ys, samples, LIMIT_ORDER)
    return 0.5 * (limit.real + limit.real.T), residual


@st.composite
def xi_grids(draw):
    """A piecewise-constant profile with 1 to 4 gaps of widths 1e-6 to 2
    and a shuffled grid of gap-interior and band points, one of them
    (sometimes) inside an endpoint margin."""
    n = draw(st.integers(1, 4))
    a = draw(st.floats(-4.0, 0.0))
    gaps = []
    for _ in range(n):
        w = 10.0 ** draw(st.floats(-6.0, 0.3))
        gaps.append((a, a + w))
        a += w + draw(st.floats(0.05, 1.5))
    gs = GapSet(tuple(gaps))
    prof = KreinProfile(gs, tuple(draw(st.floats(0.0, math.pi)) for _ in gaps))
    ts = [g0 + (g1 - g0) * (0.05 + 0.9 * draw(unit)) for g0, g1 in gaps]
    ts += [gaps[0][0] - 0.01 - draw(unit), gaps[-1][1] + 0.01 + draw(unit)]
    if draw(st.booleans()):
        g0, g1 = gaps[draw(st.integers(0, n - 1))]
        ts.append(g1 - 0.5 * ENDPOINT_MARGIN * (g1 - g0))
    order = draw(st.permutations(range(len(ts))))
    return prof, np.array([ts[i] for i in order])


@given(xi_grids(), st.sampled_from((1e-6, 1e-16)))
@settings(max_examples=60, deadline=None)
def test_krein_xi_reduce_agrees_with_points(case, xi_tol):
    prof, grid = case
    mfun = profile_m_function(prof)
    ts, errors, zs = krein_xi_points(prof.gapset, grid)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(herglotz, "XI_TOL", xi_tol)
        xi, residual, failed = krein_xi_reduce(ts, errors,
                                               mfun(zs.ravel()).reshape(zs.shape + (2, 2)))
        ones = []
        for t in grid:
            try:
                ones.append(krein_xi(mfun, float(t)))
            except KreinDiracError as exc:
                ones.append(exc)
    assert xi.shape == (len(grid), 2, 2) and residual.shape == (len(grid),)
    for i, (t, one) in enumerate(zip(grid, ones)):
        if isinstance(one, KreinDiracError):
            # the map holds the error the one-point call raises
            assert type(failed[i]) is type(one) and str(failed[i]) == str(one)
            continue
        assert i not in failed
        assert ts[i] == one.t == float(t)
        assert np.abs(xi[i] - one.xi).max() <= 1e-14
        assert abs(residual[i] - one.residual) <= 1e-14
        ref_xi, ref_residual = _xi_reference(mfun, float(t))
        assert np.abs(xi[i] - ref_xi).max() <= 1e-14
        assert abs(residual[i] - ref_residual) <= 1e-14
    # only the margin point (if any) is an endpoint failure, and at the
    # default tolerance nothing else fails
    a, b = prof.gapset.endpoints
    m = ENDPOINT_MARGIN * (b - a)
    in_margin = [bool(((np.abs(t - a) < m) | (np.abs(t - b) < m)).any()) for t in grid]
    assert [isinstance(failed.get(i), EndpointSingularity) for i in range(len(grid))] == in_margin
    if xi_tol == 1e-6:
        assert [i in failed for i in range(len(grid))] == in_margin
    else:
        assert any(isinstance(h, NoConvergence) for h in failed.values())


def _inf_pair_matrix(m_other, which):
    # M with m_plus (or m_minus) at the point at infinity
    pair = WeylPair(np.inf, m_other) if which == "plus" else WeylPair(m_other, np.inf)
    return assemble_M(pair)


def test_weyl_from_M_stack_agrees_with_matrices():
    rng = np.random.default_rng(5)
    prof = KreinProfile(GapSet(((-2.0, -1.0), (0.5, 1.5))), (0.4, 1.3))
    zs = rng.uniform(-3.0, 3.0, 12) + 1j * rng.uniform(0.05, 3.0, 12)
    mats = np.concatenate([build_M(prof, zs),
                           [_inf_pair_matrix(0.3 + 2.0j, "plus"),
                            _inf_pair_matrix(-0.1 + 0.5j, "minus")]])
    pair = weyl_from_M(mats)
    assert pair.m_plus.shape == pair.m_minus.shape == (14,)
    for k, m in enumerate(mats):
        one = weyl_from_M(m)
        assert isinstance(one.m_plus, complex)
        for got, want in ((pair.m_plus[k], one.m_plus), (pair.m_minus[k], one.m_minus)):
            assert got == want or abs(got - want) <= 1e-14 * abs(want)
    assert pair.m_plus[12] == np.inf and pair.m_minus[13] == np.inf
    back = assemble_M(pair)
    assert back.shape == (14, 2, 2)
    assert np.abs(back - mats).max() <= 1e-12
    for k, m in enumerate(mats):
        np.testing.assert_allclose(assemble_M(weyl_from_M(m)), back[k], rtol=0, atol=1e-14)


def test_weyl_from_M_stack_raises_typed_errors():
    good = build_M(KreinProfile.uniform(GapSet(((-1.0, 1.0),)), 0.7), np.array([1j, 2 + 1j]))
    bad = {
        NotAdmissible: [np.array([[1j, 0.2], [0.3, 1j]]),         # not symmetric
                        np.array([[2j, 0.0], [0.0, 2j]]),         # det is -4
                        np.array([[1e5, 0.0], [0.0, 1e-5]])],     # eig(MJ) = +-i
        DegenerateEigenproblem: [np.array([[1e5, 0.0], [0.0, 0.0]])],  # MJ nilpotent
    }
    for kind, mats in bad.items():
        for m in mats:
            with pytest.raises(kind) as one:
                weyl_from_M(m)
            # the first offending matrix of a stack raises the same error
            stack = np.stack([good[0], m, np.array([[2j, 0.0], [0.0, 2j]]), good[1]])
            with pytest.raises(kind) as many:
                weyl_from_M(stack)
            assert str(many.value) == str(one.value)


@pytest.mark.parametrize("m", [
    np.array([[1.0, 2.0], [3.0, 4.0]]),
    np.array([[1 + 2j, -0.5j], [3.0, 0.25 - 1j]]),
    (0.3 - 1.7j) * np.eye(2),                        # scalar
    np.zeros((2, 2)),
    np.array([[2.0 + 1j, 1.0], [0.0, 2.0 + 1j]]),    # Jordan block
    np.array([[0.0, 1.0], [0.0, 0.0]]),              # nilpotent
    np.array([[0.0, 1.85e-32j], [-1j, 0.0]]),
])
def test_op_norm_closed_form(m):
    want = np.linalg.norm(m, 2)
    assert abs(op_norm(m) - want) <= 1e-12 * want
    stack = np.stack([m, 2.0 * m, m.T])
    np.testing.assert_allclose(op_norm(stack), np.linalg.norm(stack, 2, axis=(1, 2)),
                               rtol=1e-12, atol=0)


@given(matrix_stacks())
# squared entries that underflow, overflow, or both
@example(np.array([[[0.0, 0.0], [0.0, 2.2e-313j]]]))
@example(np.array([[[1e160, 0.0], [0.0, 1.0]]]))
@example(np.diag([1e200, 1e200])[None])
@settings(max_examples=100, deadline=None)
def test_op_norm_random_stacks(stack):
    want = np.linalg.norm(stack, 2, axis=(1, 2))
    assert np.all(np.abs(op_norm(stack) - want) <= 1e-12 * want)
