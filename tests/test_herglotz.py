"""M functions, Krein densities and the large-z potential law."""

import math
import warnings

import numpy as np
import pytest

from kreindirac import (
    GapSet,
    KreinProfile,
    MFunction,
    asymptotic_W,
    build_M,
    herglotz_defect,
    krein_xi,
    profile_m_function,
    trace_formula_W0,
)
from kreindirac.errors import EndpointSingularity, NoConvergence
from kreindirac.finitegap import e_interior_grid
from kreindirac import herglotz
from kreindirac.herglotz import asymptotic_points, asymptotic_reduce, herglotz_reduce

WITNESS_GAPS = ((-2.0, -1.0), (1.0, 2.0))
WITNESS_ANGLES = (0.3, 1.9)

TWO_GAP = GapSet(((-2.0, -1.0), (1.0, 2.0)))


def test_mfunction_wraps_and_coerces():
    mfun = MFunction(lambda z: [[z, 0], [0, z]])
    out = mfun(1j)
    assert out.shape == (2, 2) and out.dtype == complex


def test_mfunction_maps_a_point_array_to_a_stack():
    prof = KreinProfile.uniform(TWO_GAP, 0.8)
    zs = np.array([0.5j, 2.0 + 1.0j, -3.0 + 0.25j])
    mats = profile_m_function(prof)(zs)
    assert mats.shape == (3, 2, 2)
    for z, m in zip(zs, mats):
        np.testing.assert_allclose(m, build_M(prof, z), atol=1e-9)
    # an evaluator of one point only is refused on an array
    with pytest.raises(ValueError, match="shape"):
        MFunction(lambda z: np.eye(2))(zs)


def test_profile_m_function_matches_closed_form():
    prof = KreinProfile.uniform(TWO_GAP, 0.8)
    mfun = profile_m_function(prof)
    for z in (0.5j, 2.0 + 1.0j, -3.0 + 0.25j):
        np.testing.assert_allclose(mfun(z), build_M(prof, z), atol=1e-14)
    assert mfun.gapset is prof.gapset


def test_krein_xi_recovers_projection_and_half():
    prof = KreinProfile.uniform(TWO_GAP, 1.2)
    mfun = profile_m_function(prof)
    p = prof.projection(0)
    for t in (-1.7, -1.3, 1.4):
        s = krein_xi(mfun, t)
        target = p if prof.gapset.containing_gaps(t)[0] >= 0 else 0.5 * np.eye(2)
        np.testing.assert_allclose(s.xi, target, atol=1e-8)
        np.testing.assert_allclose(np.trace(s.xi), 1.0, atol=1e-10)
        assert s.residual < 1e-8
    # on a band point xi is I/2 as well
    s = krein_xi(mfun, 0.0)
    np.testing.assert_allclose(s.xi, 0.5 * np.eye(2), atol=1e-8)


def test_krein_xi_guards_endpoints():
    prof = KreinProfile.uniform(GapSet(((-1.0, 1.0),)), 0.3)
    mfun = profile_m_function(prof)
    with pytest.raises(EndpointSingularity):
        krein_xi(mfun, 1.0 - 1e-5)


def test_krein_xi_flags_non_convergence(monkeypatch):
    # demanding machine-zero residuals from a finite schedule must fail
    prof = KreinProfile.uniform(GapSet(((-1.0, 1.0),)), 0.3)
    mfun = profile_m_function(prof)
    monkeypatch.setattr(herglotz, "XI_TOL", 1e-16)
    with pytest.raises(NoConvergence):
        krein_xi(mfun, 0.4)


def _both_routes(prof):
    # W(0) by the value route of asymptotic_W and by asymptotic_reduce's
    # log route, each alone
    mfun = profile_m_function(prof)
    zs = asymptotic_points(prof.gapset)
    return asymptotic_W(mfun), asymptotic_reduce(zs, mfun(zs), ("log",))[0]


def test_xi_far_from_every_gap_is_half_the_identity():
    # the limit offsets of a point far from every gap are formed without
    # overflow: xi there is I/2, and no warning is raised
    mfun = profile_m_function(KreinProfile.uniform(GapSet(((-1.0, 1.0),)), math.pi / 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = krein_xi(mfun, 1e308)
    np.testing.assert_allclose(sample.xi, 0.5 * np.eye(2), rtol=0, atol=1e-12)


def test_asymptotic_routes_agree_with_trace_formula():
    rng = np.random.default_rng(31)
    for _ in range(6):
        alpha = float(rng.uniform(0.0, math.pi))
        prof = KreinProfile.uniform(TWO_GAP, alpha)
        w0 = trace_formula_W0(prof)
        for w in _both_routes(prof):
            assert math.hypot(w.p - w0.p, w.q - w0.q) < 1e-6
            assert abs(w.residual) < 1e-5


def test_far_gap_recovers_the_trace_formula():
    # the law stands above the gap's centre, where its heights stay near
    # the gap's half width; heights near 4e6 up the axis through 0 cost
    # the value route its trace test (trace 1.4e-5).  Both routes land
    # within 1.2e-7 of the trace formula
    for alpha in (0.3, 1.1, 2.6):
        prof = KreinProfile.uniform(GapSet(((999950.0, 1000050.0),)), alpha)
        w0 = trace_formula_W0(prof)
        for w in _both_routes(prof):
            assert math.hypot(w.p - w0.p, w.q - w0.q) < 1e-6
            assert w.residual < 1e-5


def test_herglotz_reduce_is_the_smallest_eigenvalue_of_im_m():
    cases = [(1j * np.eye(2), 1.0),
             (-1j * np.eye(2), -1.0),
             (np.array([[1j, 2j], [2j, 1j]]), -1.0),  # det Im = -3
             (np.array([[2j, 1j], [1j, 2j]]), 1.0)]
    for m, smallest in cases:
        assert herglotz_reduce(m[None]) == smallest
    assert herglotz_reduce(np.array([m for m, _ in cases])) == -1.0


def test_asymptotic_reduce_refuses_an_unknown_route():
    zs = asymptotic_points(TWO_GAP)
    mats = profile_m_function(KreinProfile.uniform(TWO_GAP, 0.5))(zs)
    with pytest.raises(ValueError, match="unknown route 'middle'"):
        asymptotic_reduce(zs, mats, ("value", "middle"))


def test_herglotz_defect_nonnegative_for_aligned():
    for gaps, alpha in ((((-1.0, 1.0),), math.pi / 4),
                        (WITNESS_GAPS, 0.3)):
        prof = KreinProfile.uniform(GapSet(gaps), alpha)
        assert herglotz_defect(profile_m_function(prof)) > -1e-9


def test_herglotz_defect_accepts_commuting_projections():
    # diagonal projections commute, so this non-aligned profile is still
    # a genuine Herglotz function
    prof = KreinProfile(TWO_GAP, (0.0, math.pi / 2))
    assert herglotz_defect(profile_m_function(prof)) > -1e-9


def test_herglotz_defect_certifies_witness():
    # non-commuting data: the formal construction is not Herglotz, and
    # Im M(t + i0) has an eigenvalue near -0.0095 on a gap
    prof = KreinProfile(GapSet(WITNESS_GAPS), WITNESS_ANGLES)
    defect = herglotz_defect(profile_m_function(prof))
    assert -0.011 < defect < -0.008


def _upper_half_plane_scan(gs):
    # the points an earlier certificate scanned: with c and R the midpoint
    # and half width of the gaps' hull and s = max(1, R), 41 x 13 points
    # across 1.5 s either side of c at heights 1e-2 s to 3 s, and 15 columns
    # per gap at 9 heights from 1e-4 s to 3e-2 s
    c, r = gs.hull
    s = max(1.0, r)
    rows = (c + np.linspace(-1.5 * s, 1.5 * s, 41))[:, None] + 1j * s * np.geomspace(1e-2, 3.0, 13)
    a, b = gs.endpoints
    cols = (a[:, None] + (b - a)[:, None] * np.linspace(0.05, 0.95, 15)).ravel()
    cols = cols[:, None] + 1j * s * np.geomspace(1e-4, 3e-2, 9)
    return np.concatenate([rows.ravel(), cols.ravel()])


def test_the_gaps_hold_the_minimum_of_im_m():
    # the minimum principle as evidence: on mismatched draws the boundary
    # values on the gaps are never above the smallest eigenvalue of Im M
    # over the upper-half-plane scan, so they miss no witness it catches
    rng = np.random.default_rng(2027)
    for k in range(300):
        if k < 200:
            # two separated gaps at angles 0.5 to 1.1 apart
            c1, c2 = -rng.uniform(1.0, 2.0), rng.uniform(1.0, 2.0)
            w1, w2 = rng.uniform(0.5, 1.2, 2)
            alpha = rng.uniform(0.0, math.pi)
            gaps = ((c1 - w1 / 2, c1 + w1 / 2), (c2 - w2 / 2, c2 + w2 / 2))
            angles = (alpha, alpha + rng.uniform(0.5, 1.1) * rng.choice((-1.0, 1.0)))
        else:
            # 2 to 8 gaps down to 0.05 wide, down to 0.01 apart
            n = int(rng.integers(2, 9))
            widths = rng.uniform(0.05, 1.5, n)
            lefts = np.cumsum(widths + rng.uniform(0.01, 2.0, n)) - widths
            gaps = tuple((float(a), float(a + w)) for a, w in zip(lefts, widths))
            angles = tuple(rng.uniform(0.0, math.pi, n))
        prof = KreinProfile(GapSet(gaps), angles)
        scan = herglotz_reduce(build_M(prof, _upper_half_plane_scan(prof.gapset)))
        assert herglotz_defect(profile_m_function(prof)) <= scan, (gaps, angles)


@pytest.mark.parametrize("gaps, angles", [
    (((-1.0, 1.0),), (0.3,)),
    (WITNESS_GAPS, (0.3, 0.3)),
    (tuple((3.0 * j, 3.0 * j + 1.0) for j in range(16)), (0.7,) * 16),
    (tuple((3.0 * j, 3.0 * j + 1.0) for j in range(64)), (0.7,) * 64),
    (WITNESS_GAPS, (0.3, 0.3 + math.pi / 2)),
    (((999950.0, 1000050.0),), (0.3,)),
    (((-1.0, 0.0), (1e-6, 1.0)), (0.3, 0.3)),
], ids=["1", "2", "16", "64", "flipped", "far", "1e-6-apart"])
def test_herglotz_defect_is_rounding_on_commuting_profiles(gaps, angles):
    # M(t + i0) is real on the gaps of a commuting profile, so its smallest
    # Im eigenvalue there is 0 up to rounding
    prof = KreinProfile(GapSet(gaps), angles)
    assert abs(herglotz_defect(profile_m_function(prof))) <= 1e-12


def test_herglotz_defect_free_function():
    prof = KreinProfile(GapSet(()), ())
    np.testing.assert_allclose(herglotz_defect(profile_m_function(prof)), 1.0,
                               atol=1e-12)


def test_reflectionless_symmetry_of_weyl_pair():
    # m_plus(t + i0) = -conj(m_minus(t + i0)) on the interior of E
    from kreindirac import weyl_from_M
    prof = KreinProfile.uniform(TWO_GAP, 0.9)
    mfun = profile_m_function(prof)
    for t in e_interior_grid(prof.gapset):
        pair = weyl_from_M(mfun(float(t) + 1e-7j))
        assert abs(pair.m_plus + np.conj(pair.m_minus)) < 1e-5
