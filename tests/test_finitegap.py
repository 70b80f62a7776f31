"""Gap sets, Krein profiles and the closed-form M construction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreindirac import (
    GapSet,
    KreinProfile,
    assemble_M,
    build_M,
    build_logM,
    gap_realness,
    hull_norm,
    profile_from_json,
    profile_m_function,
    projection_angle,
    reflectionless_defect,
    sharp_bound,
    trace_formula_W0,
    weyl_from_M,
)
from kreindirac.errors import EndpointSingularity, NotAdmissible
from kreindirac.finitegap import (boundary_points, boundary_reduce, commutator_reduce,
                                  e_interior_grid, gap_interior_grid, gap_realness_points)
from kreindirac.herglotz import MFunction, herglotz_reduce, krein_xi_points, krein_xi_reduce
from kreindirac.mat2 import im_part, mlog_spectral, op_norm, re_part
from kreindirac.numerics import LIMIT_OFFSETS, LIMIT_ORDER, extrapolate_schedule

# non-commuting two-gap data whose formal M function is not Herglotz;
# several tests reuse it as the strictness/realizability witness
WITNESS_GAPS = ((-2.0, -1.0), (1.0, 2.0))
WITNESS_ANGLES = (0.3, 1.9)


angles = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)


@given(angles)
@settings(max_examples=150, deadline=None)
def test_projection_angle_is_rank_one_projection(alpha):
    p = projection_angle(alpha)
    np.testing.assert_allclose(p @ p, p, atol=1e-14)
    np.testing.assert_allclose(p, p.T, atol=0)
    np.testing.assert_allclose(np.trace(p), 1.0, atol=1e-14)
    v = np.array([math.cos(alpha), math.sin(alpha)])
    np.testing.assert_allclose(p @ v, v, atol=1e-13)


@given(angles)
@settings(max_examples=100, deadline=None)
def test_projection_angle_pi_periodic(alpha):
    np.testing.assert_allclose(projection_angle(alpha),
                               projection_angle(alpha + math.pi), atol=1e-12)


def test_gapset_validation():
    gs = GapSet(((-2.0, -1.0), (1.0, 2.0)))
    assert gs.n == 2
    np.testing.assert_allclose(gs.widths(), [1.0, 1.0])
    assert gs.spectral_radius == 2.0
    np.testing.assert_array_equal(gs.containing_gaps([1.5, 0.0, -1.5]), [1, -1, 0])
    with pytest.raises(ValueError):
        GapSet(((1.0, -1.0),))
    with pytest.raises(ValueError):
        GapSet(((-1.0, 0.5), (0.0, 2.0)))  # overlap
    with pytest.raises(ValueError):
        GapSet(((0.0, math.inf),))


def test_endpoint_margin_guard():
    gs = GapSet(((-1.0, 1.0),))
    assert gs.endpoint_errors([0.5]) == {}
    errs = gs.endpoint_errors([0.5, 1.0 - 1e-5, 2.0])  # margin is 1e-3 * width
    assert list(errs) == [1] and isinstance(errs[1], EndpointSingularity)
    # a real evaluation point in the margin raises the first such error
    prof = KreinProfile.uniform(gs, 0.3)
    with pytest.raises(EndpointSingularity, match="t = 0.99999"):
        build_logM(prof, np.array([0.5, 1.0 - 1e-5, -1.0 + 1e-5]))


def test_a_gap_too_narrow_for_its_interior_points_is_refused():
    # 10 ulps of its endpoints round a gap's first and last interior
    # points onto them, 11 keep them clear of the margins
    for c in (1.0, -7.0, 1e3, 1e6):
        ulp = math.ulp(c)
        with pytest.raises(ValueError, match=r"too narrow for its interior points"):
            GapSet(((c, c + 10 * ulp),))
        ts, errors = gap_realness_points(GapSet(((c, c + 11 * ulp),)))
        assert len(ts) == 7 and not errors
    # below 5.7e-305 the smallest boundary height of the interior points
    # is subnormal
    with pytest.raises(ValueError, match=r"gap \(0.0, 5.6e-305\) is too narrow"):
        GapSet(((0.0, 5.6e-305),))
    gs = GapSet(((0.0, 5.8e-305),))
    assert boundary_points(gs, gap_interior_grid(gs)).imag.min() >= np.finfo(float).tiny


def test_profile_validation_and_normalization():
    gs = GapSet(((-1.0, 1.0), (2.0, 3.0)))
    with pytest.raises(ValueError):
        KreinProfile(gs, (0.1,))  # wrong count
    with pytest.raises(TypeError):
        KreinProfile(gs, (0.1, lambda t: 0.2))  # an angle must be a number
    prof = KreinProfile(gs, (math.pi + 0.25, -0.5))
    np.testing.assert_allclose(prof.angles, [0.25, math.pi - 0.5])
    assert KreinProfile(gs, (0.3, 0.3 + math.pi)).is_commuting
    # orthogonal projections commute too, on either side of the wrap at pi
    assert KreinProfile(gs, (0.3, 0.3 + math.pi / 2)).is_commuting
    # within 1e-14, the mismatch that verify's Herglotz certificate does
    # not resolve, and no further
    assert KreinProfile(gs, (3.0, 3.0 - math.pi / 2 + 9e-15)).is_commuting
    assert not KreinProfile(gs, (3.0, 3.0 - math.pi / 2 + 1e-13)).is_commuting
    assert not KreinProfile(gs, (0.3, 0.300000000001)).is_commuting
    assert not KreinProfile(gs, (0.3, 0.9)).is_commuting
    assert not KreinProfile(gs, (0.3, 0.3 + math.pi / 2 + 1e-9)).is_commuting
    assert KreinProfile.uniform(gs, 1.0).is_commuting
    assert KreinProfile(GapSet(()), ()).is_commuting


def test_profile_json_round_trip():
    prof = profile_from_json({"gaps": [[-2, -1], [1, 2]], "angles": [0.3, 1.9]})
    assert prof.gapset.gaps == ((-2.0, -1.0), (1.0, 2.0))
    assert prof.angles == (0.3, 1.9)
    uni = profile_from_json({"gaps": [[-1, 1]], "uniform": 0.7})
    assert uni.is_commuting
    assert uni.gapset.gaps == ((-1.0, 1.0),) and uni.angles == (0.7,)
    with pytest.raises(ValueError):
        profile_from_json({"angles": [0.1]})
    with pytest.raises(ValueError):
        profile_from_json({"gaps": [[-1, 1]], "uniform": 0.1, "angles": [0.2]})


def _random_profiles(count, seed, aligned=False):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 4))
        edges = np.sort(rng.uniform(-3.0, 3.0, size=2 * n))
        while np.min(np.diff(edges)) < 0.25:
            edges = np.sort(rng.uniform(-3.0, 3.0, size=2 * n))
        gaps = tuple((edges[2 * j], edges[2 * j + 1]) for j in range(n))
        gs = GapSet(gaps)
        if aligned:
            yield KreinProfile.uniform(gs, float(rng.uniform(0.0, math.pi)))
        else:
            yield KreinProfile(gs, tuple(rng.uniform(0.0, math.pi, size=n)))


def test_build_M_structure():
    # symmetry and det -1 hold for every profile, aligned or not
    rng = np.random.default_rng(21)
    for prof in _random_profiles(40, seed=2):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 4))
        m = build_M(prof, z)
        assert abs(m[0, 1] - m[1, 0]) <= 1e-10 * max(op_norm(m), 1.0)
        np.testing.assert_allclose(np.linalg.det(m), -1.0, atol=1e-10)


def test_build_M_herglotz_for_aligned():
    rng = np.random.default_rng(22)
    for prof in _random_profiles(25, seed=3, aligned=True):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 4))
        assert herglotz_reduce(build_M(prof, [z])) >= -1e-12


def test_trace_of_logM_is_i_pi():
    # det M = -1 and the strip branch force tr log M = i pi
    rng = np.random.default_rng(23)
    for prof in _random_profiles(20, seed=4):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        np.testing.assert_allclose(np.trace(build_logM(prof, z)), 1j * math.pi,
                                   atol=1e-10)


def test_gap_boundary_log_has_projection_imag_part():
    # on gap j the imaginary part of log M(t) is exactly pi P_j
    for prof in _random_profiles(10, seed=5):
        for j, (a, b) in enumerate(prof.gapset.gaps):
            t = a + 0.37 * (b - a)
            xi = im_part(build_logM(prof, t)) / math.pi
            np.testing.assert_allclose(xi, prof.projection(j), atol=1e-10)


def test_free_function_is_iI():
    prof = KreinProfile(GapSet(()), ())
    np.testing.assert_allclose(build_M(prof, 2.0 + 0.7j), 1j * np.eye(2),
                               atol=1e-15)


M_2I_EXPECTED = np.array([[2j / math.sqrt(5), -1 / math.sqrt(5)],
                          [-1 / math.sqrt(5), 2j / math.sqrt(5)]])


def test_single_gap_closed_form_value():
    # gap (-1, 1), angle pi/4, z = 2i: M = (2i I - [[0,1],[1,0]]) / sqrt(5)
    prof = KreinProfile.uniform(GapSet(((-1.0, 1.0),)), math.pi / 4)
    np.testing.assert_allclose(build_M(prof, 2j), M_2I_EXPECTED, atol=1e-10)


def test_a_point_past_the_renormalisation_range_warns_nothing():
    # at Im z = 1e-305 over a gap 2 wide a Moebius ratio's modulus bound
    # spans more than the 1000 bits a class product may hold: that point
    # renormalises after every factor, and the ordinary point beside it in
    # the one call keeps its own period
    prof = KreinProfile.uniform(GapSet(((-1.0, 1.0),)), 0.3)
    zs = np.array([1e-305j, 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mats = build_M(prof, zs)
        alone = [build_M(prof, z) for z in zs]
    np.testing.assert_array_equal(mats, alone)
    np.testing.assert_allclose(np.linalg.det(mats), -1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("gap, z", [((0.0, 1.0), 1e308 + 1e308j), ((0.0, 1e200), 1e-200j)])
def test_build_M_refuses_a_point_whose_gap_ratio_overflows(gap, z):
    # the ratio (b - z)/(a - z) overflows at these points, and the kernel
    # refuses the non-finite M with no overflow warning
    prof = KreinProfile.uniform(GapSet((gap,)), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            build_M(prof, np.array([z]))


def test_weyl_round_trips():
    rng = np.random.default_rng(24)
    for prof in _random_profiles(20, seed=6):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        m = build_M(prof, z)
        pair = weyl_from_M(m)
        np.testing.assert_allclose(assemble_M(pair), m, atol=1e-9)
        again = weyl_from_M(assemble_M(pair))
        np.testing.assert_allclose([again.m_plus, again.m_minus],
                                   [pair.m_plus, pair.m_minus], atol=1e-9)


def test_weyl_from_M_rejects_bad_input():
    with pytest.raises(NotAdmissible):
        weyl_from_M(np.array([[1j, 0.2], [0.3, 1j]]))  # not symmetric
    with pytest.raises(NotAdmissible):
        weyl_from_M(np.array([[2j, 0.0], [0.0, 2j]]))  # det is -4


def test_trace_formula_closed_form():
    # single gap (c - r, c + r): W(0) = 2r (P - I/2), norm r = sharp bound
    prof = KreinProfile.uniform(GapSet(((0.5, 2.5),)), 0.7)
    w0 = trace_formula_W0(prof)
    np.testing.assert_allclose([w0.p, w0.q],
                               [math.cos(1.4), math.sin(1.4)], atol=1e-14)
    assert abs(w0.norm - sharp_bound(prof.gapset)) <= 1e-14


def test_sharp_bound():
    assert sharp_bound(GapSet(())) == 0.0
    assert sharp_bound(GapSet(((-2.0, -1.0), (1.0, 3.0)))) == 1.5


def test_reflectionless_defect_vanishes_on_bands():
    prof = KreinProfile.uniform(GapSet(((-2.0, -1.0), (1.0, 2.0))), 0.9)
    mfun = profile_m_function(prof)
    grid = e_interior_grid(prof.gapset)
    assert reflectionless_defect(mfun, grid) < 1e-8
    with pytest.raises(ValueError):
        reflectionless_defect(mfun, [1.5])  # inside a gap


def test_boundary_points_sample_only_the_heights_the_limit_reads():
    # the extrapolation reads the last LIMIT_ORDER + 2 offsets, so each
    # point costs 5 evaluations of M, not one per offset (8)
    prof = KreinProfile.uniform(GapSet(((-2.0, -1.0), (1.0, 2.0))), 0.9)
    seen = []

    def evaluator(z):
        seen.append(np.size(z))
        return build_M(prof, z)

    mfun = MFunction(evaluator, prof.gapset)
    bands, gaps = e_interior_grid(prof.gapset), gap_interior_grid(prof.gapset)
    assert reflectionless_defect(mfun, bands) < 1e-8
    ts, errors, zs = krein_xi_points(prof.gapset, gaps)
    xi, _, failed = krein_xi_reduce(ts, errors, mfun(zs.ravel()).reshape(zs.shape + (2, 2)))
    assert not failed and np.isfinite(xi).all()
    assert LIMIT_ORDER + 2 == 5
    assert seen == [5 * len(bands), 5 * len(gaps)]
    # the same limits as the whole schedule: the window read is unchanged
    zs = boundary_points(prof.gapset, bands)
    limit, residual = boundary_reduce(mfun(zs.ravel()).reshape(zs.shape + (2, 2)), re_part)
    ys = LIMIT_OFFSETS[:, None] * np.minimum(1.0, [
        min(abs(t - e) for g in prof.gapset.gaps for e in g) / LIMIT_OFFSETS[0] for t in bands])
    full = re_part(build_M(prof, (bands + 1j * ys).ravel())).reshape(ys.shape + (2, 2))
    ref_limit, ref_residual = extrapolate_schedule(LIMIT_OFFSETS, full, LIMIT_ORDER)
    np.testing.assert_allclose(limit, ref_limit, rtol=0, atol=1e-15)
    np.testing.assert_allclose(residual, ref_residual, rtol=0, atol=1e-15)


def test_gap_realness_separates_aligned_from_witness():
    gs = GapSet(WITNESS_GAPS)
    assert gap_realness(KreinProfile.uniform(gs, 0.3)) < 1e-12
    assert gap_realness(KreinProfile(gs, WITNESS_ANGLES)) > 1e-3


def test_commutator_reduce():
    # construct's certificate: Re log M from mlog_spectral of the boundary
    # values at the gap points, against each point's gap projection
    gs = GapSet(WITNESS_GAPS)
    ts, _ = gap_realness_points(gs)

    def reads(profile, pts):
        projections = np.array([profile.projection(j) for j in gs.containing_gaps(pts)])
        return mlog_spectral(build_M(profile, pts)), projections

    assert commutator_reduce(*reads(KreinProfile.uniform(gs, 0.3), ts)) < 1e-12
    witness = KreinProfile(gs, WITNESS_ANGLES)
    logs, _ = reads(witness, ts)
    # the logarithm of M(t + i0) is the closed form's, log M(t)
    assert np.abs(re_part(logs) - re_part(build_logM(witness, ts))).max() < 1e-13
    # the sup over the gap points is the largest of the one-point values
    each = [commutator_reduce(*reads(witness, ts[i:i + 1])) for i in range(len(ts))]
    assert min(each) > 5e-3
    assert commutator_reduce(*reads(witness, ts)) == max(each)
    assert commutator_reduce(np.empty((0, 2, 2), complex), np.empty((0, 2, 2))) == 0.0


def test_hull_norm_bound_and_equality():
    # projections sit on the sphere of radius 1/2 around I/2
    for alpha in (0.0, 0.3, 1.2, 2.9):
        assert abs(hull_norm(projection_angle(alpha)) - 0.5) <= 1e-12
    # strict interior: an honest convex combination of transverse projections
    q = 0.5 * projection_angle(0.0) + 0.5 * projection_angle(math.pi / 2)
    assert hull_norm(q) <= 1e-12
    with pytest.raises(NotAdmissible):
        hull_norm(np.array([[0.9, 0.0], [0.0, 0.4]]))  # trace 1.3
    with pytest.raises(NotAdmissible):
        hull_norm(np.array([[1.2, 0.0], [0.0, -0.2]]))  # eigenvalue outside [0, 1]


@given(angles, angles, st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_hull_norm_convex_combination_property(a1, a2, lam):
    q = lam * projection_angle(a1) + (1.0 - lam) * projection_angle(a2)
    assert hull_norm(q) <= 0.5 + 1e-12


def test_interior_grids_respect_margins():
    gs = GapSet(((-2.0, -1.0), (1.0, 2.0)))
    tg = gap_interior_grid(gs)
    assert (gs.containing_gaps(tg) >= 0).all()
    assert gs.endpoint_errors(tg) == {}
    eg = e_interior_grid(gs)
    assert (gs.containing_gaps(eg) == -1).all()
    assert gs.endpoint_errors(eg) == {}
    # gaps 1.3e-5 apart: the narrow gap's first interior point lies in the
    # wide gap's endpoint margin, so the gap probes read the grid less that
    # point, and gap_realness raises its error
    near = GapSet(((-50.5, 49.5), (49.500013, 50.500013)))
    ts, errors = gap_realness_points(near)
    grid = gap_interior_grid(near)
    assert list(errors) == [7]
    np.testing.assert_array_equal(ts, np.delete(grid, 7))
    with pytest.raises(EndpointSingularity, match="t = 49.550013 is within") as info:
        gap_realness(KreinProfile.uniform(near, 0.4))
    assert str(info.value) == str(errors[7])


def test_interior_grids_are_the_per_gap_formulas():
    # one broadcast over all gaps and bands gives, bit for bit, the
    # linspace of each gap's 5% to 95% and each band's 10% to 90%, the
    # band points less those within 1e-3 of a gap's width of its endpoints
    rng = np.random.default_rng(20)
    dropped = 0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        edges = np.cumsum(rng.uniform(1e-3, 3.0, 2 * n)) + rng.uniform(-50.0, 50.0)
        gs = GapSet(tuple(zip(edges[::2].tolist(), edges[1::2].tolist())))
        gaps = [a + (b - a) * np.linspace(0.05, 0.95, 7) for a, b in gs.gaps]
        assert np.array_equal(gap_interior_grid(gs), np.concatenate(gaps))
        scale = max(1.0, gs.spectral_radius)
        pts = [gs.gaps[0][0] - scale * np.linspace(0.3, 1.2, 3),
               gs.gaps[-1][1] + scale * np.linspace(0.3, 1.2, 3)]
        for (_, b), (a, _) in zip(gs.gaps, gs.gaps[1:]):
            pts.append(np.linspace(b + 0.1 * (a - b), a - 0.1 * (a - b), 3))
        pts = np.sort(np.concatenate(pts))
        clear = [t for t in pts
                 if all(min(abs(t - a), abs(t - b)) >= 1e-3 * (b - a) for a, b in gs.gaps)]
        dropped += len(pts) - len(clear)
        assert np.array_equal(e_interior_grid(gs), clear)
    # bands down to 1e-3 wide beside gaps up to 3 wide: some points drop
    assert dropped > 0
