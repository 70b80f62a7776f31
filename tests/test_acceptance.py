"""Acceptance gate: one test per criterion, names double as the report lines.

Each test prints a [criterion NN] PASS line with the measured extremes
(visible with -s or -rA; the per-test PASSED/FAILED line of -v carries the
verdict either way).
"""

import math

import numpy as np

from kreindirac import (
    GapSet,
    KreinProfile,
    assemble_M,
    build_M,
    const_weyl,
    hull_norm,
    krein_xi,
    mexp,
    mlog_integral,
    mlog_spectral,
    profile_m_function,
    projection_angle,
    reflectionless_defect,
    sample_potential,
    sharp_bound,
    trace_formula_W0,
    weyl_from_M,
)
from kreindirac.finitegap import _angle_distance, e_interior_grid, gap_realness_reduce
from kreindirac.herglotz import asymptotic_points, asymptotic_reduce


def _verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_gapset(rng, n=None):
    n = int(rng.integers(1, 4)) if n is None else n
    while True:
        edges = np.sort(rng.uniform(-3.0, 3.0, size=2 * n))
        if n == 0 or np.min(np.diff(edges)) >= 0.25:
            break
    return GapSet(tuple((edges[2 * j], edges[2 * j + 1]) for j in range(n)))


def _random_profile(rng, aligned=False):
    gs = _random_gapset(rng)
    if aligned:
        return KreinProfile.uniform(gs, float(rng.uniform(0.0, math.pi)))
    return KreinProfile(gs, tuple(rng.uniform(0.0, math.pi, size=gs.n)))


def _random_z(rng):
    return complex(rng.uniform(-5.0, 5.0), rng.uniform(0.05, 5.0))


def _three_per_gap(gs):
    # 3 points per gap from 5% to 95% of its width, clear of the margins
    a, b = gs.endpoints
    return (a[:, None] + (b - a)[:, None] * np.linspace(0.05, 0.95, 3)).ravel()


def test_criterion_01_determinant_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(500):
        prof = _random_profile(rng, aligned=bool(k % 2))
        m = build_M(prof, _random_z(rng))
        worst = max(worst, abs(np.linalg.det(m) + 1.0))
    _verdict(1, worst <= 1e-10, f"max |det M + 1| = {worst:.3e} over 500 pairs")


def test_criterion_02_krein_trace():
    rng = np.random.default_rng(102)
    worst = 0.0
    for k in range(12):
        prof = _random_profile(rng, aligned=bool(k % 2))
        mfun = profile_m_function(prof)
        grid = np.concatenate([_three_per_gap(prof.gapset), e_interior_grid(prof.gapset)])
        for t in grid:
            xi = krein_xi(mfun, float(t)).xi
            worst = max(worst, abs(float(np.trace(xi).real) - 1.0))
    _verdict(2, worst <= 1e-8, f"max |tr xi - 1| = {worst:.3e}")


def test_criterion_03_reflectionless_characterization():
    rng = np.random.default_rng(103)
    worst_half = worst_re = worst_proj = 0.0
    for k in range(10):
        prof = _random_profile(rng, aligned=bool(k % 2))
        mfun = profile_m_function(prof)
        egrid = e_interior_grid(prof.gapset)
        for t in egrid:
            xi = krein_xi(mfun, float(t)).xi
            worst_half = max(worst_half,
                             float(np.linalg.norm(xi - 0.5 * np.eye(2), 2)))
        worst_re = max(worst_re,
                       reflectionless_defect(mfun, egrid))
        gaps = _three_per_gap(prof.gapset)
        for t, j in zip(gaps, prof.gapset.containing_gaps(gaps)):
            xi = krein_xi(mfun, float(t)).xi
            worst_proj = max(worst_proj,
                             float(np.linalg.norm(xi - prof.projection(j), 2)))
    ok = worst_half <= 1e-6 and worst_re <= 1e-6 and worst_proj <= 1e-6
    _verdict(3, ok, f"max ||xi - I/2|| = {worst_half:.3e}, "
                    f"max ||Re M|| = {worst_re:.3e}, "
                    f"max ||xi - P_j|| = {worst_proj:.3e}")


def test_criterion_04_logarithm_branch():
    rng = np.random.default_rng(104)
    worst_exp = worst_dual = 0.0
    worst_strip = -math.inf
    count = 0
    while count < 1000:
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if np.any(np.linalg.eigvals(a).imag < 0.05):
            continue
        count += 1
        la = mlog_spectral(a)
        lam = np.linalg.eigvals(la)
        worst_strip = max(worst_strip,
                          float(np.max(-lam.imag - math.pi / 2)),
                          float(np.max(lam.imag - 3 * math.pi / 2)))
        worst_exp = max(worst_exp, float(np.linalg.norm(mexp(la) - a, 2)))
        worst_dual = max(worst_dual,
                         float(np.linalg.norm(la - mlog_integral(a), 2)))
    ok = worst_strip < 0 and worst_exp <= 1e-10 and worst_dual <= 1e-8
    _verdict(4, ok, f"strip clearance = {-worst_strip:.3e}, "
                    f"max ||exp(log A) - A|| = {worst_exp:.3e}, "
                    f"max spectral-vs-integral = {worst_dual:.3e} on 1000 matrices")


M_2I = np.array([[2j / math.sqrt(5), -1 / math.sqrt(5)],
                 [-1 / math.sqrt(5), 2j / math.sqrt(5)]])


def test_criterion_05_oracle_triangle():
    prof = KreinProfile.uniform(GapSet(((-1.0, 1.0),)), math.pi / 4)
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        z = _random_z(rng)
        worst = max(worst, float(np.linalg.norm(
            assemble_M(const_weyl(0.0, 1.0, z)) - build_M(prof, z), 2)))
    pinned = float(np.linalg.norm(build_M(prof, 2j) - M_2I, 2))
    ok = worst <= 1e-8 and pinned <= 1e-10
    _verdict(5, ok, f"max triangle deviation = {worst:.3e} on 20 z, "
                    f"pinned M(2i) deviation = {pinned:.3e}")


def test_criterion_06_sharp_bound_dichotomy():
    rng = np.random.default_rng(106)
    worst_eq = 0.0
    for _ in range(50):
        prof = _random_profile(rng, aligned=True)
        w0 = trace_formula_W0(prof)
        worst_eq = max(worst_eq, abs(w0.norm - sharp_bound(prof.gapset)))
    # non-uniform two-gap profiles with separated angles stay strictly below
    min_deficit = math.inf
    worst_over = -math.inf
    made = 0
    while made < 200:
        widths = rng.uniform(0.6, 2.0, size=2)
        mid = rng.uniform(0.3, 1.0)
        gs = GapSet(((-mid - widths[0], -mid), (mid, mid + widths[1])))
        a1, a2 = rng.uniform(0.0, math.pi, size=2)
        if _angle_distance(a1, a2) < 0.1:
            continue
        made += 1
        w0 = trace_formula_W0(KreinProfile(gs, (a1, a2)))
        deficit = sharp_bound(gs) - w0.norm
        min_deficit = min(min_deficit, deficit)
        worst_over = max(worst_over, -deficit)
    ok = worst_eq <= 1e-13 and min_deficit >= 1e-3 and worst_over <= 1e-12
    _verdict(6, ok, f"uniform |norm - bound| = {worst_eq:.3e}, "
                    f"min strict deficit = {min_deficit:.3e} on 200 profiles, "
                    f"max overshoot = {worst_over:.3e}")


def test_criterion_07_gap_realness():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(15):
        prof = _random_profile(rng, aligned=True)
        pts = []
        for a, b in prof.gapset.gaps:
            w = b - a
            pts.extend(a + w * np.linspace(1.1e-3, 1.0 - 1.1e-3, 9))
        worst = max(worst, gap_realness_reduce(build_M(prof, np.array(pts))))
    _verdict(7, worst <= 1e-9,
             f"max ||Im M(t)|| = {worst:.3e} with delta = 1e-3 exclusion")


def test_criterion_08_weyl_roundtrip():
    rng = np.random.default_rng(108)
    worst_eig = worst_rt = 0.0
    for k in range(100):
        prof = _random_profile(rng, aligned=bool(k % 2))
        m = build_M(prof, _random_z(rng))
        lam = sorted(np.linalg.eigvals(m @ np.array([[0.0, -1.0], [1.0, 0.0]])),
                     key=lambda v: v.real)
        worst_eig = max(worst_eig, abs(lam[0] + 1.0), abs(lam[1] - 1.0))
        worst_rt = max(worst_rt, float(np.linalg.norm(
            assemble_M(weyl_from_M(m)) - m, 2)))
    ok = worst_eig <= 1e-10 and worst_rt <= 1e-9
    _verdict(8, ok, f"max MJ eigenvalue deviation = {worst_eig:.3e}, "
                    f"max roundtrip deviation = {worst_rt:.3e}")


def test_criterion_09_asymptotic_consistency():
    rng = np.random.default_rng(109)
    worst = 0.0
    for k in range(10):
        prof = _random_profile(rng, aligned=bool(k % 2))
        w0 = trace_formula_W0(prof)
        zs = asymptotic_points(prof.gapset)
        w = asymptotic_reduce(zs, profile_m_function(prof)(zs), ("log",))[0]
        worst = max(worst, math.hypot(w.p - w0.p, w.q - w0.q))
    _verdict(9, worst <= 1e-6,
             f"max large-z W(0) deviation = {worst:.3e} (log route)")


def test_criterion_10_orbit_bound():
    rng = np.random.default_rng(110)
    xgrid = np.linspace(0.0, 0.5, 6)
    worst_over = -math.inf
    for _ in range(20):
        # profiles from the realizable (one common projection) class
        gs = _random_gapset(rng, n=int(rng.integers(1, 3)))
        prof = KreinProfile.uniform(gs, float(rng.uniform(0.0, math.pi)))
        bound = sharp_bound(gs)
        for s in sample_potential(prof, xgrid):
            worst_over = max(worst_over, s.norm - bound)
    prof = KreinProfile.uniform(GapSet(((-1.3, 1.3),)), 0.9)
    consts = [s.matrix() for s in sample_potential(prof, xgrid)]
    drift = max(float(np.linalg.norm(c - consts[0], 2)) for c in consts)
    ok = worst_over <= 1e-4 and drift <= 1e-4
    _verdict(10, ok, f"max (||W(x)|| - bound) = {worst_over:.3e} on 20 orbits, "
                     f"extremal profile drift = {drift:.3e}")


def test_criterion_11_hull_lemma():
    rng = np.random.default_rng(111)
    worst = 0.0
    worst_interior = 0.0
    for _ in range(10 ** 4):
        k = int(rng.integers(2, 5))
        lam = rng.dirichlet(np.ones(k))
        q = sum(l * projection_angle(a)
                for l, a in zip(lam, rng.uniform(0.0, math.pi, size=k)))
        nrm = hull_norm(q)
        worst = max(worst, nrm)
        eigs = np.linalg.eigvalsh(q.real)
        if min(eigs[0], 1.0 - eigs[1]) >= 0.05:
            worst_interior = max(worst_interior, nrm)
    ok = worst <= 0.5 + 1e-12 and worst_interior <= 0.5 - 1e-3
    _verdict(11, ok, f"max ||Q - I/2|| = {worst:.12f} on 1e4 combinations, "
                     f"max interior norm = {worst_interior:.6f}")
