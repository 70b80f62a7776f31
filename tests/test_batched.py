"""Batched evaluation over point arrays and matrix stacks against one-point
evaluation and independent references."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kreindirac import GapSet, KreinProfile, build_logM, build_M, mexp, mlog_spectral
from kreindirac.errors import EndpointSingularity
from kreindirac.mat2 import mexp_batch, mlog_batch


def _close(batched, reference, rtol):
    scale = max(1.0, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(batched - reference))) <= rtol * scale


unit = st.floats(0.0, 1.0)


@st.composite
def profile_and_points(draw):
    """A piecewise-constant profile with 0 to 8 gaps, uniform or mismatched
    angles, and a shuffled mix of upper-half-plane points, real points in E
    and real points inside gaps, all clear of the endpoint margins."""
    n = draw(st.integers(0, 8))
    a = draw(st.floats(-6.0, 0.0))
    gaps = []
    for _ in range(n):
        w = draw(st.floats(0.1, 2.0))
        gaps.append((a, a + w))
        a += w + draw(st.floats(0.1, 2.0))
    gs = GapSet(tuple(gaps))
    if draw(st.booleans()):
        prof = KreinProfile.uniform(gs, draw(st.floats(0.0, math.pi)))
    else:
        prof = KreinProfile(gs, tuple(draw(st.floats(0.0, math.pi)) for _ in gaps))

    pts = [complex(draw(st.floats(-10.0, 10.0)), draw(st.floats(1e-3, 5.0)))
           for _ in range(draw(st.integers(1, 6)))]
    # real points in E: outside the hull of the gaps and in the bands between
    edges = [g[0] for g in gaps] + [g[1] for g in gaps]
    lo, hi = (min(edges), max(edges)) if gaps else (0.0, 0.0)
    pts.append(complex(lo - 0.1 - 3.0 * draw(unit)))
    pts.append(complex(hi + 0.1 + 3.0 * draw(unit)))
    for (_, b), (a2, _) in zip(gaps, gaps[1:]):
        pts.append(complex(b + (a2 - b) * (0.05 + 0.9 * draw(unit))))
    # real points inside the gaps
    for g0, g1 in gaps:
        pts.append(complex(g0 + (g1 - g0) * (0.05 + 0.9 * draw(unit))))
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
        assert _close(lg, build_logM(prof, complex(z)), 1e-13)
        assert _close(m, build_M(prof, complex(z)), 1e-13)
        assert _close(lg, _logM_reference(prof, complex(z)), 1e-12)


def test_batched_build_in_slices():
    # more points x gaps than one block holds: the slices must line up
    gs = GapSet(tuple((3.0 * j, 3.0 * j + 1.0) for j in range(8)))
    prof = KreinProfile(gs, tuple(0.3 * j for j in range(8)))
    rng = np.random.default_rng(7)
    zs = rng.uniform(-2.0, 26.0, 5000) + 1j * rng.uniform(1e-3, 3.0, 5000)
    whole = build_M(prof, zs)
    parts = np.concatenate([build_M(prof, zs[i:i + 64]) for i in range(0, 5000, 64)])
    assert _close(whole, parts, 1e-13)


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
    dd = np.exp(l2) * (np.expm1(d) / d if d != 0 else 1.0)
    return np.array([[np.exp(l1), a[0, 1] * dd], [0.0, np.exp(l2)]])


def _off_cut(m):
    lam = np.linalg.eigvals(m)
    return bool(np.all(np.where(lam.imag >= 0, np.abs(lam), np.abs(lam.real)) > 0.05))


@given(matrix_stacks())
@settings(max_examples=150, deadline=None)
def test_batched_mexp_mlog_agree_with_one_matrix(stack):
    exps = mexp_batch(stack)
    for a, e in zip(stack, exps):
        assert _close(e, mexp(a), 1e-13)
        assert _close(e, _exp_reference(a), 1e-9)
    stack = np.array([a for a in stack if _off_cut(a)]).reshape(-1, 2, 2)
    logs = mlog_batch(stack)
    for a, lg in zip(stack, logs):
        assert _close(lg, mlog_spectral(a), 1e-13)
        assert _close(mexp(lg), a, 1e-8)
