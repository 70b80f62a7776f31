"""Branch logarithm and 2x2 spectral calculus."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kreindirac import (
    I2,
    J,
    branch_log,
    hull_norm,
    mexp,
    mlog_integral,
    mlog_spectral,
    op_norm_sym,
)
from kreindirac.errors import QuadratureFailure, SpectrumNotUpper, SpectrumOnCut
from kreindirac.mat2 import as_mat2, eigvals_batch, eigvec_batch, im_part, re_part


def test_constants():
    np.testing.assert_array_equal(J, [[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(J @ J, -I2)


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw):
    entries = [complex(draw(finite), draw(finite)) for _ in range(4)]
    return np.array(entries).reshape(2, 2)


@given(st.lists(matrices(), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_eigvec_batch_solves_the_eigenproblem(mats):
    # needs a spectral gap; the confluent choice is tested on Jordan blocks
    mats = [a for a in mats
            if abs(np.subtract(*np.linalg.eigvals(a))) > 1e-2 * (1 + np.abs(a).max())]
    assume(mats)
    stack = np.stack(mats)
    for lam in eigvals_batch(stack):
        v = eigvec_batch(stack, lam)
        for a, l, x in zip(stack, lam, v):
            res = np.linalg.norm(a @ x - l * x)
            assert res <= 1e-12 * (np.linalg.norm(a, 2) + abs(l)) * np.linalg.norm(x)
            assert np.linalg.norm(x) > 0
        # one matrix gives the vector of the stack
        np.testing.assert_array_equal(eigvec_batch(stack[0], lam[0]), v[0])


def test_eigvec_batch_takes_the_larger_row():
    # A - lam I is nilpotent on a Jordan block: the kernel direction comes
    # from its nonzero row, and from the first row on a tie
    stack = np.array([[[2.0, 1.0], [0.0, 2.0]],
                      [[2.0, 0.0], [1.0, 2.0]],
                      [[1.0, 1.0], [1.0, 1.0]]])
    v = eigvec_batch(stack, [2.0, 2.0, 0.0])
    np.testing.assert_array_equal(v, [[-1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]])
    np.testing.assert_array_equal(eigvec_batch(stack[0], 2.0), [-1.0, 0.0])


def test_branch_log_values():
    # cut along the negative imaginary axis; argument in (-pi/2, 3pi/2)
    assert branch_log(1.0) == 0.0
    np.testing.assert_allclose(branch_log(-1.0), 1j * math.pi, atol=1e-15)
    np.testing.assert_allclose(branch_log(1j), 0.5j * math.pi, atol=1e-15)
    th = 2.0  # second quadrant stays on the +pi side
    np.testing.assert_allclose(branch_log(np.exp(1j * th)), 1j * th, atol=1e-14)
    # the ray itself keeps the closed -pi/2 edge; only 0 is rejected
    np.testing.assert_allclose(branch_log(-1j), -0.5j * math.pi, atol=1e-15)
    with pytest.raises(SpectrumOnCut):
        branch_log(0.0)
    # the matrix log refuses spectra on the cut
    with pytest.raises(SpectrumOnCut):
        mlog_spectral(np.diag([-1j, 1.0]))


def test_branch_log_against_principal():
    # the two branches agree wherever the argument lies in (-pi/2, pi)
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = complex(rng.normal(), rng.normal())
        ang = math.atan2(w.imag, w.real)
        if -math.pi / 2 + 1e-6 < ang < math.pi - 1e-6:
            np.testing.assert_allclose(branch_log(w), np.log(w), atol=1e-14)


def _strip_matrices(count, seed, floor=0.05):
    """Random matrices whose spectrum stays clear of the log cut."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lam = np.linalg.eigvals(a)
        # distance to the ray {-iy : y >= 0}
        dist = np.where(lam.imag >= 0, np.abs(lam), np.abs(lam.real))
        if np.all(dist > floor):
            out.append(a)
    return out


def test_mlog_spectrum_in_strip_and_inverts_exp():
    for a in _strip_matrices(300, seed=11):
        la = mlog_spectral(a)
        lam = np.linalg.eigvals(la)
        assert np.all(lam.imag > -math.pi / 2 - 1e-12)
        assert np.all(lam.imag < 3 * math.pi / 2 + 1e-12)
        np.testing.assert_allclose(mexp(la), a, atol=1e-10 * (1 + np.abs(a).max()))


def test_mlog_dual_routes_agree():
    # spectral versus integral representation on upper spectra
    rng = np.random.default_rng(12)
    n = 0
    while n < 100:
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if np.any(np.linalg.eigvals(a).imag < 0.05):
            continue
        n += 1
        np.testing.assert_allclose(mlog_spectral(a), mlog_integral(a), atol=1e-9)


def test_mlog_integral_rejects_lower_spectrum():
    with pytest.raises(SpectrumNotUpper):
        mlog_integral(np.array([[1.0 - 1j, 0.0], [0.0, 1j]]))


def test_mlog_integral_near_the_negative_axis():
    # an eigenvalue near -1 puts a near pole of (tI + A)^-1 at t = 1: the
    # rule resolves it 1e-3 off the axis, and must raise, not return a wrong
    # matrix, where no level resolves it
    a = np.diag([-1.0 + 1e-3j, 2j])
    np.testing.assert_allclose(mlog_integral(a), mlog_spectral(a), atol=1e-9)
    with pytest.raises(QuadratureFailure):
        mlog_integral(np.diag([-1.0 + 1e-6j, 2j]))


def test_mlog_near_confluent_stability():
    # eigenvalues a distance eps apart must not blow up the log
    for eps in (1e-4, 1e-7, 3e-9, 1.1e-9, 1e-10, 0.0):
        a = np.array([[1j, 1.0], [0.0, 1j * (1 + eps)]])
        la = mlog_spectral(a)
        np.testing.assert_allclose(mexp(la), a, atol=1e-8)
        # exp of the triangular matrix has the divided difference
        # (e^l1 - e^l2)/(l1 - l2) = e^l2 (1 + d/2 + d^2/6 + ...) in the corner
        l1, l2 = a[0, 0], a[1, 1]
        d = l1 - l2
        corner = np.exp(l2) * (1 + d / 2 + d * d / 6 + d ** 3 / 24 + d ** 4 / 120)
        exact = np.array([[np.exp(l1), corner], [0.0, np.exp(l2)]])
        np.testing.assert_allclose(mexp(a), exact, rtol=0, atol=1e-10)


@given(finite, finite)
@settings(max_examples=100, deadline=None)
def test_op_norm_sym_matches_eigenvalues(p, q):
    w = np.array([[p, q], [q, -p]])
    assert math.isclose(op_norm_sym(p, q), float(np.linalg.norm(w, 2)),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_parts_and_symmetry_helpers():
    a = np.array([[1 + 2j, 3 - 1j], [0.5j, -2.0]])
    np.testing.assert_allclose(re_part(a) + 1j * im_part(a), a, atol=1e-15)
    assert np.allclose(im_part(a), im_part(a).conj().T)


def test_entry_points_take_one_matrix_or_a_stack():
    stack = np.array([[[1j, 0.5], [0.5, 2j]], [[-1.0 + 1j, 0.0], [2.0, 1j]]])
    assert as_mat2(stack).shape == (2, 2, 2)
    for fn in (mexp, mlog_spectral, re_part, im_part):
        out = fn(stack)
        assert out.shape == (2, 2, 2)
        for a, one in zip(stack, out):
            np.testing.assert_array_equal(fn(a), one)
    ws = np.array([[1.0, -1.0], [1j, -1j]])
    np.testing.assert_array_equal(branch_log(ws), [[branch_log(w) for w in row] for row in ws])
    assert isinstance(branch_log(2.0), complex)
    with pytest.raises(SpectrumOnCut):
        branch_log(np.array([1.0, 0.0]))
    # functions defined on one matrix refuse a stack
    q = np.array([[0.5, 0.5], [0.5, 0.5]])
    for fn, a in ((mlog_integral, stack), (hull_norm, np.stack([q, q]))):
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            fn(a)


def test_as_mat2_takes_strided_views():
    # a transpose is not contiguous along its last axis
    a = np.array([[1.0, 2j], [3.0, 4.0 - 1j]])
    np.testing.assert_array_equal(as_mat2(a.T), a.T)
    stack = np.stack([a, 2.0 * a]).transpose(0, 2, 1)
    np.testing.assert_array_equal(mexp(stack)[1], mexp(2.0 * a.T))
    with pytest.raises(ValueError, match="finite"):
        as_mat2(np.array([[1.0, np.nan], [0.0, 1.0]]).T)


def test_as_mat2_validates_shape():
    with pytest.raises(ValueError):
        as_mat2(np.eye(3))
