"""Exact-shape kernel for 2x2 complex matrices.

Everything in this package runs through 2x2 complex matrices: values of the
matrix Herglotz function M(z), Krein densities xi(t), transfer matrices and
trace-zero potentials.  This module supplies the closed-form eigenapparatus
and the matrix logarithm with the one branch that makes Krein densities well
defined:

* the scalar branch cut sits on the negative imaginary axis, so the branch
  maps the closed upper half plane minus {0} into the strip
  -pi/2 < Im log w < 3pi/2 and agrees with the principal logarithm on the
  upper half plane (0 < Im log w < pi there, log 1 = 0);
* matrices are treated by the 2x2 Lagrange-Sylvester formula, with a
  confluent (Jordan) fallback f(A) = f(lam) I + f'(lam) N when the two
  eigenvalues coalesce;
* every operation has one entry point, which takes one matrix or a stack
  of matrices, an ``(N, 2, 2)`` array, and works in closed form without a
  Python loop over the stack; the stacked routines behind the entry points
  are private (``_mexp``, ``_mlog``), so no entry point calls itself by
  its public name;
* the spectral norm has a closed form too (``op_norm``), so no SVD runs;
* an independent integral representation of the logarithm,
  log A = int_0^inf [ t/(t^2+1) I - (t I + A)^(-1) ] dt, valid for spectra in
  the open upper half plane, serves as a cross-check route.

Matrices are plain ``(2, 2)`` complex ``numpy`` arrays, stacks are
``(N, 2, 2)`` arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure, SpectrumNotUpper, SpectrumOnCut

__all__ = [
    "J",
    "I2",
    "JORDAN_TOL",
    "as_mat2",
    "is_symmetric",
    "re_part",
    "im_part",
    "eigvals_batch",
    "eigvec_batch",
    "branch_log",
    "mexp",
    "mlog_spectral",
    "mlog_integral",
    "herglotz_positive",
    "op_norm",
    "op_norm_sym",
]

# Symplectic rotation entering the Dirac system J y' + W y = -z y.
J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# Relative eigenvalue gap |lam1 - lam2| <= JORDAN_TOL * scale below which
# a matrix is treated as confluent (single eigenvalue, possibly with a
# nilpotent part).  The scale is |lam1| + |lam2| + |a01| + |a10|: within a
# factor 2 of the entry sum, so of ||A||, at the cost of two moduli.  The
# eigenvalues come from a square root of the discriminant, so a gap g
# carries a rounding error of about eps ||A|| / g, which the
# Lagrange-Sylvester divided difference inherits; the confluent formula is
# off by about g^2 instead.  The two errors meet near g = 1e-5 ||A||, and
# at 1e-6 both stay below 1e-10 ||A||.
JORDAN_TOL = 1e-6

# Relative distance to the branch cut below which the spectral logarithm
# refuses to choose a branch.
_CUT_TOL = 1e-13

# Exp-sinh rule of mlog_integral: nodes s in [-_ES_SPAN, _ES_SPAN], at
# most _ES_LEVELS halvings of the unit step, and levels that agree to _ES_TOL
# relative end it.
_ES_SPAN = 4.0
_ES_LEVELS = 14
_ES_TOL = 1e-12

# (2, 1) column turning a half trace h and a root d into the pair h +/- d.
_PLUS_MINUS = np.array([[1.0], [-1.0]])


def as_mat2(a) -> np.ndarray:
    """Coerce ``a`` to a finite complex (2, 2) matrix or (N, 2, 2) stack.

    Raises ``ValueError`` on any other shape or on non-finite entries; this
    is the only entry validation the kernel performs.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or an (N, 2, 2) stack, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _one(a) -> np.ndarray:
    # as_mat2 for the functions defined on one matrix only
    m = as_mat2(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


def is_symmetric(a, tol: float = 1e-12) -> bool:
    """True if ``a`` equals its transpose up to ``tol`` relative to its norm."""
    m = _one(a)
    return abs(m[0, 1] - m[1, 0]) <= tol * max(op_norm(m), 1.0)


def op_norm(a):
    """Spectral norm (largest singular value) of one matrix, as a float, or
    of each matrix of a stack, as an (N,) array.

    Closed form sqrt((F + sqrt(F^2 - 4 |det A|^2)) / 2) with F = ||A||_F^2.
    The discriminant is formed as (p - q)^2 + 4 |r|^2 from the entries
    [[p, r], [r*, q]] of A* A, a sum of squares, so it keeps full relative
    accuracy where the singular values nearly coincide.  Each matrix is
    first scaled by 2^-e, with 2^e the power of two just above its largest
    entry modulus (at least 2^-1022, so the factor stays finite), and the
    norm by 2^e after: the squares then neither underflow nor overflow, and
    scaling by a power of two is exact.
    """
    m = as_mat2(a)
    _, e = np.frexp(np.abs(m).max(axis=(-2, -1)))
    e = np.maximum(e, -1022)
    u = m * np.ldexp(1.0, -e)[..., None, None]
    sq = u.real ** 2 + u.imag ** 2
    p = sq[..., 0, 0] + sq[..., 1, 0]
    q = sq[..., 0, 1] + sq[..., 1, 1]
    r = u[..., 0, 0].conj() * u[..., 0, 1] + u[..., 1, 0].conj() * u[..., 1, 1]
    return np.ldexp(np.sqrt(0.5 * (p + q) + np.hypot(0.5 * (p - q), np.abs(r))), e)


def re_part(a) -> np.ndarray:
    """Matrix real part (A + A*)/2 (entrywise real part for symmetric A), of
    one matrix or of each matrix in a stack."""
    m = as_mat2(a)
    return (m + np.swapaxes(m, -1, -2).conj()) / 2.0


def im_part(a) -> np.ndarray:
    """Matrix imaginary part (A - A*)/(2i) (entrywise imaginary part for
    symmetric A), of one matrix or of each matrix in a stack."""
    m = as_mat2(a)
    return (m - np.swapaxes(m, -1, -2).conj()) / 2.0j


def _eig_pairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # half traces h and eigenvalue pairs h +/- sqrt(h^2 - det); the
    # explicit form keeps conjugate symmetry and avoids LAPACK
    half_tr = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    return half_tr, half_tr + _PLUS_MINUS * np.sqrt(half_tr * half_tr - det)


def eigvals_batch(a) -> np.ndarray:
    """Eigenvalue pairs of one matrix, as a (2,) array, or of an (N, 2, 2)
    stack, as a (2, N) array.

    Row 0 holds lam1 = h + d and row 1 lam2 = h - d, the roots of
    lam^2 - 2 h lam + det with h the half trace and d = sqrt(h^2 - det).
    """
    m = as_mat2(a)
    return _eig_pairs(m.reshape(-1, 2, 2))[1].reshape((2,) + m.shape[:-2])


def eigvec_batch(a, lam) -> np.ndarray:
    """Eigenvector of one matrix for the eigenvalue ``lam``, as a (2,)
    array, or of each matrix of an (N, 2, 2) stack for one eigenvalue per
    matrix, as an (N, 2) array.

    An eigenvector annihilates both rows of A - lam I; each vector is the
    kernel direction (-r1, r0) of the numerically larger row r (by
    |r0| + |r1|, the first row on a tie), not normalized.
    """
    m = as_mat2(a)
    r = m.reshape(-1, 2, 2) - np.asarray(lam)[..., None, None] * I2
    size = np.abs(r[:, :, 0]) + np.abs(r[:, :, 1])
    row = r[np.arange(len(r)), (size[:, 1] > size[:, 0]).astype(int)]
    return np.stack([-row[:, 1], row[:, 0]], axis=1).reshape(m.shape[:-1])


def _branch_log(w: np.ndarray) -> np.ndarray:
    # argument moved from (-pi, pi] into (-pi/2, 3pi/2); arctan2 and log|w|
    # cost a fraction of numpy's complex log on short arrays
    out = np.empty(w.shape, dtype=complex)
    np.log(np.abs(w), out=out.real)
    ang = out.imag
    np.arctan2(w.imag, w.real, out=ang)
    np.add(ang, 2.0 * np.pi, out=ang, where=ang < -0.5 * np.pi)
    return out


def branch_log(w):
    """Logarithm with the branch cut on the negative imaginary axis, of one
    number, as a complex, or elementwise of an array.

    Agrees with the principal logarithm off the third/fourth-quadrant wedge:
    the argument is taken in (-pi/2, 3pi/2), so negative reals get argument
    +pi (the limit from the upper half plane) and log 1 = 0.
    """
    arr = np.asarray(w, dtype=complex)
    if (arr == 0).any():
        raise SpectrumOnCut("logarithm of 0 requested")
    out = _branch_log(np.atleast_1d(arr))
    return out if arr.ndim else complex(out[0])


def _on_cut(lam: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues ``lam`` (a (2, ...) array of pairs, moduli
    ``mod``) on the ray {-iy : y >= 0}: their distance to it, |lam| in the
    upper half plane and |Re lam| below, is within _CUT_TOL of the larger
    modulus of their pair."""
    tol = _CUT_TOL * np.maximum(mod[0], mod[1])
    near = np.abs(lam.real) <= tol
    if not near.any():
        return near
    return near & ((lam.imag < 0.0) | (mod <= tol))


def _cut_error(lam: np.ndarray, bad: np.ndarray) -> SpectrumOnCut:
    # the error naming the first matrix of a (2, N) pair stack with an
    # eigenvalue on the cut, as _on_cut marks them in ``bad``
    k, i = np.argwhere(bad.T)[0]
    return SpectrumOnCut(f"eigenvalue {complex(lam[i, k])} lies on the branch cut")


def _slope(lam: np.ndarray, mod: np.ndarray, half_tr: np.ndarray, a01: np.ndarray,
           a10: np.ndarray, f_lam: np.ndarray, fprime) -> tuple[np.ndarray, np.ndarray | None]:
    """Divided difference s = (f(lam1) - f(lam2)) / (lam1 - lam2) of
    matrices with eigenvalue pairs ``lam`` (a (2, ...) array), their moduli
    ``mod``, half traces ``half_tr``, off-diagonal entries ``a01``, ``a10``
    and values ``f_lam`` = f(lam), with the confluence mask (None when no
    matrix is confluent).

    A matrix is confluent when |lam1 - lam2| <= JORDAN_TOL times its scale
    |lam1| + |lam2| + |a01| + |a10| (the eigenvalue moduli alone miss
    non-normal matrices with tiny spectra); its s is fprime(half_tr).
    """
    gap = lam[0] - lam[1]
    conf = np.abs(gap) <= JORDAN_TOL * (mod[0] + mod[1] + np.abs(a01) + np.abs(a10))
    # adding conf keeps the confluent denominators off zero; their s is replaced
    s = (f_lam[0] - f_lam[1]) / (gap + conf)
    if not conf.any():
        return s, None
    return np.where(conf, fprime(half_tr), s), conf


def _apply_analytic(a: np.ndarray, half_tr: np.ndarray, lam: np.ndarray,
                    mod: np.ndarray, f, fprime) -> np.ndarray:
    """f(A) for a stack with eigenvalue pairs ``lam`` ((2, N)), their
    moduli ``mod`` and the half traces ``half_tr``.

    Newton form of the Lagrange-Sylvester interpolant on the nodes
    lam1, lam2: f(A) = f(lam2) I + s (A - lam2 I), s the divided difference
    of :func:`_slope`.  On confluent matrices (JORDAN_TOL) the node is the
    mean half_tr and s = f'(half_tr), which is f(lam) I + f'(lam) N.
    """
    f_lam = f(lam)
    s, conf = _slope(lam, mod, half_tr, a[:, 0, 1], a[:, 1, 0], f_lam, fprime)
    mu, f_mu = lam[1], f_lam[1]
    if conf is not None:
        mu = np.where(conf, half_tr, mu)
        f_mu = np.where(conf, f(mu), f_mu)
    out = s[:, None, None] * a
    diag = f_mu - s * mu
    out[:, 0, 0] += diag
    out[:, 1, 1] += diag
    return out


def _mexp(m: np.ndarray) -> np.ndarray:
    half_tr, lam = _eig_pairs(m)
    return _apply_analytic(m, half_tr, lam, np.abs(lam), np.exp, np.exp)


def mexp(a) -> np.ndarray:
    """Matrix exponential (spectral form, confluent-safe) of one matrix or
    of every matrix in an (N, 2, 2) stack."""
    m = as_mat2(a)
    return _mexp(m.reshape(-1, 2, 2)).reshape(m.shape)


def _mlog(m: np.ndarray) -> np.ndarray:
    half_tr, lam = _eig_pairs(m)
    mod = np.abs(lam)
    bad = _on_cut(lam, mod)
    if bad.any():
        raise _cut_error(lam, bad)
    return _apply_analytic(m, half_tr, lam, mod, _branch_log, np.reciprocal)


def mlog_spectral(a) -> np.ndarray:
    """Matrix logarithm with spectrum mapped into the strip -pi/2 < Im < 3pi/2,
    of one matrix or of every matrix in an (N, 2, 2) stack.

    The scalar branch of :func:`branch_log` is applied to both eigenvalues;
    the confluent case A = lam I + N returns log(lam) I + N / lam.  This is
    the unique logarithm whose spectrum lies in the strip, which is what
    makes boundary densities (1/pi) Im log M(t) well defined: matrices
    approached from the upper half plane have eigenvalues just above the
    real axis, safely away from the cut on the negative imaginary axis.

    Raises
    ------
    SpectrumOnCut
        If an eigenvalue lies on the excluded ray {-iy : y >= 0} within a
        relative distance of 1e-13; on a stack it names the first such
        matrix.
    """
    m = as_mat2(a)
    return _mlog(m.reshape(-1, 2, 2)).reshape(m.shape)


def mlog_integral(a) -> np.ndarray:
    """Matrix logarithm by the integral representation (upper spectra only).

        log A = int_0^inf [ t/(t^2+1) I - (t I + A)^(-1) ] dt

    With q(t) = det(t I + A) = t^2 + t tr A + det A and the adjugate
    adj A, the closed-form 2x2 inverse turns the integrand into

        [ t^2 A + (det A - 1) t I - adj A ] / ((t^2 + 1) q(t)),

    which has no cancellation at either end of the half line.  It is
    integrated by the exp-sinh rule of Takahasi & Mori (Publ. RIMS 9, 1974):
    the trapezoidal rule in s on the nodes t = exp(pi/2 sinh s), |s| <= 4,
    with the step h halved until two successive levels agree to
    ``1e-12 * max(1, |result|)`` (entrywise maximum).  For spectra in the
    open upper half plane this agrees with :func:`mlog_spectral`; the two
    routes share no code, so their agreement is a genuine cross-check of the
    branch choice.

    Raises
    ------
    SpectrumNotUpper
        If an eigenvalue has Im <= 0 (the representation fails there).
    QuadratureFailure
        If the levels run out before two of them agree, as they do for
        eigenvalues close to the negative real axis.
    """
    m = _one(a)
    lam = _eig_pairs(m[None])[1][:, 0]
    if (lam.imag <= 0).any():
        raise SpectrumNotUpper(f"spectrum {{{complex(lam[0])}, {complex(lam[1])}}} "
                               "is not in the open upper half plane")
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])

    def node_sum(s):
        # integrand times dt/ds, summed over the nodes s
        t = np.exp(0.5 * np.pi * np.sinh(s))
        t2 = t * t
        w = 0.5 * np.pi * np.cosh(s) * t / ((t2 + 1.0) * (t2 + tr * t + det))
        return (w @ t2) * m + ((det - 1.0) * (w @ t)) * I2 - w.sum() * adj

    h = 1.0
    total = node_sum(np.arange(-_ES_SPAN, _ES_SPAN + h, h))
    res = h * total
    for _ in range(_ES_LEVELS):
        # the new level adds the odd multiples of h / 2
        total += node_sum(np.arange(0.5 * h - _ES_SPAN, _ES_SPAN, h))
        h *= 0.5
        prev, res = res, h * total
        if np.abs(res - prev).max() <= _ES_TOL * max(1.0, np.abs(res).max()):
            return res
    raise QuadratureFailure(f"logarithm quadrature still moved by {np.abs(res - prev).max():.3e} "
                            f"at step {h:g}")


def herglotz_positive(a, tol: float = 0.0) -> bool:
    """True if the matrix imaginary part (A - A*)/(2i) is positive definite.

    For the 2x2 hermitian imaginary part positivity is equivalent to
    trace > 0 together with det > 0; ``tol`` loosens both checks.
    """
    b = im_part(_one(a))
    tr = b[0, 0].real + b[1, 1].real
    det = (b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]).real
    return tr > -tol and det > -tol * max(tr, 1.0)


def op_norm_sym(p: float, q: float) -> float:
    """Operator norm of the trace-zero symmetric matrix [[p, q], [q, -p]]."""
    return float(np.hypot(p, q))
