"""Finite-gap sets, Krein profiles and the explicit extremal construction.

A finite-gap set is E = R minus a union of n open gaps (a_j, b_j).  A Krein
profile assigns to each gap a constant rank-one orthogonal projection
P(alpha_j); together with the density I/2 on E this is the boundary data of
a matrix Herglotz function

    log M(z) = (i pi / 2) I + sum_j log((b_j - z)/(a_j - z)) (P_j - I/2),

which is symmetric, has det M = -1, positive imaginary part on the upper
half plane, and purely imaginary boundary values on E (the reflectionless
property).  The module also provides the inverse dictionary between M and
the half-line Weyl functions m_plus/m_minus, the trace formula for the
potential at the origin, and the sharp bound ||W|| <= (1/2) sum (b_j - a_j)
together with the convex-hull estimate behind its strictness analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import DegenerateEigenproblem, EndpointSingularity, NotAdmissible, PoleAt
from .mat2 import (I2, J, JORDAN_TOL, as_mat2, branch_log, eigvals_batch, eigvec_batch, im_part,
                   mexp, op_norm, op_norm_sym, re_part)
from .numerics import LIMIT_OFFSETS, LIMIT_ORDER, _read_only, extrapolate_schedule

__all__ = [
    "ENDPOINT_MARGIN",
    "GapSet",
    "KreinProfile",
    "WeylPair",
    "PotentialSample",
    "projection_angle",
    "json_number",
    "profile_from_json",
    "build_logM",
    "build_M",
    "mj_eigenpairs",
    "sphere_ratio",
    "weyl_from_M",
    "assemble_M",
    "trace_formula_W0",
    "sharp_bound",
    "boundary_points",
    "boundary_reduce",
    "reflectionless_points",
    "reflectionless_reduce",
    "reflectionless_boundary_reduce",
    "reflectionless_defect",
    "gap_realness_points",
    "gap_realness_reduce",
    "gap_realness",
    "commutator_reduce",
    "hull_norm",
    "gap_interior_grid",
    "e_interior_grid",
]

# Relative exclusion zone around gap endpoints: evaluations of boundary
# objects stay at least ENDPOINT_MARGIN * (gap width) away from the
# logarithmic singularities.
ENDPOINT_MARGIN = 1e-3
# the smallest normal float: a boundary height below it keeps too few digits
_TINY = float(np.finfo(float).tiny)


def projection_angle(alpha: float) -> np.ndarray:
    """Rank-one orthogonal projection onto span{(cos alpha, sin alpha)}."""
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c * c, s * c], [s * c, s * s]], dtype=complex)


@dataclass(frozen=True)
class GapSet:
    """Ordered disjoint open gaps (a_1, b_1), ..., (a_n, b_n), possibly none.

    ``endpoints`` holds the left and right gap endpoints as two read-only
    arrays of length n.  Gaps whose widths, hull width or default grids
    (5 spectral radii, 128 hull half widths) leave float range are refused
    (ValueError).  So is a gap too narrow for its 7 interior points
    (:func:`gap_interior_grid`): one of them rounds into the gap's own
    endpoint margin, or the smallest height at which a boundary limit
    samples them (:func:`boundary_points`) is below the smallest normal
    float.  A gap one ulp wide rounds its points onto its endpoints, and at
    subnormal heights ``build_M``'s Moebius ratios overflow.  So a gap
    needs a width of about 11 ulps of its endpoints, and of at least
    5.7e-305 anywhere.
    """

    gaps: tuple[tuple[float, float], ...]
    endpoints: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = tuple((float(a), float(b)) for a, b in self.gaps)
        for a, b in norm:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"gap ({a}, {b}) is not a bounded open interval")
        for (_, b), (a2, _) in zip(norm, norm[1:]):
            if not b < a2:
                raise ValueError("gaps must be strictly increasing and disjoint")
        object.__setattr__(self, "gaps", norm)
        # the default grids reach 5 spectral radii for z and 128 hull half
        # widths for the large-z heights
        widths = [b - a for a, b in norm]
        if norm and not all(map(math.isfinite, widths + [
                norm[-1][1] - norm[0][0], 5.0 * self.spectral_radius, 128.0 * self.hull[1]])):
            raise ValueError("gaps past float range: a width, the hull width, 5 spectral "
                             "radii or 128 hull half widths is not finite")
        # a gap's first and last interior points (gap_interior_grid) are its
        # nearest to its endpoints; the smallest height that boundary_points
        # gives them must be a normal float
        first, last = float(_UNIT_ROW[0]), float(_UNIT_ROW[-1])
        y0, y_low = float(LIMIT_OFFSETS[0]), float(LIMIT_OFFSETS[-1])
        for (a, b), w in zip(norm, widths):
            d = min(a + w * first - a, b - (a + w * last))
            if d < ENDPOINT_MARGIN * w or y_low * (min(d, y0) / y0) < _TINY:
                raise ValueError(f"gap ({a}, {b}) is too narrow for its interior points: they "
                                 "round into its endpoint margins or their boundary heights "
                                 "underflow")
        ab = np.array(norm, dtype=float).reshape(-1, 2).T.copy()
        ab.flags.writeable = False
        object.__setattr__(self, "endpoints", (ab[0], ab[1]))

    @property
    def n(self) -> int:
        return len(self.gaps)

    def widths(self) -> np.ndarray:
        return np.array([b - a for a, b in self.gaps], dtype=float)

    @property
    def spectral_radius(self) -> float:
        """Largest |endpoint|, 0 for the gapless set."""
        if not self.gaps:
            return 0.0
        return max(abs(self.gaps[0][0]), abs(self.gaps[-1][1]))

    @property
    def hull(self) -> tuple[float, float]:
        """The midpoint c = (a_1 + b_n)/2 of the gaps' hull and its half
        width R = max(|a_1 - c|, |b_n - c|), the spectral radius of the
        gaps moved by -c; (0, 0) for the gapless set."""
        a, b = (self.gaps[0][0], self.gaps[-1][1]) if self.gaps else (0.0, 0.0)
        c = 0.5 * (a + b)
        return c, max(abs(a - c), abs(b - c))

    def containing_gaps(self, ts) -> np.ndarray:
        """Per point of ``ts``, the index of the open gap containing it, or
        -1 for points of E."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if not self.n:
            return np.full(len(ts), -1)
        a, b = self.endpoints
        j = np.maximum(np.searchsorted(a, ts, side="right") - 1, 0)
        return np.where((a[j] < ts) & (ts < b[j]), j, -1)

    def endpoint_errors(self, ts) -> dict[int, EndpointSingularity]:
        """The EndpointSingularity of each point of ``ts`` inside an endpoint
        exclusion zone, keyed by the point's index in increasing order; each
        names its point and the first gap whose zone holds it."""
        ts = np.asarray(ts, dtype=float).reshape(-1, 1)
        a, b = self.endpoints
        m = ENDPOINT_MARGIN * (b - a)
        bad = (np.abs(ts - a) < m) | (np.abs(ts - b) < m)
        errs = {}
        for i in np.flatnonzero(bad.any(axis=1)):
            a, b = self.gaps[int(np.argmax(bad[i]))]
            errs[int(i)] = EndpointSingularity(
                f"t = {float(ts[i, 0])} is within the exclusion margin of gap ({a}, {b})")
        return errs


def _circular_angle(alpha: float) -> float:
    # Projection angles live on R / pi Z.
    a = math.fmod(float(alpha), math.pi)
    return a + math.pi if a < 0 else a


def _angle_distance(a: float, b: float) -> float:
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


@dataclass(frozen=True)
class KreinProfile:
    """Boundary data on a gap set: one constant projection direction per gap.

    ``angles`` holds one finite angle per gap, normalized into [0, pi).  The
    gapless profile (n = 0) is admissible and describes the free function
    M = i I.  ``projection_defects`` is the read-only (n, 2, 2) stack of
    P_j - I/2.  ``gap_classes`` groups the gap indices whose defects are
    bitwise equal, each group increasing, the largest group first (ties in
    the order of their first gap): a uniform profile is one class, and
    distinct angles give one class per gap.
    """

    gapset: GapSet
    angles: tuple = field(default=())
    projection_defects: np.ndarray = field(init=False, repr=False, compare=False)
    gap_classes: tuple = field(init=False, repr=False, compare=False)
    # build_logM's layout of the classes: per class size, the complex
    # (2, classes, size, 1) endpoints and the widest gap; and the (C, 2, 2)
    # defect of each class
    _class_groups: tuple = field(init=False, repr=False, compare=False)
    _class_defects: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        angles = tuple(self.angles)
        if len(angles) != self.gapset.n:
            raise ValueError(f"expected {self.gapset.n} angles, got {len(angles)}")
        if not all(math.isfinite(a) for a in angles):
            raise ValueError("angles must be finite")
        angles = tuple(_circular_angle(a) for a in angles)
        object.__setattr__(self, "angles", angles)
        ang = np.array(angles, dtype=float)
        c, s = np.cos(ang), np.sin(ang)
        defects = np.empty((self.gapset.n, 2, 2))
        defects[:, 0, 0] = c * c - 0.5
        defects[:, 0, 1] = defects[:, 1, 0] = s * c
        defects[:, 1, 1] = s * s - 0.5
        defects.flags.writeable = False
        object.__setattr__(self, "projection_defects", defects)
        members: dict[bytes, list[int]] = {}
        for j, d in enumerate(defects):
            members.setdefault(d.tobytes(), []).append(j)
        classes = tuple(tuple(m) for m in sorted(members.values(), key=len, reverse=True))
        object.__setattr__(self, "gap_classes", classes)
        gaps = self.gapset.gaps
        groups = []
        for _, group in groupby(classes, key=len):
            ends = [[gaps[j] for j in m] for m in group]
            width = max(b - a for row in ends for a, b in row)
            groups.append((np.array(ends, dtype=complex).transpose(2, 0, 1)[..., None], width))
        object.__setattr__(self, "_class_groups", tuple(groups))
        object.__setattr__(self, "_class_defects", defects[[m[0] for m in classes]])

    @classmethod
    def uniform(cls, gapset: GapSet, alpha: float) -> "KreinProfile":
        return cls(gapset, (float(alpha),) * gapset.n)

    @property
    def is_commuting(self) -> bool:
        """True if the gap projections commute: every angle is within 1e-14
        of one angle alpha or of alpha + pi/2 (mod pi).  Doubled, both are
        one angle mod pi.  The allowance covers the rounding of alpha +
        pi/2 and stays below the mismatch that verify's Herglotz
        certificate resolves (at most a third of its tolerance at 1e-14)."""
        return all(_angle_distance(2.0 * a, 2.0 * self.angles[0]) <= 2e-14
                   for a in self.angles[1:])

    def projection(self, j: int) -> np.ndarray:
        return projection_angle(self.angles[j])


def json_number(v) -> float:
    """A finite JSON number (an int or float, not a bool) as a float.

    Raises TypeError for any other type, ValueError for a non-finite value
    and OverflowError for an int beyond float range.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"{v!r} is not a number")
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"{v!r} is not finite")
    return v


def profile_from_json(obj: dict) -> KreinProfile:
    """Build a profile from the JSON form {"gaps": [[a, b], ...], "angles": [...]}.

    A common angle may be given as {"uniform": alpha} instead of "angles".
    Angles are radians.  Every value goes through :func:`json_number`,
    and any other key is rejected (ValueError).
    """
    if not isinstance(obj, dict) or "gaps" not in obj:
        raise ValueError('profile JSON must be an object with a "gaps" list')
    unknown = set(obj) - {"gaps", "angles", "uniform"}
    if unknown:
        raise ValueError(f"unknown profile keys: {sorted(unknown)}")
    gaps, angles = obj["gaps"], obj.get("angles", [])
    if not (isinstance(gaps, list) and isinstance(angles, list)):
        raise TypeError('"gaps" and "angles" must be lists')
    gapset = GapSet(tuple((json_number(a), json_number(b)) for a, b in gaps))
    if "uniform" in obj:
        if "angles" in obj:
            raise ValueError('give either "angles" or "uniform", not both')
        return KreinProfile.uniform(gapset, json_number(obj["uniform"]))
    return KreinProfile(gapset, tuple(json_number(a) for a in angles))


# Largest block of Moebius ratios held at once, in (points x classes)
# entries: longer point arrays are evaluated in consecutive slices, and a
# slice takes as many factors per class as the block holds.
_BLOCK = 1 << 12

# Binary orders of magnitude a product of ratios may span between two
# renormalisations: from modulus about 1 it stays inside float range.
_RANGE_BITS = 1000
_LN2 = math.log(2.0)


def _class_logs(groups: tuple, z: np.ndarray) -> np.ndarray:
    """(C, N) values of sum_{j in class} log((b_j - z)/(a_j - z)) with the
    upper-boundary branch, one row per class of a profile's ``gap_classes``.

    ``groups`` is the profile's ``_class_groups``.  ``z`` holds N points,
    either all off the axis (complex, Im z > 0) or all on it (float).  Each
    class takes one logarithm, of the product of its gaps' Moebius ratios,
    multiplied in one factor at a time.  The classes of one size form their
    next factors together, as many per pass as _BLOCK allows.

    Off the axis the argument of a gap's ratio is the angle the gap
    subtends at z.  Disjoint gaps subtend less than pi together, so a
    class's product stays in the upper half plane, and its logarithm with
    the cut on the negative imaginary axis (:func:`branch_log`, as for one
    gap) is the sum of its gaps' logarithms; the cut also keeps a product
    whose argument is within rounding of pi, but which rounds below the
    axis, at pi.  On the axis the arithmetic is real: the product is
    negative exactly where t lies inside a gap of the class (at most one
    gap holds t), which gives i pi.

    A ratio's modulus lies within [1/B, B], B = 1 + w / d, for w the widest
    gap of the group and d >= Im z the distance from z to the endpoints;
    on the axis the caller's endpoint-margin check gives d >= w
    ENDPOINT_MARGIN for each gap.  A point's product is renormalised by
    np.frexp before it would hold more than floor(_RANGE_BITS / log2 B)
    factors, and at least one, B from its own Im z, so a point whose ratios
    are finite gets a finite logarithm.  A non-finite point gets a
    non-finite one, which the kernel rejects with a ValueError.  Neither the pass length nor the
    renormalisation depends on the other points, so a point's value is the
    same, bit for bit, alone or in any call.
    """
    real = z.dtype.kind == "f"
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for ends, width in groups:
            if real:
                ends = ends.real
            _, count, size, _ = ends.shape
            # each point's renormalisation period, from its own bound; NaN
            # and inf bounds, and bounds past _RANGE_BITS, renormalise after
            # every factor
            bits = math.log2(1.0 + 1.0 / ENDPOINT_MARGIN) if real else np.log2(1.0 + width / z.imag)
            period = np.where(bits < math.inf,
                              np.maximum(1.0, _RANGE_BITS // np.maximum(1.0, bits)), 1.0)
            soonest = period.min()
            step = max(1, _BLOCK // (count * len(z)))
            prod = expo = None
            for k in range(0, size, step):
                part = (ends[1, :, k:k + step] - z) / (ends[0, :, k:k + step] - z)
                for held, f in enumerate(part.transpose(1, 0, 2), k):
                    due = held >= soonest and held % period == 0
                    if np.count_nonzero(due):
                        _, e = np.frexp(np.maximum(np.abs(prod.real), np.abs(prod.imag)))
                        e *= due
                        prod = prod * np.ldexp(1.0, -e)
                        expo = e if expo is None else expo + e
                    prod = f if prod is None else prod * f
            logs = branch_log(prod)
            if expo is not None:
                logs.real += _LN2 * expo
            out.append(logs)
    return out[0] if len(out) == 1 else np.concatenate(out)


def _points(gapset: GapSet, z) -> np.ndarray:
    """``z`` as a 1-D complex array, checked against the closed upper half
    plane and, for real points, against the endpoint margins."""
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ValueError("z must be one point or a 1-D array of points")
    zs = zs.reshape(-1)
    if (zs.imag < 0).any():
        raise ValueError("evaluation is defined on the closed upper half plane only")
    real = zs.imag == 0
    if real.any():
        # the first offending point raises, named with its first gap
        errs = gapset.endpoint_errors(zs.real[real])
        if errs:
            raise next(iter(errs.values()))
    return zs


def build_logM(profile: KreinProfile, z) -> np.ndarray:
    """Logarithm of the constructed Herglotz function at z.

        log M(z) = (i pi / 2) I + sum_j log((b_j - z)/(a_j - z)) (P_j - I/2)

    Defined for Im z >= 0; real z are evaluated as limits from above
    (inside gaps this is the analytic continuation through the gap, on the
    interior of E it is the purely-imaginary reflectionless boundary value).

    The gaps of each class of ``profile.gap_classes`` share one defect, so
    their logarithms are summed as the logarithm of the product of their
    Moebius factors (:func:`_class_logs`): one logarithm per class and
    point, contracted with the class defects.  A point's value does not
    depend on the other points of the call.

    ``z`` is one point, giving a (2, 2) array, or a 1-D array of N points,
    giving an (N, 2, 2) stack.  Real points inside an endpoint exclusion
    zone raise EndpointSingularity.
    """
    zs = _points(profile.gapset, z)
    groups = profile._class_groups
    defect = profile._class_defects
    out = np.zeros((len(zs), 2, 2), dtype=complex)
    if groups:
        step = max(1, _BLOCK // len(defect))
        for lo in range(0, len(zs), step):
            block = zs[lo:lo + step]
            real = block.imag == 0
            n_real = np.count_nonzero(real)
            if 0 < n_real < len(block):
                logs = np.empty((len(defect), len(block)), dtype=complex)
                logs[:, real] = _class_logs(groups, block.real[real])
                logs[:, ~real] = _class_logs(groups, block[~real])
            else:
                logs = _class_logs(groups, block.real if n_real else block)
            np.einsum("cp,cab->pab", logs, defect, out=out[lo:lo + step])
    out[:, 0, 0] += 0.5j * math.pi
    out[:, 1, 1] += 0.5j * math.pi
    return out if np.ndim(z) else out[0]


def build_M(profile: KreinProfile, z) -> np.ndarray:
    """The constructed matrix Herglotz function M(z) = exp(build_logM(z)).

    One point gives a (2, 2) array, a 1-D array of N points an (N, 2, 2)
    stack, as for :func:`build_logM`.
    """
    return mexp(build_logM(profile, z))


@dataclass(frozen=True)
class WeylPair:
    """Half-line Weyl functions (m_plus, m_minus) at one point z, as two
    complex numbers, or at each of N points, as two (N,) complex arrays.

    Values live on the Riemann sphere: ``inf`` encodes the point at
    infinity of the solution-ratio coordinate.
    """

    m_plus: complex
    m_minus: complex

    def __post_init__(self):
        # a pair at one point holds Python complex numbers
        for name in ("m_plus", "m_minus"):
            if np.ndim(getattr(self, name)) == 0:
                object.__setattr__(self, name, complex(getattr(self, name)))


def sphere_ratio(v0, v1):
    """v0 / v1 on the Riemann sphere, elementwise: ``inf`` where
    |v1| <= 1e-14 |v0|."""
    inf = np.abs(v1) <= 1e-14 * np.abs(v0)
    return np.where(inf, np.inf, v0 / np.where(inf, 1.0, v1))


def mj_eigenpairs(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M J for one matrix or a stack M, with its eigenvalues ordered by real
    part, the first of :func:`eigvals_batch` kept on a tie: (M J, low,
    high).  For an admissible M the pair is (-1, +1)."""
    mj = np.asarray(m) @ J
    lam = eigvals_batch(mj)
    swap = lam[0].real > lam[1].real
    return mj, np.where(swap, lam[1], lam[0]), np.where(swap, lam[0], lam[1])


def _first(*masks: np.ndarray) -> int | None:
    """Index of the first point flagged by any of the masks, or None."""
    hit = np.flatnonzero(np.logical_or.reduce(masks))
    return int(hit[0]) if len(hit) else None


def weyl_from_M(m) -> WeylPair:
    """Recover the Weyl pair from M via the eigenvectors of M J.

    M J has eigenvalues -1 and +1; the eigenvector (v1, v2) for -1 is
    proportional to (m_plus, 1) and the one for +1 to (-m_minus, 1).
    Requires M symmetric with det M = -1 (within 1e-8).

    ``m`` is one matrix, giving a pair of complex numbers, or an (N, 2, 2)
    stack, giving a pair of (N,) arrays.  On a stack the first offending
    matrix raises, with the error the one-matrix call would raise.
    """
    M = as_mat2(m)
    return _weyl_pair(M, mj_eigenpairs(M.reshape(-1, 2, 2)))


def _weyl_pair(M: np.ndarray, eigenpairs: tuple) -> WeylPair:
    """:func:`weyl_from_M` of the checked M from the :func:`mj_eigenpairs`
    of its (N, 2, 2) stack, which a caller may share with other probes."""
    stack = M.reshape(-1, 2, 2)
    scale = np.maximum(op_norm(stack), 1.0)
    asym = np.abs(stack[:, 0, 1] - stack[:, 1, 0]) > 1e-8 * scale
    det = stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]
    bad_det = np.abs(det + 1.0) > 1e-8 * scale * scale
    mj, lam_m, lam_p = eigenpairs
    # confluent eigenvalues (JORDAN_TOL, as in the kernel); a scalar M J is
    # antisymmetric M or det M = 0, so a confluent M J that passed the
    # checks above is defective
    tol = JORDAN_TOL * (np.abs(lam_m) + np.abs(lam_p) + np.abs(mj[:, 0, 1]) + np.abs(mj[:, 1, 0]))
    defective = np.abs(lam_m - lam_p) <= tol
    bad_eig = (np.abs(lam_m + 1.0) > 1e-6) | (np.abs(lam_p - 1.0) > 1e-6)
    k = _first(asym, bad_det, defective, bad_eig)
    if k is not None:
        if asym[k]:
            raise NotAdmissible("M must be symmetric")
        if bad_det[k]:
            # the one-matrix determinant in scalar arithmetic: the stacked
            # one can round differently in the last digit the message shows
            a = stack[k]
            raise NotAdmissible(f"det M = {a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]}, expected -1")
        if defective[k]:
            raise DegenerateEigenproblem("M J is numerically defective")
        raise NotAdmissible(f"eigenvalues of M J are {complex(lam_m[k])}, "
                            f"{complex(lam_p[k])}, expected -1, +1")
    vp, vm = eigvec_batch(mj, lam_m), eigvec_batch(mj, lam_p)
    return WeylPair(m_plus=sphere_ratio(vp[:, 0], vp[:, 1]).reshape(M.shape[:-2]),
                    m_minus=sphere_ratio(-vm[:, 0], vm[:, 1]).reshape(M.shape[:-2]))


def assemble_M(pair: WeylPair) -> np.ndarray:
    """Assemble M from a Weyl pair.

        M = -1/(m_plus + m_minus) [[-2 m_plus m_minus, m_plus - m_minus],
                                   [m_plus - m_minus,  2]]

    Infinite entries of the pair are handled as Riemann-sphere limits; a
    vanishing denominator m_plus + m_minus raises PoleAt.  A pair of
    complex numbers gives a (2, 2) matrix, a pair of (N,) arrays an
    (N, 2, 2) stack; on arrays the first offending point raises.
    """
    one = np.ndim(pair.m_plus) == 0
    mp = np.atleast_1d(np.asarray(pair.m_plus, dtype=complex))
    mm = np.atleast_1d(np.asarray(pair.m_minus, dtype=complex))
    p_inf, m_inf = ~np.isfinite(mp), ~np.isfinite(mm)
    fin = ~(p_inf | m_inf)
    # infinite entries go through the finite formula as 0, then are replaced
    mp0, mm0 = np.where(fin, mp, 0.0), np.where(fin, mm, 0.0)
    den = mp0 + mm0
    pole = fin & (np.abs(den) <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(mp0), np.abs(mm0))))
    k = _first(p_inf & m_inf, pole)
    if k is not None:
        if p_inf[k]:
            raise PoleAt("both Weyl functions are infinite")
        raise PoleAt(f"m_plus + m_minus = {complex(den[k])} vanishes")
    c = -1.0 / np.where(fin, den, 1.0)
    out = np.empty((len(mp), 2, 2), dtype=complex)
    out[:, 0, 0] = c * (-2.0 * mp0 * mm0)
    out[:, 0, 1] = out[:, 1, 0] = c * (mp0 - mm0)
    out[:, 1, 1] = c * 2.0
    # Riemann-sphere limits: m_plus = inf gives [[2 m_minus, -1], [-1, 0]],
    # m_minus = inf gives [[2 m_plus, 1], [1, 0]]
    for inf, other, sign in ((p_inf, mm, -1.0), (m_inf, mp, 1.0)):
        out[inf] = [[0.0, sign], [sign, 0.0]]
        out[inf, 0, 0] = 2.0 * other[inf]
    return out[0] if one else out


@dataclass(frozen=True)
class PotentialSample:
    """Trace-zero symmetric potential value W(x) = [[p, q], [q, -p]]."""

    x: float
    p: float
    q: float
    residual: float = 0.0

    def matrix(self) -> np.ndarray:
        return np.array([[self.p, self.q], [self.q, -self.p]], dtype=complex)

    @property
    def norm(self) -> float:
        return op_norm_sym(self.p, self.q)


def trace_formula_W0(profile: KreinProfile) -> PotentialSample:
    """Potential at the origin from the Krein density:

        W(0) = sum_j int_{a_j}^{b_j} (xi(t) - I/2) dt = sum_j (b_j - a_j)(P_j - I/2),

    the density being the constant P_j on gap j.
    """
    return _trace_formula([b - a for a, b in profile.gapset.gaps], profile.angles)


def _trace_formula(widths, angles) -> PotentialSample:
    """:func:`trace_formula_W0` of gaps of the given widths at the given
    angles."""
    total = np.zeros((2, 2), dtype=complex)
    for width, alpha in zip(widths, angles):
        total += width * (projection_angle(alpha) - 0.5 * I2)
    return PotentialSample(x=0.0, p=float(total[0, 0].real), q=float(total[0, 1].real))


def sharp_bound(gapset: GapSet) -> float:
    """The sharp potential bound (1/2) sum_j (b_j - a_j)."""
    return 0.5 * float(np.sum(gapset.widths()))


def boundary_points(gapset: GapSet, ts: np.ndarray) -> np.ndarray:
    """The (K, T) points at which a boundary limit samples M for the T
    points of ``ts``: the last K = LIMIT_ORDER + 2 heights of
    ``LIMIT_OFFSETS``, the ones :func:`boundary_reduce` reads, times
    min(1, d_t / y0), d_t the distance from t to the nearest endpoint of
    ``gapset`` and y0 = 1e-2 the first offset.  A point closer to an
    endpoint than y0 is approached in proportion, so the samples see the
    singularity no nearer than the offsets would at distance y0."""
    ys = LIMIT_OFFSETS[-(LIMIT_ORDER + 2):, None]
    if gapset.n:
        a, b = gapset.endpoints
        t = ts[:, None]
        dist = np.minimum(np.abs(t - a), np.abs(t - b)).min(axis=1)
        # min(1, d_t / y0), formed so that a far point cannot overflow
        ys = ys * (np.minimum(dist, LIMIT_OFFSETS[0]) / LIMIT_OFFSETS[0])
    return ts + 1j * ys


def boundary_reduce(mats: np.ndarray, part) -> tuple[np.ndarray, np.ndarray]:
    """The boundary values part(M(t + i0)) from the (K, T, 2, 2) values of
    M at the :func:`boundary_points` of T points: the (T, 2, 2) stack of
    limits and the (T,) residuals of :func:`extrapolate_schedule`.

    ``part`` maps an (N, 2, 2) stack of M values to the stack of sampled
    matrices.  One contraction with the cached Lagrange weights at 0 of
    the offsets extrapolates every point to y = 0; the weights are
    invariant under a common scale of the abscissae, so the unscaled
    offsets serve as abscissae of every point's extrapolation.
    """
    samples = part(mats.reshape(-1, 2, 2)).reshape(mats.shape)
    return extrapolate_schedule(LIMIT_OFFSETS[-(LIMIT_ORDER + 2):], samples, LIMIT_ORDER)


def reflectionless_points(gapset: GapSet, grid: Sequence[float]) -> np.ndarray:
    """The (K, T) :func:`boundary_points` that :func:`reflectionless_defect`
    reads for ``grid``, whose points must lie in E beyond the endpoint
    margins: the first bad point raises, a ValueError for a point inside a
    gap (which takes precedence at a point) or its EndpointSingularity."""
    ts = np.array([float(t) for t in grid])
    inside = np.flatnonzero(gapset.containing_gaps(ts) >= 0)
    near = gapset.endpoint_errors(ts)
    if len(inside) and (not near or inside[0] <= min(near)):
        raise ValueError(f"grid point {float(ts[inside[0]])} lies inside a gap, not in E")
    if near:
        raise next(iter(near.values()))
    return boundary_points(gapset, ts)


def reflectionless_reduce(mats: np.ndarray) -> float:
    """sup || Re M(t + i0) || from the (K, T, 2, 2) values of M at the
    :func:`reflectionless_points` of T points; 0 for T = 0."""
    limit, _ = boundary_reduce(mats, re_part)
    return float(op_norm(limit).max(initial=0.0))


def reflectionless_boundary_reduce(mats: np.ndarray) -> float:
    """sup || Re M(t + i0) || from the (T, 2, 2) boundary values of M at T
    points of E clear of the margins, which ``build_M`` gives in closed
    form: the value :func:`reflectionless_defect` reaches by its limit;
    0 for T = 0."""
    return float(op_norm(re_part(mats)).max(initial=0.0))


def reflectionless_defect(mfun, grid: Sequence[float]) -> float:
    """sup over the grid of || Re M(t + i0) || on the interior of E.

    Each grid point must lie in E, the complement of the gaps of
    ``mfun.gapset``, beyond the endpoint margins (see
    :func:`reflectionless_points`); the boundary value is reached by the
    limit schedule.  Vanishes for reflectionless functions.
    """
    zs = reflectionless_points(mfun.gapset, grid)
    return reflectionless_reduce(mfun(zs.ravel()).reshape(zs.shape + (2, 2)))


def gap_realness_points(gapset: GapSet) -> tuple[np.ndarray, dict]:
    """The real gap points that :func:`gap_realness` and the Herglotz
    certificate read, in the ``(ts, errors)`` form of
    ``herglotz.krein_xi_points``: the :func:`gap_interior_grid` of
    ``gapset``, 7 per gap, less the points inside an endpoint margin of
    any gap, and the EndpointSingularity of each of those, keyed by its
    index in the grid (see ``GapSet.endpoint_errors``).  ``build_M``
    evaluates a real gap point in closed form, as the continuation from
    above, so no limit is taken.  Both are empty for the gapless set."""
    ts = gap_interior_grid(gapset)
    errors = gapset.endpoint_errors(ts)
    return np.delete(ts, list(errors)), errors


def gap_realness_reduce(mats: np.ndarray) -> float:
    """sup || Im M(t) || from the (T, 2, 2) values of M at the
    :func:`gap_realness_points`; 0 for T = 0."""
    return float(op_norm(im_part(mats)).max(initial=0.0))


def gap_realness(profile: KreinProfile) -> float:
    """sup over the :func:`gap_realness_points` of || Im M(t) ||
    (continuation from above); a point inside an endpoint margin raises
    its EndpointSingularity, the first one in order.

    Vanishes (to rounding) for commuting profiles, where M continues to a
    real symmetric matrix across every gap; for other profiles the
    returned value is a diagnostic with no smallness guarantee.
    """
    ts, errors = gap_realness_points(profile.gapset)
    if errors:
        raise next(iter(errors.values()))
    return gap_realness_reduce(build_M(profile, ts))


def commutator_reduce(logs: np.ndarray, projections: np.ndarray) -> float:
    """sup || [Re log M(t), P_j] || from the (T, 2, 2) logarithms of M at T
    gap points (``mlog_spectral`` of the values at the
    :func:`gap_realness_points`) and the (T, 2, 2) projection P_j of each
    point's gap; 0 for T = 0.

    For a commuting profile every Re log M(t) is a real combination of
    commuting projections, so the value vanishes (to rounding); a nonzero
    value witnesses angle mismatch between gaps.
    """
    re_log = re_part(logs)
    return float(op_norm(re_log @ projections - projections @ re_log).max(initial=0.0))


def hull_norm(q) -> float:
    """|| Q - I/2 || for Q in the closed convex hull of the projections P(alpha).

    The hull is the set of real symmetric matrices with trace 1 and
    eigenvalues in [0, 1]; on it the returned norm is at most 1/2, with
    equality exactly at the projections themselves.
    """
    Q = as_mat2(q)
    if Q.ndim != 2:
        raise ValueError(f"expected a 2x2 matrix, got shape {Q.shape}")
    if float(np.max(np.abs(Q.imag))) > 1e-10 or abs(Q[0, 1] - Q[1, 0]) > 1e-10:
        raise NotAdmissible("Q must be real symmetric")
    if abs(Q[0, 0].real + Q[1, 1].real - 1.0) > 1e-10:
        raise NotAdmissible("Q must have trace 1")
    eigs = np.linalg.eigvalsh(Q.real)
    if eigs[0] < -1e-9 or eigs[1] > 1.0 + 1e-9:
        raise NotAdmissible("Q must have eigenvalues in [0, 1]")
    return float(np.hypot(Q[0, 0].real - 0.5, Q[0, 1].real))


_UNIT_ROW = _read_only(np.linspace(0.05, 0.95, 7))
_OUTER_ROW = _read_only(np.linspace(0.3, 1.2, 3))


def gap_interior_grid(gapset: GapSet) -> np.ndarray:
    """Evaluation points strictly inside each gap: 7 equispaced points
    from 5% to 95% of each gap's width."""
    a, b = gapset.endpoints
    return (a[:, None] + (b - a)[:, None] * _UNIT_ROW).ravel()


def e_interior_grid(gapset: GapSet) -> np.ndarray:
    """Evaluation points in the interior of E, clear of the margins.

    Three points in each of the two unbounded components, 0.3 to 1.2
    spectral scales out, and three in every bounded band between
    consecutive gaps, from 10% to 90% of its width, in increasing order,
    less the points inside an endpoint margin of any gap
    (``GapSet.endpoint_errors``): a band narrower than its neighbours'
    margins gives none.
    """
    if gapset.n == 0:
        return np.array([-1.0, 0.0, 1.0])
    a, b = gapset.endpoints
    scale = max(1.0, gapset.spectral_radius)
    out = scale * _OUTER_ROW
    width = a[1:] - b[:-1]
    bands = np.linspace(b[:-1] + 0.1 * width, a[1:] - 0.1 * width, 3)
    grid = np.concatenate([a[0] - out[::-1], bands.T.ravel(), b[-1] + out])
    return np.delete(grid, list(gapset.endpoint_errors(grid)))
