"""Why non-aligned projections stay strictly below the bound.

W(0) is a gap-length average of (P_j - I/2), so ||W(0)|| lives in the
convex hull of the projection orbit: radius 1/2 is reached only when all
projections coincide.  Separated angles therefore force strict
inequality at x = 0.

The second half shows that a formal gap assembly with non-commuting
projections need not be a Herglotz function at all: the witness profile
below has a negative Herglotz defect, and marching its potential trips
the sharp bound, which is the certificate that no reflectionless
operator realizes it.
"""

import numpy as np

from kreindirac import (
    GapSet,
    KreinProfile,
    build_M,
    gap_realness,
    herglotz_defect,
    hull_norm,
    mlog_spectral,
    profile_m_function,
    projection_angle,
    sample_potential,
    sharp_bound,
    trace_formula_W0,
)
from kreindirac.errors import BoundViolation
from kreindirac.finitegap import commutator_reduce, gap_realness_points

gs = GapSet(((-2.0, -1.0), (1.0, 2.0)))
for angles in [(0.3, 0.3), (0.3, 0.9), (0.3, 1.9)]:
    w0 = trace_formula_W0(KreinProfile(gs, angles))
    print(f"angles {angles}:  ||W(0)|| = {w0.norm:.6f}  "
          f"(bound {sharp_bound(gs)})")
print()

rng = np.random.default_rng(11)
worst = 0.0
for _ in range(2000):
    lam = rng.dirichlet(np.ones(3))
    q = sum(l * projection_angle(a)
            for l, a in zip(lam, rng.uniform(0.0, np.pi, size=3)))
    worst = max(worst, hull_norm(q))
print("max ||Q - I/2|| over random convex combinations of projections:",
      round(worst, 12))
print()

witness = KreinProfile(gs, (0.3, 1.9))
mfun = profile_m_function(witness)
print("witness profile, angles (0.3, 1.9):")
print("  Herglotz defect:        ", herglotz_defect(mfun))
print("  Im M inside the gaps:   ", gap_realness(witness))
# sup ||[Re log M(t), P_j]|| over the gap points, P_j the projection of
# t's gap: it vanishes for commuting projections
ts, _ = gap_realness_points(gs)
logs = mlog_spectral(build_M(witness, ts))
projections = np.array([witness.projection(j) for j in gs.containing_gaps(ts)])
print("  projection commutator:  ", commutator_reduce(logs, projections))
try:
    sample_potential(witness, np.linspace(0.0, 1.0, 21))
except BoundViolation as exc:
    print("  march certificate:      ", exc)
    print("  last good x:            ", exc.samples[-1].x)
