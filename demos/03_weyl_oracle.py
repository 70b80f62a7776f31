"""Three independent routes to the same Weyl functions.

For a constant potential W = [[p, q], [q, -p]] the half-line Weyl disks
degenerate to points with closed forms (route 1).  Seeding the decaying
tail eigenvectors at -l and l and transporting them to 0 by the transfer
matrix exp(l K) (``ode_weyl``) reaches the same pair (route 2).  And the
gap construction with the matching single gap and angle assembles the
same M function (route 3).
"""

import numpy as np

from kreindirac import GapSet, KreinProfile, assemble_M, build_M, const_weyl
from kreindirac.dirac import ode_weyl

p, q = 3.0, 4.0
r = np.hypot(p, q)
alpha = 0.5 * np.arctan2(q, p)
prof = KreinProfile.uniform(GapSet(((-r, r),)), alpha)
zs = np.array([1j, 0.5 + 2j, -4.0 + 0.25j, 10j])
# l |K| stays of order 1, so the transfer matrix is well conditioned
ell = 1.0 / max(1.0, r, np.abs(zs).max())

print(f"constant potential p = {p}, q = {q}  ->  gap (-{r}, {r}), "
      f"angle {alpha:.6f}, tails seeded at +-{ell:g}")
print()
# every route takes the whole z grid in one call
exact = const_weyl(p, q, zs)
marched = ode_weyl(p, q, ell, zs)
dev_ode = np.maximum(abs(marched.m_plus - exact.m_plus),
                     abs(marched.m_minus - exact.m_minus))
dev_gap = np.linalg.norm(build_M(prof, zs) - assemble_M(exact), 2, axis=(1, 2))
print(f"{'z':>12}  {'|ode - const|':>14}  {'|gap M - assembled|':>20}")
for z, d_ode, d_gap in zip(zs, dev_ode, dev_gap):
    print(f"{str(complex(z)):>12}  {d_ode:14.3e}  {d_gap:20.3e}")
print()
pair = const_weyl(p, q, 1j)
print("m_plus(i)  =", pair.m_plus)
print("m_minus(i) =", pair.m_minus)
print("both have positive imaginary part:",
      pair.m_plus.imag > 0 and pair.m_minus.imag > 0)
