"""Sampling W(x) along the shift orbit.

A centered single gap gives a potential that is constant in x (the
extremal operator is a fixed point of the shift up to gauge).  Moving
the gap off center makes (p + iq)(x) rotate at frequency twice the gap
center while the norm stays pinned at the gap radius.

sample_potential marches every profile in its co-rotating frame: it moves
the gaps by the midpoint c of their hull, which turns the potential by
e^{-2icx}, and turns each sample back by e^{2icx}.  For one gap the moved
gap is centered, so its divisor stands still in the frame and the
rotation below is that turn back; the rotation-law column compares it with
W(0) from the closed form, and W(0) itself is checked against the large-z
Weyl law of the frame.
"""

import numpy as np

from kreindirac import GapSet, KreinProfile, sample_potential, sharp_bound

xgrid = np.linspace(0.0, 1.0, 9)

prof = KreinProfile.uniform(GapSet(((-1.0, 1.0),)), np.pi / 4)
print("centered gap (-1, 1), angle pi/4:")
print(f"{'x':>6} {'p(x)':>12} {'q(x)':>12} {'||W||':>12}")
for s in sample_potential(prof, xgrid):
    print(f"{s.x:6.3f} {s.p:12.8f} {s.q:12.8f} {s.norm:12.8f}")
print("sharp bound:", sharp_bound(prof.gapset))
print()

c, r, alpha = 1.5, 1.0, 0.7
prof = KreinProfile.uniform(GapSet(((c - r, c + r),)), alpha)
print(f"off-center gap ({c - r}, {c + r}), angle {alpha}:")
print(f"{'x':>6} {'p(x)':>12} {'q(x)':>12} {'||W||':>12} {'rotation law':>14}")
w0 = complex(r * np.cos(2 * alpha), r * np.sin(2 * alpha))
for s in sample_potential(prof, xgrid):
    predicted = np.exp(2j * c * s.x) * w0
    dev = abs(complex(s.p, s.q) - predicted)
    print(f"{s.x:6.3f} {s.p:12.8f} {s.q:12.8f} {s.norm:12.8f} {dev:14.3e}")
