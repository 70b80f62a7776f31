"""Branch bookkeeping for 2x2 matrix logarithms.

The Herglotz calculus needs log A with the branch cut along the negative
imaginary axis and eigenvalue logs confined to the strip
Im in (-pi/2, 3pi/2).  The principal log (numpy's convention) cuts along
the negative real axis instead, which is exactly where gap boundary
values of M live, so it is the wrong tool here.
"""

import numpy as np

from kreindirac import mexp, mlog_integral, mlog_spectral
from kreindirac.errors import SpectrumOnCut

rng = np.random.default_rng(7)

# spectrum just below the negative real axis: fine for our cut, but the
# principal log lands outside the strip (imaginary parts near -pi)
a = np.array([[-2.0 - 0.3j, 0.4], [0.1, -1.5 - 0.2j]])
la = mlog_spectral(a)
print("eigenvalues of A:        ", np.round(np.linalg.eigvals(a), 6))
print("eigenvalues of log A:    ", np.round(np.linalg.eigvals(la), 6))
print("principal-log would give:", np.round(np.log(np.linalg.eigvals(a)), 6))
print("exp(log A) residual:     ", np.linalg.norm(mexp(la) - a, 2))
print()

# spectral and integral-representation routes agree on upper-spectrum matrices
worst = 0.0
for _ in range(50):
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if np.any(np.linalg.eigvals(b).imag < 0.05):
        continue
    worst = max(worst, np.linalg.norm(mlog_spectral(b) - mlog_integral(b), 2))
print("spectral vs integral route, worst over random matrices:", worst)
print()

# spectrum on the cut is refused, not silently mis-branched
try:
    mlog_spectral(np.diag([-1j, 1.0]))
except SpectrumOnCut as exc:
    print("on-cut spectrum raises SpectrumOnCut:", exc)
