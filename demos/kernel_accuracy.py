"""Accuracy of the erfcx kernel against mpmath, band by band in |z|.

Draws random points in annuli of increasing |z| and reports the worst
relative error against a 30-digit reference (needs mpmath, part of the
test extra).  Up to |z| = 30 the points cover the whole plane minus the
corner where the reflection formula is refused; beyond that they stay in
the right half-plane, where the forward model evaluates and where erfcx is
well conditioned.
"""

import numpy as np

from bolostat import erfcx, faddeeva_w

try:
    import mpmath as mp
except ImportError:
    raise SystemExit("this demo compares against mpmath: pip install mpmath")

mp.mp.dps = 30


def ref(z):
    z = mp.mpc(z)
    return complex(mp.exp(z * z) * mp.erfc(z))


rng = np.random.default_rng(0)
bands = [(0.0, 1.0), (1.0, 3.0), (3.0, 10.0), (10.0, 30.0), (30.0, 1e3), (1e3, 1e7)]

print("erfcx(z) vs 30-digit reference, 400 random points per |z| band")
for rmin, rmax in bands:
    if rmax <= 30.0:
        radius = np.sqrt(rng.uniform(rmin**2, rmax**2, 400))
        angle = rng.uniform(-np.pi, np.pi, 400)
    else:
        radius = 10 ** rng.uniform(np.log10(rmin), np.log10(rmax), 400)
        angle = rng.uniform(-np.pi / 2, np.pi / 2, 400)
    z = radius * np.exp(1j * angle)
    z = z[(z.real >= 0) | (z.real**2 - z.imag**2 < 700)]
    worst = max(abs(erfcx(p) - ref(p)) / abs(ref(p)) for p in z)
    print(f"  {rmin:>6g} <= |z| < {rmax:<6g} worst rel err {worst:.2e}")

print()
print("spot checks:")
for z in (0.0, 1.0, 100.0, 1j, 3 - 4j, -2 + 5j):
    print(f"  erfcx({z!s:>8}) = {erfcx(z):.12g}")
print(f"  w(i) = erfcx(1) = {faddeeva_w(1j):.12g}")
