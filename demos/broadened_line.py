"""Gaussian-broadened thermometer line, three ways.

The reflection of the thermometer is a Lorentzian dip; when the resonance
frequency fluctuates with the photon statistics of the absorbed field, the
averaged line is the closed-form erfcx expression whose magnitude is a
Voigt profile.  This script evaluates that closed form and corroborates it
with the two independent routes shipped in the package: brute-force Monte
Carlo over resonance-frequency draws, and Gauss-Hermite quadrature.
"""

import numpy as np

from bolostat import averaged_reflection_gh, averaged_reflection_mc
from bolostat.response import _line

# the line's scalars (mu, v, gamma_c, phi, gamma), as `_line` and both
# oracles take them; v = sigma**2 is the broadening
f_r, gamma_c, phi, gamma = 524e6, 4.8e6, 0.0, 18.7e6
freqs = np.linspace(509e6, 539e6, 201)

print("thermometer line: f_r = 524 MHz, gamma_c = 4.8 us^-1, gamma = 18.7 us^-1")
print(f"linewidth gamma/2pi = {gamma / 2 / np.pi / 1e6:.2f} MHz")
print(f"bare dip |S11|(f_r) = {abs(_line(f_r, 0.0, gamma_c, phi, gamma, 524e6)):.4f}")
print()
print("broadening the resonance with a Gaussian of width sigma:")
print(f"{'sigma (MHz)':>12} {'dip |<S11>|':>12} {'dip at':>11} {'MC dev':>10} {'GH dev':>10}")

for sigma in (0.1e6, 0.5e6, 1.0e6, 2.0e6):
    line = (f_r, sigma**2, gamma_c, phi, gamma)
    closed = _line(*line, freqs)
    mags = np.abs(closed)
    dip = mags.min()

    mc = averaged_reflection_mc(*line, freqs, n_samples=200_000, seed=1)
    mc_dev = np.max(np.abs(mc - closed) / np.abs(closed))

    # 64 nodes converge only while sigma stays below ~1/3 linewidth;
    # broader lines need more nodes (see the package docs)
    nodes = 64 if sigma <= 1e6 else 300
    gh = averaged_reflection_gh(*line, freqs, n_nodes=nodes)
    gh_dev = np.max(np.abs(gh - closed) / np.abs(closed))

    print(
        f"{sigma / 1e6:12.1f} {dip:12.4f} {freqs[np.argmin(mags)] / 1e6:10.2f}M "
        f"{mc_dev:10.1e} {gh_dev:10.1e}"
    )

print()
print("the dip gets shallower as the line smears out: the depth carries the")
print("variance of the photon number, the dip position its mean.")
