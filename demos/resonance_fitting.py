"""Resonance extraction walkthrough: circle fit and the staged full-model fit.

Step 1 extracts the bare line parameters geometrically (algebraic circle +
phase slope).  Step 2 runs the staged procedure used on real traces: fit
all twelve chain parameters on a reference trace, freeze six of them, then
refit each measurement with six free parameters and read off the line
center mu and broadening sigma.
"""

import numpy as np

from bolostat import (
    BackgroundParams,
    ChainParams,
    ComplexSweep,
    FreqDistribution,
    LineParams,
    ResonatorParams,
    bare_reflection,
    circle_fit,
    fit_base_calibration,
    fit_measurements,
    full_chain_response,
)
from bolostat.fitkit import FROZEN_PARAM_NAMES

freqs = np.linspace(509e6, 539e6, 401)

# --- step 1: circle fit of a bare line -------------------------------------
truth = ResonatorParams(f_r=524e6, gamma_c=4.8e6, gamma=18.7e6, phi=0.1)
sweep = ComplexSweep(freqs, bare_reflection(truth, freqs))
geo = circle_fit(sweep)
print("circle fit of a clean reflection trace:")
print(f"  f_r     {geo.f_r / 1e6:12.4f} MHz   (truth {truth.f_r / 1e6:.4f})")
print(f"  gamma_c {geo.gamma_c / 1e6:12.4f} us^-1 (truth {truth.gamma_c / 1e6:.4f})")
print(f"  gamma   {geo.gamma / 1e6:12.4f} us^-1 (truth {truth.gamma / 1e6:.4f})")
print(f"  phi     {geo.phi:12.4f} rad   (truth {truth.phi:.4f})")

# --- step 2: staged full-model fit ------------------------------------------
chain = ChainParams(
    mu_base_hz=524e6,
    gamma_c=4.8e6,
    phi=0.1,
    gamma=18.7e6,
    s_b=0.93,
    f_b=531e6,
    gamma_bc=2 * np.pi * 2.5e6,
    gamma_b=2 * np.pi * 20e6,
    phi_b=-0.4,
    tau=2e-8,
    varphi=0.3,
)


def synthesize(mu, sigma):
    c = chain
    res = ResonatorParams(f_r=mu, gamma_c=c.gamma_c, gamma=c.gamma, phi=c.phi)
    bg = BackgroundParams(c.s_b, c.f_b, c.gamma_bc, c.gamma_b, c.phi_b)
    line = LineParams(c.tau, c.varphi)
    return ComplexSweep(freqs, full_chain_response(res, FreqDistribution(mu, sigma), bg, line, freqs))


# reference trace in the zero-broadening regime, fitted from a deliberately
# wrong starting point (5% off in every parameter class); the fits take the
# twelve chain scalars as one vector in PARAM_NAMES order, the broadening
# as v = sigma**2
rng = np.random.default_rng(42)
init = chain.vector(524e6, 0.1e6**2)
init[0] += 1.5e6
init[2:] *= 1 + 0.05 * rng.uniform(-1, 1, 10)
calibration = fit_base_calibration(synthesize(524e6, 0.1e6), init)

print("\nbase calibration (all twelve parameters, staged):")
print(f"  converged in {calibration.fit.n_iter} iterations,"
      f" rms residual {calibration.fit.residual_norm:.2e}")
print(f"  frozen for the rest of the run: {', '.join(FROZEN_PARAM_NAMES)}")

print("\nper-measurement fits (six free parameters), truth vs extracted:")
print(f"{'mu_true (MHz)':>14} {'sigma_true':>11} {'mu_fit':>12} {'sigma_fit':>11} {'iters':>6}")
for mu_t, sigma_t in [(523.0e6, 0.4e6), (521.5e6, 1.2e6), (519.0e6, 2.4e6)]:
    [(mu, sigma, fit)] = fit_measurements([synthesize(mu_t, sigma_t)], calibration)
    print(
        f"{mu_t / 1e6:14.4f} {sigma_t / 1e6:11.4f} "
        f"{mu / 1e6:12.4f} {sigma / 1e6:11.4f} {fit.n_iter:6d}"
    )

print("\nmu comes back to sub-hertz and sigma to a few ppm on clean traces;")
print("the broadening sigma is what carries the photon-number variance.")
