"""Photon statistics of thermal, coherent, and mixed microwave beams.

Everything here is closed-form bookkeeping: Planck occupation versus
radiator temperature, the n(n+1) thermal variance law against the Poisson
law, the beam-splitter mixing of the two field types, and the zero-delay
second-order correlation that separates them.
"""

from bolostat import (
    beamsplitter_combine,
    broadening_to_variance,
    coherent_variance,
    flux_to_power,
    g2_zero,
    mixed_moments,
    mixed_moments_mc,
    planck_mean_photon,
    thermal_variance,
)

F_IN = 8.428e9  # input passband center, Hz
FWHM = 133e6  # passband width, Hz

print("Planck occupation at the 8.428 GHz passband center:")
for T in (0.1, 0.25, 0.5, 1.0, 2.0):
    n = planck_mean_photon(T, F_IN)
    g2 = g2_zero(n, thermal_variance(n))
    print(f"  T = {T:4.2f} K   <n> = {n:7.4f}   "
          f"(Delta n)^2 = {thermal_variance(n):8.4f}   g2 = {g2:.3f}")

print("\nthermal n(n+1) versus coherent n (shot-noise limit):")
for n in (0.1, 1.0, 5.0, 19.0):
    print(f"  <n> = {n:5.1f}   thermal var = {thermal_variance(n):8.2f}"
          f"   coherent var = {coherent_variance(n):6.2f}")

print("\nmixing the two through a 1% beam splitter (coherent arm transmitted):")
th_in = planck_mean_photon(1.0, F_IN)
for coh_in in (0.0, 50.0, 200.0, 1000.0):
    n_coh, n_th = beamsplitter_combine(coh_in, th_in, Gamma=0.01)
    g2 = g2_zero(*mixed_moments(n_coh, n_th))
    print(f"  coherent in = {coh_in:6.0f} -> n_coh = {n_coh:5.2f}, "
          f"n_th = {n_th:5.3f}, g2(0) = {g2:5.3f}")

print("\nclosed-form mixed moments vs a displaced-Gaussian Monte-Carlo draw:")
closed = mixed_moments(1.0, 1.0)
mc = mixed_moments_mc(1.0, 1.0, n_samples=10**6, seed=0)
print(f"  mean:     {closed[0]:.4f} (closed)  {mc[0]:.4f} (MC)")
print(f"  variance: {closed[1]:.4f} (closed)  {mc[1]:.4f} (MC)")
print(f"  g2(0):    {g2_zero(*closed):.4f} (closed)  {g2_zero(*mc):.4f} (MC)")

print("\npower bookkeeping:")
p = flux_to_power(0.16, F_IN, FWHM)
print(f"  0.16 photon/(s*Hz) over the {FWHM / 1e6:.0f} MHz passband = {p * 1e18:.1f} aW")

alpha = 1.92e-6  # 1.92 photon/MHz
print(f"  a 1 MHz fitted broadening (v = 1e12 Hz^2) maps to (Delta n)^2 = "
      f"{broadening_to_variance(1e12, 0.0, alpha):.4f}")
