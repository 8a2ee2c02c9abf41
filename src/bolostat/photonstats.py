"""Photon-number statistics of stationary microwave beams.

Fluxes are photon/(s*Hz) throughout; conversion to watts happens only in
`flux_to_power`.  Variances carry the square of that unit so that
g2 = 1 + (variance - mean)/mean^2 is dimensionless.  A fitted broadening
enters in the fits' coordinate, v = sigma^2 (Hz^2).
"""

import math

import numpy as np

# exact by the 2019 SI definitions
PLANCK_H = 6.62607015e-34  # J s
BOLTZMANN_K = 1.380649e-23  # J/K

__all__ = [
    "UndefinedStatisticError",
    "InsufficientDataError",
    "planck_mean_photon",
    "thermal_variance",
    "coherent_variance",
    "mixed_moments",
    "mixed_moments_mc",
    "g2_zero",
    "broadening_to_variance",
    "beamsplitter_combine",
    "flux_to_power",
    "resolution_metrics",
]


class UndefinedStatisticError(ValueError):
    """A statistic (e.g. g2 at zero mean flux) is not defined for the input."""


class InsufficientDataError(ValueError):
    """Too few samples to form the requested estimate."""


def _check(name, value, low, strict=False, high=math.inf):
    """Refuse ``value`` with a ValueError naming the argument ``name`` unless
    it is finite, at least ``low`` (above it if ``strict``) and at most ``high``."""
    if math.isfinite(value) and (value > low if strict else value >= low) and value <= high:
        return
    bound = f"in [{low:g}, {high:g}]" if high < math.inf else f"{'>' if strict else '>='} {low:g}"
    raise ValueError(f"{name} must be finite and {bound}, got {value}")


def planck_mean_photon(T, f):
    """Mean thermal occupation 1/(exp(h f / k_B T) - 1) of a blackbody
    radiator at temperature T (K) seen at frequency f (Hz); zero at T = 0."""
    _check("T", T, 0.0)
    _check("f", f, 0.0, strict=True)
    kT = BOLTZMANN_K * T
    if kT == 0.0:  # T = 0, or a T so small that k_B T underflows
        return 0.0
    x = PLANCK_H * f / kT
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        # past expm1's range e^-x is 1/(e^x - 1) to double precision, and
        # 0.0 once it underflows
        return math.exp(-x)


def thermal_variance(mean):
    """Thermal (Bose-Einstein) number variance n(n+1)."""
    _check("mean", mean, 0.0)
    return mean * (mean + 1.0)


def coherent_variance(mean):
    """Coherent (Poisson) number variance, equal to the mean."""
    _check("mean", mean, 0.0)
    return mean


def mixed_moments(n_coh, n_th):
    """(mean, variance) of a coherent flux n_coh riding on a thermal flux n_th:

    mean = n_coh + n_th,
    variance = n_coh (2 n_th + 1) + n_th (n_th + 1)

    (displaced-thermal-state expressions; reduce bit-exactly to the pure
    coherent/thermal limits, and are cross-checked against
    `mixed_moments_mc`).
    """
    _check("n_coh", n_coh, 0.0)
    _check("n_th", n_th, 0.0)
    return n_coh + n_th, n_coh * (2.0 * n_th + 1.0) + n_th * (n_th + 1.0)


def mixed_moments_mc(n_coh, n_th, n_samples=10**6, seed=0):
    """Monte-Carlo oracle for `mixed_moments`, returning (mean, variance).

    Draws the complex amplitude a = alpha0 + xi with |alpha0|^2 = n_coh and
    xi circularly Gaussian with E|xi|^2 = n_th, then converts the classical
    moments E|a|^2, E|a|^4 into number moments by adding back the
    commutator (shot-noise) term:

        mean     = E|a|^2
        variance = E|a|^4 - (E|a|^2)^2 + E|a|^2

    Philox-seeded and chunk-order independent.
    """
    _check("n_coh", n_coh, 0.0)
    _check("n_th", n_th, 0.0)
    _check("n_samples", n_samples, 1.0)
    rng = np.random.Generator(np.random.Philox(seed))
    alpha0 = math.sqrt(n_coh)
    s = math.sqrt(n_th / 2.0)
    m2_acc = 0.0
    m4_acc = 0.0
    drawn = 0
    while drawn < n_samples:
        m = min(200000, n_samples - drawn)
        if s > 0:
            a = alpha0 + rng.normal(0.0, s, m) + 1j * rng.normal(0.0, s, m)
        else:
            a = np.full(m, alpha0, dtype=complex)
        p = np.abs(a) ** 2
        m2_acc += p.sum()
        m4_acc += (p * p).sum()
        drawn += m
    m2 = m2_acc / n_samples
    m4 = m4_acc / n_samples
    return m2, max(m4 - m2 * m2 + m2, 0.0)


def g2_zero(mean, variance):
    """Zero-delay second-order correlation 1 + (variance - mean)/mean^2."""
    _check("mean", mean, 0.0)
    _check("variance", variance, 0.0)
    if mean == 0.0:
        raise UndefinedStatisticError("g2(0) is undefined for zero mean flux")
    return 1.0 + (variance - mean) / mean**2


def broadening_to_variance(v, v_base, alpha):
    """Photon-number variance alpha^2*(v - v_base) from a fitted broadening.

    ``v`` = sigma^2 is the fitted broadening (Hz^2) and ``v_base`` that of
    the zero-input base trace; a v below ``v_base`` maps to zero variance.
    ``alpha`` (photon/Hz) is the linear calibration Delta_n = alpha * sigma.
    """
    _check("v", v, 0.0)
    _check("v_base", v_base, 0.0)
    _check("alpha", alpha, 0.0, strict=True)
    return alpha**2 * max(v - v_base, 0.0)


def beamsplitter_combine(coh_in, th_in, Gamma):
    """Beam splitter with transmissivity Gamma for the coherent arm.

    Returns the transmitted fluxes (n_coh, n_th) = (Gamma*coh_in,
    (1-Gamma)*th_in).
    """
    _check("coh_in", coh_in, 0.0)
    _check("th_in", th_in, 0.0)
    _check("Gamma", Gamma, 0.0, high=1.0)
    return Gamma * coh_in, (1.0 - Gamma) * th_in


def flux_to_power(mean, f, bandwidth):
    """Absorbed power of a beam: P = <n> h f * bandwidth (W)."""
    _check("mean", mean, 0.0)
    _check("f", f, 0.0)
    _check("bandwidth", bandwidth, 0.0)
    return mean * PLANCK_H * f * bandwidth


def resolution_metrics(shift_samples):
    """Sample mean, unbiased std, and coefficient of variation std/|mean|."""
    samples = np.asarray(shift_samples, dtype=float)
    if samples.size < 2:
        raise InsufficientDataError(
            f"need at least 2 samples, got {samples.size}"
        )
    mean = float(samples.mean())
    std = float(samples.std(ddof=1))
    if mean == 0.0:
        raise UndefinedStatisticError("CV is undefined for zero mean shift")
    return mean, std, std / abs(mean)
