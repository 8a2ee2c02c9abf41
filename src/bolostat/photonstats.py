"""Photon-number statistics of stationary microwave beams.

Fluxes are photon/(s*Hz) throughout; conversion to watts happens only in
`flux_to_power`.  Variances carry the square of that unit so that
g2 = 1 + (variance - mean)/mean^2 is dimensionless.  A fitted broadening
enters in the fits' coordinate, v = sigma^2 (Hz^2).
"""

import math
from dataclasses import dataclass

import numpy as np

# exact by the 2019 SI definitions
PLANCK_H = 6.62607015e-34  # J s
BOLTZMANN_K = 1.380649e-23  # J/K

__all__ = [
    "PhotonMoments",
    "RadiatorState",
    "MixedField",
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


@dataclass(frozen=True)
class PhotonMoments:
    mean: float
    variance: float

    def __post_init__(self):
        if not (0 <= self.mean < math.inf and 0 <= self.variance < math.inf):
            raise ValueError(f"moments must be finite and non-negative, got {self}")


@dataclass(frozen=True)
class RadiatorState:
    """Blackbody radiator: temperature T (K) seen at input frequency f (Hz)."""

    T: float
    f: float

    def __post_init__(self):
        if self.T < 0:
            raise ValueError(f"T must be >= 0, got {self.T}")
        if not self.f > 0:
            raise ValueError(f"f must be positive, got {self.f}")


@dataclass(frozen=True)
class MixedField:
    """Coherent plus thermal flux arriving at the detector, photon/(s*Hz)."""

    n_coh: float
    n_th: float

    def __post_init__(self):
        if not (0 <= self.n_coh < math.inf and 0 <= self.n_th < math.inf):
            raise ValueError(f"fluxes must be finite and non-negative, got {self}")


def planck_mean_photon(state):
    """Mean thermal occupation 1/(exp(h f / k_B T) - 1); zero at T = 0."""
    if state.T == 0.0:
        return 0.0
    return 1.0 / math.expm1(PLANCK_H * state.f / (BOLTZMANN_K * state.T))


def thermal_variance(mean):
    """Thermal (Bose-Einstein) number variance n(n+1)."""
    if not 0 <= mean < math.inf:
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    return mean * (mean + 1.0)


def coherent_variance(mean):
    """Coherent (Poisson) number variance, equal to the mean."""
    if not 0 <= mean < math.inf:
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    return mean


def mixed_moments(field):
    """Moments of a coherent field riding on a thermal background.

    mean = n_coh + n_th,
    variance = n_coh (2 n_th + 1) + n_th (n_th + 1)

    (displaced-thermal-state expressions; reduce bit-exactly to the pure
    coherent/thermal limits, and are cross-checked against
    `mixed_moments_mc`).
    """
    mean = field.n_coh + field.n_th
    variance = field.n_coh * (2.0 * field.n_th + 1.0) + field.n_th * (field.n_th + 1.0)
    return PhotonMoments(mean=mean, variance=variance)


def mixed_moments_mc(field, n_samples=10**6, seed=0):
    """Monte-Carlo oracle for `mixed_moments`.

    Draws the complex amplitude a = alpha0 + xi with |alpha0|^2 = n_coh and
    xi circularly Gaussian with E|xi|^2 = n_th, then converts the classical
    moments E|a|^2, E|a|^4 into number moments by adding back the
    commutator (shot-noise) term:

        mean     = E|a|^2
        variance = E|a|^4 - (E|a|^2)^2 + E|a|^2

    Philox-seeded and chunk-order independent.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.Generator(np.random.Philox(seed))
    alpha0 = math.sqrt(field.n_coh)
    s = math.sqrt(field.n_th / 2.0)
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
    return PhotonMoments(mean=m2, variance=max(m4 - m2 * m2 + m2, 0.0))


def g2_zero(m):
    """Zero-delay second-order correlation 1 + (variance - mean)/mean^2."""
    if m.mean <= 0:
        raise UndefinedStatisticError("g2(0) is undefined for zero mean flux")
    return 1.0 + (m.variance - m.mean) / m.mean**2


def broadening_to_variance(v, v_base, alpha):
    """Photon-number variance alpha^2*(v - v_base) from a fitted broadening.

    ``v`` = sigma^2 is the fitted broadening (Hz^2) and ``v_base`` that of
    the zero-input base trace; a v below ``v_base`` maps to zero variance.
    ``alpha`` (photon/Hz) is the linear calibration Delta_n = alpha * sigma.
    """
    if v < 0:
        raise ValueError(f"v must be >= 0, got {v}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return alpha**2 * max(v - v_base, 0.0)


def beamsplitter_combine(coh_in, th_in, Gamma):
    """Beam splitter with transmissivity Gamma for the coherent arm.

    Returns the transmitted MixedField: n_coh = Gamma*coh_in,
    n_th = (1-Gamma)*th_in.
    """
    if not 0.0 <= Gamma <= 1.0:
        raise ValueError(f"Gamma must lie in [0, 1], got {Gamma}")
    return MixedField(n_coh=Gamma * coh_in, n_th=(1.0 - Gamma) * th_in)


def flux_to_power(mean, f, bandwidth):
    """Absorbed power of a beam: P = <n> h f * bandwidth (W)."""
    if mean < 0 or f < 0 or bandwidth < 0:
        raise ValueError("flux_to_power arguments must be non-negative")
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
