import numpy as np
import pytest

from bolostat import ChainParams
from bolostat.fitkit import PARAM_NAMES
from bolostat.response import (
    _BACKGROUND,
    _DELAY,
    _LINE,
    _background,
    _chain_jacobian,
    _chain_model,
    _delay,
    _line,
)

# reference thermometer line used throughout: 524 MHz resonance,
# external/total rates 4.8/18.7 us^-1 (linewidth gamma/2pi ~ 2.98 MHz)
GAMMA_C = 4.8e6
GAMMA = 18.7e6
MU = 524e6

# full synthesis chain with the background resonance inside the probe
# window so that all twelve parameters are identifiable from one trace
CHAIN_TRUE = ChainParams(
    mu_base_hz=MU,
    gamma_c=GAMMA_C,
    phi=0.1,
    gamma=GAMMA,
    s_b=0.93,
    f_b=531e6,
    gamma_bc=2 * np.pi * 2.5e6,
    gamma_b=2 * np.pi * 20e6,
    phi_b=-0.4,
    tau=2e-8,
    varphi=0.3,
)

PROBE_GRID = np.linspace(509e6, 539e6, 401)


def bare_line(p, f):
    """The phi = 0 bare line, `_line` at v = 0, at p = (f_r, gamma_c, gamma)."""
    return _line(p[0], 0.0, p[1], 0.0, p[2], f)


def bare_line_jacobian(p, f):
    """Closed-form Jacobian of `bare_line` in (f_r, gamma_c, gamma).

    With a = gamma/2 + 2 pi i (f_r - f) the line is S = 1 - gamma_c/a, so
    dS/df_r = 2 pi i gamma_c/a^2, dS/dgamma_c = -1/a and dS/dgamma = gamma_c/(2 a^2).
    """
    f_r, gamma_c, gamma = p
    a = gamma / 2 + 2j * np.pi * (f_r - f)
    return np.column_stack([2j * np.pi * gamma_c / a**2, -1 / a, gamma_c / (2 * a**2)])


def complex_jacobian(x, f_p):
    """All twelve columns of `_chain_jacobian` as one complex (..., len(f_p), 12) array."""
    _, jac = _chain_jacobian(x, f_p, range(len(PARAM_NAMES)))
    m = jac.shape[-2] // 2
    return jac[..., :m, :] + 1j * jac[..., m:, :]


@pytest.fixture
def probe_grid():
    return PROBE_GRID.copy()


def perturb_vector(x, rng, span, frac=0.05):
    """Starting point 'frac away' from truth, parameter-type aware.

    Frequencies (mu, f_b) move by frac of the probe span, phases by frac
    radians, everything else multiplicatively by frac.
    """
    out = np.asarray(x, dtype=float).copy()
    for i, name in enumerate(PARAM_NAMES):
        u = rng.uniform(-1.0, 1.0)
        if name in ("mu", "f_b"):
            out[i] += frac * span * u
        elif name in ("phi", "phi_b", "varphi"):
            out[i] += frac * u
        else:
            out[i] *= 1.0 + frac * u
    return out


def perturbed_model(chain, mu, sigma, rng, span, frac=0.05):
    return perturb_vector(chain.vector(mu, sigma**2), rng, span, frac)


def two_resonance_response(x, f_p, spacing=80e6):
    """`_chain_model` of a `PARAM_NAMES` vector with a second background
    resonance ``spacing`` Hz from f_b, which the chain model does not have."""
    f_p = np.asarray(f_p, dtype=float)
    _, f_b, gamma_bc, gamma_b, phi_b = x[_BACKGROUND]
    second = _background(0.0, f_b + spacing, gamma_bc, gamma_b, phi_b, f_p)
    return _chain_model(x, f_p) + _delay(*x[_DELAY], f_p) * second * _line(*x[_LINE], f_p)
