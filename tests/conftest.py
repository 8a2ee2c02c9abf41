from dataclasses import fields, replace

import numpy as np
import pytest

from bolostat import (
    BackgroundParams,
    ChainParams,
    FreqDistribution,
    LineParams,
    ResonatorParams,
    averaged_reflection,
    background_transfer,
    full_chain_response,
)
from bolostat.fitkit import PARAM_NAMES
from bolostat.response import _chain_jacobian, _delay

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


def bare_line_jacobian(p, f):
    """Closed-form Jacobian of the phi = 0 `bare_reflection` in (f_r, gamma_c, gamma).

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
    return perturb_vector(chain.vector(mu, sigma), rng, span, frac)


def chain_parts(x):
    """(res, dist, bg, line) of a `PARAM_NAMES` vector, as `full_chain_response` takes them."""
    values = dict(zip(PARAM_NAMES, x), f_r=x[PARAM_NAMES.index("mu")])
    return tuple(
        kind(**{f.name: values[f.name] for f in fields(kind)})
        for kind in (ResonatorParams, FreqDistribution, BackgroundParams, LineParams)
    )


def two_resonance_response(x, f_p, spacing=80e6):
    """`full_chain_response` of a `PARAM_NAMES` vector with a second background
    resonance ``spacing`` Hz from f_b, which the chain model does not have."""
    res, dist, bg, line = chain_parts(x)
    f_p = np.asarray(f_p, dtype=float)
    second = (
        _delay(line.tau, line.varphi, f_p)
        * background_transfer(replace(bg, s_b=0.0, f_b=bg.f_b + spacing), f_p)
        * averaged_reflection(res, dist, f_p)
    )
    return full_chain_response(res, dist, bg, line, f_p) + second
