from dataclasses import fields

import numpy as np
import pytest

from bolostat import (
    BackgroundParams,
    ChainParams,
    FreqDistribution,
    LineParams,
    ResonatorParams,
)
from bolostat.fitkit import PARAM_NAMES

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
