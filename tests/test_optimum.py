"""The LM's answers against an independent solver.

Every converged calibration (twelve scalars free) and measurement row (six
free) of the shipped configs at noise 0.01 and 0.03 is handed to scipy's
trust-region-reflective least squares, with the same box, the same scales
and the same closed-form Jacobian.  TRF started from `_lm`'s answer must
not lower the cost by more than 1e-10 relative, nor move a parameter by
more than 1e-3 of its standard error: this checks the optimizer, not the
model.  Clean fits end at round-off, where a relative cost says nothing;
the round-trip tests check them by their residual.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

from bolostat import SweepConfig, fit_measurements, run_calibration, simulate_sweep
from bolostat.fitkit import MEASUREMENT_PARAM_NAMES, PARAM_NAMES, _default_bounds, _scales
from bolostat.response import _chain_jacobian, _chain_model

SHIPPED = Path(__file__).resolve().parent.parent / "configs"
EVERY = list(range(len(PARAM_NAMES)))
MEASURED = [PARAM_NAMES.index(name) for name in MEASUREMENT_PARAM_NAMES]


def polished(x, free, freqs, data):
    """TRF started at the 12-vector ``x``, fitting its entries ``free`` to
    the trace ``data``: the relative cost drop from ``x`` and TRF's free
    entries."""
    lo, hi = _default_bounds(freqs, gamma_scale=x[PARAM_NAMES.index("gamma")])

    def full(xf):
        out = x.copy()
        out[free] = xf
        return out

    def residual(xf):
        r = _chain_model(full(xf), freqs) - data
        return np.concatenate([r.real, r.imag])

    def jacobian(xf):
        return _chain_jacobian(full(xf), freqs, free)[1]

    start = residual(x[free])
    res = scipy_least_squares(
        residual,
        x[free],
        jac=jacobian,
        bounds=(lo[free], hi[free]),
        method="trf",
        x_scale=_scales(x, freqs)[free],
        ftol=1e-15,
        xtol=1e-15,
        gtol=1e-15,
    )
    cost, trf_cost = start @ start, 2.0 * res.cost
    return (cost - trf_cost) / cost, res.x


@pytest.mark.parametrize("noise", [0.01, 0.03])
@pytest.mark.parametrize("name", ["thermal", "coherent", "mixed"])
def test_trf_cannot_improve_a_converged_fit(name, noise):
    cases = []
    for seed in (1, 2):
        raw = dict(json.loads((SHIPPED / f"{name}.json").read_text()), noise=noise, seed=seed)
        dataset = simulate_sweep(SweepConfig.from_dict(raw))
        calibration = run_calibration(dataset)
        cases.append((calibration.fit.params, EVERY, dataset.base.sweep, calibration.fit))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = fit_measurements([p.sweep for p in dataset.records], calibration)
        for point, (_, _, fit) in zip(dataset.records, rows):
            x = calibration.fit.params.copy()
            x[MEASURED] = fit.params
            cases.append((x, MEASURED, point.sweep, fit))
    converged = [case for case in cases if case[3].converged]
    assert len(converged) >= 0.9 * len(cases)  # so that the check is not vacuous
    for x, free, sweep, fit in converged:
        drop, x_trf = polished(x, free, sweep.freqs, sweep.values)
        moved = np.abs(x_trf - x[free]) / np.sqrt(np.diag(fit.covariance))
        assert drop < 1e-10, (len(free), drop)
        assert moved.max() < 1e-3, (len(free), moved.max())
