"""Acceptance gate: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Criterion 1's 64-node-quadrature clause at sigma = 2 MHz is
a documented strict xfail: the stated tolerance is below the analytic
convergence floor of a 64-node Gauss-Hermite rule there (see the test
reason and the converged-quadrature cross-check that passes instead).
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from bolostat import (
    ComplexSweep,
    extract_statistics,
    simulate_sweep,
    averaged_reflection_gh,
    averaged_reflection_mc,
    circle_fit,
    cli,
    erfcx,
    fit_measurements,
    flux_to_power,
    g2_zero,
    least_squares,
    mixed_moments,
    mixed_moments_mc,
    planck_mean_photon,
    resolution_metrics,
)
from bolostat.dspchain import (
    DEFAULT_FIR,
    average_traces,
    decimate,
    digital_downconvert,
    fir_lowpass,
    synth_raw_trace,
)
from bolostat.response import _line
from conftest import GAMMA, GAMMA_C, MU, bare_line, bare_line_jacobian
from test_fitkit import base_calibration, synth_sweep
from test_pipeline import make_config, temp_for_mean

mp.mp.dps = 30

SWEEP_201 = np.linspace(MU - 15e6, MU + 15e6, 201)


def line0(v):
    """The reference line's scalars at broadening v, in `_line`'s order."""
    return (MU, v, GAMMA_C, 0.0, GAMMA)


def _report(num, ok, detail=""):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------- 1


def test_criterion_1_closed_form_vs_monte_carlo():
    t0 = time.time()
    worst = 0.0
    for sigma in (0.1e6, 0.5e6, 2.0e6):
        closed = _line(*line0(sigma**2), SWEEP_201)
        mc = averaged_reflection_mc(*line0(sigma**2), SWEEP_201, n_samples=10**6, seed=1)
        worst = max(worst, float(np.max(np.abs(mc - closed) / np.abs(closed))))
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 60
    _report("1 (Monte Carlo 1e6)", ok, f"worst rel dev {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-3
    assert elapsed < 60


@pytest.mark.parametrize("sigma", [0.1e6, 0.5e6])
def test_criterion_1_closed_form_vs_gauss_hermite(sigma):
    closed = _line(*line0(sigma**2), SWEEP_201)
    quad = averaged_reflection_gh(*line0(sigma**2), SWEEP_201, n_nodes=64)
    worst = float(np.max(np.abs(quad - closed) / np.abs(closed)))
    _report(f"1 (GH-64, sigma={sigma / 1e6:g} MHz)", worst < 1e-9, f"worst {worst:.2e}")
    assert worst < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: a 64-node Gauss-Hermite rule has a convergence floor of "
    "~1e-5 at sigma = 2 MHz (integrand pole 0.53 strip units from the node line, "
    "error ~ exp(-2*d*sqrt(129))); no implementation can meet 1e-9 here. The "
    "closed form is validated at this sigma by the 300-node quadrature test and "
    "by Monte Carlo instead.",
)
def test_criterion_1_closed_form_vs_gauss_hermite_sigma_2mhz():
    closed = _line(*line0(2.0e6**2), SWEEP_201)
    quad = averaged_reflection_gh(*line0(2.0e6**2), SWEEP_201, n_nodes=64)
    worst = float(np.max(np.abs(quad - closed) / np.abs(closed)))
    _report("1 (GH-64, sigma=2 MHz)", worst < 1e-9, f"worst {worst:.2e} (floor of the 64-node rule)")
    assert worst < 1e-9


def test_criterion_1_supplement_converged_quadrature_at_sigma_2mhz():
    closed = _line(*line0(2.0e6**2), SWEEP_201)
    quad = averaged_reflection_gh(*line0(2.0e6**2), SWEEP_201, n_nodes=300)
    worst = float(np.max(np.abs(quad - closed) / np.abs(closed)))
    _report("1 (GH-300 cross-check, sigma=2 MHz)", worst < 1e-8, f"worst {worst:.2e}")
    assert worst < 1e-8


# ---------------------------------------------------------------------- 2


def test_criterion_2_erfcx_accuracy_and_derivative():
    t0 = time.time()
    xs = np.linspace(-10, 10, 50)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel()
    mine = erfcx(grid)
    worst = 0.0
    for z, v in zip(grid, mine):
        ref = complex(mp.exp(mp.mpc(z) ** 2) * mp.erfc(mp.mpc(z)))
        worst = max(worst, abs(v - ref) / abs(ref))

    rng = np.random.default_rng(7)
    pts = rng.uniform(-8, 8, 100) + 1j * rng.uniform(-8, 8, 100)
    h = 5e-5
    worst_d = 0.0
    for z in pts:
        analytic = 2 * z * erfcx(z) - 2 / math.sqrt(math.pi)
        numeric = (erfcx(z + h) - erfcx(z - h)) / (2 * h)
        worst_d = max(worst_d, abs(numeric - analytic) / abs(analytic))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and worst_d < 1e-6 and elapsed < 10
    _report(
        "2 (erfcx accuracy)",
        ok,
        f"grid {worst:.2e}, derivative {worst_d:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-10
    assert worst_d < 1e-6
    assert elapsed < 10


# ---------------------------------------------------------------------- 3


def test_criterion_3_fit_round_trip_grid():
    t0 = time.time()
    freqs = np.linspace(500e6, 545e6, 451)
    _, calib = base_calibration()
    worst_mu, worst_sig = 0.0, 0.0
    for mu_t in np.linspace(510e6, 530e6, 5):
        for sigma_t in (0.3e6, 0.9e6, 1.8e6, 2.8e6):
            sweep = synth_sweep(mu_t, sigma_t, freqs=freqs)
            mu, v, fit = fit_measurements([sweep], calib)[0]
            worst_mu = max(worst_mu, abs(mu - mu_t))
            worst_sig = max(worst_sig, abs(math.sqrt(v) / sigma_t - 1))
    ok_grid = worst_mu < 1e3 and worst_sig < 0.01

    sigma_t = 0.5e6
    hats = []
    for seed in range(100):
        sweep = synth_sweep(523e6, sigma_t, noise=0.01, seed=seed)
        _, v, _ = fit_measurements([sweep], calib)[0]
        hats.append(math.sqrt(v))
    bias = abs(float(np.mean(hats)) / sigma_t - 1)
    elapsed = time.time() - t0
    ok = ok_grid and bias < 0.05 and elapsed < 300
    _report(
        "3 (fit round trip)",
        ok,
        f"worst mu err {worst_mu:.2g} Hz, worst sigma err {worst_sig:.2e}, "
        f"noisy bias {bias:.3f}, {elapsed:.0f}s",
    )
    assert worst_mu < 1e3
    assert worst_sig < 0.01
    assert bias < 0.05
    assert elapsed < 300


# ---------------------------------------------------------------------- 4


def test_criterion_4_thermal_and_coherent_statistics():
    means = [0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]
    cfg = make_config(t_grid_k=[temp_for_mean(n) for n in means])
    records = extract_statistics(simulate_sweep(cfg))
    ok_t = True
    for rec in records:
        law = rec.mean_n * (rec.mean_n + 1)
        ok_t &= abs(rec.variance_n / law - 1) < 0.05
        ok_t &= abs(rec.g2 - 2.0) < 0.05

    fluxes = [0.1, 0.3, 0.7, 1.5, 3.0, 5.0, 8.0, 12.0, 16.0, 19.0]
    cfg_c = make_config(mode="coherent", flux_grid=fluxes)
    records_c = extract_statistics(simulate_sweep(cfg_c))
    ok_c = True
    for rec in records_c:
        ok_c &= abs(rec.variance_n / rec.mean_n - 1) < 0.05
        ok_c &= abs(rec.g2 - 1.0) < 0.05

    _report(
        "4 (thermal/coherent statistics)",
        ok_t and ok_c,
        f"thermal g2 {[round(r.g2, 3) for r in records][:3]}..., "
        f"coherent g2 {[round(r.g2, 3) for r in records_c][:3]}...",
    )
    assert ok_t
    assert ok_c


# ---------------------------------------------------------------------- 5


def test_criterion_5_mixed_state_correlation():
    n_cohs = np.linspace(0.1, 5.0, 10)
    n_ths = np.linspace(0.05, 3.0, 10)
    worst = 0.0
    for i, nc in enumerate(n_cohs):
        for j, nt in enumerate(n_ths):
            field = (float(nc), float(nt))
            g_closed = g2_zero(*mixed_moments(*field))
            g_mc = g2_zero(*mixed_moments_mc(*field, n_samples=10**6, seed=100 + 10 * i + j))
            worst = max(worst, abs(g_closed - g_mc))
    mono = True
    bounded = True
    for nc in n_cohs:
        curve = [g2_zero(*mixed_moments(float(nc), float(nt))) for nt in n_ths]
        mono &= bool(np.all(np.diff(curve) > 0))
        bounded &= bool(np.all(np.asarray(curve) <= 2.0 + 1e-12))
    ok = worst < 1e-2 and mono and bounded
    _report("5 (mixed-state g2 vs MC)", ok, f"worst |dg2| {worst:.2e}")
    assert worst < 1e-2
    assert mono and bounded


# ---------------------------------------------------------------------- 6


def test_criterion_6_closed_form_constants():
    p = flux_to_power(0.16, 8.428e9, 133e6)
    ok_p = abs(p / 119e-18 - 1) < 0.01
    n = planck_mean_photon(1.0, 8.428e9)
    ok_n = abs(n - 2.01) < 0.01
    rng = np.random.default_rng(2)
    samples = rng.normal(0.0, 1.0, 2000)
    samples = (samples - samples.mean()) / samples.std(ddof=1)
    samples = -(0.22e6 + 0.19e6 * samples)  # negative shift convention
    _, _, cv = resolution_metrics(samples)
    ok_cv = abs(cv - 0.864) < 1e-3 and cv < 1
    ok = ok_p and ok_n and ok_cv
    _report("6 (reference constants)", ok, f"P={p * 1e18:.2f} aW, <n>={n:.4f}, CV={cv:.4f}")
    assert ok_p and ok_n and ok_cv


# ---------------------------------------------------------------------- 7


def test_criterion_7_circle_fit():
    freqs = np.linspace(MU - 15e6, MU + 15e6, 401)
    sweep = ComplexSweep(freqs, _line(*line0(0.0), freqs))
    geo = circle_fit(sweep)
    ok_rec = (
        abs(geo["mu"] / MU - 1) < 1e-3
        and abs(geo["gamma_c"] / GAMMA_C - 1) < 1e-3
        and abs(geo["gamma"] / GAMMA - 1) < 1e-3
    )
    direct = least_squares(
        bare_line,
        sweep,
        init=[MU * (1 + 2e-5), GAMMA_C * 1.05, GAMMA * 0.95],
        bounds=([freqs[0], 1e3, 1e3], [freqs[-1], 1e9, 1e9]),
        jac=bare_line_jacobian,
    )
    rel = np.abs(np.array([geo["mu"], geo["gamma_c"], geo["gamma"]]) / direct.params - 1)
    ok_agree = bool(np.all(rel < 1e-3))
    _report(
        "7 (circle fit)",
        ok_rec and ok_agree,
        f"recovery ({abs(geo['mu'] / MU - 1):.1e}, {abs(geo['gamma_c'] / GAMMA_C - 1):.1e}, "
        f"{abs(geo['gamma'] / GAMMA - 1):.1e}), vs LSQ {rel.max():.1e}",
    )
    assert ok_rec
    assert ok_agree


# ---------------------------------------------------------------------- 8


def test_criterion_8_dsp_chain():
    t0 = time.time()
    amp, theta = 1.0, 0.6

    def chain(seed, noise=0.0):
        trace = synth_raw_trace(amp, theta, 62.5e6, noise, 32e-6, 250e6, seed)
        return decimate(fir_lowpass(digital_downconvert(trace, 62.5e6), DEFAULT_FIR), 4)

    avg = average_traces(chain(seed) for seed in range(4))
    iq = avg.iq.mean()
    ok_tone = abs(abs(iq) / (amp / 2) - 1) < 1e-3 and abs(np.angle(iq) - theta) < 1e-3

    def noise_rms(n_rep, seed0):
        avg = average_traces(
            digital_downconvert(
                synth_raw_trace(0.0, 0.0, 62.5e6, 1.0, 32e-6, 250e6, seed0 + k), 62.5e6
            )
            for k in range(n_rep)
        )
        return float(np.sqrt(np.mean(np.abs(avg.iq) ** 2)))

    ok_noise = True
    details = []
    for n_rep in (100, 1000, 20000):
        r = noise_rms(n_rep, 50000 + n_rep)
        ratio = r * math.sqrt(n_rep)
        details.append(f"N={n_rep}: {ratio:.3f}")
        ok_noise &= abs(ratio - 1.0) < 0.1
    elapsed = time.time() - t0
    ok = ok_tone and ok_noise and elapsed < 60
    _report("8 (DSP chain)", ok, f"tone ok={ok_tone}; rms*sqrt(N): {', '.join(details)}; {elapsed:.0f}s")
    assert ok_tone
    assert ok_noise
    assert elapsed < 60


# ---------------------------------------------------------------------- 9


def test_criterion_9_byte_identical_outputs(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(make_config(t_grid_k=[0.5, 1.0], noise=0.005, seed=11).to_dict()))
    digests = []
    for tag in ("first", "second"):
        dataset = tmp_path / f"{tag}.json"
        stats = tmp_path / f"{tag}.csv"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(dataset)]) == 0
        assert cli.main(["fit", str(dataset), "--out", str(stats)]) == 0
        digests.append((dataset.read_bytes(), stats.read_bytes()))
    ok = digests[0] == digests[1]
    _report("9 (determinism)", ok, f"dataset {len(digests[0][0])} B, stats {len(digests[0][1])} B")
    assert ok
