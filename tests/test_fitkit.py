import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bolostat import (
    ComplexSweep,
    DegenerateCircleError,
    DegenerateSigmaWarning,
    FitError,
    RankDeficiencyError,
    ResonatorParams,
    SweepConfig,
    bare_reflection,
    circle_fit,
    extract_statistics,
    fit_base_calibration,
    fit_measurements,
    least_squares,
    polynomial_fit,
    run_calibration,
    simulate_sweep,
)
from bolostat.fitkit import (
    FROZEN_PARAM_NAMES,
    MEASUREMENT_PARAM_NAMES,
    PARAM_NAMES,
    _chain_model,
    _default_bounds,
    _phase_jacobian,
    _phase_model,
    wrap_angle,
)
from bolostat.response import (
    _BACKGROUND,
    _DELAY,
    _LINE,
    _background_jacobian,
    _delay,
    _line_jacobian,
)

from conftest import (
    CHAIN_TRUE,
    GAMMA,
    GAMMA_C,
    MU,
    PROBE_GRID,
    bare_line_jacobian,
    complex_jacobian,
    perturbed_model,
    two_resonance_response,
)


def chain_jac(x, freqs):
    """The complex Jacobian of `_chain_jacobian`, as `least_squares` takes it."""
    return complex_jacobian(x, freqs)


def add_noise(values, noise, seed):
    """White complex noise of RMS ``noise`` times the |values| span."""
    rng = np.random.Generator(np.random.Philox(seed))
    s = noise * np.ptp(np.abs(values)) / np.sqrt(2)
    return values + rng.normal(0, s, values.size) + 1j * rng.normal(0, s, values.size)


def synth_sweep(mu, sigma, chain=CHAIN_TRUE, freqs=PROBE_GRID, noise=0.0, seed=0):
    values = _chain_model(chain.vector(mu, sigma**2), freqs)
    if noise > 0:
        values = add_noise(values, noise, seed)
    return ComplexSweep(freqs=freqs, values=values)


def base_calibration(sigma=0.1e6, seed=0, frac=0.05):
    sweep = synth_sweep(MU, sigma)
    rng = np.random.default_rng(seed)
    init = perturbed_model(CHAIN_TRUE, MU, sigma, rng, PROBE_GRID[-1] - PROBE_GRID[0], frac)
    return sweep, fit_base_calibration(sweep, init)


@pytest.mark.parametrize("where", ["values", "freqs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_complex_sweep_rejects_non_finite_samples(where, bad):
    arrays = {"freqs": np.linspace(0.0, 1.0, 10), "values": np.ones(10, dtype=complex)}
    arrays[where][-1] = bad  # the last entry keeps freqs increasing for inf
    with pytest.raises(ValueError, match="finite"):
        ComplexSweep(**arrays)


class TestLeastSquares:
    @staticmethod
    def line_model(p, f):
        return (p[0] * f + p[1]).astype(complex)

    @staticmethod
    def line_jac(p, f):
        return np.column_stack([f, np.ones_like(f)]).astype(complex)

    def test_zero_residual_fixed_point(self):
        f = np.linspace(0.0, 1.0, 20)
        truth = np.array([2.0, -1.0])
        sweep = ComplexSweep(f, self.line_model(truth, f))
        res = least_squares(self.line_model, sweep, init=truth, jac=self.line_jac)
        assert res.converged and res.n_iter <= 2
        assert res.residual_norm < 1e-14

    def test_linear_model_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        f = np.linspace(0.0, 5.0, 40)
        y = 1.3 * f - 0.7 + rng.normal(0, 0.05, f.size)
        sweep = ComplexSweep(f, y.astype(complex))
        res = least_squares(self.line_model, sweep, init=[1.0, 0.0], jac=self.line_jac)
        design = np.column_stack([f, np.ones_like(f)])
        expected, *_ = np.linalg.lstsq(design, y, rcond=None)
        np.testing.assert_allclose(res.params, expected, rtol=1e-10, atol=1e-12)

    def test_residual_non_increasing_over_accepted_steps(self):
        sweep = synth_sweep(523e6, 0.8e6)
        rng = np.random.default_rng(4)
        init = perturbed_model(CHAIN_TRUE, 523e6, 0.8e6, rng, PROBE_GRID[-1] - PROBE_GRID[0])
        lo, hi = _default_bounds(PROBE_GRID, gamma_scale=GAMMA)
        kwargs = dict(init=np.clip(init, lo, hi), bounds=(lo, hi), jac=chain_jac)
        fit = least_squares(_chain_model, sweep, **kwargs)
        assert fit.n_iter >= 3
        # a fit capped at k iterations returns its k-th accepted point
        history = [
            least_squares(_chain_model, sweep, max_iter=k, **kwargs).residual_norm
            for k in range(1, fit.n_iter)
        ] + [fit.residual_norm]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(history, history[1:]))

    def test_iteration_cap_reports_not_converged(self):
        sweep = synth_sweep(523e6, 0.8e6)
        rng = np.random.default_rng(4)
        init = perturbed_model(CHAIN_TRUE, 523e6, 0.8e6, rng, PROBE_GRID[-1] - PROBE_GRID[0])
        lo, hi = _default_bounds(PROBE_GRID, gamma_scale=GAMMA)
        res = least_squares(
            _chain_model,
            sweep,
            init=np.clip(init, lo, hi),
            bounds=(lo, hi),
            max_iter=2,
            jac=chain_jac,
        )
        assert not res.converged and res.n_iter == 2

    def test_stall_at_active_bound_is_converged(self):
        # the unconstrained optimum (1) lies below the bound: the gradient
        # points into the bound, so the projected gradient vanishes there and
        # the first gradient test stops the fit, with no damping sweep
        f = np.linspace(0.0, 1.0, 20)
        sweep = ComplexSweep(f, np.ones(f.size, dtype=complex))
        evals = []

        def model(p, f):
            evals.append(p[0])
            return np.full(f.size, p[0], dtype=complex)

        def jac(p, f):
            return np.ones((f.size, 1), dtype=complex)

        res = least_squares(model, sweep, init=[2.0], bounds=([2.0], [np.inf]), jac=jac)
        assert res.converged
        assert res.params[0] == 2.0
        assert res.grad_norm < 1e-8
        # the residual and the final Gauss-Newton polish
        assert len(evals) <= 2

    def test_uphill_jacobian_stops_without_a_step(self):
        # a wrong-sign Jacobian points every damped step uphill, so no step
        # lowers the cost at any damping and the fit stops where it started
        f = np.linspace(0.0, 1.0, 20)
        sweep = ComplexSweep(f, self.line_model(np.array([2.0, -1.0]), f))

        def wrong_jac(p, f):
            return -np.column_stack([f, np.ones_like(f)]).astype(complex)

        res = least_squares(self.line_model, sweep, init=[1.0, 0.0], jac=wrong_jac)
        assert not res.converged and res.n_iter == 1
        np.testing.assert_array_equal(res.params, [1.0, 0.0])

    def test_every_direction_pinned_is_converged(self):
        # the model ignores its parameter, whose init sits on its bound: the
        # only column is dead and pinned, so no direction is left to move
        f = np.linspace(0.0, 1.0, 20)
        sweep = ComplexSweep(f, np.zeros(f.size, dtype=complex))

        def constant(p, f):
            return np.ones(f.size, dtype=complex)

        def flat(p, f):
            return np.zeros((f.size, 1), dtype=complex)

        res = least_squares(constant, sweep, init=[1.0], bounds=([1.0], [np.inf]), jac=flat)
        assert res.converged and res.n_iter == 1
        assert res.params[0] == 1.0

    def test_init_outside_bounds_rejected(self):
        f = np.linspace(0.0, 1.0, 20)
        sweep = ComplexSweep(f, self.line_model(np.array([1.0, 0.0]), f))
        with pytest.raises(FitError):
            least_squares(
                self.line_model,
                sweep,
                init=[2.0, 0.0],
                bounds=([0, 0], [1, 1]),
                jac=self.line_jac,
            )

    def test_too_few_points_rejected(self):
        f = np.linspace(0.0, 1.0, 5)
        sweep = ComplexSweep(f, self.line_model(np.array([1.0, 0.0]), f))
        with pytest.raises(FitError):
            least_squares(self.line_model, sweep, init=[1.0, 0.0], jac=self.line_jac)

    def test_noisy_lorentzian_errors_within_covariance(self):
        # |S11| of the bare line with 1% noise: fitted errors should stay
        # within 5x the covariance estimate
        def mag_model(p, f):
            res = ResonatorParams(f_r=p[0], gamma_c=p[1], gamma=p[2], phi=0.0)
            return np.abs(bare_reflection(res, f)).astype(complex)

        def mag_jac(p, f):
            # d|S|/dp = Re(conj(S) dS/dp) / |S|
            s = bare_reflection(ResonatorParams(f_r=p[0], gamma_c=p[1], gamma=p[2], phi=0.0), f)
            ds = bare_line_jacobian(p, f)
            return (np.real(np.conj(s)[:, None] * ds) / np.abs(s)[:, None]).astype(complex)

        truth = np.array([MU, GAMMA_C, GAMMA])
        f = PROBE_GRID
        clean = mag_model(truth, f).real
        for seed in range(10):
            rng = np.random.default_rng(seed)
            noisy = clean + rng.normal(0, 0.01 * np.ptp(clean), f.size)
            sweep = ComplexSweep(f, noisy.astype(complex))
            res = least_squares(
                mag_model,
                sweep,
                init=truth * np.array([1.0 + 1e-5, 1.05, 0.95]),
                bounds=([f[0], 1e3, 1e3], [f[-1], 1e9, 1e9]),
                jac=mag_jac,
            )
            err = np.abs(res.params - truth)
            sig = np.sqrt(np.diag(res.covariance))
            assert np.all(err <= 5 * sig), (seed, err / sig)


class TestCircleFit:
    def test_round_trip_reference_line(self):
        res_true = ResonatorParams(f_r=MU, gamma_c=GAMMA_C, gamma=GAMMA, phi=0.0)
        sweep = ComplexSweep(PROBE_GRID, bare_reflection(res_true, PROBE_GRID))
        fitted = circle_fit(sweep)
        np.testing.assert_allclose(fitted.f_r, MU, rtol=1e-3 * 1e-3)
        np.testing.assert_allclose(fitted.gamma_c, GAMMA_C, rtol=1e-3)
        np.testing.assert_allclose(fitted.gamma, GAMMA, rtol=1e-3)
        assert abs(fitted.phi) < 1e-3

    def test_asymmetric_line(self):
        res_true = ResonatorParams(f_r=MU, gamma_c=GAMMA_C, gamma=GAMMA, phi=0.35)
        sweep = ComplexSweep(PROBE_GRID, bare_reflection(res_true, PROBE_GRID))
        fitted = circle_fit(sweep)
        np.testing.assert_allclose(fitted.phi, 0.35, atol=1e-3)
        np.testing.assert_allclose(fitted.gamma_c, GAMMA_C, rtol=1e-3)

    def test_overcoupled_branch(self):
        res_true = ResonatorParams(f_r=MU, gamma_c=0.9 * GAMMA, gamma=GAMMA, phi=0.0)
        sweep = ComplexSweep(PROBE_GRID, bare_reflection(res_true, PROBE_GRID))
        fitted = circle_fit(sweep)
        assert fitted.gamma_c > fitted.gamma / 2
        np.testing.assert_allclose(fitted.gamma_c, 0.9 * GAMMA, rtol=1e-3)

    def test_agrees_with_full_least_squares(self):
        res_true = ResonatorParams(f_r=MU, gamma_c=GAMMA_C, gamma=GAMMA, phi=0.0)
        sweep = ComplexSweep(PROBE_GRID, bare_reflection(res_true, PROBE_GRID))
        geo = circle_fit(sweep)

        def model(p, f):
            return bare_reflection(ResonatorParams(p[0], p[1], p[2], 0.0), f)

        direct = least_squares(
            model,
            sweep,
            init=[MU * (1 + 2e-5), GAMMA_C * 1.05, GAMMA * 0.95],
            bounds=([PROBE_GRID[0], 1e3, 1e3], [PROBE_GRID[-1], 1e9, 1e9]),
            jac=bare_line_jacobian,
        )
        np.testing.assert_allclose(
            [geo.f_r, geo.gamma_c, geo.gamma], direct.params, rtol=1e-3
        )

    def test_phase_jacobian_matches_central_difference(self):
        f = PROBE_GRID
        x = np.array([0.3, MU + 0.7e6, GAMMA])
        analytic = _phase_jacobian(x, f)
        assert analytic.shape == (f.size, 3)
        for i, h in enumerate((1e-6, 1.0, 10.0)):
            step = np.zeros(3)
            step[i] = h
            numeric = (_phase_model(x + step, f) - _phase_model(x - step, f)) / (2 * h)
            np.testing.assert_allclose(analytic[:, i], numeric, rtol=1e-6, atol=1e-9 * np.abs(numeric).max())

    def test_least_squares_needs_a_jacobian(self):
        sweep = ComplexSweep(PROBE_GRID, np.zeros(PROBE_GRID.size, dtype=complex))
        with pytest.raises(TypeError, match="jac"):
            least_squares(_phase_model, sweep, init=[0.0, MU, GAMMA])

    def test_collinear_data_rejected(self):
        f = np.linspace(509e6, 539e6, 64)
        line = (0.2 + 0.1j) + np.linspace(0, 1, 64) * (0.5 - 0.3j)
        with pytest.raises(DegenerateCircleError):
            circle_fit(ComplexSweep(f, line))


class TestPolynomialFit:
    def test_exact_cubic(self):
        x = np.linspace(-2, 2, 10)
        coeffs = polynomial_fit(x, x**3, 3)
        np.testing.assert_allclose(coeffs, [0, 0, 0, 1], atol=1e-10)

    def test_exact_affine(self):
        x = np.linspace(0, 4, 7)
        coeffs = polynomial_fit(x, 2.5 * x - 3.0, 1)
        np.testing.assert_allclose(coeffs, [-3.0, 2.5], atol=1e-12)

    def test_residual_below_injected_noise(self):
        rng = np.random.default_rng(8)
        x = np.linspace(-1, 1, 60)
        clean = 0.3 - 0.5 * x + 0.02 * x**2 + 1.1 * x**3
        noisy = clean + rng.normal(0, 0.01, x.size)
        coeffs = polynomial_fit(x, noisy, 3)
        resid = noisy - np.polynomial.polynomial.polyval(x, coeffs)
        assert np.sqrt(np.mean(resid**2)) < 0.012

    def test_underdetermined(self):
        with pytest.raises(FitError):
            polynomial_fit([1.0, 2.0], [1.0, 2.0], 3)


class TestBaseCalibration:
    def test_all_twelve_recovered_from_perturbed_init(self):
        truth = CHAIN_TRUE.vector(MU, 0.1e6**2)
        for seed in range(5):
            _, calib = base_calibration(sigma=0.1e6, seed=seed)
            fitted = calib.fit.params
            for i, name in enumerate(PARAM_NAMES):
                if name in ("phi", "phi_b", "varphi"):
                    assert abs(wrap_angle(fitted[i] - truth[i])) < 0.01
                else:
                    assert abs(fitted[i] / truth[i] - 1) < 0.01, (name, seed)
            assert not calib.misfit_flag

    def test_truth_init_converges_immediately(self):
        sweep = synth_sweep(MU, 0.1e6)
        calib = fit_base_calibration(sweep, CHAIN_TRUE.vector(MU, 0.1e6**2))
        assert calib.fit.converged
        assert calib.fit.residual_norm < 1e-12

    @pytest.mark.parametrize(
        "init", [CHAIN_TRUE.vector(MU, 0.1e6**2)[:-1], np.full(12, np.nan)], ids=["short", "nan"]
    )
    def test_init_must_be_twelve_finite_scalars(self, init):
        with pytest.raises(ValueError, match="PARAM_NAMES"):
            fit_base_calibration(synth_sweep(MU, 0.1e6), init)

    def test_singular_stage_raises_naming_the_direction(self, monkeypatch):
        import bolostat.fitkit as fk

        real = fk._chain_jacobian

        def flat_phi(x, freqs, free):
            value, J = real(x, freqs, free)
            J[..., free.index(PARAM_NAMES.index("phi"))] = 0.0
            return value, J

        monkeypatch.setattr(fk, "_chain_jacobian", flat_phi)
        with pytest.raises(RankDeficiencyError, match="degenerate directions: phi$"):
            fit_base_calibration(synth_sweep(MU, 0.1e6), CHAIN_TRUE.vector(MU, 0.1e6**2))

    def test_frozen_set_is_the_documented_partition(self):
        assert FROZEN_PARAM_NAMES == ("gamma", "s_b", "gamma_bc", "gamma_b", "tau", "varphi")
        assert MEASUREMENT_PARAM_NAMES == ("mu", "v", "gamma_c", "phi", "f_b", "phi_b")

    def test_unmodeled_second_background_resonance_is_flagged(self):
        # data carry a second background resonance 80 MHz up, model assumes one
        values = two_resonance_response(CHAIN_TRUE.vector(MU, 0.1e6**2), PROBE_GRID)
        sweep = ComplexSweep(PROBE_GRID, values)
        rng = np.random.default_rng(1)
        init = perturbed_model(CHAIN_TRUE, MU, 0.1e6, rng, 30e6)
        calib = fit_base_calibration(sweep, init, residual_tol=1e-4)
        assert calib.fit.converged
        assert calib.misfit_flag

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_second_background_resonance_in_window_is_flagged(self, noise):
        # the second resonance sits at 513 MHz, inside the probe window; at
        # noise 0.01 the residual is more than twice the trace's noise level
        values = two_resonance_response(CHAIN_TRUE.vector(MU, 0.1e6**2), PROBE_GRID, spacing=-18e6)
        values = add_noise(values, noise, seed=3)
        init = perturbed_model(CHAIN_TRUE, MU, 0.1e6, np.random.default_rng(1), 30e6)
        calib = fit_base_calibration(ComplexSweep(PROBE_GRID, values), init)
        assert calib.misfit_flag

    def test_coarse_grid_misfit_above_noise_is_flagged(self):
        # 41 points: the second background line at 611 MHz leaves a residual of
        # 1.5e-4 of the span, three times the injected noise.  An estimate
        # from the trace's own differences took the line curvature between
        # so few points for noise and passed this misfit.
        grid = np.linspace(PROBE_GRID[0], PROBE_GRID[-1], 41)
        noise = 5e-5
        values = add_noise(two_resonance_response(CHAIN_TRUE.vector(MU, 0.1e6**2), grid), noise, seed=3)
        init = perturbed_model(CHAIN_TRUE, MU, 0.1e6, np.random.default_rng(1), 30e6)
        calib = fit_base_calibration(ComplexSweep(grid, values), init, residual_tol=1e-4)
        assert calib.fit.residual_norm > 2.5 * noise * np.ptp(np.abs(values))
        assert calib.misfit_flag

    @pytest.mark.parametrize("points", [41, 101])
    def test_noise_only_on_coarse_grids_is_not_a_misfit(self, points):
        shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
        raw = json.loads(shipped.read_text())
        for seed in range(1, 13):
            cfg = dict(raw, noise=0.01, seed=seed, probe_points=points, t_grid_k=[0.5])
            assert not run_calibration(simulate_sweep(SweepConfig.from_dict(cfg))).misfit_flag

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_noise_level_residual_is_not_a_misfit(self, seed):
        # shipped thermal config at noise 0.01: residual/span is 0.0095-0.0101,
        # ten times residual_tol, but it is the injected noise, not a misfit
        shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
        raw = dict(json.loads(shipped.read_text()), noise=0.01, seed=seed)
        dataset = simulate_sweep(SweepConfig.from_dict(raw))
        calib = run_calibration(dataset)
        span = np.ptp(np.abs(dataset.base.sweep.values))
        assert calib.fit.residual_norm > 9e-3 * span
        assert not calib.misfit_flag


class TestMeasurementFit:
    def test_round_trip_box(self):
        _, calib = base_calibration()
        rng = np.random.default_rng(12)
        span = PROBE_GRID[-1] - PROBE_GRID[0]
        for mu_t, sigma_t in [(514e6, 0.3e6), (523e6, 1.5e6), (530e6, 2.8e6)]:
            sweep = synth_sweep(mu_t, sigma_t)
            hint = perturbed_model(CHAIN_TRUE, mu_t, sigma_t, rng, span)
            mu, sigma, fit = fit_measurements([sweep], calib, [hint])[0]
            assert fit.converged
            assert abs(mu - mu_t) < 1e3
            assert abs(sigma / sigma_t - 1) < 0.01

    def test_heuristic_init_also_recovers(self):
        _, calib = base_calibration()
        sweep = synth_sweep(521e6, 1.1e6)
        mu, sigma, fit = fit_measurements([sweep], calib)[0]
        assert abs(mu - 521e6) < 1e3
        assert abs(sigma / 1.1e6 - 1) < 0.01

    def test_gamma_variation_within_box(self):
        # identifiability holds across total rates 10..30 us^-1
        for gamma in (10e6, 30e6):
            chain = replace(CHAIN_TRUE, gamma=gamma, gamma_c=0.25 * gamma)
            sweep_base = synth_sweep(MU, 0.1e6, chain=chain)
            rng = np.random.default_rng(3)
            init = perturbed_model(chain, MU, 0.1e6, rng, 30e6)
            calib = fit_base_calibration(sweep_base, init)
            sweep = synth_sweep(522e6, 1.0e6, chain=chain)
            mu, sigma, fit = fit_measurements([sweep], calib)[0]
            assert abs(mu - 522e6) < 1e3, gamma
            assert abs(sigma / 1.0e6 - 1) < 0.01, gamma

    def test_zero_broadening_fits_sigma_near_its_floor(self):
        # the floor is v = 0, where the line is the bare Lorentzian: a
        # measurement trace that ends there is flagged
        _, calib = base_calibration()
        sweep = synth_sweep(522e6, 0.0)
        with pytest.warns(DegenerateSigmaWarning, match="v = 0"):
            mu, sigma, fit = fit_measurements([sweep], calib)[0]
        assert sigma == 0.0 and fit.converged
        assert abs(mu - 522e6) < 1e3

    def test_noise_robust_sigma(self):
        _, calib = base_calibration()
        sigma_t = 0.5e6
        hats = []
        for seed in range(25):
            sweep = synth_sweep(523e6, sigma_t, noise=0.01, seed=seed)
            _, sigma, _ = fit_measurements([sweep], calib)[0]
            hats.append(sigma)
        bias = abs(np.mean(hats) / sigma_t - 1)
        assert bias < 0.05, bias

    def test_thermal_and_coherent_matched_power_share_nuisances(self):
        # same mean flux, different variance: the four per-measurement
        # nuisance parameters must come out (nearly) identical
        _, calib = base_calibration()
        alpha = 1.92e-6
        mean = 2.0
        mu_t = MU - 1.4e6 * mean
        sweeps = {
            "thermal": synth_sweep(mu_t, np.sqrt(mean * (mean + 1)) / alpha),
            "coherent": synth_sweep(mu_t, np.sqrt(mean) / alpha),
        }
        fits = {}
        for kind, sweep in sweeps.items():
            _, _, fit = fit_measurements([sweep], calib)[0]
            fits[kind] = fit.params
        for name in ("gamma_c", "phi", "f_b", "phi_b"):
            i = MEASUREMENT_PARAM_NAMES.index(name)
            a, b = fits["thermal"][i], fits["coherent"][i]
            if name in ("phi", "phi_b"):
                assert abs(wrap_angle(a - b)) < 0.02
            else:
                assert abs(a / b - 1) < 0.02


def test_calibration_stages_and_the_sweep_are_lm_batches(monkeypatch):
    # a tracer that wraps fitkit._lm sees every staged fit: the two
    # calibration stages as batches of one, then the measurement fits of the
    # sweep as one batch, each evaluating the chain model with its Jacobian
    import bolostat.fitkit as fk

    real_lm, real_chain = fk._lm, fk._chain_jacobian
    batches, evals, calls = [], [], [0]

    def counting_lm(evaluate, x0, *args, **kwargs):
        batches.append(len(x0))
        before = calls[0]
        try:
            return real_lm(evaluate, x0, *args, **kwargs)
        finally:
            evals.append(calls[0] - before)  # chain evaluations inside this LM run

    def counted_chain(x, freqs, *free):
        calls[0] += 1
        return real_chain(x, freqs, *free)

    monkeypatch.setattr(fk, "_lm", counting_lm)
    monkeypatch.setattr(fk, "_chain_jacobian", counted_chain)
    shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
    dataset = simulate_sweep(SweepConfig.from_dict(json.loads(shipped.read_text())))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        extract_statistics(dataset)
    assert len(dataset.records) == 9
    assert batches == [1, 1, 9]
    assert all(n > 0 for n in evals)
    # the base calibration ends at v = 0, the zero-input answer, which is
    # not degenerate, and no measurement trace does
    assert not caught


def test_measurement_fit_evaluates_the_model_only_inside_the_lm(monkeypatch):
    # the FitResult describes the point the LM returned: no chain-model
    # evaluation after it may move v or the residual
    import bolostat.fitkit as fk

    shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
    dataset = simulate_sweep(SweepConfig.from_dict(json.loads(shipped.read_text())))
    calibration = run_calibration(dataset)
    sweep = dataset.records[-1].sweep

    real_lm = fk._lm
    inside = [False]
    calls = []

    def flagged_lm(*args, **kwargs):
        inside[0] = True
        try:
            return real_lm(*args, **kwargs)
        finally:
            inside[0] = False

    def counted(real):
        def call(x, freqs, *free):
            calls.append(inside[0])
            return real(x, freqs, *free)

        return call

    monkeypatch.setattr(fk, "_lm", flagged_lm)
    monkeypatch.setattr(fk, "_chain_model", counted(fk._chain_model))
    monkeypatch.setattr(fk, "_chain_jacobian", counted(fk._chain_jacobian))
    _, sigma, fit = fit_measurements([sweep], calibration)[0]
    gamma = calibration.fit.params[PARAM_NAMES.index("gamma")]
    lo, _ = _default_bounds(sweep.freqs, gamma_scale=gamma)
    assert sigma**2 > lo[PARAM_NAMES.index("v")]
    assert calls and all(calls)


def stacked_free_columns(x, freqs, free):
    """The real Jacobian `_fit_free` hands `_lm` for one vector, built as the
    stacked complex columns: each column of the line, background and delay
    parts times its factor, the free ones taken out, real parts over
    imaginary parts."""
    x = np.asarray(x, dtype=float)
    delay = _delay(*x[_DELAY], freqs)
    background, d_background = _background_jacobian(*x[_BACKGROUND], freqs)
    line, d_line = _line_jacobian(*x[_LINE], freqs)
    frame = delay * background
    value = frame * line
    columns = (
        [d * frame for d in d_line]
        + [d * (delay * line) for d in d_background]
        + [d * value for d in (1j * freqs, 1j)]
    )
    Jc = np.stack(np.broadcast_arrays(*columns), axis=-1)[:, free]
    return np.concatenate([Jc.real, Jc.imag], axis=0)


@pytest.mark.parametrize("stage", ["calibration", "measurement"])
def test_lm_gets_the_stacked_free_columns_column_contiguous(monkeypatch, stage):
    # the Jacobian of every row of a batch with rows at v = 0 and above, and
    # points on both sides of the |a| = 8c seam, is bitwise the stacked
    # complex free columns, and each of its columns is contiguous: the
    # memory order the LM's BLAS calls were pinned with
    import bolostat.fitkit as fk

    starts = np.array(
        [
            CHAIN_TRUE.vector(mu, sigma**2)
            for mu, sigma in ((MU, 0.0), (MU + 1e6, 0.3e6), (MU - 2e6, 0.0), (MU, 1.1e6))
        ]
    )
    every = list(range(len(PARAM_NAMES)))
    free = every if stage == "calibration" else [PARAM_NAMES.index(n) for n in MEASUREMENT_PARAM_NAMES]
    data = np.repeat(_chain_model(CHAIN_TRUE.vector(MU, 0.4e6**2), PROBE_GRID)[None], len(starts), axis=0)
    lo, hi = _default_bounds(PROBE_GRID, GAMMA)
    seen = []

    def first_evaluation(evaluate, x0, *args):
        seen.append((x0, evaluate(x0, np.arange(len(x0)))[1]))
        raise RuntimeError("stop after the first evaluation")

    monkeypatch.setattr(fk, "_lm", first_evaluation)
    with pytest.raises(RuntimeError, match="first evaluation"):
        fk._fit_free(PROBE_GRID, data, starts[0], starts, free, lo, hi, np.ones(12), 10)
    [(x0, J)] = seen
    assert J.shape == (len(starts), 2 * PROBE_GRID.size, len(free))
    assert np.swapaxes(J, 1, 2).flags.c_contiguous
    X = np.empty_like(starts)
    X[:] = starts[0]
    X[:, free] = x0
    assert (X[:, PARAM_NAMES.index("v")] == 0.0).any()
    assert (X[:, PARAM_NAMES.index("v")] > 0.0).any()
    for k, x in enumerate(X):
        np.testing.assert_array_equal(J[k], stacked_free_columns(x, PROBE_GRID, free))


def noisy_base_dataset(seed):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
    raw = dict(json.loads(shipped.read_text()), noise=0.01, seed=seed)
    return simulate_sweep(SweepConfig.from_dict(raw))


@pytest.mark.parametrize("seed", [101, 303])
def test_noisy_calibration_leaves_the_sigma_floor_in_few_steps(monkeypatch, seed):
    # thermal base traces at noise 0.01 whose stage B, stepping in sigma,
    # took 17 iterations after rejected trials.  In the variance coordinate
    # v's column at v = 0 is L''/2 instead of sigma*L'' = 0, so it is far
    # from the dead-column threshold and the first steps are accepted.
    import bolostat.fitkit as fk

    real_lm = fk._lm
    stages = []

    def recording(evaluate, x0, lo, hi, scales, names, max_iter):
        costs = []

        def logged(X, rows):
            r, J = evaluate(X, rows)
            costs.append(float(np.sum(r * r)))
            return r, J

        fits, failures = real_lm(logged, x0, lo, hi, scales, names, max_iter)
        stages.append((names, x0, np.broadcast_to(scales, x0.shape), costs, fits, evaluate))
        return fits, failures

    monkeypatch.setattr(fk, "_lm", recording)
    assert run_calibration(noisy_base_dataset(seed)).fit.converged
    names, x0, scales, costs, [fit], evaluate = stages[1]  # stage B
    assert names == tuple(PARAM_NAMES)
    assert fit.n_iter <= 8
    # the start, then every trial lowered the cost; the last call is the polish
    assert all(b < a for a, b in zip(costs[:-2], costs[1:-1]))
    # v's natural-scale column at the start, v = 0, is not near-dead
    assert x0[0, PARAM_NAMES.index("v")] == 0.0
    _, J = evaluate(x0, [0])
    col_nat = np.linalg.norm(J[0], axis=0) * scales[0]
    assert col_nat[PARAM_NAMES.index("v")] >= 1e-8 * col_nat.max()


def test_covariance_is_the_v_coordinate_one():
    # the fits step in v = sigma**2 and report their FitResults in v: the
    # covariance they return is the one formed from v's own Jacobian at the
    # returned point, and the reported sigma is sqrt(v)
    dataset = noisy_base_dataset(1)
    calibration = run_calibration(dataset)
    sweeps = [point.sweep for point in dataset.records]
    freqs = sweeps[0].freqs
    free = [PARAM_NAMES.index(name) for name in MEASUREMENT_PARAM_NAMES]
    for sweep, (mu, sigma, fit) in zip(sweeps, fit_measurements(sweeps, calibration)):
        x = calibration.fit.params.copy()
        x[free] = fit.params
        assert (x[PARAM_NAMES.index("mu")], math.sqrt(x[PARAM_NAMES.index("v")])) == (mu, sigma)
        jc = chain_jac(x, freqs)[:, free]
        J = np.concatenate([jc.real, jc.imag])
        m, n = J.shape
        cost = fit.residual_norm**2 * freqs.size
        expected = np.linalg.inv(J.T @ J) * cost / (m - n)
        np.testing.assert_allclose(fit.covariance, expected, rtol=1e-9, atol=0)


class TestSweepFit:
    """The measurement fits of a sweep run as one batch of the LM core."""

    # iterations per trace of the shipped configs, clean and at noise 0.01
    # seed 1, each the same as when the trace is a batch of its own
    N_ITER = {
        ("thermal", 0.0): [4, 4, 4, 5, 5, 6, 6, 6, 7],
        ("coherent", 0.0): [4, 4, 4, 5, 5, 6, 6, 6, 6, 6],
        ("mixed", 0.0): [5, 5, 5, 6, 6, 6],
        ("thermal", 0.01): [5, 5, 6, 6, 6, 6, 6, 6, 7],
        ("coherent", 0.01): [5, 5, 6, 6, 6, 6, 6, 6, 6, 7],
        ("mixed", 0.01): [6, 6, 6, 6, 6, 7],
    }

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("name", ["thermal", "coherent", "mixed"])
    def test_batch_matches_one_trace_at_a_time(self, name, noise):
        shipped = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
        raw = json.loads(shipped.read_text())
        if noise:
            raw = dict(raw, noise=noise, seed=1)
        dataset = simulate_sweep(SweepConfig.from_dict(raw))
        calibration = run_calibration(dataset)
        sweeps = [point.sweep for point in dataset.records]
        with warnings.catch_warnings(record=True) as caught_batch:
            warnings.simplefilter("always")
            batch = fit_measurements(sweeps, calibration)
        with warnings.catch_warnings(record=True) as caught_alone:
            warnings.simplefilter("always")
            alone = [fit_measurements([sweep], calibration)[0] for sweep in sweeps]
        for (mu, sigma, fit), (mu1, sigma1, fit1) in zip(batch, alone, strict=True):
            assert mu == pytest.approx(mu1, rel=1e-9, abs=0)
            assert sigma == pytest.approx(sigma1, rel=1e-9, abs=0)
            assert fit.residual_norm == pytest.approx(fit1.residual_norm, rel=1e-9, abs=0)
            assert (fit.n_iter, fit.converged) == (fit1.n_iter, fit1.converged)
        assert [w.category for w in caught_batch] == [w.category for w in caught_alone]
        assert [fit.n_iter for _, _, fit in batch] == self.N_ITER[name, noise]

    @staticmethod
    def decay_problem(data, t):
        """evaluate of y = a exp(-b t) per batch row, the residual and the
        Jacobian stacked as the real and (zero) imaginary parts of a complex
        trace, and a log of the rows and points of every call."""
        log = []

        def evaluate(X, rows):
            log.append((list(rows), X.copy()))
            e = np.exp(-X[:, 1:] * t)
            r = X[:, :1] * e - data[rows]
            jac = np.stack([e, -X[:, :1] * t * e], axis=-1)
            return np.concatenate([r, 0.0 * r], axis=1), np.concatenate([jac, 0.0 * jac], axis=1)

        return evaluate, log

    DECAY_T = np.linspace(0.0, 4.0, 30)
    DECAY_TRUTH = np.array([[2.0, 0.5], [1.0, 1.5], [3.0, 0.2]])
    DECAY_START = np.array([[2.0, 0.5], [0.1, 8.0], [2.5, 0.3]])

    def decay_data(self):
        rng = np.random.default_rng(7)
        t, truth = self.DECAY_T, self.DECAY_TRUTH
        return truth[:, :1] * np.exp(-truth[:, 1:] * t) + rng.normal(0, 1e-3, (3, t.size))

    def test_rows_finish_at_their_own_iteration(self):
        # three rows that stop after 3, 9 and 5 iterations, the middle one
        # after rejected steps that raised its damping: a row that has
        # stopped is no longer evaluated until the polish, and each row ends
        # where a single least_squares fit of it ends, in as many iterations
        from bolostat.fitkit import _lm

        t, x0, data = self.DECAY_T, self.DECAY_START, self.decay_data()
        lo, hi = np.array([0.0, 0.0]), np.array([10.0, 10.0])
        evaluate, log = self.decay_problem(data, t)
        fits, failures = _lm(evaluate, x0, lo, hi, np.ones(2), ("a", "b"), 200)
        assert failures == [None, None, None]
        assert [fit.n_iter for fit in fits] == [3, 9, 5]
        assert all(fit.converged for fit in fits)
        *steps, (polished, _) = log
        assert polished == [0, 1, 2]
        evaluated = [sum(k in rows for rows, _ in steps) for k in range(3)]
        assert evaluated[1] > fits[1].n_iter + 2  # rejected steps
        # the start and at most one trial per iteration: rows 0 and 2 are
        # not evaluated in the iterations after they stopped
        assert evaluated[0] <= fits[0].n_iter + 1 and evaluated[2] <= fits[2].n_iter + 1
        for k, fit in enumerate(fits):
            alone = least_squares(
                lambda p, f: p[0] * np.exp(-p[1] * f) + 0j,
                ComplexSweep(t, data[k] + 0j),
                init=x0[k],
                bounds=(lo, hi),
                scales=np.ones(2),
                jac=lambda p, f: np.stack([np.exp(-p[1] * f), -p[0] * f * np.exp(-p[1] * f)], -1) + 0j,
            )
            np.testing.assert_array_equal(fit.params, alone.params)
            assert (fit.n_iter, fit.residual_norm) == (alone.n_iter, alone.residual_norm)

    def test_one_evaluation_per_trial_point(self, monkeypatch):
        # the start, every trial step and the polish step each make one
        # evaluate call, which returns the residual and the Jacobian
        # together; a row keeps the Jacobian of the point it accepts, so no
        # row is evaluated twice at the same point
        import bolostat.fitkit as fk

        real_solve, solves = fk._solve_rows, []

        def counted_solve(M, b):
            x = real_solve(M, b)
            solves.append(bool(np.isfinite(x).all(axis=1).any()))
            return x

        monkeypatch.setattr(fk, "_solve_rows", counted_solve)
        x0 = self.DECAY_START
        evaluate, log = self.decay_problem(self.decay_data(), self.DECAY_T)
        fits, _ = fk._lm(evaluate, x0, [0.0, 0.0], [10.0, 10.0], np.ones(2), ("a", "b"), 200)
        assert all(solves)  # each trial (and the polish) solved, then evaluated once
        assert len(log) == 1 + len(solves)
        rows, X = log[0]
        assert rows == [0, 1, 2]
        np.testing.assert_array_equal(X, x0)
        for k in range(3):
            points = [tuple(X[list(rows).index(k)]) for rows, X in log if k in rows]
            assert len(points) == len(set(points))

    def test_singular_and_pinned_rows_leave_the_others_alone(self):
        # row 1's flat column is interior: it stops at its start with the
        # singularity named; row 2's flat column is pinned at its bound, so
        # it only leaves that row's solve; row 0 is fitted as alone
        from bolostat.fitkit import _lm

        t = np.linspace(0.0, 1.0, 20)
        data = np.array([0.5 + 2.0 * t, 1.0 + t, 3.0 + 0.0 * t])

        def evaluate(X, rows):
            jac = np.stack([np.ones((len(rows), t.size)), np.broadcast_to(t, (len(rows), t.size))], -1)
            jac[np.asarray(rows) > 0, :, 1] = 0.0
            return X[:, :1] + X[:, 1:] * t - data[rows], jac

        x0 = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        lo, hi = np.array([-10.0, 0.0]), np.array([10.0, 10.0])
        fits, failures = _lm(evaluate, x0, lo, hi, np.ones(2), ("p0", "p1"), 50)
        assert failures[0] is None and failures[2] is None
        assert "degenerate directions: p1" in failures[1]
        assert not fits[1].converged and fits[1].n_iter == 1
        np.testing.assert_array_equal(fits[1].params, x0[1])
        assert fits[0].converged and fits[2].converged
        np.testing.assert_allclose(fits[0].params, [0.5, 2.0], rtol=1e-10)
        assert fits[2].params[1] == 0.0
        assert fits[2].params[0] == pytest.approx(3.0, rel=1e-12)

    def test_traces_must_share_one_grid(self):
        _, calib = base_calibration()
        sweep = synth_sweep(522e6, 1e6)
        coarse = ComplexSweep(sweep.freqs[::2], sweep.values[::2])
        with pytest.raises(ValueError, match="one probe grid"):
            fit_measurements([sweep, coarse], calib)
