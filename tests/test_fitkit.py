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
    SweepConfig,
    circle_fit,
    extract_statistics,
    fit_base_calibration,
    fit_measurements,
    least_squares,
    run_calibration,
    simulate_sweep,
)
from bolostat.fitkit import (
    FROZEN_PARAM_NAMES,
    MEASUREMENT_PARAM_NAMES,
    PARAM_NAMES,
    _chain_model,
    _default_bounds,
    _measurement_starts,
    _phase_jacobian,
    _phase_model,
    wrap_angle,
)
from bolostat.response import (
    _BACKGROUND,
    _DELAY,
    _LINE,
    _LINE_NAMES,
    _background,
    _delay,
    _line,
)

from conftest import (
    CHAIN_TRUE,
    GAMMA,
    GAMMA_C,
    MU,
    PROBE_GRID,
    bare_line,
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


@pytest.mark.parametrize(
    "freqs,values,message",
    [
        (np.zeros((2, 5)), np.ones((2, 5)), "one-dimensional"),
        (np.linspace(0.0, 1.0, 10), np.ones(9), "^length mismatch: 10 freqs vs 9 values$"),
        (np.array([0.0, 1.0, 1.0, 2.0]), np.ones(4), "strictly increasing"),
    ],
    ids=["2d", "length", "not-increasing"],
)
def test_complex_sweep_rejects_a_malformed_grid(freqs, values, message):
    with pytest.raises(ValueError, match=message):
        ComplexSweep(freqs, values)


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

    def test_residual_non_increasing_over_accepted_steps(self, monkeypatch):
        import bolostat.fitkit as fk

        sweep = synth_sweep(523e6, 0.8e6)
        rng = np.random.default_rng(4)
        init = perturbed_model(CHAIN_TRUE, 523e6, 0.8e6, rng, PROBE_GRID[-1] - PROBE_GRID[0])
        lo, hi = _default_bounds(PROBE_GRID, gamma_scale=GAMMA)
        kwargs = dict(init=np.clip(init, lo, hi), bounds=(lo, hi), jac=chain_jac)
        fit = least_squares(_chain_model, sweep, **kwargs)
        assert fit.n_iter >= 3
        # a fit capped at k iterations returns its k-th accepted point
        history = []
        for k in range(1, fit.n_iter):
            monkeypatch.setattr(fk, "_MAX_ITER", k)
            history.append(least_squares(_chain_model, sweep, **kwargs).residual_norm)
        history.append(fit.residual_norm)
        assert all(b <= a * (1 + 1e-12) for a, b in zip(history, history[1:]))

    def test_iteration_cap_reports_not_converged(self, monkeypatch):
        import bolostat.fitkit as fk

        monkeypatch.setattr(fk, "_MAX_ITER", 2)
        sweep = synth_sweep(523e6, 0.8e6)
        rng = np.random.default_rng(4)
        init = perturbed_model(CHAIN_TRUE, 523e6, 0.8e6, rng, PROBE_GRID[-1] - PROBE_GRID[0])
        lo, hi = _default_bounds(PROBE_GRID, gamma_scale=GAMMA)
        res = least_squares(
            _chain_model,
            sweep,
            init=np.clip(init, lo, hi),
            bounds=(lo, hi),
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

    def test_collinear_columns_give_no_covariance(self):
        # the third column, 0.3 - 1.7 f, is a combination of the other two:
        # no column is flat, so the fit runs and converges, but its normal
        # equations are singular to working precision, and an inverse of
        # them would be an indefinite "covariance" with entries of 5e9
        rng = np.random.default_rng(0)
        f = np.linspace(0.0, 5.0, 40)
        sweep = ComplexSweep(f, (1.3 * f - 0.7 + rng.normal(0, 0.05, f.size)).astype(complex))
        design = np.column_stack([np.ones_like(f), f, 0.3 - 1.7 * f]).astype(complex)
        res = least_squares(lambda p, f: design @ p, sweep, init=[0.0, 1.0, 0.0], jac=lambda p, f: design)
        assert res.converged
        assert res.covariance is None

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
            return np.abs(bare_line(p, f)).astype(complex)

        def mag_jac(p, f):
            # d|S|/dp = Re(conj(S) dS/dp) / |S|
            s = bare_line(p, f)
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
        sweep = ComplexSweep(PROBE_GRID, _line(MU, 0.0, GAMMA_C, 0.0, GAMMA, PROBE_GRID))
        fitted = circle_fit(sweep)
        np.testing.assert_allclose(fitted["mu"], MU, rtol=1e-3 * 1e-3)
        np.testing.assert_allclose(fitted["gamma_c"], GAMMA_C, rtol=1e-3)
        np.testing.assert_allclose(fitted["gamma"], GAMMA, rtol=1e-3)
        assert abs(fitted["phi"]) < 1e-3

    def test_asymmetric_line(self):
        sweep = ComplexSweep(PROBE_GRID, _line(MU, 0.0, GAMMA_C, 0.35, GAMMA, PROBE_GRID))
        fitted = circle_fit(sweep)
        np.testing.assert_allclose(fitted["phi"], 0.35, atol=1e-3)
        np.testing.assert_allclose(fitted["gamma_c"], GAMMA_C, rtol=1e-3)

    def test_overcoupled_branch(self):
        sweep = ComplexSweep(PROBE_GRID, _line(MU, 0.0, 0.9 * GAMMA, 0.0, GAMMA, PROBE_GRID))
        fitted = circle_fit(sweep)
        assert fitted["gamma_c"] > fitted["gamma"] / 2
        np.testing.assert_allclose(fitted["gamma_c"], 0.9 * GAMMA, rtol=1e-3)

    def test_agrees_with_full_least_squares(self):
        sweep = ComplexSweep(PROBE_GRID, bare_line([MU, GAMMA_C, GAMMA], PROBE_GRID))
        geo = circle_fit(sweep)
        direct = least_squares(
            bare_line,
            sweep,
            init=[MU * (1 + 2e-5), GAMMA_C * 1.05, GAMMA * 0.95],
            bounds=([PROBE_GRID[0], 1e3, 1e3], [PROBE_GRID[-1], 1e9, 1e9]),
            jac=bare_line_jacobian,
        )
        np.testing.assert_allclose(
            [geo["mu"], geo["gamma_c"], geo["gamma"]], direct.params, rtol=1e-3
        )

    def test_answer_is_the_line_at_v_zero(self):
        # the dict is `_line`'s scalars: it re-evaluates as the fitted bare line
        sweep = ComplexSweep(PROBE_GRID, _line(MU, 0.0, GAMMA_C, 0.35, GAMMA, PROBE_GRID))
        geo = circle_fit(sweep)
        assert tuple(geo) == _LINE_NAMES and geo["v"] == 0.0
        np.testing.assert_allclose(_line(**geo, f_p=PROBE_GRID), sweep.values, atol=1e-3)

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

    @pytest.mark.parametrize("gamma", [-GAMMA, 0.0], ids=["negated", "zero"])
    def test_start_with_non_positive_gamma_is_refused_before_fitting(self, gamma, monkeypatch):
        # its gamma sets the box's rate ranges, which it would invert
        import bolostat.fitkit as fk

        fits = []
        monkeypatch.setattr(fk, "_fit_free", lambda *args: fits.append(args))
        init = CHAIN_TRUE.vector(MU, 0.0)
        init[PARAM_NAMES.index("gamma")] = gamma
        with pytest.raises(ValueError, match="gamma"):
            fit_base_calibration(synth_sweep(MU, 0.0), init)
        assert fits == []

    def test_singular_stage_raises_naming_the_direction(self, monkeypatch):
        import bolostat.fitkit as fk

        real = fk._chain_jacobian

        def flat_phi(x, freqs, free, *out):
            value, J = real(x, freqs, free, *out)
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
        calib = fit_base_calibration(sweep, init)
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
        calib = fit_base_calibration(ComplexSweep(grid, values), init)
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
        # far above round-off, but it is the injected noise, not a misfit
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
        for mu_t, sigma_t in [(514e6, 0.3e6), (523e6, 1.5e6), (530e6, 2.8e6)]:
            sweep = synth_sweep(mu_t, sigma_t)
            mu, v, fit = fit_measurements([sweep], calib)[0]
            assert fit.converged
            assert abs(mu - mu_t) < 1e3
            assert abs(math.sqrt(v) / sigma_t - 1) < 0.01

    def test_heuristic_init_also_recovers(self):
        _, calib = base_calibration()
        sweep = synth_sweep(521e6, 1.1e6)
        mu, v, fit = fit_measurements([sweep], calib)[0]
        assert abs(mu - 521e6) < 1e3
        assert abs(math.sqrt(v) / 1.1e6 - 1) < 0.01

    def test_gamma_variation_within_box(self):
        # identifiability holds across total rates 10..30 us^-1
        for gamma in (10e6, 30e6):
            chain = replace(CHAIN_TRUE, gamma=gamma, gamma_c=0.25 * gamma)
            sweep_base = synth_sweep(MU, 0.1e6, chain=chain)
            rng = np.random.default_rng(3)
            init = perturbed_model(chain, MU, 0.1e6, rng, 30e6)
            calib = fit_base_calibration(sweep_base, init)
            sweep = synth_sweep(522e6, 1.0e6, chain=chain)
            mu, v, fit = fit_measurements([sweep], calib)[0]
            assert abs(mu - 522e6) < 1e3, gamma
            assert abs(math.sqrt(v) / 1.0e6 - 1) < 0.01, gamma

    def test_zero_broadening_fits_sigma_near_its_floor(self):
        # the floor is v = 0, where the line is the bare Lorentzian; the
        # exact line's fit ends on it or within round-off inside it, and is
        # flagged only on it (see the narrow-line test)
        _, calib = base_calibration()
        sweep = synth_sweep(522e6, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSigmaWarning)
            mu, v, fit = fit_measurements([sweep], calib)[0]
        assert math.sqrt(v) < 1.0 and fit.converged and fit.residual_norm < 1e-14
        assert abs(mu - 522e6) < 1e3

    def test_line_narrower_than_the_calibration_ends_on_the_v_bound(self):
        # a sigma = 0 trace whose gamma is 1% below the calibrated one is
        # narrower than the calibrated line at any v >= 0: descent pushes v
        # against its bound, so v's column leaves the solve there and the
        # other five converge, once flagged.  With v kept in the solve on
        # its bound, every step was clipped and the fit crawled to the cap.
        _, calib = base_calibration()
        x = calib.fit.params.copy()
        x[PARAM_NAMES.index("gamma")] *= 0.99
        x[PARAM_NAMES.index("mu")], x[PARAM_NAMES.index("v")] = 522e6, 0.0
        sweep = ComplexSweep(PROBE_GRID, _chain_model(x, PROBE_GRID))
        with pytest.warns(DegenerateSigmaWarning, match="v = 0") as caught:
            _, v, fit = fit_measurements([sweep], calib)[0]
        assert len(caught) == 1
        assert v == 0.0 and fit.converged and fit.n_iter <= 20

    def test_noise_robust_sigma(self):
        _, calib = base_calibration()
        sigma_t = 0.5e6
        hats = []
        for seed in range(25):
            sweep = synth_sweep(523e6, sigma_t, noise=0.01, seed=seed)
            _, v, _ = fit_measurements([sweep], calib)[0]
            hats.append(math.sqrt(v))
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
    # a tracer that wraps fitkit._lm sees every chain fit: the calibration
    # as one batch of one, then the measurement fits of the sweep as one
    # batch, each evaluating the chain model with its Jacobian
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

    def counted_chain(x, freqs, *free_out):
        calls[0] += 1
        return real_chain(x, freqs, *free_out)

    monkeypatch.setattr(fk, "_lm", counting_lm)
    monkeypatch.setattr(fk, "_chain_jacobian", counted_chain)
    shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
    dataset = simulate_sweep(SweepConfig.from_dict(json.loads(shipped.read_text())))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        extract_statistics(dataset)
    assert len(dataset.records) == 9
    assert batches == [1, 9]
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
        def call(x, freqs, *free_out):
            calls.append(inside[0])
            return real(x, freqs, *free_out)

        return call

    monkeypatch.setattr(fk, "_lm", flagged_lm)
    monkeypatch.setattr(fk, "_chain_model", counted(fk._chain_model))
    monkeypatch.setattr(fk, "_chain_jacobian", counted(fk._chain_jacobian))
    _, v, fit = fit_measurements([sweep], calibration)[0]
    gamma = calibration.fit.params[PARAM_NAMES.index("gamma")]
    lo, _ = _default_bounds(sweep.freqs, gamma_scale=gamma)
    assert v > lo[PARAM_NAMES.index("v")]
    assert calls and all(calls)


def stacked_free_columns(x, freqs, free):
    """The real Jacobian `_fit_free` hands `_lm` for one vector, built as the
    stacked complex columns: each column of the line, background and delay
    parts times its factor, the free ones taken out, real parts over
    imaginary parts."""
    x = np.asarray(x, dtype=float)
    delay = _delay(*x[_DELAY], freqs)
    background, d_background = _background(*x[_BACKGROUND], freqs, jet=True)
    line, d_line = _line(*x[_LINE], freqs, jet=True)
    frame = delay * background
    value = frame * line
    columns = (
        [d() * frame for d in d_line]
        + [d() * (delay * line) for d in d_background]
        + [d * value for d in (1j * freqs, 1j)]
    )
    Jc = np.stack(np.broadcast_arrays(*columns), axis=-1)[:, free]
    return np.concatenate([Jc.real, Jc.imag], axis=0)


def stopped_fit_free(monkeypatch, stage, row_sets, before=lambda: None, tau_steps=(0, 0, 0, 0)):
    """The (residual, Jacobian) pairs that `_fit_free`'s evaluate returns on
    a four-row batch with rows at v = 0 and above, and points on both sides
    of the |a| = 8c seam, called at the start points of each of
    ``row_sets`` in turn (after ``before()``) before its LM stops; and the
    starts, the free columns and the data.  Row k's start has its tau
    raised by ``tau_steps[k]`` percent."""
    import bolostat.fitkit as fk

    starts = np.array(
        [
            CHAIN_TRUE.vector(mu, sigma**2)
            for mu, sigma in ((MU, 0.0), (MU + 1e6, 0.3e6), (MU - 2e6, 0.0), (MU, 1.1e6))
        ]
    )
    starts[:, PARAM_NAMES.index("tau")] *= 1.0 + 0.01 * np.array(tau_steps)
    every = list(range(len(PARAM_NAMES)))
    free = every if stage == "calibration" else [PARAM_NAMES.index(n) for n in MEASUREMENT_PARAM_NAMES]
    data = np.repeat(_chain_model(CHAIN_TRUE.vector(MU, 0.4e6**2), PROBE_GRID)[None], len(starts), axis=0)
    seen = []

    def stopped(evaluate, x0, *args):
        before()
        seen.extend(evaluate(x0[rows], rows) for rows in row_sets)
        raise RuntimeError("stop after the evaluations")

    monkeypatch.setattr(fk, "_lm", stopped)
    with pytest.raises(RuntimeError, match="stop after"):
        fk._fit_free(PROBE_GRID, data, starts[0], starts, free)
    return seen, starts, free, data


@pytest.mark.parametrize("stage", ["calibration", "measurement"])
def test_lm_gets_the_stacked_free_columns_column_contiguous(monkeypatch, stage):
    # the Jacobian of every row of a batch with rows at v = 0 and above, and
    # points on both sides of the |a| = 8c seam, is bitwise the stacked
    # complex free columns, and each of its columns is contiguous: the
    # memory order the LM's BLAS calls were pinned with
    [(_, J)], starts, free, _ = stopped_fit_free(monkeypatch, stage, [[0, 1, 2, 3]])
    assert J.shape == (len(starts), 2 * PROBE_GRID.size, len(free))
    assert np.swapaxes(J, 1, 2).flags.c_contiguous
    assert (starts[:, PARAM_NAMES.index("v")] == 0.0).any()
    assert (starts[:, PARAM_NAMES.index("v")] > 0.0).any()
    for k, x in enumerate(starts):
        np.testing.assert_array_equal(J[k], stacked_free_columns(x, PROBE_GRID, free))


@pytest.mark.parametrize("stage", ["calibration", "measurement"])
def test_evaluations_of_one_fit_share_one_jacobian_buffer(monkeypatch, stage):
    # every evaluation of a `_fit_free` call writes its rows' Jacobian into
    # the first rows of one buffer, so a later one over fewer rows reuses
    # the memory of the first, and is still each row's own Jacobian
    seen, starts, free, _ = stopped_fit_free(monkeypatch, stage, [[0, 1, 2, 3], [1, 3]])
    (_, first), (_, second) = seen
    assert np.shares_memory(first, second)
    assert second.shape == (2, 2 * PROBE_GRID.size, len(free))
    for J, k in zip(second, [1, 3]):
        np.testing.assert_array_equal(J, stacked_free_columns(starts[k], PROBE_GRID, free))


@pytest.mark.parametrize(
    "stage,tau_steps,shape",
    [
        ("calibration", (0, 0, 0, 0), ()),
        ("measurement", (0, 0, 0, 0), ()),
        ("calibration", (0, 1, 2, 3), (4,)),
    ],
    ids=["calibration", "measurement", "calibration-delays-differ"],
)
def test_a_held_delay_is_formed_once_per_evaluation(monkeypatch, stage, tau_steps, shape):
    # rows that agree on tau and varphi, whether the fit holds them (a
    # measurement batch) or frees them (calibration starts that share
    # them), form the delay once per evaluation, on the probe grid alone;
    # starts whose delays differ form it per row.  The residual is bitwise
    # the model's either way.
    import bolostat.response as response

    real, shapes = response._delay, []

    def counted(*args, jet=False):
        out = real(*args, jet=jet)
        shapes.append((out[0] if jet else out).shape)
        return out

    [(r, _)], starts, _, data = stopped_fit_free(
        monkeypatch,
        stage,
        [[0, 1, 2, 3]],
        lambda: monkeypatch.setattr(response, "_delay", counted),
        tau_steps,
    )
    assert shapes == [shape + PROBE_GRID.shape]
    expected = _chain_model(starts, PROBE_GRID) - data
    np.testing.assert_array_equal(r, np.concatenate([expected.real, expected.imag], axis=1))


def noisy_base_dataset(seed):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
    raw = dict(json.loads(shipped.read_text()), noise=0.01, seed=seed)
    return simulate_sweep(SweepConfig.from_dict(raw))


@pytest.mark.parametrize("seed", [101, 303])
def test_noisy_calibration_leaves_the_sigma_floor_in_few_steps(monkeypatch, seed):
    # thermal base traces at noise 0.01 whose calibration, stepping in
    # sigma, took 17 iterations after rejected trials.  In the variance
    # coordinate v's column at v = 0 is L''/2 instead of sigma*L'' = 0, so
    # it is far from the dead-column threshold and the first steps are
    # accepted.
    import bolostat.fitkit as fk

    real_lm = fk._lm
    stages = []

    def recording(evaluate, x0, lo, hi, scales, names):
        costs = []

        def logged(X, rows):
            r, J = evaluate(X, rows)
            costs.append(float(np.sum(r * r)))
            return r, J

        fits, failures = real_lm(logged, x0, lo, hi, scales, names)
        stages.append((names, x0, np.broadcast_to(scales, x0.shape), costs, fits, evaluate))
        return fits, failures

    monkeypatch.setattr(fk, "_lm", recording)
    assert run_calibration(noisy_base_dataset(seed)).fit.converged
    [(names, x0, scales, costs, [fit], evaluate)] = stages  # the one calibration run
    assert names == tuple(PARAM_NAMES)
    assert fit.n_iter <= 8
    # the start, then every trial lowered the cost; the last call is the polish
    assert all(b < a for a, b in zip(costs[:-2], costs[1:-1]))
    # v's natural-scale column at the start, v = 0, is not near-dead
    assert x0[0, PARAM_NAMES.index("v")] == 0.0
    _, J = evaluate(x0, [0])
    col_nat = np.linalg.norm(J[0], axis=0) * scales[0]
    assert col_nat[PARAM_NAMES.index("v")] >= 1e-8 * col_nat.max()


@pytest.mark.parametrize("seed", [4, 13, 17])
def test_calibration_restarted_off_the_v_bound_returns_to_it(seed):
    # thermal base traces at noise 0.01 whose optimum has v on its bound:
    # restarted at sigma = 200 kHz, the fit reaches v = 0, where v's column
    # leaves the solve, and the other eleven converge there.  With v kept in
    # the solve on its bound, every step was clipped and the fit stopped at
    # 200 iterations, 1.4e-4 to 1.9e-4 above the optimum.
    dataset = noisy_base_dataset(seed)
    calibration = run_calibration(dataset)
    x = calibration.fit.params.copy()
    x[PARAM_NAMES.index("v")] = 2e5**2
    restarted = fit_base_calibration(dataset.base.sweep, x).fit
    assert restarted.converged and restarted.n_iter <= 20
    assert restarted.residual_norm**2 == pytest.approx(calibration.fit.residual_norm**2, rel=1e-10, abs=0)


def test_covariance_is_the_v_coordinate_one():
    # the fits step in v = sigma**2 and report their FitResults in v: the
    # covariance they return is the one formed from v's own Jacobian at the
    # returned point, and the returned broadening is that point's v
    dataset = noisy_base_dataset(1)
    calibration = run_calibration(dataset)
    sweeps = [point.sweep for point in dataset.records]
    freqs = sweeps[0].freqs
    free = [PARAM_NAMES.index(name) for name in MEASUREMENT_PARAM_NAMES]
    for sweep, (mu, v, fit) in zip(sweeps, fit_measurements(sweeps, calibration)):
        x = calibration.fit.params.copy()
        x[free] = fit.params
        assert (x[PARAM_NAMES.index("mu")], x[PARAM_NAMES.index("v")]) == (mu, v)
        jc = chain_jac(x, freqs)[:, free]
        J = np.concatenate([jc.real, jc.imag])
        expected = normalised_inverse_covariance(J, fit.residual_norm**2 * freqs.size)
        np.testing.assert_allclose(fit.covariance, expected, rtol=1e-12, atol=0)


def apparent_linewidth(freqs, values):
    """Full width of one trace's |trace| dip at half depth, in Hz."""
    mags = np.abs(values)
    edge = max(2, len(mags) // 8)
    baseline = 0.5 * (np.median(mags[:edge]) + np.median(mags[-edge:]))
    depth = baseline - mags.min()
    if depth <= 0:
        return float(freqs[-1] - freqs[0]) / 10.0
    below = mags <= baseline - 0.5 * depth
    if below.sum() < 2:
        return 2.0 * float(np.median(np.diff(freqs)))
    return float(freqs[below].max() - freqs[below].min())


def test_measurement_starts_are_read_trace_by_trace():
    # the starts of a sweep's traces are read in one pass over its (B, m)
    # data; each is bitwise the trace read alone: a noisy dip, a flat trace
    # (no depth) and a one-point dip
    dataset = noisy_base_dataset(4)
    values = [point.sweep.values for point in (dataset.base, *dataset.records)]
    flat = np.ones_like(values[0])
    spike = flat.copy()
    spike[7] = 0.5
    data = np.array(values + [flat, spike])
    freqs = dataset.base.sweep.freqs
    x = CHAIN_TRUE.vector(MU, 0.0)
    starts = _measurement_starts(freqs, data, x)
    for start, trace in zip(starts, data, strict=True):
        expected = x.copy()
        expected[PARAM_NAMES.index("mu")] = freqs[int(np.argmin(np.abs(trace)))]
        expected[PARAM_NAMES.index("v")] = (0.1 * apparent_linewidth(freqs, trace)) ** 2
        np.testing.assert_array_equal(start, expected)
    widths = [apparent_linewidth(freqs, trace) for trace in data[-2:]]
    assert widths == [float(freqs[-1] - freqs[0]) / 10.0, 2.0 * float(np.median(np.diff(freqs)))]


def normalised_inverse_covariance(J, cost):
    """inv(J^T J) cost/(m - n) for a real (m, n) J, with the inverse taken of
    the column-normalised normal equations: J's columns differ by many
    orders of magnitude, so the plain inv(J^T J) loses up to eight digits."""
    m, n = J.shape
    col = np.linalg.norm(J, axis=0)
    Js = J / col
    return np.linalg.inv(Js.T @ Js) / np.outer(col, col) * (cost / (m - n))


@pytest.mark.parametrize("stage", ["calibration", "measurement"])
def test_covariance_from_the_scaled_normal_equations_is_the_jacobians(stage):
    # the LM keeps each row's column-scaled normal equations, not its
    # Jacobian: the covariance it forms from them at the returned point is
    # inv(J^T J) cost/(m - n) of the Jacobian there, to round-off
    dataset = noisy_base_dataset(1)
    calibration = run_calibration(dataset)
    freqs = dataset.base.sweep.freqs
    if stage == "calibration":
        cases = [(calibration.fit.params, list(range(len(PARAM_NAMES))), calibration.fit)]
    else:
        free = [PARAM_NAMES.index(name) for name in MEASUREMENT_PARAM_NAMES]
        cases = []
        for _, _, fit in fit_measurements([p.sweep for p in dataset.records], calibration):
            x = calibration.fit.params.copy()
            x[free] = fit.params
            cases.append((x, free, fit))
    for x, free, fit in cases:
        jc = chain_jac(x, freqs)[:, free]
        J = np.concatenate([jc.real, jc.imag])
        expected = normalised_inverse_covariance(J, fit.residual_norm**2 * freqs.size)
        np.testing.assert_allclose(fit.covariance, expected, rtol=1e-12, atol=0)


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
        for (mu, v, fit), (mu1, v1, fit1) in zip(batch, alone, strict=True):
            assert mu == pytest.approx(mu1, rel=1e-9, abs=0)
            assert v == pytest.approx(v1, rel=1e-9, abs=0)
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
        fits, failures = _lm(evaluate, x0, lo, hi, np.abs(x0), ("a", "b"))
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
                jac=lambda p, f: np.stack([np.exp(-p[1] * f), -p[0] * f * np.exp(-p[1] * f)], -1) + 0j,
            )
            np.testing.assert_array_equal(fit.params, alone.params)
            assert (fit.n_iter, fit.residual_norm) == (alone.n_iter, alone.residual_norm)

    def test_one_evaluation_per_trial_point(self, monkeypatch):
        # the start, every trial step and the polish step each make one
        # evaluate call, which returns the residual and the Jacobian
        # together; a row keeps the normal equations of the point it
        # accepts, so no row is evaluated twice at the same point
        import bolostat.fitkit as fk

        real_solve, solves = fk._solve_rows, []

        def counted_solve(M, b):
            x = real_solve(M, b)
            solves.append(bool(np.isfinite(x).all(axis=1).any()))
            return x

        monkeypatch.setattr(fk, "_solve_rows", counted_solve)
        x0 = self.DECAY_START
        evaluate, log = self.decay_problem(self.decay_data(), self.DECAY_T)
        fits, _ = fk._lm(evaluate, x0, [0.0, 0.0], [10.0, 10.0], np.ones(2), ("a", "b"))
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
        # it only leaves that row's solve; row 3's every column is flat and
        # pinned, so its projected gradient is 0 and it converges where it
        # starts; row 0 is fitted as alone
        from bolostat.fitkit import _lm

        t = np.linspace(0.0, 1.0, 20)
        data = np.array([0.5 + 2.0 * t, 1.0 + t, 3.0 + 0.0 * t, 1.0 + 0.0 * t])

        def evaluate(X, rows):
            jac = np.stack([np.ones((len(rows), t.size)), np.broadcast_to(t, (len(rows), t.size))], -1)
            jac[np.asarray(rows) > 0, :, 1] = 0.0
            jac[np.asarray(rows) == 3] = 0.0
            return X[:, :1] + X[:, 1:] * t - data[rows], jac

        x0 = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [-10.0, 0.0]])
        lo, hi = np.array([-10.0, 0.0]), np.array([10.0, 10.0])
        fits, failures = _lm(evaluate, x0, lo, hi, np.ones(2), ("p0", "p1"))
        assert failures[0] is None and failures[2] is None and failures[3] is None
        assert fits[3].converged and fits[3].n_iter == 1 and fits[3].grad_norm == 0.0
        np.testing.assert_array_equal(fits[3].params, x0[3])
        assert "degenerate directions: p1" in failures[1]
        assert not fits[1].converged and fits[1].n_iter == 1
        np.testing.assert_array_equal(fits[1].params, x0[1])
        assert fits[0].converged and fits[2].converged
        np.testing.assert_allclose(fits[0].params, [0.5, 2.0], rtol=1e-10)
        assert fits[2].params[1] == 0.0
        assert fits[2].params[0] == pytest.approx(3.0, rel=1e-12)

    def test_no_fits_without_traces(self):
        _, calib = base_calibration()
        assert fit_measurements([], calib) == []

    def test_traces_must_share_one_grid(self):
        _, calib = base_calibration()
        sweep = synth_sweep(522e6, 1e6)
        coarse = ComplexSweep(sweep.freqs[::2], sweep.values[::2])
        with pytest.raises(ValueError, match="one probe grid"):
            fit_measurements([sweep, coarse], calib)
