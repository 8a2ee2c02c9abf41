import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bolostat import (
    PARAM_NAMES,
    BackgroundParams,
    FreqDistribution,
    LineParams,
    ResonatorParams,
    averaged_reflection,
    averaged_reflection_gh,
    averaged_reflection_mc,
    background_transfer,
    bare_reflection,
    full_chain_response,
)

from bolostat.fitkit import _default_bounds
from bolostat.response import (
    PHASE_NAMES,
    _bare_grid,
    _chain_jacobian,
    _chain_model,
    _line,
    _line_jacobian,
)
from bolostat.specfun import _erfcx_jet

from conftest import (
    CHAIN_TRUE,
    GAMMA,
    GAMMA_C,
    MU,
    PROBE_GRID,
    chain_parts,
    complex_jacobian,
    perturb_vector,
)

RES = ResonatorParams(f_r=MU, gamma_c=GAMMA_C, gamma=GAMMA, phi=0.0)


class TestBareReflection:
    def test_on_resonance_depth(self):
        # 1 - 2 gamma_c / gamma
        np.testing.assert_allclose(
            bare_reflection(RES, MU), 1 - 2 * GAMMA_C / GAMMA, rtol=1e-15
        )
        np.testing.assert_allclose(bare_reflection(RES, MU), 0.4866, atol=5e-5)

    def test_far_detuned_limit(self):
        val = bare_reflection(RES, MU + 1e12)
        assert abs(val - 1.0) < 1e-4

    def test_trace_lies_on_circle_through_unity(self):
        # phi = 0: circle of diameter gamma_c/(gamma/2) through (1, 0)
        f = np.linspace(MU - 30e6, MU + 30e6, 101)
        z = bare_reflection(RES, f)
        center = 1 - GAMMA_C / GAMMA
        radius = GAMMA_C / GAMMA
        np.testing.assert_allclose(np.abs(z - center), radius, rtol=1e-12)

    def test_magnitude_bounded_when_undercoupled(self):
        f = np.linspace(MU - 50e6, MU + 50e6, 201)
        assert np.all(np.abs(bare_reflection(RES, f)) <= 1 + 1e-12)

    def test_overcoupled_minimum(self):
        res = ResonatorParams(f_r=MU, gamma_c=0.9 * GAMMA, gamma=GAMMA, phi=0.0)
        f = np.linspace(MU - 50e6, MU + 50e6, 2001)
        mags = np.abs(bare_reflection(res, f))
        np.testing.assert_allclose(mags.min(), abs(1 - 2 * 0.9), rtol=1e-6)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ResonatorParams(f_r=-1.0, gamma_c=1.0, gamma=2.0)
        with pytest.raises(ValueError):
            ResonatorParams(f_r=MU, gamma_c=3.0, gamma=2.0)


class TestAveragedReflection:
    def test_degenerate_sigma_equals_bare_line(self, probe_grid):
        dist = FreqDistribution(mu=MU - 1e6, sigma=0.0)
        expected = bare_reflection(
            ResonatorParams(f_r=MU - 1e6, gamma_c=GAMMA_C, gamma=GAMMA, phi=0.0),
            probe_grid,
        )
        np.testing.assert_array_equal(
            averaged_reflection(RES, dist, probe_grid), expected
        )

    def test_line_and_v_column_match_mpmath_down_to_zero_broadening(self):
        # the line is analytic in v down to 0: the value and v's column
        # agree with extended precision from sigma = 0 (the bare line)
        # through a few Hz to 2 MHz, on both sides of the |a| = 8c seam
        grid = np.concatenate([np.linspace(MU - 15e6, MU + 15e6, 31), MU + np.array([0.0, 1e3, 2e6])])
        a = GAMMA / 2 + 2j * np.pi * (MU - grid)
        sides = set()
        for sigma in (0.0, 1.5, 3.0, 300.0, 3e4, 2e5, 2e6):
            line, d_line = _line_jacobian(MU, sigma**2, GAMMA_C, 0.4, GAMMA, grid)
            np.testing.assert_array_equal(line, _line(MU, sigma**2, GAMMA_C, 0.4, GAMMA, grid))
            for k in range(grid.size):
                ref, ref_v = line_ref(complex(a[k]), sigma, GAMMA_C, 0.4)
                assert abs(line[k] - ref) <= 1e-12 * abs(ref), (sigma, grid[k])
                assert abs(d_line[1][k] - ref_v) <= 1e-12 * abs(ref_v), (sigma, grid[k])
            sides |= set(np.abs(a) > 8 * 2 * np.sqrt(2) * np.pi * sigma)
        assert sides == {True, False}

    @pytest.mark.parametrize("sigma_over_linewidth", [1e-3, 0.01, 0.1, 0.3])
    def test_matches_gauss_hermite_quadrature(self, sigma_over_linewidth, probe_grid):
        sigma = sigma_over_linewidth * GAMMA / (2 * np.pi)
        dist = FreqDistribution(mu=MU, sigma=sigma)
        closed = averaged_reflection(RES, dist, probe_grid)
        quad = averaged_reflection_gh(RES, dist, probe_grid, n_nodes=64)
        np.testing.assert_allclose(closed, quad, rtol=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="64-node Gauss-Hermite cannot converge past sigma ~ 0.3 linewidths: "
        "the integrand pole sits gamma/(4*sqrt(2)*pi*sigma) strip units from the "
        "node line, bounding the quadrature error near exp(-2*d*sqrt(129)) "
        "(~1e-5 at sigma/linewidth = 0.67); the closed form is the accurate side, "
        "verified against converged quadrature elsewhere.",
    )
    def test_matches_64_node_quadrature_up_to_ten_linewidths(self, probe_grid):
        for ratio in (1e-3, 0.1, 1.0, 10.0):
            sigma = ratio * GAMMA / (2 * np.pi)
            dist = FreqDistribution(mu=MU, sigma=sigma)
            closed = averaged_reflection(RES, dist, probe_grid)
            quad = averaged_reflection_gh(RES, dist, probe_grid, n_nodes=64)
            np.testing.assert_allclose(closed, quad, rtol=1e-9)

    def test_matches_converged_quadrature_at_large_sigma(self, probe_grid):
        # with enough nodes the quadrature does confirm the closed form
        # even for broad distributions
        dist = FreqDistribution(mu=MU, sigma=2e6)
        closed = averaged_reflection(RES, dist, probe_grid)
        quad = averaged_reflection_gh(RES, dist, probe_grid, n_nodes=300)
        np.testing.assert_allclose(closed, quad, rtol=1e-8)

    def test_matches_monte_carlo(self, probe_grid):
        dist = FreqDistribution(mu=MU, sigma=0.5e6)
        closed = averaged_reflection(RES, dist, probe_grid)
        mc = averaged_reflection_mc(RES, dist, probe_grid, n_samples=200_000, seed=1)
        assert np.max(np.abs(mc - closed) / np.abs(closed)) < 3e-3


class TestMonteCarloOracle:
    def test_zero_sigma_any_seed_is_bare(self):
        dist = FreqDistribution(mu=MU, sigma=0.0)
        for seed in (0, 99):
            val = averaged_reflection_mc(RES, dist, MU + 2e6, n_samples=10, seed=seed)
            expected = bare_reflection(
                ResonatorParams(MU, GAMMA_C, GAMMA, 0.0), MU + 2e6
            )
            np.testing.assert_allclose(val, expected, rtol=1e-15)

    def test_single_sample_is_bare_line_at_the_draw(self):
        dist = FreqDistribution(mu=MU, sigma=1e6)
        rng = np.random.Generator(np.random.Philox(42))
        f_r = rng.normal(MU, 1e6)
        expected = bare_reflection(
            ResonatorParams(f_r, GAMMA_C, GAMMA, 0.0), MU
        )
        np.testing.assert_allclose(
            averaged_reflection_mc(RES, dist, MU, n_samples=1, seed=42), expected
        )

    def test_same_seed_reproduces(self, probe_grid):
        dist = FreqDistribution(mu=MU, sigma=1e6)
        a = averaged_reflection_mc(RES, dist, probe_grid, n_samples=5000, seed=7)
        b = averaged_reflection_mc(RES, dist, probe_grid, n_samples=5000, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_chunking_does_not_change_the_result(self):
        dist = FreqDistribution(mu=MU, sigma=1e6)
        a = averaged_reflection_mc(RES, dist, MU, n_samples=5000, seed=3, chunk=5000)
        b = averaged_reflection_mc(RES, dist, MU, n_samples=5000, seed=3, chunk=7)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.4])
    def test_real_sums_match_complex_grid(self, phi):
        # the oracle sums the real and imaginary parts of 1/(a + ib); the
        # reference averages the complex bare line over the same draws
        res = ResonatorParams(f_r=MU, gamma_c=GAMMA_C, gamma=GAMMA, phi=phi)
        dist = FreqDistribution(mu=MU, sigma=0.5e6)
        grid = np.linspace(MU - 15e6, MU + 15e6, 201)
        rng = np.random.Generator(np.random.Philox(11))
        expected = sum(
            _bare_grid(res, rng.normal(MU, 0.5e6, 20_000), grid).sum(axis=0) for _ in range(5)
        ) / 100_000
        mc = averaged_reflection_mc(res, dist, grid, n_samples=100_000, seed=11)
        np.testing.assert_allclose(mc, expected, rtol=1e-13, atol=0)

    def test_rejects_empty_sample_budget(self):
        with pytest.raises(ValueError):
            averaged_reflection_mc(RES, FreqDistribution(MU, 1e6), MU, 0, seed=0)


class TestBackgroundTransfer:
    BG = BackgroundParams(s_b=0.9, f_b=531e6, gamma_bc=2e6, gamma_b=40e6, phi_b=0.0)

    def test_no_resonance_reduces_to_scale(self, probe_grid):
        bg = BackgroundParams(s_b=0.77, f_b=531e6, gamma_bc=0.0, gamma_b=40e6, phi_b=1.0)
        np.testing.assert_array_equal(
            background_transfer(bg, probe_grid), np.full(probe_grid.size, 0.77 + 0j)
        )

    def test_on_resonance_value(self):
        val = background_transfer(self.BG, 531e6)
        np.testing.assert_allclose(val, 0.9 + 2 * 2e6 / 40e6, rtol=1e-15)


class TestFullChain:
    DIST = FreqDistribution(mu=MU, sigma=0.5e6)

    def test_identity_background_is_bitwise_averaged_line(self, probe_grid):
        bg = BackgroundParams(s_b=1.0, f_b=531e6, gamma_bc=0.0, gamma_b=40e6, phi_b=0.3)
        line = LineParams(tau=0.0, varphi=0.0)
        full = full_chain_response(RES, self.DIST, bg, line, probe_grid)
        avg = averaged_reflection(RES, self.DIST, probe_grid)
        np.testing.assert_array_equal(full, avg)

    def test_delay_phase_advances_linearly(self):
        bg = BackgroundParams(s_b=1.0, f_b=531e6, gamma_bc=0.0, gamma_b=40e6)
        f_p = 520e6
        ref = full_chain_response(RES, self.DIST, bg, LineParams(tau=0.0), f_p)
        # phase slope in tau is f_p (no 2*pi factor in the delay convention)
        for tau in (1e-10, 5e-10, 2e-9):
            val = full_chain_response(RES, self.DIST, bg, LineParams(tau=tau), f_p)
            np.testing.assert_allclose(np.angle(val / ref), f_p * tau, rtol=1e-9)

    def test_raw_vector_model_is_bitwise_the_dataclass_model(self, probe_grid):
        # the fits and the synthesis run on _chain_model; it must be the same
        # expression as full_chain_response, from v = 0 up to sigma = 3 MHz
        rng = np.random.default_rng(23)
        at = {name: i for i, name in enumerate(PARAM_NAMES)}
        for k in range(20):
            x = perturb_vector(CHAIN_TRUE.vector(MU, 0.0), rng, 30e6, frac=0.3)
            for name in PHASE_NAMES:
                x[at[name]] = rng.uniform(-np.pi, np.pi)
            # a square, so that the dataclass's sigma = sqrt(v) squares back to v
            x[at["v"]] = 0.0 if k % 5 == 0 else (10 ** rng.uniform(-3, 6.5)) ** 2
            np.testing.assert_array_equal(
                _chain_model(x, probe_grid), full_chain_response(*chain_parts(x), probe_grid)
            )


AT = {name: i for i, name in enumerate(PARAM_NAMES)}


def fd_steps(x, f_p):
    """Central-difference step per parameter, 1e-5 of its natural size."""
    widths = dict(
        mu=x[AT["gamma"]] / (2 * np.pi),
        f_b=x[AT["gamma_b"]] / (2 * np.pi),
        tau=1.0 / np.max(np.abs(f_p)),  # one radian of delay phase
    )
    return np.array([
        1e-5 * widths.get(name, 1.0 if name in PHASE_NAMES else abs(x[i]))
        for i, name in enumerate(PARAM_NAMES)
    ])


def central_differences(x, f_p):
    """Central-difference columns of _chain_model's Jacobian, with a roundoff
    bound each; v's column by the heat equation, since a difference in v
    cannot step below v = 0."""
    steps = fd_steps(x, f_p)
    eps = np.finfo(float).eps * np.max(np.abs(_chain_model(x, f_p)))
    cols, slack = [], []
    for i in range(len(PARAM_NAMES)):
        if PARAM_NAMES[i] == "v":
            col, bound = v_by_heat_equation(x, f_p)
            cols.append(col)
            slack.append(bound)
            continue
        xp, xm = x.copy(), x.copy()
        xp[i] += steps[i]
        xm[i] -= steps[i]
        # the step as represented: x + h rounds at large |x| (mu, f_b)
        h2 = xp[i] - xm[i]
        cols.append((_chain_model(xp, f_p) - _chain_model(xm, f_p)) / h2)
        slack.append(16 * eps / h2)
    return np.column_stack(cols), np.array(slack)


def v_by_heat_equation(x, f_p):
    """dS/dv = d^2S/dmu^2 / 2 (the Gaussian average solves the heat
    equation), as a second difference in mu, with its roundoff bound."""
    s0 = _chain_model(x, f_p)
    eps = np.finfo(float).eps * np.max(np.abs(s0))
    # well inside the narrowest feature: the fourth-order term stays below
    # 1e-7 of the second-order one
    h = 3e-4 * x[AT["gamma"]] / (2 * np.pi)
    at = AT["mu"]
    xp, xm = x.copy(), x.copy()
    xp[at] += h
    xm[at] -= h
    hp, hm = xp[at] - x[at], x[at] - xm[at]
    d2 = 2 * ((_chain_model(xp, f_p) - s0) / hp - (s0 - _chain_model(xm, f_p)) / hm) / (hp + hm)
    return 0.5 * d2, 8 * eps / (hp * hm)


def line_ref(a, sigma, gamma_c, phi):
    """The averaged line and its v-derivative at a = gamma/2 + 2 pi i (mu - f_p)
    in extended precision: 1 - e^{i phi} gamma_c M with M = sqrt(pi)
    erfcx(a/c)/c, c = 2 sqrt(2) pi sigma, and dM/dv = -2 pi^2 d^2M/da^2 by
    the heat equation; at sigma = 0, M = 1/a and dM/dv = -4 pi^2/a^3."""
    with mp.workdps(40):
        a = mp.mpc(a)
        if sigma == 0:
            m, dm_dv = 1 / a, -4 * mp.pi**2 / a**3
        else:
            c = 2 * mp.sqrt(2) * mp.pi * mp.mpf(sigma)
            z = a / c
            # erfcx'' = (2 + 4 z^2) erfcx - 4 z/sqrt(pi) cancels about two
            # digits per decade of |z|
            with mp.workdps(40 + math.ceil(2 * math.log10(max(abs(z), 1.0)))):
                w = mp.exp(z * z) * mp.erfc(z)
                m = mp.sqrt(mp.pi) * w / c
                d2w = (2 + 4 * z * z) * w - 4 * z / mp.sqrt(mp.pi)
                dm_dv = -2 * mp.pi**2 * mp.sqrt(mp.pi) * d2w / c**3
        p = mp.exp(1j * mp.mpf(phi)) * gamma_c
        return complex(1 - p * m), complex(-p * dm_dv)


def g_ref(z):
    """(1 + 2 z^2) erfcx(z) - 2 z / sqrt(pi) and erfcx'(z) in extended precision.

    As in `test_specfun.erfcx_ref`, two digits per decade of |z| keep the
    phase of exp(z^2); the two differences cancel up to four more per decade.
    """
    digits = 30 + math.ceil(6 * math.log10(max(abs(z), 1.0)))
    with mp.workdps(digits):
        z = mp.mpc(z)
        w = mp.exp(z * z) * mp.erfc(z)
        two_over_sqrt_pi = 2 / mp.sqrt(mp.pi)
        return (
            complex((1 + 2 * z * z) * w - z * two_over_sqrt_pi),
            complex(2 * z * w - two_over_sqrt_pi),
        )


class TestChainJacobian:
    # the fit grid of acceptance criterion 3
    FREQS = np.linspace(500e6, 545e6, 451)

    @pytest.mark.parametrize("sigma", [0.3e6, 0.9e6, 1.8e6, 2.8e6])
    def test_columns_match_central_differences_on_criterion_3_grid(self, sigma):
        for mu in np.linspace(510e6, 530e6, 5):
            x = CHAIN_TRUE.vector(mu, sigma**2)
            jac = complex_jacobian(x, self.FREQS)
            ref, _ = central_differences(x, self.FREQS)
            err = np.max(np.abs(jac - ref), axis=0)
            scale = np.max(np.abs(jac), axis=0)
            worst = int(np.argmax(err / scale))
            assert np.all(err <= 1e-6 * scale), (
                f"{PARAM_NAMES[worst]}: relative difference {err[worst] / scale[worst]:.2e}"
            )

    @settings(max_examples=60, deadline=None)
    @given(
        unit=st.lists(st.floats(0.0, 1.0), min_size=len(PARAM_NAMES), max_size=len(PARAM_NAMES)),
        zero=st.booleans(),
    )
    def test_columns_match_differences_inside_the_fit_box(self, unit, zero):
        # rates and scales log-uniform, frequencies, phases and delay
        # uniform, inside the box the staged fits search; v at its lower
        # bound 0, or sigma = sqrt(v) log-uniform from 1 mHz to the box top
        lo, hi = _default_bounds(PROBE_GRID, GAMMA)
        x = np.empty(len(PARAM_NAMES))
        for i, name in enumerate(PARAM_NAMES):
            if name in PHASE_NAMES:
                x[i] = np.pi * (2 * unit[i] - 1)
            elif name in ("mu", "f_b", "tau"):
                x[i] = lo[i] + unit[i] * (hi[i] - lo[i])
            elif name == "v":
                x[i] = 0.0 if zero else (1e-3 * (np.sqrt(hi[i]) / 1e-3) ** unit[i]) ** 2
            else:
                x[i] = lo[i] * (hi[i] / lo[i]) ** unit[i]
        f_p = PROBE_GRID[::10]
        jac = complex_jacobian(x, f_p)
        ref, slack = central_differences(x, f_p)
        for i, name in enumerate(PARAM_NAMES):
            scale = np.max(np.abs(jac[:, i]))
            err = np.max(np.abs(jac[:, i] - ref[:, i]))
            assert err <= 1e-6 * scale + slack[i], (
                f"{name}: |analytic - difference| = {err:.3e}, column max {scale:.3e}"
            )

    def test_sigma_factor_and_erfcx_derivative_match_mpmath(self):
        # 0.1 <= |z| <= 1e6 over the right half-plane the line lives in,
        # dense on both sides of the switch to the asymptotic series at |z| = 8
        rng = np.random.default_rng(41)
        radius = np.concatenate([10 ** rng.uniform(-1, 6, 300), rng.uniform(6, 10, 100)])
        z = radius * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2, radius.size))
        _, dw, g = _erfcx_jet(z)
        for k in range(z.size):
            ref_g, ref_dw = g_ref(complex(z[k]))
            assert abs(g[k] - ref_g) <= 1e-10 * abs(ref_g), z[k]
            assert abs(dw[k] - ref_dw) <= 1e-10 * abs(ref_dw), z[k]

    def test_v_column_at_zero_matches_a_one_sided_difference(self, probe_grid):
        # at v = 0, the lower bound, the column is the right derivative: a
        # forward difference in v, and half the second difference of the
        # bare line in mu; it is not zero, so a fit can leave the bound
        line = (MU, 0.0, GAMMA_C, 0.4, GAMMA)
        value, d_zero = _line_jacobian(*line, probe_grid)
        h = 1e6  # (1 kHz)^2
        forward = (_line(MU, h, *line[2:], probe_grid) - value) / h
        np.testing.assert_allclose(d_zero[1], forward, rtol=1e-5)
        h = 1e3
        d2 = (
            _line(MU + h, 0.0, *line[2:], probe_grid)
            - 2 * value
            + _line(MU - h, 0.0, *line[2:], probe_grid)
        ) / h**2
        np.testing.assert_allclose(d_zero[1], 0.5 * d2, rtol=1e-5)
        assert np.all(np.abs(d_zero[1]) > 0)
        # and the column is continuous in v from 0
        _, d_above = _line_jacobian(MU, 1.0, *line[2:], probe_grid)
        np.testing.assert_allclose(d_above[1], d_zero[1], rtol=1e-8)


class TestBatchedChain:
    def test_rows_are_bitwise_the_single_vector_calls(self, probe_grid):
        # a (B, 12) batch with rows at v = 0 and above, and points on both
        # sides of the |a| = 8c seam: each row of the model and of the
        # Jacobian is the call on that row alone, and the value that comes
        # with the Jacobian is the model's, bitwise
        rows = [
            CHAIN_TRUE.vector(MU, sigma**2)
            for sigma in (0.0, 1.5, 3.0, 1e3, 0.4e6, 2.8e6)
        ]
        span = probe_grid[-1] - probe_grid[0]
        rows.append(perturb_vector(CHAIN_TRUE.vector(515e6, 1.1e6**2), np.random.default_rng(3), span))
        x = np.array(rows)
        every = range(len(PARAM_NAMES))
        model, (value, jac) = _chain_model(x, probe_grid), _chain_jacobian(x, probe_grid, every)
        assert model.shape == (len(rows), probe_grid.size)
        assert jac.shape == (len(rows), 2 * probe_grid.size, len(PARAM_NAMES))
        np.testing.assert_array_equal(value, model)
        for k, row in enumerate(rows):
            np.testing.assert_array_equal(model[k], _chain_model(row, probe_grid))
            np.testing.assert_array_equal(jac[k], _chain_jacobian(row, probe_grid, every)[1])
            # a batch of one row is the row, with the batch axis kept
            one_value, one_jac = _chain_jacobian(x[k : k + 1], probe_grid, every)
            np.testing.assert_array_equal(_chain_model(x[k : k + 1], probe_grid), model[k : k + 1])
            np.testing.assert_array_equal(one_value, model[k : k + 1])
            np.testing.assert_array_equal(one_jac, jac[k : k + 1])
