import math

import numpy as np
import pytest

from bolostat import (
    InsufficientDataError,
    UndefinedStatisticError,
    beamsplitter_combine,
    broadening_to_variance,
    coherent_variance,
    flux_to_power,
    g2_zero,
    mixed_moments,
    mixed_moments_mc,
    planck_mean_photon,
    resolution_metrics,
    thermal_variance,
)
from scipy.constants import h, k


def test_planck_zero_temperature():
    assert planck_mean_photon(0.0, 8.428e9) == 0.0


def test_planck_past_the_range_of_expm1():
    # at 8.428 GHz, h f / k_B T passes expm1's range below about 0.58 mK,
    # and k_B T underflows to 0 below about 1.8e-301 K
    ns = [planck_mean_photon(T, 8.428e9) for T in (1e-3, 5e-4, 1e-4, 1e-310)]
    assert all(math.isfinite(n) and n >= 0.0 for n in ns)
    assert ns == sorted(ns, reverse=True)


def test_planck_reference_point():
    # 8.428 GHz at 1 K: hf/k_B = 0.40448 K -> <n> = 2.0059
    n = planck_mean_photon(1.0, 8.428e9)
    np.testing.assert_allclose(n, 2.00592399722, rtol=1e-9)
    assert abs(n - 2.01) < 0.01


def test_planck_unit_occupation_at_log2_point():
    f = 8.428e9
    T = h * f / (k * math.log(2.0))
    np.testing.assert_allclose(planck_mean_photon(T, f), 1.0, rtol=1e-12)


def test_planck_monotonic_and_classical_limit():
    f = 8.428e9
    temps = np.linspace(0.05, 3.0, 40)
    ns = [planck_mean_photon(t, f) for t in temps]
    assert np.all(np.diff(ns) > 0)
    freqs = np.linspace(4e9, 12e9, 20)
    ns_f = [planck_mean_photon(1.0, ff) for ff in freqs]
    assert np.all(np.diff(ns_f) < 0)
    # once k_B T >= 10 h f the energy approaches k_B T within 5%
    T = 10 * h * f / k
    energy = planck_mean_photon(T, f) * h * f
    assert abs(energy / (k * T) - 1) < 0.05


@pytest.mark.parametrize("mean,var", [(0.0, 0.0), (1.0, 2.0), (2.0, 6.0), (19.0, 380.0)])
def test_thermal_variance_values(mean, var):
    assert thermal_variance(mean) == var


def test_thermal_variance_limits():
    assert thermal_variance(1e-8) / 1e-8 == pytest.approx(1.0, rel=1e-7)
    assert thermal_variance(1e8) / 1e16 == pytest.approx(1.0, rel=1e-7)


@pytest.mark.parametrize("mean", [0.0, 1.0, 19.0])
def test_coherent_variance_is_mean(mean):
    assert coherent_variance(mean) == mean


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_negative_or_non_finite_inputs_rejected(bad):
    for variance in (thermal_variance, coherent_variance):
        with pytest.raises(ValueError, match="finite and >= 0"):
            variance(bad)
    for args, name in (((bad, 0.0), "n_coh"), ((0.0, bad), "n_th")):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            mixed_moments(*args)
    for args, name in (((bad, 0.0), "mean"), ((0.0, bad), "variance")):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            g2_zero(*args)


# each formula's valid arguments by name: (value, lower bound, whether the
# bound itself is refused)
FORMULAS = [
    (planck_mean_photon, {"T": (1.0, 0.0, False), "f": (8.428e9, 0.0, True)}),
    (thermal_variance, {"mean": (1.0, 0.0, False)}),
    (coherent_variance, {"mean": (1.0, 0.0, False)}),
    (mixed_moments, {"n_coh": (1.0, 0.0, False), "n_th": (1.0, 0.0, False)}),
    (
        mixed_moments_mc,
        {"n_coh": (1.0, 0.0, False), "n_th": (1.0, 0.0, False), "n_samples": (10, 1.0, False)},
    ),
    (g2_zero, {"mean": (1.0, 0.0, False), "variance": (2.0, 0.0, False)}),
    (
        broadening_to_variance,
        {"v": (1e12, 0.0, False), "v_base": (0.0, 0.0, False), "alpha": (1.92e-6, 0.0, True)},
    ),
    (
        beamsplitter_combine,
        {"coh_in": (1.0, 0.0, False), "th_in": (1.0, 0.0, False), "Gamma": (0.5, 0.0, False)},
    ),
    (
        flux_to_power,
        {"mean": (0.16, 0.0, False), "f": (8.428e9, 0.0, False), "bandwidth": (133e6, 0.0, False)},
    ),
]


def _bad_arguments():
    for fn, args in FORMULAS:
        for name, (_, low, strict) in args.items():
            below = low if strict else math.nextafter(low, -math.inf)
            for case, bad in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("below", below)):
                yield pytest.param(fn, args, name, bad, id=f"{fn.__name__}-{name}-{case}")


@pytest.mark.parametrize("fn,args,name,bad", list(_bad_arguments()))
def test_each_formula_refuses_a_bad_argument_by_name(fn, args, name, bad):
    # the formula that takes an argument refuses it, NaN and +-inf included,
    # and names it; the valid arguments pass
    kwargs = {k: value for k, (value, _, _) in args.items()}
    fn(**kwargs)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        fn(**kwargs)


class TestMixedMoments:
    def test_pure_thermal_limit_bit_exact(self):
        assert mixed_moments(0.0, 1.7) == (1.7, thermal_variance(1.7))

    def test_pure_coherent_limit_bit_exact(self):
        assert mixed_moments(2.3, 0.0) == (2.3, coherent_variance(2.3))

    def test_equal_mixture_reference(self):
        assert mixed_moments(1.0, 1.0) == (2.0, 5.0)
        assert g2_zero(2.0, 5.0) == pytest.approx(1.75)

    def test_against_monte_carlo_oracle(self):
        for n_coh, n_th, seed in [(1.0, 1.0, 0), (0.3, 2.0, 1), (5.0, 0.2, 2)]:
            closed = mixed_moments(n_coh, n_th)
            mc = mixed_moments_mc(n_coh, n_th, n_samples=10**6, seed=seed)
            assert abs(mc[0] - closed[0]) / closed[0] < 1e-2
            assert abs(mc[1] - closed[1]) / closed[1] < 1e-2

    def test_mc_reproducible(self):
        a = mixed_moments_mc(1.0, 0.5, n_samples=10000, seed=5)
        b = mixed_moments_mc(1.0, 0.5, n_samples=10000, seed=5)
        assert a == b

    def test_g2_bounded_and_monotonic(self):
        # family of curves: g2 rises with thermal flux, falls with coherent
        # flux, always inside [1, 2]
        n_cohs = np.linspace(0.0, 8.0, 15)
        n_ths = np.linspace(1e-6, 4.0, 15)
        table = np.array(
            [[g2_zero(*mixed_moments(c, t)) for t in n_ths] for c in n_cohs]
        )
        assert np.all(table >= 1.0 - 1e-12) and np.all(table <= 2.0 + 1e-12)
        assert np.all(np.diff(table, axis=1) >= -1e-12)  # in n_th
        assert np.all(np.diff(table, axis=0) <= 1e-12)  # in n_coh


class TestG2:
    def test_thermal_is_two(self):
        for mean in (0.01, 1.0, 19.0):
            assert g2_zero(mean, thermal_variance(mean)) == pytest.approx(2.0)

    def test_coherent_is_one(self):
        for mean in (0.01, 1.0, 19.0):
            assert g2_zero(mean, coherent_variance(mean)) == pytest.approx(1.0)

    def test_sub_poissonian_below_one(self):
        assert g2_zero(1.0, 0.5) < 1.0

    def test_zero_mean_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            g2_zero(0.0, 0.0)


class TestSigmaCalibration:
    ALPHA = 1.92e-6  # 1.92 photon/MHz

    def test_zero(self):
        assert broadening_to_variance(0.0, 0.0, self.ALPHA) == 0.0

    def test_reference_values(self):
        # v = sigma^2 of a 1 MHz and a 0.52 MHz broadening
        np.testing.assert_allclose(broadening_to_variance(1e12, 0.0, self.ALPHA), 3.6864, rtol=1e-12)
        np.testing.assert_allclose(
            broadening_to_variance(0.52e6**2, 0.0, self.ALPHA), 0.9969, atol=1e-3
        )

    def test_base_broadening_is_subtracted_in_quadrature(self):
        np.testing.assert_allclose(
            broadening_to_variance(1e12, 0.6e6**2, self.ALPHA), 0.64 * 3.6864, rtol=1e-12
        )
        assert broadening_to_variance(0.5e6**2, 0.6e6**2, self.ALPHA) == 0.0

    def test_negative_broadening_rejected(self):
        with pytest.raises(ValueError, match="v must be finite and >= 0"):
            broadening_to_variance(-1.0, 0.0, self.ALPHA)

    @pytest.mark.parametrize("alpha", [0.0, -1.92e-6])
    def test_non_positive_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            broadening_to_variance(1e12, 0.0, alpha)


class TestBeamsplitter:
    def test_passthrough_limits(self):
        assert beamsplitter_combine(3.0, 5.0, 1.0) == (3.0, 0.0)
        assert beamsplitter_combine(3.0, 5.0, 0.0) == (0.0, 5.0)

    def test_weak_transmission(self):
        out = beamsplitter_combine(100.0, 1.0, 0.01)
        np.testing.assert_allclose(out, [1.0, 0.99], rtol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            beamsplitter_combine(1.0, 1.0, 1.5)


def test_flux_to_power_reference():
    assert flux_to_power(0.0, 8.428e9, 133e6) == 0.0
    p = flux_to_power(0.16, 8.428e9, 133e6)
    np.testing.assert_allclose(p, 119e-18, rtol=0.01)
    np.testing.assert_allclose(p, 1.18837136909e-16, rtol=1e-9)
    np.testing.assert_allclose(
        flux_to_power(2.0, 8.428e9, 133e6), p * 2 / 0.16, rtol=1e-12
    )


class TestResolutionMetrics:
    def test_constant_samples(self):
        mean, std, cv = resolution_metrics([0.22e6] * 5)
        assert std == 0.0 and cv == 0.0
        np.testing.assert_allclose(mean, 0.22e6)

    def test_reference_cv(self):
        # mean 0.22 MHz, std 0.19 MHz -> CV 0.864, below unity
        rng = np.random.default_rng(2)
        samples = rng.normal(0.0, 1.0, 4000)
        samples = (samples - samples.mean()) / samples.std(ddof=1)
        samples = 0.22e6 + 0.19e6 * samples
        mean, std, cv = resolution_metrics(samples)
        np.testing.assert_allclose([mean, std], [0.22e6, 0.19e6], rtol=1e-12)
        np.testing.assert_allclose(cv, 0.19 / 0.22, rtol=1e-12)
        assert cv < 1.0

    def test_high_photon_number_cv(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(0.0, 1.0, 4000)
        samples = (samples - samples.mean()) / samples.std(ddof=1)
        samples = -4e6 + 0.2e6 * samples  # negative shifts: CV uses |mean|
        _, _, cv = resolution_metrics(samples)
        np.testing.assert_allclose(cv, 0.05, rtol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            resolution_metrics([1.0])
