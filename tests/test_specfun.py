import math

import mpmath as mp
import numpy as np
import pytest

from bolostat.specfun import DomainError, RangeOverflowError, _mean_inverse, erfcx, faddeeva_w

mp.mp.dps = 30

# Frozen oracle values.  erfcx(100) from the adaptive-quadrature oracle
# erfcx(z) = 2/sqrt(pi) * int_0^inf exp(-2 z u - u^2) du at 30 digits;
# erfcx(i) from the series oracle e^{-1} (1 - i*erfi(1)) with
# erfi(1) = 2/sqrt(pi) * sum_k 1/(k! (2k+1)) = 1.650425758797542876.
ERFCX_100 = 0.0056416137829894329
ERFCX_I = 0.36787944117144232 - 0.60715770584139373j
ERFCX_1 = 0.427583576155807


def erfcx_ref(z):
    """Extended-precision reference, evaluated per point.

    The phase of exp(z^2) is Im(z^2) = 2 Re(z) Im(z), of size |z|^2, so the
    working precision grows by two digits per decade of |z|: 30 digits alone
    lose that phase beyond |z| ~ 1e8.
    """
    digits = 30 + math.ceil(2 * math.log10(max(abs(z), 1.0)))
    with mp.workdps(digits):
        z = mp.mpc(z)
        return complex(mp.exp(z * z) * mp.erfc(z))


def erfcx_quad_oracle(z):
    """Slow adaptive-quadrature oracle for Re z > 0."""
    z = mp.mpc(z)
    val = mp.quad(lambda u: mp.exp(-2 * z * u - u * u), [0, mp.inf])
    return complex(2 / mp.sqrt(mp.pi) * val)


def test_erfcx_zero_is_exactly_one():
    assert erfcx(0.0) == 1.0 + 0.0j


def test_erfcx_asymptotic_point():
    np.testing.assert_allclose(erfcx(100.0), ERFCX_100, rtol=1e-12)


def test_erfcx_imaginary_unit():
    np.testing.assert_allclose(erfcx(1j), ERFCX_I, rtol=1e-12)


def test_faddeeva_at_i():
    np.testing.assert_allclose(faddeeva_w(1j), ERFCX_1, rtol=1e-12)
    assert faddeeva_w(0.0) == 1.0 + 0.0j


def test_faddeeva_is_erfcx_of_rotated_argument():
    rng = np.random.default_rng(11)
    z = rng.uniform(-5, 5, 40) + 1j * rng.uniform(-5, 5, 40)
    np.testing.assert_array_equal(faddeeva_w(z), erfcx(-1j * z))


def test_faddeeva_schwarz_reflection():
    # w(-conj(z)) = conj(w(z))
    rng = np.random.default_rng(5)
    z = rng.uniform(-6, 6, 100) + 1j * rng.uniform(-6, 6, 100)
    w1 = faddeeva_w(-np.conj(z))
    w2 = np.conj(faddeeva_w(z))
    np.testing.assert_allclose(w1, w2, rtol=5e-13)


def test_agreement_with_quadrature_oracle_right_half_plane():
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.01, 20, 25) + 1j * rng.uniform(-20, 20, 25)
    for z in pts:
        np.testing.assert_allclose(erfcx(z), erfcx_quad_oracle(z), rtol=1e-11)


def test_accuracy_grid_against_reference():
    # 50x50 grid over [-10, 10]^2, < 1e-10 relative throughout
    xs = np.linspace(-10, 10, 50)
    grid = xs[:, None] + 1j * xs[None, :]
    mine = erfcx(grid)
    worst = 0.0
    for i in range(50):
        for j in range(50):
            ref = erfcx_ref(grid[i, j])
            worst = max(worst, abs(mine[i, j] - ref) / abs(ref))
    assert worst < 1e-10, f"worst relative error {worst:.3e}"


def test_accuracy_over_full_target_square():
    # |Re z|, |Im z| <= 30, skipping the refused overflow corner
    rng = np.random.default_rng(17)
    pts = rng.uniform(-30, 30, 800) + 1j * rng.uniform(-30, 30, 800)
    pts = pts[(pts.real >= 0) | (pts.real**2 - pts.imag**2 <= 700.0)][:300]
    # plus the right half-plane out to |z| = 1e15, where the sigma-floor
    # calibration evaluates (|z| ~ 3e5) and beyond
    for lo_decade, hi_decade, n in ((math.log10(30), 7, 60), (7, 15, 40)):
        radius = 10 ** rng.uniform(lo_decade, hi_decade, n)
        pts = np.concatenate([pts, radius * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2, n))])
    for z in pts:
        ref = erfcx_ref(complex(z))
        assert abs(erfcx(complex(z)) - ref) / abs(ref) < 1e-10


def test_region_seams_are_smooth():
    # the rational form hands over to the asymptotic series on the circle
    # |z| = 8, and the left half-plane goes through the reflection on -z.
    # The circles |z| = 2.5 and 6.0 are no seam of this kernel and stay as
    # plain accuracy checks.  Both sides of each circle stay on the reference
    # to 1e-10, so any jump across it is < 2e-10
    for radius, n_angles in ((2.5, 17), (6.0, 17), (8.0, 65)):
        for angle in np.linspace(-math.pi, math.pi, n_angles):
            z = radius * np.exp(1j * angle)
            for side in (1 - 1e-9, 1 + 1e-9):
                val = erfcx(z * side)
                ref = erfcx_ref(complex(z * side))
                assert abs(val - ref) / abs(ref) < 1e-10, z * side
    for y in np.linspace(-20, 20, 41):
        for x in (-1e-9, 1e-9):
            ref = erfcx_ref(complex(x, y))
            assert abs(erfcx(complex(x, y)) - ref) / abs(ref) < 1e-10, (x, y)


def test_derivative_identity():
    # d/dz erfcx = 2 z erfcx - 2/sqrt(pi), against central differences
    rng = np.random.default_rng(7)
    pts = rng.uniform(-8, 8, 100) + 1j * rng.uniform(-8, 8, 100)
    h = 5e-5
    for z in pts:
        analytic = 2 * z * erfcx(z) - 2 / math.sqrt(math.pi)
        numeric = (erfcx(z + h) - erfcx(z - h)) / (2 * h)
        assert abs(numeric - analytic) / abs(analytic) < 1e-6


JET_CASES = {
    # z = a/c on one side of |z| = 8 only and on both sides, each on both
    # sides of the real axis (the probe sweeps across the line's center);
    # Re a = gamma/2 > 0 on the line, so no point lies left of the
    # imaginary axis
    "near": np.array([0.0, 0.3 + 0.1j, 2 - 7j, 5.5 + 5.5j, 7.9j]),
    "far": np.array([8.01, 9 - 3j, 30j, 1e3 + 1e4j, 3e5 - 1e2j]),
    "mixed": np.array([6 + 6j, 0.2j, 11 - 2j, 0.5 - 12j, 4.0, 2e3j, 1.5 + 7.5j]),
}


def mean_inverse_ref(a, c, digits):
    """(M, dM/da, dM/dv) of the Voigt line at ``digits``: M = sqrt(pi)
    erfcx(z)/c, dM/da = sqrt(pi) erfcx'(z)/c^2 and dM/dv = -4 pi^2 sqrt(pi)
    g(z)/c^3, z = a/c, with g(z) = (1 + 2 z^2) erfcx(z) - 2 z/sqrt(pi)."""
    with mp.workdps(digits):
        c = mp.mpf(c)
        z = mp.mpc(a) / c
        s = mp.sqrt(mp.pi)
        w = mp.exp(z * z) * mp.erfc(z)
        dw = 2 * z * w - 2 / s
        g = (1 + 2 * z * z) * w - 2 * z / s
        return complex(s * w / c), complex(s * dw / c**2), complex(-4 * mp.pi**2 * s * g / c**3)


@pytest.mark.parametrize("case", JET_CASES)
def test_jet_derivatives_match_mpmath_on_both_half_planes(case):
    # erfcx'(z) = 2 z erfcx(z) - 2/sqrt(pi) and g(z) = (1 + 2 z^2) erfcx(z)
    # - 2 z/sqrt(pi) cancel up to four digits per decade of |z|, so the
    # reference carries six more digits per decade; at c = 1 the jet of
    # M is sqrt(pi) (erfcx, erfcx', -4 pi^2 g)
    z = JET_CASES[case]
    jet = _mean_inverse(z, 1.0, jet=True)
    for k, zk in enumerate(z):
        ref = mean_inverse_ref(complex(zk), 1.0, 30 + math.ceil(6 * math.log10(max(abs(zk), 1.0))))
        for got, want in zip(jet, ref):
            assert abs(got[k] - want) <= 1e-10 * abs(want), zk


def test_mean_inverse_is_continuous_across_the_seam():
    # M takes the rational form for |a| <= 8c and the series beyond; just
    # inside and just outside that circle both forms stay on the reference,
    # at c = 1 and at the line's c for sigma = 1 kHz, 1 MHz and 3 MHz.  On
    # the near side the closed form of g cancels about four digits at
    # |z| = 8, so dM/dv is held to 1e-11 there (2.7e-12 measured)
    line_c = 2 * math.sqrt(2) * math.pi * np.array([1e3, 1e6, 3e6])
    for c in (1.0, *line_c):
        for angle in np.linspace(-math.pi / 2, math.pi / 2, 33)[1:-1]:
            for side in (1 - 1e-12, 1 + 1e-12):
                a = np.array([8.0 * c * side * np.exp(1j * angle)])
                jet = _mean_inverse(a, c, jet=True)
                ref = mean_inverse_ref(complex(a[0]), c, 40)
                for got, want, tol in zip(jet, ref, (1e-12, 1e-12, 1e-11 if side < 1 else 1e-12)):
                    assert abs(got[0] - want) <= tol * abs(want), (c, a[0])
                # the value is the same operations without the jet
                np.testing.assert_array_equal(_mean_inverse(a, c, jet=False)[0], jet[0])


def test_reflection_formula():
    rng = np.random.default_rng(13)
    z = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
    lhs = erfcx(-z)
    rhs = 2 * np.exp(z * z) - erfcx(z)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


def test_vectorized_matches_scalar():
    z = np.array([0.3 + 0.1j, -2 + 5j, 7 - 4j, 0.0])
    vec = erfcx(z)
    for k, zz in enumerate(z):
        assert vec[k] == erfcx(complex(zz))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1), complex(1, np.inf)])
def test_non_finite_input_rejected(bad):
    with pytest.raises(DomainError):
        erfcx(bad)
    with pytest.raises(DomainError):
        faddeeva_w(bad)


def test_overflowing_reflection_is_refused():
    with pytest.raises(RangeOverflowError):
        erfcx(-30.0)
    with pytest.raises(RangeOverflowError):
        erfcx(np.array([0.5, -28.0 + 1j]))
    # same magnitude on the right half-plane is fine
    assert np.isfinite(erfcx(30.0).real)
