"""Scaled complementary error function erfcx(z) = exp(z^2) erfc(z) for complex z.

This is the kernel behind the Gaussian-broadened resonance model: the
thermometer line averaged over a normally distributed resonance frequency
reduces to a single erfcx evaluation, so the fitting machinery evaluates
it thousands of times per trace.  Target relative accuracy is 1e-10
on the square |Re z| <= 30, |Im z| <= 30, comfortably below the noise floor
of any trace we fit.

Two methods cover the right half-plane, split on the circle |z| = 8.
Inside it, Weideman's rational approximation (SIAM J. Numer. Anal. 31,
1994) of the Faddeeva function w(zeta), zeta = i z, as a 48-term polynomial
on a Moebius-mapped unit circle whose coefficients are Fourier coefficients
of the sampled Gaussian, computed once at import; it stays within ~3e-13
relative error of a 30-digit reference there.  Beyond it, the classical
asymptotic expansion erfcx(z) ~ (1/(sqrt(pi) z)) sum_k a_k z^(-2k),
a_k = (-1)^k (2k-1)!!/2^k (Abramowitz & Stegun 7.1.23), truncated after
a_25, whose first omitted term is 5e-22 relative at |z| = 8 and
shrinks further out (|z| up to 1e15 is tested).  z = 0 is returned as
exactly 1.

The Voigt line of `response` is the mean M(a, c) = sqrt(pi) erfcx(a/c)/c
(`_mean_inverse`), and the circle is known here alone: M splits its points
on |a| = 8c once (`_per_point`).  Beyond it, M and its derivatives come
from the series S(q) in q = (c/a)^2 (`_asymptotic`), finite at zero
broadening, where z is infinite, and free of the cancellation in the
closed forms of erfcx'(z) and of the sigma factor g(z); inside it, from the
rational form and those closed forms.  On the right half-plane `erfcx`
is that same M, at c = 1, divided by sqrt(pi).

Negative real parts are handled through the reflection formula
erfcx(z) = 2 exp(z^2) - erfcx(-z); when exp(z^2) is not representable in
double precision, the call is refused with RangeOverflowError instead of
silently returning inf.
"""

import math

import numpy as np

__all__ = ["erfcx", "faddeeva_w", "DomainError", "RangeOverflowError"]


class DomainError(ValueError):
    """Raised when a kernel entry point receives a non-finite argument."""


class RangeOverflowError(OverflowError):
    """Raised when the reflection formula would overflow double precision."""


_RATIONAL_N = 48

# exp(z^2) representable iff Re(z^2) < log(DBL_MAX); keep a small safety margin
_LOG_MAX = math.log(np.finfo(float).max) - 1.0


def _rational_coeffs(n):
    # Fourier coefficients of t -> exp(-t^2) (L^2 + t^2) sampled on the mapped
    # circle; L is the standard optimal half-width for this construction.
    m = 2 * n
    k = np.arange(-m + 1, m)
    half_width = np.sqrt(n / np.sqrt(2.0))
    t = half_width * np.tan(k * np.pi / (2 * m))
    f = np.exp(-(t**2)) * (half_width**2 + t**2)
    f = np.concatenate([[0.0], f])
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    return half_width, np.flipud(a[1 : n + 1])


_RAT_L, _RAT_COEFFS = _rational_coeffs(_RATIONAL_N)


def _horner(coeffs, x):
    """Polynomial with coefficients ``coeffs`` (highest power first) at the
    complex array ``x``: the operations of `np.polyval`, done in place."""
    p = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        p *= x
        p += c
    return p


def _w_rational(zeta):
    """Faddeeva function for Im(zeta) >= 0, vectorized over a complex array."""
    mapped = (_RAT_L + 1j * zeta) / (_RAT_L - 1j * zeta)
    p = _horner(_RAT_COEFFS, mapped)
    return 2.0 * p / (_RAT_L - 1j * zeta) ** 2 + (1.0 / np.sqrt(np.pi)) / (
        _RAT_L - 1j * zeta
    )


_SQRT_PI = math.sqrt(math.pi)

# Beyond this |z| the asymptotic series takes over from the rational form.
# There the closed forms of erfcx'(z) and of the sigma factor g(z) would
# cancel about 2 and 4 digits, while the series gives all three without
# cancellation; through a_25 its first omitted term is 5e-22 there.
_SERIES_FROM = 8.0
_SERIES_N = 24


def _asymptotic_coeffs(n):
    # a_k = (-1)^k (2k-1)!!/2^k of erfcx(z) ~ (1/(sqrt(pi) z)) sum_k a_k z^(-2k):
    # a_1, and the n coefficients a_2 ... a_(n+1) of U, highest power first
    a = [-0.5]
    for k in range(2, n + 2):
        a.append(a[-1] * -(2 * k - 1) / 2.0)
    return a[0], np.array(a[:0:-1])


_A1, _U_SERIES = _asymptotic_coeffs(_SERIES_N)


def _asymptotic(q, jet):
    """The series S(q) = 1 + sum_k a_k q^k, erfcx(y) = S(1/y^2)/(sqrt(pi) y),
    and with ``jet`` T and T + 2U: with U(q) = sum_(k>=2) a_k q^(k-2) and
    T = a_1 + q U, S = 1 + q T, S + 2 q S' = -2 T and S' = -(T + 2 U)/2,
    none a difference of nearly equal terms.  S(0) is exactly 1.
    """
    U = _horner(_U_SERIES, q)
    T = q * U
    T += _A1
    S = 1.0 + q * T
    if not jet:
        return (S,)
    return S, T, T + 2.0 * U


def _per_point(far, sides, arrays, *args):
    """``sides[0](*arrays, *args)`` at the points ``far`` and ``sides[1]`` at
    the others, each a tuple of complex arrays, merged point by point; the
    arrays broadcast against ``far``."""
    far_side, near_side = sides
    if far.all():
        return far_side(*arrays, *args)
    if not far.any():
        return near_side(*arrays, *args)
    near = ~far
    arrays = [np.broadcast_to(x, far.shape) for x in arrays]
    on_far = far_side(*(x[far] for x in arrays), *args)
    on_near = near_side(*(x[near] for x in arrays), *args)
    parts = tuple(np.empty(far.shape, dtype=complex) for _ in on_far)
    for out, f, n in zip(parts, on_far, on_near):
        out[far] = f
        out[near] = n
    return parts


def _mean_inverse(a, c, jet):
    """The mean M of 1/(a + 2 pi i (f_r - mu)) over f_r ~ N(mu, v), with
    a = gamma/2 + 2 pi i (mu - f_p) and c = 2 sqrt(2) pi sqrt(v), per point:
    (M,), or with ``jet`` (M, dM/da, dM/dv).  The line is 1 - e^{i phi}
    gamma_c M, and M = sqrt(pi) erfcx(a/c)/c.

    Beyond |a| = 8c (|z| = 8), M = S/a, dM/da = 2T/a^2 and dM/dv = -4 pi^2 (T + 2U)/a^3
    from the series of `_asymptotic` in q = (c/a)^2, finite at c = 0.
    Inside it, with z = a/c, M = sqrt(pi) w/c, dM/da = sqrt(pi) w'/c^2 and
    dM/dv = -4 pi^2 sqrt(pi) g/c^3, with w = erfcx(z) the rational form and
    w' and g their closed forms.  Re a = gamma/2 > 0, so neither side
    reflects.  M is the same operations with or without ``jet``.
    """
    return _per_point(np.abs(a) > _SERIES_FROM * c, (_far, _near), (a, c), jet)


def _far(a, c, jet):
    inv = 1.0 / a
    u = c * inv
    parts = _asymptotic(u * u, jet)
    if not jet:
        return (parts[0] * inv,)
    S, T, T2U = parts
    inv2 = inv * inv
    return S * inv, 2.0 * T * inv2, -4.0 * math.pi**2 * T2U * inv2 * inv


def _near(a, c, jet):
    z = a / c
    s = _SQRT_PI / c
    w = _w_rational(1j * z)
    if not jet:
        return (s * w,)
    # erfcx'(z) and the sigma factor g(z) = (1 + 2 z^2) erfcx(z) - 2 z/sqrt(pi)
    dw = 2.0 * z * w - 2.0 / _SQRT_PI
    g = (1.0 + 2.0 * z * z) * w - 2.0 * z / _SQRT_PI
    return s * w, s * dw / c, -4.0 * math.pi**2 * s * g / (c * c)


def _kernel(flat):
    """erfcx over a flat array of finite complex points.  A point left of
    the imaginary axis is the reflection erfcx(z) = 2 exp(z^2) - erfcx(-z)."""
    left = flat.real < 0.0
    y = flat
    if left.any():
        zl = flat[left]
        z2 = zl * zl
        if np.any(z2.real > _LOG_MAX):
            bad = zl[z2.real > _LOG_MAX][0]
            raise RangeOverflowError(
                f"erfcx({bad}) is not representable in double precision "
                "(reflection formula would overflow)"
            )
        y = flat.copy()
        y[left] = -zl

    # the line's mean at c = 1 is sqrt(pi) erfcx(y); the rational form
    # gives 1 - 2.2e-16 at the origin
    [m] = _mean_inverse(y, 1.0, jet=False)
    w = m / _SQRT_PI
    w[y == 0.0] = 1.0

    if y is not flat:
        w[left] = 2.0 * np.exp(z2) - w[left]
    return w


def _checked(z, name):
    z_arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z_arr)):
        raise DomainError(f"{name} requires finite arguments")
    return z_arr


def erfcx(z):
    """Scaled complementary error function exp(z^2) erfc(z) for complex z.

    Parameters
    ----------
    z : complex scalar or array_like
        Argument; every component must be finite.

    Returns
    -------
    complex scalar or ndarray matching the input shape.

    Raises
    ------
    DomainError
        If any component of z is NaN or infinite.
    RangeOverflowError
        If Re(z) < 0 and exp(z^2) exceeds the double-precision range, i.e.
        the reflection formula cannot represent the result.
    """
    z_arr = _checked(z, "erfcx")
    out = _kernel(np.atleast_1d(z_arr).ravel())
    out = out.reshape(z_arr.shape)
    if np.isscalar(z) or z_arr.ndim == 0:
        return complex(out)
    return out


def faddeeva_w(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) = erfcx(-iz).

    For Im(z) > 0, Re(w) is the Voigt profile up to the 1/sqrt(pi)
    normalization.  Errors propagate from :func:`erfcx`; in particular,
    deep in the lower half-plane w grows like 2 exp(-z^2) and the call is
    refused once that factor overflows.
    """
    return erfcx(-1j * _checked(z, "faddeeva_w"))
