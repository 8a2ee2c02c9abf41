"""Scaled complementary error function erfcx(z) = exp(z^2) erfc(z) for complex z.

This is the kernel behind the Gaussian-broadened resonance model: the
thermometer line averaged over a normally distributed resonance frequency
reduces to a single erfcx evaluation, so the fitting machinery calls this
function thousands of times per trace.  Target relative accuracy is 1e-10
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
shrinks further out (|z| up to 1e15 is tested).  The same series gives
erfcx'(z) and the sigma factor g(z) without the cancellation of their
closed forms (`_erfcx_jet` returns all three from one call).  z = 0 is
returned as exactly 1.

The Voigt line of `response` splits its probe points on the same circle
(`_per_point`): beyond it, it calls the series S(q) in q = 1/z^2
(`_asymptotic`), finite at zero broadening, where z is infinite; inside
it, `_erfcx_jet`, one call per Jacobian.

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


def _series(y, jet):
    """erfcx(y) for |y| > _SERIES_FROM, Re y >= 0, by its asymptotic series;
    with ``jet`` also erfcx'(y) and g(y), from the same series.

    With u = 1/y and q = u^2: erfcx = S u/sqrt(pi), erfcx' = 2 q T/sqrt(pi)
    and g = q u (T + 2 U)/sqrt(pi) (see `_asymptotic`).
    """
    u = 1.0 / y
    q = u * u
    parts = _asymptotic(q, jet)
    w = parts[0] * u / _SQRT_PI
    if not jet:
        return (w,)
    _, T, T2U = parts
    return w, 2.0 * q * T / _SQRT_PI, q * u * T2U / _SQRT_PI


def _near(y, jet):
    """erfcx(y) for Re y >= 0 by the rational form, with ``jet`` erfcx'(y)
    and g(y) by their closed forms."""
    w = _w_rational(1j * y)
    # the rational form gives 1 - 2.2e-16 at the origin
    w[y == 0.0] = 1.0
    if not jet:
        return (w,)
    return w, 2.0 * y * w - 2.0 / _SQRT_PI, (1.0 + 2.0 * y * y) * w - 2.0 * y / _SQRT_PI


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


def _kernel(flat, jet):
    """erfcx over a flat array of finite complex points, as a tuple: (w,),
    or with ``jet`` (w, erfcx', g), where g(z) = (1 + 2 z^2) erfcx(z) -
    2 z/sqrt(pi) is the sigma factor of the Voigt line.  A point left of
    the imaginary axis is the reflection erfcx(z) = 2 exp(z^2) - erfcx(-z)."""
    right = flat.real >= 0.0
    y = flat
    if not right.all():
        left = ~right
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

    parts = _per_point(np.abs(y) > _SERIES_FROM, (_series, _near), (y,), jet)

    if y is not flat:
        # erfcx(z) = 2 e - erfcx(-z), erfcx'(z) = 2 z (2 e) + erfcx'(-z) and
        # g(z) = (1 + 2 z^2)(2 e) - g(-z), with e = exp(z^2)
        e2 = 2.0 * np.exp(z2)
        w = parts[0]
        w[left] = e2 - w[left]
        if jet:
            dw, g = parts[1:]
            dw[left] = 2.0 * zl * e2 + dw[left]
            g[left] = (1.0 + 2.0 * z2) * e2 - g[left]
    return parts


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
    [out] = _kernel(np.atleast_1d(z_arr).ravel(), jet=False)
    out = out.reshape(z_arr.shape)
    if np.isscalar(z) or z_arr.ndim == 0:
        return complex(out)
    return out


def _erfcx_jet(z):
    """(erfcx(z), erfcx'(z), g(z)) over an array, g(z) = (1 + 2 z^2)
    erfcx(z) - 2 z/sqrt(pi) the sigma factor of the Voigt line,
    d<S11>/dsigma = (P/sigma) g(z).  The first is bitwise ``erfcx(z)``: the
    same operations, with the derivatives taken from the same series
    beyond |z| = 8.  The Voigt line only calls it inside |z| = 8, with
    Re z > 0; the derivatives are reflected with the value all the same, so
    the jet is right on the whole plane that `erfcx` covers.  Raises as
    `erfcx` does."""
    z_arr = _checked(z, "erfcx")
    return tuple(p.reshape(z_arr.shape) for p in _kernel(np.atleast_1d(z_arr).ravel(), jet=True))


def faddeeva_w(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) = erfcx(-iz).

    For Im(z) > 0, Re(w) is the Voigt profile up to the 1/sqrt(pi)
    normalization.  Errors propagate from :func:`erfcx`; in particular,
    deep in the lower half-plane w grows like 2 exp(-z^2) and the call is
    refused once that factor overflows.
    """
    return erfcx(-1j * _checked(z, "faddeeva_w"))
