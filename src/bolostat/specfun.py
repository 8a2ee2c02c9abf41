"""Scaled complementary error function erfcx(z) = exp(z^2) erfc(z) for complex z.

This is the kernel behind the Gaussian-broadened resonance model: the
thermometer line averaged over a normally distributed resonance frequency
reduces to a single erfcx evaluation, so the fitting machinery calls this
function thousands of times per trace.  Target relative accuracy is 1e-10
on the square |Re z| <= 30, |Im z| <= 30, comfortably below the noise floor
of any trace we fit.

One method covers the whole right half-plane: Weideman's rational
approximation (SIAM J. Numer. Anal. 31, 1994) of the Faddeeva function
w(zeta), zeta = i z, as a 48-term polynomial on a Moebius-mapped unit
circle whose coefficients are Fourier coefficients of the sampled Gaussian,
computed once at import.  It stays within ~3e-13 relative error of a
30-digit reference on the target square and far beyond it (|z| up to
1e15), where it reduces to the 1/(sqrt(pi) z) asymptote.  z = 0 is returned
as exactly 1.

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
    p = np.zeros_like(x)
    for c in coeffs:
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
    z_arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z_arr)):
        raise DomainError("erfcx requires finite arguments")

    flat = np.atleast_1d(z_arr).ravel()
    out = np.empty_like(flat)

    right = flat.real >= 0.0
    if right.any():
        out[right] = _w_rational(1j * flat[right])
    left = ~right
    if left.any():
        zl = flat[left]
        z2 = zl * zl
        if np.any(z2.real > _LOG_MAX):
            bad = zl[z2.real > _LOG_MAX][0]
            raise RangeOverflowError(
                f"erfcx({bad}) is not representable in double precision "
                "(reflection formula would overflow)"
            )
        out[left] = 2.0 * np.exp(z2) - _w_rational(-1j * zl)
    # the rational form gives 1 - 2.2e-16 at the origin
    out[flat == 0.0] = 1.0

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
    z_arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z_arr)):
        raise DomainError("faddeeva_w requires finite arguments")
    return erfcx(-1j * z_arr)
