"""Forward models of the thermometer reflection measurement chain.

Conventions used throughout (and by everything downstream):

* probe/resonance frequencies ``f_p``, ``f_r``, ``mu``, ``sigma``, ``f_b``
  are ordinary frequencies in Hz;
* energy decay rates ``gamma``, ``gamma_c``, ``gamma_b``, ``gamma_bc`` are
  angular rates in rad/s;
* detunings carry the explicit 2*pi, e.g. Delta = 2*pi*(f_r - f_p).

The line delay enters the chain as exp(i*(f_p*tau + varphi)) with no 2*pi,
so ``tau`` is in rad/Hz rather than seconds; anyone comparing against lab
conventions should divide by 2*pi.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .specfun import erfcx

__all__ = [
    "ResonatorParams",
    "FreqDistribution",
    "BackgroundParams",
    "LineParams",
    "RlcParams",
    "RlcRates",
    "PARAM_NAMES",
    "sigma_floor",
    "bare_reflection",
    "averaged_reflection",
    "averaged_reflection_gh",
    "averaged_reflection_mc",
    "background_transfer",
    "full_chain_response",
    "rlc_input_impedance",
    "rlc_rates",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ResonatorParams:
    """Thermometer line: resonance f_r (Hz), rates (rad/s), asymmetry (rad)."""

    f_r: float
    gamma_c: float
    gamma: float
    phi: float = 0.0

    def __post_init__(self):
        if not self.f_r > 0:
            raise ValueError(f"f_r must be positive, got {self.f_r}")
        if not 0 < self.gamma_c <= self.gamma:
            raise ValueError(
                f"need 0 < gamma_c <= gamma, got gamma_c={self.gamma_c}, gamma={self.gamma}"
            )
        if not -math.pi < self.phi <= math.pi:
            raise ValueError(f"phi must lie in (-pi, pi], got {self.phi}")


@dataclass(frozen=True)
class FreqDistribution:
    """Gaussian law of the resonance frequency: mean mu (Hz), std sigma (Hz)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")


@dataclass(frozen=True)
class BackgroundParams:
    """Output-path transfer function: scale, Lorentzian term, asymmetry."""

    s_b: float
    f_b: float
    gamma_bc: float
    gamma_b: float
    phi_b: float = 0.0

    def __post_init__(self):
        if not self.gamma_b > 0:
            raise ValueError(f"gamma_b must be positive, got {self.gamma_b}")


@dataclass(frozen=True)
class LineParams:
    """Cable delay tau (rad/Hz, see module docstring) and phase offset (rad)."""

    tau: float
    varphi: float = 0.0

    def __post_init__(self):
        if not self.tau >= 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")


@dataclass(frozen=True)
class RlcParams:
    """Parallel RLC thermometer capacitively coupled to a Z0 feedline.

    Z = sqrt(L/C) is the characteristic impedance (Ohm), C_g the coupling
    capacitance (F), Q_i the internal quality factor.  Construction asserts
    the small-coupling expansion regime 2*pi*f_r*Z*C_g < 0.1.
    """

    Z: float
    C_g: float
    Q_i: float
    f_r: float
    Z0: float = 50.0

    def __post_init__(self):
        for name in ("Z", "C_g", "Q_i", "f_r", "Z0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        coupling = TWO_PI * self.f_r * self.Z * self.C_g
        if coupling >= 0.1:
            raise ValueError(
                f"small-coupling expansion invalid: 2*pi*f_r*Z*C_g = {coupling:.3g} >= 0.1"
            )


class RlcRates(NamedTuple):
    gamma_i: float
    gamma_c_expr: float


# The twelve free scalars of the chain model, in the one order every raw
# vector uses: the averaged line, the background, then the line delay.  Each
# group lists the leading arguments of the helper that evaluates it, so
# `_chain_model` hands each helper its slice of the vector.
_LINE_NAMES = ("mu", "sigma", "gamma_c", "phi", "gamma")
_BACKGROUND_NAMES = ("s_b", "f_b", "gamma_bc", "gamma_b", "phi_b")
_DELAY_NAMES = ("tau", "varphi")
PARAM_NAMES = _LINE_NAMES + _BACKGROUND_NAMES + _DELAY_NAMES
PHASE_NAMES = ("phi", "phi_b", "varphi")

_LINE = slice(0, len(_LINE_NAMES))
_BACKGROUND = slice(_LINE.stop, _LINE.stop + len(_BACKGROUND_NAMES))
_DELAY = slice(_BACKGROUND.stop, len(PARAM_NAMES))


def sigma_floor(gamma):
    """Smallest broadening (Hz) handled by the closed-form Gaussian average.

    Below 1e-6 of the linewidth gamma/(2*pi) the erfcx argument leaves any
    usefully representable range, so `averaged_reflection` falls back to the
    bare Lorentzian there; the seam is continuous to well below 1e-6.
    """
    return 1e-6 * gamma / TWO_PI


def _line(mu, sigma, gamma_c, phi, gamma, f_p):
    # averaged line: the bare Lorentzian at f_r = mu up to the sigma floor,
    # the erfcx (Voigt) closed form above it; scalars or broadcastable arrays
    dprime = TWO_PI * (mu - f_p)
    if sigma <= sigma_floor(gamma):
        return 1.0 - np.exp(1j * phi) * gamma_c / (gamma / 2.0 + 1j * dprime)
    arg = (gamma / 2.0 + 1j * dprime) / (2.0 * math.sqrt(2.0) * math.pi * sigma)
    return 1.0 - np.exp(1j * phi) * gamma_c / (2.0 * math.sqrt(TWO_PI) * sigma) * erfcx(arg)


def _background(s_b, f_b, gamma_bc, gamma_b, phi_b, f_p, n_resonances=1, spacing=80e6):
    term = 0.0
    for k in range(n_resonances):
        delta_b = TWO_PI * (f_b + k * spacing - f_p)
        term = term + np.exp(1j * phi_b) * gamma_bc / (gamma_b / 2.0 + 1j * delta_b)
    return s_b + term


def _delay(tau, varphi, f_p):
    return np.exp(1j * (f_p * tau + varphi))


def _chain_model(x, f_p):
    """Full chain response at a raw twelve-scalar vector in `PARAM_NAMES` order.

    No validation and no phase wrapping, so a fitter may move every scalar
    freely; `full_chain_response` is the same expression on the dataclasses.
    """
    return (
        _delay(*x[_DELAY], f_p)
        * _background(*x[_BACKGROUND], f_p)
        * _line(*x[_LINE], f_p)
    )


_SQRT_PI = math.sqrt(math.pi)

# Beyond this |z| the closed forms of erfcx'(z) and of the sigma factor g(z)
# cancel more than 2*log10|z| and 4*log10|z| digits (about 2 and 4 here),
# and their asymptotic series take over; 24 terms reach below 1e-17 there.
_SERIES_FROM = 8.0


def _series_coeffs(ratio, n_terms=24):
    # c_0 = 1, c_{k+1} = c_k * ratio(k); highest power first for np.polyval
    c = [1.0]
    for k in range(n_terms - 1):
        c.append(c[-1] * ratio(k))
    return np.array(c[::-1])


# erfcx'(z) ~ -(1/(sqrt(pi) z^2)) * sum_k c_k z^(-2k)
_DW_SERIES = _series_coeffs(lambda k: -(2 * k + 3) / 2.0)
# g(z) ~ (1/(sqrt(pi) z^3)) * sum_k c_k z^(-2k)
_G_SERIES = _series_coeffs(lambda k: -(2 * k + 3) * (k + 2) / (2.0 * (k + 1)))


def _erfcx_derivatives(z, w):
    """erfcx'(z) and g(z) = (1 + 2 z^2) erfcx(z) - 2 z / sqrt(pi), given w = erfcx(z).

    erfcx'(z) = 2 z erfcx(z) - 2/sqrt(pi); g is the sigma factor of the
    Voigt line, d<S11>/dsigma = (P/sigma) g(z).  Both closed forms are
    differences of nearly equal terms at large |z|, so there the
    asymptotic series are used instead.
    """
    z = np.asarray(z, dtype=complex)
    dw = 2.0 * z * w - 2.0 / _SQRT_PI
    g = (1.0 + 2.0 * z * z) * w - 2.0 * z / _SQRT_PI
    far = np.abs(z) > _SERIES_FROM
    if far.any():
        zf = z[far]
        v = 1.0 / (zf * zf)
        dw[far] = -np.polyval(_DW_SERIES, v) * v / _SQRT_PI
        g[far] = np.polyval(_G_SERIES, v) * v / (_SQRT_PI * zf)
    return dw, g


def _line_jacobian(mu, sigma, gamma_c, phi, gamma, f_p):
    """Value of `_line` and its derivatives in `_LINE_NAMES` order."""
    a = gamma / 2.0 + 1j * TWO_PI * (mu - f_p)
    rot = np.exp(1j * phi)
    if sigma <= sigma_floor(gamma):
        q = rot * gamma_c / a
        # sigma: the right derivative sigma * d^2L/dmu^2 of the Gaussian
        # average, so that a fit can leave the floor
        return 1.0 - q, (
            1j * TWO_PI * q / a,
            8.0 * math.pi**2 * sigma * q / (a * a),
            -rot / a,
            -1j * q,
            q / (2.0 * a),
        )
    c = 2.0 * math.sqrt(2.0) * math.pi * sigma
    z = a / c
    w = erfcx(z)
    unit = rot / (2.0 * math.sqrt(TWO_PI) * sigma)
    p = unit * gamma_c
    pw = p * w
    dw, g = _erfcx_derivatives(z, w)
    return 1.0 - pw, (
        -1j * TWO_PI * p * dw / c,
        p / sigma * g,
        -unit * w,
        -1j * pw,
        -p * dw / (2.0 * c),
    )


def _background_jacobian(s_b, f_b, gamma_bc, gamma_b, phi_b, f_p):
    """Value of one-resonance `_background` and its derivatives in `_BACKGROUND_NAMES` order."""
    b = gamma_b / 2.0 + 1j * TWO_PI * (f_b - f_p)
    unit = np.exp(1j * phi_b) / b
    term = gamma_bc * unit
    return s_b + term, (
        np.ones_like(term),
        -1j * TWO_PI * term / b,
        unit,
        -term / (2.0 * b),
        1j * term,
    )


def _chain_jacobian(x, f_p):
    """Complex Jacobian of `_chain_model` in closed form: (len(f_p), 12).

    Columns follow `PARAM_NAMES`.  The Voigt line takes one erfcx call and
    its derivative from erfcx'(z) = 2 z erfcx(z) - 2/sqrt(pi); the
    background and delay columns are elementary.  On the bare-Lorentzian
    branch (sigma at or below `sigma_floor`) the sigma column is the right
    derivative of the Gaussian average, not zero.
    """
    f_p = np.atleast_1d(np.asarray(f_p, dtype=float))
    delay = _delay(*x[_DELAY], f_p)
    background, d_background = _background_jacobian(*x[_BACKGROUND], f_p)
    line, d_line = _line_jacobian(*x[_LINE], f_p)
    value = delay * background * line
    jac = np.empty((f_p.size, len(PARAM_NAMES)), dtype=complex)
    jac[:, _LINE] = np.column_stack(d_line) * (delay * background)[:, None]
    jac[:, _BACKGROUND] = np.column_stack(d_background) * (delay * line)[:, None]
    jac[:, _DELAY] = np.column_stack((1j * f_p * value, 1j * value))
    return jac


def bare_reflection(res, f_p):
    """Reflection of the bare line: S11 = 1 - e^{i phi} gamma_c / (gamma/2 + i Delta).

    Delta = 2*pi*(f_r - f_p).  Accepts a scalar or array probe frequency.
    """
    return _line(res.f_r, 0.0, res.gamma_c, res.phi, res.gamma, np.asarray(f_p, dtype=float))


def averaged_reflection(res, dist, f_p):
    """Reflection averaged over f_r ~ N(mu, sigma^2), in closed form.

    <S11> = 1 - e^{i phi} gamma_c / (2 sqrt(2 pi) sigma)
                * erfcx( (gamma/2 + i Delta') / (2 sqrt(2) pi sigma) )

    with Delta' = 2*pi*(mu - f_p).  The magnitude of the result is the Voigt
    profile of the line.  For sigma below `sigma_floor(gamma)` the Gaussian is
    effectively a delta distribution and the bare line at f_r = mu is returned.
    """
    return _line(
        dist.mu, dist.sigma, res.gamma_c, res.phi, res.gamma, np.asarray(f_p, dtype=float)
    )


def averaged_reflection_gh(res, dist, f_p, n_nodes=64):
    """Gauss-Hermite quadrature of `bare_reflection` over f_r ~ N(mu, sigma^2).

    Independent cross-check for `averaged_reflection`.  Converges extremely
    fast while sigma stays below roughly a third of the linewidth
    gamma/(2*pi); for broader distributions the integrand's pole sits too
    close to the node line and more nodes are required (the convergence
    factor is about exp(-2*d*sqrt(2*n+1)) with d = gamma/(4*sqrt(2)*pi*sigma)).
    """
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    f_r = dist.mu + math.sqrt(2.0) * dist.sigma * nodes
    f_p = np.atleast_1d(np.asarray(f_p, dtype=float))
    vals = _bare_grid(res, f_r, f_p)
    out = (weights[:, None] * vals).sum(axis=0) / math.sqrt(math.pi)
    return out if out.size > 1 else complex(out[0])


def _bare_grid(res, f_r, f_p):
    # bare_reflection evaluated on an (f_r, f_p) outer grid
    return _line(
        np.asarray(f_r)[:, None], 0.0, res.gamma_c, res.phi, res.gamma, np.asarray(f_p)[None, :]
    )


_MC_BLOCK_POINTS = 2**16


def averaged_reflection_mc(res, dist, f_p, n_samples, seed, chunk=20000):
    """Monte-Carlo average of `bare_reflection` over f_r ~ N(mu, sigma^2).

    Brute-force oracle for `averaged_reflection`.  Draws come from a
    counter-based Philox generator keyed by ``seed``, so the result is
    reproducible and independent of chunking; the reduction order over
    chunks is fixed.

    The sum runs in real arithmetic: with a + ib = gamma/2 + i*2*pi*(f_r - f_p),
    the bare line is 1 - e^{i phi} gamma_c (a - ib)/(a^2 + b^2), so only
    sum 1/(a^2 + b^2) and sum b/(a^2 + b^2) are accumulated.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    f_p = np.atleast_1d(np.asarray(f_p, dtype=float))
    rng = np.random.Generator(np.random.Philox(seed))
    a = res.gamma / 2.0
    sum_inv = np.zeros(f_p.shape)
    sum_b_inv = np.zeros(f_p.shape)
    # the (draw, f_p) grid is built a cache-sized block of rows at a time
    rows = max(1, _MC_BLOCK_POINTS // f_p.size)
    drawn = 0
    while drawn < n_samples:
        m = min(chunk, n_samples - drawn)
        f_r = rng.normal(dist.mu, dist.sigma, m)
        for start in range(0, m, rows):
            b = f_r[start : start + rows, None] - f_p[None, :]
            b *= TWO_PI
            inv = b * b
            inv += a * a
            np.reciprocal(inv, out=inv)
            sum_inv += inv.sum(axis=0)
            b *= inv
            sum_b_inv += b.sum(axis=0)
        drawn += m
    mean_inverse = (a * sum_inv - 1j * sum_b_inv) / n_samples
    out = 1.0 - np.exp(1j * res.phi) * res.gamma_c * mean_inverse
    return out if out.size > 1 else complex(out[0])


def background_transfer(bg, f_p, n_resonances=1, spacing=80e6):
    """Output-path transfer function H(f_p) = s_b + e^{i phi_b} gamma_bc / (gamma_b/2 + i Delta_b).

    Delta_b = 2*pi*(f_b - f_p).  With ``n_resonances`` > 1 the Lorentzian term
    is repeated at f_b + k*spacing (the output path of a real chain shows a
    comb of such mismatch resonances; the default spacing is 80 MHz).
    """
    return _background(
        bg.s_b, bg.f_b, bg.gamma_bc, bg.gamma_b, bg.phi_b, np.asarray(f_p, dtype=float),
        n_resonances, spacing,
    )


def full_chain_response(res, dist, bg, line, f_p, n_resonances=1, spacing=80e6):
    """Everything the digitizer sees: delay/phase * background * averaged line.

    S11(f_p) = exp(i*(f_p*tau + varphi)) H(f_p) <S11(f_p)>

    Note the delay phase is f_p*tau with no 2*pi (tau in rad/Hz).  With one
    background resonance this is bitwise `_chain_model`, which the staged
    fits and the synthesis run on.
    """
    f_p = np.asarray(f_p, dtype=float)
    return (
        _delay(line.tau, line.varphi, f_p)
        * background_transfer(bg, f_p, n_resonances, spacing)
        * averaged_reflection(res, dist, f_p)
    )


def rlc_input_impedance(circuit, delta_f):
    """Input impedance near resonance: Z_in = R' - i*2*L'*delta_f (Ohm).

    R' = 1/(8 pi Z C_g^2 Q_i f_r^2), L' = 1/(8 pi Z C_g^2 f_r^3); first-order
    expansion around f_r, valid for |delta_f| << f_r.
    """
    r_eff = 1.0 / (8.0 * math.pi * circuit.Z * circuit.C_g**2 * circuit.Q_i * circuit.f_r**2)
    l_eff = 1.0 / (8.0 * math.pi * circuit.Z * circuit.C_g**2 * circuit.f_r**3)
    return r_eff - 1j * 2.0 * l_eff * np.asarray(delta_f, dtype=float)


def rlc_rates(circuit):
    """Damping rates of the RLC picture: (gamma_i, gamma_c_expr).

    gamma_i = 2*pi*f_r/Q_i is an ordinary angular rate.  gamma_c_expr is the
    textbook small-coupling expression 4*Z*Z0*C_g^2*f_r returned verbatim;
    note it does not carry rad/s units as written (it is dimensionally a
    time unless f_r enters with a higher power), so nothing else in this
    package consumes it -- the fitted gamma_c is always used instead.
    """
    gamma_i = TWO_PI * circuit.f_r / circuit.Q_i
    gamma_c_expr = 4.0 * circuit.Z * circuit.Z0 * circuit.C_g**2 * circuit.f_r
    return RlcRates(gamma_i=gamma_i, gamma_c_expr=gamma_c_expr)
