"""Forward models of the thermometer reflection measurement chain.

Conventions used throughout (and by everything downstream):

* probe/resonance frequencies ``f_p``, ``f_r``, ``mu``, ``sigma``, ``f_b``
  are ordinary frequencies in Hz, and the broadening ``v = sigma**2`` of
  the raw parameter vector is in Hz^2;
* energy decay rates ``gamma``, ``gamma_c``, ``gamma_b``, ``gamma_bc`` are
  angular rates in rad/s;
* detunings carry the explicit 2*pi, e.g. Delta = 2*pi*(f_r - f_p).

The line delay enters the chain as exp(i*(f_p*tau + varphi)) with no 2*pi,
so ``tau`` is in rad/Hz rather than seconds; anyone comparing against lab
conventions should divide by 2*pi.

The averaged line is analytic in v down to v = 0, the bare line, so the
raw vector and the fits carry v, not sigma.  Each probe point takes one of
two forms of it, split on the circle |z| = 8 of `specfun`: the asymptotic
series in q = 1/z^2, finite at v = 0, or the rational erfcx (`_mean_inverse`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _SERIES_FROM, _SQRT_PI, _asymptotic, _erfcx_jet, _per_point, erfcx

__all__ = [
    "ResonatorParams",
    "FreqDistribution",
    "BackgroundParams",
    "LineParams",
    "PARAM_NAMES",
    "bare_reflection",
    "averaged_reflection",
    "averaged_reflection_gh",
    "averaged_reflection_mc",
    "background_transfer",
    "full_chain_response",
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


# The twelve free scalars of the chain model, in the one order every raw
# vector uses: the averaged line, the background, then the line delay.  Each
# group lists the leading arguments of the helper that evaluates it, so
# `_chain_model` hands each helper its slice of the vector.  The line's
# broadening is the variance v = sigma**2 of its center frequency, in Hz^2.
_LINE_NAMES = ("mu", "v", "gamma_c", "phi", "gamma")
_BACKGROUND_NAMES = ("s_b", "f_b", "gamma_bc", "gamma_b", "phi_b")
_DELAY_NAMES = ("tau", "varphi")
PARAM_NAMES = _LINE_NAMES + _BACKGROUND_NAMES + _DELAY_NAMES
PHASE_NAMES = ("phi", "phi_b", "varphi")

_LINE = slice(0, len(_LINE_NAMES))
_BACKGROUND = slice(_LINE.stop, _LINE.stop + len(_BACKGROUND_NAMES))
_DELAY = slice(_BACKGROUND.stop, len(PARAM_NAMES))

_C = 2.0 * math.sqrt(2.0) * math.pi  # c = _C sqrt(v), z = a/c


def _mean_inverse(a, c, jet):
    """The mean M of 1/(a + 2 pi i (f_r - mu)) over f_r ~ N(mu, v), with
    a = gamma/2 + 2 pi i (mu - f_p) and c = _C sqrt(v), per point: (M,), or
    with ``jet`` (M, dM/da, dM/dv).  The line is 1 - e^{i phi} gamma_c M.

    Beyond |a| = 8c (|z| = 8), M = S/a, dM/da = 2T/a^2 and dM/dv = -4 pi^2 (T + 2U)/a^3
    from the series of `specfun._asymptotic` in q = (c/a)^2, finite at
    c = 0.  Inside it, with z = a/c, M = sqrt(pi) w/c, dM/da = sqrt(pi)
    w'/c^2 and dM/dv = -4 pi^2 sqrt(pi) g/c^3 from the erfcx jet (w, w', g).
    M is the same operations with or without ``jet``.
    """
    far = np.abs(a) > _SERIES_FROM * c
    return _per_point(far, (_mean_inverse_far, _mean_inverse_near), (a, c), jet)


def _mean_inverse_far(a, c, jet):
    inv = 1.0 / a
    u = c * inv
    parts = _asymptotic(u * u, jet)
    if not jet:
        return (parts[0] * inv,)
    S, T, T2U = parts
    inv2 = inv * inv
    return S * inv, 2.0 * T * inv2, -4.0 * math.pi**2 * T2U * inv2 * inv


def _mean_inverse_near(a, c, jet):
    z = a / c
    s = _SQRT_PI / c
    if not jet:
        return (s * erfcx(z),)
    w, dw, g = _erfcx_jet(z)
    return s * w, s * dw / c, -4.0 * math.pi**2 * s * g / (c * c)


def _line(mu, v, gamma_c, phi, gamma, f_p):
    # averaged line, scalars or broadcastable arrays; each probe point takes
    # its own side of |a| = 8c (see `_mean_inverse`)
    dprime = TWO_PI * (mu - f_p)
    [m] = _mean_inverse(gamma / 2.0 + 1j * dprime, _C * np.sqrt(v), jet=False)
    return 1.0 - np.exp(1j * phi) * gamma_c * m


def _background(s_b, f_b, gamma_bc, gamma_b, phi_b, f_p):
    delta_b = TWO_PI * (f_b - f_p)
    return s_b + np.exp(1j * phi_b) * gamma_bc / (gamma_b / 2.0 + 1j * delta_b)


def _delay(tau, varphi, f_p):
    return np.exp(1j * (f_p * tau + varphi))


def _scalars(x, part):
    """The entries ``part`` of a raw vector, one per helper argument: floats
    for a (12,) vector or a batch of one row, (B, 1) columns for a (B, 12)
    batch of more rows.  Each scalar operation on a (1, 1) column is a numpy
    array operation, so a batch of one takes the float path, and its callers
    put the row axis back with `_rows`."""
    sub = x[..., part]
    if sub.ndim == 1:
        return sub
    return sub[0] if len(sub) == 1 else sub.T[..., None]


def _rows(out, x):
    # the row axis of a batch of one, which `_scalars` dropped
    return out[None] if x.ndim == 2 and len(x) == 1 else out


def _chain_model(x, f_p):
    """Full chain response at a raw twelve-scalar vector in `PARAM_NAMES` order.

    ``x`` is one vector, giving shape f_p.shape, or a (B, 12) batch of rows,
    giving (B, len(f_p)).  No validation and no phase wrapping, so a fitter
    may move every scalar freely; `full_chain_response` is the same
    expression on the dataclasses.
    """
    x = np.asarray(x, dtype=float)
    value = _frame(x, f_p) * _line(*_scalars(x, _LINE), f_p)
    return _rows(value, x)


def _frame(x, f_p):
    """Delay times background: the factor of `_chain_model` that the line
    scalars leave alone, so one sweep's traces share it.  ``x`` is a (12,)
    vector, a batch of one row or a (B, 12) batch, as `_chain_model` takes
    it; ``frame * _line(...)`` is bitwise `_chain_model`'s value."""
    return _delay(*_scalars(x, _DELAY), f_p) * _background(*_scalars(x, _BACKGROUND), f_p)


def _line_jacobian(mu, v, gamma_c, phi, gamma, f_p):
    """Value of `_line` and its derivatives in `_LINE_NAMES` order.

    The value is formed in `_line`'s own operation order, so it is bitwise
    `_line`'s; the derivatives come from the same `_mean_inverse` call.
    v's column is the derivative in v itself, finite at v = 0, where it is
    half the second derivative of the bare line in mu.
    """
    dprime = TWO_PI * (mu - f_p)
    m, dm_da, dm_dv = _mean_inverse(gamma / 2.0 + 1j * dprime, _C * np.sqrt(v), jet=True)
    rot = np.exp(1j * phi)
    p = rot * gamma_c
    pm = p * m
    return 1.0 - pm, (
        -1j * TWO_PI * p * dm_da,
        -p * dm_dv,
        -rot * m,
        -1j * pm,
        -0.5 * p * dm_da,
    )


def _background_jacobian(s_b, f_b, gamma_bc, gamma_b, phi_b, f_p):
    """Value of `_background` and its derivatives in `_BACKGROUND_NAMES` order.

    The value is formed in `_background`'s own operation order, so it is
    bitwise `_background`'s.
    """
    delta_b = TWO_PI * (f_b - f_p)
    b = gamma_b / 2.0 + 1j * delta_b
    rot = np.exp(1j * phi_b)
    term = rot * gamma_bc / b
    return s_b + term, (
        np.ones_like(term),
        -1j * TWO_PI * term / b,
        rot / b,
        -term / (2.0 * b),
        1j * term,
    )


def _chain_jacobian(x, f_p, free):
    """`_chain_model` and the real Jacobian of its columns ``free``, in one pass.

    ``free`` lists column indices in `PARAM_NAMES`.  Returns (value, jac),
    value bitwise ``_chain_model(x, f_p)``.  jac stacks the real parts of
    the complex derivatives over their imaginary parts: (2 len(f_p),
    len(free)) for one vector, (B, 2 len(f_p), len(free)) for a (B, 12)
    batch of rows.  It is the transposed view of a (..., len(free),
    2 len(f_p)) array, so each column is contiguous, and each is written
    once.  The Voigt line takes one `_mean_inverse` jet call, shared by the
    value and the derivatives; the background and delay columns are
    elementary.
    """
    x = np.asarray(x, dtype=float)
    f_p = np.atleast_1d(np.asarray(f_p, dtype=float))
    delay = _delay(*_scalars(x, _DELAY), f_p)
    background, d_background = _background_jacobian(*_scalars(x, _BACKGROUND), f_p)
    line, d_line = _line_jacobian(*_scalars(x, _LINE), f_p)
    frame = delay * background
    value = frame * line
    line_delay = delay * line
    columns = (
        [(d, frame) for d in d_line]
        + [(d, line_delay) for d in d_background]
        + [(d, value) for d in (1j * f_p, 1j)]
    )
    m = f_p.size
    jac = np.empty(x.shape[:-1] + (len(free), 2 * m))
    for j, i in enumerate(free):
        d, factor = columns[i]
        column = d * factor
        jac[..., j, :m] = column.real
        jac[..., j, m:] = column.imag
    return _rows(value, x), np.swapaxes(jac, -1, -2)


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
    profile of the line.  Evaluated in v = sigma^2 (see the module
    docstring), so sigma = 0 gives the bare line at f_r = mu.
    """
    return _line(
        dist.mu, dist.sigma**2, res.gamma_c, res.phi, res.gamma, np.asarray(f_p, dtype=float)
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


def background_transfer(bg, f_p):
    """Output-path transfer function H(f_p) = s_b + e^{i phi_b} gamma_bc / (gamma_b/2 + i Delta_b).

    Delta_b = 2*pi*(f_b - f_p).
    """
    return _background(
        bg.s_b, bg.f_b, bg.gamma_bc, bg.gamma_b, bg.phi_b, np.asarray(f_p, dtype=float)
    )


def full_chain_response(res, dist, bg, line, f_p):
    """Everything the digitizer sees: delay/phase * background * averaged line.

    S11(f_p) = exp(i*(f_p*tau + varphi)) H(f_p) <S11(f_p)>

    Note the delay phase is f_p*tau with no 2*pi (tau in rad/Hz).  This is
    bitwise `_chain_model`, which the staged fits and the synthesis run on.
    """
    f_p = np.asarray(f_p, dtype=float)
    return (
        _delay(line.tau, line.varphi, f_p)
        * background_transfer(bg, f_p)
        * averaged_reflection(res, dist, f_p)
    )
