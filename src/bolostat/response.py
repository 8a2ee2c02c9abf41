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
raw vector and the fits carry v, not sigma.  Its one numerical kernel is
its mean M(a, c), `specfun._mean_inverse`, finite at v = 0.
"""

import math

import numpy as np

from .specfun import _mean_inverse

__all__ = [
    "PARAM_NAMES",
    "averaged_reflection_gh",
    "averaged_reflection_mc",
]

TWO_PI = 2.0 * math.pi


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

_C = 2.0 * math.sqrt(2.0) * math.pi  # c = _C sqrt(v) of `specfun._mean_inverse`


def _line(mu, v, gamma_c, phi, gamma, f_p, jet=False):
    """The averaged line at scalars or broadcastable arrays: its value, or
    with ``jet`` (value, derivatives in `_LINE_NAMES` order).

    The bare line S11 = 1 - e^{i phi} gamma_c / (gamma/2 + i Delta),
    Delta = 2*pi*(f_r - f_p), averaged over f_r ~ N(mu, v) in closed form:
    <S11> = 1 - e^{i phi} gamma_c M(gamma/2 + i Delta', c) with
    Delta' = 2*pi*(mu - f_p) and c = 2 sqrt(2) pi sqrt(v); v = 0 is the
    bare line at f_r = mu, and |<S11>| is the Voigt profile of the line.

    The value is the same operations with or without ``jet``, and the
    derivatives come from the same `_mean_inverse` call.  Each derivative
    is a function of no arguments that forms that column when called, so a
    caller pays only for the columns it uses.  v's column is the
    derivative in v itself, finite at v = 0, where it is half the second
    derivative of the bare line in mu.
    """
    dprime = TWO_PI * (mu - f_p)
    m, *dm = _mean_inverse(gamma / 2.0 + 1j * dprime, _C * np.sqrt(v), jet=jet)
    rot = np.exp(1j * phi)
    p = rot * gamma_c
    pm = p * m
    if not jet:
        return 1.0 - pm
    dm_da, dm_dv = dm
    return 1.0 - pm, (
        lambda: -1j * TWO_PI * p * dm_da,
        lambda: -p * dm_dv,
        lambda: -rot * m,
        lambda: -1j * pm,
        lambda: -0.5 * p * dm_da,
    )


def _background(s_b, f_b, gamma_bc, gamma_b, phi_b, f_p, jet=False):
    """The background H = s_b + e^{i phi_b} gamma_bc / (gamma_b/2 + i Delta_b),
    Delta_b = 2*pi*(f_b - f_p), or with ``jet`` (value, derivatives in
    `_BACKGROUND_NAMES` order), each derivative formed when called as in
    `_line`."""
    delta_b = TWO_PI * (f_b - f_p)
    b = gamma_b / 2.0 + 1j * delta_b
    rot = np.exp(1j * phi_b)
    term = rot * gamma_bc / b
    if not jet:
        return s_b + term
    return s_b + term, (
        lambda: np.ones_like(term),
        lambda: -1j * TWO_PI * term / b,
        lambda: rot / b,
        lambda: -term / (2.0 * b),
        lambda: 1j * term,
    )


def _delay(tau, varphi, f_p, jet=False):
    """The line delay's value, or with ``jet`` (value, logarithmic
    derivatives in `_DELAY_NAMES` order), derivative over value, each
    formed when called as in `_line`: the chain's columns are these times
    its value."""
    value = np.exp(1j * (f_p * tau + varphi))
    if not jet:
        return value
    return value, (lambda: 1j * f_p, lambda: 1j)


def _scalars(x, part):
    """The entries ``part`` of a raw vector, one per helper argument: floats
    for a (12,) vector, and for a (B, 12) batch whose rows all agree on
    ``part`` bit for bit (so +0.0 and -0.0 differ, and NaNs agree only
    where their bits do), else (B, 1) columns.  A factor whose scalars
    agree is so evaluated once, on the probe grid alone, and `_rows`
    broadcasts a value that every row shares back to the batch."""
    sub = x[..., part]
    if sub.ndim == 1:
        return sub
    raw = sub.tobytes()
    return sub[0] if raw == raw[: len(raw) // len(sub)] * len(sub) else sub.T[..., None]


def _rows(value, x):
    # a value every row of a batch shares, broadcast back to the batch
    return value if value.ndim == x.ndim else np.broadcast_to(value, x.shape[:-1] + value.shape)


# `_chain_model` evaluates the lines of at most this many probe points of a
# batch with one `_line` call
_LINE_BLOCK_POINTS = 2**13


def _chain_model(x, f_p):
    """Full chain response at a raw twelve-scalar vector in `PARAM_NAMES` order.

    ``x`` is one vector, giving shape f_p.shape, or a (B, 12) batch of rows,
    giving a new (B, len(f_p)) array.  It is delay times background times
    the averaged line, S11(f_p) = exp(i*(f_p*tau + varphi)) H(f_p) <S11(f_p)>,
    the delay phase with no 2*pi (tau in rad/Hz).  No validation and no
    phase wrapping, so a fitter may move every scalar freely.

    Delay times background is formed in one pass over the batch, on the
    probe grid alone where the rows agree on its scalars (see `_scalars`).
    The lines are formed a block of rows at a time, one `_line` call per
    block of at most `_LINE_BLOCK_POINTS` points, since one call over a
    long batch would hold several batch-sized temporaries at once.  Each
    row is bitwise the call on that row alone.
    """
    x = np.asarray(x, dtype=float)
    frame = _delay(*_scalars(x, _DELAY), f_p) * _background(*_scalars(x, _BACKGROUND), f_p)
    if x.ndim == 1:
        return frame * _line(*_scalars(x, _LINE), f_p)
    out = np.empty((len(x), np.size(f_p)), dtype=complex)
    frame = np.broadcast_to(frame, out.shape)
    per_block = max(1, _LINE_BLOCK_POINTS // out.shape[1])
    for start in range(0, len(x), per_block):
        block = slice(start, start + per_block)
        np.multiply(frame[block], _line(*_scalars(x[block], _LINE), f_p), out=out[block])
    return out


def _chain_jacobian(x, f_p, free, out=None):
    """`_chain_model` and the real Jacobian of its columns ``free``, in one pass.

    ``free`` lists column indices in `PARAM_NAMES`.  Returns (value, jac),
    value bitwise ``_chain_model(x, f_p)``.  jac stacks the real parts of
    the complex derivatives over their imaginary parts: (2 len(f_p),
    len(free)) for one vector, (B, 2 len(f_p), len(free)) for a (B, 12)
    batch of rows.  It is the transposed view of a (..., len(free),
    2 len(f_p)) array, ``out`` when one is given, so each column is
    contiguous, and each is written once.  Only the free columns'
    derivatives are formed.  Each factor is its own function called with
    ``jet=True``, so its value is bitwise the one `_chain_model` forms;
    the Voigt line takes one `_mean_inverse` jet call, shared by the value
    and the derivatives, and the background and delay columns are
    elementary.  A factor whose scalars every row of a batch agrees on
    (see `_scalars`) is formed once, on the probe grid alone, with its
    columns.
    """
    x = np.asarray(x, dtype=float)
    f_p = np.atleast_1d(np.asarray(f_p, dtype=float))
    delay, d_delay = _delay(*_scalars(x, _DELAY), f_p, jet=True)
    background, d_background = _background(*_scalars(x, _BACKGROUND), f_p, jet=True)
    line, d_line = _line(*_scalars(x, _LINE), f_p, jet=True)
    frame = delay * background
    value = frame * line
    line_delay = delay * line
    columns = (
        [(d, frame) for d in d_line]
        + [(d, line_delay) for d in d_background]
        + [(d, value) for d in d_delay]
    )
    m = f_p.size
    if out is None:
        out = np.empty(x.shape[:-1] + (len(free), 2 * m))
    for j, i in enumerate(free):
        d, factor = columns[i]
        column = d() * factor
        out[..., j, :m] = column.real
        out[..., j, m:] = column.imag
    return _rows(value, x), np.swapaxes(out, -1, -2)


def averaged_reflection_gh(mu, v, gamma_c, phi, gamma, f_p, n_nodes=64):
    """Gauss-Hermite quadrature of the bare line over f_r ~ N(mu, v).

    Independent cross-check for `_line`, taking its five line scalars;
    sigma = sqrt(v).  Converges extremely fast while sigma stays below
    roughly a third of the linewidth gamma/(2*pi); for broader
    distributions the integrand's pole sits too close to the node line and
    more nodes are required (the convergence factor is about
    exp(-2*d*sqrt(2*n+1)) with d = gamma/(4*sqrt(2)*pi*sigma)).
    """
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    f_r = mu + math.sqrt(2.0) * math.sqrt(v) * nodes
    f_p = np.atleast_1d(np.asarray(f_p, dtype=float))
    # the bare line on the (f_r, f_p) outer grid
    vals = _line(f_r[:, None], 0.0, gamma_c, phi, gamma, f_p[None, :])
    out = (weights[:, None] * vals).sum(axis=0) / math.sqrt(math.pi)
    return out if out.size > 1 else complex(out[0])


_MC_BLOCK_POINTS = 2**16


def averaged_reflection_mc(mu, v, gamma_c, phi, gamma, f_p, n_samples, seed):
    """Monte-Carlo average of the bare line over f_r ~ N(mu, v).

    Brute-force oracle for `_line`, taking its five line scalars; sigma =
    sqrt(v).  Draws come from a counter-based Philox generator keyed by
    ``seed``, so the result is reproducible; the reduction order over
    blocks of draws is fixed.

    The sum runs in real arithmetic: with a + ib = gamma/2 + i*2*pi*(f_r - f_p),
    the bare line is 1 - e^{i phi} gamma_c (a - ib)/(a^2 + b^2), so only
    sum 1/(a^2 + b^2) and sum b/(a^2 + b^2) are accumulated.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    f_p = np.atleast_1d(np.asarray(f_p, dtype=float))
    rng = np.random.Generator(np.random.Philox(seed))
    sigma = math.sqrt(v)
    a = gamma / 2.0
    sum_inv = np.zeros(f_p.shape)
    sum_b_inv = np.zeros(f_p.shape)
    # the (draw, f_p) grid is built a cache-sized block of rows at a time
    rows = max(1, _MC_BLOCK_POINTS // f_p.size)
    for start in range(0, n_samples, rows):
        f_r = rng.normal(mu, sigma, min(rows, n_samples - start))
        b = f_r[:, None] - f_p[None, :]
        b *= TWO_PI
        inv = b * b
        inv += a * a
        np.reciprocal(inv, out=inv)
        sum_inv += inv.sum(axis=0)
        b *= inv
        sum_b_inv += b.sum(axis=0)
    mean_inverse = (a * sum_inv - 1j * sum_b_inv) / n_samples
    out = 1.0 - np.exp(1j * phi) * gamma_c * mean_inverse
    return out if out.size > 1 else complex(out[0])
