"""Nonlinear and linear fitting machinery for complex reflection traces.

The workhorse is a damped Gauss-Newton (Levenberg-Marquardt) engine operating
on stacked real/imaginary residuals.  Its one loop, `_lm`, carries a leading
batch axis of independent fits, each with its own damping and convergence
test, and evaluates the residual and the Jacobian together, once per trial
point.  Two routines enter it: `least_squares` runs a single fit, with the
caller's Jacobian, as a batch of one, and `_fit_free` runs the staged fits
as batches of the chain model with `response`'s closed-form
`_chain_jacobian`, one call of the line's jet per trial point.  The loop takes a
real Jacobian, the real parts of the complex columns over their imaginary
parts, (B, 2m, n) with each column contiguous; `_chain_jacobian` writes
only the free columns, straight into that layout.  The broadening is the
variance v = sigma**2 everywhere in the staged fits: the box, the steps,
the FitResults and their covariances; the line is analytic in v down to
v = 0, the zero-input answer.  On top of them sit the resonance extractors
used by the pipeline:

* `circle_fit`        -- algebraic circle + phase-slope extraction of the bare line
* `polynomial_fit`    -- plain least-squares polynomial, ascending coefficients
* `fit_base_calibration` / `fit_measurements` -- the staged full-model procedure:
  all twelve chain parameters are fitted once on a reference (base) trace,
  six of them are then frozen, and every subsequent trace refits only
  {mu, v, gamma_c, phi, f_b, phi_b}, all traces of a sweep in one batch.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .response import (
    PARAM_NAMES,
    PHASE_NAMES,
    ResonatorParams,
    _chain_jacobian,
    _chain_model,
)

__all__ = [
    "ComplexSweep",
    "FitResult",
    "CalibrationResult",
    "FitError",
    "RankDeficiencyError",
    "DegenerateCircleError",
    "DegenerateSigmaWarning",
    "PARAM_NAMES",
    "FROZEN_PARAM_NAMES",
    "MEASUREMENT_PARAM_NAMES",
    "least_squares",
    "circle_fit",
    "polynomial_fit",
    "fit_base_calibration",
    "fit_measurements",
    "wrap_angle",
]

TWO_PI = 2.0 * math.pi

# LM tolerances: relative cost decrease and scaled projected gradient that
# count as converged
_FRTOL = 1e-10
_GTOL = 1e-8

# position of each chain scalar in a raw vector (order: PARAM_NAMES)
_AT = {name: i for i, name in enumerate(PARAM_NAMES)}

# fixed after the base-temperature calibration; single source of truth for
# the frozen/free split (change here to re-partition the staged fit)
FROZEN_PARAM_NAMES = ("gamma", "s_b", "gamma_bc", "gamma_b", "tau", "varphi")

MEASUREMENT_PARAM_NAMES = tuple(n for n in PARAM_NAMES if n not in FROZEN_PARAM_NAMES)


class FitError(RuntimeError):
    """A fit could not be carried out on the given data."""


class RankDeficiencyError(FitError):
    """The normal equations are singular; names the degenerate directions."""


class DegenerateCircleError(FitError):
    """Circle fit received (near-)collinear data."""


class DegenerateSigmaWarning(UserWarning):
    """A measurement trace's fitted broadening ended at v = 0, its lower bound."""


def wrap_angle(angle):
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class ComplexSweep:
    """Ordered probe-frequency grid with one complex reflection sample each."""

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.freqs.ndim != 1 or self.values.ndim != 1:
            raise ValueError("freqs and values must be one-dimensional")
        if self.freqs.size != self.values.size:
            raise ValueError(
                f"length mismatch: {self.freqs.size} freqs vs {self.values.size} values"
            )
        if not (np.all(np.isfinite(self.freqs)) and np.all(np.isfinite(self.values))):
            raise ValueError("freqs and values must be finite")
        if self.freqs.size >= 2 and not np.all(np.diff(self.freqs) > 0):
            raise ValueError("freqs must be strictly increasing")

    def __len__(self):
        return self.freqs.size


def _require_points(sweep, n, what):
    if len(sweep) < n:
        raise FitError(f"{what} needs at least {n} points, got {len(sweep)}")


@dataclass
class FitResult:
    """Outcome of one damped least-squares run.

    ``params`` is the fitted scalar vector, ``residual_norm`` the RMS complex
    residual per point, ``covariance`` the usual SSR/(m-n) * (J^T J)^-1
    estimate (None when it cannot be formed), ``converged`` whether a
    convergence test fired before the iteration cap, ``grad_norm`` the
    largest column-scaled gradient component at the last Jacobian, leaving
    out those that push into an active bound.
    """

    params: np.ndarray
    residual_norm: float
    covariance: np.ndarray | None
    n_iter: int
    converged: bool
    grad_norm: float = float("nan")
    param_names: tuple = ()


def least_squares(
    model,
    sweep,
    init,
    bounds=None,
    max_iter=200,
    scales=None,
    param_names=(),
    *,
    jac,
):
    """Damped Gauss-Newton minimizer of sum |model(f_i) - value_i|^2.

    Parameters
    ----------
    model : callable(params, freqs) -> complex ndarray
        Parametric trace model, defined on every sweep frequency.
    sweep : ComplexSweep
        Data to fit (>= 8 points).
    init : array_like
        Starting parameter vector, inside the bounds.
    bounds : (lo, hi) pair of arrays, optional
        Per-parameter box; steps are projected onto it.  Infinite entries
        leave a side open.
    scales : array_like, optional
        Natural magnitude of each parameter, used for conditioning; defaults
        to |init| where nonzero.
    param_names : tuple of str, optional
        Used in diagnostics, e.g. to name rank-deficient directions.
    jac : callable(params, freqs) -> complex ndarray
        Jacobian of ``model``, shape (len(freqs), len(params)); required.

    Returns
    -------
    FitResult
        Hitting the iteration cap yields ``converged=False`` rather than an
        exception; structurally singular normal equations raise
        `RankDeficiencyError`.

    Notes
    -----
    The Jacobian is the caller's, evaluated with the model at the start, at
    every trial point and at the polish step, so a point the fit accepts
    keeps the Jacobian it was evaluated with.  Steps solve
    the column-scaled damped normal equations; the damping factor is increased
    until the cost decreases, so the residual norm is non-increasing across
    accepted iterations.  The fit has converged when the projected,
    column-scaled gradient falls below 1e-8*max(1, cost), or when an
    essentially undamped step lowers the cost by less than 1e-10 relative.
    Deterministic: identical inputs give identical iterates.  The fit is a
    batch of one of the LM loop that the staged fits run through `_fit_free`.
    """
    _require_points(sweep, 8, "least_squares")
    freqs, data = sweep.freqs, sweep.values
    x = np.asarray(init, dtype=float).copy()
    n = x.size
    if bounds is None:
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
    else:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
    if np.any(x < lo) or np.any(x > hi):
        raise FitError("initial parameters lie outside the bounds")
    if scales is None:
        scales = np.where(np.abs(x) > 0, np.abs(x), 1.0)
    else:
        scales = np.maximum(np.asarray(scales, dtype=float), 1e-300)
    names = tuple(param_names) or tuple(f"p{i}" for i in range(n))

    def evaluate(X, rows):
        r = model(X[0], freqs) - data
        Jc = jac(X[0], freqs)
        return np.concatenate([r.real, r.imag])[None], np.concatenate([Jc.real, Jc.imag])[None]

    [fit], [failure] = _lm(evaluate, x[None], lo, hi, scales[None], names, max_iter)
    if failure is not None:
        raise RankDeficiencyError(failure)
    return fit


def _sum_squares(r):
    # each row's r @ r
    return np.array([row @ row for row in r])


def _solve_rows(M, b):
    """x with M[k] x[k] = b[k] for every row k; NaN rows where M[k] is singular."""
    try:
        return np.linalg.solve(M, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for k in range(len(b)):
            try:
                x[k] = np.linalg.solve(M[k], b[k])
            except np.linalg.LinAlgError:
                pass
        return x


def _gram(Js):
    # Js^T Js of every row
    return np.swapaxes(Js, 1, 2) @ Js


def _singular(names, which):
    return "normal equations are singular; degenerate directions: " + ", ".join(
        names[i] for i in which
    )


def _lm(evaluate, x0, lo, hi, scales, names, max_iter):
    """Levenberg-Marquardt over a batch of independent fits; the one LM loop.

    Row k of the (B, n) start ``x0`` minimizes the sum of squares of its
    residual within the box (``lo``, ``hi``, broadcast against ``x0``).
    ``evaluate(X, rows)`` returns, at the points X (len(rows), n) of the
    batch rows ``rows``, their real residuals (len(rows), m) and Jacobians
    (len(rows), m, n).  It is called once at the start, once per trial step
    over the rows trying one, and once for the polish step: a row keeps the
    Jacobian of the point it accepts, so no point is evaluated twice, and
    the covariance is formed at the returned point.  Every row keeps its
    own damping, convergence test, polish step and covariance, so it
    follows the iterates it would follow alone; each step evaluates only
    the rows still iterating.  A column that is flat and pinned at its
    bound leaves its row's solve through an identity row and column.

    Returns (fits, failures): a `FitResult` per row, and per row None or the
    message of the singular normal equations that stopped it there, with
    its last accepted point and ``converged=False``.
    """
    x = np.array(x0, dtype=float)
    n_rows, n = x.shape
    lo, hi, scales = (np.broadcast_to(np.asarray(a, dtype=float), x.shape) for a in (lo, hi, scales))
    eye = np.eye(n)
    diag = np.arange(n)
    r, J = evaluate(x, np.arange(n_rows))  # each row's residual and Jacobian at x
    n_points = r.shape[1] / 2  # complex samples
    cost = _sum_squares(r)
    lam = np.full(n_rows, 1e-3)
    converged = np.zeros(n_rows, dtype=bool)
    grad_inf = np.full(n_rows, np.nan)
    n_iter = np.zeros(n_rows, dtype=int)
    failures = [None] * n_rows
    pending = np.arange(n_rows)
    for it in range(1, max_iter + 1):
        if pending.size == 0:
            break
        n_iter[pending] = it
        Jp = J[pending]
        col = np.linalg.norm(Jp, axis=1)
        # degeneracy is judged per natural-scale step, so that columns with
        # wildly different units are comparable
        col_nat = col * scales[pending]
        dead = col_nat <= col_nat.max(axis=1, keepdims=True) * 1e-14
        at_lo = (x[pending] - lo[pending]) <= 1e-12 * scales[pending]
        at_hi = (hi[pending] - x[pending]) <= 1e-12 * scales[pending]
        # a flat direction pinned at its bound is inactive, not singular
        interior_dead = dead & ~(at_lo | at_hi)
        for k in np.nonzero(interior_dead.any(axis=1))[0]:
            failures[pending[k]] = _singular(names, np.nonzero(interior_dead[k])[0])
        go = ~interior_dead.any(axis=1)
        pinned = go & dead.all(axis=1)
        converged[pending[pinned]] = True  # every direction pinned at a bound
        go &= ~pinned

        ca = np.where(dead, 1.0, col)
        Js = Jp / ca[:, None, :]
        if dead.any():
            Js = np.where(dead[:, None, :], 0.0, Js)
        grad_s = (np.swapaxes(Js, 1, 2) @ r[pending][..., None])[..., 0]
        # components pushing into an active bound cannot move, so only the
        # projected gradient has to vanish at a (bound-constrained) optimum
        blocked = dead | (at_lo & (grad_s > 0)) | (at_hi & (grad_s < 0))
        grad = np.where(blocked, 0.0, np.abs(grad_s)).max(axis=1)
        grad_inf[pending[go]] = grad[go]
        small = go & (grad < _GTOL * np.maximum(1.0, cost[pending]))
        converged[pending[small]] = True
        go = np.nonzero(go & ~small)[0]  # positions in pending that take a step

        A = _gram(Js[go])
        A[:, diag, diag] += dead[go]  # an inactive column solves to a zero step
        singvals = np.linalg.svd(A, compute_uv=False)
        singular = singvals[:, -1] < singvals[:, 0] * 1e-28
        for k in np.nonzero(singular)[0]:
            _, _, vt = np.linalg.svd(A[k])
            failures[pending[go[k]]] = _singular(names, np.nonzero(np.abs(vt[-1]) > 0.3)[0])
        go, A = go[~singular], A[~singular]
        rows, grad_s, ca = pending[go], grad_s[go], ca[go]
        del Jp, Js  # the trial evaluations below need the room

        # each row raises its own damping until its cost decreases
        accepted = np.zeros(rows.size, dtype=bool)
        stop = np.zeros(rows.size, dtype=bool)
        trying = np.nonzero(lam[rows] < 1e14)[0]
        while trying.size:
            t = rows[trying]
            step_s = _solve_rows(A[trying] + lam[t][:, None, None] * eye, -grad_s[trying])
            solved = np.all(np.isfinite(step_s), axis=1)
            lam[t[~solved]] *= 10.0
            trying, t, step_s = trying[solved], t[solved], step_s[solved]
            if trying.size:
                x_new = np.clip(x[t] + step_s / ca[trying], lo[t], hi[t])
                r_new, J_new = evaluate(x_new, t)
                cost_new = _sum_squares(r_new)
                better = cost_new < cost[t]
                b = t[better]
                rel_change = (cost[b] - cost_new[better]) / np.maximum(cost[b], 1e-300)
                x[b], r[b], J[b], cost[b] = x_new[better], r_new[better], J_new[better], cost_new[better]
                # a small relative decrease only counts as convergence once
                # the step is essentially undamped (pure Gauss-Newton)
                stop[trying[better]] = converged[b] = (rel_change < _FRTOL) & (lam[b] <= 1e-6)
                lam[b] = np.maximum(lam[b] / 5.0, 1e-12)
                accepted[trying[better]] = True
                lam[t[~better]] *= 10.0
            trying = np.nonzero(~accepted & (lam[rows] < 1e14))[0]
        # no decrease at any damping: at a stationary point unless the
        # projected gradient is still large
        stuck = rows[~accepted]
        converged[stuck] = grad_inf[stuck] < 1e-4 * np.maximum(1.0, cost[stuck])
        pending = rows[accepted & ~stop]

    done = np.nonzero(converged)[0]
    if done.size:
        # one undamped Gauss-Newton polish: the cost surface is too flat
        # near the optimum for cost differences to certify full parameter
        # precision, but the pure step lands on the stationary point
        col = np.linalg.norm(J[done], axis=1)
        col[col == 0] = 1.0
        Js = J[done] / col[:, None, :]
        grad = (np.swapaxes(Js, 1, 2) @ r[done][..., None])[..., 0]
        step = _solve_rows(_gram(Js) + 1e-12 * eye, -grad)
        solved = np.all(np.isfinite(step), axis=1)
        done, step, col = done[solved], step[solved], col[solved]
        if done.size:
            x_new = np.clip(x[done] + step / col, lo[done], hi[done])
            r_new, J_new = evaluate(x_new, done)
            cost_new = _sum_squares(r_new)
            keep = cost_new <= cost[done] * (1.0 + 1e-12)
            kept = done[keep]
            x[kept], r[kept], J[kept], cost[kept] = x_new[keep], r_new[keep], J_new[keep], cost_new[keep]

    return [
        FitResult(
            params=x[k].copy(),
            residual_norm=math.sqrt(cost[k] / n_points),
            covariance=None if failures[k] else _covariance(J[k], cost[k], J.shape[1], n),
            n_iter=int(n_iter[k]),
            converged=bool(converged[k]),
            grad_norm=float(grad_inf[k]),
            param_names=names,
        )
        for k in range(n_rows)
    ], failures


def _covariance(J, cost, m, n):
    if m <= n:
        return None
    A = J.T @ J
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return None
    return inv * (cost / (m - n))


# ---------------------------------------------------------------------------
# circle fit


def _fit_circle_algebraic(z):
    """Algebraic (Kasa) circle fit on centered data; returns (center, radius).

    Solves |z|^2 = 2*xc*x + 2*yc*y + (r^2 - |c|^2) in the least-squares
    sense.  Collinear input makes the design matrix rank-deficient, which is
    reported instead of returning an absurd radius.
    """
    x, y = z.real, z.imag
    xm, ym = x.mean(), y.mean()
    u, v = x - xm, y - ym
    scale = max(float(np.abs(u + 1j * v).max()), 1e-300)
    u, v = u / scale, v / scale
    w = u * u + v * v
    design = np.column_stack([2.0 * u, 2.0 * v, np.ones_like(u)])
    coeffs, _, rank, sv = np.linalg.lstsq(design, w, rcond=None)
    if rank < 3 or sv[-1] < 1e-12 * sv[0]:
        raise DegenerateCircleError("circle fit degenerate: data are collinear")
    uc, vc, const = coeffs
    r2 = const + uc * uc + vc * vc
    if not r2 > 0:
        raise DegenerateCircleError("circle fit degenerate: non-positive radius")
    center = complex(uc * scale + xm, vc * scale + ym)
    return center, math.sqrt(r2) * scale


def _phase_model(x, freqs):
    theta0, f_r, gamma = x
    return theta0 + 2.0 * np.arctan(2.0 * TWO_PI * (freqs - f_r) / gamma) + 0j


def _phase_jacobian(x, freqs):
    """Jacobian of `_phase_model` in closed form: (len(freqs), 3)."""
    _, f_r, gamma = x
    u = 2.0 * TWO_PI * (freqs - f_r) / gamma
    w = 2.0 / (1.0 + u * u)  # d(2 arctan u)/du
    return np.column_stack([np.ones_like(u), -w * 2.0 * TWO_PI / gamma, -w * u / gamma]) + 0j


def circle_fit(sweep):
    """Extract ResonatorParams from a reflection trace by the circle method.

    Fits an algebraic circle to the complex trace, then the phase of the
    centered data against theta(f) = theta0 + 2*arctan(2*2pi*(f - f_r)/gamma)
    for the resonance frequency and total rate; the coupling rate follows
    from the circle radius and the asymmetry angle from the rotation of the
    off-resonant point.  The sweep should span a few linewidths around the
    resonance.
    """
    _require_points(sweep, 8, "circle_fit")
    z = sweep.values
    center, radius = _fit_circle_algebraic(z)
    centered = z - center
    theta = np.unwrap(np.angle(centered))
    dtheta = np.abs(np.gradient(theta, sweep.freqs))
    k0 = int(np.argmax(dtheta))
    f_r0 = float(sweep.freqs[k0])
    gamma0 = 8.0 * math.pi / max(dtheta[k0], 1e-300)
    theta00 = float(0.5 * (theta[0] + theta[-1]))
    phase_sweep = ComplexSweep(freqs=sweep.freqs, values=theta.astype(complex))
    res = least_squares(
        _phase_model,
        phase_sweep,
        init=[theta00, f_r0, gamma0],
        bounds=(
            [-np.inf, sweep.freqs[0], 1e-6 * gamma0],
            [np.inf, sweep.freqs[-1], 1e6 * gamma0],
        ),
        param_names=("theta0", "f_r", "gamma"),
        jac=_phase_jacobian,
    )
    theta0, f_r, gamma = res.params
    off_resonant = center + radius * np.exp(1j * (theta0 + math.pi))
    scale = abs(off_resonant)
    if scale == 0:
        raise DegenerateCircleError("circle fit degenerate: off-resonant point at origin")
    gamma_c = radius * gamma / scale
    phi = wrap_angle(theta0 + math.pi - np.angle(off_resonant))
    return ResonatorParams(
        f_r=float(f_r), gamma_c=float(min(gamma_c, gamma)), gamma=float(gamma), phi=phi
    )


# ---------------------------------------------------------------------------
# real-valued helpers


def polynomial_fit(x, y, degree):
    """Least-squares polynomial coefficients in ascending order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if x.size <= degree:
        raise FitError(
            f"polynomial fit of degree {degree} is underdetermined with {x.size} points"
        )
    return np.polynomial.polynomial.polyfit(x, y, degree)


# ---------------------------------------------------------------------------
# staged full-model fitting


@dataclass
class CalibrationResult:
    """Output of the base-temperature calibration.

    ``fit.params`` holds all twelve fitted scalars in `PARAM_NAMES` order;
    every subsequent `fit_measurements` holds the entries named in
    `FROZEN_PARAM_NAMES` at these values.  ``misfit_flag`` is set when the
    residual stayed above both ``residual_tol`` of the trace span and the
    trace's own noise level (e.g. the background model missed a resonance
    present in the data).
    """

    fit: FitResult
    misfit_flag: bool


def _chain_vector(x, what):
    """``x`` as a float copy; a ValueError unless it is twelve finite scalars."""
    x = np.array(x, dtype=float)
    if x.shape != (len(PARAM_NAMES),) or not np.all(np.isfinite(x)):
        raise ValueError(f"{what}: expected {len(PARAM_NAMES)} finite scalars in PARAM_NAMES order")
    return x


def _noise_rms(residual):
    """RMS of the complex noise on a trace, from its fit residual.

    A misfit left in the residual is smooth on the probe grid, so it mostly
    cancels in the first differences, while white noise of RMS s gives them
    RMS sqrt(2)*s.  Differencing the residual rather than the trace keeps
    the line itself out of the estimate, however coarse the grid.
    """
    return math.sqrt(np.mean(np.abs(np.diff(residual)) ** 2) / 2.0)


# A residual within this margin of the noise estimate is noise, not misfit:
# on white noise their ratio has a spread of about 0.35/sqrt(n) at 41 to 451
# points, so the margin 1 + _NOISE_MARGIN/sqrt(n) sits ten spreads above 1.
_NOISE_MARGIN = 4.0


def _default_bounds(freqs, gamma_scale):
    """(lo, hi) box of the twelve chain scalars; v's lower bound is 0."""
    span = freqs[-1] - freqs[0]
    box = {name: (-np.inf, np.inf) for name in PHASE_NAMES}
    box.update(
        mu=(freqs[0], freqs[-1]),
        v=(0.0, 20e6**2),
        gamma_c=(1e-6 * gamma_scale, 1e3 * gamma_scale),
        gamma=(1e-3 * gamma_scale, 1e3 * gamma_scale),
        s_b=(1e-6, 1e6),
        f_b=(freqs[0] - 2.0 * span, freqs[-1] + 2.0 * span),
        gamma_bc=(1e-6 * gamma_scale, 1e6 * gamma_scale),
        gamma_b=(1e-3 * gamma_scale, 1e6 * gamma_scale),
        tau=(0.0, TWO_PI / max(float(np.min(np.diff(freqs))), 1e-300)),  # below grid alias
    )
    lo, hi = zip(*(box[name] for name in PARAM_NAMES))
    return np.array(lo), np.array(hi)


def _scales(x0, freqs):
    span = freqs[-1] - freqs[0]
    center = 0.5 * (freqs[0] + freqs[-1])
    s = np.maximum(np.abs(x0), 1e-300)  # x0: one vector or a (B, 12) batch
    for name in ("mu", "f_b"):
        s[..., _AT[name]] = np.maximum(s[..., _AT[name]], span)
    for name in PHASE_NAMES:
        s[..., _AT[name]] = 1.0
    s[..., _AT["tau"]] = np.maximum(s[..., _AT["tau"]], 1.0 / center)  # one radian of delay phase
    # a broadening of 1e-3 of the span at least: from a start at v = 0 a
    # scale of |v| would make its column look dead
    s[..., _AT["v"]] = np.maximum(s[..., _AT["v"]], (1e-3 * span) ** 2)
    return s


def _fit_free(freqs, data, base, starts, free, lo, hi, scales, max_iter):
    """The staged fit's one routine: an LM fit of the entries ``free`` of each
    row of a batch, the other entries held at ``base``.

    Row k of the (B, 12) ``starts`` is fitted against row k of the (B, m)
    complex ``data`` on the grid ``freqs``, within the box (``lo``, ``hi``);
    ``scales`` is one 12-vector or a (B, 12) batch.  The rows make one
    `_lm` call, and each of its evaluations is one `_chain_jacobian` call
    (value and Jacobian together) over the rows it evaluates.  That call
    writes only the free columns, each once, straight into the real
    (B, 2m, n) array `_lm` takes (real parts over imaginary parts, each
    column contiguous), so no complex Jacobian is copied or stacked.

    Returns (X, fits, failures): the fitted (B, 12) vectors, and `_lm`'s
    FitResult (over the free entries) and failure per row.
    """

    def full(xf):
        X = np.empty((len(xf), base.size))
        X[:] = base
        X[:, free] = xf
        return X

    def evaluate(xf, rows):
        value, J = _chain_jacobian(full(xf), freqs, free)
        r = value - data[rows]
        return np.concatenate([r.real, r.imag], axis=1), J

    fits, failures = _lm(
        evaluate,
        starts[:, free],
        lo[free],
        hi[free],
        scales[..., free],
        tuple(PARAM_NAMES[i] for i in free),
        max_iter,
    )
    return full([fit.params for fit in fits]), fits, failures


def fit_base_calibration(sweep, init, residual_tol=1e-3, max_iter=200):
    """Fit all twelve chain parameters on a reference (base) trace.

    The fit is staged: first everything except the broadening is fitted
    with v held at its initial value (on a base trace the broadening is at
    or near 0 and carries no signal until the rest of the chain is roughly
    right), then all twelve parameters are released.  Each stage is a
    `_fit_free` batch of one.  A base trace fitted at v = 0 is the
    zero-input answer, so it raises no warning.

    Parameters
    ----------
    sweep : ComplexSweep
    init : array_like
        Starting point, the twelve scalars in `PARAM_NAMES` order (e.g.
        truth perturbed by a few percent, or heuristics); it is clipped into
        the fit box, so it need not be a physical chain.
    residual_tol : float
        RMS residual per point, relative to the trace magnitude span, above
        which the calibration is flagged as a model mismatch, unless the
        residual is also within the trace's own noise level (see
        `_noise_rms`).

    Returns
    -------
    CalibrationResult
        Singular normal equations in either stage raise
        `RankDeficiencyError`.
    """
    _require_points(sweep, 8, "fit_base_calibration")
    x0 = _chain_vector(init, "init")
    lo, hi = _default_bounds(sweep.freqs, gamma_scale=x0[_AT["gamma"]])
    X = np.clip(x0, lo, hi)[None]
    scales = _scales(X[0], sweep.freqs)

    every = list(range(len(PARAM_NAMES)))
    stage_a = [i for i in every if i != _AT["v"]]
    for free in (stage_a, every):
        X, [fit], [failure] = _fit_free(
            sweep.freqs, sweep.values[None], X[0], X, free, lo, hi, scales, max_iter
        )
        if failure is not None:
            raise RankDeficiencyError(failure)
    span = float(np.ptp(np.abs(sweep.values)))
    residual = _chain_model(X[0], sweep.freqs) - sweep.values
    noise = (1.0 + _NOISE_MARGIN / math.sqrt(len(sweep))) * _noise_rms(residual)
    misfit = fit.residual_norm > max(residual_tol * max(span, 1e-300), noise)
    return CalibrationResult(fit=fit, misfit_flag=misfit)


def fit_measurements(sweeps, calibration, init_hints=None, max_iter=200):
    """Fit {mu, v, gamma_c, phi, f_b, phi_b} to every trace of a sweep.

    The six parameters named in `FROZEN_PARAM_NAMES` are held at their
    calibrated values.  For each trace, mu is initialized at the magnitude
    minimum and sigma = sqrt(v) at 10% of the apparent linewidth; the nuisance
    parameters start from the calibration.  ``init_hints``, one entry per
    trace that is None or a twelve-scalar vector in `PARAM_NAMES` order,
    overrides those starting values; frozen entries are ignored.

    The traces must share one probe grid.  They are fitted as one
    `_fit_free` batch: every trial step makes one `_chain_jacobian` call,
    value and Jacobian together, over the traces taking it, while each
    trace keeps its own damping and convergence test.  A trace whose normal
    equations go singular stops there: its FitResult holds its last
    accepted point with ``converged=False``, and the other traces go on.

    Returns
    -------
    list of (mu, sigma, FitResult), in the order of ``sweeps``
        sigma is sqrt(v); the FitResult is in v.  A `DegenerateSigmaWarning`
        is emitted for each trace whose v ends at 0.
    """
    sweeps = list(sweeps)
    hints = [None] * len(sweeps) if init_hints is None else list(init_hints)
    if len(hints) != len(sweeps):
        raise ValueError(f"init_hints: {len(hints)} entries for {len(sweeps)} traces")
    if not sweeps:
        return []
    freqs = sweeps[0].freqs
    for sweep in sweeps:
        _require_points(sweep, 8, "fit_measurements")
        if not np.array_equal(sweep.freqs, freqs):
            raise ValueError("fit_measurements: the traces must share one probe grid")
    x = calibration.fit.params
    lo, hi = _default_bounds(freqs, gamma_scale=x[_AT["gamma"]])
    free = [_AT[n] for n in MEASUREMENT_PARAM_NAMES]
    starts = np.array([_measurement_start(s, x, h) for s, h in zip(sweeps, hints)])
    X = np.tile(x, (len(sweeps), 1))
    X[:, free] = np.clip(starts[:, free], lo[free], hi[free])  # held entries stay as calibrated
    data = np.array([sweep.values for sweep in sweeps])
    X, fits, _ = _fit_free(freqs, data, x, X, free, lo, hi, _scales(X, freqs), max_iter)
    for v in X[:, _AT["v"]]:
        if v <= lo[_AT["v"]]:
            warnings.warn("fitted broadening ended at v = 0", DegenerateSigmaWarning, stacklevel=2)
    return [
        (float(x_fit[_AT["mu"]]), math.sqrt(x_fit[_AT["v"]]), fit) for x_fit, fit in zip(X, fits)
    ]


def _measurement_start(sweep, x, hint):
    """Starting vector of one trace's fit: ``hint``, or ``x`` with mu and
    v read off the trace."""
    if hint is not None:
        return _chain_vector(hint, "init_hint")
    start = x.copy()
    start[_AT["mu"]] = sweep.freqs[int(np.argmin(np.abs(sweep.values)))]
    start[_AT["v"]] = (0.1 * _apparent_linewidth(sweep)) ** 2
    return start


def _apparent_linewidth(sweep):
    """Full width of the |trace| dip at half depth, in Hz."""
    mags = np.abs(sweep.values)
    baseline = 0.5 * (np.median(mags[: max(2, len(sweep) // 8)]) + np.median(mags[-max(2, len(sweep) // 8):]))
    depth = baseline - mags.min()
    if depth <= 0:
        return float(sweep.freqs[-1] - sweep.freqs[0]) / 10.0
    below = mags <= baseline - 0.5 * depth
    if below.sum() < 2:
        return 2.0 * float(np.median(np.diff(sweep.freqs)))
    return float(sweep.freqs[below].max() - sweep.freqs[below].min())
