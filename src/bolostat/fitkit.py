"""Nonlinear and linear fitting machinery for complex reflection traces.

The workhorse is a damped Gauss-Newton (Levenberg-Marquardt) engine operating
on stacked real/imaginary residuals.  Its one loop, `_lm`, carries a leading
batch axis of independent fits, each with its own damping and convergence
test, and evaluates the residual and the Jacobian together, once per trial
point; it reduces each evaluation at once to the row's column-scaled
normal equations, and keeps only those; a column on a bound that descent
pushes against leaves the solve (projected LM).  Two routines enter it:
`least_squares` runs a single fit, with the caller's Jacobian, as a batch
of one, and `_fit_free` runs the chain fits as batches of the chain model
with `response`'s closed-form `_chain_jacobian`, one call of the line's jet
per trial point, within the one box it builds.  The loop takes a real
Jacobian, the real parts of the complex columns over their imaginary
parts, (B, 2m, n) with each column contiguous; `_chain_jacobian` forms and
writes only the free columns, straight into that layout, in one buffer per
`_fit_free` call.  The broadening is the variance v = sigma**2 everywhere
in the chain fits: the box, the steps, the FitResults and their
covariances, and the v that `fit_measurements` returns; the line is
analytic in v down to v = 0, the zero-input answer.  On top of them sit
the resonance extractors used by the pipeline:

* `circle_fit`        -- algebraic circle + phase-slope extraction of the bare
  line's scalars, in `_LINE_NAMES` order
* `fit_base_calibration` / `fit_measurements` -- the full-model procedure:
  all twelve chain parameters are fitted together, in one LM run, on a
  reference (base) trace, six of them are then frozen, and every subsequent
  trace refits only {mu, v, gamma_c, phi, f_b, phi_b}, all traces of a
  sweep in one batch.

Callers pass problem data only: the measurement starts, the misfit rule, the
tolerances and the iteration cap, `_MAX_ITER`, are this module's.
"""

import math
from dataclasses import dataclass

import numpy as np

from .response import _LINE_NAMES, PARAM_NAMES, PHASE_NAMES, _chain_jacobian, _chain_model

__all__ = [
    "ComplexSweep",
    "FitResult",
    "CalibrationResult",
    "FitError",
    "RankDeficiencyError",
    "DegenerateCircleError",
    "FROZEN_PARAM_NAMES",
    "MEASUREMENT_PARAM_NAMES",
    "least_squares",
    "circle_fit",
    "fit_base_calibration",
    "fit_measurements",
    "wrap_angle",
]

TWO_PI = 2.0 * math.pi

# LM tolerances: relative cost decrease and scaled projected gradient that
# count as converged
_FRTOL = 1e-10
_GTOL = 1e-8
# iterations after which a fit stops unconverged
_MAX_ITER = 200

# position of each chain scalar in a raw vector (order: PARAM_NAMES)
_AT = {name: i for i, name in enumerate(PARAM_NAMES)}

# fixed after the base-temperature calibration; single source of truth for
# the frozen/free split (change here to re-partition the staged fit)
FROZEN_PARAM_NAMES = ("gamma", "s_b", "gamma_bc", "gamma_b", "tau", "varphi")

MEASUREMENT_PARAM_NAMES = tuple(n for n in PARAM_NAMES if n not in FROZEN_PARAM_NAMES)


class FitError(RuntimeError):
    """A fit could not be carried out on the given data."""


class RankDeficiencyError(FitError):
    """Columns flat (natural-scale norm at most 1e-14 of the largest) and
    not at a bound make the normal equations singular; names each one."""


class DegenerateCircleError(FitError):
    """Circle fit received (near-)collinear data."""


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
    estimate (None when m <= n or J^T J is singular to working precision),
    ``converged`` whether a convergence test fired before the iteration
    cap, ``grad_norm`` the largest column-scaled gradient component at the
    last Jacobian, leaving out those that push into an active bound.
    """

    params: np.ndarray
    residual_norm: float
    covariance: np.ndarray | None
    n_iter: int
    converged: bool
    grad_norm: float = float("nan")


def least_squares(
    model,
    sweep,
    init,
    bounds=None,
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
    param_names : tuple of str, optional
        Used in diagnostics, e.g. to name rank-deficient directions.
    jac : callable(params, freqs) -> complex ndarray
        Jacobian of ``model``, shape (len(freqs), len(params)); required.

    Returns
    -------
    FitResult
        Hitting the cap of `_MAX_ITER` iterations yields ``converged=False``
        rather than an exception; a column that is flat (natural-scale norm,
        times |init| or 1 where init is 0, at most 1e-14 of the largest) and
        not at a bound raises `RankDeficiencyError`.

    Notes
    -----
    The Jacobian is the caller's, evaluated with the model at the start, at
    every trial point and at the polish step, so a point the fit accepts
    keeps the normal equations of the Jacobian it was evaluated with.
    Steps solve the column-scaled damped normal equations; the damping
    factor is increased until the cost decreases, so the residual norm is
    non-increasing across accepted iterations.  The fit has converged when
    the projected, column-scaled gradient falls below 1e-8*max(1, cost), or
    when an essentially undamped step lowers the cost by less than 1e-10
    relative.
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
    scales = np.where(np.abs(x) > 0, np.abs(x), 1.0)
    names = tuple(param_names) or tuple(f"p{i}" for i in range(n))

    def evaluate(X, rows):
        r = model(X[0], freqs) - data
        Jc = jac(X[0], freqs)
        return np.concatenate([r.real, r.imag])[None], np.concatenate([Jc.real, Jc.imag])[None]

    [fit], [failure] = _lm(evaluate, x[None], lo, hi, scales[None], names)
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


def _divisor(col):
    # column norms as divisors: a zero column is divided by 1
    return np.where(col == 0, 1.0, col)


def _projected(x, lo, hi, scales, col, S, grad_r):
    """(singular, A, g): each row's flat columns off their bounds, and its
    normal equations and gradient with every blocked column made to solve
    to a zero step (an identity row and column, and a zero gradient).  A
    column is flat when its natural-scale norm (times ``scales``) is at
    most 1e-14 of its row's largest, so that columns with wildly different
    units compare; blocked columns are the flat ones and those on a bound
    that the descent direction -``grad_r`` pushes against."""
    col_nat = col * scales
    flat = col_nat <= col_nat.max(axis=1, keepdims=True) * 1e-14
    at_lo = (x - lo) <= 1e-12 * scales
    at_hi = (hi - x) <= 1e-12 * scales
    blocked = flat | (at_lo & (grad_r > 0)) | (at_hi & (grad_r < 0))
    live = ~blocked
    A = np.where(live[:, :, None] & live[:, None, :], S, 0.0)
    diag = np.arange(S.shape[-1])
    A[:, diag, diag] += blocked
    return flat & ~(at_lo | at_hi), A, np.where(blocked, 0.0, grad_r)


def _lm(evaluate, x0, lo, hi, scales, names):
    """Levenberg-Marquardt over a batch of independent fits; the one LM loop.

    Row k of the (B, n) start ``x0`` minimizes the sum of squares of its
    residual within the box (``lo``, ``hi``, broadcast against ``x0``).
    ``evaluate(X, rows)`` returns, at the points X (len(rows), n) of the
    batch rows ``rows``, their real residuals (len(rows), m) and Jacobians
    (len(rows), m, n).  Both arrays belong to `_lm` until its next
    ``evaluate`` call, which may reuse their memory, and `_lm` scales the
    Jacobian in place.  ``evaluate`` is called once at the start, once per
    trial step over the rows trying one, and once for the polish step.

    Right after each call every row is reduced to its cost, its Jacobian's
    column norms c and its column-scaled normal equations: S = Js^T Js and
    Js^T r with Js = J / c (a zero column divided by 1).  A row keeps these
    for the point it accepts, so no point is evaluated twice, and the
    steps, the polish and the covariance, inv(S) / (c c^T) times
    cost/(m - n), work on them alone: between calls no array has an m
    axis.  Every row keeps its own damping, convergence test, polish step
    and covariance, so it follows the iterates it would follow alone; each
    step evaluates only the rows still iterating.  One inactive set,
    `_projected`'s blocked columns, serves the steps, the gradient test and
    the polish (projected LM: Kanzow, Yamashita & Fukushima, J. Comput.
    Appl. Math. 172 (2004) 375); a flat column off its bound stops its row.
    The damped system (lam > 0) of the other columns is positive definite,
    so a step needs no rank test.

    Returns (fits, failures): a `FitResult` per row, and per row None or the
    message naming the flat columns that stopped it, with its last
    accepted point and ``converged=False``.
    """
    x = np.array(x0, dtype=float)
    n_rows, n = x.shape
    lo, hi, scales = (np.broadcast_to(np.asarray(a, dtype=float), x.shape) for a in (lo, hi, scales))
    eye = np.eye(n)

    def reduced(X, rows):
        # evaluate, then each row's cost, column norms, S and Js^T r, and m
        r, J = evaluate(X, rows)
        col = np.linalg.norm(J, axis=1)
        J /= _divisor(col)[:, None, :]
        Jt = np.swapaxes(J, 1, 2)
        return _sum_squares(r), col, Jt @ J, (Jt @ r[..., None])[..., 0], r.shape[1]

    cost, col, S, grad_r, m = reduced(x, np.arange(n_rows))  # each row's, at x
    lam = np.full(n_rows, 1e-3)
    converged = np.zeros(n_rows, dtype=bool)
    grad_inf = np.full(n_rows, np.nan)
    n_iter = np.zeros(n_rows, dtype=int)
    failures = [None] * n_rows
    pending = np.arange(n_rows)
    for it in range(1, _MAX_ITER + 1):
        if pending.size == 0:
            break
        n_iter[pending] = it
        singular, A, grad_s = _projected(*(a[pending] for a in (x, lo, hi, scales, col, S, grad_r)))
        for k in np.nonzero(singular.any(axis=1))[0]:
            flat = ", ".join(names[i] for i in np.nonzero(singular[k])[0])
            failures[pending[k]] = f"normal equations are singular; degenerate directions: {flat}"
        go = ~singular.any(axis=1)
        # only the projected gradient vanishes at a bound-constrained optimum
        grad = np.abs(grad_s).max(axis=1)
        grad_inf[pending[go]] = grad[go]
        small = go & (grad < _GTOL * np.maximum(1.0, cost[pending]))
        converged[pending[small]] = True
        go = np.nonzero(go & ~small)[0]  # positions in pending that take a step
        rows, A, grad_s = pending[go], A[go], grad_s[go]
        # a row's col changes only when it accepts, and then it stops trying
        div = _divisor(col[rows])

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
                x_new = np.clip(x[t] + step_s / div[trying], lo[t], hi[t])
                cost_new, *new, _ = reduced(x_new, t)
                better = cost_new < cost[t]
                b = t[better]
                rel_change = (cost[b] - cost_new[better]) / np.maximum(cost[b], 1e-300)
                x[b], cost[b] = x_new[better], cost_new[better]
                col[b], S[b], grad_r[b] = (a[better] for a in new)
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
        _, A, grad_s = _projected(*(a[done] for a in (x, lo, hi, scales, col, S, grad_r)))
        step = _solve_rows(A + 1e-12 * eye, -grad_s)
        solved = np.all(np.isfinite(step), axis=1)
        done, step = done[solved], step[solved]
        if done.size:
            x_new = np.clip(x[done] + step / _divisor(col[done]), lo[done], hi[done])
            cost_new, *new, _ = reduced(x_new, done)
            keep = cost_new <= cost[done] * (1.0 + 1e-12)
            kept = done[keep]
            x[kept], cost[kept] = x_new[keep], cost_new[keep]
            col[kept], S[kept], grad_r[kept] = (a[keep] for a in new)

    return [
        FitResult(
            params=x[k].copy(),
            residual_norm=math.sqrt(cost[k] / (m / 2)),
            covariance=None if failures[k] else _covariance(S[k], col[k], cost[k], m, n),
            n_iter=int(n_iter[k]),
            converged=bool(converged[k]),
            grad_norm=float(grad_inf[k]),
        )
        for k in range(n_rows)
    ], failures


def _covariance(S, col, cost, m, n):
    # SSR/(m - n) (J^T J)^-1 from the scaled normal equations S of J; None
    # when S is singular to working precision (as collinear columns make it)
    eig = np.linalg.eigvalsh(S)
    if m <= n or not eig[0] > n * np.finfo(float).eps * eig[-1]:
        return None
    col = _divisor(col)
    return np.linalg.inv(S) / np.outer(col, col) * (cost / (m - n))


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
    """Extract the bare line's scalars from a reflection trace by the circle method.

    Fits an algebraic circle to the complex trace, then the phase of the
    centered data against theta(f) = theta0 + 2*arctan(2*2pi*(f - f_r)/gamma)
    for the resonance frequency and total rate; the coupling rate follows
    from the circle radius and the asymmetry angle from the rotation of the
    off-resonant point.  The sweep should span a few linewidths around the
    resonance.

    Returns a dict keyed by `_LINE_NAMES`, with the resonance f_r as ``mu``
    and ``v`` = 0.0, so ``_line(**geo, f_p=f)`` is the fitted bare line.
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
    return dict(
        zip(_LINE_NAMES, (float(f_r), 0.0, float(min(gamma_c, gamma)), phi, float(gamma)))
    )


# ---------------------------------------------------------------------------
# staged full-model fitting


@dataclass
class CalibrationResult:
    """Output of the base-temperature calibration.

    ``fit.params`` holds all twelve fitted scalars in `PARAM_NAMES` order;
    every subsequent `fit_measurements` holds the entries named in
    `FROZEN_PARAM_NAMES` at these values.  ``misfit_flag`` is set when the
    RMS residual per point stayed above both the trace's own noise level
    (see `_noise_rms`) and round-off, sqrt(eps) of the trace magnitude span
    (e.g. the background model missed a resonance present in the data).
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

# Round-off, as a share of the trace span: a clean trace's fit leaves at most
# 7.3e-14 of it, a smooth residual the noise test alone would take for a
# misfit; the misfits the tests inject leave at least 1.4e-4.
_ROUNDOFF_FLOOR = math.sqrt(np.finfo(float).eps)


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


def _fit_free(freqs, data, base, starts, free):
    """The staged fit's one routine: an LM fit of the entries ``free`` of each
    row of a batch, the other entries held at ``base``.

    Row k of the (B, 12) ``starts`` is fitted against row k of the (B, m)
    complex ``data`` on the grid ``freqs``, within `_default_bounds` of the
    grid and ``base``'s gamma: the free entries of the starts are clipped
    into that box, and the LM's column scales are `_scales` of them.  The
    rows make one `_lm` call, and each of its evaluations is one
    `_chain_jacobian` call (value and Jacobian together) over the rows it
    evaluates, which forms a factor of the chain once where those rows
    agree on its scalars (the delay of a measurement batch, or all of a
    batch of one).  One (B, len(free), 2m) buffer is allocated per call,
    and every evaluation writes its rows' free columns, each once, into the
    first rows of it: the real (rows, 2m, n) Jacobian `_lm` takes (real
    parts over imaginary parts, each column contiguous) is a view of that
    buffer, which `_lm` owns until its next evaluation.

    Returns (X, fits, failures): the fitted (B, 12) vectors, and `_lm`'s
    FitResult (over the free entries) and failure per row.
    """
    lo, hi = _default_bounds(freqs, gamma_scale=base[_AT["gamma"]])
    x0 = np.clip(starts[:, free], lo[free], hi[free])
    jac = np.empty((len(x0), len(free), 2 * freqs.size))

    def full(xf):
        X = np.empty((len(xf), base.size))
        X[:] = base
        X[:, free] = xf
        return X

    def evaluate(xf, rows):
        value, J = _chain_jacobian(full(xf), freqs, free, jac[: len(rows)])
        r = value - data[rows]
        return np.concatenate([r.real, r.imag], axis=1), J

    # a column's scale depends on that column alone
    scales = _scales(full(x0), freqs)[:, free]
    names = tuple(PARAM_NAMES[i] for i in free)
    fits, failures = _lm(evaluate, x0, lo[free], hi[free], scales, names)
    return full([fit.params for fit in fits]), fits, failures


def fit_base_calibration(sweep, init):
    """Fit all twelve chain parameters on a reference (base) trace.

    One `_fit_free` batch of one fits all twelve from the start, clipped
    into the fit box, which the start's own gamma sets the rate ranges of.
    From v = 0, its bound, v stays out of the solve until the rest of the
    chain pulls it inward.  A base trace fitted at v = 0 is the zero-input
    answer.

    Parameters
    ----------
    sweep : ComplexSweep
    init : array_like
        Starting point, the twelve scalars in `PARAM_NAMES` order (e.g.
        truth perturbed by a few percent, or heuristics); it is clipped into
        the fit box, so it need not be a physical chain, but its gamma, which
        sets the box's rate ranges, must be positive (else a ValueError).

    Returns
    -------
    CalibrationResult
        `RankDeficiencyError` is raised on a column that is flat
        (natural-scale norm at most 1e-14 of the largest) and not at a bound,
        and `FitError` on a fit ending with gamma_c > gamma, which no passive
        line has (the fit box allows it).
    """
    _require_points(sweep, 8, "fit_base_calibration")
    x0 = _chain_vector(init, "init")
    if not x0[_AT["gamma"]] > 0:
        raise ValueError(f"init: gamma must be positive, got {x0[_AT['gamma']]}")
    every = list(range(len(PARAM_NAMES)))
    X, [fit], [failure] = _fit_free(sweep.freqs, sweep.values[None], x0, x0[None], every)
    if failure is not None:
        raise RankDeficiencyError(failure)
    gamma, gamma_c = X[0, _AT["gamma"]], X[0, _AT["gamma_c"]]
    if gamma_c > gamma:
        raise FitError(
            f"fit_base_calibration: the fit ended with gamma_c = {gamma_c:.6g} above "
            f"gamma = {gamma:.6g}, which no passive line has"
        )
    span = float(np.ptp(np.abs(sweep.values)))
    residual = _chain_model(X[0], sweep.freqs) - sweep.values
    noise = (1.0 + _NOISE_MARGIN / math.sqrt(len(sweep))) * _noise_rms(residual)
    misfit = fit.residual_norm > max(_ROUNDOFF_FLOOR * max(span, 1e-300), noise)
    return CalibrationResult(fit=fit, misfit_flag=misfit)


def fit_measurements(sweeps, calibration):
    """Fit {mu, v, gamma_c, phi, f_b, phi_b} to every trace of a sweep.

    The six parameters named in `FROZEN_PARAM_NAMES` are held at their
    calibrated values.  For each trace, mu is initialized at the magnitude
    minimum and sigma = sqrt(v) at 10% of the apparent linewidth, both read
    over all traces in one pass (`_measurement_starts`); the nuisance
    parameters start from the calibration.

    The traces must share one probe grid.  They are fitted as one
    `_fit_free` batch: every trial step makes one `_chain_jacobian` call,
    value and Jacobian together, over the traces taking it, while each
    trace keeps its own damping and convergence test.  A trace whose normal
    equations go singular stops there: its FitResult holds its last
    accepted point with ``converged=False``, and the other traces go on.

    Returns
    -------
    list of (mu, v, FitResult), in the order of ``sweeps``
        v = sigma**2 is the fitted broadening, in Hz^2, the coordinate of
        the FitResult too.  A trace whose v ends at 0, the floor of the fit
        box, reports v = 0.0 (zero input, or a line narrower than the
        calibration's).
    """
    sweeps = list(sweeps)
    if not sweeps:
        return []
    freqs = sweeps[0].freqs
    for sweep in sweeps:
        _require_points(sweep, 8, "fit_measurements")
        if not np.array_equal(sweep.freqs, freqs):
            raise ValueError("fit_measurements: the traces must share one probe grid")
    x = calibration.fit.params
    free = [_AT[n] for n in MEASUREMENT_PARAM_NAMES]
    data = np.array([sweep.values for sweep in sweeps])
    X, fits, _ = _fit_free(freqs, data, x, _measurement_starts(freqs, data, x), free)
    return [(float(x_fit[_AT["mu"]]), float(x_fit[_AT["v"]]), fit) for x_fit, fit in zip(X, fits)]


def _measurement_starts(freqs, data, x):
    """Starting vectors of the fits of the (B, m) traces ``data``: ``x`` with
    mu at each trace's magnitude minimum and sigma = sqrt(v) at 10% of its
    apparent linewidth, the full width of its |trace| dip at half depth."""
    mags = np.abs(data)
    edge = max(2, freqs.size // 8)
    baseline = 0.5 * (np.median(mags[:, :edge], axis=1) + np.median(mags[:, -edge:], axis=1))
    lowest = mags.argmin(axis=1)
    depth = baseline - mags[np.arange(len(mags)), lowest]
    below = mags <= (baseline - 0.5 * depth)[:, None]
    # the grid increases, so the dip's first and last points bound it
    first, last = below.argmax(axis=1), freqs.size - 1 - below[:, ::-1].argmax(axis=1)
    width = np.where(
        below.sum(axis=1) < 2, 2.0 * float(np.median(np.diff(freqs))), freqs[last] - freqs[first]
    )
    width = np.where(depth <= 0, float(freqs[-1] - freqs[0]) / 10.0, width)
    starts = np.tile(x, (len(data), 1))
    starts[:, _AT["mu"]] = freqs[lowest]
    starts[:, _AT["v"]] = (0.1 * width) ** 2
    return starts
