"""Nonlinear and linear fitting machinery for complex reflection traces.

The workhorse is a damped Gauss-Newton (Levenberg-Marquardt) engine operating
on stacked real/imaginary residuals.  It takes the Jacobian from the caller
when one is given -- the staged chain fits pass `response`'s closed-form
`_chain_jacobian`, one erfcx call per iteration -- and otherwise forms a
central finite difference.  On top of it sit the resonance extractors used
by the pipeline:

* `circle_fit`        -- algebraic circle + phase-slope extraction of the bare line
* `lorentzian_fit`    -- real-valued Lorentzian peak (filter passband style)
* `polynomial_fit`    -- plain least-squares polynomial, ascending coefficients
* `fit_base_calibration` / `fit_measurement` -- the staged full-model procedure:
  all twelve chain parameters are fitted once on a reference (base) trace,
  six of them are then frozen, and each subsequent trace refits only
  {mu, sigma, gamma_c, phi, f_b, phi_b}.
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
    sigma_floor,
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
    "lorentzian_fit",
    "polynomial_fit",
    "fit_base_calibration",
    "fit_measurement",
    "wrap_angle",
]

TWO_PI = 2.0 * math.pi

# LM tolerances: relative cost decrease and scaled projected gradient that
# count as converged, and the finite-difference step max(_FD_REL*|p|,
# _FD_ABS*scale) used when no Jacobian is given
_FRTOL = 1e-10
_GTOL = 1e-8
_FD_REL = 1e-6
_FD_ABS = 1e-9

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
    """The fitted broadening is pinned at its lower bound."""


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
    callback=None,
    jac=None,
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
        Natural magnitude of each parameter, used for conditioning and for
        the absolute floor of the finite-difference step; defaults to |init|
        where nonzero.
    param_names : tuple of str, optional
        Used in diagnostics, e.g. to name rank-deficient directions.
    callback : callable(n_iter, residual_norm), optional
        Invoked after every accepted step (residual norms are
        non-increasing along this sequence).
    jac : callable(params, freqs) -> complex ndarray, optional
        Jacobian of ``model``, shape (len(freqs), len(params)).  Without it
        the Jacobian is a central finite difference.

    Returns
    -------
    FitResult
        Hitting the iteration cap yields ``converged=False`` rather than an
        exception; structurally singular normal equations raise
        `RankDeficiencyError`.

    Notes
    -----
    With ``jac`` the Jacobian is the caller's, evaluated once per iteration.
    Otherwise it is a central finite difference with per-parameter step
    max(1e-6*|p|, 1e-9*scale), switching to a one-sided difference at an
    active bound.  The iteration is the same either way.  Steps solve the
    column-scaled damped normal equations; the damping factor is increased
    until the cost decreases, so the residual norm is non-increasing across
    accepted iterations.  The fit has converged when the projected,
    column-scaled gradient falls below 1e-8*max(1, cost), or when an
    essentially undamped step lowers the cost by less than 1e-10 relative.
    Deterministic: identical inputs give identical iterates.
    """
    _require_points(sweep, 8, "least_squares")
    return _least_squares_impl(
        model, sweep, init, bounds, max_iter, scales, param_names, callback, jac
    )


def _least_squares_impl(
    model,
    sweep,
    init,
    bounds=None,
    max_iter=200,
    scales=None,
    param_names=(),
    callback=None,
    jac=None,
):
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

    def resid(xv):
        r = model(xv, freqs) - data
        return np.concatenate([r.real, r.imag])

    def jacobian(xv):
        if jac is not None:
            Jc = jac(xv, freqs)
            return np.concatenate([Jc.real, Jc.imag])
        J = np.empty((2 * freqs.size, n))
        for i in range(n):
            h = max(_FD_REL * abs(xv[i]), _FD_ABS * scales[i])
            xp, xm = xv.copy(), xv.copy()
            if xv[i] + h > hi[i]:
                xm[i] = xv[i] - h
            elif xv[i] - h < lo[i]:
                xp[i] = xv[i] + h
            else:
                xp[i] = xv[i] + h
                xm[i] = xv[i] - h
            J[:, i] = (resid(xp) - resid(xm)) / (xp[i] - xm[i])
        return J

    r = resid(x)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    grad_inf = float("nan")
    n_iter = 0
    J = None
    for n_iter in range(1, max_iter + 1):
        J = jacobian(x)
        col = np.linalg.norm(J, axis=0)
        # degeneracy is judged per natural-scale step, so that columns with
        # wildly different units are comparable
        col_nat = col * scales
        dead = col_nat <= col_nat.max() * 1e-14 if col_nat.max() > 0 else np.ones(n, bool)
        at_lo = (x - lo) <= 1e-12 * scales
        at_hi = (hi - x) <= 1e-12 * scales
        at_bound = at_lo | at_hi
        # a flat direction pinned at its bound is inactive, not singular
        interior_dead = dead & ~at_bound
        if interior_dead.any():
            which = ", ".join(names[i] for i in np.nonzero(interior_dead)[0])
            raise RankDeficiencyError(
                f"normal equations are singular; degenerate directions: {which}"
            )
        active = np.nonzero(~dead)[0]
        if active.size == 0:
            converged = True  # every direction pinned at a bound
            break
        Ja = J[:, active]
        ca = col[active]
        Js = Ja / ca
        grad_s = Js.T @ r
        # components pushing into an active bound cannot move, so only the
        # projected gradient has to vanish at a (bound-constrained) optimum
        blocked = (at_lo[active] & (grad_s > 0)) | (at_hi[active] & (grad_s < 0))
        grad_inf = float(np.abs(grad_s[~blocked]).max(initial=0.0))
        if grad_inf < _GTOL * max(1.0, cost):
            converged = True
            break
        A = Js.T @ Js
        singvals = np.linalg.svd(A, compute_uv=False)
        if singvals[-1] < singvals[0] * 1e-28:
            _, _, vt = np.linalg.svd(A)
            weights = np.abs(vt[-1])
            which = ", ".join(names[active[i]] for i in np.nonzero(weights > 0.3)[0])
            raise RankDeficiencyError(
                f"normal equations are singular; degenerate directions: {which}"
            )
        accepted = False
        while lam < 1e14:
            try:
                step_s = np.linalg.solve(A + lam * np.eye(active.size), -grad_s)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x.copy()
            x_new[active] = x[active] + step_s / ca
            x_new = np.clip(x_new, lo, hi)
            r_new = resid(x_new)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                rel_change = (cost - cost_new) / max(cost, 1e-300)
                x, r, cost = x_new, r_new, cost_new
                accepted = True
                if callback is not None:
                    callback(n_iter, math.sqrt(cost / freqs.size))
                # a small relative decrease only counts as convergence once
                # the step is essentially undamped (pure Gauss-Newton)
                if rel_change < _FRTOL and lam <= 1e-6:
                    converged = True
                lam = max(lam / 5.0, 1e-12)
                break
            lam *= 10.0
        if not accepted:
            # no decrease at any damping: at a stationary point unless the
            # projected gradient is still large
            converged = grad_inf < 1e-4 * max(1.0, cost)
            break
        if converged:
            break

    if converged and J is not None:
        # one undamped Gauss-Newton polish: the cost surface is too flat
        # near the optimum for cost differences to certify full parameter
        # precision, but the pure step lands on the stationary point
        col = np.linalg.norm(J, axis=0)
        col[col == 0] = 1.0
        Js = J / col
        try:
            step = np.linalg.solve(Js.T @ Js + 1e-12 * np.eye(n), -(Js.T @ r))
            x_new = np.clip(x + step / col, lo, hi)
            r_new = resid(x_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost * (1.0 + 1e-12):
                x, r, cost = x_new, r_new, cost_new
        except np.linalg.LinAlgError:
            pass

    covariance = _covariance(J, cost, 2 * freqs.size, n) if J is not None else None
    return FitResult(
        params=x,
        residual_norm=math.sqrt(cost / freqs.size),
        covariance=covariance,
        n_iter=n_iter,
        converged=converged,
        grad_norm=grad_inf,
        param_names=names,
    )


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
    res = _least_squares_impl(
        _phase_model,
        phase_sweep,
        init=[theta00, f_r0, gamma0],
        bounds=(
            [-np.inf, sweep.freqs[0], 1e-6 * gamma0],
            [np.inf, sweep.freqs[-1], 1e6 * gamma0],
        ),
        param_names=("theta0", "f_r", "gamma"),
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


def lorentzian_fit(x, y):
    """Least-squares Lorentzian y = offset + amplitude / (1 + (2(x-c)/fwhm)^2).

    Returns (center, fwhm, amplitude, offset); amplitude is negative for a
    dip.  Needs >= 5 points spanning the peak.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if x.size < 5:
        raise FitError(f"lorentzian_fit needs at least 5 points, got {x.size}")

    offset0 = 0.5 * (np.median(y[: max(2, x.size // 8)]) + np.median(y[-max(2, x.size // 8):]))
    k = int(np.argmax(np.abs(y - offset0)))
    amp0 = y[k] - offset0
    half = np.abs(y - offset0) >= 0.5 * abs(amp0)
    fwhm0 = max(
        float(x[half].max() - x[half].min()),
        2.0 * float(np.median(np.diff(x))),
    )

    def model(p, f):
        c, fw, a, off = p
        return off + a / (1.0 + (2.0 * (f - c) / fw) ** 2) + 0j

    order = np.argsort(x)
    sweep = ComplexSweep(freqs=x[order], values=y[order].astype(complex))
    span = x.max() - x.min()
    res = _least_squares_impl(
        model,
        sweep,
        init=[x[k], fwhm0, amp0, offset0],
        bounds=(
            [x.min() - span, 1e-9 * span, -np.inf, -np.inf],
            [x.max() + span, 100.0 * span, np.inf, np.inf],
        ),
        scales=[span, span, max(abs(amp0), 1e-300), max(abs(offset0), abs(amp0), 1e-300)],
        param_names=("center", "fwhm", "amplitude", "offset"),
    )
    center, fwhm, amplitude, offset = res.params
    return float(center), float(abs(fwhm)), float(amplitude), float(offset)


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
    every subsequent `fit_measurement` holds the entries named in
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
    """(lo, hi) box of the twelve chain scalars; sigma starts at its floor."""
    span = freqs[-1] - freqs[0]
    box = {name: (-np.inf, np.inf) for name in PHASE_NAMES}
    box.update(
        mu=(freqs[0], freqs[-1]),
        sigma=(sigma_floor(gamma_scale), 20e6),
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
    s = np.maximum(np.abs(x0), 1e-300)
    for name in ("mu", "f_b"):
        s[_AT[name]] = max(s[_AT[name]], span)
    for name in PHASE_NAMES:
        s[_AT[name]] = 1.0
    s[_AT["tau"]] = max(s[_AT["tau"]], 1.0 / center)  # one radian of delay phase
    return s


def _partial_chain(base, free):
    """Chain model and Jacobian over the entries ``free`` of ``base``, the rest held."""

    def full(xf):
        x = base.copy()
        x[free] = xf
        return x

    def model(xf, freqs):
        return _chain_model(full(xf), freqs)

    def jac(xf, freqs):
        return _chain_jacobian(full(xf), freqs)[:, free]

    return model, jac


def _fit_free(sweep, x, free, lo, hi, scales, max_iter):
    """LM fit of the entries ``free`` of ``x``, the rest held; returns (x_fit, FitResult).

    A free sigma the data cannot tell from its floor is pinned there with a
    `DegenerateSigmaWarning`.  `least_squares` is called via the module, model
    first, so a tracer that wraps it sees every staged fit.
    """
    model, jac = _partial_chain(x, free)
    fit = least_squares(
        model,
        sweep,
        init=x[free],
        bounds=(lo[free], hi[free]),
        max_iter=max_iter,
        scales=scales[free],
        param_names=tuple(PARAM_NAMES[i] for i in free),
        jac=jac,
    )
    sigma = _AT["sigma"]
    if sigma in free and _snap_sigma_to_floor(fit, free.index(sigma), lo[sigma], model, sweep):
        warnings.warn(
            "fitted broadening pinned at its lower bound",
            DegenerateSigmaWarning,
            stacklevel=3,
        )
    x_fit = x.copy()
    x_fit[free] = fit.params
    return x_fit, fit


def fit_base_calibration(sweep, init, residual_tol=1e-3, max_iter=200):
    """Fit all twelve chain parameters on a reference (base) trace.

    The fit is staged: first everything except the broadening is fitted
    with sigma held at its initial value (on a base trace the broadening is
    at or near its floor and carries no signal until the rest of the chain
    is roughly right), then all twelve parameters are released.

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
    """
    _require_points(sweep, 8, "fit_base_calibration")
    x0 = _chain_vector(init, "init")
    lo, hi = _default_bounds(sweep.freqs, gamma_scale=x0[_AT["gamma"]])
    x0 = np.clip(x0, lo, hi)
    scales = _scales(x0, sweep.freqs)

    every = list(range(len(PARAM_NAMES)))
    stage_a = [i for i in every if i != _AT["sigma"]]
    x1, _ = _fit_free(sweep, x0, stage_a, lo, hi, scales, max_iter)
    _, fit = _fit_free(sweep, x1, every, lo, hi, scales, max_iter)
    span = float(np.ptp(np.abs(sweep.values)))
    residual = _chain_model(fit.params, sweep.freqs) - sweep.values
    noise = (1.0 + _NOISE_MARGIN / math.sqrt(len(sweep))) * _noise_rms(residual)
    misfit = fit.residual_norm > max(residual_tol * max(span, 1e-300), noise)
    return CalibrationResult(fit=fit, misfit_flag=misfit)


def fit_measurement(sweep, calibration, init_hint=None, max_iter=200):
    """Per-trace fit of {mu, sigma, gamma_c, phi, f_b, phi_b} against a calibration.

    The six parameters named in `FROZEN_PARAM_NAMES` are held at their
    calibrated values.  mu is initialized at the magnitude minimum of the
    trace and sigma at 10% of the apparent linewidth; the nuisance
    parameters start from the calibration.  ``init_hint``, a twelve-scalar
    vector in `PARAM_NAMES` order, overrides those starting values; its
    frozen entries are ignored.

    Returns
    -------
    (mu, sigma, FitResult)
        A `DegenerateSigmaWarning` is emitted when sigma ends pinned at its
        lower bound.
    """
    _require_points(sweep, 8, "fit_measurement")
    x = calibration.fit.params.copy()
    lo, hi = _default_bounds(sweep.freqs, gamma_scale=x[_AT["gamma"]])

    if init_hint is not None:
        start = _chain_vector(init_hint, "init_hint")
    else:
        start = x.copy()
        start[_AT["mu"]] = sweep.freqs[int(np.argmin(np.abs(sweep.values)))]
        start[_AT["sigma"]] = 0.1 * _apparent_linewidth(sweep)
    free = [_AT[n] for n in MEASUREMENT_PARAM_NAMES]
    x[free] = np.clip(start[free], lo[free], hi[free])  # held entries stay as calibrated

    x_fit, fit = _fit_free(sweep, x, free, lo, hi, _scales(x, sweep.freqs), max_iter)
    return float(x_fit[_AT["mu"]]), float(x_fit[_AT["sigma"]]), fit


def _snap_sigma_to_floor(fit, sigma_index, floor, model, sweep):
    """Pin sigma at its floor when the fit cannot distinguish it from zero.

    Near the zero-broadening regime the cost surface is flat in sigma well
    before the bound is reached; if re-evaluating at the floor does not
    worsen the fit measurably, the floor is the honest report.
    """
    if fit.params[sigma_index] <= floor * (1.0 + 1e-9):
        return True
    x_floor = fit.params.copy()
    x_floor[sigma_index] = floor
    r = model(x_floor, sweep.freqs) - sweep.values
    cost_floor = float(r.real @ r.real + r.imag @ r.imag)
    n = sweep.freqs.size
    cost = fit.residual_norm**2 * n
    span = float(np.ptp(np.abs(sweep.values)))
    if cost_floor - cost <= max(1e-9 * cost, (1e-10 * span) ** 2 * 2 * n):
        fit.params[sigma_index] = floor
        fit.residual_norm = math.sqrt(cost_floor / n)
        return True
    return False


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
