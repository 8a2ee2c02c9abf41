"""End-to-end synthetic sweeps: configuration, trace synthesis, staged
extraction of photon moments, and file I/O.

A sweep walks a control variable (radiator temperature or coherent input
flux), synthesizes the full-chain reflection trace implied by the photon
statistics at each point, and stores the truth alongside for round-trip
scoring.  Extraction runs the staged fit (one base calibration, one
six-parameter fit per trace), converts the fitted resonance shift into a
mean photon flux through the configured calibration polynomial, converts
the fitted broadening into a variance through Delta_n = alpha*sigma
referenced to the base trace, and reports g2(0).

File formats (all deterministic given the same inputs):

* traces: CSV with header ``f_p_hz,re,im`` (the human-readable export of
  one trace)
* datasets: one JSON document (``bolostat-dataset-v2``) with config, truth
  table, and traces.  Config, control and truth are plain sorted JSON; each
  trace stores ``f_p_hz``, ``re`` and ``im`` as one base64 string of
  little-endian float64 bytes, so a read-back is bitwise exact and costs no
  per-sample text formatting.  ``bolostat-dataset-v1`` documents, which
  held the same arrays as JSON number lists, are still read.
* statistics: CSV with one column per `StatsRecord` field, in field order;
  floats are written as their ``repr``, booleans as 0/1
"""

import base64
import csv
import dataclasses
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .fitkit import ComplexSweep, fit_base_calibration, fit_measurement
from .photonstats import (
    CalibrationScale,
    PhotonMoments,
    RadiatorState,
    beamsplitter_combine,
    coherent_variance,
    flux_to_power,
    g2_zero,
    mixed_moments,
    planck_mean_photon,
    sigma_to_variance,
    thermal_variance,
)
from .response import PARAM_NAMES, PHASE_NAMES, _chain_model, sigma_floor
from .response import BackgroundParams, FreqDistribution, LineParams, ResonatorParams

__all__ = [
    "ConfigError",
    "ChainParams",
    "SweepConfig",
    "TracePoint",
    "SweepDataset",
    "StatsRecord",
    "simulate_sweep",
    "run_calibration",
    "extract_statistics",
    "default_seed",
    "trace_to_csv",
    "trace_from_csv",
    "dataset_to_json",
    "dataset_from_json",
    "stats_to_csv",
    "stats_from_csv",
    "DATASET_FORMAT",
]

DATASET_FORMAT = "bolostat-dataset-v2"
# formats `dataset_from_json` reads; v1 stored the arrays as number lists
_READ_FORMATS = ("bolostat-dataset-v1", DATASET_FORMAT)

MODES = ("thermal", "coherent", "mixed")

# relative spread of the perturbed-truth calibration start (see _calibration_init)
INIT_PERTURBATION = 0.05


class ConfigError(ValueError):
    """A sweep configuration field failed validation."""


def default_seed(explicit=None, config_seed=0):
    """Seed precedence: explicit flag > BOLOSTAT_SEED env var > config."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("BOLOSTAT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"BOLOSTAT_SEED must be an integer, got {env!r}") from None
    return int(config_seed)


@dataclass(frozen=True)
class ChainParams:
    """True measurement-chain scalars used for synthesis.

    Every `PARAM_NAMES` scalar except the line center and broadening, which
    `vector` takes per trace; ``mu_base_hz`` is the center at zero input.
    """

    mu_base_hz: float
    gamma_c: float
    phi: float
    gamma: float
    s_b: float
    f_b: float
    gamma_bc: float
    gamma_b: float
    phi_b: float
    tau: float
    varphi: float

    def vector(self, mu, sigma):
        """Raw `PARAM_NAMES` vector with the given line center/broadening."""
        values = dict(vars(self), mu=mu, sigma=sigma)
        return np.array([values[name] for name in PARAM_NAMES])


@dataclass(frozen=True)
class SweepConfig:
    mode: str
    seed: int
    radiator_frequency_hz: float
    filter_center_hz: float
    filter_fwhm_hz: float
    alpha_photon_per_hz: float
    beamsplitter_gamma: float
    freq_shift_poly_hz: tuple
    chain: ChainParams
    probe_start_hz: float
    probe_stop_hz: float
    probe_points: int
    t_grid_k: tuple = ()
    flux_grid: tuple = ()
    coherent_input_flux: float = 0.0
    noise: float = 0.0

    @classmethod
    def from_dict(cls, raw):
        def need(key, kind, check=None, msg=""):
            if key not in raw:
                raise ConfigError(f"field '{key}': missing")
            value = raw[key]
            try:
                if kind is tuple:
                    value = tuple(float(v) for v in value)
                else:
                    value = kind(value)
            except (TypeError, ValueError):
                raise ConfigError(f"field '{key}': expected {kind.__name__}") from None
            if check is not None and not check(value):
                raise ConfigError(f"field '{key}': {msg}")
            return value

        mode = need("mode", str, lambda m: m in MODES, f"must be one of {MODES}")
        cfg = dict(
            mode=mode,
            seed=need("seed", int) if "seed" in raw else 0,
            radiator_frequency_hz=need(
                "radiator_frequency_hz", float, lambda v: v > 0, "must be positive"
            ),
            filter_center_hz=need(
                "filter_center_hz", float, lambda v: v > 0, "must be positive"
            ),
            filter_fwhm_hz=need(
                "filter_fwhm_hz", float, lambda v: v > 0, "must be positive"
            ),
            alpha_photon_per_hz=need(
                "alpha_photon_per_hz", float, lambda v: v > 0, "must be positive"
            ),
            beamsplitter_gamma=need(
                "beamsplitter_gamma", float, lambda v: 0 <= v <= 1, "must lie in [0, 1]"
            ),
            freq_shift_poly_hz=need(
                "freq_shift_poly_hz",
                tuple,
                lambda c: 1 <= len(c) <= 8,
                "must hold 1..8 ascending polynomial coefficients",
            ),
            probe_start_hz=need("probe_start_hz", float, lambda v: v > 0, "must be positive"),
            probe_stop_hz=need("probe_stop_hz", float, lambda v: v > 0, "must be positive"),
            probe_points=need("probe_points", int, lambda v: v >= 8, "must be >= 8"),
            noise=need("noise", float, lambda v: v >= 0, "must be >= 0") if "noise" in raw else 0.0,
        )
        if cfg["probe_stop_hz"] <= cfg["probe_start_hz"]:
            raise ConfigError("field 'probe_stop_hz': must exceed probe_start_hz")

        if "chain" not in raw or not isinstance(raw["chain"], dict):
            raise ConfigError("field 'chain': missing or not an object")
        chain_fields = {}
        for name in ChainParams.__dataclass_fields__:
            if name not in raw["chain"]:
                raise ConfigError(f"field 'chain.{name}': missing")
            try:
                chain_fields[name] = float(raw["chain"][name])
            except (TypeError, ValueError):
                raise ConfigError(f"field 'chain.{name}': expected float") from None
        c = cfg["chain"] = ChainParams(**chain_fields)
        # the response dataclasses' own physical checks, each named by the
        # chain field it guards; phases stay free, as the fits leave them
        for name, kind, args in (
            ("mu_base_hz", FreqDistribution, (c.mu_base_hz, 0.0)),
            ("gamma_c", ResonatorParams, (c.mu_base_hz, c.gamma_c, c.gamma)),
            ("gamma_b", BackgroundParams, (c.s_b, c.f_b, c.gamma_bc, c.gamma_b)),
            ("tau", LineParams, (c.tau,)),
        ):
            try:
                kind(*args)
            except ValueError as exc:
                raise ConfigError(f"field 'chain.{name}': {exc}") from None

        def grid(key):
            values = need(key, tuple, lambda g: len(g) >= 1, "must be non-empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"field '{key}': must be strictly increasing")
            return values

        if mode in ("thermal", "mixed"):
            cfg["t_grid_k"] = grid("t_grid_k")
            if any(v < 0 for v in cfg["t_grid_k"]):
                raise ConfigError("field 't_grid_k': temperatures must be >= 0")
        if mode == "coherent":
            cfg["flux_grid"] = grid("flux_grid")
            if any(v < 0 for v in cfg["flux_grid"]):
                raise ConfigError("field 'flux_grid': fluxes must be >= 0")
        if mode == "mixed":
            cfg["coherent_input_flux"] = need(
                "coherent_input_flux", float, lambda v: v >= 0, "must be >= 0"
            )
        return cls(**cfg)

    def to_dict(self):
        d = asdict(self)
        d["freq_shift_poly_hz"] = list(self.freq_shift_poly_hz)
        d["t_grid_k"] = list(self.t_grid_k)
        d["flux_grid"] = list(self.flux_grid)
        return d

    def probe_grid(self):
        return np.linspace(self.probe_start_hz, self.probe_stop_hz, self.probe_points)

    def control_values(self):
        return self.flux_grid if self.mode == "coherent" else self.t_grid_k

    def truth_moments(self, control):
        """(mean, variance) of the detected field at one control point."""
        if self.mode == "thermal":
            mean = planck_mean_photon(RadiatorState(T=control, f=self.radiator_frequency_hz))
            return mean, thermal_variance(mean)
        if self.mode == "coherent":
            return control, coherent_variance(control)
        th = planck_mean_photon(RadiatorState(T=control, f=self.radiator_frequency_hz))
        field_ = beamsplitter_combine(
            self.coherent_input_flux, th, self.beamsplitter_gamma
        )
        m = mixed_moments(field_)
        return m.mean, m.variance


@dataclass(frozen=True)
class TracePoint:
    control: float | None
    truth: dict
    sweep: ComplexSweep


@dataclass(frozen=True)
class SweepDataset:
    config: SweepConfig
    base: TracePoint
    records: tuple


@dataclass(frozen=True)
class StatsRecord:
    """One extracted row: control value, fitted line, photon moments, g2."""

    control: float
    mu_hz: float
    sigma_hz: float
    mean_n: float
    variance_n: float
    g2: float
    power_w: float
    converged: bool
    n_iter: int
    residual_norm: float


# the stats CSV has one column per StatsRecord field, in field order, and
# each field's type says how its cell is written and read back
_STATS_FIELDS = dataclasses.fields(StatsRecord)
STATS_HEADER = [f.name for f in _STATS_FIELDS]
_WRITE_CELL = {float: lambda v: repr(float(v)), bool: int, int: int}
_READ_CELL = {float: float, bool: lambda text: bool(int(text)), int: int}


def _shift_hz(coeffs, n):
    """Resonance shift (relative to zero input) of the calibration polynomial."""
    c = np.asarray(coeffs, dtype=float)
    return float(np.polynomial.polynomial.polyval(n, c) - c[0])


def _invert_shift(coeffs, shift):
    """Smallest n >= 0 with shift(n) = shift on the configured cubic; 0 if none."""
    c = np.asarray(coeffs, dtype=float).copy()
    c[0] = -shift
    roots = np.polynomial.polynomial.polyroots(c)
    real = roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))].real
    valid = real[real >= -1e-12]
    return float(max(valid.min(), 0.0)) if valid.size else 0.0


def _synthesize(cfg, mean, variance, rng):
    freqs = cfg.probe_grid()
    sigma = math.sqrt(variance) / cfg.alpha_photon_per_hz
    mu = cfg.chain.mu_base_hz + _shift_hz(cfg.freq_shift_poly_hz, mean)
    values = _chain_model(cfg.chain.vector(mu, sigma), freqs)
    if cfg.noise > 0:
        span = float(np.ptp(np.abs(values)))
        s = cfg.noise * span / math.sqrt(2.0)
        values = values + rng.normal(0.0, s, freqs.size) + 1j * rng.normal(
            0.0, s, freqs.size
        )
    truth = {
        "mean_n": mean,
        "variance_n": variance,
        "mu_hz": mu,
        "sigma_hz": sigma,
    }
    return truth, ComplexSweep(freqs=freqs, values=values)


def simulate_sweep(cfg, seed=None):
    """Synthesize the full trace dataset for a sweep configuration.

    Deterministic for a given (config, seed); the seed keys one Philox
    stream that supplies both the per-trace noise and the calibration init
    perturbation used later.  A zero-input base trace is always included as
    the fitting reference.  The returned dataset carries the seed actually
    used in its config, so a stored dataset reproduces itself.
    """
    seed = cfg.seed if seed is None else seed
    cfg = dataclasses.replace(cfg, seed=int(seed))
    rng = np.random.Generator(np.random.Philox(seed))
    truth, sweep = _synthesize(cfg, 0.0, 0.0, rng)
    base = TracePoint(control=None, truth=truth, sweep=sweep)
    records = []
    for control in cfg.control_values():
        mean, variance = cfg.truth_moments(control)
        truth, sweep = _synthesize(cfg, mean, variance, rng)
        records.append(TracePoint(control=float(control), truth=truth, sweep=sweep))
    return SweepDataset(config=cfg, base=base, records=tuple(records))


def _calibration_init(cfg, base_sweep, seed):
    """Perturbed-truth starting point for the base calibration, a `PARAM_NAMES` vector.

    Scale parameters move by +-INIT_PERTURBATION relative, frequencies by
    +-INIT_PERTURBATION of the probe span, phases by +-INIT_PERTURBATION rad;
    mu additionally snaps to the trace magnitude minimum, and sigma starts at
    the floor of the perturbed gamma, the lower bound of the fit box.  The
    start need not be a physical chain (gamma_c may cross gamma); the fit
    clips it into its box.
    """
    rng = np.random.Generator(np.random.Philox(seed + 1))
    span = cfg.probe_stop_hz - cfg.probe_start_hz
    x = cfg.chain.vector(cfg.chain.mu_base_hz, 0.0)
    frac = INIT_PERTURBATION
    for i, name in enumerate(PARAM_NAMES):
        u = rng.uniform(-1.0, 1.0)
        if name in ("mu", "f_b"):
            x[i] += frac * span * u
        elif name in PHASE_NAMES:
            x[i] += frac * u
        elif name != "sigma":
            x[i] *= 1.0 + frac * u
    # just above its bound, sigma's column is dead and stage B is rank deficient
    x[PARAM_NAMES.index("sigma")] = sigma_floor(x[PARAM_NAMES.index("gamma")])
    x[PARAM_NAMES.index("mu")] = base_sweep.freqs[int(np.argmin(np.abs(base_sweep.values)))]
    return x


def run_calibration(dataset, seed=None):
    """Base-trace calibration for a simulated dataset (truth-free per-trace fits
    still need this one anchor; its init is the configured perturbed truth)."""
    cfg = dataset.config
    seed = cfg.seed if seed is None else seed
    init = _calibration_init(cfg, dataset.base.sweep, seed)
    return fit_base_calibration(dataset.base.sweep, init)


def extract_statistics(dataset, calibration=None):
    """Fit every trace of a dataset and convert to photon statistics.

    Runs `fit_base_calibration` on the stored base trace (unless a
    calibration is supplied), then one `fit_measurement` per record, in
    dataset order on the calling thread.  Non-converged fits are reported in
    their record via ``converged``/``n_iter``/``residual_norm`` rather than
    dropped.
    """
    cfg = dataset.config
    if calibration is None:
        calibration = run_calibration(dataset)
    sigma_base = float(calibration.fit.params[PARAM_NAMES.index("sigma")])
    mu_base = float(calibration.fit.params[PARAM_NAMES.index("mu")])
    scale = CalibrationScale(cfg.alpha_photon_per_hz)

    def one(point):
        mu, sigma, fit = fit_measurement(point.sweep, calibration)
        variance = sigma_to_variance(sigma, sigma_base, scale)
        mean = _invert_shift(cfg.freq_shift_poly_hz, mu - mu_base)
        g2 = g2_zero(PhotonMoments(mean, variance)) if mean > 0 else float("nan")
        power = flux_to_power(mean, cfg.radiator_frequency_hz, cfg.filter_fwhm_hz)
        return StatsRecord(
            control=point.control,
            mu_hz=mu,
            sigma_hz=sigma,
            mean_n=mean,
            variance_n=variance,
            g2=g2,
            power_w=power,
            converged=fit.converged,
            n_iter=fit.n_iter,
            residual_norm=fit.residual_norm,
        )

    return [one(point) for point in dataset.records]


# ---------------------------------------------------------------------------
# persistence


def trace_to_csv(sweep, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["f_p_hz", "re", "im"])
    for f, v in zip(sweep.freqs, sweep.values):
        writer.writerow([repr(float(f)), repr(float(v.real)), repr(float(v.imag))])


def trace_from_csv(fh):
    reader = csv.reader(fh)
    header = next(reader)
    if header != ["f_p_hz", "re", "im"]:
        raise ValueError(f"unexpected trace header: {header}")
    rows = [(float(f), complex(float(re), float(im))) for f, re, im in reader]
    return ComplexSweep(
        freqs=np.array([r[0] for r in rows]), values=np.array([r[1] for r in rows])
    )


def _encode_array(a):
    return base64.b64encode(np.ascontiguousarray(a, "<f8").tobytes()).decode("ascii")


def _decode_array(raw, key):
    """A v2 base64 float64 string, or a v1 JSON number list, as a float array."""
    if isinstance(raw, list):
        try:
            return np.array(raw, dtype=float)
        except TypeError:
            raise ValueError(f"'{key}': not a list of numbers") from None
    if not isinstance(raw, str):
        raise ValueError(f"'{key}': expected a base64 string, got {type(raw).__name__}")
    try:
        data = base64.b64decode(raw, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"'{key}': not valid base64 ({exc})") from None
    if len(data) % 8:
        raise ValueError(f"'{key}': {len(data)} bytes is not a whole number of float64 samples")
    return np.frombuffer(data, "<f8").astype(float)  # a writable native-order copy


def _point_to_dict(point):
    return {
        "control": point.control,
        "truth": point.truth,
        "f_p_hz": _encode_array(point.sweep.freqs),
        "re": _encode_array(point.sweep.values.real),
        "im": _encode_array(point.sweep.values.imag),
    }


def _require_object(obj, what, keys=()):
    """``obj`` if it is a JSON object holding ``keys``; a ValueError naming ``what`` if not."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what}: missing {', '.join(map(repr, missing))}")
    return obj


def _point_from_dict(d, what):
    _require_object(d, what, ("control", "truth", "f_p_hz", "re", "im"))
    freqs, re, im = (_decode_array(d[key], key) for key in ("f_p_hz", "re", "im"))
    if not freqs.shape == re.shape == im.shape:
        raise ValueError(
            f"trace arrays differ in length: f_p_hz {freqs.size}, re {re.size}, im {im.size}"
        )
    values = re.astype(complex)
    values.imag = im  # not re + 1j*im, which turns a -0.0 real part into +0.0
    return TracePoint(
        control=d["control"], truth=d["truth"], sweep=ComplexSweep(freqs, values)
    )


def dataset_to_json(dataset, fh):
    doc = {
        "format": DATASET_FORMAT,
        "config": dataset.config.to_dict(),
        "base": _point_to_dict(dataset.base),
        "records": [_point_to_dict(p) for p in dataset.records],
    }
    json.dump(doc, fh, indent=1, sort_keys=True)
    fh.write("\n")


def dataset_from_json(fh):
    doc = _require_object(json.load(fh), "dataset")
    if doc.get("format") not in _READ_FORMATS:
        raise ValueError(f"not a bolostat dataset document (format {doc.get('format')!r})")
    _require_object(doc, "dataset", ("config", "base", "records"))
    if not isinstance(doc["records"], list):
        raise ValueError(f"'records': expected a list, got {type(doc['records']).__name__}")
    return SweepDataset(
        config=SweepConfig.from_dict(_require_object(doc["config"], "'config'")),
        base=_point_from_dict(doc["base"], "'base'"),
        records=tuple(_point_from_dict(p, f"record {k}") for k, p in enumerate(doc["records"])),
    )


def stats_to_csv(records, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(STATS_HEADER)
    for r in records:
        writer.writerow([_WRITE_CELL[f.type](getattr(r, f.name)) for f in _STATS_FIELDS])


def stats_from_csv(fh):
    reader = csv.reader(fh)
    header = next(reader)
    if header != STATS_HEADER:
        raise ValueError(f"unexpected statistics header: {header}")
    return [
        StatsRecord(*(_READ_CELL[f.type](text) for f, text in zip(_STATS_FIELDS, row, strict=True)))
        for row in reader
    ]
