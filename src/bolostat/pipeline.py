"""End-to-end synthetic sweeps: configuration, trace synthesis, staged
extraction of photon moments, and file I/O.

A sweep walks a control variable (radiator temperature or coherent input
flux), synthesizes the full-chain reflection trace implied by the photon
statistics at each point, and stores the truth alongside for round-trip
scoring.  Extraction runs the staged fit (one base calibration, one
six-parameter fit per trace), converts the fitted resonance shift into a
mean photon flux through the configured calibration polynomial, converts
the fitted broadening v = sigma**2 into a variance through
(Delta n)^2 = alpha^2 (v - v_base) referenced to the base trace, and
reports g2(0).

File formats (all deterministic given the same inputs):

* datasets: one JSON document (``bolostat-dataset-v3``) with config, truth
  table, and traces.  Config, control and truth are plain sorted JSON.  The
  probe grid ``f_p_hz`` is stored once, at the top level, and each trace
  stores only ``re`` and ``im``; every array is one base64 string of
  little-endian float64 bytes, so a read-back is bitwise exact and costs no
  per-sample text formatting.  The reader hands every trace the same
  read-only grid array.
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

from .fitkit import ComplexSweep, fit_base_calibration, fit_measurements
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
from .response import _LINE, PARAM_NAMES, PHASE_NAMES, _frame, _line, _scalars
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
    "dataset_to_json",
    "dataset_from_json",
    "stats_to_csv",
    "stats_from_csv",
    "DATASET_FORMAT",
]

DATASET_FORMAT = "bolostat-dataset-v3"

MODES = ("thermal", "coherent", "mixed")

# relative spread of the perturbed-truth calibration start (see _calibration_init)
INIT_PERTURBATION = 0.05


class ConfigError(ValueError):
    """A sweep configuration field failed validation."""


def default_seed(explicit=None, config_seed=0):
    """Seed precedence: explicit flag > BOLOSTAT_SEED env var > config.

    The flag and the variable must be non-negative integers, as the config's
    ``seed`` must be: the seed keys Philox streams, which take no negative
    key.
    """
    if explicit is not None:
        if explicit < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {explicit}")
        return int(explicit)
    env = os.environ.get("BOLOSTAT_SEED")
    if env is None:
        return int(config_seed)
    try:
        seed = int(env)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ConfigError(f"BOLOSTAT_SEED must be a non-negative integer, got {env!r}")
    return seed


@dataclass(frozen=True)
class ChainParams:
    """True measurement-chain scalars used for synthesis.

    Every `PARAM_NAMES` scalar except the line center and broadening v,
    which `vector` takes per trace; ``mu_base_hz`` is the center at zero
    input.
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

    def vector(self, mu, v):
        """Raw `PARAM_NAMES` vector with the given line center (Hz) and
        broadening v = sigma**2 (Hz^2)."""
        values = dict(vars(self), mu=mu, v=v)
        return np.array([values[name] for name in PARAM_NAMES])


@dataclass(frozen=True)
class SweepConfig:
    mode: str
    seed: int
    radiator_frequency_hz: float
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
        def number(value, kind):
            # a finite JSON number as int or float: float() and int() would
            # read True as 1, "5" as 5 and accept Infinity, and int() would
            # truncate 2.5
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError
            if isinstance(value, float) and not (
                math.isfinite(value) and (kind is float or value.is_integer())
            ):
                raise ValueError
            return kind(value)

        def need(key, kind, check=None, msg="", source=raw, prefix=""):
            field = prefix + key
            if key not in source:
                raise ConfigError(f"field '{field}': missing")
            value = source[key]
            try:
                if kind is tuple:
                    if not isinstance(value, (list, tuple)):
                        raise TypeError
                    value = tuple(number(v, float) for v in value)
                elif kind is str:
                    value = str(value)
                else:
                    value = number(value, kind)
            except (TypeError, ValueError, OverflowError):
                expected = {tuple: "a list of finite numbers", int: "an integer"}.get(kind, "a finite number")
                raise ConfigError(f"field '{field}': expected {expected}") from None
            if check is not None and not check(value):
                raise ConfigError(f"field '{field}': {msg}")
            return value

        mode = need("mode", str, lambda m: m in MODES, f"must be one of {MODES}")
        cfg = dict(
            mode=mode,
            seed=need("seed", int, lambda v: v >= 0, "must be non-negative") if "seed" in raw else 0,
            radiator_frequency_hz=need(
                "radiator_frequency_hz", float, lambda v: v > 0, "must be positive"
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
        c = cfg["chain"] = ChainParams(
            **{
                name: need(name, float, source=raw["chain"], prefix="chain.")
                for name in ChainParams.__dataclass_fields__
            }
        )
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


def _synthesize(cfg, freqs, frame, mean, variance, rng):
    # frame is the sweep's `_frame` on freqs, so values is bitwise
    # _chain_model(cfg.chain.vector(mu, v), freqs)
    v = variance / cfg.alpha_photon_per_hz**2
    mu = cfg.chain.mu_base_hz + _shift_hz(cfg.freq_shift_poly_hz, mean)
    values = frame * _line(*_scalars(cfg.chain.vector(mu, v), _LINE), freqs)
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
        "sigma_hz": math.sqrt(v),
    }
    return truth, ComplexSweep(freqs=freqs, values=values)


def simulate_sweep(cfg, seed=None):
    """Synthesize the full trace dataset for a sweep configuration.

    Deterministic for a given (config, seed); the seed keys the Philox
    stream of the per-trace noise (the calibration init perturbation used
    later draws from its own ``Philox(seed + 1)`` stream, see
    `_calibration_init`).  A zero-input base trace, at v = 0, is always
    included as the fitting reference.  The returned dataset carries the
    seed actually used in its config, so a stored dataset reproduces
    itself.  Every trace shares one read-only probe grid, and the delay and
    background, which no trace changes, are evaluated on it once.  Each
    trace's line is its own `_line` call: one call over the whole sweep
    would hold several sweep-sized temporaries at once.
    """
    seed = cfg.seed if seed is None else seed
    cfg = dataclasses.replace(cfg, seed=int(seed))
    rng = np.random.Generator(np.random.Philox(seed))
    freqs = cfg.probe_grid()
    freqs.flags.writeable = False
    frame = _frame(cfg.chain.vector(cfg.chain.mu_base_hz, 0.0), freqs)
    truth, sweep = _synthesize(cfg, freqs, frame, 0.0, 0.0, rng)
    base = TracePoint(control=None, truth=truth, sweep=sweep)
    records = []
    for control in cfg.control_values():
        mean, variance = cfg.truth_moments(control)
        truth, sweep = _synthesize(cfg, freqs, frame, mean, variance, rng)
        records.append(TracePoint(control=float(control), truth=truth, sweep=sweep))
    return SweepDataset(config=cfg, base=base, records=tuple(records))


def _calibration_init(cfg, base_sweep, seed):
    """Perturbed-truth starting point for the base calibration, a `PARAM_NAMES` vector.

    Scale parameters move by +-INIT_PERTURBATION relative, frequencies by
    +-INIT_PERTURBATION of the probe span, phases by +-INIT_PERTURBATION rad;
    mu additionally snaps to the trace magnitude minimum, and v stays 0, on
    its bound.  The start need not be a physical chain (gamma_c may cross
    gamma); the fit clips it into its box.
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
        elif name != "v":
            x[i] *= 1.0 + frac * u
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
    calibration is supplied), then one `fit_measurements` call over every
    record, on the calling thread; the records share one probe grid.
    Records come back in dataset order.  Non-converged
    fits, singular ones included, are reported in their record via
    ``converged``/``n_iter``/``residual_norm`` rather than dropped.
    """
    cfg = dataset.config
    if calibration is None:
        calibration = run_calibration(dataset)
    sigma_base = math.sqrt(calibration.fit.params[PARAM_NAMES.index("v")])
    mu_base = float(calibration.fit.params[PARAM_NAMES.index("mu")])
    scale = CalibrationScale(cfg.alpha_photon_per_hz)

    def one(point, mu, sigma, fit):
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

    fitted = fit_measurements([point.sweep for point in dataset.records], calibration)
    return [one(point, *fit) for point, fit in zip(dataset.records, fitted)]


# ---------------------------------------------------------------------------
# persistence


def _encode_array(a):
    return base64.b64encode(np.ascontiguousarray(a, "<f8").tobytes()).decode("ascii")


def _decode_array(raw, key):
    """A base64 string of little-endian float64 bytes as a read-only float array."""
    if not isinstance(raw, str):
        raise ValueError(f"'{key}': expected a base64 string, got {type(raw).__name__}")
    try:
        data = base64.b64decode(raw, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"'{key}': not valid base64 ({exc})") from None
    if len(data) % 8:
        raise ValueError(f"'{key}': {len(data)} bytes is not a whole number of float64 samples")
    return np.frombuffer(data, "<f8")


def _point_text(point):
    """One trace as JSON text.  The base64 strings go between quotes as they
    are: their alphabet needs no escaping, so they skip the JSON encoder."""
    re, im = (_encode_array(part) for part in (point.sweep.values.real, point.sweep.values.imag))
    return (
        f'{{"control": {json.dumps(point.control)}, "im": "{im}", "re": "{re}", '
        f'"truth": {json.dumps(point.truth, sort_keys=True)}}}'
    )


def _require_object(obj, what, keys=()):
    """``obj`` if it is a JSON object holding ``keys``; a ValueError naming ``what`` if not."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what}: missing {', '.join(map(repr, missing))}")
    return obj


def _point_from_dict(d, what, grid, base=False):
    """A TracePoint on the dataset's probe grid from its JSON object; a
    record's control must be a number (the base trace's is null)."""
    _require_object(d, what, ("control", "truth", "re", "im"))
    control = d["control"]
    if not base and (isinstance(control, bool) or not isinstance(control, (int, float))):
        raise ValueError(f"{what}: 'control' must be a number, got {control!r}")
    re, im = (_decode_array(d[key], key) for key in ("re", "im"))
    if not grid.shape == re.shape == im.shape:
        raise ValueError(
            f"{what}: trace length differs from the probe grid: "
            f"f_p_hz {grid.size}, re {re.size}, im {im.size}"
        )
    values = np.empty(grid.shape, dtype=complex)
    values.real = re  # not re + 1j*im, which turns a -0.0 real part into +0.0
    values.imag = im
    return TracePoint(control=control, truth=d["truth"], sweep=ComplexSweep(grid, values))


def dataset_to_json(dataset, fh):
    """Write a dataset as one ``bolostat-dataset-v3`` document.

    The document stores one probe grid, so a record on any other grid is
    refused (ValueError naming it) before anything is written.
    """
    grid_bits = dataset.base.sweep.freqs.tobytes()
    for k, point in enumerate(dataset.records):
        if point.sweep.freqs.tobytes() != grid_bits:
            raise ValueError(f"record {k}: probe grid differs from the base trace's")
    config = json.dumps(dataset.config.to_dict(), indent=1, sort_keys=True).replace("\n", "\n ")
    fh.write(
        f'{{\n "format": "{DATASET_FORMAT}",\n "config": {config},\n'
        f' "f_p_hz": "{_encode_array(dataset.base.sweep.freqs)}",\n'
        f' "base": {_point_text(dataset.base)},\n "records": ['
    )
    for k, point in enumerate(dataset.records):
        fh.write(("\n  " if k == 0 else ",\n  ") + _point_text(point))
    fh.write("\n ]\n}\n")


def dataset_from_json(fh):
    doc = _require_object(json.load(fh), "dataset")
    if doc.get("format") != DATASET_FORMAT:
        raise ValueError(f"not a bolostat dataset document (format {doc.get('format')!r})")
    _require_object(doc, "dataset", ("config", "f_p_hz", "base", "records"))
    if not isinstance(doc["records"], list):
        raise ValueError(f"'records': expected a list, got {type(doc['records']).__name__}")
    config = SweepConfig.from_dict(_require_object(doc["config"], "'config'"))
    grid = _decode_array(doc["f_p_hz"], "f_p_hz").astype(float)  # native order
    grid.flags.writeable = False  # one array, shared by every trace
    base = _point_from_dict(doc["base"], "'base'", grid, base=True)
    records = tuple(
        _point_from_dict(p, f"record {k}", grid) for k, p in enumerate(doc["records"])
    )
    return SweepDataset(config=config, base=base, records=records)


def stats_to_csv(records, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(STATS_HEADER)
    for r in records:
        writer.writerow([_WRITE_CELL[f.type](getattr(r, f.name)) for f in _STATS_FIELDS])


def _csv_rows(reader, columns):
    """The data rows of a CSV reader, each parsed by ``columns``, one (name,
    parse) pair per cell.  A row with the wrong number of cells, or a cell
    that does not parse, raises a ValueError naming the row (1 = the first
    after the header) and the cell's column."""
    for k, row in enumerate(reader, start=1):
        if len(row) != len(columns):
            raise ValueError(f"row {k}: expected {len(columns)} fields, got {len(row)}")
        cells = []
        for (name, parse), text in zip(columns, row):
            try:
                cells.append(parse(text))
            except ValueError:
                raise ValueError(f"row {k}, column '{name}': cannot read {text!r}") from None
        yield cells


def stats_from_csv(fh):
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise ValueError("empty statistics file")
    if header != STATS_HEADER:
        raise ValueError(f"unexpected statistics header: {header}")
    columns = [(f.name, _READ_CELL[f.type]) for f in _STATS_FIELDS]
    return [StatsRecord(*cells) for cells in _csv_rows(reader, columns)]
