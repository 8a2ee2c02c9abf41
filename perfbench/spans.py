"""In-memory span tracer and the per-layer metrics computed from its spans.

Only the traced run installs it.  `Tracer.install` replaces the layer entry
points listed in `_targets` with wrappers that record one span per call:
(name, start, end, parent span, unit id, attributes).  Nothing is written
until the run ends (`Tracer.dump`).

A layer's self time is its span's duration minus the durations of its
direct child spans; calls are single-threaded, so children never overlap.
"""

import json
import os
import statistics
import time
import warnings

import numpy as np

from bolostat import cli, dspchain, fitkit, pipeline

# photonstats functions under the names pipeline imports them by
_PHOTONSTATS_NAMES = (
    "planck_mean_photon",
    "thermal_variance",
    "coherent_variance",
    "mixed_moments",
    "beamsplitter_combine",
    "flux_to_power",
)

_NAME, _START, _END, _PARENT, _UNIT, _ATTRS = range(6)


class Tracer:
    """Records nested spans in memory; `unit` tags each span with its unit."""

    def __init__(self):
        self.spans = []
        self.unit = None
        self.missing = []
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, before=None, after=None):
        """Callable that runs ``fn`` inside a span.

        ``name`` is a string or a function of the call's arguments.
        ``before(attrs, args, kwargs)`` may return replacement (args, kwargs);
        ``after(attrs, args, kwargs, result)`` records attributes.
        """

        def traced(*args, **kwargs):
            attrs = {}
            span = [
                name if isinstance(name, str) else name(args, kwargs),
                0.0,
                0.0,
                self._stack[-1] if self._stack else -1,
                self.unit,
                attrs,
            ]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if before is not None:
                args, kwargs = before(attrs, args, kwargs) or (args, kwargs)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["raised"] = type(exc).__name__
                raise
            finally:
                span[_END] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(attrs, args, kwargs, result)
            return result

        return traced

    def current(self):
        return self.spans[self._stack[-1]][_ATTRS]

    def install(self):
        for module, attr, name, before, after, inner in _targets(self):
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            fn = inner(original) if inner is not None else original
            setattr(module, attr, self.wrap(name, fn, before, after))
            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def dump(self, path, units):
        with open(path, "w") as fh:
            json.dump({"units": units, "spans": self.spans}, fh)
            fh.write("\n")


def _targets(tracer):
    """(module, attribute, span name, before, after, inner) per entry point."""

    def erfcx_after(attrs, args, kwargs, result):
        attrs["points"] = int(np.size(args[0]))

    def lm_before(attrs, args, kwargs):
        # the forward model is the callable handed to least_squares
        if args:
            args = (tracer.wrap("response.model", args[0]),) + args[1:]
        else:
            kwargs = dict(kwargs, model=tracer.wrap("response.model", kwargs["model"]))
        return args, kwargs

    def lm_after(attrs, args, kwargs, result):
        attrs["iters"] = int(result.n_iter)
        attrs["converged"] = bool(result.converged)

    def counting_sigma_warnings(fn):
        category = getattr(fitkit, "DegenerateSigmaWarning", Warning)

        def call(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            tracer.current()["sigma_floor"] = sum(
                issubclass(w.category, category) for w in caught
            )
            return result

        return call

    def calibration_after(attrs, args, kwargs, result):
        attrs["converged"] = bool(result.fit.converged)
        attrs["misfit"] = bool(result.misfit_flag)

    def measurement_after(attrs, args, kwargs, result):
        attrs["converged"] = bool(result[2].converged)

    def to_json_before(attrs, args, kwargs):
        attrs["offset"] = args[1].tell()

    def to_json_after(attrs, args, kwargs, result):
        attrs["bytes"] = args[1].tell() - attrs.pop("offset")

    def from_json_before(attrs, args, kwargs):
        attrs["bytes"] = os.fstat(args[0].fileno()).st_size

    def fir_after(attrs, args, kwargs, result):
        # computed from array sizes: complex input and output, real taps
        n_in, n_taps, n_out = len(args[0]), args[1].n_taps, len(result)
        attrs["macs"] = n_out * n_taps
        attrs["bytes"] = 16 * n_in + 8 * n_taps + 16 * n_out

    def cli_name(args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        return f"cli.{argv[0]}"

    targets = [
        (fitkit, "erfcx", "specfun.erfcx", None, erfcx_after, None),
        (fitkit, "least_squares", "fitkit.lm", lm_before, lm_after, None),
        (pipeline, "_chain_model", "response.model", None, None, None),
        (pipeline, "fit_base_calibration", "fitkit.calibration", None,
         calibration_after, counting_sigma_warnings),
        (pipeline, "fit_measurement", "fitkit.measurement", None,
         measurement_after, counting_sigma_warnings),
        (pipeline, "simulate_sweep", "pipeline.simulate", None, None, None),
        (pipeline, "dataset_to_json", "pipeline.to_json", to_json_before, to_json_after, None),
        (pipeline, "dataset_from_json", "pipeline.from_json", from_json_before, None, None),
        (pipeline, "extract_statistics", "pipeline.extract", None, None, None),
        (pipeline, "stats_to_csv", "pipeline.stats_csv", None, None, None),
        (dspchain, "synth_raw_trace", "dspchain.synth", None, None, None),
        (dspchain, "digital_downconvert", "dspchain.ddc", None, None, None),
        (dspchain, "fir_lowpass", "dspchain.fir", None, fir_after, None),
        (dspchain, "decimate", "dspchain.decimate", None, None, None),
        (dspchain, "average_traces", "dspchain.average", None, None, None),
        (cli, "main", cli_name, None, None, None),
    ]
    targets += [
        (pipeline, attr, "photonstats", None, None, None) for attr in _PHOTONSTATS_NAMES
    ]
    return targets


def layer_metrics(spans, units):
    """Per-layer totals over the spans of the given units (one pass)."""
    durations = [span[_END] - span[_START] for span in spans]
    child_s = [0.0] * len(spans)
    for k, span in enumerate(spans):
        if span[_PARENT] >= 0:
            child_s[span[_PARENT]] += durations[k]

    total = {}
    self_total = {}
    calls = {}
    attr_sum = {}
    fits = converged = raised = lm_evals = 0
    for k, span in enumerate(spans):
        if span[_UNIT] not in units:
            continue
        name, attrs = span[_NAME], span[_ATTRS]
        total[name] = total.get(name, 0.0) + durations[k]
        self_total[name] = self_total.get(name, 0.0) + durations[k] - child_s[k]
        calls[name] = calls.get(name, 0) + 1
        for key, value in attrs.items():
            if isinstance(value, (bool, int, float)):
                attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value
        if name in ("fitkit.calibration", "fitkit.measurement"):
            fits += 1
            converged += bool(attrs.get("converged"))
            raised += "raised" in attrs
        if name == "response.model" and span[_PARENT] >= 0:
            lm = spans[span[_PARENT]]
            # evaluations of a fit that raised have no iteration count
            lm_evals += lm[_NAME] == "fitkit.lm" and "raised" not in lm[_ATTRS]

    def s(name):
        return total.get(name, 0.0)

    def n(name, key=None):
        return calls.get(name, 0) if key is None else attr_sum.get((name, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    erfcx_points = n("specfun.erfcx", "points")
    lm_iters = n("fitkit.lm", "iters")
    json_bytes = n("pipeline.to_json", "bytes") + n("pipeline.from_json", "bytes")
    fir_macs = n("dspchain.fir", "macs")
    return {
        "specfun.erfcx.calls": n("specfun.erfcx"),
        "specfun.erfcx.points": erfcx_points,
        "specfun.erfcx.s": s("specfun.erfcx"),
        "specfun.erfcx.ns_per_point": 1e9 * ratio(s("specfun.erfcx"), erfcx_points),
        "response.model.evals": n("response.model"),
        "response.model.s": s("response.model"),
        "response.model.self_s": self_total.get("response.model", 0.0),
        "fitkit.lm.calls": n("fitkit.lm"),
        "fitkit.lm.iters": lm_iters,
        "fitkit.lm.evals_per_iter": ratio(lm_evals, lm_iters),
        "fitkit.lm.self_s": self_total.get("fitkit.lm", 0.0),
        "fitkit.calibration.s": s("fitkit.calibration"),
        "fitkit.measurement.s": s("fitkit.measurement"),
        "fitkit.fits.converged_ratio": ratio(converged, fits),
        "fitkit.fits.raised": raised,
        "fitkit.sigma_floor_warnings": n("fitkit.calibration", "sigma_floor")
        + n("fitkit.measurement", "sigma_floor"),
        "fitkit.misfit_flags": n("fitkit.calibration", "misfit"),
        "pipeline.simulate.s": s("pipeline.simulate"),
        "pipeline.to_json.s": s("pipeline.to_json"),
        "pipeline.from_json.s": s("pipeline.from_json"),
        "pipeline.json.bytes": json_bytes,
        "pipeline.json.mb_per_s": 1e-6 * ratio(
            json_bytes, s("pipeline.to_json") + s("pipeline.from_json")
        ),
        "pipeline.extract.s": s("pipeline.extract"),
        "pipeline.stats_csv.s": s("pipeline.stats_csv"),
        "photonstats.calls": n("photonstats"),
        "photonstats.s": s("photonstats"),
        "dspchain.synth.s": s("dspchain.synth"),
        "dspchain.ddc.s": s("dspchain.ddc"),
        "dspchain.fir.s": s("dspchain.fir"),
        "dspchain.decimate.s": s("dspchain.decimate"),
        # average_traces pulls the chain through a generator: its self time
        # is the accumulation alone
        "dspchain.average.s": self_total.get("dspchain.average", 0.0),
        "dspchain.fir.macs": fir_macs,
        "dspchain.fir.bytes": n("dspchain.fir", "bytes"),
        "dspchain.fir.gmacs_per_s": 1e-9 * ratio(fir_macs, s("dspchain.fir")),
        "cli.simulate.s": s("cli.simulate"),
        "cli.fit.s": s("cli.fit"),
        "cli.self_s": self_total.get("cli.simulate", 0.0) + self_total.get("cli.fit", 0.0),
    }


def combine_passes(per_pass, exact):
    """Median of each metric over passes; the ``exact`` counts must repeat
    exactly for the same inputs, and those that drifted are returned."""
    combined = {
        key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]
    }
    for key in exact:
        combined[key] = per_pass[0][key]
    drift = [key for key in exact if len({p[key] for p in per_pass}) > 1]
    return combined, drift


def roadmap_crosscheck(spans, unit_labels):
    """Traced figures beside the baseline table in ROADMAP.md, which was
    measured on the clean thermal sweep (9 traces x 451 points)."""
    thermal = {u for u, label in unit_labels.items() if label.startswith("thermal noise=0.0 ")}

    def durations(name):
        return [
            span[_END] - span[_START] for span in spans
            if span[_NAME] == name and span[_UNIT] in thermal and "raised" not in span[_ATTRS]
        ]

    erfcx_451 = [
        span[_END] - span[_START] for span in spans
        if span[_NAME] == "specfun.erfcx" and span[_ATTRS].get("points") == 451
    ]
    meas_iters = [
        span[_ATTRS]["iters"] for span in spans
        if span[_NAME] == "fitkit.lm" and span[_UNIT] in thermal and "iters" in span[_ATTRS]
        and span[_PARENT] >= 0 and spans[span[_PARENT]][_NAME] == "fitkit.measurement"
    ]
    meas_s = durations("fitkit.measurement")
    thermal_extract = durations("pipeline.extract")

    def med(values):
        return statistics.median(values) if values else None

    return {
        "erfcx_451_ms_per_call": {
            "roadmap": 1.49,
            "traced": None if not erfcx_451 else 1e3 * med(erfcx_451),
        },
        "measurement_fit_ms": {
            "roadmap": 48.0,
            "traced": None if not meas_s else 1e3 * med(meas_s),
        },
        "measurement_fit_lm_iters": {
            "roadmap": "5-6",
            "traced": med(meas_iters),
        },
        "thermal_extraction_s": {
            "roadmap": 0.431,
            "traced": med(thermal_extract),
        },
    }
