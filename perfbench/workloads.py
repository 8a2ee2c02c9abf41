"""The benchmark's workloads: input generation, one timed unit, and the
correctness checks on that unit's outputs.

Each workload builds a finite `schedule` of unit specs from the seed; the
timed loop cycles through it, so the same spec recurs and its outputs can be
compared byte for byte with its first run.  `trace_set` is the fixed list of
specs one traced pass runs, so that per-pass counts can repeat exactly.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from bolostat import cli, dspchain, pipeline

SHIPPED_CONFIGS = ("thermal", "coherent", "mixed")
TRUTH_RTOL = 1e-6
_NOT_CONVERGED = re.compile(r"(\d+) fit\(s\) did not converge")


def derived_seed(*parts):
    """32-bit seed from the workload seed and a position; same parts, same seed."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class UnitResult:
    seconds: float  # timed region: the calls into the program only
    items: int  # work done: stats rows, probe points or raw samples
    attempted: int
    failed: int
    returned: bool  # False when the program raised; not a timing sample
    errors: list = field(default_factory=list)  # wrong outputs: the run is not correct
    fit_failures: int = 0  # noisy-sweep fits that raised, did not converge or are non-finite


class SweepFit:
    """`bolostat simulate` then `bolostat fit` on each shipped config, as
    shipped (noise 0) and again at noise 0.01 with seeds drawn from the run
    seed.

    The fitting path dominates: LM with a finite-difference Jacobian over
    small-array erfcx calls.  The noisy half exercises the failure paths
    (calibration RankDeficiencyError, non-convergence).  How many noisy fits
    fail depends on how many noise draws a timed run reaches, so they are
    tallied apart (`fit_failures`, and `fitkit.fits.*` in the traced run)
    rather than as failed operations.  An operation fails when its output
    is wrong: a clean fit that fails or misses truth, or any output that
    differs from the first run of the same inputs.
    """

    name = "sweep_fit"
    item = "stats rows"
    aliases = {
        "items_per_s": ("traces_per_s", 1.0),
        "unit_s.p50": ("sweep_s.p50", 1.0),
        "unit_s.tail": ("sweep_s.tail", 1.0),
    }
    NOISE = 0.01
    # one cycle runs each config as shipped and once with a fresh noisy
    # seed, so a run averages over many noise draws; the schedule wraps
    # after CYCLES, and the traced run repeats its first cycle, so every
    # spec can recur and be compared with its first run
    cycle = 2 * len(SHIPPED_CONFIGS)
    CYCLES = 32

    def __init__(self, root, workdir, seed):
        self.root, self.workdir, self.seed = root, workdir, seed
        self._reference = {}

    def make_inputs(self):
        shipped = {}
        for name in SHIPPED_CONFIGS:
            with open(self.root / "configs" / f"{name}.json") as fh:
                shipped[name] = json.load(fh)
        self.schedule = []
        for k in range(self.CYCLES):
            for c, name in enumerate(SHIPPED_CONFIGS):
                raw = shipped[name]
                noisy_seed = derived_seed(self.name, self.seed, k, c)
                for tag, cfg in (
                    (f"{name}-shipped", raw),
                    (f"{name}-noisy-{noisy_seed}", dict(raw, noise=self.NOISE, seed=noisy_seed)),
                ):
                    path = self.workdir / f"{tag}.config.json"
                    path.write_text(json.dumps(cfg))
                    n_records = len(cfg["flux_grid"] if cfg["mode"] == "coherent" else cfg["t_grid_k"])
                    self.schedule.append(dict(
                        label=f"{name} noise={float(cfg['noise'])} seed={cfg['seed']}",
                        tag=tag, config=path, noise=cfg["noise"], n_records=n_records,
                    ))
        self.trace_set = self.schedule[: self.cycle]

    def run(self, spec):
        dataset = self.workdir / f"{spec['tag']}.dataset.json"
        stats = self.workdir / f"{spec['tag']}.stats.csv"
        stderr = io.StringIO()
        attempted = 1 + spec["n_records"]  # base calibration + one fit per trace
        clean = spec["noise"] == 0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                rc_sim = cli.main(["simulate", "--config", str(spec["config"]), "--out", str(dataset)])
                rc_fit = cli.main(["fit", str(dataset), "--out", str(stats)]) if rc_sim == 0 else None
        except Exception as exc:  # a fit that raises aborts the whole sweep
            seconds = time.perf_counter() - start
            outcome = f"raised {type(exc).__name__}"
            errors = self._check_repeat(spec, outcome, dataset)
            if clean:
                errors.append(f"{spec['label']}: clean sweep {outcome}: {exc}")
                return UnitResult(seconds, 0, attempted, attempted, False, errors)
            failed = attempted if errors else 0
            return UnitResult(seconds, 0, attempted, failed, False, errors, fit_failures=attempted)
        seconds = time.perf_counter() - start

        if rc_sim != 0 or rc_fit not in (0, 2):
            return UnitResult(seconds, 0, attempted, attempted, True, [
                f"{spec['label']}: simulate exit {rc_sim}, fit exit {rc_fit}: {stderr.getvalue()[-300:]}"
            ])
        data = stats.read_bytes()
        errors = self._check_repeat(spec, data, dataset)
        reference, truth = self._reference[spec["tag"]]
        ref_lines = reference.splitlines() if isinstance(reference, bytes) else []
        lines = data.splitlines()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(rows) != spec["n_records"]:
            errors.append(f"{spec['label']}: {len(rows)} rows for {spec['n_records']} traces")
            return UnitResult(seconds, len(rows), attempted, attempted, True, errors)

        fit_failures = 0
        not_converged = sum(row["converged"] != "1" for row in rows)
        if rc_fit == 2:
            match = _NOT_CONVERGED.search(stderr.getvalue())
            if match is None:
                errors.append(f"{spec['label']}: fit exit 2 without a count of failed fits")
            else:  # the CLI counts the calibration with the trace fits
                fit_failures += int(match.group(1)) - not_converged
        wrong = 0  # rows whose output is wrong
        failed = fit_failures  # on a clean sweep every fit failure is a failed op
        for k, row in enumerate(rows):
            unfit = row["converged"] != "1" or any(
                not math.isfinite(float(v)) for key, v in row.items() if key != "converged"
            )
            bad = k + 1 >= len(ref_lines) or lines[k + 1] != ref_lines[k + 1]
            if clean and k < len(truth):
                for key in ("mean_n", "variance_n"):
                    want = truth[k][key]
                    bad |= not abs(float(row[key]) - want) <= TRUTH_RTOL * abs(want)
            fit_failures += unfit
            wrong += bad
            failed += unfit or bad
        if clean:
            if failed:
                errors.append(f"{spec['label']}: {failed} of {attempted} fits failed on a clean sweep")
            return UnitResult(seconds, len(rows), attempted, failed, True, errors)
        return UnitResult(seconds, len(rows), attempted, wrong, True, errors, fit_failures=fit_failures)

    def _check_repeat(self, spec, outcome, dataset):
        """Compare with the first run of this spec; the first run sets it."""
        if spec["tag"] not in self._reference:
            truth = []
            if isinstance(outcome, bytes):
                with open(dataset) as fh:
                    truth = [p["truth"] for p in json.load(fh)["records"]]
            self._reference[spec["tag"]] = (outcome, truth)
            return []
        if outcome != self._reference[spec["tag"]][0]:
            return [f"{spec['label']}: output differs from the first run of the same inputs"]
        return []


class SynthIo:
    """`bolostat simulate` of a dense thermal dataset (4001 probe points x 16
    temperatures, noise 0.01, about 4.4 MB of JSON), read back with
    `pipeline.dataset_from_json` as `fit` does.  No fitting: persistence
    dominates, and erfcx runs on long arrays where its per-point cost, not
    its per-call overhead, shows.
    """

    name = "synth_io"
    item = "probe points"
    aliases = {
        "items_per_s": ("points_per_s", 1.0),
        "unit_s.p50": ("dataset_s.p50", 1.0),
        "unit_s.tail": ("dataset_s.tail", 1.0),
    }
    cycle = 1
    PROBE_POINTS = 4001
    TEMPERATURES = 16

    def __init__(self, root, workdir, seed):
        self.root, self.workdir, self.seed = root, workdir, seed
        self._reference = None

    def make_inputs(self):
        with open(self.root / "configs" / "thermal.json") as fh:
            raw = json.load(fh)
        seed = derived_seed(self.name, self.seed)
        raw.update(
            noise=0.01,
            seed=seed,
            probe_points=self.PROBE_POINTS,
            t_grid_k=[round(t, 6) for t in np.linspace(0.15, 2.3, self.TEMPERATURES)],
        )
        self.raw = raw
        path = self.workdir / "dense.config.json"
        path.write_text(json.dumps(raw))
        spec = dict(label=f"thermal dense noise=0.01 seed={seed}", tag="dense", config=path)
        self.schedule = [spec]
        self.trace_set = [spec, spec]

    def run(self, spec):
        out = self.workdir / f"{spec['tag']}.dataset.json"
        stderr = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(["simulate", "--config", str(spec["config"]), "--out", str(out)])
        if rc == 0:
            with open(out) as fh:
                dataset = pipeline.dataset_from_json(fh)
        seconds = time.perf_counter() - start
        if rc != 0:
            return UnitResult(seconds, 0, 1, 1, True, [f"simulate exit {rc}: {stderr.getvalue()[-300:]}"])

        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if self._reference is None:
            cfg = pipeline.SweepConfig.from_dict(self.raw)
            self._reference = (digest, pipeline.simulate_sweep(cfg))
        errors = []
        if digest != self._reference[0]:
            errors.append(f"{spec['label']}: JSON bytes differ from the first run")
        if not _same_dataset(dataset, self._reference[1]):
            errors.append(f"{spec['label']}: read-back differs from the simulated dataset")
        points = sum(len(p.sweep) for p in (dataset.base, *dataset.records))
        return UnitResult(seconds, points, 1, int(bool(errors)), True, errors)


def _same_dataset(a, b):
    if a.config != b.config or len(a.records) != len(b.records):
        return False
    for p, q in zip((a.base, *a.records), (b.base, *b.records)):
        if p.control != q.control or p.truth != q.truth:
            return False
        if not (np.array_equal(p.sweep.freqs, q.sweep.freqs)
                and np.array_equal(p.sweep.values, q.sweep.values)):
            return False
    return True


class DspDemod:
    """N noisy 32 us traces at 250 Msps, each down-converted at 62.5 MHz,
    low-passed by the default 129-tap FIR and decimated by 4, then averaged
    into one IQ trace.  Only dspchain works here.
    """

    name = "dsp_demod"
    item = "raw samples"
    aliases = {
        "items_per_s": ("msamples_per_s", 1e-6),
        "unit_s.p50": ("avg_trace_s.p50", 1.0),
        "unit_s.tail": ("avg_trace_s.tail", 1.0),
    }
    cycle = 1
    FS = 250e6
    F_IF = 62.5e6
    DURATION = 32e-6
    TRACES = 64
    NOISE_RMS = 0.02
    DECIMATE = 4
    # criterion 8 of the acceptance tests: mean IQ within 1e-3 of amp/2 e^{i theta}
    TOL = 1e-3
    SCHEDULE = 16

    def __init__(self, root, workdir, seed):
        self.root, self.workdir, self.seed = root, workdir, seed

    def make_inputs(self):
        self.schedule = []
        for k in range(self.SCHEDULE):
            rng = np.random.Generator(np.random.Philox(derived_seed(self.name, self.seed, k)))
            amp = float(rng.uniform(0.5, 1.5))
            theta = float(rng.uniform(-math.pi, math.pi))
            first = derived_seed(self.name, self.seed, k, "traces")
            self.schedule.append(
                dict(label=f"tone amp={amp:.4f} theta={theta:.4f}", amp=amp, theta=theta, first=first)
            )
        self.trace_set = self.schedule[:8]

    def _chain(self, spec, k):
        trace = dspchain.synth_raw_trace(
            spec["amp"], spec["theta"], self.F_IF, self.NOISE_RMS, self.DURATION, self.FS,
            (spec["first"] + k) % 2**32,
        )
        stream = dspchain.digital_downconvert(trace, self.F_IF)
        stream = dspchain.fir_lowpass(stream, dspchain.DEFAULT_FIR)
        return dspchain.decimate(stream, self.DECIMATE)

    def run(self, spec):
        start = time.perf_counter()
        averaged = dspchain.average_traces(self._chain(spec, k) for k in range(self.TRACES))
        seconds = time.perf_counter() - start
        iq = complex(averaged.iq.mean())
        amp_err = abs(abs(iq) / (spec["amp"] / 2) - 1)
        phase_err = abs(math.remainder(math.atan2(iq.imag, iq.real) - spec["theta"], 2 * math.pi))
        errors = []
        if not (amp_err < self.TOL and phase_err < self.TOL):
            errors.append(f"{spec['label']}: mean IQ off by {amp_err:.2e} (amp), {phase_err:.2e} rad")
        samples = self.TRACES * int(round(self.DURATION * self.FS))
        return UnitResult(seconds, samples, 1, int(bool(errors)), True, errors)


WORKLOADS = {w.name: w for w in (SweepFit, SynthIo, DspDemod)}
