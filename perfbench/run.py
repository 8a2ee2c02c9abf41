"""bolostat benchmark: closed-loop workloads in one process and one thread.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see workloads.py): sweep_fit, synth_io, dsp_demod.  The program is
imported from ``src/`` of the checkout and driven in-process through
``bolostat.cli.main`` and the public functions of ``pipeline`` and
``dspchain``; it receives only the configs and traces generated here from
``--seed``.

``--trace 0`` runs units back to back for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes over
a fixed set of units and reports the per-layer metrics (spans.py) and the
tracing overhead.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it hold a metric table and the run record.  Spans of a
traced run are written to ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10

# printed and recorded but not in BENCHMARK.json.  On a host whose CPU speed
# switches between two states that last seconds to minutes, a run's mean
# and median land in either state, and their run-to-run spread exceeds the
# largest bound; the tail stays in the slow state and is gated instead
UNGATED = {"items_per_s": "1/s", "unit_s.p50": "s"}
ALIAS_UNITS = {"msamples_per_s": "M/s"}
_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bolostat; print(repr(time.perf_counter() - t))"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_fit", "synth_io", "dsp_demod", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import bolostat from this checkout's sources; False if that fails."""
    sys.path.insert(0, str(SRC))
    try:
        import bolostat
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import bolostat from {SRC}: {exc}\n")
        return False
    if Path(bolostat.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"error: bolostat imported from {bolostat.__file__}, not {SRC}\n")
        return False
    return True


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, and its value;
    the maximum when that percentile would fall below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def _setup(workload):
    """Median of repeated set-ups: `import bolostat` in a fresh interpreter,
    and input generation in this one."""
    import_s = []
    inputs_s = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        import_s.append(float(done.stdout.strip().splitlines()[-1]))
        start = time.perf_counter()
        workload.make_inputs()
        inputs_s.append(time.perf_counter() - start)
    detail = {"import_s": import_s, "inputs_s": inputs_s, "repeats": SETUP_REPEATS}
    return statistics.median(import_s) + statistics.median(inputs_s), detail


class Tally:
    """Operations and correctness over every unit a run executes."""

    def __init__(self):
        self.attempted = self.failed = self.fit_failures = 0
        self.errors = []

    def add(self, result):
        self.attempted += result.attempted
        self.failed += result.failed
        self.fit_failures += result.fit_failures
        self.errors.extend(result.errors)
        return result


def _timed_run(workload, seconds, tally):
    tally.add(workload.run(workload.schedule[0]))  # warm-up: caches, lazy set-up
    results = []
    deadline = time.perf_counter() + seconds
    # whole cycles only, so every run holds the workload's mix in proportion
    while time.perf_counter() < deadline or not results or len(results) % workload.cycle:
        spec = workload.schedule[len(results) % len(workload.schedule)]
        results.append(tally.add(workload.run(spec)))
    samples = [r.seconds for r in results if r.returned] or [r.seconds for r in results]
    percentile, tail = _tail(samples)
    metrics = {
        "items_per_s": sum(r.items for r in results) / sum(r.seconds for r in results),
        "unit_s.p50": statistics.median(samples),
        "unit_s.tail": tail,
    }
    record = {
        "units": len(results),
        "timing_samples": len(samples),
        "tail_percentile": round(percentile, 2),
        "items": workload.item,
        "items_done": sum(r.items for r in results),
    }
    return metrics, record


def _metric_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _traced_run(workload, seconds, tally, seed, per_layer):
    import spans

    tally.add(workload.run(workload.schedule[0]))  # warm-up
    tracer = spans.Tracer()
    labels = {}
    untraced, traced, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_TRACED_PASSES:
        untraced.append(sum(tally.add(workload.run(s)).seconds for s in workload.trace_set))
        units = []
        tracer.install()
        try:
            wall = 0.0
            for spec in workload.trace_set:
                tracer.unit = len(labels)
                labels[tracer.unit] = spec["label"]
                units.append(tracer.unit)
                wall += tally.add(workload.run(spec)).seconds
        finally:
            tracer.uninstall()
        traced.append(wall)
        passes.append(spans.layer_metrics(tracer.spans, set(units)))

    exact = [name for name, unit in per_layer.items() if unit in ("count", "B")]
    metrics, drift = spans.combine_passes(passes, exact)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_pct"] = 100.0 * overhead
    if drift:
        tally.errors.append(f"nondeterminism: counts drifted between passes: {drift}")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload.name}-seed{seed}.json"
    tracer.dump(spans_file, labels)
    record = {
        "passes": len(traced),
        "units_per_pass": len(workload.trace_set),
        "pass_s_untraced": untraced,
        "pass_s_traced": traced,
        "tracing_overhead_s_per_pass": statistics.median(traced) - statistics.median(untraced),
        "count_drift": drift,
        "exact_counts": {k: metrics[k] for k in exact},
        "missing_entry_points": tracer.missing,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }
    if workload.name == "sweep_fit":
        record["roadmap_crosscheck"] = spans.roadmap_crosscheck(tracer.spans, labels)
    return {k: metrics[k] for k in per_layer}, record


def _environment(seed):
    import numpy
    import scipy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "load": "closed loop, 1 process, 1 thread",
    }


def run_one(args):
    if not _import_program():
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    end_to_end, per_layer = _metric_units()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
        tally = Tally()
        setup_s, setup_detail = _setup(workload)
        if args.trace:
            shown, record = _traced_run(workload, args.seconds, tally, args.seed, per_layer)
            units = per_layer
        else:
            shown, record = _timed_run(workload, args.seconds, tally)
            shown["setup_s"] = setup_s
            shown["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record.update({k: shown[k] for k in UNGATED})
            units = dict(end_to_end, **UNGATED)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                  setup=setup_detail, noisy_fit_failures=tally.fit_failures,
                  errors=tally.errors[:20], **_environment(args.seed))
    for key, value in shown.items():
        alias, scale = workload.aliases.get(key, (key, 1.0))
        print(f"{args.workload:10s} {alias:32s} {value * scale:16.6g} "
              f"{ALIAS_UNITS.get(alias, units[key])}{' (not gated)' if key in UNGATED else ''}")
    print(f"{args.workload:10s} attempted {tally.attempted} failed {tally.failed} "
          f"correct {not tally.errors} noisy_fit_failures {tally.fit_failures}")
    print("record " + json.dumps(record, default=str))
    gated = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": shown[k], "unit": units[k]} for k in gated},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of named metrics."""
    if not _import_program():
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, workload in workloads.WORKLOADS.items():
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        *_, record_line, result_line = done.stdout.strip().splitlines()
        result = json.loads(result_line)
        record = json.loads(record_line[len("record "):])
        metrics = dict(result["metrics"])
        metrics.update({k: {"value": record[k], "unit": u} for k, u in UNGATED.items() if k in record})
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name:10s} attempted {result['attempted']} failed {result['failed']} "
              f"noisy_fit_failures {record['noisy_fit_failures']}")
        for key, metric in metrics.items():
            alias, scale = workload.aliases.get(key, (key, 1.0))
            combined["metrics"][f"{name}.{alias}"] = {
                "value": metric["value"] * scale,
                "unit": ALIAS_UNITS.get(alias, metric["unit"]),
            }
    print()
    for key, metric in combined["metrics"].items():
        print(f"{key:44s} {metric['value']:16.6g} {metric['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # the CLI lets this variable override every seed; the benchmark sets seeds
    os.environ.pop("BOLOSTAT_SEED", None)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
