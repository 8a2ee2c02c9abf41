"""Write the outputs of `bolostat simulate` + `bolostat fit` on the reference sweeps.

The reference sweeps are the three shipped configs, clean, and each again at
noise 0.01 with seeds 1-12, and the thermal config with gamma_c = 0.95 gamma
at noise 0.01 with seeds 13 and 17, whose base calibrations once landed on
the background resonance, and one dense thermal sweep (4001 points, a
T = 0 record and 15 temperatures, noise 0.01, seed 3) whose lines take
several synthesis blocks, the first holding two identical vectors: 42
sweeps.  For every sweep this writes the config, the dataset JSON, the
statistics CSV and the two exit codes into OUTDIR, using the package in
this checkout's ``src``.  A change that must
not move any output is checked by running this on both trees and comparing:

    python tests/reference_sweeps.py /tmp/before   # on the parent tree
    python tests/reference_sweeps.py /tmp/after    # on the changed tree
    diff -r /tmp/before /tmp/after

A change that may move the fitted statistics or the dataset file format,
but not the synthesis or any fit's outcome, compares the two trees with

    python tests/reference_sweeps.py --compare /tmp/before /tmp/after

which prints, for every statistics field and for the trace arrays, the
worst relative and absolute drift over the clean and over the noisy sweeps
apart, then where each worst relative drift occurred (sweep label, and row
of the statistics CSV counting from 0, or trace), the number of rows whose
iteration count moved, and each side's total dataset bytes.  A trace's
drift is taken over its complex samples, |new - old| and |new - old| / |old|.  Datasets are compared by content,
not by bytes: config, every control and truth, and every trace array
bitwise, read from either ``bolostat-dataset-v2`` (a probe grid per trace)
or ``bolostat-dataset-v3`` (one top-level grid).  It exits 1 if any exit
code, ``converged`` flag or dataset value differs, or a file is missing on
one side.

The file name keeps pytest from collecting it.
"""

import base64
import contextlib
import io
import json
import math
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bolostat import cli  # noqa: E402
from bolostat.pipeline import StatsRecord, stats_from_csv  # noqa: E402

CONFIGS = ("thermal", "coherent", "mixed")
NOISE = 0.01
SEEDS = range(1, 13)
GC95_SEEDS = (13, 17)
DENSE = {"probe_points": 4001, "t_grid_k": [0.0, *np.linspace(0.15, 2.3, 15).tolist()], "seed": 3}


def sweeps():
    """(label, raw config) of every reference sweep."""
    for name in CONFIGS:
        raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        yield f"{name}-clean", raw
        for seed in SEEDS:
            yield f"{name}-noise{NOISE}-seed{seed}", dict(raw, noise=NOISE, seed=seed)
    raw = json.loads((ROOT / "configs" / "thermal.json").read_text())
    chain = dict(raw["chain"], gamma_c=0.95 * raw["chain"]["gamma"])
    for seed in GC95_SEEDS:
        yield f"thermal-gc95-noise{NOISE}-seed{seed}", dict(raw, chain=chain, noise=NOISE, seed=seed)
    yield f"thermal-dense-noise{NOISE}-seed{DENSE['seed']}", dict(raw, noise=NOISE, **DENSE)


def run(argv):
    """Exit code of one CLI call, its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return cli.main(argv)


def main(outdir):
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for label, raw in sweeps():
        config, dataset, stats = (out / f"{label}{ext}" for ext in (".config.json", ".json", ".csv"))
        config.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
        sim = run(["simulate", "--config", str(config), "--out", str(dataset)])
        fit = run(["fit", str(dataset), "--out", str(stats)])
        (out / f"{label}.exit").write_text(f"simulate {sim}\nfit {fit}\n")
        print(f"{label}: simulate {sim}, fit {fit}")


def _stats(path):
    if not path.exists():  # a calibration failure writes no statistics
        return None
    with open(path) as fh:
        return stats_from_csv(fh)


def _dataset(path):
    """A dataset file's content as {name: value}, arrays as their raw bytes;
    None if the file is missing.  Reads v2 and v3 without the package, so a
    format change can be checked with it."""
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    content = {"config": doc["config"]}
    for name, point in [("base", doc["base"])] + [(f"record {k}", p) for k, p in enumerate(doc["records"])]:
        content[f"{name} control"] = point["control"]
        content[f"{name} truth"] = point["truth"]
        for key in ("f_p_hz", "re", "im"):
            content[f"{name} {key}"] = base64.b64decode(point[key] if key in point else doc[key])
    return content


def _raise(worst, rel, gap, where):
    """Raise ``worst`` = [rel, abs, where of rel] to a drift found at ``where``."""
    if rel > worst[0]:
        worst[0], worst[2] = rel, where
    worst[1] = max(worst[1], gap)


def _trace_drift(old, new, worst, label):
    """Raise ``worst`` to the drift of every trace two dataset contents of
    sweep ``label`` share on the same number of samples."""
    for key in old.keys() & new.keys():
        if not key.endswith(" re"):
            continue
        trace = key[: -len(" re")]
        a, b = (np.frombuffer(c[f"{trace} re"]) + 1j * np.frombuffer(c[f"{trace} im"]) for c in (old, new))
        if a.shape != b.shape:
            continue
        gap = np.abs(b - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(gap == 0, 0.0, gap / np.abs(a))
        _raise(worst, float(rel.max(initial=0)), float(gap.max(initial=0)), f"{label} {trace}")


def compare(before, after):
    """Print the drift table of two output trees; 1 if an outcome differs."""
    before, after = Path(before), Path(after)
    floats = [f.name for f in fields(StatsRecord) if f.type is float]
    names = floats + ["traces"]
    worst = {group: {name: [0.0, 0.0, None] for name in names} for group in ("clean", "noisy")}
    moved_iters = {"clean": 0, "noisy": 0}
    problems = []
    dataset_bytes = [0, 0]
    for label, _ in sweeps():
        group = "clean" if label.endswith("-clean") else "noisy"
        a, b = before / f"{label}.exit", after / f"{label}.exit"
        if not (a.exists() and b.exists()) or a.read_bytes() != b.read_bytes():
            problems.append(f"{label}.exit differs")
        paths = before / f"{label}.json", after / f"{label}.json"
        old, new = (_dataset(path) for path in paths)
        if old is None or new is None:
            problems.append(f"{label}.json missing")
        elif old != new:
            changed = [name for name in old.keys() | new.keys() if old.get(name) != new.get(name)]
            problems.append(f"{label}.json: {', '.join(sorted(changed)[:4])} differ")
            _trace_drift(old, new, worst[group]["traces"], label)
        for side, path in enumerate(paths):
            dataset_bytes[side] += path.stat().st_size if path.exists() else 0
        old, new = _stats(before / f"{label}.csv"), _stats(after / f"{label}.csv")
        if old is None or new is None or len(old) != len(new):
            if old != new:
                problems.append(f"{label}.csv: rows differ")
            continue
        for row, (o, n) in enumerate(zip(old, new)):
            if o.converged != n.converged:
                problems.append(f"{label}.csv row {row}: converged {o.converged} -> {n.converged}")
            moved_iters[group] += o.n_iter != n.n_iter
            for name in floats:
                x, y = getattr(o, name), getattr(n, name)
                gap = abs(y - x) if not (math.isnan(x) and math.isnan(y)) else 0.0
                rel = gap / abs(x) if x else (0.0 if gap == 0 else math.inf)
                _raise(worst[group][name], rel, gap, f"{label} row {row}")
    print(f"{'field':<14} {'clean rel':>10} {'clean abs':>10} {'noisy rel':>10} {'noisy abs':>10}")
    for name in names:
        cells = [f"{v:10.2e}" for group in ("clean", "noisy") for v in worst[group][name][:2]]
        print(f"{name:<14} " + " ".join(cells))
    print("where each worst relative drift occurred:")
    for name in names:
        for group in ("clean", "noisy"):
            rel, _, where = worst[group][name]
            if where is not None:
                print(f"  {name:<14} {group:<5} {rel:9.2e} at {where}")
    print(f"rows with a changed n_iter: clean {moved_iters['clean']}, noisy {moved_iters['noisy']}")
    print(f"dataset bytes: before {dataset_bytes[0]}, after {dataset_bytes[1]}")
    for line in problems:
        print(f"DIFFERS: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR | --compare BEFORE AFTER")
    main(sys.argv[1])
