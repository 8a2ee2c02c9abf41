"""Write the outputs of `bolostat simulate` + `bolostat fit` on the reference sweeps.

The reference sweeps are the three shipped configs, clean, and each again at
noise 0.01 with seeds 1-12: 39 sweeps.  For every sweep this writes the
config, the dataset JSON, the statistics CSV and the two exit codes into
OUTDIR, using the package in this checkout's ``src``.  A change that must
not move any output is checked by running this on both trees and comparing:

    python tests/reference_sweeps.py /tmp/before   # on the parent tree
    python tests/reference_sweeps.py /tmp/after    # on the changed tree
    diff -r /tmp/before /tmp/after

The file name keeps pytest from collecting it.
"""

import contextlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bolostat import cli  # noqa: E402

CONFIGS = ("thermal", "coherent", "mixed")
NOISE = 0.01
SEEDS = range(1, 13)


def sweeps():
    """(label, raw config) of every reference sweep."""
    for name in CONFIGS:
        raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        yield f"{name}-clean", raw
        for seed in SEEDS:
            yield f"{name}-noise{NOISE}-seed{seed}", dict(raw, noise=NOISE, seed=seed)


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
    os.environ.pop("BOLOSTAT_SEED", None)  # each config's own seed applies
    for label, raw in sweeps():
        config, dataset, stats = (out / f"{label}{ext}" for ext in (".config.json", ".json", ".csv"))
        config.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
        sim = run(["simulate", "--config", str(config), "--out", str(dataset)])
        fit = run(["fit", str(dataset), "--out", str(stats)])
        (out / f"{label}.exit").write_text(f"simulate {sim}\nfit {fit}\n")
        print(f"{label}: simulate {sim}, fit {fit}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    main(sys.argv[1])
