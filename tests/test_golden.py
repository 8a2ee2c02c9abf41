"""Extracted statistics of the shipped configs against stored golden CSVs.

The files under tests/data/ hold `bolostat fit` output for each shipped
config, clean and at noise 0.01 with seed 1.  A change that is meant to move
the outputs (e.g. a new fit path or kernel) regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and states the drift it accepted.
"""

import io
import json
from dataclasses import fields
from pathlib import Path

import pytest

from bolostat import SweepConfig, extract_statistics, simulate_sweep
from bolostat.pipeline import StatsRecord, stats_from_csv, stats_to_csv

ROOT = Path(__file__).resolve().parent.parent
CASES = [(name, noise) for name in ("thermal", "coherent", "mixed") for noise in (0.0, 0.01)]


def golden_path(name, noise):
    label = "clean" if noise == 0 else f"noise{noise}-seed1"
    return ROOT / "tests" / "data" / f"stats-{name}-{label}.csv"


def current_stats(name, noise):
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    if noise:
        raw = dict(raw, noise=noise, seed=1)
    return extract_statistics(simulate_sweep(SweepConfig.from_dict(raw)))


@pytest.mark.parametrize("name,noise", CASES)
def test_stats_match_the_golden_file(name, noise):
    with open(golden_path(name, noise)) as fh:
        golden = stats_from_csv(fh)
    stats = current_stats(name, noise)
    assert len(stats) == len(golden)
    # floats within 1e-9 relative, so that another numpy build still passes;
    # the iteration counts and convergence flags exactly
    for row, (got, want) in enumerate(zip(stats, golden)):
        for f in fields(StatsRecord):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.type is float:
                assert a == pytest.approx(b, rel=1e-9, abs=0, nan_ok=True), (row, f.name)
            else:
                assert a == b, (row, f.name)


if __name__ == "__main__":
    for name, noise in CASES:
        buf = io.StringIO()
        stats_to_csv(current_stats(name, noise), buf)
        golden_path(name, noise).write_text(buf.getvalue())
