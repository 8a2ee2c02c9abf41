"""End to end: photon statistics in, traces out, photon statistics back.

Builds a thermal-sweep configuration, synthesizes the reflection trace of
every temperature point, runs the staged extraction, and compares the
recovered moments against both the synthesis truth and the thermal law.
Writes the dataset/statistics files that the `bolostat` CLI produces, so
the equivalent shell commands are shown at the end.
"""

import json
import math
import pathlib
import tempfile

from bolostat import SweepConfig, extract_statistics, simulate_sweep
from bolostat.pipeline import dataset_to_json, stats_to_csv

HF_OVER_K = 0.40448020624971226  # 8.428 GHz expressed in kelvin

config = SweepConfig.from_dict(
    {
        "mode": "thermal",
        "seed": 7,
        "radiator_frequency_hz": 8.428e9,
        "filter_fwhm_hz": 133e6,
        "alpha_photon_per_hz": 1.92e-6,
        "beamsplitter_gamma": 0.01,
        "freq_shift_poly_hz": [0.0, -1.0e6, 2.0e4, -300.0],
        "chain": {
            "mu_base_hz": 524e6,
            "gamma_c": 4.8e6,
            "phi": 0.1,
            "gamma": 18.7e6,
            "s_b": 0.93,
            "f_b": 531e6,
            "gamma_bc": 15.708e6,
            "gamma_b": 125.66e6,
            "phi_b": -0.4,
            "tau": 2e-8,
            "varphi": 0.3,
        },
        "probe_start_hz": 500e6,
        "probe_stop_hz": 545e6,
        "probe_points": 451,
        "noise": 0.0,
    }
    | {"t_grid_k": [HF_OVER_K / math.log(1 + 1 / n) for n in (0.2, 0.5, 1.0, 2.0, 4.0)]}
)

print("simulating a radiator-temperature sweep (thermal input)...")
dataset = simulate_sweep(config)
print(f"  {len(dataset.records)} traces of {config.probe_points} points each, "
      f"plus the zero-input reference")

print("running the staged extraction (one calibration + one fit per trace)...")
records = extract_statistics(dataset)

print(f"\n{'T (K)':>7} {'<n> truth':>10} {'<n> fit':>9} {'var truth':>10} "
      f"{'var fit':>9} {'n(n+1)':>9} {'g2':>6}")
for point, rec in zip(dataset.records, records):
    print(
        f"{rec.control:7.3f} {point.truth['mean_n']:10.4f} {rec.mean_n:9.4f} "
        f"{point.truth['variance_n']:10.4f} {rec.variance_n:9.4f} "
        f"{rec.mean_n * (rec.mean_n + 1):9.4f} {rec.g2:6.3f}"
    )

out_dir = pathlib.Path(tempfile.mkdtemp(prefix="bolostat-demo-"))
with open(out_dir / "dataset.json", "w") as fh:
    dataset_to_json(dataset, fh)
with open(out_dir / "stats.csv", "w") as fh:
    stats_to_csv(records, fh)
with open(out_dir / "config.json", "w") as fh:
    json.dump(config.to_dict(), fh, indent=1, sort_keys=True)

print(f"\nwrote {out_dir}/config.json, dataset.json, stats.csv")
print("the same run from the shell:")
print(f"  bolostat simulate --config {out_dir}/config.json --out dataset.json")
print("  bolostat fit dataset.json --out stats.csv")
print("  bolostat report stats.csv --labels thermal --out fig3a.csv")
