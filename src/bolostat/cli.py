"""Command-line surface: simulate / fit / stats / demod / report.

Exit codes: 0 on success, 1 on validation or usage errors, 2 when any fit
failed to converge, the base calibration is flagged as a misfit, or it
could not be carried out at all.  A trace fit that did not converge,
singular normal equations included, is reported in its own row
(``converged=0``) and the other rows are still written, as they are after a
misfit calibration; a calibration `FitError` writes nothing.
A run's only seed is the config's ``seed`` field: ``fit`` reads it from
the config its dataset embeds, so a dataset file gives one set of
statistics.
"""

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import dspchain, pipeline
from .fitkit import FitError
from .photonstats import (
    MixedField,
    PhotonMoments,
    coherent_variance,
    g2_zero,
    mixed_moments,
    thermal_variance,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract here is usage -> 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


@functools.cache
def _build_parser():
    # built on the first call and then reused: parsing keeps no state in
    # the parser, each call gets a fresh namespace
    parser = _Parser(prog="bolostat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="synthesize a trace dataset from a config")
    p_sim.add_argument("--config", required=True, help="sweep configuration JSON")
    p_sim.add_argument("--out", required=True, help="output dataset JSON")

    p_fit = sub.add_parser("fit", help="extract photon statistics from a dataset")
    p_fit.add_argument("dataset", help="dataset JSON produced by 'simulate'")
    p_fit.add_argument("--out", required=True, help="output statistics CSV")

    p_stats = sub.add_parser("stats", help="moment/g2 calculators on explicit inputs")
    p_stats.add_argument("--thermal-mean", type=float, default=None)
    p_stats.add_argument("--coherent-mean", type=float, default=None)
    p_stats.add_argument("--mixed-coh", type=float, default=None)
    p_stats.add_argument("--mixed-th", type=float, default=None)

    p_demod = sub.add_parser("demod", help="down-convert, filter and decimate a raw trace")
    p_demod.add_argument("trace", help="raw trace CSV with columns t_s,v")
    p_demod.add_argument("--f-if", type=float, required=True, help="intermediate frequency, Hz")
    p_demod.add_argument("--cutoff", type=float, default=500e3)
    p_demod.add_argument("--taps", type=int, default=129)
    p_demod.add_argument("--window", default="blackman")
    p_demod.add_argument("--decimate", type=int, default=4)
    p_demod.add_argument("--out", required=True, help="output IQ CSV (t_s,i,q)")

    p_rep = sub.add_parser("report", help="merge statistics CSVs into one labeled table")
    p_rep.add_argument("stats", nargs="+", help="statistics CSVs from 'fit'")
    p_rep.add_argument("--labels", default=None, help="comma-separated series labels")
    p_rep.add_argument("--out", required=True)

    return parser


def _cmd_simulate(args):
    with open(args.config) as fh:
        cfg = pipeline.SweepConfig.from_dict(json.load(fh))
    dataset = pipeline.simulate_sweep(cfg)
    with open(args.out, "w") as fh:
        pipeline.dataset_to_json(dataset, fh)
    return 0


def _cmd_fit(args):
    with open(args.dataset) as fh:
        dataset = pipeline.dataset_from_json(fh)
    calibration = pipeline.run_calibration(dataset)
    records = pipeline.extract_statistics(dataset, calibration)
    with open(args.out, "w") as fh:
        pipeline.stats_to_csv(records, fh)
    bad = sum(not r.converged for r in records) + (not calibration.fit.converged)
    if bad:
        sys.stderr.write(f"warning: {bad} fit(s) did not converge\n")
    if calibration.misfit_flag:
        sys.stderr.write("warning: the base calibration is a misfit; every row is referred to it\n")
    return 2 if bad or calibration.misfit_flag else 0


def _cmd_stats(args):
    chosen = [
        args.thermal_mean is not None,
        args.coherent_mean is not None,
        args.mixed_coh is not None or args.mixed_th is not None,
    ]
    if sum(chosen) != 1:
        sys.stderr.write(
            "error: choose exactly one of --thermal-mean, --coherent-mean, "
            "or --mixed-coh/--mixed-th\n"
        )
        return 1
    if args.thermal_mean is not None:
        m = PhotonMoments(args.thermal_mean, thermal_variance(args.thermal_mean))
    elif args.coherent_mean is not None:
        m = PhotonMoments(args.coherent_mean, coherent_variance(args.coherent_mean))
    else:
        if args.mixed_coh is None or args.mixed_th is None:
            sys.stderr.write("error: mixed input needs both --mixed-coh and --mixed-th\n")
            return 1
        m = mixed_moments(MixedField(args.mixed_coh, args.mixed_th))
    print(f"mean {m.mean:g}")
    print(f"variance {m.variance:g}")
    print(f"g2 {g2_zero(m):g}" if m.mean > 0 else "g2 nan")
    return 0


def _cmd_demod(args):
    with open(args.trace) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{args.trace}: empty raw trace file")
        if header != ["t_s", "v"]:
            raise ValueError(f"{args.trace}: expected raw trace header t_s,v, got {header}")
        try:
            rows = list(pipeline._csv_rows(reader, [(name, float) for name in header]))
        except ValueError as exc:
            raise ValueError(f"{args.trace}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"{args.trace}: raw trace needs at least 2 samples")
    t = np.array([r[0] for r in rows])
    dt = np.diff(t)
    if not np.all(dt > 0):
        # the first sample whose time does not exceed the one before; rows
        # count from 1 after the header, as in the read errors
        row = int(np.flatnonzero(~(dt > 0))[0]) + 2
        raise ValueError(f"{args.trace}: row {row}: raw trace times must be strictly increasing")
    # against the first step, not the median, so no mix of two rates passes
    step = float(dt[0])
    uneven = np.abs(dt - step) > 1e-3 * step
    if uneven.any():
        row = int(np.flatnonzero(uneven)[0]) + 2
        raise ValueError(f"{args.trace}: row {row}: raw trace times must be uniformly spaced")
    fs = 1.0 / step
    trace = dspchain.RawTrace(samples=np.array([r[1] for r in rows]), fs=fs, t0=t[0])
    stream = dspchain.digital_downconvert(trace, args.f_if)
    spec = dspchain.FirSpec(cutoff=args.cutoff, n_taps=args.taps, window=args.window)
    try:
        stream = dspchain.fir_lowpass(stream, spec)
    except ValueError as exc:
        raise ValueError(f"{args.trace}: {exc}") from None
    stream = dspchain.decimate(stream, args.decimate)
    offset = dspchain.group_delay_samples(spec) / trace.fs
    with open(args.out, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t_s", "i", "q"])
        for k, z in enumerate(stream.iq):
            writer.writerow(
                [
                    repr(float(t[0] + offset + k / stream.rate)),
                    repr(float(z.real)),
                    repr(float(z.imag)),
                ]
            )
    return 0


def _cmd_report(args):
    labels = args.labels.split(",") if args.labels else [
        f"series{k + 1}" for k in range(len(args.stats))
    ]
    if len(labels) != len(args.stats):
        sys.stderr.write("error: number of labels must match number of input CSVs\n")
        return 1
    rows = []
    for label, path in zip(labels, args.stats):
        with open(path) as fh:
            try:
                records = pipeline.stats_from_csv(fh)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if not records:
            raise ValueError(f"{path}: no statistics rows")
        rows += [
            [label, *(repr(float(v)) for v in (rec.mean_n, rec.variance_n, rec.g2))]
            for rec in records
        ]
    # every input is read first, so a bad one leaves no partial output
    with open(args.out, "w") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["series", "mean_n", "variance_n", "g2"])
        writer.writerows(rows)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "fit": _cmd_fit,
        "stats": _cmd_stats,
        "demod": _cmd_demod,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (pipeline.ConfigError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
