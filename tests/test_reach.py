"""Every function under src/bolostat/ runs on a CLI path, or is named here.

`cli.main` runs in process under a profile hook: `simulate` and `fit` on
the three shipped configs, `stats` in each of its three modes, `demod` on
one raw trace and `report` over the three statistics files.  The functions
and lambdas that never ran must be exactly `UNREACHED`, each with the
reason it stays, so new dead code fails the test, and so does an entry for
code that now runs or is gone.  The run takes well under a second.
"""

import ast
import csv
import sys
from pathlib import Path

import numpy as np

import bolostat
from bolostat import cli

SRC = Path(bolostat.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

UNREACHED = {
    # the erfcx kernel gate (criterion 2, test_specfun); the line runs on
    # `specfun._mean_inverse`
    "specfun.erfcx": "kernel gate",
    "specfun.faddeeva_w": "kernel gate",
    "specfun._checked": "kernel gate: erfcx's argument check",
    "specfun._kernel": "kernel gate: erfcx's evaluation",
    # called once, at import, to build module constants
    "specfun._rational_coeffs": "import time: _RAT_L, _RAT_COEFFS",
    "specfun._asymptotic_coeffs": "import time: _A1, _U_SERIES",
    # criterion 7: the circle fit and the least-squares fit it is checked against
    "fitkit.circle_fit": "criterion 7",
    "fitkit._fit_circle_algebraic": "criterion 7: circle_fit's circle",
    "fitkit._phase_model": "criterion 7: circle_fit's phase fit",
    "fitkit._phase_jacobian": "criterion 7: circle_fit's phase fit",
    "fitkit.wrap_angle": "criterion 7: circle_fit's asymmetry angle",
    "fitkit.least_squares": "criterion 7",
    "fitkit.least_squares.evaluate": "criterion 7: least_squares' residual",
    "photonstats.resolution_metrics": "criterion 6",
    # oracles that the closed forms are compared against
    "response.averaged_reflection_gh": "oracle: criterion 1, Gauss-Hermite",
    "response.averaged_reflection_mc": "oracle: criterion 1, Monte Carlo",
    "photonstats.mixed_moments_mc": "oracle: criterion 5, Monte Carlo",
    # the benchmark's dsp_demod workload imports these (criterion 8)
    "dspchain.synth_raw_trace": "perfbench import",
    "dspchain._unit_tone": "perfbench import: synth_raw_trace's tone",
    "dspchain.average_traces": "perfbench import",
    # error paths, which test_cli runs
    "cli._Parser.error": "usage error: argparse calls it on a bad flag",
}


def definitions(path):
    """{(file, first line, code name): qualified name} of every function
    and lambda in one module, the first line as its code object counts it
    (a decorated function starts at its first decorator).  Lambdas of one
    scope share a qualified name, so it stands for any of them that never
    ran."""
    found = {}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = "<lambda>" if isinstance(child, ast.Lambda) else child.name
                lines = [d.lineno for d in getattr(child, "decorator_list", [])]
                found[(str(path), min(lines + [child.lineno]), name)] = f"{scope}.{name}"
                walk(child, f"{scope}.{name}")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{scope}.{child.name}")
            else:
                walk(child, scope)

    walk(ast.parse(path.read_text()), path.stem)
    return found


def write_raw_trace(path):
    fs, f_if = 250e6, 62.5e6
    t = np.arange(4000) / fs
    v = 0.6 * np.cos(2 * np.pi * f_if * t + 0.4)
    with path.open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t_s", "v"])
        writer.writerows([repr(float(ti)), repr(float(vi))] for ti, vi in zip(t, v))


def cli_runs(tmp_path):
    raw = tmp_path / "raw.csv"
    write_raw_trace(raw)
    stats = []
    for name in ("thermal", "coherent", "mixed"):
        data, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        yield ["simulate", "--config", str(ROOT / "configs" / f"{name}.json"), "--out", str(data)]
        yield ["fit", str(data), "--out", str(out)]
        stats.append(str(out))
    yield ["stats", "--thermal-mean", "0.5"]
    yield ["stats", "--coherent-mean", "0.5"]
    yield ["stats", "--mixed-coh", "0.5", "--mixed-th", "0.2"]
    yield ["demod", str(raw), "--f-if", "62.5e6", "--out", str(tmp_path / "iq.csv")]
    yield ["report", *stats, "--out", str(tmp_path / "report.csv")]


def test_every_function_runs_on_a_cli_path_or_is_named(tmp_path, capsys):
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        defined.update(definitions(path))
    # a cached function that an earlier test filled would not run again
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("bolostat"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    runs = list(cli_runs(tmp_path))
    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(before)
    capsys.readouterr()
    assert codes == [0] * len(runs)

    ran = {
        (str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name)
        for code in called
    }
    unreached = {qualname for key, qualname in defined.items() if key not in ran}
    assert unreached == set(UNREACHED), (
        f"never called but not named: {sorted(unreached - set(UNREACHED))}; "
        f"named but called or gone: {sorted(set(UNREACHED) - unreached)}"
    )
