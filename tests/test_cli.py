import csv
import json
from pathlib import Path

import numpy as np
import pytest

from bolostat import cli, pipeline

from test_pipeline import MALFORMED, decode_f8, encode_f8, make_config


@pytest.fixture
def thermal_config_file(tmp_path):
    path = tmp_path / "thermal.json"
    path.write_text(json.dumps(make_config(t_grid_k=[0.5, 1.0]).to_dict()))
    return path


def test_stats_thermal(capsys):
    assert cli.main(["stats", "--thermal-mean", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "variance 2" in out
    assert "g2 2" in out


def test_stats_coherent_and_mixed(capsys):
    assert cli.main(["stats", "--coherent-mean", "3.0"]) == 0
    out = capsys.readouterr().out
    assert "variance 3" in out and "g2 1" in out
    assert cli.main(["stats", "--mixed-coh", "1.0", "--mixed-th", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "variance 5" in out and "g2 1.75" in out


def test_stats_requires_exactly_one_input(capsys):
    assert cli.main(["stats"]) == 1
    assert cli.main(["stats", "--thermal-mean", "1", "--coherent-mean", "2"]) == 1
    capsys.readouterr()
    assert cli.main(["stats", "--mixed-coh", "1"]) == 1
    assert capsys.readouterr().err == "error: mixed input needs both --mixed-coh and --mixed-th\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--thermal-mean", "nan"],
        ["--thermal-mean", "inf"],
        ["--coherent-mean", "nan"],
        ["--mixed-coh", "nan", "--mixed-th", "1"],
        ["--mixed-coh", "1", "--mixed-th", "inf"],
    ],
    ids=["thermal-nan", "thermal-inf", "coherent-nan", "mixed-coh-nan", "mixed-th-inf"],
)
def test_stats_refuses_non_finite_input(capsys, argv):
    assert cli.main(["stats", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "finite" in captured.err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--bogus"])
    assert exc.value.code == 1


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "_cmd_fit", lambda args: seen.append(vars(args)) or 0)
    assert cli.main(["fit", "a.json", "--out", "a.csv"]) == 0
    with pytest.raises(SystemExit) as exc:  # a usage error between two calls
        cli.main(["fit", "--bogus"])
    assert exc.value.code == 1
    assert cli.main(["fit", "b.json", "--out", "b.csv"]) == 0
    assert seen == [
        {"command": "fit", "dataset": "a.json", "out": "a.csv"},
        {"command": "fit", "dataset": "b.json", "out": "b.csv"},
    ]
    assert cli._build_parser() is cli._build_parser()
    assert "usage: bolostat fit" in capsys.readouterr().err


def test_simulate_then_fit(tmp_path, thermal_config_file):
    dataset = tmp_path / "dataset.json"
    stats = tmp_path / "stats.csv"
    assert cli.main(["simulate", "--config", str(thermal_config_file), "--out", str(dataset)]) == 0
    assert cli.main(["fit", str(dataset), "--out", str(stats)]) == 0
    rows = list(csv.DictReader(stats.read_text().splitlines()))
    assert len(rows) == 2
    assert float(rows[1]["g2"]) == pytest.approx(2.0, abs=0.05)


def simulate_and_fit(config, dataset, stats):
    """The bytes `simulate` then `fit` write."""
    assert cli.main(["simulate", "--config", str(config), "--out", str(dataset)]) == 0
    assert cli.main(["fit", str(dataset), "--out", str(stats)]) == 0
    return dataset.read_bytes(), stats.read_bytes()


def test_simulate_fit_deterministic_bytes(tmp_path, thermal_config_file):
    outs = [
        simulate_and_fit(thermal_config_file, tmp_path / f"dataset_{tag}.json", tmp_path / f"stats_{tag}.csv")
        for tag in ("a", "b")
    ]
    assert outs[0] == outs[1]


def test_seed_environment_variable_has_no_effect(tmp_path, thermal_config_file, monkeypatch):
    # the config's seed is a run's only seed: a BOLOSTAT_SEED in the
    # environment changes neither the noise nor the calibration start
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps(dict(json.loads(thermal_config_file.read_text()), noise=0.01)))
    monkeypatch.delenv("BOLOSTAT_SEED", raising=False)
    unset = simulate_and_fit(noisy, tmp_path / "d0.json", tmp_path / "s0.csv")
    monkeypatch.setenv("BOLOSTAT_SEED", "123")
    assert simulate_and_fit(noisy, tmp_path / "d1.json", tmp_path / "s1.csv") == unset


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_seed_flag_is_a_usage_error(tmp_path, thermal_config_file, capsys, command):
    dataset = tmp_path / "d.json"
    if command == "simulate":
        argv, out = ["simulate", "--config", str(thermal_config_file), "--out", str(dataset)], dataset
    else:
        assert cli.main(["simulate", "--config", str(thermal_config_file), "--out", str(dataset)]) == 0
        out = tmp_path / "s.csv"
        argv = ["fit", str(dataset), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--seed", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "dataset"])
def test_negative_seed_exits_one_naming_it(tmp_path, thermal_config_file, capsys, where):
    # a negative seed is refused before any Philox stream is keyed with
    # it, whether `simulate` reads it from its config or `fit` from the
    # config its dataset embeds
    dataset = tmp_path / "d.json"
    if where == "config":
        thermal_config_file.write_text(json.dumps(dict(json.loads(thermal_config_file.read_text()), seed=-3)))
        argv, out = ["simulate", "--config", str(thermal_config_file), "--out", str(dataset)], dataset
    else:
        cli.main(["simulate", "--config", str(thermal_config_file), "--out", str(dataset)])
        doc = json.loads(dataset.read_text())
        doc["config"]["seed"] = -3
        dataset.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        argv = ["fit", str(dataset), "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: field 'seed': must be non-negative\n"
    assert not out.exists()


def test_non_converged_fit_exits_two(tmp_path, thermal_config_file, monkeypatch, capsys):
    import bolostat.fitkit as fk
    import bolostat.pipeline as pl

    dataset = tmp_path / "d.json"
    cli.main(["simulate", "--config", str(thermal_config_file), "--out", str(dataset)])

    real_fit = pl.fit_measurements

    def starved_fit(sweeps, calibration):
        with monkeypatch.context() as m:
            m.setattr(fk, "_MAX_ITER", 1)
            return real_fit(sweeps, calibration)

    monkeypatch.setattr(pl, "fit_measurements", starved_fit)
    rc = cli.main(["fit", str(dataset), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "did not converge" in capsys.readouterr().err
    # results are still written, with diagnostics per record
    rows = list(csv.DictReader((tmp_path / "s.csv").read_text().splitlines()))
    assert len(rows) == 2
    assert all(r["converged"] == "0" for r in rows)


def test_non_converged_calibration_exits_two(tmp_path, monkeypatch, capsys):
    # on clean data the base calibration converges in one iteration, so the
    # noisy thermal config is what a one-iteration cap leaves unconverged
    import bolostat.fitkit as fk
    import bolostat.pipeline as pl

    shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
    config = tmp_path / "noisy.json"
    config.write_text(json.dumps(dict(json.loads(shipped.read_text()), noise=0.01, seed=1)))
    dataset = tmp_path / "d.json"
    assert cli.main(["simulate", "--config", str(config), "--out", str(dataset)]) == 0

    real_calibration = pl.fit_base_calibration

    def starved_calibration(sweep, init):
        # capped only here: the measurement fits keep their iterations
        with monkeypatch.context() as m:
            m.setattr(fk, "_MAX_ITER", 1)
            return real_calibration(sweep, init)

    monkeypatch.setattr(pl, "fit_base_calibration", starved_calibration)
    rc = cli.main(["fit", str(dataset), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "1 fit(s) did not converge" in capsys.readouterr().err
    rows = list(csv.DictReader((tmp_path / "s.csv").read_text().splitlines()))
    assert len(rows) == 9


def test_misfit_calibration_exits_two(tmp_path, capsys):
    # a 1% ripple with a 7 MHz period on every trace of the clean thermal
    # config: no chain reproduces it, so the base calibration converges with
    # a residual far above the (zero) noise and every row is referred to a
    # wrong chain (the first row's g2 read 4.21 where a thermal field has 2)
    shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
    dataset = tmp_path / "d.json"
    assert cli.main(["simulate", "--config", str(shipped), "--out", str(dataset)]) == 0
    doc = json.loads(dataset.read_text())
    f = decode_f8(doc["f_p_hz"])
    ripple = 1.0 + 0.01 * np.exp(2j * np.pi * (f - f[0]) / 7e6)
    for point in (doc["base"], *doc["records"]):
        values = (decode_f8(point["re"]) + 1j * decode_f8(point["im"])) * ripple
        point.update(re=encode_f8(values.real), im=encode_f8(values.imag))
    dataset.write_text(json.dumps(doc))
    rc = cli.main(["fit", str(dataset), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "base calibration is a misfit" in err and "did not converge" not in err
    rows = list(csv.DictReader((tmp_path / "s.csv").read_text().splitlines()))
    assert len(rows) == 9


def test_fit_error_exits_two(tmp_path, thermal_config_file, monkeypatch, capsys):
    import bolostat.pipeline as pl
    from bolostat import RankDeficiencyError

    dataset = tmp_path / "d.json"
    cli.main(["simulate", "--config", str(thermal_config_file), "--out", str(dataset)])

    def singular_fit(sweep, init, **kwargs):
        raise RankDeficiencyError("normal equations are singular; degenerate directions: mu")

    monkeypatch.setattr(pl, "fit_base_calibration", singular_fit)
    rc = cli.main(["fit", str(dataset), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "degenerate directions: mu" in err
    assert not (tmp_path / "s.csv").exists()


def test_singular_trace_is_reported_in_its_row(tmp_path, thermal_config_file, monkeypatch, capsys):
    # one trace whose normal equations go singular stops alone: the other
    # row is fitted, the CSV is written and `fit` exits 2
    import bolostat.fitkit as fk

    dataset = tmp_path / "d.json"
    cli.main(["simulate", "--config", str(thermal_config_file), "--out", str(dataset)])
    truth_mu = [p["truth"]["mu_hz"] for p in json.loads(dataset.read_text())["records"]]
    below = 0.5 * (truth_mu[0] + truth_mu[1])  # the hotter trace sits lower
    real_jacobian = fk._chain_jacobian
    gamma_c = fk.PARAM_NAMES.index("gamma_c")

    def flat_gamma_c_below(x, f_p, free, *out):
        value, jac = real_jacobian(x, f_p, free, *out)
        jac[x[:, fk.PARAM_NAMES.index("mu")] < below, :, free.index(gamma_c)] = 0.0
        return value, jac

    monkeypatch.setattr(fk, "_chain_jacobian", flat_gamma_c_below)
    rc = cli.main(["fit", str(dataset), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "1 fit(s) did not converge" in capsys.readouterr().err
    rows = list(csv.DictReader((tmp_path / "s.csv").read_text().splitlines()))
    assert [r["converged"] for r in rows] == ["1", "0"]
    assert rows[1]["n_iter"] == "1"
    assert abs(float(rows[0]["mu_hz"]) - truth_mu[0]) < 1e3


@pytest.mark.parametrize("seed", [1, 9, 2, 6])
def test_noisy_thermal_sweeps_fit_cleanly(tmp_path, seed):
    # shipped thermal config at noise 0.01: with a finite-difference Jacobian
    # the base calibration raised RankDeficiencyError (seeds 1, 9) or did not
    # converge (seeds 2, 6, exit 2)
    shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
    config = tmp_path / "noisy.json"
    config.write_text(json.dumps(dict(json.loads(shipped.read_text()), noise=0.01, seed=seed)))
    dataset = tmp_path / "d.json"
    assert cli.main(["simulate", "--config", str(config), "--out", str(dataset)]) == 0
    assert cli.main(["fit", str(dataset), "--out", str(tmp_path / "s.csv")]) == 0


def test_non_finite_sample_exits_one(tmp_path, thermal_config_file, capsys):
    dataset = tmp_path / "d.json"
    cli.main(["simulate", "--config", str(thermal_config_file), "--out", str(dataset)])
    doc = json.loads(dataset.read_text())
    re = decode_f8(doc["records"][0]["re"])
    re[3] = float("nan")
    doc["records"][0]["re"] = encode_f8(re)
    dataset.write_text(json.dumps(doc))
    assert cli.main(["fit", str(dataset), "--out", str(tmp_path / "s.csv")]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_dataset_exits_one(tmp_path, thermal_config_file, capsys, case):
    mutate, match = MALFORMED[case]
    dataset = tmp_path / "d.json"
    cli.main(["simulate", "--config", str(thermal_config_file), "--out", str(dataset)])
    dataset.write_text(json.dumps(mutate(json.loads(dataset.read_text()))))
    out = tmp_path / "s.csv"
    assert cli.main(["fit", str(dataset), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err
    assert not out.exists()  # rejected before any fit or output


def test_invalid_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    raw = make_config().to_dict()
    raw["mode"] = "nope"
    bad.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.json")]) == 1
    assert "mode" in capsys.readouterr().err


@pytest.mark.parametrize("coeffs", [[0.0], [5.0, 0.0, 0.0]])
def test_shift_polynomial_that_cannot_shift_exits_one(tmp_path, capsys, coeffs):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(make_config().to_dict(), freq_shift_poly_hz=coeffs)))
    out = tmp_path / "x.json"
    assert cli.main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: field 'freq_shift_poly_hz': must hold 2..8")
    assert not out.exists()


@pytest.mark.parametrize(
    "raw,kind",
    [(5, "int"), (None, "NoneType"), ("mode", "str"), ([], "list")],
    ids=["int", "null", "str", "list"],
)
def test_config_that_is_not_an_object_exits_one(tmp_path, capsys, raw, kind):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    out = tmp_path / "x.json"
    assert cli.main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: 'config': expected a JSON object, got {kind}\n"
    assert not out.exists()


def test_unphysical_chain_exits_one(tmp_path, capsys):
    # gamma_c above gamma: rejected when the config is read, not after a
    # dataset has been written
    bad = tmp_path / "bad.json"
    raw = make_config().to_dict()
    raw["chain"]["gamma_c"] = 1.5 * raw["chain"]["gamma"]
    bad.write_text(json.dumps(raw))
    out = tmp_path / "x.json"
    assert cli.main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
    assert "chain.gamma_c" in capsys.readouterr().err
    assert not out.exists()


def test_strongly_overcoupled_chain_fits(tmp_path):
    # gamma_c = 0.95*gamma is physical; at seed 12 the perturbed calibration
    # start has gamma_c > gamma, which the fit box allows
    shipped = Path(__file__).resolve().parent.parent / "configs" / "thermal.json"
    raw = dict(json.loads(shipped.read_text()), seed=12)
    raw["chain"]["gamma_c"] = 0.95 * raw["chain"]["gamma"]
    config = tmp_path / "overcoupled.json"
    config.write_text(json.dumps(raw))
    dataset = tmp_path / "d.json"
    assert cli.main(["simulate", "--config", str(config), "--out", str(dataset)]) == 0
    assert cli.main(["fit", str(dataset), "--out", str(tmp_path / "s.csv")]) == 0


@pytest.mark.parametrize("seed", [13, 17])
def test_fit_finds_the_line_of_a_near_critically_coupled_chain(tmp_path, seed):
    # the shipped thermal chain with gamma_c = 0.95 gamma, at noise 0.01: a
    # calibration that first fitted the line with v held at 0 put seed 13's
    # mu on the background resonance (530.9 MHz) and stopped seed 17's
    # unconverged with f_b on its bound, and `fit` exited 2 on both
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs" / "thermal.json").read_text())
    chain = dict(raw["chain"], gamma_c=0.95 * raw["chain"]["gamma"])
    config = tmp_path / "gc95.json"
    config.write_text(json.dumps(dict(raw, chain=chain, noise=0.01, seed=seed)))
    dataset, stats = tmp_path / "d.json", tmp_path / "s.csv"
    assert cli.main(["simulate", "--config", str(config), "--out", str(dataset)]) == 0
    assert cli.main(["fit", str(dataset), "--out", str(stats)]) == 0
    with open(dataset) as fh:
        records = pipeline.dataset_from_json(fh).records
    with open(stats) as fh:
        rows = pipeline.stats_from_csv(fh)
    for row, point in zip(rows, records, strict=True):
        assert row.converged
        assert row.variance_n == pytest.approx(point.truth["variance_n"], rel=0.05)


def test_missing_file_exits_one(tmp_path):
    assert cli.main(["fit", str(tmp_path / "absent.json"), "--out", str(tmp_path / "s.csv")]) == 1


def test_demod(tmp_path):
    fs, f_if = 250e6, 62.5e6
    t = np.arange(8000) / fs
    v = 0.6 * np.cos(2 * np.pi * f_if * t + 0.4)
    raw = tmp_path / "raw.csv"
    with raw.open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t_s", "v"])
        for ti, vi in zip(t, v):
            writer.writerow([repr(float(ti)), repr(float(vi))])
    out = tmp_path / "iq.csv"
    assert cli.main(["demod", str(raw), "--f-if", "62.5e6", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    iq = np.array([complex(float(r["i"]), float(r["q"])) for r in rows])
    assert abs(abs(iq.mean()) - 0.3) < 1e-3
    assert abs(np.angle(iq.mean()) - 0.4) < 1e-3


@pytest.mark.parametrize(
    "times,row",
    [([0.0, 0.0, 0.0], 2), ([2e-9, 1e-9, 0.0], 2), ([0.0, 1e-9, 2e-9, 1.5e-9], 4)],
    ids=["repeated", "decreasing", "late"],
)
def test_demod_rejects_times_not_strictly_increasing(tmp_path, capsys, times, row):
    # the error names the file and the first row whose time does not
    # exceed the one before, counted as the read errors count rows
    raw = tmp_path / "raw.csv"
    raw.write_text("t_s,v\n" + "".join(f"{t!r},0.5\n" for t in times))
    out = tmp_path / "iq.csv"
    assert cli.main(["demod", str(raw), "--f-if", "62.5e6", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {raw}: row {row}: raw trace times must be strictly increasing\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "times,row",
    [
        ([0.0, 1.0, 2.0, 4.0, 5.0, 6.0], 4),
        ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 9.0, 11.0], 7),
        # 201 samples at 4 ns, then 200 at 2 ns: the median step, 3 ns, is
        # within half a step of every step
        ([float(k) for k in range(201)] + [200.0 + 0.5 * k for k in range(1, 201)], 202),
    ],
    ids=["missing-sample", "rate-change", "rate-halved-after-half-the-steps"],
)
def test_demod_rejects_unevenly_spaced_times(tmp_path, capsys, times, row):
    # a step more than 1e-3 of the first step away from it: the error names
    # the row that ends the first such step
    raw = tmp_path / "raw.csv"
    raw.write_text("t_s,v\n" + "".join(f"{t * 4e-9!r},0.5\n" for t in times))
    out = tmp_path / "iq.csv"
    assert cli.main(["demod", str(raw), "--f-if", "62.5e6", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {raw}: row {row}: raw trace times must be uniformly spaced\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "row,message",
    [
        ("1e-9,0.5,0.1", "row 2: expected 2 fields, got 3"),
        ("1e-9", "row 2: expected 2 fields, got 1"),
        ("1e-9,x", "row 2, column 'v': cannot read 'x'"),
        ("t,0.5", "row 2, column 't_s': cannot read 't'"),
    ],
    ids=["three-fields", "one-field", "bad-sample", "bad-time"],
)
def test_demod_names_the_row_of_a_malformed_line(tmp_path, capsys, row, message):
    raw = tmp_path / "raw.csv"
    raw.write_text(f"t_s,v\n0.0,0.5\n{row}\n2e-9,0.5\n")
    out = tmp_path / "iq.csv"
    assert cli.main(["demod", str(raw), "--f-if", "62.5e6", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {raw}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty raw trace file"),
        ("t,v\n0.0,0.5\n1e-9,0.5\n", "expected raw trace header t_s,v, got ['t', 'v']"),
        ("t_s,v\n0.0,0.5\n", "raw trace needs at least 2 samples"),
    ],
    ids=["empty", "header", "one-sample"],
)
def test_demod_names_the_file_of_a_bad_trace(tmp_path, capsys, text, message):
    raw = tmp_path / "raw.csv"
    raw.write_text(text)
    out = tmp_path / "iq.csv"
    assert cli.main(["demod", str(raw), "--f-if", "62.5e6", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {raw}: {message}\n"
    assert not out.exists()


def test_demod_rejects_a_non_finite_sample(tmp_path, capsys):
    t = np.arange(400) / 250e6
    v = [repr(float(x)) for x in 0.6 * np.cos(2 * np.pi * 62.5e6 * t)]
    v[200] = "nan"
    raw = tmp_path / "raw.csv"
    raw.write_text("t_s,v\n" + "".join(f"{float(ti)!r},{vi}\n" for ti, vi in zip(t, v)))
    out = tmp_path / "iq.csv"
    assert cli.main(["demod", str(raw), "--f-if", "62.5e6", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {raw}: ")
    assert "non-finite sample at index 200" in err
    assert not out.exists()


def test_report_merges_series(tmp_path, thermal_config_file):
    dataset = tmp_path / "d.json"
    s1 = tmp_path / "thermal.csv"
    cli.main(["simulate", "--config", str(thermal_config_file), "--out", str(dataset)])
    cli.main(["fit", str(dataset), "--out", str(s1)])
    merged = tmp_path / "fig3a.csv"
    assert cli.main(
        ["report", str(s1), str(s1), "--labels", "thermal,coherent", "--out", str(merged)]
    ) == 0
    rows = list(csv.DictReader(merged.read_text().splitlines()))
    assert {r["series"] for r in rows} == {"thermal", "coherent"}
    assert set(rows[0]) == {"series", "mean_n", "variance_n", "g2"}


@pytest.mark.parametrize(
    "row,message",
    [
        ("0.5,523000000.0", "row 2: expected 10 fields, got 2"),
        ("0.5,abc,1.0,1.0,1.0,2.0,1e-20,1,7,1e-16", "row 2, column 'mu_hz': cannot read 'abc'"),
        ("0.5,5e8,1.0,1.0,1.0,2.0,1e-20,yes,7,1e-16", "row 2, column 'converged': cannot read 'yes'"),
    ],
    ids=["short-row", "bad-float", "bad-flag"],
)
def test_report_names_the_file_row_and_column(tmp_path, capsys, row, message):
    good = "0.5,5e8,1.0,1.0,1.0,2.0,1e-20,1,7,1e-16"
    src = tmp_path / "s.csv"
    src.write_text(",".join(pipeline.STATS_HEADER) + f"\n{good}\n{row}\n")
    out = tmp_path / "o.csv"
    assert cli.main(["report", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {src}: {message}\n"
    assert not out.exists()


def test_report_label_mismatch(tmp_path):
    src = tmp_path / "s.csv"
    src.write_text("control,mu_hz\n")
    assert cli.main(["report", str(src), "--labels", "a,b", "--out", str(tmp_path / "o.csv")]) == 1


def test_report_refuses_a_file_without_rows(tmp_path, capsys):
    src = tmp_path / "s.csv"
    src.write_text(",".join(pipeline.STATS_HEADER) + "\n")
    out = tmp_path / "o.csv"
    assert cli.main(["report", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {src}: no statistics rows\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "demod"])
def test_empty_input_exits_one_without_output(tmp_path, capsys, command):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "out.csv"
    extra = ["--f-if", "62.5e6"] if command == "demod" else []
    assert cli.main([command, str(empty), *extra, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
