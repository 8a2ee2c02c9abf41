import base64
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bolostat import (
    PARAM_NAMES,
    ComplexSweep,
    ConfigError,
    DegenerateSigmaWarning,
    SweepConfig,
    SweepDataset,
    extract_statistics,
    fit_measurements,
    planck_mean_photon,
    RadiatorState,
    simulate_sweep,
)
from bolostat.pipeline import (
    STATS_HEADER,
    StatsRecord,
    TracePoint,
    dataset_from_json,
    dataset_to_json,
    stats_from_csv,
    stats_to_csv,
    run_calibration,
)
from bolostat.response import _chain_model

from conftest import CHAIN_TRUE

HF_OVER_K = 0.40448020624971226  # 8.428 GHz in kelvin
SHIPPED = Path(__file__).resolve().parent.parent / "configs"


def temp_for_mean(n):
    return HF_OVER_K / math.log(1.0 + 1.0 / n)


def encode_f8(a):
    return base64.b64encode(np.asarray(a, "<f8").tobytes()).decode("ascii")


def decode_f8(s):
    return np.frombuffer(base64.b64decode(s), "<f8").copy()


def as_v2(doc):
    """The document as the retired v2 writer stored it: the probe grid in
    every trace."""
    grid = doc.pop("f_p_hz")
    for point in (doc["base"], *doc["records"]):
        point["f_p_hz"] = grid
    return dict(doc, format="bolostat-dataset-v2")


def first_record(change):
    """A document mutation that applies ``change`` to the first record."""

    def mutate(doc):
        change(doc["records"][0])
        return doc

    return mutate


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def with_nan_sample(point):
    re = decode_f8(point["re"])
    re[3] = np.nan
    point["re"] = encode_f8(re)


def with_repeated_grid_point(doc):
    grid = decode_f8(doc["f_p_hz"])
    grid[1] = grid[0]
    return dict(doc, f_p_hz=encode_f8(grid))


# ways to damage a dataset document (each maps the parsed document to the
# damaged one), with the message each gives
MALFORMED = {
    "bad-base64": (first_record(lambda p: p.update(re="not*base64")), "base64"),
    "ragged-bytes": (
        first_record(
            lambda p: p.update(im=base64.b64encode(base64.b64decode(p["im"])[:-3]).decode())
        ),
        "float64",
    ),
    "unequal-lengths": (
        first_record(lambda p: p.update(re=encode_f8(decode_f8(p["re"])[:-1]))),
        "length",
    ),
    "not-a-string": (first_record(lambda p: p.update(im={"im": 1.0})), "base64 string"),
    "not-an-object": (lambda doc: [doc], "expected a JSON object"),
    "no-config": (without("config"), "missing 'config'"),
    "no-base": (without("base"), "missing 'base'"),
    "no-records": (without("records"), "missing 'records'"),
    "config-not-an-object": (lambda doc: dict(doc, config=[doc["config"]]), "'config'"),
    "records-not-a-list": (lambda doc: dict(doc, records=doc["records"][0]), "'records'"),
    "empty-records": (lambda doc: dict(doc, records=[]), "'records': controls"),
    "missing-record": (lambda doc: dict(doc, records=doc["records"][:-1]), "'records': controls"),
    "record-not-an-object": (lambda doc: dict(doc, records=[1.0]), "record 0"),
    "record-without-re": (first_record(lambda p: p.pop("re")), "missing 're'"),
    "control-null": (first_record(lambda p: p.update(control=None)), "'control'"),
    "control-string": (first_record(lambda p: p.update(control="abc")), "'control'"),
    "control-bool": (first_record(lambda p: p.update(control=True)), "'control'"),
    "v2-format": (as_v2, "format 'bolostat-dataset-v2'"),
    "no-grid": (without("f_p_hz"), "missing 'f_p_hz'"),
    "trace-length": (
        first_record(lambda p: p.update({key: encode_f8(decode_f8(p[key])[::2]) for key in ("re", "im")})),
        "record 0: trace length differs from the probe grid",
    ),
    "nan-sample": (first_record(with_nan_sample), "record 0: freqs and values must be finite"),
    "repeated-grid-point": (with_repeated_grid_point, "'base': freqs must be strictly increasing"),
    "flat-shift-poly": (
        lambda doc: dict(doc, config=dict(doc["config"], freq_shift_poly_hz=[0.0])),
        "field 'freq_shift_poly_hz': must hold 2..8",
    ),
}


def assert_same_arrays(a, b):
    """Bitwise equality of every trace, so -0.0 and 0.0 differ."""
    for p, q in zip((a.base, *a.records), (b.base, *b.records), strict=True):
        assert p.sweep.freqs.tobytes() == q.sweep.freqs.tobytes()
        assert p.sweep.values.tobytes() == q.sweep.values.tobytes()


def make_config(mode="thermal", **overrides):
    raw = {
        "mode": mode,
        "seed": 7,
        "radiator_frequency_hz": 8.428e9,
        "filter_fwhm_hz": 133e6,
        "alpha_photon_per_hz": 1.92e-6,
        "beamsplitter_gamma": 0.01,
        "freq_shift_poly_hz": [0.0, -1.0e6, 2.0e4, -300.0],
        "chain": {
            "mu_base_hz": CHAIN_TRUE.mu_base_hz,
            "gamma_c": CHAIN_TRUE.gamma_c,
            "phi": CHAIN_TRUE.phi,
            "gamma": CHAIN_TRUE.gamma,
            "s_b": CHAIN_TRUE.s_b,
            "f_b": CHAIN_TRUE.f_b,
            "gamma_bc": CHAIN_TRUE.gamma_bc,
            "gamma_b": CHAIN_TRUE.gamma_b,
            "phi_b": CHAIN_TRUE.phi_b,
            "tau": CHAIN_TRUE.tau,
            "varphi": CHAIN_TRUE.varphi,
        },
        "probe_start_hz": 500e6,
        "probe_stop_hz": 545e6,
        "probe_points": 451,
        "noise": 0.0,
    }
    if mode in ("thermal", "mixed"):
        raw["t_grid_k"] = [temp_for_mean(n) for n in (0.3, 1.0, 3.0)]
    if mode == "coherent":
        raw["flux_grid"] = [0.5, 2.0, 8.0]
    if mode == "mixed":
        raw["coherent_input_flux"] = 100.0
    raw.update(overrides)
    return SweepConfig.from_dict(raw)


class TestConfigValidation:
    def test_round_trips_through_dict(self):
        cfg = make_config()
        again = SweepConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize(
        "mutation,field",
        [
            ({"mode": "squeezed"}, "mode"),
            ({"probe_points": 4}, "probe_points"),
            ({"beamsplitter_gamma": 1.5}, "beamsplitter_gamma"),
            ({"t_grid_k": [2.0, 1.0, 3.0]}, "t_grid_k"),
            ({"alpha_photon_per_hz": -1.0}, "alpha_photon_per_hz"),
            ({"chain": {"gamma_c": 1.01 * CHAIN_TRUE.gamma}}, "chain.gamma_c"),
            ({"chain": {"gamma_c": 0.0}}, "chain.gamma_c"),
            ({"chain": {"tau": -1e-9}}, "chain.tau"),
            ({"chain": {"gamma_b": -CHAIN_TRUE.gamma_b}}, "chain.gamma_b"),
            ({"chain": {"mu_base_hz": 0.0}}, "chain.mu_base_hz"),
            # NaN is no finite number: refused in its own field
            ({"chain": {"gamma": float("nan")}}, "chain.gamma"),
            # no silent coercion: 451.7 is not 451, False is not 0, "123"
            # is not (1.0, 2.0, 3.0)
            ({"probe_points": 451.7}, "probe_points"),
            ({"seed": 2.5}, "seed"),
            ({"seed": False}, "seed"),
            ({"freq_shift_poly_hz": "123"}, "freq_shift_poly_hz"),
            ({"t_grid_k": "12"}, "t_grid_k"),
            # every number is a finite JSON number: no bool, no string, no
            # Infinity (which Python's json reads)
            ({"noise": True}, "noise"),
            ({"filter_fwhm_hz": "133e6"}, "filter_fwhm_hz"),
            ({"seed": "5"}, "seed"),
            ({"probe_points": "451"}, "probe_points"),
            ({"t_grid_k": ["0.5", "1.0"]}, "t_grid_k"),
            ({"t_grid_k": [0.5, float("inf")]}, "t_grid_k"),
            ({"freq_shift_poly_hz": [True, 2.0]}, "freq_shift_poly_hz"),
            ({"chain": {"tau": False}}, "chain.tau"),
            ({"alpha_photon_per_hz": float("inf")}, "alpha_photon_per_hz"),
            ({"radiator_frequency_hz": float("inf")}, "radiator_frequency_hz"),
            # Philox takes no negative key
            ({"seed": -3}, "seed"),
            # a polynomial that cannot shift the line: no resonance shift to
            # invert, so every row would read mean_n 0 and g2 nan
            ({"freq_shift_poly_hz": [0.0]}, "freq_shift_poly_hz"),
            ({"freq_shift_poly_hz": [5.0, 0.0, -0.0]}, "freq_shift_poly_hz"),
            ({"freq_shift_poly_hz": []}, "freq_shift_poly_hz"),
            ({"freq_shift_poly_hz": [0.0, -1.0e6, *[0.0] * 7]}, "freq_shift_poly_hz"),
        ],
    )
    def test_named_field_errors(self, mutation, field):
        raw = make_config().to_dict()
        for key, value in mutation.items():
            if isinstance(value, dict):  # a nested mutation, e.g. of one chain field
                raw[key].update(value)
            else:
                raw[key] = value
        with pytest.raises(ConfigError, match=field):
            SweepConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "chain,reason",
        [
            ({"mu_base_hz": -1.0}, "mu must be positive, got -1.0"),
            (
                {"gamma_c": 0.0},
                f"need 0 < gamma_c <= gamma, got gamma_c=0.0, gamma={CHAIN_TRUE.gamma}",
            ),
            ({"gamma_b": 0.0}, "gamma_b must be positive, got 0.0"),
            ({"tau": -1e-9}, "tau must be non-negative, got -1e-09"),
        ],
        ids=["mu_base_hz", "gamma_c", "gamma_b", "tau"],
    )
    def test_chain_checks_give_their_reason(self, chain, reason):
        raw = make_config().to_dict()
        raw["chain"].update(chain)
        with pytest.raises(ConfigError) as refused:
            SweepConfig.from_dict(raw)
        assert str(refused.value) == f"field 'chain.{next(iter(chain))}': {reason}"

    def test_chain_phases_are_unrestricted(self):
        raw = make_config().to_dict()
        raw["chain"].update(phi=4.0, phi_b=-7.0, varphi=10.0)
        assert SweepConfig.from_dict(raw).chain.varphi == 10.0

    def test_missing_chain_entry(self):
        raw = make_config().to_dict()
        del raw["chain"]["tau"]
        with pytest.raises(ConfigError, match="chain.tau"):
            SweepConfig.from_dict(raw)


class TestSimulate:
    def test_deterministic_bytes(self):
        cfg = make_config(noise=0.01)
        a, b = io.StringIO(), io.StringIO()
        dataset_to_json(simulate_sweep(cfg), a)
        dataset_to_json(simulate_sweep(cfg), b)
        assert a.getvalue() == b.getvalue()

    def test_seed_changes_noise(self):
        d1 = simulate_sweep(make_config(noise=0.01, seed=1))
        d2 = simulate_sweep(make_config(noise=0.01, seed=2))
        assert not np.array_equal(d1.records[0].sweep.values, d2.records[0].sweep.values)

    def test_truth_table_matches_planck(self):
        cfg = make_config(t_grid_k=[1.0])
        dataset = simulate_sweep(cfg)
        truth = dataset.records[0].truth
        n = planck_mean_photon(RadiatorState(T=1.0, f=8.428e9))
        assert truth["mean_n"] == pytest.approx(n, rel=1e-12)
        assert truth["variance_n"] == pytest.approx(n * (n + 1), rel=1e-12)
        assert abs(truth["mean_n"] - 2.01) < 0.01

    def test_base_trace_is_zero_input(self):
        dataset = simulate_sweep(make_config())
        assert dataset.base.truth["mean_n"] == 0.0
        assert dataset.base.truth["sigma_hz"] == 0.0
        assert dataset.base.control is None

    @pytest.mark.parametrize("mode", ["thermal", "coherent", "mixed"])
    def test_traces_are_the_chain_model(self, mode):
        # the delay and background are evaluated once per sweep; every
        # noiseless trace, the base trace at v = 0 included, is still the
        # chain model at its truth
        cfg = make_config(mode=mode)
        dataset = simulate_sweep(cfg)
        grid = cfg.probe_grid()
        for point in (dataset.base, *dataset.records):
            v = point.truth["variance_n"] / cfg.alpha_photon_per_hz**2
            assert point.truth["sigma_hz"] == math.sqrt(v)
            x = cfg.chain.vector(point.truth["mu_hz"], v)
            assert np.array_equal(point.sweep.values, _chain_model(x, grid))
            assert point.sweep.freqs is dataset.base.sweep.freqs
        assert not dataset.base.sweep.freqs.flags.writeable

    def test_lines_are_evaluated_in_blocks(self, monkeypatch):
        # 3000-point traces make blocks of two traces, the last of one, whose
        # line is formed on the probe grid alone; each noisy trace is still
        # the chain model at its truth plus its own noise, drawn trace by
        # trace from the seed's Philox stream
        import bolostat.response as response

        temps = [temp_for_mean(n) for n in (0.3, 1.0, 3.0, 5.0)]
        cfg = make_config(probe_points=3000, noise=0.01, t_grid_k=temps)
        real, shapes = response._line, []

        def counted(*args):
            out = real(*args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(response, "_line", counted)
        dataset = simulate_sweep(cfg)
        assert shapes == [(2, 3000), (2, 3000), (3000,)]
        grid = cfg.probe_grid()
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        for point in (dataset.base, *dataset.records):
            v = point.truth["variance_n"] / cfg.alpha_photon_per_hz**2
            clean = _chain_model(cfg.chain.vector(point.truth["mu_hz"], v), grid)
            s = cfg.noise * np.ptp(np.abs(clean)) / math.sqrt(2.0)
            noisy = clean + rng.normal(0.0, s, grid.size) + 1j * rng.normal(0.0, s, grid.size)
            assert np.array_equal(point.sweep.values, noisy)

    def test_mixed_mode_truth_uses_beamsplitter(self):
        cfg = make_config(mode="mixed")
        dataset = simulate_sweep(cfg)
        t = cfg.t_grid_k[0]
        n_th = planck_mean_photon(RadiatorState(T=t, f=8.428e9))
        truth = dataset.records[0].truth
        assert truth["mean_n"] == pytest.approx(0.01 * 100.0 + 0.99 * n_th, rel=1e-12)


class TestExtraction:
    def test_thermal_round_trip(self):
        dataset = simulate_sweep(make_config())
        records = extract_statistics(dataset)
        assert all(r.converged for r in records)
        for rec, point in zip(records, dataset.records):
            assert rec.mean_n == pytest.approx(point.truth["mean_n"], rel=0.01)
            assert rec.variance_n == pytest.approx(point.truth["variance_n"], rel=0.03)
            assert rec.variance_n == pytest.approx(
                rec.mean_n * (rec.mean_n + 1), rel=0.05
            )
            assert rec.g2 == pytest.approx(2.0, abs=0.05)

    def test_coherent_round_trip(self):
        dataset = simulate_sweep(make_config(mode="coherent"))
        records = extract_statistics(dataset)
        for rec, point in zip(records, dataset.records):
            assert rec.variance_n == pytest.approx(rec.mean_n, rel=0.05)
            assert rec.g2 == pytest.approx(1.0, abs=0.05)

    def test_mixed_mode_g2_rises_with_temperature(self):
        cfg = make_config(
            mode="mixed",
            coherent_input_flux=100.0,
            t_grid_k=[temp_for_mean(n) for n in (0.2, 1.0, 3.0)],
        )
        records = extract_statistics(simulate_sweep(cfg))
        g2s = [r.g2 for r in records]
        assert all(np.diff(g2s) > 0)
        assert 1.0 < g2s[0] < g2s[-1] < 2.0

    def test_g2_internally_consistent(self):
        records = extract_statistics(simulate_sweep(make_config()))
        for r in records:
            recomputed = 1.0 + (r.variance_n - r.mean_n) / r.mean_n**2
            assert abs(r.g2 - recomputed) < 1e-12

    @pytest.mark.parametrize("name", ["thermal", "coherent", "mixed"])
    def test_clean_shipped_configs_round_trip_to_round_off(self, name):
        # the clean base trace's truth is v = 0; the fit approaches it from
        # inside and stops at round-off (sigma_base 0.016 Hz), so the frozen
        # chain is exact and every clean measurement fit ends at round-off
        raw = json.loads((SHIPPED / f"{name}.json").read_text())
        dataset = simulate_sweep(SweepConfig.from_dict(raw))
        calibration = run_calibration(dataset)
        assert math.sqrt(calibration.fit.params[PARAM_NAMES.index("v")]) < 1.0
        records = extract_statistics(dataset, calibration)
        assert max(r.residual_norm for r in records) <= 1e-15

    @pytest.mark.parametrize("name", ["thermal", "coherent", "mixed"])
    def test_variance_is_the_fitted_broadening_over_the_base_one(self, name):
        # the statistics stay in v: each row's variance is alpha^2 (v - v_base)
        # of the fitted v and the calibration's v_base, bit for bit, with no
        # sigma = sqrt(v) squared back on the way (which moved 14 of these
        # 25 rows in their last bits)
        raw = dict(json.loads((SHIPPED / f"{name}.json").read_text()), noise=0.01, seed=3)
        dataset = simulate_sweep(SweepConfig.from_dict(raw))
        calibration = run_calibration(dataset)
        alpha = dataset.config.alpha_photon_per_hz
        v_base = calibration.fit.params[PARAM_NAMES.index("v")]
        fitted = fit_measurements([p.sweep for p in dataset.records], calibration)
        records = extract_statistics(dataset, calibration)
        for rec, (_, v, _) in zip(records, fitted, strict=True):
            assert v > v_base > 0  # no row on the clamp
            assert rec.variance_n == alpha**2 * (v - v_base)
            assert rec.sigma_hz == math.sqrt(v)

    @pytest.mark.parametrize("noise,seed", [(0.0, 7), (0.01, 2)])
    def test_base_calibration_at_zero_broadening_raises_no_warning(self, noise, seed):
        # the base trace's v = 0 is the zero-input answer, not a degenerate
        # fit; the noisy calibration ends there, and the clean one within
        # round-off of it
        raw = dict(json.loads((SHIPPED / "thermal.json").read_text()), noise=noise, seed=seed)
        dataset = simulate_sweep(SweepConfig.from_dict(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calibration = run_calibration(dataset)
            extract_statistics(dataset, calibration)
        v = calibration.fit.params[PARAM_NAMES.index("v")]
        assert math.sqrt(v) < 1.0 if noise == 0 else v == 0.0
        assert not [w for w in caught if issubclass(w.category, DegenerateSigmaWarning)]

    def test_calibration_starts_sigma_on_its_bound(self, monkeypatch):
        # gamma_c = 0.95*gamma, seed 13: a start whose broadening sat on a
        # bound that depended on the perturbed gamma once had a dead column,
        # and a later fit with v held at 0 found the background resonance
        # (mu 530.9 MHz).  The one calibration run steps in v = sigma**2,
        # starts at v = 0, its bound, whatever gamma is, and finds the line.
        import bolostat.fitkit as fk

        raw = make_config(seed=13).to_dict()
        raw["chain"]["gamma_c"] = 0.95 * raw["chain"]["gamma"]
        cfg = SweepConfig.from_dict(raw)
        dataset = simulate_sweep(cfg)
        real = fk._lm
        starts = []

        def recording(evaluate, x0, lo, hi, scales, names):
            starts.append((names, x0[0], np.broadcast_to(lo, x0.shape)[0]))
            return real(evaluate, x0, lo, hi, scales, names)

        monkeypatch.setattr(fk, "_lm", recording)
        calibration = run_calibration(dataset)
        assert calibration.fit.converged
        [(names, init, lo)] = starts
        assert names == tuple(PARAM_NAMES)
        v = PARAM_NAMES.index("v")
        assert init[v] == lo[v] == 0.0
        mu = calibration.fit.params[PARAM_NAMES.index("mu")]
        assert abs(mu - cfg.chain.mu_base_hz) < 1e6

    def test_retired_keys_in_old_files_are_ignored(self):
        # configs and datasets written while `workers`, `init_perturbation`
        # and `filter_center_hz` were settable still load, and give the same
        # statistics
        retired = {"workers": 4, "init_perturbation": 0.05, "filter_center_hz": 8.428e9}
        cfg = make_config()
        assert make_config(**retired) == cfg
        dataset = simulate_sweep(cfg)
        buf = io.StringIO()
        dataset_to_json(dataset, buf)
        doc = json.loads(buf.getvalue())
        doc["config"].update(retired)
        old = dataset_from_json(io.StringIO(json.dumps(doc)))
        assert old.config == cfg
        assert extract_statistics(old) == extract_statistics(dataset)


class TestPersistence:
    def test_dataset_json_round_trip_exact(self):
        dataset = simulate_sweep(make_config(noise=0.005))
        buf = io.StringIO()
        dataset_to_json(dataset, buf)
        buf.seek(0)
        again = dataset_from_json(buf)
        assert again.config == dataset.config
        assert_same_arrays(again, dataset)
        assert again.records[1].truth == dataset.records[1].truth
        assert again.records[1].sweep.values.flags.writeable

    def test_dataset_json_v3_encoding_is_pinned(self):
        # -0.0, the smallest subnormal, 1e308 and 0.1 as little-endian float64
        values = np.array([0.1, -0.0, 1e308, 5e-324], dtype=complex)
        values.imag = [5e-324, 1e308, -0.0, 0.1]
        sweep = ComplexSweep(freqs=[-0.0, 5e-324, 0.1, 1e308], values=values)
        config = make_config(t_grid_k=[1.0])
        dataset = SweepDataset(
            config=config,
            base=TracePoint(control=None, truth={"mean_n": 0.0}, sweep=sweep),
            records=(TracePoint(control=1.0, truth={"mean_n": 0.5}, sweep=sweep),),
        )
        buf = io.StringIO()
        dataset_to_json(dataset, buf)
        re = "mpmZmZmZuT8AAAAAAAAAgKDI64XzzOF/AQAAAAAAAAA="
        im = "AQAAAAAAAACgyOuF88zhfwAAAAAAAACAmpmZmZmZuT8="
        # the whole document, as the writer means it: one grid, at the top
        assert json.loads(buf.getvalue()) == {
            "format": "bolostat-dataset-v3",
            "config": config.to_dict(),
            "f_p_hz": "AAAAAAAAAIABAAAAAAAAAJqZmZmZmbk/oMjrhfPM4X8=",
            "base": {"control": None, "truth": {"mean_n": 0.0}, "re": re, "im": im},
            "records": [{"control": 1.0, "truth": {"mean_n": 0.5}, "re": re, "im": im}],
        }
        again = dataset_from_json(io.StringIO(buf.getvalue()))
        assert_same_arrays(again, dataset)
        assert np.signbit(again.base.sweep.values.real[1])
        assert np.signbit(again.base.sweep.freqs[0])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_dataset_json_round_trip_is_bitwise(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
        grid = data.draw(st.lists(finite, min_size=1, max_size=12, unique=True).map(sorted))
        n = len(grid)
        samples = st.lists(st.one_of(finite, st.sampled_from([-0.0, 5e-324, -5e-324])), min_size=n, max_size=n)

        def point(control):
            values = np.array(data.draw(samples), dtype=complex)
            values.imag = data.draw(samples)
            return TracePoint(control=control, truth={}, sweep=ComplexSweep(grid, values))

        dataset = SweepDataset(make_config(t_grid_k=[0.5, 2.0]), point(None), (point(0.5), point(2.0)))
        buf = io.StringIO()
        dataset_to_json(dataset, buf)
        again = dataset_from_json(io.StringIO(buf.getvalue()))
        assert_same_arrays(again, dataset)
        assert [p.control for p in again.records] == [0.5, 2.0]

    def test_read_back_traces_share_one_read_only_grid(self):
        buf = io.StringIO()
        dataset_to_json(simulate_sweep(make_config()), buf)
        again = dataset_from_json(io.StringIO(buf.getvalue()))
        grid = again.base.sweep.freqs
        assert all(p.sweep.freqs is grid for p in again.records)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0

    def test_writer_refuses_a_second_grid(self):
        dataset = simulate_sweep(make_config())
        other = dataset.records[1].sweep
        moved = ComplexSweep(other.freqs + 1.0, other.values)
        records = list(dataset.records)
        records[1] = TracePoint(control=records[1].control, truth=records[1].truth, sweep=moved)
        buf = io.StringIO()
        with pytest.raises(ValueError, match="record 1: probe grid differs"):
            dataset_to_json(SweepDataset(dataset.config, dataset.base, tuple(records)), buf)
        assert buf.getvalue() == ""  # refused before anything is written

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_dataset_json_malformed_arrays_raise(self, case):
        mutate, match = MALFORMED[case]
        buf = io.StringIO()
        dataset_to_json(simulate_sweep(make_config(t_grid_k=[0.5, 1.0])), buf)
        doc = mutate(json.loads(buf.getvalue()))
        with pytest.raises(ValueError, match=match):
            dataset_from_json(io.StringIO(json.dumps(doc)))

    def test_stats_csv_round_trip_exact(self):
        records = extract_statistics(simulate_sweep(make_config()))
        buf = io.StringIO()
        stats_to_csv(records, buf)
        buf.seek(0)
        again = stats_from_csv(buf)
        assert again == records

    def test_stats_csv_row_text_is_pinned(self):
        record = StatsRecord(
            control=0.5,
            mu_hz=523000000.0,
            sigma_hz=-0.0,
            mean_n=1 / 3,
            variance_n=5e-324,
            g2=2.0000000000000004,
            power_w=1e-20,
            converged=True,
            n_iter=7,
            residual_norm=1e308,
        )
        buf = io.StringIO()
        stats_to_csv([record], buf)
        assert buf.getvalue() == (
            "control,mu_hz,sigma_hz,mean_n,variance_n,g2,power_w,converged,n_iter,residual_norm\n"
            "0.5,523000000.0,-0.0,0.3333333333333333,5e-324,2.0000000000000004,1e-20,1,7,1e+308\n"
        )
        buf.seek(0)
        (again,) = stats_from_csv(buf)
        assert again == record and type(again.converged) is bool and type(again.n_iter) is int
        assert math.copysign(1.0, again.sigma_hz) == -1.0

    def test_stats_csv_short_row_raises(self):
        with pytest.raises(ValueError, match="^row 1: expected 10 fields, got 2$"):
            stats_from_csv(io.StringIO(",".join(STATS_HEADER) + "\n0.5,523000000.0\n"))

    def test_stats_csv_wrong_header_raises(self):
        with pytest.raises(ValueError, match="^unexpected statistics header: \\['control', 'mu'\\]$"):
            stats_from_csv(io.StringIO("control,mu\n0.5,523000000.0\n"))

    @pytest.mark.parametrize("reader", [stats_from_csv])
    def test_empty_csv_raises(self, reader):
        with pytest.raises(ValueError, match="empty"):
            reader(io.StringIO(""))

    def test_stats_csv_header_self_describing(self):
        records = extract_statistics(simulate_sweep(make_config(t_grid_k=[1.0])))
        buf = io.StringIO()
        stats_to_csv(records, buf)
        header = buf.getvalue().splitlines()[0]
        assert header.startswith("control,mu_hz,sigma_hz,mean_n")

    def test_rejects_foreign_json(self):
        with pytest.raises(ValueError):
            dataset_from_json(io.StringIO(json.dumps({"format": "something-else"})))
