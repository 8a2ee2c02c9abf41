import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bolostat import (
    DEFAULT_FIR,
    FirSpec,
    IqStream,
    RawTrace,
    average_traces,
    decimate,
    digital_downconvert,
    fir_lowpass,
    synth_raw_trace,
)
from bolostat.dspchain import _FIR_BLOCK, _WINDOWS, _tap_blocks, design_taps, group_delay_samples

# chain constants: 250 Msps digitizer, 62.5 MHz intermediate frequency,
# 32 us traces, 500 kHz low-pass, decimate by 4 to one IQ point per 16 ns
FS = 250e6
F_IF = 62.5e6
DURATION = 32e-6


def tone(amp=1.0, phase=0.0, noise=0.0, seed=0):
    return synth_raw_trace(amp, phase, F_IF, noise, DURATION, FS, seed)


class TestSynth:
    def test_four_samples_per_period(self):
        trace = tone()
        assert trace.samples.size == 8000
        # fs/f_if = 4: exact sample pattern cos(pi k / 2) = 1, 0, -1, 0
        np.testing.assert_allclose(trace.samples[:4], [1, 0, -1, 0], atol=1e-12)
        np.testing.assert_allclose(trace.samples[4000:4004], [1, 0, -1, 0], atol=1e-9)

    def test_pure_noise_rms(self):
        trace = synth_raw_trace(0.0, 0.0, F_IF, 0.5, DURATION, FS, seed=3)
        rms = np.sqrt(np.mean(trace.samples**2))
        assert abs(rms / 0.5 - 1) < 0.02

    def test_seed_determinism(self):
        a = tone(noise=0.1, seed=9)
        b = tone(noise=0.1, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = tone(noise=0.1, seed=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError):
            synth_raw_trace(1.0, 0.0, 130e6, 0.0, DURATION, FS, 0)

    @pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf, -np.inf])
    def test_bad_noise_rms_rejected(self, noise):
        with pytest.raises(ValueError, match="noise_rms"):
            tone(noise=noise)


class TestDownconversion:
    def test_tone_maps_to_half_amplitude_dc(self):
        theta = 0.7
        stream = digital_downconvert(tone(amp=2.0, phase=theta), F_IF)
        stream = fir_lowpass(stream, DEFAULT_FIR)
        iq = stream.iq.mean()
        np.testing.assert_allclose(abs(iq), 1.0, rtol=1e-3)
        np.testing.assert_allclose(np.angle(iq), theta, atol=1e-3)

    def test_offset_tone_rotates_at_offset(self):
        offset = 1e6
        trace = synth_raw_trace(1.0, 0.0, F_IF + offset, 0.0, DURATION, FS, 0)
        stream = digital_downconvert(trace, F_IF)
        stream = fir_lowpass(stream, FirSpec(cutoff=2e6))
        phase = np.unwrap(np.angle(stream.iq))
        slope = np.polynomial.polynomial.polyfit(
            np.arange(phase.size) / stream.rate, phase, 1
        )[1]
        np.testing.assert_allclose(slope, 2 * np.pi * offset, rtol=1e-3)

    def test_image_suppression(self):
        # the image of a real tone sits at -2 f_if; with the default filter
        # at the source rate it must be at least 60 dB down
        taps = design_taps(DEFAULT_FIR, FS)
        freqs = np.fft.fftfreq(65536, 1 / FS)
        response = np.abs(np.fft.fft(taps, 65536))
        image = np.argmin(np.abs(freqs + 2 * F_IF))
        attenuation_db = -20 * np.log10(response[image])
        assert attenuation_db >= 60


class TestFir:
    def test_dc_gain_exactly_one(self):
        taps = design_taps(DEFAULT_FIR, 62.5e6)
        assert taps.sum() == pytest.approx(1.0, abs=1e-15)
        stream = IqStream(iq=np.full(1000, 0.3 + 0.4j), rate=62.5e6)
        out = fir_lowpass(stream, DEFAULT_FIR)
        np.testing.assert_allclose(out.iq, 0.3 + 0.4j, rtol=1e-12)

    def test_tap_vector_is_palindromic(self):
        for spec in (DEFAULT_FIR, FirSpec(1e6, 65, "hamming"), FirSpec(2e6, 11, "rect")):
            taps = design_taps(spec, 62.5e6)
            np.testing.assert_allclose(taps, taps[::-1], rtol=1e-12)

    def test_stopband_attenuation_at_ten_times_cutoff(self):
        # default design point: 500 kHz cutoff at the 62.5 Msps IQ rate
        taps = design_taps(DEFAULT_FIR, 62.5e6)
        freqs = np.fft.fftfreq(65536, 1 / 62.5e6)
        response = np.abs(np.fft.fft(taps, 65536))
        k = np.argmin(np.abs(freqs - 10 * DEFAULT_FIR.cutoff))
        assert -20 * np.log10(response[k]) >= 60

    def test_tone_at_ten_times_cutoff_attenuated(self):
        rate = 62.5e6
        t = np.arange(4096) / rate
        stream = IqStream(iq=np.exp(2j * np.pi * 5e6 * t), rate=rate)
        out = fir_lowpass(stream, DEFAULT_FIR)
        assert np.abs(out.iq).max() < 1e-3  # >= 60 dB

    def test_impulse_response_is_tap_vector(self):
        spec = FirSpec(cutoff=1e6, n_taps=31)
        x = np.zeros(101, dtype=complex)
        x[50] = 1.0
        out = fir_lowpass(IqStream(iq=x, rate=62.5e6), spec)
        taps = design_taps(spec, 62.5e6)
        start = 50 - (spec.n_taps - 1)
        np.testing.assert_allclose(out.iq[start : start + 31], taps[::-1], atol=1e-15)

    def test_transients_trimmed(self):
        spec = FirSpec(cutoff=1e6, n_taps=31)
        stream = IqStream(iq=np.ones(100, dtype=complex), rate=62.5e6)
        out = fir_lowpass(stream, spec)
        assert len(out) == 100 - (spec.n_taps - 1)
        assert group_delay_samples(spec) == 15

    @pytest.mark.parametrize("n_taps", [31.0, np.float64(31), "31", True])
    def test_non_int_tap_count_rejected(self, n_taps):
        with pytest.raises(ValueError, match="n_taps"):
            FirSpec(1e6, n_taps=n_taps)

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError):
            fir_lowpass(IqStream(iq=np.ones(10, dtype=complex), rate=1e6), DEFAULT_FIR)

    def test_linearity_of_chain(self):
        a = digital_downconvert(tone(amp=1.0, phase=0.2, noise=0.0), F_IF)
        b = digital_downconvert(tone(amp=0.5, phase=-1.0, noise=0.0), F_IF)
        combined = IqStream(iq=2.0 * a.iq + 3.0 * b.iq, rate=a.rate)
        lhs = fir_lowpass(combined, DEFAULT_FIR).iq
        rhs = 2.0 * fir_lowpass(a, DEFAULT_FIR).iq + 3.0 * fir_lowpass(b, DEFAULT_FIR).iq
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestCaches:
    # the tone, the local oscillator and the taps are cached per key; the
    # outputs must stay those of the uncached formulas

    @staticmethod
    def uncached_tone(amp, phase, f_if, noise, n, fs, seed):
        t = np.arange(n) / fs
        samples = amp * np.cos(2.0 * np.pi * f_if * t + phase)
        if noise > 0:
            samples = samples + np.random.Generator(np.random.Philox(seed)).normal(0.0, noise, n)
        return samples

    @staticmethod
    def uncached_ddc(samples, fs, f_if, t0):
        t = t0 + np.arange(samples.size) / fs
        return samples * np.exp(-2j * np.pi * f_if * t)

    @pytest.mark.parametrize("amp, phase, noise", [(1.0, 0.6, 0.0), (0.7, -2.1, 0.02), (-0.0, 0.3, 0.0)])
    def test_synth_and_ddc_bit_identical_to_uncached(self, amp, phase, noise):
        for _ in range(2):  # the second pass reads the caches
            trace = tone(amp=amp, phase=phase, noise=noise, seed=5)
            expected = self.uncached_tone(amp, phase, F_IF, noise, 8000, FS, 5)
            assert trace.samples.tobytes() == expected.tobytes()
            for t0 in (0.0, 1.234e-6):
                for f_if in (F_IF, 0.9 * F_IF):
                    iq = digital_downconvert(RawTrace(trace.samples, FS, t0), f_if).iq
                    assert iq.tobytes() == self.uncached_ddc(expected, FS, f_if, t0).tobytes()

    def test_distinct_t0_and_f_if_give_distinct_local_oscillators(self):
        ones = RawTrace(np.ones(8000), FS)
        lo = digital_downconvert(ones, F_IF).iq
        shifted = digital_downconvert(RawTrace(np.ones(8000), FS, t0=1e-9), F_IF).iq
        detuned = digital_downconvert(ones, 0.9 * F_IF).iq
        assert not np.array_equal(lo, shifted)
        assert not np.array_equal(lo, detuned)
        np.testing.assert_array_equal(lo, self.uncached_ddc(np.ones(8000), FS, F_IF, 0.0))

    def test_mutating_outputs_leaves_the_next_call_unchanged(self):
        for kwargs in ({}, dict(amp=0.8, phase=0.4), dict(amp=0.8, phase=0.4, noise=0.1, seed=2)):
            first = tone(**kwargs)
            reference = first.samples.copy()
            first.samples[:] = 7.0
            assert tone(**kwargs).samples.tobytes() == reference.tobytes()
        stream = digital_downconvert(tone(), F_IF)
        reference = stream.iq.copy()
        stream.iq[:] = 7.0
        assert digital_downconvert(tone(), F_IF).iq.tobytes() == reference.tobytes()
        filtered = fir_lowpass(IqStream(iq=reference, rate=FS), DEFAULT_FIR)
        filtered_again = filtered.iq.copy()
        filtered.iq[:] = 7.0
        np.testing.assert_array_equal(
            fir_lowpass(IqStream(iq=reference, rate=FS), DEFAULT_FIR).iq, filtered_again
        )

    def test_fir_matches_complex_convolution(self):
        stream = digital_downconvert(tone(amp=1.0, phase=0.6, noise=0.02, seed=3), F_IF)
        taps = design_taps(DEFAULT_FIR, FS)
        expected = np.convolve(stream.iq, taps, mode="valid")
        for _ in range(2):
            out = fir_lowpass(stream, DEFAULT_FIR).iq
            assert out.shape == expected.shape
            assert np.max(np.abs(out - expected)) <= 1e-15


class TestBlockedFir:
    # fir_lowpass multiplies rows of _FIR_BLOCK samples by cached Toeplitz
    # blocks; every output must stay that of the complex convolution.  The
    # streams are shaped like the chain's: a tone of amplitude 0.5-1.5 with
    # noise 0.02, down-converted at the source rate

    @staticmethod
    def noisy_stream(n, seed):
        rng = np.random.default_rng(seed)
        trace = RawTrace(
            rng.uniform(0.5, 1.5) * np.cos(np.pi / 2 * np.arange(n) + rng.uniform(-np.pi, np.pi))
            + 0.02 * rng.standard_normal(n),
            FS,
        )
        return digital_downconvert(trace, F_IF)

    @staticmethod
    def assert_matches_convolution(stream, spec):
        expected = np.convolve(stream.iq, design_taps(spec, stream.rate), mode="valid")
        out = fir_lowpass(stream, spec).iq
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-15

    @pytest.mark.parametrize("window", sorted(_WINDOWS))
    @pytest.mark.parametrize("n_taps", [3, 11, 31, 129])
    def test_matches_complex_convolution(self, n_taps, window):
        spec = FirSpec(DEFAULT_FIR.cutoff, n_taps, window)
        self.assert_matches_convolution(self.noisy_stream(2000, n_taps), spec)

    @pytest.mark.parametrize("n_taps", [3, 11, 31, 129])
    def test_matches_at_block_edges(self, n_taps):
        spec = FirSpec(DEFAULT_FIR.cutoff, n_taps)
        lengths = [n_taps, n_taps + 1]
        for rows in (1, 2, 7):
            # rows * _FIR_BLOCK outputs, then one fewer and one more
            lengths += [n_taps - 1 + rows * _FIR_BLOCK + d for d in (-1, 0, 1)]
        for n in lengths:
            self.assert_matches_convolution(self.noisy_stream(n, n), spec)

    def test_matches_on_demod_shaped_traces(self):
        rng = np.random.default_rng(17)
        for seed in range(100):
            amp, theta = rng.uniform(0.5, 1.5), rng.uniform(-np.pi, np.pi)
            stream = digital_downconvert(tone(amp=amp, phase=theta, noise=0.02, seed=seed), F_IF)
            self.assert_matches_convolution(stream, DEFAULT_FIR)

    def test_cached_blocks_are_read_only(self):
        fir_lowpass(digital_downconvert(tone(), F_IF), DEFAULT_FIR)
        blocks = _tap_blocks(DEFAULT_FIR, FS)
        assert blocks.shape == (5, _FIR_BLOCK, _FIR_BLOCK)
        assert not blocks.flags.writeable
        with pytest.raises(ValueError):
            blocks[0, 0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf])
    def test_non_finite_sample_named_by_index(self, bad):
        stream = self.noisy_stream(500, 0)
        iq = stream.iq.copy()
        iq[[137, 300]] = bad
        with pytest.raises(ValueError, match="non-finite sample at index 137 "):
            fir_lowpass(IqStream(iq=iq, rate=stream.rate), FirSpec(DEFAULT_FIR.cutoff, 31))

    def test_same_bytes_under_one_and_two_blas_threads(self):
        # 2**15 samples: 1020 rows per product, a GEMM large enough for
        # OpenBLAS to split across threads when it is given two
        script = (
            "import sys, numpy as np; from bolostat import DEFAULT_FIR, IqStream, fir_lowpass; "
            "rng = np.random.default_rng(5); "
            "iq = rng.standard_normal(2**15) + 1j * rng.standard_normal(2**15); "
            "sys.stdout.buffer.write(fir_lowpass(IqStream(iq=iq, rate=250e6), DEFAULT_FIR).iq.tobytes())"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
            )
            assert done.returncode == 0, done.stderr.decode()
            outputs.append(done.stdout)
        assert len(outputs[0]) == 16 * (2**15 - DEFAULT_FIR.n_taps + 1)
        assert outputs[0] == outputs[1]


class TestDecimate:
    def test_keeps_every_fourth_sample(self):
        stream = IqStream(iq=np.arange(16, dtype=complex), rate=FS)
        out = decimate(stream, 4)
        np.testing.assert_array_equal(out.iq, [0, 4, 8, 12])
        assert out.rate == FS / 4

    def test_sixteen_ns_period(self):
        stream = digital_downconvert(tone(), F_IF)
        out = decimate(stream, 4)
        assert 1.0 / out.rate == pytest.approx(16e-9)


class TestAverage:
    def test_identical_traces_average_to_themselves(self):
        stream = digital_downconvert(tone(noise=0.05, seed=1), F_IF)
        avg = average_traces([stream] * 7)
        np.testing.assert_allclose(avg.iq, stream.iq, rtol=1e-12)

    def test_accepts_generator(self):
        def gen():
            for k in range(3):
                yield digital_downconvert(tone(noise=0.1, seed=k), F_IF)

        avg3 = average_traces(gen())
        explicit = [digital_downconvert(tone(noise=0.1, seed=k), F_IF) for k in range(3)]
        np.testing.assert_allclose(avg3.iq, sum(s.iq for s in explicit) / 3, rtol=1e-12)

    def test_noise_rms_scales_inverse_sqrt(self):
        def avg_rms(n_rep, seed0):
            avg = average_traces(
                digital_downconvert(
                    synth_raw_trace(0.0, 0.0, F_IF, 1.0, DURATION, FS, seed0 + k), F_IF
                )
                for k in range(n_rep)
            )
            return np.sqrt(np.mean(np.abs(avg.iq) ** 2))

        r100 = avg_rms(100, 0)
        r1000 = avg_rms(1000, 1000)
        assert abs(r100 * np.sqrt(100) - 1.0) < 0.1
        assert abs(r1000 * np.sqrt(1000) - 1.0) < 0.1
        assert abs(r100 / r1000 / np.sqrt(10) - 1.0) < 0.1

    def test_mismatched_lengths_rejected(self):
        a = IqStream(iq=np.ones(10, dtype=complex), rate=1e6)
        b = IqStream(iq=np.ones(11, dtype=complex), rate=1e6)
        with pytest.raises(ValueError):
            average_traces([a, b])


def test_end_to_end_amplitude_and_phase_fidelity():
    # synth -> DDC -> FIR -> decimate -> average: 0.1% on a clean tone
    amp, theta = 0.8, -0.9

    def chain(seed):
        stream = digital_downconvert(tone(amp=amp, phase=theta, noise=0.0, seed=seed), F_IF)
        return decimate(fir_lowpass(stream, DEFAULT_FIR), 4)

    avg = average_traces(chain(seed) for seed in range(4))
    iq = avg.iq.mean()
    assert abs(abs(iq) / (amp / 2) - 1) < 1e-3
    assert abs(np.angle(iq) - theta) < 1e-3
