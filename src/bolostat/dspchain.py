"""Synthetic digitizer chain: tone synthesis, digital down-conversion,
FIR low-pass filtering, decimation, and multi-trace averaging.

Mirrors a room-temperature readout chain sampling at 250 Msps with a
62.5 MHz intermediate frequency, a 500 kHz low-pass FIR before averaging,
and one retained IQ point per 16 ns (decimation by 4).

What does not depend on the trace -- the unit tone, the local oscillator
and the FIR taps -- is computed once per key and held, read-only, in
two-entry caches: a run of repeated traces reuses it, and no cached array
is ever handed to a caller.
"""

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RawTrace",
    "IqStream",
    "FirSpec",
    "DEFAULT_FIR",
    "synth_raw_trace",
    "digital_downconvert",
    "design_taps",
    "fir_lowpass",
    "group_delay_samples",
    "decimate",
    "average_traces",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RawTrace:
    """Real digitizer samples at rate fs (Hz), starting at time t0 (s)."""

    samples: np.ndarray
    fs: float
    t0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if not self.fs > 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")


@dataclass(frozen=True)
class IqStream:
    """Complex baseband samples at the given rate (Hz)."""

    iq: np.ndarray
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "iq", np.asarray(self.iq, dtype=complex))
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.iq.ndim != 1:
            raise ValueError("iq must be one-dimensional")

    def __len__(self):
        return self.iq.size


@dataclass(frozen=True)
class FirSpec:
    """Windowed-sinc low-pass design: cutoff (Hz), odd tap count, window name.

    The taps are generated for the rate of the stream the filter is applied
    to; cutoff must stay below that Nyquist frequency.
    """

    cutoff: float
    n_taps: int = 129
    window: str = "blackman"

    def __post_init__(self):
        if not self.cutoff > 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if self.n_taps < 3 or self.n_taps % 2 == 0:
            raise ValueError(f"n_taps must be odd and >= 3, got {self.n_taps}")


# 500 kHz cutoff, 129 taps: >= 60 dB stopband at the 62.5 Msps IQ rate
DEFAULT_FIR = FirSpec(cutoff=500e3)

_WINDOWS = {
    "blackman": np.blackman,
    "hamming": np.hamming,
    "hann": np.hanning,
    "rect": np.ones,
}


def _read_only(a):
    a.flags.writeable = False
    return a


# maxsize 2: a run of repeated traces uses one key per cache; a larger cache
# only holds stale trace-length arrays (a 16-entry tone cache keeps one per
# tone of a 16-tone schedule and grows peak RSS)
@lru_cache(maxsize=2)
def _unit_tone(phase, f_if, n, fs):
    # cos(2 pi f_if t + phase); amp stays outside the key, so amp * tone is
    # the uncached product bit for bit, signed zeros included
    t = np.arange(n) / fs
    return _read_only(np.cos(2.0 * np.pi * f_if * t + phase))


@lru_cache(maxsize=2)
def _local_oscillator(n, fs, f_if, t0):
    t = t0 + np.arange(n) / fs
    return _read_only(np.exp(-2j * np.pi * f_if * t))


@lru_cache(maxsize=2)
def _cached_taps(spec, rate):
    return _read_only(design_taps(spec, rate))


def synth_raw_trace(amp, phase, f_if, noise_rms, duration, fs, seed):
    """Cosine tone plus white Gaussian noise, Philox-seeded.

    samples = amp*cos(2*pi*f_if*t + phase) + N(0, noise_rms^2)

    The tone must satisfy f_if < fs/2 (no aliased synthesis).  Identical
    seeds give identical traces.
    """
    if not f_if < fs / 2:
        raise ValueError(f"aliasing: f_if={f_if} must be below fs/2={fs / 2}")
    n = int(round(duration * fs))
    if n < 1:
        raise ValueError("duration too short for one sample")
    samples = amp * _unit_tone(phase, f_if, n, fs)
    if noise_rms > 0:
        rng = np.random.Generator(np.random.Philox(seed))
        samples += rng.normal(0.0, noise_rms, n)
    return RawTrace(samples=samples, fs=fs)


def digital_downconvert(trace, f_if):
    """Mix a real trace with exp(-i*2*pi*f_if*t): complex baseband, source rate.

    One IQ point per input sample; the image of a real tone lands at
    -2*f_if and is left for the low-pass stage to remove.
    """
    if not f_if < trace.fs / 2:
        raise ValueError(f"aliasing: f_if={f_if} must be below fs/2={trace.fs / 2}")
    lo = _local_oscillator(trace.samples.size, trace.fs, f_if, trace.t0)
    return IqStream(iq=trace.samples * lo, rate=trace.fs)


def design_taps(spec, rate):
    """Symmetric windowed-sinc taps for the given sample rate, DC gain 1."""
    if not spec.cutoff < rate / 2:
        raise ValueError(
            f"cutoff {spec.cutoff} must be below the Nyquist frequency {rate / 2}"
        )
    try:
        window = _WINDOWS[spec.window](spec.n_taps)
    except KeyError:
        raise ValueError(
            f"unknown window {spec.window!r}; choose one of {sorted(_WINDOWS)}"
        ) from None
    m = (spec.n_taps - 1) // 2
    k = np.arange(spec.n_taps) - m
    taps = np.sinc(2.0 * spec.cutoff / rate * k) * window
    return taps / taps.sum()


def group_delay_samples(spec):
    """Group delay of the linear-phase design, in samples: (n_taps - 1)/2."""
    return (spec.n_taps - 1) // 2


def fir_lowpass(stream, spec):
    """Linear-phase FIR low-pass; start-up/tail transients are trimmed.

    The output holds only steady-state samples ('valid' convolution), i.e.
    (n_taps - 1) samples fewer than the input; the group delay
    (n_taps - 1)/2 is logged for alignment bookkeeping.
    """
    if len(stream) < spec.n_taps:
        raise ValueError(
            f"stream of {len(stream)} samples is shorter than {spec.n_taps} taps"
        )
    taps = _cached_taps(spec, stream.rate)
    # real taps: two real convolutions, not one complex x complex
    filtered = np.empty(len(stream) - spec.n_taps + 1, dtype=complex)
    filtered.real = np.convolve(stream.iq.real, taps, mode="valid")
    filtered.imag = np.convolve(stream.iq.imag, taps, mode="valid")
    log.debug(
        "fir_lowpass: cutoff=%g Hz, %d taps, group delay %d samples trimmed",
        spec.cutoff,
        spec.n_taps,
        group_delay_samples(spec),
    )
    return IqStream(iq=filtered, rate=stream.rate)


def decimate(stream, factor):
    """Keep every factor-th sample (no extra filtering)."""
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"decimation factor must be a positive integer, got {factor}")
    return IqStream(iq=stream.iq[:: int(factor)], rate=stream.rate / factor)


def average_traces(streams, n_rep=None):
    """Pointwise complex mean over repeated traces.

    Accepts any iterable of IqStream (a generator works: traces are
    accumulated one at a time in a fixed order).  ``n_rep`` limits/validates
    the number of traces consumed; by default every supplied trace is used.
    """
    it = iter(streams)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("no traces to average") from None
    acc = np.array(first.iq, dtype=complex)
    rate = first.rate
    length = len(first)
    count = 1
    for stream in it:
        if n_rep is not None and count >= n_rep:
            break
        if len(stream) != length:
            raise ValueError(
                f"mismatched trace lengths: {len(stream)} vs {length}"
            )
        if stream.rate != rate:
            raise ValueError(f"mismatched rates: {stream.rate} vs {rate}")
        acc += stream.iq
        count += 1
    if n_rep is not None and count != n_rep:
        raise ValueError(f"requested {n_rep} traces but only {count} supplied")
    return IqStream(iq=acc / count, rate=rate)
