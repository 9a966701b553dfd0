"""Numeric kernels, one owner per signal rule: FFT, analytic signal,
zero-phase band-pass, decimation, Welch PSD and ERSP time-frequency maps.

The FFT is numpy's (pocketfft) behind an empty-input guard, checked against
a naive DFT and Parseval; the analytic signal is scipy's Hilbert transform
behind a length guard. Welch and ERSP share one kernel, the ``rfft`` power
of Hann-windowed frames. The band-pass runs scipy-designed Butterworth
biquads forward and backward over a reflect-padded series;
preprocess_recording runs byte-bounded blocks of channels on the shared
thread pool.
"""

from dataclasses import dataclass

import numpy as np
import scipy.signal as sps

from .core import EegRecording, EpochSet, TrialTimeline
from .errors import EmptyInputError, RangeError, check, integer, pair
from .io import write_text
from .pool import ordered_map, row_blocks

# the rules of butter_bandpass_sos', decimation_factor's and ersp's arguments
BAND_RULE = (lambda v: pair(0)[0](v) and v[0] > 0, "[a, b] with 0 < a < b")
FACTOR_RULE = (lambda v: v is None or integer(1)[0](v),
               "null or an integer >= 1")
ERSP_RULES = {"baseline_ms": TrialTimeline.window_rules["rest"],
              "f_range": pair(0)}

# ---------------------------------------------------------------------------
# FFT

def fft(x) -> np.ndarray:
    """Discrete Fourier transform along the last axis, any length >= 1."""
    x = np.asarray(x)
    if x.size == 0 or x.shape[-1] == 0:
        raise EmptyInputError("fft of empty input")
    return np.fft.fft(x.astype(np.complex128))


def analytic_signal(x) -> np.ndarray:
    """Analytic signal of a real series (last axis), by scipy.signal.hilbert.

    The real part equals the input; negative-frequency content is zero; the
    instantaneous phase is the complex argument of the output.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 4:
        raise RangeError("analytic_signal needs length >= 4")
    return sps.hilbert(x)


# ---------------------------------------------------------------------------
# Filtering and decimation

def butter_bandpass_sos(lo_hz: float, hi_hz: float, fs: float) -> np.ndarray:
    """Order-4 Butterworth band-pass as a biquad cascade."""
    check("band", (lo_hz, hi_hz), BAND_RULE)
    if hi_hz >= fs / 2.0:
        raise RangeError(f"invalid band ({lo_hz}, {hi_hz}) Hz at fs={fs}")
    return sps.butter(2, [lo_hz, hi_hz], btype="bandpass", fs=fs,
                      output="sos")


def bandpass(x, lo_hz: float, hi_hz: float, fs: float):
    """Zero-phase order-4 Butterworth band-pass along the last axis.

    Applied forward then backward, so the effective magnitude response is
    the squared response of the underlying cascade and the phase is zero.
    Edges are handled by reflect-padding 3x the filter order.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n == 0:
        raise EmptyInputError("bandpass of empty input")
    sos = butter_bandpass_sos(lo_hz, hi_hz, fs)
    p = min(12, n - 1)
    # x[j] is padded[p + j]; each end is reflected through its sample
    padded = np.empty(x.shape[:-1] + (n + 2 * p,))
    padded[..., p:p + n] = x
    padded[..., :p] = 2 * padded[..., p:p + 1] - padded[..., 2 * p:p:-1]
    padded[..., p + n:] = (2 * padded[..., p + n - 1:p + n]
                           - padded[..., p + n - 2:n - 2:-1])
    y = sps.sosfilt(sos, padded, axis=-1)
    y = sps.sosfilt(sos, y[..., ::-1], axis=-1)[..., ::-1]
    return y[..., p:p + n]


def bandpass_response(lo_hz, hi_hz, fs, f_eval):
    """|H(f)|^2 of the zero-phase band-pass (independent of the filter path).

    The cascade's frequency response at f_eval; the forward-backward pass
    squares its magnitude.
    """
    sos = butter_bandpass_sos(lo_hz, hi_hz, fs)
    f = np.atleast_1d(np.asarray(f_eval, float))
    _, h = sps.sosfreqz(sos, worN=f, fs=fs)
    return np.abs(h) ** 2


def downsample(x, factor: int):
    """Keep every factor-th sample along the last axis.

    There is no anti-alias filter: the caller must have band-limited the
    signal below the new Nyquist (the pipeline calls this after the
    0.5-13 Hz band-pass).
    """
    check("factor", factor, integer(1))
    x = np.asarray(x)
    return x[..., ::factor]


def decimation_factor(fs: int, factor) -> int:
    """factor, or max(1, fs // 250) when it is None: the largest factor that
    keeps 250 Hz or more. A factor must pass FACTOR_RULE and divide fs, as a
    recording states its rate as fs // factor; any other is a RangeError."""
    check("factor", factor, FACTOR_RULE)
    auto = factor is None
    factor = max(1, int(fs) // 250) if auto else factor
    if fs % factor:
        raise RangeError(f"{'auto ' if auto else ''}decimation factor "
                         f"{factor!r} must be an int >= 1 dividing fs={fs}")
    return factor


def preprocess_recording(rec: EegRecording, band=(0.5, 13.0),
                         factor: int = None) -> EegRecording:
    """Band-pass every channel and decimate by decimation_factor(rec.fs,
    factor) into one float32 array; event indices are rescaled."""
    check("band", band, BAND_RULE)
    factor = decimation_factor(rec.fs, factor)
    data = np.empty((rec.n_channels, -(-rec.n_samples // factor)), np.float32)

    def filter_rows(rows):
        data[rows] = downsample(bandpass(rec.data[rows], *band, rec.fs), factor)
    ordered_map(filter_rows, row_blocks(rec.n_channels, 8 * rec.n_samples))
    events = [(s // factor, l) for s, l in rec.events]
    return EegRecording(rec.montage, rec.fs // factor, data, events)


# ---------------------------------------------------------------------------
# Spectral estimation

def _hann_frame_power(x: np.ndarray, n_win: int, hop: int) -> np.ndarray:
    """|rfft|^2 of Hann-windowed frames of n_win samples, hop apart, along
    the last axis: shaped like x without it, plus frame and frequency axes."""
    frames = np.lib.stride_tricks.sliding_window_view(x, n_win, axis=-1)
    return np.abs(np.fft.rfft(frames[..., ::hop, :] * np.hanning(n_win))) ** 2


@dataclass
class Spectrum:
    """One-sided power spectral density, microvolts^2 per Hz."""

    freqs_hz: np.ndarray
    power: np.ndarray

    def to_csv(self, path) -> None:
        rows = ["frequency_hz,power"]
        rows += [f"{f:.6g},{p:.10g}" for f, p in zip(self.freqs_hz, self.power)]
        write_text(path, "\n".join(rows) + "\n")


def _welch_batch(x: np.ndarray, fs: float, seg_len: int = None):
    """Averaged Hann-windowed periodograms, 50% overlap, over the last axis.

    Returns (freqs, psd) with psd shaped like x without the last axis plus a
    frequency axis. Density scaling: integrating over [0, fs/2] recovers the
    series variance.
    """
    n = x.shape[-1]
    if seg_len is None:
        seg_len = min(int(fs), n)  # 1 s segments, or the whole series
    if seg_len > n:
        raise RangeError(f"segment length {seg_len} exceeds series length {n}")
    if seg_len < 3:  # a Hann window of 2 samples is all zeros
        raise RangeError(f"Welch segments need 3 samples, got {seg_len}")
    hop = max(1, int(round(seg_len * 0.5)))
    u = (np.hanning(seg_len) ** 2).sum()
    pxx = _hann_frame_power(x, seg_len, hop).mean(axis=-2) / (fs * u)
    pxx[..., 1:] *= 2.0
    if seg_len % 2 == 0:
        pxx[..., -1] /= 2.0
    freqs = np.arange(seg_len // 2 + 1) * fs / seg_len
    return freqs, pxx


def welch_psd(x, fs: float, seg_len: int = None) -> Spectrum:
    """Welch PSD of a single real series (Hann window, 50% overlap)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise RangeError("welch_psd expects a 1-D series")
    freqs, pxx = _welch_batch(x, fs, seg_len)
    return Spectrum(freqs, pxx)


# ---------------------------------------------------------------------------
# ERSP

@dataclass
class TfMap:
    """Time-frequency map of dB power change versus a pre-onset baseline."""

    freqs_hz: np.ndarray
    times_ms: np.ndarray
    values: np.ndarray  # |freqs| x |times|

    def to_csv(self, path) -> None:
        head = "frequency_hz," + ",".join(f"{t:.4g}" for t in self.times_ms)
        rows = [head]
        for f, row in zip(self.freqs_hz, self.values):
            rows.append(f"{f:.6g}," + ",".join(f"{v:.6g}" for v in row))
        write_text(path, "\n".join(rows) + "\n")


def ersp(epochs: EpochSet, channel: int, baseline_ms=(-500, 0),
         f_range=(3, 50)) -> TfMap:
    """Event-related spectral perturbation of one channel (an index).

    Short-time FFT with a Hann window; trial-averaged power is referenced to
    the mean power over the baseline window and expressed in dB; the time
    axis is linearly resampled to exactly 400 points spanning the
    post-onset part of the epoch.
    """
    n_ch = epochs.n_channels
    check("channel", channel, (lambda v: integer(0)[0](v) and v < n_ch,
                               f"an integer in [0, {n_ch})"))
    check("baseline_ms", baseline_ms, ERSP_RULES["baseline_ms"])
    check("f_range", f_range, ERSP_RULES["f_range"])
    fs = epochs.fs
    t0 = epochs.t0_ms
    if t0 > baseline_ms[0]:
        raise RangeError(f"epochs start at {t0} ms, baseline needs "
                         f"{baseline_ms[0]} ms")
    n = epochs.n_samples
    n_times = 400
    win = min(256, n)
    hop = max(1, (n - win) // (2 * n_times))
    starts = np.arange(0, n - win + 1, hop)
    centers_ms = (starts + win / 2.0) / fs * 1000.0 + t0
    freqs_all = np.arange(win // 2 + 1) * fs / win
    f_keep = (freqs_all >= f_range[0]) & (freqs_all <= f_range[1])
    if not f_keep.any():
        raise RangeError(f"f_range {list(f_range)} Hz holds no STFT bin; the "
                         f"bins are {fs / win:g} Hz apart")
    freqs = freqs_all[f_keep]
    # baseline membership goes by frame start: with a 256-sample window at
    # 250 Hz no frame *center* can precede onset inside a 500 ms baseline
    starts_ms = starts / fs * 1000.0 + t0
    base_mask = (starts_ms >= baseline_ms[0]) & (starts_ms < baseline_ms[1])
    if not base_mask.any():
        raise RangeError("no STFT frames fall inside the baseline window")
    end_ms = t0 + n / fs * 1000.0
    times_out = np.linspace(max(0.0, centers_ms[0]), end_ms, n_times)

    x = np.asarray(epochs.tensor[:, channel, :], dtype=np.float64)
    mean_power = _hann_frame_power(x, win, hop).mean(axis=0)[:, f_keep]
    baseline = mean_power[base_mask].mean(axis=0)       # per frequency
    db = 10.0 * np.log10(mean_power / baseline)
    values = np.array([np.interp(times_out, centers_ms, column)
                       for column in db.T])
    return TfMap(freqs, times_out, values)
