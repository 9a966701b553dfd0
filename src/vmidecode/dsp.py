"""Numeric kernels, one owner per signal rule: FFT, analytic signal,
zero-phase band-pass, decimation, Welch PSD and ERSP time-frequency maps.

Everything here is numpy; importing it loads no scipy. The FFT is numpy's
(pocketfft) behind an empty-input guard, checked against a naive DFT and
Parseval. The analytic signal doubles the one-sided rfft spectrum, which
gives scipy.signal.hilbert's bits. Welch and ERSP share one kernel, the
``rfft`` power of Hann-windowed frames. The band-pass designs scipy's order-4
Butterworth biquads in closed form and runs them forward and backward over a
reflect-padded series as one 4-state linear recurrence, solved BLOCK samples
at a time with GEMMs and a prefix scan over the blocks' states;
preprocess_recording runs byte-bounded blocks of channels on the shared
thread pool.
"""

import functools
from dataclasses import dataclass

import numpy as np

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
    """Analytic signal of a real series (last axis): the inverse FFT of its
    one-sided spectrum with the bins between DC and Nyquist doubled, the
    steps and bits of scipy.signal.hilbert.

    The real part equals the input; negative-frequency content is zero; the
    instantaneous phase is the complex argument of the output.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n < 4:
        raise RangeError("analytic_signal needs length >= 4")
    spectrum = np.zeros(x.shape, np.complex128)
    spectrum[..., :n // 2 + 1] = np.fft.rfft(x)
    spectrum[..., 1:(n + 1) // 2] *= 2
    return np.fft.ifft(spectrum)


# ---------------------------------------------------------------------------
# Filtering and decimation

def butter_bandpass_sos(lo_hz: float, hi_hz: float, fs: float) -> np.ndarray:
    """Order-4 Butterworth band-pass as a biquad cascade, the bits of
    scipy.signal.butter(2, [lo_hz, hi_hz], "bandpass", fs=fs, output="sos").

    scipy's steps in closed form: the order-2 analog prototype's poles moved
    to the band (lp2bp_zpk), the bilinear transform at fs = 2 (bilinear_zpk),
    and the "nearest" pairing of zpk2sos. Of the two conjugate pole pairs the
    one nearest the unit circle goes last, on a tie the one with the smaller
    real part, with the double zero (+1 or -1) nearest it; the other pair
    takes the other double zero, and section 0 carries the gain.
    """
    check("band", (lo_hz, hi_hz), BAND_RULE)
    if hi_hz >= fs / 2.0:
        raise RangeError(f"invalid band ({lo_hz}, {hi_hz}) Hz at fs={fs}")
    warped = 4.0 * np.tan(np.pi * (np.array([lo_hz, hi_hz], float)
                                   / (fs / 2)) / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    p_lp = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4) * bw / 2
    shift = np.sqrt(p_lp ** 2 - wo ** 2)
    p = np.concatenate((p_lp + shift, p_lp - shift))
    gain = bw ** 2 * (16.0 / np.prod(4.0 - p)).real
    p = (4.0 + p) / (4.0 - p)
    upper = np.sort_complex(p[p.imag > 0])
    if upper.size != 2:
        raise RangeError(f"band ({lo_hz}, {hi_hz}) Hz at fs={fs} has a real "
                         f"pole; raise its low edge")
    i = np.argmin(np.abs(1 - np.abs(upper)))
    to_zero = np.abs(np.array([-1.0, 1.0]) - upper[i])
    zero = 1.0 if to_zero[1] < to_zero[0] else -1.0
    sos = np.array([[1.0, 2 * zero, 1.0, 1.0, 0.0, 0.0],
                    [1.0, -2 * zero, 1.0, 1.0, 0.0, 0.0]])
    for row, q in zip(sos, (upper[1 - i], upper[i])):
        row[4:] = -2 * q.real, (q * q.conjugate()).real
    sos[0, :3] *= gain
    return sos


# samples per GEMM row of the band-pass kernel
BLOCK = 64


@dataclass(frozen=True)
class _BlockPlan:
    """One band's blocked band-pass: per direction, the block's zero-state
    response (Toeplitz), its end state from zero state and the response to a
    state at its start; and the transposed powers A^BLOCK, A^2BLOCK, ..."""

    forward: tuple      # toeplitz (BLOCK, BLOCK), end_state (BLOCK, 4),
                        # free (4, BLOCK)
    backward: tuple     # the same, for time run backward
    powers: tuple


def _rotation_section(row) -> tuple:
    """(A, B, C, D) of one long-double biquad with complex poles, A the
    rotation by its upper pole a + ib: [[a, -b], [b, a]], B = [1, 0]."""
    b0, b1, b2, _, a1, a2 = row
    re = -a1 / 2
    im = np.sqrt(a2 - re * re)
    c1 = b1 - b0 * a1
    return (np.array([[re, -im], [im, re]]), np.array([1, 0], np.longdouble),
            np.array([c1, (b2 - b0 * a2 + re * c1) / im]), b0)


@functools.lru_cache(maxsize=16)
def _bandpass_plan(lo_hz: float, hi_hz: float, fs: float) -> _BlockPlan:
    """The matrices of bandpass's kernel for one band: the two biquads of
    butter_bandpass_sos cascaded into one 4-state (A, B, C, D), built in long
    double and rounded once to float64. Each biquad's rounded coefficients
    must give a complex pole pair inside the unit circle."""
    sos = butter_bandpass_sos(lo_hz, hi_hz, fs).astype(np.longdouble)
    if not ((sos[:, 5] - sos[:, 4] ** 2 / 4 > 0) & (sos[:, 5] < 1)).all():
        raise RangeError(f"band ({lo_hz}, {hi_hz}) Hz at fs={fs} rounds to "
                         f"a pole on the real axis or the unit circle; "
                         f"raise its low edge")
    (a1, b1, c1, d1), (a2, b2, c2, d2) = map(_rotation_section, sos)
    a = np.block([[a1, np.zeros((2, 2), np.longdouble)],
                  [np.outer(b2, c1), a2]])
    b, c = np.concatenate((b1, b2 * d1)), np.concatenate((d2 * c1, c2))
    d = d2 * d1
    a_k_b, c_a_k = [b], [c]          # A^k B and C A^k, k < BLOCK
    for _ in range(BLOCK - 1):
        a_k_b.append(a @ a_k_b[-1])
        c_a_k.append(c_a_k[-1] @ a)
    impulse = np.concatenate(([d], [c @ v for v in a_k_b[:-1]]))
    toeplitz = np.zeros((BLOCK, BLOCK), np.longdouble)
    for i in range(BLOCK):
        toeplitz[i, i:] = impulse[:BLOCK - i]
    end_state = np.array(a_k_b[::-1])
    free = np.array(c_a_k).T
    step, powers = np.linalg.matrix_power(a, BLOCK), []
    for _ in range(40):             # 2^40 blocks: more than any series holds
        powers.append(step.T)
        step = step @ step

    def frozen(m):
        m = np.ascontiguousarray(m, np.float64)
        m.setflags(write=False)
        return m
    return _BlockPlan(
        tuple(map(frozen, (toeplitz, end_state, free))),
        tuple(map(frozen, (toeplitz[::-1, ::-1], end_state[::-1],
                           free[:, ::-1]))),
        tuple(map(frozen, powers)))


def _run_blocks(plan: _BlockPlan, u, y, backward: bool) -> None:
    """y = the cascade run from zero state over u, (rows, blocks, BLOCK), in
    time order or against it. Each block's zero-state response and end state
    are GEMMs; a doubling scan adds in the end states of the blocks before it
    (d blocks back by A^(d BLOCK)), and each block adds the response to the
    state it starts from."""
    toeplitz, end_state, free = plan.backward if backward else plan.forward
    np.matmul(u, toeplitz, out=y)
    state = u @ end_state
    for k, power in enumerate(plan.powers):
        if 1 << k >= u.shape[1]:
            break
        later, earlier = _blocks_apart(1 << k, backward)
        state[:, later] += state[:, earlier] @ power
    later, earlier = _blocks_apart(1, backward)
    y[:, later] += state[:, earlier] @ free


def _blocks_apart(d: int, backward: bool) -> tuple:
    """Block-axis slices (later, earlier): the blocks d or more into the pass
    and the blocks d before them, in the pass's time order."""
    later, earlier = slice(d, None), slice(None, -d)
    return (earlier, later) if backward else (later, earlier)


def _zero_phase(plan: _BlockPlan, u: np.ndarray, n: int) -> np.ndarray:
    """The first n samples of u's last axis run through plan's cascade
    forward, then backward. u is float64 and contiguous, holds whole BLOCKs
    and zeros past n; the result overwrites it."""
    shape = u.shape
    u = u.reshape(-1, shape[-1] // BLOCK, BLOCK)
    y = np.empty_like(u)
    _run_blocks(plan, u, y, backward=False)
    y.reshape(len(y), -1)[:, n:] = 0    # the backward pass starts at rest
    _run_blocks(plan, y, u, backward=True)
    return u.reshape(shape)


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
    plan = _bandpass_plan(lo_hz, hi_hz, fs)
    p = min(12, n - 1)
    m = n + 2 * p
    # x[j] is padded[p + j]; each end is reflected through its sample
    padded = np.empty(x.shape[:-1] + (-(-m // BLOCK) * BLOCK,))
    padded[..., p:p + n] = x
    padded[..., :p] = 2 * padded[..., p:p + 1] - padded[..., 2 * p:p:-1]
    padded[..., p + n:m] = (2 * padded[..., p + n - 1:p + n]
                            - padded[..., p + n - 2:n - 2:-1])
    padded[..., m:] = 0
    return _zero_phase(plan, padded, m)[..., p:p + n]


def bandpass_response(lo_hz, hi_hz, fs, f_eval):
    """|H(f)|^2 of the zero-phase band-pass (independent of the filter path).

    The product of the biquads' transfer functions at z^-1 = exp(-2j pi f /
    fs); the forward-backward pass squares its magnitude.
    """
    sos = butter_bandpass_sos(lo_hz, hi_hz, fs)
    f = np.atleast_1d(np.asarray(f_eval, float))
    z = np.exp(-2j * np.pi * f / fs)
    h = np.ones_like(z)
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + z * (b1 + z * b2)) / (a0 + z * (a1 + z * a2))
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
    # bandpass holds two float64 copies of its rows; blocks sized by one
    # copy held two 170 000-sample rows and ran 1.5x slower
    ordered_map(filter_rows, row_blocks(rec.n_channels, 16 * rec.n_samples))
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
