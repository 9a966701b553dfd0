"""Paired t-statistics and the nonparametric paired permutation test.

The permutation scheme is sign flipping of pair differences (the standard
exchangeability argument for paired designs). Small designs with
2^n <= n_perm are enumerated exhaustively; otherwise Monte Carlo flips are
drawn and the add-one estimator p = (1 + B) / (1 + n_perm) keeps p-values
valid (never zero).
"""

from dataclasses import dataclass

import numpy as np

from .core import EpochSet, Montage
from .dsp import _welch_batch
from .errors import DegenerateInputError, RangeError, ShapeError
from .seeding import child_rng


def band_power(epochs: EpochSet, band_hz) -> np.ndarray:
    """Per-trial, per-channel signal power integrated over a frequency band.

    Integrates the Welch PSD (Hann, 1 s segments or the whole epoch if
    shorter, 50% overlap) over [lo, hi); returns a trials x channels matrix
    in microvolts^2.
    """
    lo, hi = band_hz
    fs = epochs.fs
    if not 0.0 <= lo < hi <= fs / 2.0:
        raise RangeError(f"band ({lo}, {hi}) outside [0, {fs / 2}]")
    seg_len = min(int(fs), epochs.n_samples)
    x = np.asarray(epochs.tensor, dtype=np.float64)
    freqs, pxx = _welch_batch(x, fs, seg_len)
    df = freqs[1] - freqs[0]
    mask = (freqs >= lo) & (freqs < hi)
    return pxx[..., mask].sum(axis=-1) * df


def _finite_pair(a, b, what: str):
    """Both samples as float64 arrays of one shape, all values finite.

    A NaN difference makes every ``t_perm >= t_obs`` comparison false, so the
    add-one estimator would report its minimum p as if the effect were
    strong; non-finite input is refused instead.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"{what} inputs must have equal length")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DegenerateInputError(f"{what} input contains NaN or Inf")
    return a, b


def _t_from_diffs(d: np.ndarray) -> np.ndarray:
    """Paired t along the last axis; +/-inf when the sd is zero but mean is not."""
    n = d.shape[-1]
    mean = d.mean(axis=-1)
    sd = d.std(axis=-1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = mean / (sd / np.sqrt(n))
    zero_sd = sd == 0
    t = np.where(zero_sd & (mean > 0), np.inf, t)
    t = np.where(zero_sd & (mean < 0), -np.inf, t)
    t = np.where(zero_sd & (mean == 0), 0.0, t)
    return t


def paired_t(a, b) -> float:
    """Paired-sample t statistic: mean(a-b) / (sd(a-b) / sqrt(n)), ddof=1.

    NaN or Inf input raises DegenerateInputError.
    """
    a, b = _finite_pair(a, b, "paired_t")
    if a.size < 2:
        raise RangeError("paired_t needs n >= 2")
    return float(_t_from_diffs(a - b))


def permutation_test(a, b, n_perm: int = 10000, seed: int = 0,
                     rng: np.random.Generator = None) -> float:
    """Two-sided p-value of the paired sign-flip permutation test.

    Exhaustive over all 2^n sign patterns when 2^n <= n_perm (p is the exact
    exceedance fraction, identity flip included); Monte Carlo with the
    add-one estimator otherwise. NaN or Inf input raises
    DegenerateInputError.
    """
    a, b = _finite_pair(a, b, "permutation_test")
    if n_perm < 1:
        raise RangeError("n_perm must be >= 1")
    d = a - b
    n = d.size
    t_obs = abs(_t_from_diffs(d))
    if 2 ** n <= n_perm:
        patterns = np.arange(2 ** n)[:, None] >> np.arange(n) & 1
        signs = 1.0 - 2.0 * patterns
        t_perm = np.abs(_t_from_diffs(d * signs))
        return float(np.count_nonzero(t_perm >= t_obs) / 2 ** n)
    if rng is None:
        rng = child_rng(seed, "perm")
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=(n_perm, n))
    t_perm = np.abs(_t_from_diffs(d * signs))
    exceed = int(np.count_nonzero(t_perm >= t_obs))
    return float((1 + exceed) / (1 + n_perm))


@dataclass
class StatMap:
    """Per-channel imagery-vs-rest contrast: t, permutation p, significance."""

    t_values: np.ndarray
    p_values: np.ndarray
    alpha: float = 0.01
    montage: Montage = None

    @property
    def significant(self) -> np.ndarray:
        return self.p_values <= self.alpha

    def to_csv(self, path) -> None:
        rows = ["channel,t,p,significant"]
        for i, (t, p, s) in enumerate(
                zip(self.t_values, self.p_values, self.significant)):
            name = (self.montage.channel_names[i]
                    if self.montage is not None else f"ch{i}")
            rows.append(f"{name},{t:.6g},{p:.6g},{int(s)}")
        with open(path, "w") as f:
            f.write("\n".join(rows) + "\n")


def stat_map(imagery: EpochSet, rest: EpochSet, band=(0.5, 13.0),
             n_perm: int = 10000, seed: int = 0, alpha: float = 0.01) -> StatMap:
    """Band-power contrast of paired imagery and rest epochs, per channel.

    Trials are paired by index; each channel's permutation test draws its
    RNG stream from (seed, channel), so results do not depend on execution
    order.
    """
    if imagery.n_trials != rest.n_trials:
        raise ShapeError("imagery and rest must have equal trial counts")
    if imagery.n_channels != rest.n_channels:
        raise ShapeError("imagery and rest must share channels")
    bp_i = band_power(imagery, band)
    bp_r = band_power(rest, band)
    n_ch = imagery.n_channels
    t_values = np.empty(n_ch)
    p_values = np.empty(n_ch)
    for ch in range(n_ch):
        t_values[ch] = paired_t(bp_i[:, ch], bp_r[:, ch])
        p_values[ch] = permutation_test(
            bp_i[:, ch], bp_r[:, ch], n_perm=n_perm,
            rng=child_rng(seed, "statmap", ch))
    return StatMap(t_values, p_values, alpha=alpha, montage=imagery.montage)
