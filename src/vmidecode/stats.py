"""Paired t-statistics and the nonparametric paired permutation test.

The permutation scheme is sign flipping of pair differences (the standard
exchangeability argument for paired designs). Small designs with
2^n <= n_perm are enumerated exhaustively; otherwise Monte Carlo flips are
drawn and the add-one estimator p = (1 + B) / (1 + n_perm) keeps p-values
valid (never zero). band_power (byte-bounded blocks of trials) and
stat_map (one test per channel) run on the shared thread pool.
"""

from dataclasses import dataclass

import numpy as np

from .core import EpochSet, Montage
from .dsp import _welch_batch
from .errors import (DegenerateInputError, RangeError, ShapeError, check,
                     integer, number, pair)
from .io import write_text
from .pool import ordered_map, row_blocks
from .seeding import child_rng

N_PERM = 10000  # permutation_test's and stat_map's draw count
# band_power's band, permutation_test's n_perm and stat_map's alpha
STAT_RULES = {"band": pair(0), "n_perm": integer(1),
              "alpha": (lambda v: number(v) and 0 < v < 1, "a number in (0, 1)")}


def band_power(epochs: EpochSet, band_hz) -> np.ndarray:
    """Per-trial, per-channel signal power integrated over a frequency band.

    Integrates the Welch PSD (Hann, 1 s segments or the whole epoch if
    shorter, 50% overlap) over [lo, hi); returns a trials x channels matrix
    in microvolts^2.
    """
    check("band", band_hz, STAT_RULES["band"])
    lo, hi = band_hz
    fs = epochs.fs
    if hi > fs / 2.0:
        raise RangeError(f"band ({lo}, {hi}) outside [0, {fs / 2}]")

    def block_power(trials):
        x = np.asarray(epochs.tensor[trials], dtype=np.float64)
        freqs, pxx = _welch_batch(x, fs)
        df = freqs[1] - freqs[0]
        mask = (freqs >= lo) & (freqs < hi)
        if not mask.any():
            raise RangeError(f"band [{lo}, {hi}) Hz holds no Welch bin; the "
                             f"bins are {df:g} Hz apart")
        return pxx[..., mask].sum(axis=-1) * df
    # a trial's Welch frames overlap by half and their rfft is complex
    return np.concatenate(ordered_map(block_power, row_blocks(
        epochs.n_trials, 16 * epochs.n_channels * epochs.n_samples)))


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
        t = mean / (sd / np.sqrt(n))  # mean / +0.0 is +/-inf
    return np.where((sd == 0) & (mean == 0), 0.0, t)


def paired_t(a, b) -> float:
    """Paired-sample t statistic: mean(a-b) / (sd(a-b) / sqrt(n)), ddof=1.

    NaN or Inf input raises DegenerateInputError.
    """
    a, b = _finite_pair(a, b, "paired_t")
    if a.size < 2:
        raise RangeError("paired_t needs n >= 2")
    return float(_t_from_diffs(a - b))


def permutation_test(a, b, n_perm: int = N_PERM,
                     rng: np.random.Generator = None) -> float:
    """Two-sided p-value of the paired sign-flip permutation test.

    Exhaustive over all 2^n sign patterns when 2^n <= n_perm (p is the exact
    exceedance fraction, identity flip included); Monte Carlo with the
    add-one estimator otherwise, drawing the flips from rng (default
    child_rng(0, "perm")). NaN or Inf input raises DegenerateInputError.
    """
    a, b = _finite_pair(a, b, "permutation_test")
    check("n_perm", n_perm, STAT_RULES["n_perm"])
    d = a - b
    n = d.size
    t_obs = abs(_t_from_diffs(d))
    if 2 ** n <= n_perm:
        patterns = np.arange(2 ** n)[:, None] >> np.arange(n) & 1
        signs = 1.0 - 2.0 * patterns
        t_perm = np.abs(_t_from_diffs(d * signs))
        return float(np.count_nonzero(t_perm >= t_obs) / 2 ** n)
    if rng is None:
        rng = child_rng(0, "perm")
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=(n_perm, n))
    t_perm = np.abs(_t_from_diffs(d * signs))
    exceed = int(np.count_nonzero(t_perm >= t_obs))
    return float((1 + exceed) / (1 + n_perm))


@dataclass
class StatMap:
    """Per-channel imagery-vs-rest contrast: t, permutation p, significance."""

    t_values: np.ndarray
    p_values: np.ndarray
    montage: Montage
    alpha: float

    @property
    def significant(self) -> np.ndarray:
        return self.p_values <= self.alpha

    def to_csv(self, path) -> None:
        rows = ["channel,t,p,significant"]
        for name, t, p, s in zip(self.montage.channel_names, self.t_values,
                                 self.p_values, self.significant):
            rows.append(f"{name},{t:.6g},{p:.6g},{int(s)}")
        write_text(path, "\n".join(rows) + "\n")


def stat_map(imagery: EpochSet, rest: EpochSet, band=(0.5, 13.0),
             n_perm: int = N_PERM, seed: int = 0,
             alpha: float = 0.01) -> StatMap:
    """Band-power contrast of paired imagery and rest epochs, per channel.

    Trials are paired by index; each channel's permutation test draws its
    RNG stream from (seed, channel), so results do not depend on execution
    order.
    """
    check("alpha", alpha, STAT_RULES["alpha"])
    if imagery.n_trials != rest.n_trials:
        raise ShapeError("imagery and rest must have equal trial counts")
    if imagery.n_channels != rest.n_channels:
        raise ShapeError("imagery and rest must share channels")
    bp_i = band_power(imagery, band)
    bp_r = band_power(rest, band)

    def test(ch):
        a, b = _finite_pair(bp_i[:, ch], bp_r[:, ch], "stat_map channel "
                            f"{imagery.montage.channel_names[ch]}")
        return paired_t(a, b), permutation_test(
            a, b, n_perm=n_perm, rng=child_rng(seed, "statmap", ch))
    t_values, p_values = map(np.array, zip(
        *ordered_map(test, range(imagery.n_channels))))
    return StatMap(t_values, p_values, alpha=alpha, montage=imagery.montage)
