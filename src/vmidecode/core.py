"""Domain types, trial timeline, epoching and the synthetic-EEG generator.

Amplitudes are microvolts throughout. Recordings are synthesized at 250 Hz
(SynthSpec.fs); preprocessing keeps that rate and by default decimates a
faster recording by fs // 250. All types are immutable by convention after
construction; every operation here is pure given its seed.
synth_dataset fills its trials, one RNG stream each, on the shared pool, in
blocks of trials that reuse one trial's workspaces.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (POSITIVE, DegenerateInputError, EmptyInputError,
                     RangeError, ShapeError, check, integer, list_of,
                     nonempty_str, number, pair)
from .pool import ordered_map, row_blocks
from .seeding import child_rng

# 64-electrode cap, 10/20 international system, in recording order.
DEFAULT_CHANNELS = (
    "Fp1", "Fp2", "AF3", "AF4", "AF7", "AF8", "AFz",
    "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "Fz",
    "FC1", "FC2", "FC3", "FC4", "FC5", "FC6",
    "FT7", "FT8", "FT9", "FT10",
    "C1", "C2", "C3", "C4", "C5", "C6", "Cz",
    "T7", "T8",
    "CP1", "CP2", "CP3", "CP4", "CP5", "CP6", "CPz",
    "TP7", "TP8", "TP9", "TP10",
    "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "Pz",
    "PO3", "PO4", "PO7", "PO8", "POz",
    "O1", "O2", "Oz", "Iz",
)

CLASS_NAMES = ("phone", "door", "eat", "pour")
# a name is one CSV field as written, unquoted
CHANNEL_NAME = (lambda v: isinstance(v, str) and v != ""
                and not set(v) & set(',"\r\n'),
                "a non-empty string without a comma, quote or line break")
# Montage's channel_names
CHANNELS_RULE = (lambda v: list_of(CHANNEL_NAME[0])(v)
                 and len(set(v)) == len(v),
                 "a non-empty list of distinct channel names")
# SynthSpec's value rules, and those of each class's value in its dicts
SYNTH_RULES = {"n_trials_per_class": integer(1), "fs": integer(1),
               "coupling": (lambda v: number(v) and 0 < v <= 1,
                            "a number in (0, 1]"),
               "snr_db": (number, "a finite number")}
CLASS_RULES = {"planted_channels": (list_of(nonempty_str),
                                    "a non-empty list of channel names"),
               "carrier_hz": POSITIVE}


@dataclass(frozen=True)
class Montage:
    """Ordered electrode labels; indices everywhere refer to this order."""

    channel_names: tuple

    def __post_init__(self):
        names = self.channel_names
        for n in names if type(names) in (list, tuple) else ():
            check("channel name", n, CHANNEL_NAME)
        check("channel_names", names, CHANNELS_RULE)
        object.__setattr__(self, "channel_names", tuple(names))

    @classmethod
    def default(cls) -> "Montage":
        return cls(DEFAULT_CHANNELS)

    @classmethod
    def numbered(cls, n: int) -> "Montage":
        """Names ch0..ch<n-1>, for channels that come without a montage."""
        return cls(tuple(f"ch{i}" for i in range(n)))

    def __len__(self):
        return len(self.channel_names)

    def index(self, name: str) -> int:
        return self.channel_names.index(name)

    def indices(self, names) -> list:
        return [self.index(n) for n in names]


class TrialTimeline:
    """Phase durations of one trial, in seconds.

    rest -> visual cue -> rest -> imagery; 2 + 5 + 5 + 5 = 17 s total. The
    generator and the epoch cutter both read these, so they always agree.
    """

    rest1_s = 2.0
    cue_s = 5.0
    rest2_s = 5.0
    imagery_s = 5.0
    total_s = rest1_s + cue_s + rest2_s + imagery_s
    imagery_offset_s = rest1_s + cue_s + rest2_s  # trial start to imagery
    # phase -> epoch_recording's rule of its [a, b] ms windows from onset
    window_rules = {"imagery": pair(0.0, imagery_s * 1000.0),
                    "rest": pair(-rest2_s * 1000.0, 0.0),
                    "onset": pair(-rest2_s * 1000.0, imagery_s * 1000.0)}


@dataclass
class EegRecording:
    """Continuous multichannel signal with event markers.

    data is channels x samples, microvolts. events is a list of
    (sample_index, class_label) pairs marking trial starts.
    """

    montage: Montage
    fs: int
    data: np.ndarray
    events: list

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 2 or self.data.shape[0] != len(self.montage):
            raise ShapeError(f"data must be {len(self.montage)} x samples, "
                             f"got {self.data.shape}")
        check("fs", self.fs, integer(1))
        self.events = [(int(s), int(l)) for s, l in self.events]
        for s, _ in self.events:
            if not 0 <= s < self.n_samples:
                raise RangeError(f"event sample {s} outside recording")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class EpochSet:
    """Labeled trials x channels x samples tensor cut from a recording.

    t0_ms is the epoch start relative to imagery onset. source_trials keeps
    the originating trial index of each epoch, also through sliding-window
    augmentation: provenance, written to epoch files. Without a montage the
    channels are named ch0, ch1, ...; the names follow the channels through
    select.
    """

    labels: np.ndarray
    tensor: np.ndarray
    fs: int
    t0_ms: float
    source_trials: np.ndarray = None
    montage: Montage = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.tensor = np.asarray(self.tensor)
        if self.tensor.ndim != 3:
            raise ShapeError("tensor must be trials x channels x samples")
        if len(self.labels) != self.tensor.shape[0]:
            raise ShapeError("labels length must equal trial count")
        self.montage = self.montage or Montage.numbered(self.tensor.shape[1])
        if len(self.montage) != self.tensor.shape[1]:
            raise ShapeError(f"montage names {len(self.montage)} channels, "
                             f"tensor holds {self.tensor.shape[1]}")
        check("fs", self.fs, integer(1))
        self.source_trials = np.asarray(
            np.arange(self.n_trials) if self.source_trials is None
            else self.source_trials, dtype=np.int64)
        if len(self.source_trials) != self.n_trials:
            raise ShapeError("source_trials length must equal trial count")

    @property
    def n_trials(self) -> int:
        return self.tensor.shape[0]

    @property
    def n_channels(self) -> int:
        return self.tensor.shape[1]

    @property
    def n_samples(self) -> int:
        return self.tensor.shape[2]

    def select(self, trial_idx=None, channel_idx=None) -> "EpochSet":
        """Subset by trial and/or channel indices, keeping provenance."""
        t, labels, src = self.tensor, self.labels, self.source_trials
        montage = self.montage
        if trial_idx is not None:
            trial_idx = np.asarray(trial_idx)
            t, labels, src = t[trial_idx], labels[trial_idx], src[trial_idx]
        if channel_idx is not None:
            channel_idx = list(channel_idx)
            t = t[:, channel_idx, :]
            montage = Montage([montage.channel_names[i] for i in channel_idx])
        return EpochSet(labels, t, self.fs, self.t0_ms, src, montage)


@dataclass
class SynthSpec:
    """Parameters of the seeded synthetic-EEG verification oracle."""

    n_trials_per_class: int
    planted_channels: dict      # class id -> list of channel names
    carrier_hz: dict            # class id -> oscillation frequency, Hz
    coupling: float = 1.0       # target pairwise PLV of planted channels
    snr_db: float = 10.0
    seed: int = 0
    fs: int = 250
    montage: Montage = field(default_factory=Montage.default)

    def __post_init__(self):
        for key, rule in SYNTH_RULES.items():
            check(key, getattr(self, key), rule)
        for key, rule in CLASS_RULES.items():
            for cls, value in getattr(self, key).items():
                check(f"{key}[{cls}]", value, rule)
        for cls, names in self.planted_channels.items():
            for n in names:
                if n not in self.montage.channel_names:
                    raise RangeError(f"planted channel {n!r} not in montage")
            if cls not in self.carrier_hz:
                raise RangeError(f"no carrier frequency for class {cls}")


def epoch_recording(rec: EegRecording, phase: str, window_ms) -> EpochSet:
    """Cut one epoch per event from a recording.

    window_ms is the half-open [start, end) in milliseconds relative to
    imagery onset, inside its phase by TrialTimeline.window_rules: the
    imagery, the rest before it, or for "onset" both (e.g. an ERSP baseline
    plus the imagery).
    """
    timeline = TrialTimeline()
    if phase not in timeline.window_rules:
        raise RangeError(f"unknown phase {phase!r}")
    check("window_ms", window_ms, timeline.window_rules[phase])
    if not rec.events:
        raise EmptyInputError("recording has no events")

    fs = rec.fs
    onset_off = round(timeline.imagery_offset_s * fs)
    s0, s1 = window_samples(window_ms, fs)
    trial_len = round(timeline.total_s * fs)

    starts, labels = np.array(list(zip(*rec.events)), dtype=np.int64)
    late = starts + trial_len > rec.n_samples
    if late.any():
        raise RangeError(f"trial at sample {starts[late][0]} exceeds "
                         f"recording length")
    # row a of the (start, channel, sample) view is the epoch starting at a
    epochs = np.lib.stride_tricks.sliding_window_view(
        rec.data, s1 - s0, axis=1).transpose(1, 0, 2)[starts + onset_off + s0]
    require_finite(epochs, f"recording's {phase} epochs")
    return EpochSet(labels, epochs, fs, float(window_ms[0]),
                    montage=rec.montage)


def window_samples(window_ms, fs: int) -> tuple:
    """(first, stop) sample of a [start, end) ms window from onset, at fs."""
    s0, s1 = (round(t * fs / 1000.0) for t in window_ms)
    if s1 - s0 < 2:
        raise RangeError(f"window {list(window_ms)} ms spans {s1 - s0} "
                         f"samples at {fs} Hz; it needs at least 2")
    return s0, s1


def require_finite(samples: np.ndarray, what: str) -> None:
    """Refuse NaN/Inf samples where data enters the pipeline: downstream
    they end as a false divergence or a traceback instead of a data error."""
    if not np.isfinite(samples).all():
        raise DegenerateInputError(f"{what} hold non-finite samples")


def _noise_shape(n: int) -> np.ndarray:
    """Float32 amplitude of white + 1/f noise on the rfft bins of n samples:
    1 at DC and sqrt(1 + c/f) elsewhere, f in cycles per sample. c gives the
    white and 1/f parts equal expected power: c = sum(w) / sum_{k>=1}(w_k /
    f_k), w_k each bin's two-sided weight (1 at DC and Nyquist, 2 elsewhere).
    """
    f = np.fft.rfftfreq(n)
    w = np.full(f.size, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    c = w.sum() / (w[1:] / f[1:]).sum()
    shape = np.ones(f.size, dtype=np.float32)
    shape[1:] = np.sqrt(1.0 + c / f[1:])
    return shape


def synth_dataset(spec: SynthSpec) -> EegRecording:
    """Generate a seeded synthetic recording with planted coupled oscillations.

    During each trial's imagery phase the class's planted channels carry a
    shared-phase sinusoid at the class carrier frequency; all channels carry
    white + 1/f noise throughout. Rest and cue phases are noise only. Each
    trial's noise is one float32 Gaussian spectrum shaped by _noise_shape (the
    two parts at equal expected power) and inverted by one irfft, then scaled
    to unit sample std per channel. Pairwise PLV of planted channels is
    controlled through per-channel Gaussian phase jitter: a jitter standard
    deviation of sqrt(-ln c) yields expected PLV c between a jittered pair.
    """
    fs = spec.fs
    tl = TrialTimeline()
    montage = spec.montage
    n_ch = len(montage)
    classes = sorted(spec.planted_channels)
    labels = np.repeat(classes, spec.n_trials_per_class)
    order = child_rng(spec.seed, "trial-order").permutation(len(labels))
    labels = labels[order]

    trial_len = round(tl.total_s * fs)
    im_off = round(tl.imagery_offset_s * fs)
    im_len = round(tl.imagery_s * fs)
    amp = np.sqrt(2.0 * 10.0 ** (spec.snr_db / 10.0))  # noise variance is 1
    jitter_sd = np.sqrt(-np.log(spec.coupling)) if spec.coupling < 1.0 else 0.0
    t = np.arange(im_len) / fs

    data = np.empty((n_ch, trial_len * len(labels)), dtype=np.float32)
    planted_idx = {c: montage.indices(spec.planted_channels[c]) for c in classes}

    shape = _noise_shape(trial_len)

    def fill_block(block):
        # one trial's workspaces, reused by each trial of the block
        freq = np.empty((n_ch, 2 * shape.size), dtype=np.float32)
        spectrum = freq.view(np.complex64)
        noise = np.empty((n_ch, trial_len), dtype=np.float32)
        for i in range(block.start, block.stop):
            rng = child_rng(spec.seed, "trial", i)
            # the shaped spectrum drawn directly (Timmer & Koenig 1995);
            # irfft drops the imaginary parts of DC and Nyquist
            rng.standard_normal(dtype=np.float32, out=freq)
            spectrum *= shape
            np.fft.irfft(spectrum, n=trial_len, axis=-1, out=noise)
            noise /= noise.std(axis=-1, keepdims=True)
            phi0 = rng.uniform(0.0, 2.0 * np.pi)
            carrier = 2.0 * np.pi * spec.carrier_hz[labels[i]] * t + phi0
            for ch in planted_idx[labels[i]]:
                phase = carrier
                if jitter_sd > 0.0:
                    phase = carrier + jitter_sd * rng.standard_normal(im_len)
                noise[ch, im_off:im_off + im_len] += amp * np.sin(phase)
            data[:, i * trial_len:(i + 1) * trial_len] = noise
    ordered_map(fill_block, row_blocks(len(labels)))
    events = [(i * trial_len, int(lab)) for i, lab in enumerate(labels)]
    return EegRecording(montage, fs, data, events)
