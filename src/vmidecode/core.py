"""Domain types, trial timeline, epoching and the synthetic-EEG generator.

Amplitudes are microvolts throughout. Recordings run at 1000 Hz (raw) or
250 Hz (after preprocessing). All types are immutable by convention after
construction; every operation here is pure given its seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateInputError, EmptyInputError, RangeError,
                     ShapeError)
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


@dataclass(frozen=True)
class Montage:
    """Ordered electrode labels; indices everywhere refer to this order."""

    channel_names: tuple

    def __post_init__(self):
        names = tuple(self.channel_names)
        object.__setattr__(self, "channel_names", names)
        if len(set(names)) != len(names):
            raise ShapeError("duplicate channel names in montage")

    @classmethod
    def default(cls) -> "Montage":
        return cls(DEFAULT_CHANNELS)

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
            raise ShapeError(
                f"data must be {len(self.montage)} x samples, got {self.data.shape}"
            )
        if self.fs <= 0:
            raise RangeError("fs must be positive")
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
    the originating trial index of each epoch (used for leakage control after
    sliding-window augmentation).
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
        if self.source_trials is None:
            self.source_trials = np.arange(self.tensor.shape[0])
        else:
            self.source_trials = np.asarray(self.source_trials, dtype=np.int64)
            if len(self.source_trials) != self.tensor.shape[0]:
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
        t = self.tensor
        labels = self.labels
        src = self.source_trials
        montage = self.montage
        if trial_idx is not None:
            trial_idx = np.asarray(trial_idx)
            t = t[trial_idx]
            labels = labels[trial_idx]
            src = src[trial_idx]
        if channel_idx is not None:
            channel_idx = list(channel_idx)
            t = t[:, channel_idx, :]
            if montage is not None:
                montage = Montage(
                    tuple(montage.channel_names[i] for i in channel_idx)
                )
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
        if not 0.0 < self.coupling <= 1.0:
            raise RangeError("coupling must be in (0, 1]")
        if self.n_trials_per_class < 1:
            raise RangeError("n_trials_per_class must be >= 1")
        for cls, names in self.planted_channels.items():
            for name in names:
                if name not in self.montage.channel_names:
                    raise RangeError(f"planted channel {name!r} not in montage")
            if cls not in self.carrier_hz:
                raise RangeError(f"no carrier frequency for class {cls}")


def epoch_recording(rec: EegRecording, phase: str, window_ms) -> EpochSet:
    """Cut one epoch per event from a recording.

    window_ms is (start, end) in milliseconds relative to imagery onset,
    half-open [start, end). For phase "imagery" the window must lie inside
    [0, imagery_s*1000]; for phase "rest" inside [-rest2_s*1000, 0] (the 5 s
    rest immediately preceding imagery); for phase "onset" (a window that
    spans imagery onset, e.g. an ERSP baseline plus the imagery) inside
    [-rest2_s*1000, imagery_s*1000].
    """
    timeline = TrialTimeline()
    start_ms, end_ms = window_ms
    if end_ms <= start_ms:
        raise RangeError("window end must exceed start")
    if phase == "imagery":
        lo, hi = 0.0, timeline.imagery_s * 1000.0
    elif phase == "rest":
        lo, hi = -timeline.rest2_s * 1000.0, 0.0
    elif phase == "onset":
        lo, hi = -timeline.rest2_s * 1000.0, timeline.imagery_s * 1000.0
    else:
        raise RangeError(f"unknown phase {phase!r}")
    if start_ms < lo or end_ms > hi:
        raise RangeError(
            f"window ({start_ms}, {end_ms}) ms outside {phase} phase "
            f"bounds [{lo}, {hi}] ms"
        )
    if not rec.events:
        raise EmptyInputError("recording has no events")

    fs = rec.fs
    onset_off = round(timeline.imagery_offset_s * fs)
    s0 = round(start_ms * fs / 1000.0)
    s1 = round(end_ms * fs / 1000.0)
    n_samp = s1 - s0
    trial_len = round(timeline.total_s * fs)

    epochs = np.empty((len(rec.events), rec.n_channels, n_samp),
                      dtype=rec.data.dtype)
    labels = np.empty(len(rec.events), dtype=np.int64)
    for i, (ev, lab) in enumerate(rec.events):
        if ev + trial_len > rec.n_samples:
            raise RangeError(f"trial at sample {ev} exceeds recording length")
        a = ev + onset_off + s0
        epochs[i] = rec.data[:, a:a + n_samp]
        labels[i] = lab
    require_finite(epochs, f"recording's {phase} epochs")
    return EpochSet(labels, epochs, fs, float(start_ms), montage=rec.montage)


def require_finite(samples: np.ndarray, what: str) -> None:
    """Refuse NaN/Inf samples where data enters the pipeline: downstream
    they end as a false divergence or a traceback instead of a data error."""
    if not np.isfinite(samples).all():
        raise DegenerateInputError(f"{what} hold non-finite samples")


def _pink_noise(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance 1/f noise along the last axis via spectral shaping."""
    n = shape[-1]
    white = rng.standard_normal(shape)
    spec = np.fft.rfft(white, axis=-1)
    f = np.fft.rfftfreq(n)
    scale = np.zeros_like(f)
    scale[1:] = 1.0 / np.sqrt(f[1:])
    pink = np.fft.irfft(spec * scale, n=n, axis=-1)
    sd = pink.std(axis=-1, keepdims=True)
    sd[sd == 0] = 1.0
    return pink / sd


def synth_dataset(spec: SynthSpec) -> EegRecording:
    """Generate a seeded synthetic recording with planted coupled oscillations.

    During each trial's imagery phase the class's planted channels carry a
    shared-phase sinusoid at the class carrier frequency; all channels carry
    pink + white noise (equal power, unit total variance) throughout. Rest
    and cue phases are noise only. Pairwise PLV of planted channels is
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
    events = []
    planted_idx = {c: montage.indices(spec.planted_channels[c]) for c in classes}
    for i, lab in enumerate(labels):
        rng = child_rng(spec.seed, "trial", i)
        noise = (_pink_noise(rng, (n_ch, trial_len))
                 + rng.standard_normal((n_ch, trial_len))) / np.sqrt(2.0)
        phi0 = rng.uniform(0.0, 2.0 * np.pi)
        carrier = 2.0 * np.pi * spec.carrier_hz[lab] * t + phi0
        for ch in planted_idx[lab]:
            phase = carrier
            if jitter_sd > 0.0:
                phase = carrier + jitter_sd * rng.standard_normal(im_len)
            noise[ch, im_off:im_off + im_len] += amp * np.sin(phase)
        start = i * trial_len
        data[:, start:start + trial_len] = noise.astype(np.float32)
        events.append((start, int(lab)))
    return EegRecording(montage, fs, data, events)
