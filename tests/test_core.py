"""Domain types, trial timeline, epoching and the synthetic generator."""

import numpy as np
import pytest

from vmidecode import (DEFAULT_CHANNELS, CLASS_NAMES, EegRecording, EpochSet,
                       Montage, TrialTimeline, epoch_recording, synth_dataset)
from vmidecode import pool
from vmidecode.errors import (DegenerateInputError, EmptyInputError,
                              RangeError, ShapeError)
from vmidecode.seeding import child_rng

from conftest import SMALL_CHANNELS, small_spec


# ---------------------------------------------------------------------------
# Montage and timeline

def test_default_montage_has_64_unique_channels():
    m = Montage.default()
    assert len(m) == 64
    assert len(set(m.channel_names)) == 64


def test_default_montage_order_endpoints():
    assert DEFAULT_CHANNELS[0] == "Fp1"
    assert DEFAULT_CHANNELS[1] == "Fp2"
    assert DEFAULT_CHANNELS[-1] == "Iz"
    assert "Oz" in DEFAULT_CHANNELS and "Cz" in DEFAULT_CHANNELS


_NOT_A_MONTAGE = ("^channel_names must be a non-empty list of distinct "
                  "channel names, got ")


def test_montage_rejects_duplicates():
    # this was a ShapeError
    with pytest.raises(RangeError, match=_NOT_A_MONTAGE):
        Montage(("Fp1", "Fp1"))


@pytest.mark.parametrize("names", [(), [], "Fp1", None])
def test_montage_refuses_what_is_not_a_list_of_names(names):
    # an empty montage was accepted, and "Fp1" read as the names F, p and 1
    with pytest.raises(RangeError, match=_NOT_A_MONTAGE):
        Montage(names)


@pytest.mark.parametrize("name", ["P,z", 'P"z', "P\rz", "P\nz", "", 3])
def test_montage_refuses_a_name_a_csv_field_cannot_hold(name):
    # "P,z" wrote CSV rows one field short of their header
    with pytest.raises(RangeError, match="^channel name must be "):
        Montage(("Cz", name))


def test_montage_index_lookup():
    m = Montage.default()
    assert m.channel_names[m.index("Oz")] == "Oz"
    assert m.indices(["Fp1", "Iz"]) == [0, 63]


def test_class_names():
    assert CLASS_NAMES == ("phone", "door", "eat", "pour")


def test_timeline_totals():
    tl = TrialTimeline()
    assert tl.rest1_s + tl.cue_s + tl.rest2_s + tl.imagery_s == tl.total_s
    assert tl.total_s == 17.0
    assert tl.imagery_offset_s == 12.0


# ---------------------------------------------------------------------------
# Recording / epoch containers

def _flat_recording(n_ch=64, fs=250, n_trials=3):
    tl = TrialTimeline()
    trial_len = round(tl.total_s * fs)
    data = np.arange(n_ch * trial_len * n_trials, dtype=np.float32)
    data = data.reshape(n_ch, trial_len * n_trials)
    events = [(i * trial_len, i % 4) for i in range(n_trials)]
    return EegRecording(Montage.default() if n_ch == 64
                        else Montage(SMALL_CHANNELS[:n_ch]), fs, data, events)


def test_recording_rejects_bad_shape():
    with pytest.raises(ShapeError):
        EegRecording(Montage.default(), 250, np.zeros((63, 100)), [])


def test_recording_rejects_event_out_of_range():
    with pytest.raises(RangeError):
        EegRecording(Montage(SMALL_CHANNELS), 250,
                     np.zeros((8, 100)), [(100, 0)])


def test_imagery_epoch_dimensions():
    # 4 s x 250 Hz imagery window -> trials x 64 x 1000
    rec = _flat_recording(n_ch=64, fs=250, n_trials=3)
    ep = epoch_recording(rec, "imagery", (500, 4500))
    assert ep.tensor.shape == (3, 64, 1000)
    assert ep.t0_ms == 500.0


def test_rest_baseline_epoch_dimensions():
    rec = _flat_recording(n_ch=64, fs=250, n_trials=2)
    ep = epoch_recording(rec, "rest", (-500, 0))
    assert ep.tensor.shape == (2, 64, 125)
    assert ep.t0_ms == -500.0


def test_imagery_epoch_content_is_the_right_slice():
    rec = _flat_recording(n_ch=8, fs=250, n_trials=2)
    ep = epoch_recording(rec, "imagery", (0, 4000))
    # imagery onset is 12 s after trial start
    onset = round(12.0 * 250)
    np.testing.assert_array_equal(ep.tensor[0], rec.data[:, onset:onset + 1000])


def test_onset_epoch_spans_rest_and_imagery():
    rec = _flat_recording(n_ch=8, fs=250, n_trials=3)
    span = epoch_recording(rec, "onset", (-500, 4500))
    rest = epoch_recording(rec, "rest", (-500, 0))
    imagery = epoch_recording(rec, "imagery", (0, 4500))
    assert span.t0_ms == -500.0
    np.testing.assert_array_equal(
        span.tensor, np.concatenate([rest.tensor, imagery.tensor], axis=-1))
    np.testing.assert_array_equal(span.labels, imagery.labels)
    with pytest.raises(RangeError):
        epoch_recording(rec, "onset", (-5500, 4500))    # before rest phase
    with pytest.raises(RangeError):
        epoch_recording(rec, "onset", (-500, 5500))     # past imagery end


def test_epoch_window_errors():
    rec = _flat_recording(n_ch=8, fs=250, n_trials=1)
    with pytest.raises(RangeError):
        epoch_recording(rec, "imagery", (0, 0))         # empty window
    with pytest.raises(RangeError):
        epoch_recording(rec, "imagery", (-100, 400))    # before onset
    with pytest.raises(RangeError):
        epoch_recording(rec, "imagery", (500, 5500))    # past phase end
    with pytest.raises(RangeError):
        epoch_recording(rec, "rest", (-5500, 0))        # before rest phase
    with pytest.raises(RangeError):
        epoch_recording(rec, "cue", (0, 1000))          # unknown phase


def test_epoch_no_events():
    tl = TrialTimeline()
    rec = EegRecording(Montage(SMALL_CHANNELS), 250,
                       np.zeros((8, round(tl.total_s * 250))), [])
    with pytest.raises(EmptyInputError):
        epoch_recording(rec, "imagery", (500, 4500))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_epoch_refuses_non_finite_samples(bad):
    rec = _flat_recording(n_ch=8, fs=250, n_trials=2)
    data = rec.data.copy()
    onset = round(12.0 * 250)       # imagery onset of the first trial
    data[3, onset + 10] = bad
    rec = EegRecording(rec.montage, rec.fs, data, rec.events)
    with pytest.raises(DegenerateInputError, match="imagery epochs"):
        epoch_recording(rec, "imagery", (0, 4000))
    rest = epoch_recording(rec, "rest", (-500, 0))  # the sample is not in it
    assert np.isfinite(rest.tensor).all()


@pytest.mark.parametrize("n_ch", [8, 64])
@pytest.mark.parametrize("phase, window_ms", [
    ("imagery", (500, 4500)), ("rest", (-4500, -500)), ("onset", (-1500, 4500))])
def test_epochs_match_the_per_event_loop(n_ch, phase, window_ms):
    fs = 250
    tl = TrialTimeline()
    trial_len = round(tl.total_s * fs)
    rng = np.random.default_rng(n_ch)
    data = rng.standard_normal((n_ch, 5 * trial_len)).astype(np.float32)
    # uneven gaps, not in time order
    events = [(3 * trial_len + 17, 2), (11, 0), (trial_len + 400, 3)]
    rec = EegRecording(Montage.default() if n_ch == 64
                       else Montage(SMALL_CHANNELS), fs, data, events)
    ep = epoch_recording(rec, phase, window_ms)

    onset = round(tl.imagery_offset_s * fs)
    s0 = round(window_ms[0] * fs / 1000.0)
    n_samp = round(window_ms[1] * fs / 1000.0) - s0
    ref = np.empty((len(events), n_ch, n_samp), dtype=np.float32)
    labels = np.empty(len(events), dtype=np.int64)
    for i, (ev, lab) in enumerate(rec.events):
        a = ev + onset + s0
        ref[i] = rec.data[:, a:a + n_samp]
        labels[i] = lab
    assert ep.tensor.dtype == np.float32 and ep.tensor.flags.c_contiguous
    np.testing.assert_array_equal(ep.tensor, ref)
    np.testing.assert_array_equal(ep.labels, labels)


def test_epoch_error_names_the_first_trial_past_the_end():
    rec = _flat_recording(n_ch=8, fs=250, n_trials=2)
    trial_len = rec.n_samples // 2
    late = [(trial_len + 50, 0), (5, 1), (trial_len + 90, 2)]
    rec = EegRecording(rec.montage, rec.fs, rec.data, late)
    with pytest.raises(RangeError,
                       match=f"^trial at sample {trial_len + 50} exceeds"):
        epoch_recording(rec, "imagery", (500, 4500))


def test_event_shuffle_permutes_epochs_identically():
    rec = _flat_recording(n_ch=8, fs=250, n_trials=4)
    ep = epoch_recording(rec, "imagery", (500, 4500))
    perm = [2, 0, 3, 1]
    rec2 = EegRecording(rec.montage, rec.fs, rec.data,
                        [rec.events[i] for i in perm])
    ep2 = epoch_recording(rec2, "imagery", (500, 4500))
    np.testing.assert_array_equal(ep2.tensor, ep.tensor[perm])
    np.testing.assert_array_equal(ep2.labels, ep.labels[perm])


def test_epochset_select_keeps_alignment():
    rng = np.random.default_rng(0)
    ep = EpochSet(np.array([0, 1, 2, 3]), rng.standard_normal((4, 8, 100)),
                  250, 0.0, montage=Montage(SMALL_CHANNELS))
    sub = ep.select(trial_idx=[3, 1], channel_idx=[0, 4])
    assert sub.tensor.shape == (2, 2, 100)
    np.testing.assert_array_equal(sub.labels, [3, 1])
    np.testing.assert_array_equal(sub.source_trials, [3, 1])
    assert sub.montage.channel_names == ("Fp1", "O1")
    np.testing.assert_array_equal(sub.tensor[0], ep.tensor[3][[0, 4]])


@pytest.mark.parametrize("trial_idx, channel_idx", [
    ([3, 1], [4, 0, 2]), (None, [5, 1]), ([2, 0], None), (range(4), range(8))])
def test_epochset_select_gathers_the_tensor_in_one_c_order_copy(trial_idx,
                                                                channel_idx):
    tensor = np.random.default_rng(1).standard_normal((4, 8, 100))
    ep = EpochSet(np.arange(4), tensor.astype(np.float32), 250, 0.0)
    want = ep.tensor if trial_idx is None else ep.tensor[list(trial_idx)]
    if channel_idx is not None:
        want = want[:, list(channel_idx)]
    got = ep.select(trial_idx=trial_idx, channel_idx=channel_idx).tensor
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_epochset_montage_names_every_channel():
    tensor = np.zeros((2, 3, 10))
    assert EpochSet([0, 1], tensor, 250, 0.0).montage == Montage.numbered(3)
    assert Montage.numbered(3).channel_names == ("ch0", "ch1", "ch2")
    with pytest.raises(ShapeError):
        EpochSet([0, 1], tensor, 250, 0.0, montage=Montage(("a", "b")))


# ---------------------------------------------------------------------------
# Synthetic generator

def test_synth_is_deterministic():
    a = synth_dataset(small_spec())
    b = synth_dataset(small_spec())
    assert a.data.tobytes() == b.data.tobytes()
    assert a.events == b.events


def _noise_power(n):
    """The noise's expected power on the rfft bins of n samples, and the
    bins' two-sided weights: 1 at DC and 1 + c/f elsewhere (f in cycles per
    sample), c putting the white and 1/f parts at equal expected power."""
    f = np.fft.rfftfreq(n)
    w = np.full(f.size, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    c = w.sum() / (w[1:] / f[1:]).sum()
    power = np.ones_like(f)
    power[1:] += c / f[1:]
    return power, w


def _synth_per_trial(spec):
    """synth_dataset's samples, one trial after another with fresh arrays."""
    tl, n_ch = TrialTimeline(), len(spec.montage)
    labels = np.repeat(sorted(spec.planted_channels), spec.n_trials_per_class)
    labels = labels[child_rng(spec.seed, "trial-order").permutation(
        len(labels))]
    trial_len, im_len = round(tl.total_s * spec.fs), round(tl.imagery_s *
                                                           spec.fs)
    im_off = round(tl.imagery_offset_s * spec.fs)
    amp = np.sqrt(2.0 * 10.0 ** (spec.snr_db / 10.0))
    jitter_sd = np.sqrt(-np.log(spec.coupling)) if spec.coupling < 1 else 0.0
    t = np.arange(im_len) / spec.fs
    shape = np.sqrt(_noise_power(trial_len)[0]).astype(np.float32)
    data = np.empty((n_ch, trial_len * len(labels)), dtype=np.float32)
    for i, label in enumerate(labels):
        rng = child_rng(spec.seed, "trial", i)
        spectrum = rng.standard_normal((n_ch, 2 * shape.size),
                                       dtype=np.float32).view(np.complex64)
        noise = np.fft.irfft(spectrum * shape, n=trial_len, axis=-1)
        noise = noise / noise.std(axis=-1, keepdims=True)
        phi0 = rng.uniform(0.0, 2.0 * np.pi)
        carrier = 2.0 * np.pi * spec.carrier_hz[label] * t + phi0
        for ch in spec.montage.indices(spec.planted_channels[label]):
            phase = carrier
            if jitter_sd > 0.0:
                phase = carrier + jitter_sd * rng.standard_normal(im_len)
            noise[ch, im_off:im_off + im_len] += amp * np.sin(phase)
        data[:, i * trial_len:(i + 1) * trial_len] = noise
    return data


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("coupling", [1.0, 0.9])
@pytest.mark.parametrize("n_ch", [8, 64])
def test_synth_blocks_give_the_per_trial_bits(n_ch, coupling, workers,
                                              monkeypatch):
    monkeypatch.setattr(pool, "worker_count",
                        lambda n_tasks: min(workers, n_tasks))
    spec = (small_spec(n_trials_per_class=2, coupling=coupling) if n_ch == 8
            else small_spec(n_trials_per_class=2, coupling=coupling,
                            montage=Montage.default()))
    assert synth_dataset(spec).data.tobytes() == \
        _synth_per_trial(spec).tobytes()


def test_synth_noise_has_unit_variance_and_the_white_plus_1_over_f_spectrum():
    # 200 trials x 6 unplanted channels: 1200 noise-only rows of 4250 samples
    spec = small_spec(n_trials_per_class=50)
    rec = synth_dataset(spec)
    trial_len = round(TrialTimeline().total_s * spec.fs)
    planted = {c: spec.montage.indices(names)
               for c, names in spec.planted_channels.items()}
    power, w = _noise_power(trial_len)
    periodogram, n_rows = np.zeros(power.size), 0
    for start, label in rec.events:
        rows = [ch for ch in range(len(spec.montage))
                if ch not in planted[label]]
        x = rec.data[rows, start:start + trial_len].astype(np.float64)
        # unit sample variance to float32 rounding: within 1e-6, about
        # eight float32 steps of 1 (2**-23 = 1.2e-7 each)
        np.testing.assert_allclose(x.var(axis=-1), 1.0, rtol=0, atol=1e-6)
        periodogram += (np.abs(np.fft.rfft(x, axis=-1)) ** 2).sum(axis=0)
        n_rows += len(rows)
    periodogram /= n_rows * trial_len
    # unit variance spreads trial_len of power over the two-sided bins
    expected = trial_len * power / (w * power).sum()
    # octave bands of bins: [1], [2, 4), ..., [1024, 2048), [2048, Nyquist)
    edges = [*2 ** np.arange(12), power.size - 1]
    ratio = np.array([periodogram[a:b].sum() / expected[a:b].sum()
                      for a, b in zip(edges[:-1], edges[1:])])
    # bins 1-3 hold 5 % of a row's power, so scaling each row to unit
    # variance takes a few % off them. Over synth seeds 1-40 the ratios read
    # 0.957 +- 0.028 ([1]), 0.982 +- 0.017 ([2, 4)) and 0.993 +- 0.012
    # ([4, 8)); the wider bands 1.002-1.005, sd <= 0.009. The tolerances sit
    # 3.5 sd or more from those means.
    tolerance = np.array([0.15, 0.1] + [0.05] * (ratio.size - 2))
    assert (np.abs(ratio - 1.0) <= tolerance).all(), ratio


def test_synth_seed_changes_data():
    a = synth_dataset(small_spec())
    b = synth_dataset(small_spec(seed=6))
    assert a.data.tobytes() != b.data.tobytes()


def test_synth_event_count_and_labels(small_recording):
    # 4 classes x 8 trials
    assert len(small_recording.events) == 32
    labels = [l for _, l in small_recording.events]
    assert sorted(set(labels)) == [0, 1, 2, 3]
    assert all(labels.count(c) == 8 for c in range(4))


def test_synth_200_events_for_50_trials_per_class():
    spec = small_spec(n_trials_per_class=50, fs=50)
    rec = synth_dataset(spec)
    assert len(rec.events) == 200


def test_synth_rest_phase_has_no_carrier(small_recording):
    # planted sinusoid lives in the imagery phase only; compare band power
    # of a planted channel between imagery and the pre-imagery rest
    imagery = epoch_recording(small_recording, "imagery", (500, 4500))
    rest = epoch_recording(small_recording, "rest", (-4500, -500))
    ch = 0  # Fp1, planted for class 0
    idx = np.nonzero(imagery.labels == 0)[0]
    pi = np.var(np.asarray(imagery.tensor[idx, ch], dtype=np.float64), axis=-1)
    pr = np.var(np.asarray(rest.tensor[idx, ch], dtype=np.float64), axis=-1)
    assert pi.mean() > 5.0 * pr.mean()


def test_synth_spec_validation():
    with pytest.raises(RangeError):
        small_spec(coupling=0.0)
    with pytest.raises(RangeError):
        small_spec(n_trials_per_class=0)
    with pytest.raises(RangeError):
        small_spec(planted_channels={0: ["Nope"]}, carrier_hz={0: 5.0})
    with pytest.raises(RangeError):
        small_spec(planted_channels={0: ["Fp1"], 1: ["O1"]},
                   carrier_hz={0: 5.0})  # class 1 missing a carrier


@pytest.mark.parametrize("override, message", [
    # 2.5 synthesised 2 trials per class, fs 0 ended in numpy's "Invalid
    # number of FFT data points (0)", fs -250 in "negative dimensions are
    # not allowed"
    ({"n_trials_per_class": 2.5}, "n_trials_per_class must be an integer"),
    ({"n_trials_per_class": True}, "n_trials_per_class must be an integer"),
    pytest.param({"fs": 0}, r"^fs must be an integer >= 1, got 0$",
                 id="fs=0"),
    pytest.param({"fs": -250}, r"^fs must be an integer >= 1, got -250$",
                 id="fs=-250"),
])
def test_synth_spec_refuses_what_the_config_rules_refuse(override, message):
    with pytest.raises(RangeError, match=message):
        small_spec(**override)
