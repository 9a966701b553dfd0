"""Domain types, trial timeline, epoching and the synthetic generator."""

import numpy as np
import pytest

from vmidecode import (DEFAULT_CHANNELS, CLASS_NAMES, EegRecording, EpochSet,
                       Montage, TrialTimeline, epoch_recording, synth_dataset)
from vmidecode.errors import (DegenerateInputError, EmptyInputError,
                              RangeError, ShapeError)

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


def test_montage_rejects_duplicates():
    with pytest.raises(ShapeError):
        Montage(("Fp1", "Fp1"))


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


# ---------------------------------------------------------------------------
# Synthetic generator

def test_synth_is_deterministic():
    a = synth_dataset(small_spec())
    b = synth_dataset(small_spec())
    assert a.data.tobytes() == b.data.tobytes()
    assert a.events == b.events


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
