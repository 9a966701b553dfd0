"""Whole-pipeline metamorphic relations: how the analysis outputs must move
when the recording is transformed. A relation holds whatever the accuracy,
so it can fail where the byte checks and the saturated demo cells cannot.
"""

import pytest

from vmidecode import (EegRecording, Montage, epoch_recording,
                       per_class_plv, preprocess_recording, rank_channels,
                       stat_map, sweep, synth_dataset)

from conftest import SMALL_CHANNELS, small_spec

MONTAGE_16 = Montage(SMALL_CHANNELS + ("F3", "F4", "C3", "C4",
                                       "P3", "P4", "T7", "T8"))


def _analysis(rec):
    """preprocess, per-class PLV, ranking, stat map and CSP-LDA CV of rec,
    with in-fold selection at k = 4 and 8 and none at 16."""
    pre = preprocess_recording(rec)
    imagery = epoch_recording(pre, "imagery", (500, 4500))
    rest = epoch_recording(pre, "rest", (-4500, -500))
    plv = per_class_plv(imagery)
    report = sweep(imagery, methods=("csp_lda",), channel_counts=(4, 8, 16),
                   folds=2, seeds=(0, 1))
    return (pre, plv, rank_channels(plv.values()),
            stat_map(imagery, rest, n_perm=200), report)


@pytest.fixture(scope="module")
def reference():
    rec = synth_dataset(small_spec(montage=MONTAGE_16, snr_db=0.0,
                                   n_trials_per_class=10))
    return rec, _analysis(rec)


# a power of two scales every float exactly, so each stage's arithmetic on
# the scaled recording is its arithmetic on the original, scaled
@pytest.mark.parametrize("scale", [4.0, 1 / 8])
def test_scaling_the_recording_by_a_power_of_two_leaves_the_analysis(
        reference, scale):
    rec, (pre, plv, ranking, smap, report) = reference
    scaled = EegRecording(rec.montage, rec.fs, rec.data * scale, rec.events)
    s_pre, s_plv, s_ranking, s_smap, s_report = _analysis(scaled)
    assert (s_pre.data / scale).tobytes() == pre.data.tobytes()
    assert s_pre.events == pre.events
    assert list(s_plv) == list(plv)
    for c in plv:
        assert s_plv[c].values.tobytes() == plv[c].values.tobytes()
    assert s_ranking.order == ranking.order
    assert s_smap.t_values.tobytes() == smap.t_values.tobytes()
    assert s_smap.p_values.tobytes() == smap.p_values.tobytes()
    for entry, s_entry in zip(report.entries, s_report.entries, strict=True):
        assert s_entry.fold_accuracies == entry.fold_accuracies
        assert s_entry.confusion.tobytes() == entry.confusion.tobytes()
