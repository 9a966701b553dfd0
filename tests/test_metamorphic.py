"""Whole-pipeline metamorphic relations: how the analysis outputs must move
when the recording is transformed. A relation holds whatever the accuracy,
so it can fail where the byte checks and the saturated demo cells cannot.
"""

import numpy as np
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


def _permuted(rec, seed):
    """(perm, preprocessed, imagery, rest) of rec with its montage permuted
    by perm, a permutation drawn from seed."""
    perm = np.random.default_rng(seed).permutation(rec.n_channels)
    permuted = EegRecording(
        Montage([rec.montage.channel_names[i] for i in perm]), rec.fs,
        rec.data[perm], rec.events)
    pre = preprocess_recording(permuted)
    return (perm, pre, epoch_recording(pre, "imagery", (500, 4500)),
            epoch_recording(pre, "rest", (-4500, -500)))


@pytest.mark.parametrize("seed", range(4))
def test_permuting_the_montage_permutes_preprocess_plv_and_t(reference,
                                                             seed):
    """Each channel is filtered alone, PLV pairs channels whatever their
    positions, and t reads one channel's band powers, so a permuted montage
    permutes these bit for bit. p is left out: each channel's permutation
    test draws its stream from the channel's position (ROADMAP item 3), so
    it moves with the permutation (by up to 0.159 on these four)."""
    rec, (pre, plv, _, smap, _) = reference
    perm, p_pre, imagery, rest = _permuted(rec, seed)
    p_plv = per_class_plv(imagery)
    p_smap = stat_map(imagery, rest, n_perm=200)
    assert p_pre.data.tobytes() == pre.data[perm].tobytes()
    assert p_pre.events == pre.events
    assert list(p_plv) == list(plv)
    for c in plv:
        assert (p_plv[c].values.tobytes()
                == plv[c].values[np.ix_(perm, perm)].tobytes())
    assert p_smap.t_values.tobytes() == smap.t_values[perm].tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_permuting_the_montage_leaves_csp_lda_with_selection(reference,
                                                             seed):
    """The folds read only the labels, and each fold's ranking permutes
    with the PLV matrices; selection lists the top k channels in rank
    order, so at k = 4 and 8 CSP-LDA is fitted on the same bytes and its
    entries are bit-equal. k = 16 is left out: with no selection CSP runs
    on the montage's own order, permuted, so its covariances sum in
    another order and may differ in the last bits."""
    rec, (_, _, _, _, report) = reference
    _, _, imagery, _ = _permuted(rec, seed)
    p_report = sweep(imagery, methods=("csp_lda",), channel_counts=(4, 8),
                     folds=2, seeds=(0, 1))
    for p_entry in p_report.entries:
        entry = report.entry("csp_lda", p_entry.k_channels)
        assert p_entry.fold_accuracies == entry.fold_accuracies
        assert p_entry.confusion.tobytes() == entry.confusion.tobytes()


@pytest.mark.parametrize("perm", [(1, 0, 2, 3), (1, 2, 0, 3), (1, 2, 3, 0),
                                  (3, 2, 1, 0), (1, 0, 3, 2)])
def test_relabelling_the_classes_permutes_the_class_plv(reference, perm):
    """Class c relabelled perm[c]: each class's PLV matrix is the mean over
    the same trials, so it moves to its new label bit for bit. The ranking's
    scores are means over classes taken in label order, so they may differ
    in the last bits and are pinned to 1e-12 relative; its order is left
    out, as a tie broken by those bits could swap two channels. The CV
    entries are left out: stratified_folds draws its one stream class by
    class in id order, so relabelling gives other folds."""
    rec, (_, plv, ranking, _, _) = reference
    relabelled = EegRecording(rec.montage, rec.fs, rec.data,
                              [(s, perm[l]) for s, l in rec.events])
    imagery = epoch_recording(preprocess_recording(relabelled), "imagery",
                              (500, 4500))
    p_plv = per_class_plv(imagery)
    assert sorted(p_plv) == sorted(plv)
    for c in plv:
        assert p_plv[perm[c]].values.tobytes() == plv[c].values.tobytes()
    scores = dict(ranking.order)
    p_scores = dict(rank_channels(p_plv.values()).order)
    assert p_scores.keys() == scores.keys()
    np.testing.assert_allclose([p_scores[i] for i in scores],
                               list(scores.values()), rtol=1e-12, atol=0)
