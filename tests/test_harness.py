"""Cross-validation harness, sweep reporting and config handling."""

import ctypes
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vmidecode import harness, pool
from vmidecode import (CnnClassifier, ConnectivityMatrix, CspLdaClassifier,
                       EegRecording, EpochSet, EvalEntry, EvalReport, Montage,
                       TrainConfig, band_power, bandpass, cross_validate,
                       epoch_recording, ersp, format_cell, permutation_test,
                       predict_trial, preprocess_recording, rank_channels,
                       select_channels, slide_windows, stat_map,
                       stratified_folds, strong_edges, sweep, synth_dataset)
from vmidecode.dsp import decimation_factor
from vmidecode.errors import (ConfigError, DegenerateInputError,
                              DivergenceError, RangeError,
                              StratificationError)
from vmidecode.harness import (DEFAULT_CONFIG, downsample_factor, load_config,
                               synth_from_config, train_config,
                               validate_config, write_manifest)
from vmidecode.seeding import derive_seed

from conftest import small_spec


def _variance_epochs(n_per_class=8, n_ch=8, seed=0):
    """Per-class variance signatures, trivially decodable by CSP."""
    rng = np.random.default_rng(seed)
    tensors, labels = [], []
    for c in range(4):
        x = rng.standard_normal((n_per_class, n_ch, 1000))
        x[:, c, :] *= 5.0
        tensors.append(x)
        labels.append(np.full(n_per_class, c))
    return EpochSet(np.concatenate(labels),
                    np.concatenate(tensors).astype(np.float32), 250, 500.0)


# ---------------------------------------------------------------------------
# Cells and folds

def test_format_cell_table_style():
    assert format_cell(67.50, 1.52) == "67.50% (±1.52)"


def test_stratified_folds_balanced():
    labels = np.repeat([0, 1, 2, 3], 50)
    folds = stratified_folds(labels, 5, seed=0)
    assert len(folds) == 5
    for f in folds:
        assert len(f) == 40
        vals, counts = np.unique(labels[f], return_counts=True)
        assert list(vals) == [0, 1, 2, 3]
        assert all(c == 10 for c in counts)
    # folds partition the trials
    assert sorted(np.concatenate(folds).tolist()) == list(range(200))


def test_stratified_folds_deterministic():
    labels = np.repeat([0, 1, 2, 3], 10)
    a = stratified_folds(labels, 5, seed=3)
    b = stratified_folds(labels, 5, seed=3)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)


def test_stratified_folds_missing_class():
    with pytest.raises(StratificationError):
        stratified_folds(np.array([0, 0, 0, 1]), 3, seed=0)


# ---------------------------------------------------------------------------
# Cross-validation

def test_cross_validate_csp_on_planted_data():
    ep = _variance_epochs()
    entry = cross_validate(ep, "csp_lda", k_channels=None, folds=2, seeds=(0,))
    assert entry.mean_pct >= 90.0
    assert len(entry.fold_accuracies) == 2
    assert entry.confusion.sum() == ep.n_trials
    # confusion rows sum to per-class trial counts
    np.testing.assert_array_equal(entry.confusion.sum(axis=1), [8, 8, 8, 8])
    # reported mean is the arithmetic mean of fold accuracies
    assert entry.mean_pct == pytest.approx(
        100.0 * np.mean(entry.fold_accuracies), abs=1e-9)


def test_cross_validate_shuffled_labels_near_chance():
    ep = _variance_epochs(n_per_class=10)
    accs = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        shuffled = EpochSet(rng.permutation(ep.labels), ep.tensor, ep.fs,
                            ep.t0_ms)
        entry = cross_validate(shuffled, "csp_lda", k_channels=None,
                               folds=2, seeds=(seed,))
        accs.append(entry.mean_pct / 100.0)
    assert 0.15 <= np.mean(accs) <= 0.35


def test_cross_validate_channel_selection_runs_in_fold():
    ep = _variance_epochs()
    entry = cross_validate(ep, "csp_lda", k_channels=4, folds=2, seeds=(0,))
    assert entry.k_channels == 4
    assert len(entry.fold_accuracies) == 2


def test_cross_validate_seeds_multiply_folds():
    ep = _variance_epochs(n_per_class=6)
    entry = cross_validate(ep, "csp_lda", k_channels=None, folds=2,
                           seeds=(0, 1, 2))
    assert len(entry.fold_accuracies) == 6


def test_cross_validate_k_above_montage_is_range_error():
    with pytest.raises(RangeError):
        cross_validate(_variance_epochs(n_per_class=4), "csp_lda",
                       k_channels=9, folds=2)


def test_sweep_cells_equal_cross_validate():
    ep = _variance_epochs(n_per_class=4)
    report = sweep(ep, methods=("csp_lda",), channel_counts=(2, 4, 8, 16),
                   folds=2, seeds=(0, 1), csp_m=1)
    assert [e.k_channels for e in report.entries] == [2, 4, 8]
    for e in report.entries:
        alone = cross_validate(ep, "csp_lda", k_channels=e.k_channels,
                               folds=2, seeds=(0, 1), csp_m=1)
        assert e.fold_accuracies == alone.fold_accuracies
        np.testing.assert_array_equal(e.confusion, alone.confusion)
        assert e.config == alone.config


def test_cross_validate_unknown_method():
    with pytest.raises(ConfigError):
        cross_validate(_variance_epochs(n_per_class=4), "svm", folds=2)


def test_cross_validate_windows_stay_with_source_trial():
    # leakage control: every window of a trial lands in the fold of its
    # source trial, so test windows never share a source with training
    ep = _variance_epochs(n_per_class=6)
    folds = stratified_folds(ep.labels, 2, seed=0)
    for test_idx in folds:
        train_idx = np.setdiff1d(np.arange(ep.n_trials), test_idx)
        train_w = slide_windows(ep.select(trial_idx=train_idx))
        test_w = slide_windows(ep.select(trial_idx=test_idx))
        assert not set(train_w.source_trials) & set(test_w.source_trials)


def _noise_epochs(n_ch, labels, seed=0):
    """Float32 white-noise epochs: CSP-LDA decodes them near chance, so the
    confusion matrix fills off the diagonal too."""
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal((len(labels), n_ch, 1000)).astype(np.float32)
    return EpochSet(labels, tensor, 250, 500.0)


def _per_trial_loop_scores(ep, folds, seeds):
    """CSP-LDA cross-validation scored the way _evaluate used to: a window
    mask per test trial and {source trial: label} dicts."""
    accs = []
    confusion = np.zeros((4, 4), dtype=np.int64)
    for seed in seeds:
        for test_idx in stratified_folds(ep.labels, folds, seed=seed):
            train_idx = np.setdiff1d(np.arange(ep.n_trials), test_idx)
            test_w = slide_windows(ep.select(trial_idx=test_idx))
            clf = CspLdaClassifier().fit(
                slide_windows(ep.select(trial_idx=train_idx)))
            scores = clf.predict_scores(test_w)
            preds = {int(t): predict_trial(scores[test_w.source_trials == t])
                     for t in np.unique(test_w.source_trials)}
            truth = {int(t): int(l) for t, l in zip(
                ep.source_trials[test_idx], ep.labels[test_idx])}
            accs.append(sum(preds[t] == truth[t] for t in truth) / len(truth))
            for t in truth:
                confusion[truth[t], preds[t]] += 1
    return accs, confusion


@pytest.mark.parametrize("n_ch", [8, 64])
def test_cv_scoring_matches_the_per_trial_loop(n_ch):
    ep = _noise_epochs(n_ch, np.arange(24) % 4)
    entry = cross_validate(ep, "csp_lda", folds=3, seeds=(0, 1))
    accs, confusion = _per_trial_loop_scores(ep, folds=3, seeds=(0, 1))
    assert entry.fold_accuracies == accs
    np.testing.assert_array_equal(entry.confusion, confusion)
    assert np.trace(confusion) < confusion.sum()  # some trials are wrong


def test_cv_entry_does_not_depend_on_source_trial_ids():
    ep = _noise_epochs(8, np.arange(16) % 4)
    relabeled = EpochSet(ep.labels, ep.tensor, ep.fs, ep.t0_ms,
                         source_trials=np.random.default_rng(1).permutation(16))
    a, b = (cross_validate(e, "csp_lda", folds=2) for e in (ep, relabeled))
    assert a.fold_accuracies == b.fold_accuracies
    np.testing.assert_array_equal(a.confusion, b.confusion)


@pytest.mark.parametrize("classes", [[0, 1, 3], [1, 2, 3, 4]])
def test_cross_validate_refuses_class_ids_other_than_0_to_n(classes,
                                                            monkeypatch):
    # the confusion matrix is indexed by class id: {0, 1, 3} overran it,
    # and CSP-LDA's column indices turned every class-3 trial into a "2"
    def no_fit(*args):
        raise AssertionError("a fit ran")
    monkeypatch.setattr(harness, "_fit_cell", no_fit)
    ep = _noise_epochs(8, np.repeat(classes, 4))
    with pytest.raises(RangeError, match="^class ids must be 0..[23], got "):
        cross_validate(ep, "csp_lda", folds=2)


@pytest.mark.parametrize("folds", [2, 5])
def test_fold_rankings_match_rankings_of_the_selected_training_trials(
        small_imagery, folds, monkeypatch):
    splits = []

    def no_fit(dataset, split, cell, csp_m, train_config):
        splits.append(split)
        return np.zeros(len(split[3]), dtype=np.int64)
    monkeypatch.setattr(harness, "_fit_cell", no_fit)
    sweep(small_imagery, methods=("csp_lda",), channel_counts=(2,),
          folds=folds, seeds=(0, 1))
    assert len(splits) == 2 * folds
    for _, _, train_idx, _, ranking in splits:
        want = harness.fold_channel_ranking(
            small_imagery.select(trial_idx=train_idx))
        assert ranking.order == want.order
        assert ranking.montage == want.montage


@pytest.mark.parametrize("repeat", [
    {"channel_counts": (2, 4, 2)}, {"methods": ("csp_lda", "csp_lda")},
    {"seeds": (0, 1, 0)}])
def test_sweep_refuses_repeated_cells_and_seeds_before_any_fit(
        small_imagery, monkeypatch, repeat):
    # each repeat was fitted again: (2, 4, 2) gave a third entry, and a
    # second 2ch column in sweep.csv
    def no_fit(*args):
        raise AssertionError("a fit ran")
    monkeypatch.setattr(harness, "_fit_cell", no_fit)
    with pytest.raises(RangeError, match="^(cells|seeds) must be distinct"):
        sweep(small_imagery, **{"methods": ("csp_lda",),
                                "channel_counts": (2, 4), "folds": 2,
                                **repeat})


# ---------------------------------------------------------------------------
# Sweep and report

def test_sweep_grid_and_csv(tmp_path):
    ep = _variance_epochs(n_per_class=6)
    report = sweep(ep, methods=("csp_lda",), channel_counts=(2, 4, 8),
                   folds=2, seeds=(0,))
    assert len(report.entries) == 3
    path = tmp_path / "sweep.csv"
    report.to_csv(path, channel_counts=(2, 4, 8))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "method,2ch,4ch,8ch"
    assert lines[1].startswith("csp_lda,")
    # cells carry the mean% (±std) format
    assert "% (±" in lines[1]


def test_sweep_skips_counts_beyond_montage():
    ep = _variance_epochs(n_per_class=6)
    report = sweep(ep, methods=("csp_lda",), channel_counts=(4, 64),
                   folds=2, seeds=(0,))
    assert [e.k_channels for e in report.entries] == [4]


def test_report_json_round_trip(tmp_path):
    ep = _variance_epochs(n_per_class=6)
    report = sweep(ep, methods=("csp_lda",), channel_counts=(4,),
                   folds=2, seeds=(0,))
    path = tmp_path / "report.json"
    report.to_json(path)
    blob = json.loads(path.read_text())
    assert blob[0]["method"] == "csp_lda"
    assert blob[0]["k_channels"] == 4
    assert blob[0]["mean_pct"] == pytest.approx(
        100.0 * np.mean(blob[0]["fold_accuracies"]))


def _lookup_loop_csv(report, channel_counts) -> str:
    """EvalReport.to_csv's former loop: methods in first-seen order, one
    entry() lookup per cell, a KeyError for an empty cell."""
    methods = []
    for e in report.entries:
        if e.method not in methods:
            methods.append(e.method)
    rows = ["method," + ",".join(f"{k}ch" for k in channel_counts)]
    for m in methods:
        cells = []
        for k in channel_counts:
            try:
                cells.append(report.entry(m, k).cell())
            except KeyError:
                cells.append("")
        rows.append(m + "," + ",".join(f'"{c}"' for c in cells))
    return "\n".join(rows) + "\n"


def test_report_csv_matches_the_lookup_loop(tmp_path):
    z = np.zeros((4, 4))
    report = EvalReport([EvalEntry("csp_lda", 8, [0.5, 0.75], z),
                         EvalEntry("cnn", 8, [1.0, 0.5], z),
                         EvalEntry("csp_lda", 2, [0.25, 0.5], z)])
    for counts in [(2, 4, 8), (8,), (4,)]:
        report.to_csv(tmp_path / "sweep.csv", channel_counts=counts)
        assert (tmp_path / "sweep.csv").read_text() == _lookup_loop_csv(
            report, counts)
    assert (tmp_path / "sweep.csv").read_text() == (
        'method,4ch\ncsp_lda,""\ncnn,""\n')


def test_eval_entry_lookup():
    report = EvalReport([EvalEntry("cnn", 16, [1.0], np.zeros((4, 4)))])
    assert report.entry("cnn", 16).k_channels == 16
    with pytest.raises(KeyError):
        report.entry("cnn", 8)


# ---------------------------------------------------------------------------
# Config and manifest

def test_validate_config_missing_seed():
    with pytest.raises(ConfigError) as err:
        validate_config({"cv": {"folds": 5}})
    assert err.value.key == "seed"


def test_validate_config_unknown_key():
    with pytest.raises(ConfigError) as err:
        validate_config({"seed": 1, "bogus": {}})
    assert err.value.key == "bogus"


def test_validate_config_merges_defaults():
    cfg = validate_config({"seed": 1, "cnn": {"epochs": 2}})
    assert cfg["cnn"]["epochs"] == 2
    assert cfg["cnn"]["lr"] == DEFAULT_CONFIG["cnn"]["lr"]
    assert cfg["cv"] == DEFAULT_CONFIG["cv"]


def _cnn_config_error(**cnn):
    with pytest.raises(ConfigError) as err:
        validate_config({"seed": 1, "cnn": cnn})
    return err.value.key


def test_cnn_config_unknown_key():
    assert _cnn_config_error(epoch=1) == "cnn.epoch"
    assert _cnn_config_error(seed=3) == "cnn.seed"


def test_cnn_config_dropout_outside_unit_interval():
    assert _cnn_config_error(dropout=1.0) == "cnn.dropout"
    assert _cnn_config_error(dropout=-0.1) == "cnn.dropout"


def test_cnn_config_non_positive_lr():
    assert _cnn_config_error(lr=0.0) == "cnn.lr"
    assert _cnn_config_error(lr=-1e-3) == "cnn.lr"


def test_cnn_config_non_positive_batch_size():
    assert _cnn_config_error(batch_size=0) == "cnn.batch_size"
    assert _cnn_config_error(batch_size=8.0) == "cnn.batch_size"


def test_cnn_config_non_positive_epochs():
    assert _cnn_config_error(epochs=0) == "cnn.epochs"
    assert _cnn_config_error(epochs=True) == "cnn.epochs"


def test_cnn_config_optimizer_is_gone():
    # it had one valid value, "adam", and training never read it
    assert _cnn_config_error(optimizer="adam") == "cnn.optimizer"
    assert not hasattr(TrainConfig(), "optimizer")


def test_synth_section_must_be_an_object():
    with pytest.raises(ConfigError) as err:
        validate_config({"seed": 1, "synth": 5})
    assert err.value.key == "synth"


def test_cnn_config_section_must_be_an_object():
    with pytest.raises(ConfigError) as err:
        validate_config({"seed": 1, "cnn": 5})
    assert err.value.key == "cnn"


def test_train_config_takes_valid_cnn_section():
    cfg = validate_config({"seed": 3, "cnn": {"lr": 0.01, "dropout": 0.0}})
    tc = train_config(cfg)
    assert (tc.seed, tc.lr, tc.dropout) == (3, 0.01, 0.0)


def test_auto_downsample_factor_must_divide_fs():
    cfg = {"preprocess": {"downsample_factor": None}}
    assert downsample_factor(cfg, 250) == 1
    assert downsample_factor(cfg, 1000) == 4
    with pytest.raises(ConfigError) as err:
        downsample_factor(cfg, 1001)  # auto 4: 250.25 Hz is no integer rate
    assert err.value.key == "preprocess.downsample_factor"


def test_cnn_divergence_names_seed_fold_and_channels():
    import warnings
    ep = _variance_epochs(n_per_class=4, n_ch=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would fail here
        with pytest.raises(DivergenceError) as err:
            cross_validate(ep, "cnn", k_channels=2, folds=2, seeds=(5,),
                           train_config=TrainConfig(lr=1e30, epochs=2))
    e = err.value
    assert (e.cv_seed, e.fold, e.n_channels, e.epoch) == (5, 0, 2, 0)
    assert np.isfinite(e.last_loss)
    assert "cv seed 5, fold 0, channels 2" in str(e)


def test_cross_validate_refuses_non_finite_epochs():
    ep = _variance_epochs(n_per_class=4, n_ch=4)
    ep.tensor[5, 1, 300] = np.inf
    with pytest.raises(DegenerateInputError, match="cross-validation epochs"):
        cross_validate(ep, "csp_lda", k_channels=2, folds=2)


@pytest.mark.parametrize("method", ["csp_lda", "cnn"])
@pytest.mark.parametrize("folds", [0, 1])
def test_cross_validate_refuses_fewer_than_2_folds(folds, method):
    # 0 ended in numpy's "number sections must be larger than 0", 1 in a
    # "zero-size array to reduction operation" on the empty test fold
    ep = _variance_epochs(n_per_class=4, n_ch=4)
    with pytest.raises(RangeError, match=f"^n_folds must be an integer >= 2, "
                                         f"got {folds}$"):
        cross_validate(ep, method, folds=folds,
                       train_config=TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# CV tasks on a thread pool

def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(pool, "worker_count",
                        lambda n_tasks: min(workers, n_tasks))


def _pool_sweep(dataset, **cnn):
    return sweep(dataset, methods=("cnn", "csp_lda"), channel_counts=(2, 8),
                 folds=2, seeds=(0, 1),
                 train_config=TrainConfig(epochs=1, batch_size=16, **cnn))


def test_sweep_report_is_byte_identical_for_1_and_2_workers(
        small_imagery, monkeypatch, tmp_path):
    blobs = []
    threads = threading.enumerate()
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        _pool_sweep(small_imagery).to_json(tmp_path / f"r{workers}.json")
        assert threading.enumerate() == threads
        blobs.append((tmp_path / f"r{workers}.json").read_bytes())
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    assert [(e["method"], e["k_channels"]) for e in report] == [
        ("cnn", 2), ("cnn", 8), ("csp_lda", 2), ("csp_lda", 8)]
    assert all(len(e["fold_accuracies"]) == 4 for e in report)


def test_sweep_on_more_threads_than_cpus_matches_one_worker(small_imagery,
                                                          monkeypatch):
    # every thread reads the same epochs and splits; a fit that wrote to
    # shared state would show with more threads than CPUs and frequent
    # thread switches
    _force_workers(monkeypatch, 1)
    want = _pool_sweep(small_imagery)
    _force_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = _pool_sweep(small_imagery)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(want.entries, got.entries, strict=True):
        assert (a.method, a.k_channels) == (b.method, b.k_channels)
        assert a.fold_accuracies == b.fold_accuracies
        np.testing.assert_array_equal(a.confusion, b.confusion)


def test_pool_divergence_names_the_earliest_task_and_leaves_no_workers(
        small_imagery, monkeypatch):
    _force_workers(monkeypatch, 2)
    threads = threading.enumerate()
    with pytest.raises(DivergenceError) as err:
        _pool_sweep(small_imagery, lr=1e30)
    # k = 8 tasks start first, but (seed 0, fold 0, cnn k 2) comes first in
    # task order
    e = err.value
    assert (e.cv_seed, e.fold, e.n_channels) == (0, 0, 2)
    assert threading.enumerate() == threads


def _fail_earliest_task_last(dataset, split, cell, csp_m, train_config):
    # task (split, cell) by index: _pool_sweep's cells are cnn then csp_lda,
    # at k = 2 then 8
    task = (2 * split[0] + split[1],
            [("cnn", 2), ("cnn", 8), ("csp_lda", 2), ("csp_lda", 8)]
            .index(cell))
    if task == (0, 0):
        time.sleep(0.5)
    raise RangeError(f"task {task}")


def test_pool_raises_the_error_of_the_earliest_task(small_imagery,
                                                    monkeypatch):
    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(harness, "_fit_cell", _fail_earliest_task_last)
    threads = threading.enumerate()
    with pytest.raises(RangeError, match=r"^task \(0, 0\)$"):
        _pool_sweep(small_imagery)
    assert threading.enumerate() == threads


def _count_harness_pools(monkeypatch) -> list:
    """Route harness' ordered_map calls (the sweep's and the manifest's, not
    the other stages') through a ThreadPoolExecutor that appends to the
    returned list each time one is started."""
    started = []

    class Counting(pool.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    def harness_map(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(pool, "ThreadPoolExecutor", Counting)
            return pool.ordered_map(*args, **kwargs)
    monkeypatch.setattr(harness, "ordered_map", harness_map)
    return started


def test_csp_only_sweep_and_pipeline_pool_their_fits_with_one_workers_bytes(
        small_imagery, monkeypatch, tmp_path):
    started = _count_harness_pools(monkeypatch)
    tiny = Path(__file__).resolve().parents[1] / "configs" / "tiny.json"
    blobs = {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        started.clear()
        sweep(small_imagery, methods=("csp_lda",), channel_counts=(2, 8),
              folds=2, seeds=(0, 1)).to_json(tmp_path / f"sweep{workers}")
        assert len(started) == workers - 1
        out = tmp_path / f"run{workers}"
        # the tiny sweep is CSP-only; its fits and the manifest's hashes pool
        assert "report.json" in harness.run_pipeline(
            json.loads(tiny.read_text()), out)
        assert len(started) == 3 * (workers - 1)
        blobs[workers] = [(tmp_path / f"sweep{workers}").read_bytes(),
                          (out / "report.json").read_bytes(),
                          (out / "manifest.json").read_bytes()]
    assert blobs[1] == blobs[2]
    # one cnn cell puts the sweep on the pool
    started.clear()
    sweep(small_imagery, methods=("cnn", "csp_lda"), channel_counts=(2,),
          folds=2, train_config=TrainConfig(epochs=1, batch_size=16))
    assert len(started) == 1


def test_a_sweep_and_the_pipeline_import_no_numpy_ma(tmp_path):
    # np.unique without return_counts and np.setdiff1d call np.ma.is_masked,
    # whose first use imports numpy.ma: 15-20 ms of a fresh process
    tests = Path(__file__).resolve().parent
    code = (
        "import json, sys\n"
        "from conftest import small_spec\n"
        "from vmidecode import (TrainConfig, epoch_recording, run_pipeline,\n"
        "                       sweep, synth_dataset)\n"
        "ep = epoch_recording(synth_dataset(small_spec(n_trials_per_class=4)),"
        " 'imagery', (500, 4500))\n"
        "sweep(ep, channel_counts=(2,), folds=2,\n"
        "      train_config=TrainConfig(epochs=1, batch_size=16))\n"
        "run_pipeline(json.loads(open(sys.argv[1]).read()), sys.argv[2])\n"
        "print('numpy.ma' in sys.modules)\n")
    path = os.pathsep.join([str(tests.parent / "src"), str(tests),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tests.parent / "configs/tiny.json"),
         str(tmp_path)], capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _blas_thread_counts():
    """(get_num_threads, set_num_threads) of every OpenBLAS loaded here."""
    with open("/proc/self/maps") as f:
        paths = sorted({line.split()[-1] for line in f
                        if "openblas" in line.lower()})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        name = next(n for n in pool._BLAS_SET_THREADS if hasattr(lib, n))
        get = getattr(lib, name.replace("set_num", "get_num"))
        get.restype = ctypes.c_int
        libs.append((get, getattr(lib, name)))
    assert libs, "no OpenBLAS is loaded"
    return libs


def test_worker_blas_is_capped_at_one_thread():
    import scipy.linalg  # noqa: F401  scipy's own OpenBLAS, where it has one
    libs = _blas_thread_counts()
    before = [get() for get, _ in libs]
    try:
        for _, set_threads in libs:
            set_threads(2)
        with pool.one_blas_thread():
            assert [get() for get, _ in libs] == [1] * len(libs)
        assert [get() for get, _ in libs] == [2] * len(libs)
    finally:
        for (_, set_threads), count in zip(libs, before):
            set_threads(count)


def test_worker_count_follows_the_affinity_mask():
    cpus = len(os.sched_getaffinity(0))
    assert pool.worker_count(1) == 1
    assert pool.worker_count(10_000) == cpus


@pytest.mark.parametrize("count", ["x", 0, 2.0, None])
def test_sweep_checks_every_channel_count_before_the_montage_size(count):
    # "x" ended in a TypeError from comparing it with the montage size
    ep = _variance_epochs(n_per_class=4, n_ch=4)
    with pytest.raises(RangeError, match=rf"^k_channels must be an integer "
                                         rf">= 1, got {count!r}$"):
        sweep(ep, methods=("csp_lda",), channel_counts=(2, count), folds=2)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_synth_from_config_requires_block():
    with pytest.raises(ConfigError):
        synth_from_config(validate_config({"seed": 1}))


@pytest.mark.parametrize("key", ["n_trials_per_class", "planted_channels",
                                 "carrier_hz"])
def test_synth_from_config_names_a_missing_key(key):
    synth = {"n_trials_per_class": 2, "planted_channels": {"0": ["Fp1"]},
             "carrier_hz": {"0": 5.0}}
    del synth[key]
    cfg = validate_config({"seed": 1, "synth": synth, "cv": {"folds": 2}})
    with pytest.raises(ConfigError) as err:
        synth_from_config(cfg)
    assert (err.value.key, str(err.value)) == (f"synth.{key}",
                                               f"synth.{key} is required")


def test_synth_from_config_channels_subset():
    cfg = validate_config({
        "seed": 4,
        "synth": {"n_trials_per_class": 2,
                  "channels": ["Fp1", "Fp2", "O1", "O2"],
                  "planted_channels": {"0": ["Fp1"], "1": ["O1"]},
                  "carrier_hz": {"0": 5.0, "1": 9.0}},
        "cv": {"folds": 2},  # the default 5 folds need 5 trials per class
    })
    spec = synth_from_config(cfg)
    assert len(spec.montage) == 4
    assert spec.seed == 4


def test_manifest_lists_artifact_hashes(tmp_path):
    (tmp_path / "a.csv").write_text("x\n")
    cfg = validate_config({"seed": 1})
    write_manifest(tmp_path, cfg, ["a.csv"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert set(manifest["artifacts"]) == {"a.csv"}
    assert len(manifest["artifacts"]["a.csv"]) == 64


def test_cnn_cross_validate_smoke():
    # tiny CNN run through the harness: 2 channels keep it fast
    rng = np.random.default_rng(0)
    tensors, labels = [], []
    for c in range(4):
        x = rng.standard_normal((4, 2, 1000)) * 0.1
        x[:, 0, :] += 2.0 * (c - 1.5)
        tensors.append(x)
        labels.append(np.full(4, c))
    ep = EpochSet(np.concatenate(labels),
                  np.concatenate(tensors).astype(np.float32), 250, 500.0)
    entry = cross_validate(ep, "cnn", k_channels=None, folds=2, seeds=(0,),
                           train_config=TrainConfig(epochs=2, seed=0))
    assert len(entry.fold_accuracies) == 2
    assert entry.confusion.sum() == 16


@pytest.mark.parametrize("n_classes", [3, 5])
def test_cnn_cross_validate_has_one_output_per_class(n_classes):
    # the dense head had 4 units: 3 classes ended in an IndexError from the
    # confusion matrix, 5 in "label outside class range"
    ep = _noise_epochs(2, np.arange(4 * n_classes) % n_classes)
    entry = cross_validate(ep, "cnn", folds=2,
                           train_config=TrainConfig(epochs=1))
    assert entry.confusion.shape == (n_classes, n_classes)
    assert entry.confusion.sum() == 4 * n_classes
    clf = CnnClassifier(TrainConfig(epochs=1)).fit(slide_windows(ep))
    assert clf.net.spec.shape_trace()[-1] == n_classes
    assert clf.predict_scores(slide_windows(ep)).shape[1] == n_classes


def test_synth_spec_from_small_config_round_trip():
    spec = small_spec()
    assert spec.fs == 250
    assert spec.n_trials_per_class == 8


def test_config_error_from_a_pool_worker_keeps_key_and_message(
        small_imagery, monkeypatch):
    # an unknown method used to be refused by its own task, after the
    # split's cnn fit; now no fit starts
    def no_fit(*args):
        raise AssertionError("a fit ran")
    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(harness, "_fit_cell", no_fit)
    with pytest.raises(ConfigError) as err:
        sweep(small_imagery, methods=("cnn", "svm"), channel_counts=(2,),
              folds=2, train_config=TrainConfig(epochs=1, batch_size=16))
    assert (err.value.key, str(err.value)) == ("method",
                                               "unknown method 'svm'")


# one of each JSON type, and the edge values of the rules' ranges
JSON_VALUES = (None, True, False, 0, 1, 2, -1, 2 ** 64, 0.5, 1.0, -0.5,
               float("nan"), float("inf"), "", "2", [], [0], [1, 2],
               [0.5, 13.0], [13.0, 0.5], [[1]], ["cnn"], ["svm"], [None],
               {}, {"a": 1})


# the keys whose cross-key bounds a valid synth value can trip
SYNTH_BOUND_KEYS = {"cv.folds", "preprocess.band", "stats.band",
                    "preprocess.downsample_factor", "epoch.imagery_window_ms",
                    "epoch.rest_window_ms"}


def _config_with(name, value) -> dict:
    """{"seed": 1} with the top-level or <section>.<key> name set to value."""
    cfg = {"seed": 1}
    section, _, key = name.rpartition(".")
    if section:
        cfg[section] = {key: value}
    else:
        cfg[name] = value
    return cfg


def _named_keys(name) -> set:
    """The keys a ConfigError may name when name's value is bad."""
    return {name} | (SYNTH_BOUND_KEYS if name.startswith("synth.") else set())


def test_config_rules_take_any_json_value():
    # a rule that raised would end the CLI in a traceback, not exit 2
    for name in harness.CONFIG_RULES:
        for value in JSON_VALUES:
            try:
                validate_config(_config_with(name, value))
            except ConfigError as e:
                assert e.key in _named_keys(name), (name, value)


def test_every_key_of_a_ruled_section_is_checked():
    sections = {name.split(".")[0] for name in harness.CONFIG_RULES
                if "." in name}
    assert sections == {"preprocess", "epoch", "connectivity", "ersp", "cnn",
                        "csp", "cv", "stats", "sweep", "synth"}
    # synth's keys have no default, so a config without it stays without
    assert set(DEFAULT_CONFIG) == sections - {"synth"}
    for section in sections:
        with pytest.raises(ConfigError) as err:
            validate_config({"seed": 1, section: {"bogus": 1}})
        assert err.value.key == f"{section}.bogus"


@pytest.mark.parametrize("name, value", [
    ("cv.folds", 1), ("cv.folds", "2"), ("cv.seeds", 0), ("cv.seeds", []),
    ("cv.seeds", [-1]), ("csp.m", 0), ("stats.n_perm", 0),
    ("stats.alpha", 0), ("stats.band", [13.0, 0.5]), ("sweep.methods", []),
    ("sweep.methods", ["svm"]), ("sweep.channel_counts", [0]),
    ("cnn.lr", float("inf")), ("cnn.min_delta", 1e-4),
    ("preprocess.band", [0, 13.0]), ("preprocess.band", "ab"),
    ("preprocess.downsample_factor", 0), ("preprocess.downsample_factor", 2.0),
    ("epoch.imagery_window_ms", [-500, 4500]),
    ("epoch.imagery_window_ms", [500, 5500]), ("epoch.imagery_window_ms", "ab"),
    ("epoch.rest_window_ms", [-4500, 500]), ("epoch.rest_window_ms", [0, 0]),
    ("connectivity.threshold", "x"), ("connectivity.threshold", 1.5),
    ("ersp.channel", ""), ("ersp.channel", 3), ("ersp.f_range", "x"),
    ("ersp.f_range", [50, 3]), ("ersp.baseline_ms", [0]),
    ("ersp.baseline_ms", [-500, 100]), ("ersp.baseline_ms", [-6000, 0]),
    ("synth.channels", ["Fp1", "Fp1"]), ("synth.channels", []),
    ("synth.planted_channels", {"01": ["Fp1"]}),
    ("synth.planted_channels", {"0": []}), ("synth.planted_channels", {}),
    ("synth.carrier_hz", {"0": 0}), ("synth.carrier_hz", {0: 3.0}),
    ("synth.coupling", 0), ("synth.snr_db", float("nan"))])
def test_bad_section_value_is_config_error(name, value):
    section, key = name.split(".")
    with pytest.raises(ConfigError) as err:
        validate_config({"seed": 1, section: {key: value}})
    assert err.value.key == name


def _synth_config(synth=None, **sections):
    """A synth config of 3 trials per class at 250 Hz, 3-fold CV."""
    return {"seed": 1, "cv": {"folds": 3},
            "synth": {"n_trials_per_class": 3, "fs": 250, **(synth or {})},
            **sections}


@pytest.mark.parametrize("synth, sections, key", [
    ({"fs": "250"}, {}, "synth.fs"), ({"fs": 0}, {}, "synth.fs"),
    ({"n_trials_per_class": 2.0}, {}, "synth.n_trials_per_class"),
    ({"n_trials_per_class": 0}, {}, "synth.n_trials_per_class"),
    ({}, {"cv": {"folds": 4}}, "cv.folds"),
    ({}, {"preprocess": {"band": [0.5, 125.0]}}, "preprocess.band"),
    ({}, {"stats": {"band": [0.5, 125.5]}}, "stats.band"),
    # auto factor 4: 1000 Hz is decimated to 250 Hz
    ({"fs": 1000}, {"stats": {"band": [0.5, 126.0]}}, "stats.band"),
    ({"fs": 1000}, {"preprocess": {"downsample_factor": 2},
                    "stats": {"band": [0.5, 251.0]}}, "stats.band"),
    # auto factor 4 does not divide 1001 Hz
    ({"fs": 1001}, {}, "preprocess.downsample_factor"),
    # windows under two samples at the preprocessed 250 Hz
    ({"fs": 1000}, {"epoch": {"rest_window_ms": [-1, 0]}},
     "epoch.rest_window_ms"),
    ({}, {"epoch": {"imagery_window_ms": [0, 1]}}, "epoch.imagery_window_ms"),
    # 499 samples at the preprocessed 250 Hz, under one 2 s CNN/CSP window
    ({"fs": 1000}, {"epoch": {"imagery_window_ms": [500, 2496]}},
     "epoch.imagery_window_ms")])
def test_values_the_synth_section_rules_out_are_config_errors(synth, sections,
                                                              key):
    # these exited 3 after the earlier stages had written their artifacts,
    # and "fs": "250" passed through int()
    with pytest.raises(ConfigError) as err:
        validate_config(_synth_config(synth, **sections))
    assert err.value.key == key and key in str(err.value)


def test_synth_bounds_accept_their_edges_and_skip_input_configs():
    validate_config(_synth_config(preprocess={"band": [0.5, 124.9]},
                                  stats={"band": [0.5, 125.0]}))
    validate_config(_synth_config({"fs": 1000}, stats={"band": [0, 125]},
                                  preprocess={"band": [0.5, 499.0]}))
    validate_config(_synth_config({"fs": 1000},
                                  epoch={"rest_window_ms": [-8, 0]}))
    # exactly one 2 s CNN/CSP window of 500 samples
    validate_config(_synth_config(epoch={"imagery_window_ms": [500, 2500]}))
    validate_config({"seed": 1, "input": "rec.eegb", "cv": {"folds": 50},
                     "preprocess": {"band": [0.5, 900.0]},
                     "stats": {"band": [0.5, 900.0]}})


# the manifests' config_sha256, computed while DEFAULT_CONFIG was a literal:
# a default mistyped in CONFIG_RULES would change every manifest
MERGED_CONFIG_SHA256 = {
    "tiny": "ad02fcbf5932f5ae97d7edaf8d8059f09a595fee0c8caa0667b39cc325e7f701",
    "demo": "89a2b11e3a160a809b0bd2333d47672190e5693107153a89b75004d1db302782",
    "analysis-64ch":
        "fcb1fe05c5c3511dd7a91ad3c524a65205a4332f17212ae113b30380fd109caa",
    "cnn-64ch":
        "dca5d96459e79445e7368411253c2b9b4f49315049e23762e3ee2895e27bc959",
    "report-8ch":
        "03d614b9cc15c498b9d48cdf1b26fd27f5c96a9b93807347f10d3a6c024cbcbc",
    # every section from its defaults
    "seed-only":
        "00c1806503b5b63901465a212b4cffc4645ab2b532d119239e39bd5125decaa0",
}


@pytest.mark.parametrize("name", sorted(MERGED_CONFIG_SHA256))
def test_merged_config_hashes_are_pinned(name, tmp_path, monkeypatch):
    repo = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(repo / "perfbench"))
    import workloads
    if name in workloads.WORKLOADS:
        cfg = validate_config(
            workloads.pipeline_config(workloads.WORKLOADS[name], 1))
    elif name == "seed-only":
        cfg = validate_config({"seed": 1})
    else:
        cfg = load_config(repo / "configs" / f"{name}.json")
    write_manifest(tmp_path, cfg, [])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config_sha256"] == MERGED_CONFIG_SHA256[name]


@pytest.mark.parametrize("seed", [-1, 2 ** 64, True, 1.0, "1"])
def test_seed_must_be_an_integer_in_the_derivable_range(seed):
    with pytest.raises(ConfigError) as err:
        validate_config({"seed": seed})
    assert err.value.key == "seed"
    assert validate_config({"seed": 2 ** 64 - 1})["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("key, value", [
    ("out", 5), ("out", ""), ("out", None), ("input", 5), ("input", ["a"]),
    ("input", "")])
def test_out_and_input_must_be_non_empty_strings(key, value):
    # "input": 5 opened file descriptor 5; "out": 5 ended in a traceback
    with pytest.raises(ConfigError) as err:
        validate_config({"seed": 1, key: value})
    assert err.value.key == key
    assert validate_config({"seed": 1, key: "run/x"})[key] == "run/x"


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=6)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(harness.CONFIG_RULES)), value=JSON)
def test_any_json_value_validates_or_names_its_key(name, value):
    try:
        validate_config(_config_with(name, value))
    except ConfigError as e:
        assert e.key in _named_keys(name)


# ---------------------------------------------------------------------------
# One owner per bound: the code that enforces a key's rule refuses exactly
# what validate_config refuses for that key

def _tiny_pairs():
    rng = np.random.default_rng(0)
    return [EpochSet(np.zeros(4, int), rng.standard_normal((4, 2, 500)),
                     250, t0) for t0 in (500.0, -4500.0)]


_IMAGERY, _REST = _tiny_pairs()
_LABELS = np.repeat([0, 1], 4)
# one 17 s trial on two channels; its -5000..5000 ms around imagery onset
_RECORDING = EegRecording(
    Montage(("Cz", "Pz")), 250,
    np.random.default_rng(1).standard_normal((2, 17 * 250)), [(0, 0)])
_ONSET = epoch_recording(_RECORDING, "onset", (-5000, 5000))
_PLV = ConnectivityMatrix([[1.0, 0.95], [0.95, 1.0]], Montage(("Cz", "Pz")))


def _classes(key, value):
    """small_spec with class 0's planted_channels or carrier_hz set to value."""
    return small_spec(**{key: {**getattr(small_spec(), key), 0: value}})


# config key -> a call of the code that owns the key's rule, on one value
OWNER_CALLS = {
    **{f"cnn.{key}": lambda v, key=key: TrainConfig(**{key: v})
       for key in ("lr", "batch_size", "epochs", "dropout", "patience")},
    **{f"synth.{key}": lambda v, key=key: small_spec(**{key: v})
       for key in ("n_trials_per_class", "fs", "coupling", "snr_db")},
    "csp.m": lambda v: CspLdaClassifier(m=v),
    "cv.folds": lambda v: stratified_folds(_LABELS, v),
    "stats.n_perm": lambda v: permutation_test([1.0, 2.0, 4.0], [0, 0, 0],
                                               n_perm=v),
    "stats.alpha": lambda v: stat_map(_IMAGERY, _REST, n_perm=1, alpha=v),
    "seed": lambda v: derive_seed(v),
    "ersp.channel": lambda v: Montage((v,)),
    "synth.channels": lambda v: Montage(v),
    **{f"synth.{key}": lambda v, key=key: _classes(key, v)
       for key in ("planted_channels", "carrier_hz")},
    **{f"epoch.{phase}_window_ms": lambda v, phase=phase: epoch_recording(
        _RECORDING, phase, v) for phase in ("imagery", "rest")},
    "preprocess.band": lambda v: preprocess_recording(_RECORDING, band=v),
    "preprocess.downsample_factor": lambda v: decimation_factor(250, v),
    **{f"ersp.{key}": lambda v, key=key: ersp(_ONSET, 0, **{key: v})
       for key in ("baseline_ms", "f_range")},
    "connectivity.threshold": lambda v: strong_edges(_PLV, v),
    "stats.band": lambda v: band_power(_IMAGERY, v),
    "sweep.channel_counts": lambda v: select_channels(rank_channels([_PLV]),
                                                      v),
}
# the config value whose item or class-0 value the owner is given
CONFIG_VALUES = {"synth.planted_channels": lambda v: {"0": v},
                 "synth.carrier_hz": lambda v: {"0": v},
                 "sweep.channel_counts": lambda v: [v]}


@pytest.mark.parametrize("name", sorted(OWNER_CALLS))
def test_each_owner_refuses_exactly_what_its_config_key_refuses(name):
    for value in JSON_VALUES:
        try:
            validate_config(_config_with(
                name, CONFIG_VALUES.get(name, lambda v: v)(value)))
            config_refuses = False
        except ConfigError as e:  # a valid synth value can trip other keys
            config_refuses = e.key == name
        try:
            OWNER_CALLS[name](value)
            owner_refuses = False
        except RangeError as e:
            # an owner's checks of its data (a factor that does not divide
            # fs, a band above Nyquist or without a bin) are not the rule's
            owner_refuses = re.match(r"[\w\[\] ]+ must be .*, got ",
                                     str(e)) is not None
        except StratificationError:  # a valid count above the trials
            owner_refuses = False
        assert owner_refuses == config_refuses, (name, value)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: TrainConfig(lr=True), id="lr=True"),
    pytest.param(lambda: small_spec(fs=250.5), id="fs=250.5"),
    pytest.param(lambda: small_spec(fs=True), id="fs=True"),
    pytest.param(lambda: small_spec(coupling=True), id="coupling=True"),
    *(pytest.param(lambda m=m: cross_validate(
        _variance_epochs(n_per_class=4, n_ch=4), "csp_lda", folds=2,
        csp_m=m), id=f"csp_m={m}") for m in (0, -3, 2.5)),
    pytest.param(lambda: stratified_folds(_LABELS, 2.5), id="n_folds=2.5"),
    *(pytest.param(lambda n=n: permutation_test([1.0, 2.0, 4.0], [0, 0, 0],
                                                n_perm=n), id=f"n_perm={n}")
      for n in (2.5, True)),
    *(pytest.param(lambda s=s: synth_dataset(small_spec(seed=s)),
                   id=f"synth seed={s}") for s in (-1, 2 ** 64)),
    *(pytest.param(lambda s=s: stratified_folds(_LABELS, 2, seed=s),
                   id=f"folds seed={s}") for s in (-1, 2 ** 64, 2.7)),
    *(pytest.param(lambda t=t: strong_edges(_PLV, t), id=f"threshold={t}")
      for t in (float("nan"), 1.5, True, -1)),
    *(pytest.param(lambda k=k: cross_validate(
        _variance_epochs(n_per_class=4, n_ch=4), "csp_lda", k_channels=k,
        folds=2), id=f"k_channels={k}") for k in (2.5, True)),
    *(pytest.param(lambda hz=hz: _classes("carrier_hz", hz),
                   id=f"carrier_hz={hz}") for hz in (float("nan"), -3, 0)),
    pytest.param(lambda: _classes("planted_channels", []),
                 id="planted_channels=[]"),
    pytest.param(lambda: ersp(_ONSET, 0, f_range=(-5, 10)),
                 id="f_range=(-5, 10)"),
    pytest.param(lambda: ersp(_ONSET, 0, baseline_ms=(-500, 100)),
                 id="baseline_ms=(-500, 100)"),
    pytest.param(lambda: band_power(_IMAGERY, (True, 13)),
                 id="band_power band=(True, 13)"),
    pytest.param(lambda: bandpass(_RECORDING.data, True, 13, 250),
                 id="bandpass lo_hz=True"),
    pytest.param(lambda: epoch_recording(_RECORDING, "imagery",
                                         (float("nan"), 500)),
                 id="window_ms=(nan, 500)"),
    *(pytest.param(lambda fs=fs: EpochSet(np.zeros(2, int),
                                          np.zeros((2, 1, 500)), fs, 0.0),
                   id=f"EpochSet fs={fs}")
      for fs in (0, 250.5, True)),
])
def test_library_calls_refuse_what_the_config_refuses(call):
    # these were accepted (lr 1, fs 250.5, coupling 1, csp_m 0 and -3 fitted
    # with m = 1, seed 2.7 acted as seed 2, a threshold of NaN, 1.5 or True
    # kept no edge and -1 every pair, k_channels True ran k = 1, a NaN
    # carrier synthesized NaN samples, an EpochSet of fs True cut 2-sample
    # windows) or ended in a TypeError, an OverflowError, a bare ValueError
    # (window NaN) or numpy's reshape ValueError (EpochSet fs 0)
    with pytest.raises(RangeError, match=" must be "):
        call()


def test_csp_lda_refuses_one_channel_and_the_cnn_fits_it():
    # at one channel both CSP filters were one eigenvector: the features were
    # constant and the LDA's pooled covariance singular (LinAlgError)
    ep = _noise_epochs(4, np.arange(16) % 4)

    def run(method):
        return cross_validate(ep, method, k_channels=1, folds=2,
                              train_config=TrainConfig(epochs=1))
    with pytest.raises(RangeError,
                       match="^CSP needs at least 2 channels, got 1$"):
        run("csp_lda")
    assert run("cnn").k_channels == 1


@pytest.mark.parametrize("name", ["synth.channels", "ersp.channel"])
def test_a_channel_name_a_csv_field_cannot_hold_is_config_error(name):
    # "P,z" wrote a plv_class0.csv with 10 header fields and 9 per row
    value = ["Cz", "P,z"] if name == "synth.channels" else "P,z"
    with pytest.raises(ConfigError) as err:
        validate_config(_config_with(name, value))
    assert err.value.key == name
