"""Cross-validation harness, sweep reporting and config handling."""

import ctypes
import json
import multiprocessing
import os
import pickle
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from vmidecode import harness
from vmidecode import (EpochSet, EvalEntry, EvalReport, TrainConfig,
                       cross_validate, format_cell, stratified_folds, sweep)
from vmidecode.errors import (ConfigError, DegenerateInputError,
                              DivergenceError, RangeError,
                              StratificationError)
from vmidecode.harness import (DEFAULT_CONFIG, downsample_factor, load_config,
                               synth_from_config, train_config,
                               validate_config, write_manifest)

from conftest import die_in_worker, fail_on_alarm, small_spec


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
    from vmidecode import slide_windows
    ep = _variance_epochs(n_per_class=6)
    folds = stratified_folds(ep.labels, 2, seed=0)
    for test_idx in folds:
        train_idx = np.setdiff1d(np.arange(ep.n_trials), test_idx)
        train_w = slide_windows(ep.select(trial_idx=train_idx))
        test_w = slide_windows(ep.select(trial_idx=test_idx))
        assert not set(train_w.source_trials) & set(test_w.source_trials)


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


# ---------------------------------------------------------------------------
# CV tasks in a process pool

def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(harness, "_worker_count",
                        lambda n_tasks: min(workers, n_tasks))


def _pool_sweep(dataset, **cnn):
    return sweep(dataset, methods=("cnn", "csp_lda"), channel_counts=(2, 8),
                 folds=2, seeds=(0, 1),
                 train_config=TrainConfig(epochs=1, batch_size=16, **cnn))


def test_sweep_report_is_byte_identical_for_1_and_2_workers(
        small_imagery, monkeypatch, tmp_path):
    blobs = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        _pool_sweep(small_imagery).to_json(tmp_path / f"r{workers}.json")
        assert multiprocessing.active_children() == []
        blobs.append((tmp_path / f"r{workers}.json").read_bytes())
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    assert [(e["method"], e["k_channels"]) for e in report] == [
        ("cnn", 2), ("cnn", 8), ("csp_lda", 2), ("csp_lda", 8)]
    assert all(len(e["fold_accuracies"]) == 4 for e in report)


def test_pool_divergence_names_the_earliest_task_and_leaves_no_workers(
        small_imagery, monkeypatch):
    _force_workers(monkeypatch, 2)
    with pytest.raises(DivergenceError) as err:
        _pool_sweep(small_imagery, lr=1e30)
    # k = 8 tasks start first, but (seed 0, fold 0, cnn k 2) comes first in
    # task order
    e = err.value
    assert (e.cv_seed, e.fold, e.n_channels) == (0, 0, 2)
    assert multiprocessing.active_children() == []


def _fail_earliest_task_last(plan, task):
    if task == (0, 0):
        time.sleep(0.5)
    raise RangeError(f"task {task}")


def test_pool_raises_the_error_of_the_earliest_task(small_imagery,
                                                    monkeypatch):
    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(harness, "_fit_cell", _fail_earliest_task_last)
    with pytest.raises(RangeError, match=r"^task \(0, 0\)$"):
        _pool_sweep(small_imagery)
    assert multiprocessing.active_children() == []


def test_dead_worker_is_broken_process_pool(small_imagery, monkeypatch):
    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(harness, "_fit_cell", die_in_worker)
    previous = signal.signal(signal.SIGALRM, fail_on_alarm)
    signal.alarm(60)  # a hang fails the test instead of the whole run
    try:
        with pytest.raises(BrokenProcessPool):
            _pool_sweep(small_imagery)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def _blas_threads_after_cap():
    """In a worker: OpenBLAS threads after asking for 2, then capping."""
    with open("/proc/self/maps") as f:
        path = next(line.split()[-1] for line in f
                    if "openblas" in line.lower())
    lib = ctypes.CDLL(path)
    name = next(n for n in harness._BLAS_SET_THREADS if hasattr(lib, n))
    getattr(lib, name)(2)
    harness._one_blas_thread()
    get = getattr(lib, name.replace("set_num_threads", "get_num_threads"))
    get.restype = ctypes.c_int
    return get()


def test_worker_blas_is_capped_at_one_thread():
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")) as pool:
        assert pool.submit(_blas_threads_after_cap).result(timeout=60) == 1


def test_worker_count_follows_the_affinity_mask():
    cpus = len(os.sched_getaffinity(0))
    assert harness._worker_count(1) == 1
    assert harness._worker_count(10_000) == cpus


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)


def test_synth_from_config_requires_block():
    with pytest.raises(ConfigError):
        synth_from_config(validate_config({"seed": 1}))


def test_synth_from_config_channels_subset():
    cfg = validate_config({
        "seed": 4,
        "synth": {"n_trials_per_class": 2,
                  "channels": ["Fp1", "Fp2", "O1", "O2"],
                  "planted_channels": {"0": ["Fp1"], "1": ["O1"]},
                  "carrier_hz": {"0": 5.0, "1": 9.0}},
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


def test_synth_spec_from_small_config_round_trip():
    spec = small_spec()
    assert spec.fs == 250
    assert spec.n_trials_per_class == 8


def test_config_error_from_a_pool_worker_keeps_key_and_message(
        small_imagery, monkeypatch):
    # unpickled from its message alone it read "config error: unknown ..."
    _force_workers(monkeypatch, 2)
    with pytest.raises(ConfigError) as err:
        sweep(small_imagery, methods=("svm",), channel_counts=(2, 8), folds=2)
    assert (err.value.key, str(err.value)) == ("method",
                                               "unknown method 'svm'")
    assert multiprocessing.active_children() == []


def test_config_error_pickle_round_trip():
    for e in (ConfigError("cnn.lr", "cnn.lr must be a number > 0, got 0"),
              ConfigError("seed")):
        back = pickle.loads(pickle.dumps(e))
        assert (type(back), back.key, str(back)) == (ConfigError, e.key,
                                                      str(e))


# one of each JSON type, and the edge values of the rules' ranges
JSON_VALUES = (None, True, False, 0, 1, 2, -1, 2 ** 64, 0.5, 1.0, -0.5,
               float("nan"), float("inf"), "", "2", [], [0], [1, 2],
               [0.5, 13.0], [13.0, 0.5], [[1]], ["cnn"], ["svm"], [None],
               {}, {"a": 1})


def test_config_rules_take_any_json_value():
    # a rule that raised would end the CLI in a traceback, not exit 2
    for name in harness.CONFIG_RULES:
        section, key = name.split(".")
        for value in JSON_VALUES:
            try:
                validate_config({"seed": 1, section: {key: value}})
            except ConfigError as e:
                assert e.key == name, (name, value)


def test_every_key_of_a_ruled_section_is_checked():
    sections = {name.split(".")[0] for name in harness.CONFIG_RULES}
    assert sections == {"cnn", "csp", "cv", "stats", "sweep"}
    for section in sections:
        defaults = {**DEFAULT_CONFIG[section], **(
            {"min_delta": 1e-4} if section == "cnn" else {})}
        assert {f"{section}.{k}" for k in defaults} == {
            n for n in harness.CONFIG_RULES if n.startswith(section + ".")}
        with pytest.raises(ConfigError) as err:
            validate_config({"seed": 1, section: {"bogus": 1}})
        assert err.value.key == f"{section}.bogus"


@pytest.mark.parametrize("name, value", [
    ("cv.folds", 1), ("cv.folds", "2"), ("cv.seeds", 0), ("cv.seeds", []),
    ("cv.seeds", [-1]), ("csp.m", 0), ("stats.n_perm", 0),
    ("stats.alpha", 0), ("stats.band", [13.0, 0.5]), ("sweep.methods", []),
    ("sweep.methods", ["svm"]), ("sweep.channel_counts", [0]),
    ("cnn.lr", float("inf"))])
def test_bad_section_value_is_config_error(name, value):
    section, key = name.split(".")
    with pytest.raises(ConfigError) as err:
        validate_config({"seed": 1, section: {key: value}})
    assert err.value.key == name


@pytest.mark.parametrize("seed", [-1, 2 ** 64, True, 1.0, "1"])
def test_seed_must_be_an_integer_in_the_derivable_range(seed):
    with pytest.raises(ConfigError) as err:
        validate_config({"seed": seed})
    assert err.value.key == "seed"
    assert validate_config({"seed": 2 ** 64 - 1})["seed"] == 2 ** 64 - 1
