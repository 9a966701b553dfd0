"""Cross-validation harness, sweep reporting and config handling."""

import json

import numpy as np
import pytest

from vmidecode import (EpochSet, EvalEntry, EvalReport, TrainConfig,
                       cross_validate, format_cell, stratified_folds, sweep)
from vmidecode.errors import (ConfigError, DivergenceError, RangeError,
                              StratificationError)
from vmidecode.harness import (DEFAULT_CONFIG, downsample_factor, load_config,
                               synth_from_config, train_config,
                               validate_config, write_manifest)

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
