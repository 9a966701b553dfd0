"""CLI subcommands, exit codes and artifact determinism."""

import contextlib
import io as text_io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vmidecode import pool
from vmidecode.cli import main

REPO = Path(__file__).resolve().parents[1]
TINY = REPO / "configs" / "tiny.json"


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def tiny_out(tmp_path_factory):
    """One synth + preprocess chain shared by the read-only subcommand tests."""
    out = tmp_path_factory.mktemp("tiny")
    assert run("--config", TINY, "--out", out, "synth") == 0
    assert run("--config", TINY, "--out", out, "preprocess") == 0
    return out


# ---------------------------------------------------------------------------
# Exit codes

def test_no_config_and_no_seed_is_config_error(tmp_path):
    assert run("--out", tmp_path, "synth") == 2


def test_config_missing_seed(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cv": {"folds": 2}}))
    assert run("--config", cfg, "--out", tmp_path, "synth") == 2
    # one line: it was "config error: config error: seed"
    assert capsys.readouterr().err == "config error: seed is required\n"


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "wat": 2}))
    assert run("--config", cfg, "--out", tmp_path, "synth") == 2


def test_invalid_json_config(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{broken")
    assert run("--config", cfg, "--out", tmp_path, "synth") == 2


def test_missing_input_recording_is_data_error(tmp_path):
    assert run("--config", TINY, "--out", tmp_path, "preprocess") == 3


def test_connect_before_preprocess_is_data_error(tmp_path):
    assert run("--config", TINY, "--out", tmp_path, "connect") == 3


def test_corrupt_recording_is_data_error(tmp_path):
    (tmp_path / "recording.eegb").write_bytes(b"EEGBx garbage")
    assert run("--config", TINY, "--out", tmp_path, "preprocess") == 3


def test_stats_on_nan_recording_is_data_error(tmp_path):
    # one NaN sample in one channel used to come out as t=nan, significant=1;
    # preprocess then exited 0 with the channel NaN throughout
    cfg = _nan_input_config(tmp_path)
    assert run("--config", cfg, "--out", tmp_path, "preprocess") == 3
    assert not (tmp_path / "preprocessed.eegb").exists()
    assert run("--config", cfg, "--out", tmp_path, "stats") == 3
    stat_map = tmp_path / "stat_map.csv"
    assert not stat_map.exists() or ",1\n" not in stat_map.read_text()


@pytest.mark.parametrize("command", ["preprocess", "report"])
def test_recording_with_a_malformed_event_is_data_error(tmp_path, capsys,
                                                        command):
    # an event without a label ended in a KeyError traceback
    from vmidecode.io import write_container
    src = tmp_path / "bad.eegb"
    write_container(src, {"fs": 250, "channel_names": ["Cz", "Pz"],
                          "unit": "uV", "events": [{"sample": 0}]},
                    {"data": np.zeros((2, 500), np.float32)})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**json.loads(TINY.read_text()),
                               "input": str(src)}))
    assert run("--config", cfg, "--out", tmp_path, command) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"data error: {src}: ") and "'label'" in err


# ---------------------------------------------------------------------------
# Subcommand artifacts

def test_synth_and_preprocess_artifacts(tiny_out):
    assert (tiny_out / "recording.eegb").exists()
    assert (tiny_out / "preprocessed.eegb").exists()
    manifest = json.loads((tiny_out / "manifest.json").read_text())
    assert "preprocessed.eegb" in manifest["artifacts"]


def test_connect_emits_per_class_matrices(tiny_out):
    assert run("--config", TINY, "--out", tiny_out, "connect") == 0
    for c in range(4):
        assert (tiny_out / f"plv_class{c}.csv").exists()
        assert (tiny_out / f"edges_class{c}.csv").exists()


def test_select_emits_ranking_and_channel_list(tiny_out):
    assert run("--config", TINY, "--out", tiny_out, "select", "-k", "4") == 0
    names = (tiny_out / "selected_4ch.txt").read_text().strip().split("\n")
    assert len(names) == 4
    ranking = (tiny_out / "channel_ranking.csv").read_text().strip().split("\n")
    assert ranking[0] == "rank,channel_index,channel_name,score"
    assert len(ranking) == 9  # 8 channels


@pytest.mark.parametrize("k", ["0", "-3"])
def test_select_k_below_1_is_config_error_before_any_file_is_read(
        tmp_path, capsys, k):
    # it was a data error (exit 3) after loading preprocessed.eegb, and in
    # an empty --out directory the missing file was reported instead
    assert run("--seed", 1, "--out", tmp_path, "select", "-k", k) == 2
    assert capsys.readouterr().err == (f"config error: -k must be an integer "
                                       f">= 1, got {k}\n")
    assert list(tmp_path.iterdir()) == []


def test_select_k_above_the_montage_is_data_error(tiny_out, capsys):
    # the montage is the file's: 8 channels
    assert run("--config", TINY, "--out", tiny_out, "select", "-k", "9") == 3
    assert capsys.readouterr().err.startswith("data error: k=9 outside 1..8")


def test_stats_emits_stat_map(tiny_out):
    assert run("--config", TINY, "--out", tiny_out, "stats") == 0
    lines = (tiny_out / "stat_map.csv").read_text().strip().split("\n")
    assert lines[0] == "channel,t,p,significant"
    assert len(lines) == 9


def test_ersp_emits_map(tiny_out):
    assert run("--config", TINY, "--out", tiny_out, "ersp") == 0
    lines = (tiny_out / "ersp_Oz.csv").read_text().strip().split("\n")
    assert len(lines[0].split(",")) == 401  # frequency column + 400 times


def test_psd_emits_per_class_spectra(tiny_out):
    assert run("--config", TINY, "--out", tiny_out, "psd") == 0
    for c in range(4):
        assert (tiny_out / f"psd_class{c}.csv").exists()


def test_train_csp_checkpoint(tiny_out):
    assert run("--config", TINY, "--out", tiny_out, "train-csp") == 0
    assert (tiny_out / "csp_model.eegb").exists()


def test_train_cnn_checkpoint(tiny_out):
    assert run("--config", TINY, "--out", tiny_out, "train-cnn") == 0
    from vmidecode import load_network
    net = load_network(tiny_out / "cnn_model.eegb")
    assert net.spec.n_channels == 8


def test_sweep_emits_table(tiny_out):
    assert run("--config", TINY, "--out", tiny_out, "sweep") == 0
    lines = (tiny_out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "method,2ch,4ch,8ch"
    assert (tiny_out / "report.json").exists()


# ---------------------------------------------------------------------------
# Full pipeline determinism

def test_report_manifests_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run("--config", TINY, "--out", out1, "report") == 0
    assert run("--config", TINY, "--out", out2, "report") == 0
    m1 = (out1 / "manifest.json").read_bytes()
    m2 = (out2 / "manifest.json").read_bytes()
    assert m1 == m2


@pytest.mark.parametrize("iz", ["Iz", "Iz\u00e9"])
def test_report_under_the_c_locale_writes_the_utf8_bytes(tmp_path, iz):
    # under LC_ALL=C, sweep.csv's "\u00b1" (and a channel "Iz\u00e9" at
    # plv_class0.csv) ended report in a UnicodeEncodeError traceback
    cfg = tmp_path / "c.json"
    cfg.write_text(TINY.read_text().replace('"Iz"', f'"{iz}"'),
                   encoding="utf-8")
    path = os.pathsep.join([str(REPO / "src"),
                            os.environ.get("PYTHONPATH", "")])

    def manifest(out, **env):
        proc = subprocess.run(
            [sys.executable, "-m", "vmidecode.cli", "--config", str(cfg),
             "--out", str(out), "report"], capture_output=True, timeout=600,
            env={**os.environ, "PYTHONPATH": path, **env})
        assert proc.returncode == 0, proc.stderr
        return (out / "manifest.json").read_bytes()

    assert manifest(tmp_path / "c", LC_ALL="C", PYTHONCOERCECLOCALE="0",
                    PYTHONUTF8="0") == manifest(tmp_path / "utf8",
                                                PYTHONUTF8="1")


def test_seed_override_changes_hashes(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run("--config", TINY, "--out", out1, "synth") == 0
    assert run("--config", TINY, "--seed", "8", "--out", out2, "synth") == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["artifacts"]["recording.eegb"] != m2["artifacts"]["recording.eegb"]
    assert m2["seed"] == 8


# ---------------------------------------------------------------------------
# One code path per stage

def test_stages_one_by_one_match_report(tmp_path):
    stages, full = tmp_path / "stages", tmp_path / "report"
    listed = set()
    for cmd in (["synth"], ["preprocess"], ["connect"], ["select", "-k", "8"],
                ["stats"], ["psd"], ["sweep"]):
        assert run("--config", TINY, "--out", stages, *cmd) == 0
        listed |= set(json.loads(
            (stages / "manifest.json").read_text())["artifacts"])
    assert run("--config", TINY, "--out", full, "report") == 0
    both = ({p.name for p in stages.iterdir()}
            & {p.name for p in full.iterdir()}) - {"manifest.json"}
    assert len(both) == 18
    for name in sorted(both):
        assert (stages / name).read_bytes() == (full / name).read_bytes(), name
    reported = set(json.loads((full / "manifest.json").read_text())["artifacts"])
    assert reported - listed == {"imagery_epochs.eegb", "rest_epochs.eegb"}


@pytest.mark.parametrize("factor", [0, 3, 2.5])
@pytest.mark.parametrize("command", ["preprocess", "report"])
def test_bad_downsample_factor_is_config_error(tmp_path, capsys, command,
                                               factor):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**json.loads(TINY.read_text()),
                               "preprocess": {"downsample_factor": factor}}))
    if command == "preprocess":
        # 0 and 2.5 break the rule, so synth with cfg would exit 2 too
        assert run("--config", TINY, "--out", tmp_path, "synth") == 0
    assert run("--config", cfg, "--out", tmp_path, command) == 2
    assert "preprocess.downsample_factor" in capsys.readouterr().err
    assert not (tmp_path / "preprocessed.eegb").exists()


@pytest.mark.parametrize("cnn", [{"epoch": 1}, {"dropout": 1.0},
                                 {"lr": 0}, {"batch_size": 0}, {"epochs": 0},
                                 {"optimizer": "adam"}])
def test_bad_cnn_section_is_config_error(tmp_path, capsys, cnn):
    cfg = tmp_path / "c.json"
    tiny = json.loads(TINY.read_text())
    cfg.write_text(json.dumps({**tiny, "cnn": {**tiny["cnn"], **cnn}}))
    assert run("--config", cfg, "--out", tmp_path, "report") == 2
    err = capsys.readouterr().err
    assert f"cnn.{next(iter(cnn))}" in err and "Traceback" not in err
    assert not (tmp_path / "recording.eegb").exists()


def test_auto_downsample_factor_not_dividing_fs_is_config_error(tmp_path,
                                                                capsys):
    cfg = tmp_path / "c.json"
    tiny = json.loads(TINY.read_text())
    cfg.write_text(json.dumps({**tiny, "synth": {**tiny["synth"],
                                                 "fs": 1001}}))
    # refused before synth writes a recording that preprocess would refuse
    assert run("--config", cfg, "--out", tmp_path / "out", "synth") == 2
    assert "preprocess.downsample_factor" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_divergence_exits_4_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    tiny = json.loads(TINY.read_text())
    cfg.write_text(json.dumps({**tiny, "cnn": {**tiny["cnn"], "lr": 1e30},
                               "sweep": {"channel_counts": [2],
                                         "methods": ["cnn"]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would fail here
        assert run("--config", cfg, "--out", tmp_path, "report") == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("divergence: training diverged at epoch 0 (cv seed 0, "
                          "fold 0, channels 2); last finite loss ")


def test_divergence_in_two_workers_names_the_earliest_cell(tmp_path, capsys,
                                                          monkeypatch):
    # the k = 4 fits start first; fold 0 at k = 2 still comes first in order
    monkeypatch.setattr(pool, "worker_count",
                        lambda n_tasks: min(2, n_tasks))
    cfg = tmp_path / "c.json"
    tiny = json.loads(TINY.read_text())
    cfg.write_text(json.dumps({**tiny, "cnn": {**tiny["cnn"], "lr": 1e30},
                               "sweep": {"channel_counts": [2, 4],
                                         "methods": ["cnn"]}}))
    threads = threading.enumerate()
    assert run("--config", cfg, "--out", tmp_path, "report") == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("divergence: training diverged at epoch 0 (cv seed 0, "
                          "fold 0, channels 2); last finite loss ")
    assert threading.enumerate() == threads


def _put_nan(src, dst, channel=3, sample=3200, value=float("nan")):
    """Copy the 250 Hz recording at src to dst with one sample set to value,
    by default a NaN in the first trial's imagery epoch (12.5 to 16.5 s)."""
    from vmidecode import EegRecording, io
    rec = io.load_recording(src)
    data = rec.data.copy()
    data[channel, sample] = value
    io.save_recording(EegRecording(rec.montage, rec.fs, data, rec.events), dst)


def _nan_input_config(tmp_path) -> Path:
    """A tiny config whose input recording has one NaN sample."""
    assert run("--config", TINY, "--out", tmp_path, "synth") == 0
    _put_nan(tmp_path / "recording.eegb", tmp_path / "nan.eegb")
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({**json.loads(TINY.read_text()),
                               "input": str(tmp_path / "nan.eegb")}))
    return cfg


@pytest.mark.parametrize("command", ["train-cnn", "train-csp", "report"])
def test_nan_recording_is_data_error(tmp_path, capsys, command):
    # train-cnn used to exit 4 (divergence), train-csp with a traceback;
    # preprocess now refuses a NaN input, so the train commands get theirs
    # in preprocessed.eegb
    if command == "report":
        cfg = _nan_input_config(tmp_path)
    else:
        cfg = TINY
        assert run("--config", cfg, "--out", tmp_path, "synth") == 0
        assert run("--config", cfg, "--out", tmp_path, "preprocess") == 0
        prep = tmp_path / "preprocessed.eegb"
        _put_nan(prep, prep)
    capsys.readouterr()
    assert run("--config", cfg, "--out", tmp_path, command) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("data error: ") and "non-finite" in err
    assert not list(tmp_path.glob("*_model.eegb"))
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("keys", [["0", "1", "3"], ["1", "2", "3", "4"]])
def test_class_ids_other_than_0_to_n_are_data_error(tmp_path, capsys, keys):
    # these ended in an IndexError traceback from the confusion matrix
    tiny = json.loads(TINY.read_text())
    planted = list(tiny["synth"]["planted_channels"].values())
    carriers = list(tiny["synth"]["carrier_hz"].values())
    tiny["synth"]["planted_channels"] = dict(zip(keys, planted))
    tiny["synth"]["carrier_hz"] = dict(zip(keys, carriers))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(tiny))
    assert run("--config", cfg, "--out", tmp_path, "report") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("data error: class ids must be 0..")
    assert not (tmp_path / "report.json").exists()


def test_three_class_cnn_report_has_a_3_by_3_confusion(tmp_path, capsys):
    # the 4-unit dense head ended this report in an IndexError traceback
    tiny = json.loads(TINY.read_text())
    for key in ("planted_channels", "carrier_hz"):
        tiny["synth"][key] = {c: tiny["synth"][key][c] for c in "012"}
    tiny["sweep"] = {"channel_counts": [2, 8], "methods": ["cnn"]}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(tiny))
    assert run("--config", cfg, "--out", tmp_path, "report") == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert [e["k_channels"] for e in report] == [2, 8]
    for e in report:
        assert np.asarray(e["confusion"]).shape == (3, 3)
        assert np.sum(e["confusion"]) == 9


@pytest.mark.parametrize("key", ["out", "input"])
def test_non_string_out_or_input_is_config_error(tmp_path, capsys, key):
    # "out": 5 ended synth in a TypeError traceback; "input": 5 made
    # preprocess read file descriptor 5
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**json.loads(TINY.read_text()), key: 5}))
    assert run("--config", cfg, "--out", tmp_path / "o", "preprocess") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"config error: {key} ")
    assert not (tmp_path / "o").exists()


def test_synth_section_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**json.loads(TINY.read_text()), "synth": 5}))
    assert run("--config", cfg, "--out", tmp_path, "synth") == 2
    err = capsys.readouterr().err
    assert "synth" in err and "Traceback" not in err
    assert not (tmp_path / "recording.eegb").exists()


def test_unknown_ersp_channel_is_config_error(tiny_out, capsys):
    cfg = tiny_out / "c.json"
    cfg.write_text(json.dumps({**json.loads(TINY.read_text()),
                               "ersp": {"channel": "Xx"}}))
    assert run("--config", cfg, "--out", tiny_out, "ersp") == 2
    assert "ersp.channel" in capsys.readouterr().err
    assert not (tiny_out / "ersp_Xx.csv").exists()


def test_ersp_channel_flag_is_gone(tiny_out):
    # ersp.channel in the config is the one way to choose the channel
    with pytest.raises(SystemExit):
        run("--config", TINY, "--out", tiny_out, "ersp", "--channel", "Oz")


def test_threads_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        run("--threads", 2, "--config", TINY, "--out", tmp_path, "synth")


@pytest.mark.parametrize("section, value", [
    ("cv", {"folds": "2"}), ("cv", {"seeds": 0}), ("stats", {"n_perm": 0}),
    ("sweep", {"bogus": 1}), ("csp", {"m": 0}), ("sweep", {"methods": ["svm"]}),
    ("stats", {"band": [[1]]}), ("preprocess", {"band": "ab"}),
    ("epoch", {"imagery_window_ms": "ab"}), ("connectivity", {"threshold": "x"}),
    ("ersp", {"f_range": "x"}), ("ersp", {"baseline_ms": [0]}),
    ("cv", {"folds": 4}), ("stats", {"band": [0.5, 200]}),
    ("preprocess", {"band": [0.5, 200]}), ("synth", {"fs": "250"}),
    ("cnn", {"min_delta": 1e-4}),
    # synth values that ended in tracebacks (the first seven), in exit 3,
    # or in exit 0 with the key ignored or a recording 7 % non-finite
    ("synth", {"coupling": "abc"}), ("synth", {"snr_db": "x"}),
    ("synth", {"carrier_hz": {"0": "a", "1": 6.0, "2": 9.0, "3": 12.0}}),
    ("synth", {"planted_channels": {"x": ["Fp1"]}}),
    ("synth", {"carrier_hz": 5}), ("synth", {"planted_channels": ["Fp1"]}),
    ("synth", {"channels": 5}), ("synth", {"coupling": 2}),
    ("synth", {"bogus": 1}), ("synth", {"snr_db": float("inf")}),
    # windows under two samples: report wrote 13 or 4 artifacts first
    ("epoch", {"rest_window_ms": [-1, 0]}),
    ("epoch", {"imagery_window_ms": [0, 1]}),
    # imagery windows under one 2 s CNN/CSP window (500 samples): report
    # exited 3 at sweep after 18 artifacts (375 samples), or at connect
    # after 4 (3 samples, under the analytic signal's 4)
    ("epoch", {"imagery_window_ms": [500, 2000]}),
    ("epoch", {"imagery_window_ms": [0, 12]}),
    # a name no CSV field can hold: report wrote rows one field short
    ("synth", {"channels": ["Fp1", "Fp2", "Cz", "Pz", "O1", "O2", "Oz",
                            "Iz", "P,z"]}),
    # a repeated seed or cell was fitted again, and a repeated count gave
    # sweep.csv a second column of that count
    ("cv", {"seeds": [0, 1, 0]}), ("sweep", {"channel_counts": [2, 2]}),
    ("sweep", {"methods": ["cnn", "cnn"]})])
def test_bad_section_value_exits_2_before_any_stage(tmp_path, capsys, section,
                                                   value):
    # these ended in a traceback, in exit 3 after the earlier stages, in exit
    # 2 after every other stage, or in exit 0 with the value ignored
    cfg = tmp_path / "c.json"
    tiny = json.loads(TINY.read_text())
    cfg.write_text(json.dumps({**tiny,
                               section: {**tiny.get(section, {}), **value}}))
    assert run("--config", cfg, "--out", tmp_path / "out", "report") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert f"{section}.{next(iter(value))}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where, seed", [
    ("file", -1), ("file", 2 ** 64), ("file", True), ("flag", -1),
    ("flag", 2 ** 64)])
def test_bad_seed_exits_2(tmp_path, capsys, where, seed):
    # -1 and 2 ** 64 ended in an OverflowError traceback
    cfg = tmp_path / "c.json"
    tiny = json.loads(TINY.read_text())
    flag = ["--seed", seed] if where == "flag" else []
    if where == "file":
        tiny["seed"] = seed
    cfg.write_text(json.dumps(tiny))
    assert run("--config", cfg, *flag, "--out", tmp_path / "out",
               "report") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: seed ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epoch", [{"rest_window_ms": [-1, 0]},
                                   {"imagery_window_ms": [0, 1]}])
def test_window_under_two_samples_of_an_input_is_data_error(tmp_path, capsys,
                                                           epoch):
    # report ended in a numpy ValueError traceback after 13 artifacts, or in
    # exit 3 at PLV after 4
    assert run("--config", TINY, "--out", tmp_path, "synth") == 0
    tiny = json.loads(TINY.read_text())
    del tiny["synth"]  # with it, the window is refused as a config error
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**tiny, "epoch": epoch,
                               "input": str(tmp_path / "recording.eegb")}))
    capsys.readouterr()
    assert run("--config", cfg, "--out", tmp_path / "out", "report") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("data error: window ") and "needs at least 2" in err
    assert not list((tmp_path / "out").glob("*_epochs.eegb"))


@pytest.mark.parametrize("rest, error", [
    ([-8, 0], "Welch segments need 3 samples, got 2"),
    ([-76, 0], "band [0.5, 13.0) Hz holds no Welch bin")])
def test_rest_window_without_a_band_bin_is_data_error(tmp_path, capsys, rest,
                                                      error):
    # 2 or 19 rest samples have no Welch bin in 0.5-13 Hz: the empty band
    # summed to 0 and every channel came out significant, unplanted ones too
    tiny = json.loads(TINY.read_text())
    for c, name in zip("0123", ("Fp1", "O1", "Cz", "Oz")):
        tiny["synth"]["planted_channels"][c] = [name]
    tiny["epoch"] = {"rest_window_ms": rest}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(tiny))
    assert run("--config", cfg, "--out", tmp_path, "synth") == 0
    assert run("--config", cfg, "--out", tmp_path, "preprocess") == 0
    capsys.readouterr()
    assert run("--config", cfg, "--out", tmp_path, "stats") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"data error: {error}")
    assert not (tmp_path / "stat_map.csv").exists()


def test_csp_lda_sweep_at_one_channel_exits_3_in_one_line(tmp_path):
    # the config validated, then report ended in numpy's LinAlgError
    # traceback (exit 1): one channel gives CSP-LDA constant features
    tiny = json.loads(TINY.read_text())
    tiny["sweep"] = {"channel_counts": [1], "methods": ["csp_lda"]}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(tiny))
    path = os.pathsep.join([str(REPO / "src"),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "vmidecode.cli", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "report"], capture_output=True,
        text=True, timeout=600, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (
        3, "data error: CSP needs at least 2 channels, got 1\n")


@pytest.mark.parametrize("f_range", [[200, 300], [3.1, 3.2]])
def test_ersp_range_without_a_bin_is_data_error(tiny_out, tmp_path, capsys,
                                                f_range):
    # the map was written with its time header and no frequency rows; 256-
    # sample frames at 250 Hz have bins 0.98 Hz apart, none in [3.1, 3.2]
    tiny = json.loads(TINY.read_text())
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**tiny, "ersp": {"f_range": f_range}}))
    (tiny_out / "ersp_Oz.csv").unlink(missing_ok=True)
    assert run("--config", cfg, "--out", tiny_out, "ersp") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"data error: f_range {f_range} Hz holds no STFT")
    assert not (tiny_out / "ersp_Oz.csv").exists()


# every subcommand that reads the file, the input recording through report
READERS = ([("recording.eegb", c) for c in ("preprocess", "report")]
           + [("preprocessed.eegb", c) for c in (
               "connect", "select", "stats", "ersp", "psd", "train-cnn",
               "train-csp", "sweep")])


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(reader=st.sampled_from(READERS),
       value=st.sampled_from([float("nan"), float("inf"), -float("inf")]),
       channel=st.integers(0, 7), trial=st.integers(0, 11),
       # within every trial's imagery epoch, which every reader cuts
       sample=st.integers(round(12.5 * 250), round(16.5 * 250) - 1))
def test_non_finite_sample_exits_3_with_one_line(tiny_out, reader, value,
                                                 channel, trial, sample):
    name, command = reader
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        _put_nan(tiny_out / name, out / name, channel,
                 trial * 17 * 250 + sample, value)
        cfg = TINY
        if command == "report":
            cfg = out / "c.json"
            cfg.write_text(json.dumps({**json.loads(TINY.read_text()),
                                       "input": str(out / name)}))
        err = text_io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run("--config", cfg, "--out", out, command) == 3
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("data error: ")
        assert "non-finite" in err.getvalue()
        assert not (out / "stat_map.csv").exists()
