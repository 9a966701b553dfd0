"""CLI subcommands, exit codes and artifact determinism."""

import json
import multiprocessing
import signal
import warnings
from pathlib import Path

import pytest

from vmidecode import harness
from vmidecode.cli import main

from conftest import die_in_worker, fail_on_alarm

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


def test_config_missing_seed(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cv": {"folds": 2}}))
    assert run("--config", cfg, "--out", tmp_path, "synth") == 2


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
    # one NaN sample in one channel used to come out as t=nan, significant=1
    from vmidecode import EegRecording, io
    assert run("--config", TINY, "--out", tmp_path, "synth") == 0
    rec = io.load_recording(tmp_path / "recording.eegb")
    data = rec.data.copy()
    data[3, 1000] = float("nan")
    io.save_recording(EegRecording(rec.montage, rec.fs, data, rec.events),
                      tmp_path / "nan.eegb")
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({**json.loads(TINY.read_text()),
                               "input": str(tmp_path / "nan.eegb")}))
    assert run("--config", cfg, "--out", tmp_path, "preprocess") == 0
    assert run("--config", cfg, "--out", tmp_path, "stats") == 3
    stat_map = tmp_path / "stat_map.csv"
    assert not stat_map.exists() or ",1\n" not in stat_map.read_text()


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


def test_stats_emits_stat_map(tiny_out):
    assert run("--config", TINY, "--out", tiny_out, "stats") == 0
    lines = (tiny_out / "stat_map.csv").read_text().strip().split("\n")
    assert lines[0] == "channel,t,p,significant"
    assert len(lines) == 9


def test_ersp_emits_map(tiny_out):
    assert run("--config", TINY, "--out", tiny_out, "ersp",
               "--channel", "Oz") == 0
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
        assert run("--config", cfg, "--out", tmp_path, "synth") == 0
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
    assert run("--config", cfg, "--out", tmp_path, "synth") == 0
    assert run("--config", cfg, "--out", tmp_path, "preprocess") == 2
    assert "preprocess.downsample_factor" in capsys.readouterr().err
    assert not (tmp_path / "preprocessed.eegb").exists()


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
    monkeypatch.setattr(harness, "_worker_count",
                        lambda n_tasks: min(2, n_tasks))
    cfg = tmp_path / "c.json"
    tiny = json.loads(TINY.read_text())
    cfg.write_text(json.dumps({**tiny, "cnn": {**tiny["cnn"], "lr": 1e30},
                               "sweep": {"channel_counts": [2, 4],
                                         "methods": ["cnn"]}}))
    assert run("--config", cfg, "--out", tmp_path, "report") == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("divergence: training diverged at epoch 0 (cv seed 0, "
                          "fold 0, channels 2); last finite loss ")
    assert multiprocessing.active_children() == []


def _nan_input_config(tmp_path) -> Path:
    """A tiny config whose input recording has one NaN sample."""
    from vmidecode import EegRecording, io
    assert run("--config", TINY, "--out", tmp_path, "synth") == 0
    rec = io.load_recording(tmp_path / "recording.eegb")
    data = rec.data.copy()
    data[3, 1000] = float("nan")
    io.save_recording(EegRecording(rec.montage, rec.fs, data, rec.events),
                      tmp_path / "nan.eegb")
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({**json.loads(TINY.read_text()),
                               "input": str(tmp_path / "nan.eegb")}))
    return cfg


@pytest.mark.parametrize("command", ["train-cnn", "train-csp", "report"])
def test_nan_recording_is_data_error(tmp_path, capsys, command):
    # train-cnn used to exit 4 (divergence), train-csp with a traceback
    cfg = _nan_input_config(tmp_path)
    if command != "report":
        assert run("--config", cfg, "--out", tmp_path, "preprocess") == 0
    capsys.readouterr()
    assert run("--config", cfg, "--out", tmp_path, command) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("data error: ") and "non-finite" in err
    assert not list(tmp_path.glob("*_model.eegb"))
    assert not (tmp_path / "report.json").exists()


def test_synth_section_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**json.loads(TINY.read_text()), "synth": 5}))
    assert run("--config", cfg, "--out", tmp_path, "synth") == 2
    err = capsys.readouterr().err
    assert "synth" in err and "Traceback" not in err
    assert not (tmp_path / "recording.eegb").exists()


def test_unknown_ersp_channel_is_config_error(tiny_out, capsys):
    assert run("--config", TINY, "--out", tiny_out, "ersp",
               "--channel", "Xx") == 2
    assert "ersp.channel" in capsys.readouterr().err
    assert not (tiny_out / "ersp_Xx.csv").exists()


def test_threads_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        run("--threads", 2, "--config", TINY, "--out", tmp_path, "synth")


@pytest.mark.parametrize("section, value", [
    ("cv", {"folds": "2"}), ("cv", {"seeds": 0}), ("stats", {"n_perm": 0}),
    ("sweep", {"bogus": 1}), ("csp", {"m": 0}), ("sweep", {"methods": ["svm"]}),
    ("stats", {"band": [[1]]})])
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


def test_dead_worker_exits_5_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "_worker_count",
                        lambda n_tasks: min(2, n_tasks))
    monkeypatch.setattr(harness, "_fit_cell", die_in_worker)
    previous = signal.signal(signal.SIGALRM, fail_on_alarm)
    signal.alarm(60)  # a hang fails the test instead of the whole run
    try:
        assert run("--config", TINY, "--out", tmp_path, "report") == 5
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("worker error: ")
    assert not (tmp_path / "report.json").exists()
    assert multiprocessing.active_children() == []
