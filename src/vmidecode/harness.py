"""Cross-validation, channel-count sweeps and the reproducible pipeline.

Leakage control: channel ranking is recomputed on training folds only,
sliding-window augmentation happens after the fold split, and all windows
of a trial stay in the fold of their source trial.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import connectivity as conn_mod
from . import dsp, io, stats
from .core import (EegRecording, EpochSet, Montage, SynthSpec,
                   epoch_recording, synth_dataset)
from .csp import CspLdaClassifier, save_csp_lda
from .errors import (ConfigError, DivergenceError, RangeError,
                     StratificationError)
from .neural import (CnnClassifier, TrainConfig, predict_trial, save_network,
                     slide_windows)
from .seeding import child_rng

CHANNEL_COUNTS = (2, 4, 8, 16, 20, 32, 64)


def format_cell(mean_pct: float, std_pct: float) -> str:
    """Accuracy cell in the report table style, e.g. '67.50% (±1.52)'."""
    return f"{mean_pct:.2f}% (±{std_pct:.2f})"


@dataclass
class EvalEntry:
    method: str
    k_channels: int
    fold_accuracies: list
    confusion: np.ndarray
    config: dict = field(default_factory=dict)

    @property
    def mean_pct(self) -> float:
        return float(np.mean(self.fold_accuracies) * 100.0)

    @property
    def std_pct(self) -> float:
        return float(np.std(self.fold_accuracies) * 100.0)

    def cell(self) -> str:
        return format_cell(self.mean_pct, self.std_pct)


@dataclass
class EvalReport:
    entries: list = field(default_factory=list)

    def entry(self, method: str, k_channels: int) -> EvalEntry:
        for e in self.entries:
            if e.method == method and e.k_channels == k_channels:
                return e
        raise KeyError((method, k_channels))

    def to_csv(self, path, channel_counts=None) -> None:
        """Rows = methods, columns = channel counts, cells = 'mean% (±std)'."""
        if channel_counts is None:
            channel_counts = sorted({e.k_channels for e in self.entries})
        methods = []
        for e in self.entries:
            if e.method not in methods:
                methods.append(e.method)
        rows = ["method," + ",".join(f"{k}ch" for k in channel_counts)]
        for m in methods:
            cells = []
            for k in channel_counts:
                try:
                    cells.append(self.entry(m, k).cell())
                except KeyError:
                    cells.append("")
            rows.append(m + "," + ",".join(f'"{c}"' for c in cells))
        with open(path, "w") as f:
            f.write("\n".join(rows) + "\n")

    def to_json(self, path) -> None:
        blob = []
        for e in self.entries:
            blob.append({
                "method": e.method,
                "k_channels": e.k_channels,
                "fold_accuracies": [float(a) for a in e.fold_accuracies],
                "mean_pct": e.mean_pct,
                "std_pct": e.std_pct,
                "confusion": e.confusion.tolist(),
                "config": e.config,
            })
        with open(path, "w") as f:
            json.dump(blob, f, indent=2, sort_keys=True)


def stratified_folds(labels, n_folds: int, seed: int = 0) -> list:
    """Deterministic stratified fold assignment; returns a list of index arrays."""
    labels = np.asarray(labels)
    rng = child_rng(seed, "folds")
    folds = [[] for _ in range(n_folds)]
    for c in np.unique(labels):
        idx = np.nonzero(labels == c)[0]
        if idx.size < n_folds:
            raise StratificationError(
                f"class {c} has {idx.size} trials for {n_folds} folds"
            )
        idx = rng.permutation(idx)
        for f, chunk in enumerate(np.array_split(idx, n_folds)):
            folds[f].extend(chunk.tolist())
    return [np.sort(np.asarray(f)) for f in folds]


def _make_classifier(method: str, seed: int, csp_m: int,
                     train_config: TrainConfig):
    if method == "cnn":
        return CnnClassifier(replace(train_config or TrainConfig(), seed=seed))
    if method == "csp_lda":
        return CspLdaClassifier(m=csp_m)
    raise ConfigError("method", f"unknown method {method!r}")


def _trial_predictions(clf, test_windows: EpochSet) -> dict:
    """Map source trial id -> predicted class from mean window scores."""
    scores = clf.predict_scores(test_windows)
    preds = {}
    for trial in np.unique(test_windows.source_trials):
        mask = test_windows.source_trials == trial
        preds[int(trial)] = predict_trial(scores[mask])
    return preds


def fold_channel_ranking(train_epochs: EpochSet):
    """Train-fold-only channel ranking from per-class PLV matrices."""
    per_class = conn_mod.per_class_plv(train_epochs)
    return conn_mod.rank_channels(per_class.values())


def _evaluate(dataset: EpochSet, cells: list, folds: int, seeds, csp_m: int,
              train_config: TrainConfig, win_s: float = 2.0,
              overlap: float = 0.5) -> list:
    """One EvalEntry per (method, k_channels) cell, all on the same folds.

    k_channels None means the full montage. Each fold's channel ranking is
    computed once, on its training trials, and shared by every cell.
    """
    n_ch = dataset.n_channels
    cells = [(m, n_ch if k is None else k) for m, k in cells]
    if any(k > n_ch for _, k in cells):
        raise RangeError(f"k_channels {max(k for _, k in cells)} "
                         f"exceeds montage")
    n_classes = len(np.unique(dataset.labels))
    accs = [[] for _ in cells]
    confusion = [np.zeros((n_classes,) * 2, dtype=np.int64) for _ in cells]
    for seed in seeds:
        for fold, test_idx in enumerate(
                stratified_folds(dataset.labels, folds, seed=seed)):
            train_idx = np.setdiff1d(np.arange(dataset.n_trials), test_idx)
            train_all = dataset.select(trial_idx=train_idx)
            test_all = dataset.select(trial_idx=test_idx)
            truth = {int(t): int(l) for t, l in
                     zip(test_all.source_trials, test_all.labels)}
            ranking = (fold_channel_ranking(train_all)
                       if any(k < n_ch for _, k in cells) else None)
            for i, (method, k) in enumerate(cells):
                train_ep, test_ep = train_all, test_all
                if k < n_ch:
                    sel = conn_mod.select_channels(ranking, k)
                    train_ep = train_ep.select(channel_idx=sel)
                    test_ep = test_ep.select(channel_idx=sel)
                train_w = slide_windows(train_ep, win_s=win_s, overlap=overlap)
                test_w = slide_windows(test_ep, win_s=win_s, overlap=overlap)
                clf = _make_classifier(method, seed, csp_m, train_config)
                try:
                    preds = _trial_predictions(clf.fit(train_w), test_w)
                except DivergenceError as e:
                    e.cv_seed, e.fold = seed, fold
                    raise
                accs[i].append(sum(preds[t] == truth[t] for t in truth)
                               / len(truth))
                for t in truth:
                    confusion[i][truth[t], preds[t]] += 1
    config = {"folds": folds, "seeds": list(seeds), "csp_m": csp_m,
              "win_s": win_s, "overlap": overlap}
    return [EvalEntry(m, int(k), a, c, config=dict(config))
            for (m, k), a, c in zip(cells, accs, confusion)]


def cross_validate(dataset: EpochSet, method: str, k_channels: int = None,
                   folds: int = 5, seeds=(0,), csp_m: int = 2,
                   train_config: TrainConfig = None, win_s: float = 2.0,
                   overlap: float = 0.5) -> EvalEntry:
    """Stratified cross-validation with in-fold channel selection.

    k_channels=None (or the full montage) skips selection. seeds re-run the
    whole CV with fresh fold shuffles and model seeds; the reported spread
    is over folds x seeds.
    """
    return _evaluate(dataset, [(method, k_channels)], folds, seeds, csp_m,
                     train_config, win_s, overlap)[0]


def sweep(dataset: EpochSet, methods=("cnn", "csp_lda"),
          channel_counts=CHANNEL_COUNTS, folds: int = 5, seeds=(0,),
          csp_m: int = 2, train_config: TrainConfig = None) -> EvalReport:
    """Full method x channel-count grid; rankings are shared across cells."""
    counts = [k for k in channel_counts if k <= dataset.n_channels]
    return EvalReport(_evaluate(dataset, [(m, k) for m in methods
                                          for k in counts],
                                folds, seeds, csp_m, train_config))


# ---------------------------------------------------------------------------
# Config-driven pipeline

DEFAULT_CONFIG = {
    "preprocess": {"band": [0.5, 13.0], "downsample_factor": None},
    "epoch": {"imagery_window_ms": [500, 4500],
              "rest_window_ms": [-4500, -500]},
    "connectivity": {"threshold": 0.9},
    "stats": {"band": [0.5, 13.0], "n_perm": 10000, "alpha": 0.01},
    "ersp": {"channel": "Oz", "baseline_ms": [-500, 0], "f_range": [3, 50]},
    "cnn": {"lr": 1e-3, "batch_size": 16, "epochs": 100, "dropout": 0.5,
            "patience": 10},
    "csp": {"m": 2},
    "cv": {"folds": 5, "seeds": [0]},
    "sweep": {"channel_counts": list(CHANNEL_COUNTS),
              "methods": ["cnn", "csp_lda"]},
}


def load_config(path) -> dict:
    with open(path) as f:
        try:
            cfg = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError("<file>", f"config is not valid JSON: {e}") from e
    return validate_config(cfg)


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    if "seed" not in cfg:
        raise ConfigError("seed")
    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed", "seed must be an integer")
    known = {"seed", "out", "synth", "input", "preprocess", "epoch",
             "connectivity", "stats", "ersp", "cnn", "csp", "cv", "sweep"}
    for key in cfg:
        if key not in known:
            raise ConfigError(key, f"unknown config key {key!r}")
    merged = {}
    for key, default in DEFAULT_CONFIG.items():
        if not isinstance(cfg.get(key, {}), dict):
            raise ConfigError(key, f"config key {key!r} must be an object")
        merged[key] = {**default, **cfg.get(key, {})}
    merged["seed"] = cfg["seed"]
    for key in ("out", "synth", "input"):
        if key in cfg:
            merged[key] = cfg[key]
    train_config(merged)  # a bad cnn section fails before any stage runs
    return merged


def synth_from_config(cfg: dict) -> SynthSpec:
    s = cfg.get("synth")
    if s is None:
        raise ConfigError("synth")
    montage = (Montage(tuple(s["channels"])) if "channels" in s
               else Montage.default())
    try:
        return SynthSpec(
            n_trials_per_class=s["n_trials_per_class"],
            montage=montage,
            planted_channels={int(k): v for k, v in s["planted_channels"].items()},
            carrier_hz={int(k): float(v) for k, v in s["carrier_hz"].items()},
            coupling=float(s.get("coupling", 1.0)),
            snr_db=float(s.get("snr_db", 10.0)),
            seed=cfg["seed"],
            fs=int(s.get("fs", 250)),
        )
    except KeyError as e:
        raise ConfigError(f"synth.{e.args[0]}") from e


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, cfg: dict, artifacts: list) -> str:
    """Write manifest.json listing config hash, seed and artifact hashes."""
    import vmidecode
    out_dir = str(out_dir)
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "seed": cfg.get("seed"),
        "versions": {"vmidecode": vmidecode.__version__,
                     "numpy": np.__version__},
        "artifacts": {name: sha256_file(f"{out_dir}/{name}")
                      for name in sorted(artifacts)},
    }
    path = f"{out_dir}/manifest.json"
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# Pipeline stages. Each takes in-memory inputs, writes its artifacts through
# emit(name) -> path, and returns what the next stage needs. run_pipeline
# chains them; each CLI subcommand loads its inputs and calls one.

def emitter(out_dir, artifacts: list):
    """emit(name): record name in artifacts and return its path in out_dir."""
    def emit(name):
        artifacts.append(name)
        return os.path.join(str(out_dir), name)
    return emit


# cnn.<key> -> (value kind, validity test, what a valid value is)
CNN_RULES = {
    "lr": (float, lambda v: v > 0, "a number > 0"),
    "batch_size": (int, lambda v: v >= 1, "an integer >= 1"),
    "epochs": (int, lambda v: v >= 1, "an integer >= 1"),
    "dropout": (float, lambda v: 0 <= v < 1, "a number in [0, 1)"),
    "patience": (int, lambda v: v >= 1, "an integer >= 1"),
    "min_delta": (float, lambda v: v >= 0, "a number >= 0"),
    "optimizer": (str, lambda v: v == "adam", '"adam"'),
}


def train_config(cfg: dict) -> TrainConfig:
    """The cnn section as a TrainConfig; ConfigError names a bad cnn.<key>."""
    for key, value in cfg["cnn"].items():
        if key not in CNN_RULES:
            raise ConfigError(f"cnn.{key}", f"unknown config key 'cnn.{key}'")
        kind, valid, wanted = CNN_RULES[key]
        kinds = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, kinds) \
                or not valid(value):
            raise ConfigError(f"cnn.{key}",
                              f"cnn.{key} must be {wanted}, got {value!r}")
    return TrainConfig(seed=cfg["seed"], **cfg["cnn"])


def downsample_factor(cfg: dict, fs: int) -> int:
    """preprocess.downsample_factor; null means max(1, fs // 250).

    The factor, given or automatic, must divide fs: the preprocessed
    recording states its rate as the integer fs // factor.
    """
    given = cfg["preprocess"]["downsample_factor"]
    factor = max(1, fs // 250) if given is None else given
    if type(factor) is not int or factor < 1 or fs % factor:
        got = f"auto {factor}" if given is None else repr(given)
        raise ConfigError("preprocess.downsample_factor",
                          f"preprocess.downsample_factor must be null or a "
                          f"positive integer dividing fs={fs}, got {got}")
    return factor


def synth_stage(cfg: dict, emit) -> EegRecording:
    rec = synth_dataset(synth_from_config(cfg))
    io.save_recording(rec, emit("recording.eegb"))
    return rec


def preprocess_stage(cfg: dict, rec: EegRecording, emit) -> EegRecording:
    rec = dsp.preprocess_recording(
        rec, band=tuple(cfg["preprocess"]["band"]),
        factor=downsample_factor(cfg, rec.fs))
    io.save_recording(rec, emit("preprocessed.eegb"))
    return rec


def epoch_stage(cfg: dict, rec: EegRecording) -> tuple:
    """(imagery, rest) epochs at the configured windows."""
    ep = cfg["epoch"]
    return (epoch_recording(rec, "imagery", tuple(ep["imagery_window_ms"])),
            epoch_recording(rec, "rest", tuple(ep["rest_window_ms"])))


def connect_stage(cfg: dict, imagery: EpochSet, emit) -> dict:
    """Per-class PLV matrices and their strong edges; returns the matrices."""
    per_class = conn_mod.per_class_plv(imagery)
    for c, cm in per_class.items():
        cm.to_csv(emit(f"plv_class{c}.csv"))
        conn_mod.edges_to_csv(
            conn_mod.strong_edges(cm, cfg["connectivity"]["threshold"]),
            emit(f"edges_class{c}.csv"), montage=cm.montage)
    return per_class


def rank_stage(per_class: dict, emit):
    """Full-data channel ranking (per-fold selection is redone in the sweep)."""
    ranking = conn_mod.rank_channels(per_class.values())
    ranking.to_csv(emit("channel_ranking.csv"))
    return ranking


def select_stage(imagery: EpochSet, k: int, emit) -> None:
    """The channel ranking plus the names of its top k channels."""
    ranking = rank_stage(conn_mod.per_class_plv(imagery), emit)
    names = [imagery.montage.channel_names[i]
             for i in conn_mod.select_channels(ranking, k)]
    with open(emit(f"selected_{k}ch.txt"), "w") as f:
        f.write("\n".join(names) + "\n")


def stats_stage(cfg: dict, imagery: EpochSet, rest: EpochSet, emit) -> None:
    st = cfg["stats"]
    smap = stats.stat_map(imagery, rest, band=tuple(st["band"]),
                          n_perm=st["n_perm"], seed=cfg["seed"],
                          alpha=st["alpha"])
    smap.to_csv(emit("stat_map.csv"))


def psd_stage(imagery: EpochSet, emit) -> None:
    """Welch PSD of the imagery phase, channel-averaged per class."""
    for c in sorted(set(int(l) for l in imagery.labels)):
        idx = np.nonzero(imagery.labels == c)[0]
        x = np.asarray(imagery.tensor[idx], dtype=np.float64).mean(axis=(0, 1))
        dsp.welch_psd(x, imagery.fs).to_csv(emit(f"psd_class{c}.csv"))


def ersp_stage(cfg: dict, rec: EegRecording, channel: str, emit) -> None:
    """ERSP map of one channel, baseline start to 4500 ms after onset."""
    er = cfg["ersp"]
    if channel not in rec.montage.channel_names:
        raise ConfigError("ersp.channel", f"ersp.channel {channel!r} is not "
                          f"in the montage")
    baseline = tuple(er["baseline_ms"])
    span = epoch_recording(rec, "onset", (baseline[0], 4500))
    tf = dsp.ersp(span, baseline_ms=baseline, f_range=tuple(er["f_range"]),
                  channels=[rec.montage.index(channel)])[0]
    tf.to_csv(emit(f"ersp_{channel}.csv"))


def train_stage(cfg: dict, imagery: EpochSet, method: str, emit) -> None:
    """Fit one classifier on all imagery windows and save its checkpoint."""
    tc = train_config(cfg) if method == "cnn" else None
    clf = _make_classifier(method, cfg["seed"], cfg["csp"]["m"], tc)
    clf.fit(slide_windows(imagery))
    if method == "cnn":
        save_network(clf.net, emit("cnn_model.eegb"), config=tc)
    else:
        save_csp_lda(clf, emit("csp_model.eegb"))


def sweep_stage(cfg: dict, imagery: EpochSet, emit) -> None:
    counts = tuple(cfg["sweep"]["channel_counts"])
    report = sweep(imagery, methods=tuple(cfg["sweep"]["methods"]),
                   channel_counts=counts, folds=cfg["cv"]["folds"],
                   seeds=tuple(cfg["cv"]["seeds"]), csp_m=cfg["csp"]["m"],
                   train_config=train_config(cfg))
    report.to_csv(emit("sweep.csv"), channel_counts=counts)
    report.to_json(emit("report.json"))


def run_pipeline(cfg: dict, out_dir) -> list:
    """Synth/load -> preprocess -> connectivity -> stats -> psd -> sweep.

    Returns the list of artifact names written under out_dir; finishes by
    writing manifest.json with their hashes.
    """
    cfg = validate_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    artifacts = []
    emit = emitter(out_dir, artifacts)
    rec = (io.load_recording(cfg["input"]) if "input" in cfg
           else synth_stage(cfg, emit))
    rec = preprocess_stage(cfg, rec, emit)
    imagery, rest = epoch_stage(cfg, rec)
    io.save_epochs(imagery, emit("imagery_epochs.eegb"))
    io.save_epochs(rest, emit("rest_epochs.eegb"))
    rank_stage(connect_stage(cfg, imagery, emit), emit)
    stats_stage(cfg, imagery, rest, emit)
    psd_stage(imagery, emit)
    sweep_stage(cfg, imagery, emit)
    write_manifest(out_dir, cfg, artifacts)
    return artifacts + ["manifest.json"]
