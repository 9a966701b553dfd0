"""Cross-validation, channel-count sweeps and the reproducible pipeline.

Leakage control: channel ranking is recomputed on training folds only,
sliding-window augmentation happens after the fold split, and all windows
of a trial stay in the fold of their source trial.
"""

import ctypes
import hashlib
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import connectivity as conn_mod
from . import dsp, io, stats
from .core import (EegRecording, EpochSet, Montage, SynthSpec,
                   epoch_recording, require_finite, synth_dataset)
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

    def to_csv(self, path, channel_counts) -> None:
        """Rows = methods, columns = channel counts, cells = 'mean% (±std)'."""
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
              train_config: TrainConfig) -> list:
    """One EvalEntry per (method, k_channels) cell, all on the same folds.

    k_channels None means the full montage. Each fold's channel ranking is
    computed once, on its training trials, and shared by every cell. Every
    (seed, fold, cell) fit is one task for _run_cells; the entries are built
    from the tasks' predictions in task order, so they do not depend on the
    worker count.
    """
    require_finite(dataset.tensor, "cross-validation epochs")
    n_ch = dataset.n_channels
    cells = [(m, n_ch if k is None else k) for m, k in cells]
    if any(k > n_ch for _, k in cells):
        raise RangeError(f"k_channels {max(k for _, k in cells)} "
                         f"exceeds montage")
    splits, truths = [], []
    for seed in seeds:
        for fold, test_idx in enumerate(
                stratified_folds(dataset.labels, folds, seed=seed)):
            train_idx = np.setdiff1d(np.arange(dataset.n_trials), test_idx)
            ranking = (fold_channel_ranking(dataset.select(trial_idx=train_idx))
                       if any(k < n_ch for _, k in cells) else None)
            splits.append((seed, fold, train_idx, test_idx, ranking))
            truths.append({int(t): int(l) for t, l in zip(
                dataset.source_trials[test_idx], dataset.labels[test_idx])})
    plan = _CvPlan(dataset, splits, cells, csp_m, train_config)
    tasks = [(s, c) for s in range(len(splits)) for c in range(len(cells))]
    n_classes = len(np.unique(dataset.labels))
    accs = [[] for _ in cells]
    confusion = [np.zeros((n_classes,) * 2, dtype=np.int64) for _ in cells]
    for (s, c), preds in zip(tasks, _run_cells(plan, tasks)):
        truth = truths[s]
        accs[c].append(sum(preds[t] == truth[t] for t in truth) / len(truth))
        for t in truth:
            confusion[c][truth[t], preds[t]] += 1
    config = {"folds": folds, "seeds": list(seeds), "csp_m": csp_m,
              "win_s": 2.0, "overlap": 0.5}  # slide_windows' defaults
    return [EvalEntry(m, int(k), a, c, config=dict(config))
            for (m, k), a, c in zip(cells, accs, confusion)]


# ---------------------------------------------------------------------------
# Cross-validation tasks and the process pool that runs them

@dataclass(frozen=True)
class _CvPlan:
    """What every task reads: the epochs, the (seed, fold, train_idx,
    test_idx, ranking) splits, the (method, k) cells and the fit settings."""
    dataset: EpochSet
    splits: list
    cells: list
    csp_m: int
    train_config: TrainConfig


def _fit_cell(plan: _CvPlan, task: tuple) -> dict:
    """Task (split, cell): fit on the split's training trials, restricted to
    the cell's top-k channels, and return {test trial: predicted class}."""
    s, c = task
    seed, fold, train_idx, test_idx, ranking = plan.splits[s]
    method, k = plan.cells[c]
    sel = (conn_mod.select_channels(ranking, k)
           if k < plan.dataset.n_channels else None)
    train_w, test_w = (
        slide_windows(plan.dataset.select(trial_idx=idx, channel_idx=sel))
        for idx in (train_idx, test_idx))
    clf = _make_classifier(method, seed, plan.csp_m, plan.train_config)
    try:
        return _trial_predictions(clf.fit(train_w), test_w)
    except DivergenceError as e:
        e.cv_seed, e.fold = seed, fold
        raise


def _worker_count(n_tasks: int) -> int:
    """One worker per CPU this process may run on, and no idle ones; one,
    so no process is forked, where os.sched_getaffinity is missing."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Cap every OpenBLAS loaded in this process at one thread, so pool
    workers do not oversubscribe the CPUs; a no-op where none is found."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f
                     if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        fn = next((getattr(lib, name) for name in _BLAS_SET_THREADS
                   if hasattr(lib, name)), None)
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_int], None
            fn(1)


_plan = None  # the _CvPlan of the pool this worker process belongs to


def _start_worker(plan: _CvPlan) -> None:
    global _plan
    _plan = plan
    _one_blas_thread()


def _pooled_cell(task: tuple) -> dict:
    return _fit_cell(_plan, task)


def _run_cells(plan: _CvPlan, tasks: list) -> list:
    """_fit_cell(plan, task) for every task, in task order.

    With more than one CPU and task the tasks run in a pool of forked
    workers. Fork (not spawn) lets the workers inherit plan, with its
    epochs and rankings, instead of re-importing the package and unpickling
    it; only tasks and prediction dicts cross the pipes. Tasks are submitted
    longest first (CNN before CSP-LDA, larger k first) so that no long fit
    starts last. Results are read in task order, so the error raised is that
    of the earliest failing task, whichever finished first; a worker that
    dies raises BrokenProcessPool.
    """
    workers = _worker_count(len(tasks))
    if workers <= 1:
        return list(map(partial(_fit_cell, plan), tasks))
    longest_first = sorted(tasks, key=lambda t: (plan.cells[t[1]][0] != "cnn",
                                                 -plan.cells[t[1]][1]))
    with ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker,
                             initargs=(plan,)) as pool:
        futures = {t: pool.submit(_pooled_cell, t) for t in longest_first}
        try:
            return [futures[t].result() for t in tasks]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def cross_validate(dataset: EpochSet, method: str, k_channels: int = None,
                   folds: int = 5, seeds=(0,), csp_m: int = 2,
                   train_config: TrainConfig = None) -> EvalEntry:
    """Stratified cross-validation with in-fold channel selection.

    k_channels=None (or the full montage) skips selection. seeds re-run the
    whole CV with fresh fold shuffles and model seeds; the reported spread
    is over folds x seeds.
    """
    return _evaluate(dataset, [(method, k_channels)], folds, seeds, csp_m,
                     train_config)[0]


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


def _number(v) -> bool:
    """A finite JSON number; type(), not isinstance, keeps true/false out."""
    return type(v) is int or type(v) is float and math.isfinite(v)


def _seed(v) -> bool:
    """A root seed that seeding.derive_seed takes."""
    return type(v) is int and 0 <= v < 2 ** 64


def _list_of(test):
    return lambda v: type(v) is list and len(v) > 0 and all(map(test, v))


def _int_at_least(lo: int) -> tuple:
    return lambda v: type(v) is int and v >= lo, f"an integer >= {lo}"


# <section>.<key> -> (test that takes any JSON value, what a valid value is)
CONFIG_RULES = {
    "cnn.lr": (lambda v: _number(v) and v > 0, "a number > 0"),
    "cnn.batch_size": _int_at_least(1),
    "cnn.epochs": _int_at_least(1),
    "cnn.dropout": (lambda v: _number(v) and 0 <= v < 1, "a number in [0, 1)"),
    "cnn.patience": _int_at_least(1),
    "cnn.min_delta": (lambda v: _number(v) and v >= 0, "a number >= 0"),
    "csp.m": _int_at_least(1),
    "cv.folds": _int_at_least(2),
    "cv.seeds": (_list_of(_seed), "a non-empty list of integers in [0, 2^64)"),
    "stats.band": (lambda v: _list_of(_number)(v) and len(v) == 2
                   and 0 <= v[0] < v[1], "[lo, hi] with 0 <= lo < hi"),
    "stats.n_perm": _int_at_least(1),
    "stats.alpha": (lambda v: _number(v) and 0 < v < 1, "a number in (0, 1)"),
    "sweep.channel_counts": (_list_of(lambda k: type(k) is int and k >= 1),
                             "a non-empty list of integers >= 1"),
    "sweep.methods": (_list_of(lambda m: m in ("cnn", "csp_lda")),
                      "a non-empty list of 'cnn' and 'csp_lda'"),
}


def validate_config(cfg: dict) -> dict:
    """cfg merged over DEFAULT_CONFIG; a ConfigError names the bad key."""
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    if "seed" not in cfg:
        raise ConfigError("seed")
    if not _seed(cfg["seed"]):
        raise ConfigError("seed", f"seed must be an integer in [0, 2^64), "
                          f"got {cfg['seed']!r}")
    known = {"seed", "out", "synth", "input", *DEFAULT_CONFIG}
    for key in cfg:
        if key not in known:
            raise ConfigError(key, f"unknown config key {key!r}")
    for key in (*DEFAULT_CONFIG, "synth"):
        if not isinstance(cfg.get(key, {}), dict):
            raise ConfigError(key, f"config key {key!r} must be an object")
    merged = {key: {**default, **cfg.get(key, {})}
              for key, default in DEFAULT_CONFIG.items()}
    merged["seed"] = cfg["seed"]
    for key in ("out", "synth", "input"):
        if key in cfg:
            merged[key] = cfg[key]
    for section in sorted({name.split(".")[0] for name in CONFIG_RULES}):
        for key, value in merged[section].items():
            name = f"{section}.{key}"
            if name not in CONFIG_RULES:
                raise ConfigError(name, f"unknown config key {name!r}")
            valid, wanted = CONFIG_RULES[name]
            if not valid(value):
                raise ConfigError(name,
                                  f"{name} must be {wanted}, got {value!r}")
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


def train_config(cfg: dict) -> TrainConfig:
    """The cnn section of a validated config as a TrainConfig."""
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
