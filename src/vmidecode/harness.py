"""Cross-validation, channel-count sweeps and the reproducible pipeline.

Leakage control: channel ranking is recomputed on training folds only,
sliding-window augmentation happens after the fold split, and all windows
of a trial stay in the fold of their source trial.
"""

import hashlib
import inspect
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import connectivity as conn_mod
from . import core, dsp, io, stats
from .core import (CHANNEL_NAME, CHANNELS_RULE, CLASS_RULES, SYNTH_RULES,
                   EegRecording, EpochSet, Montage, SynthSpec, TrialTimeline,
                   epoch_recording, require_finite, synth_dataset)
from .csp import M_RULE, CspLdaClassifier, save_csp_lda
from .errors import (ConfigError, DivergenceError, RangeError,
                     StratificationError, by_class, check, integer, list_rule,
                     nonempty_str)
from .neural import (OVERLAP, TRAIN_RULES, WIN_S, CnnClassifier, TrainConfig,
                     predict_trial, save_network, slide_windows)
from .pool import ordered_map
from .seeding import SEED_RULE, child_rng


def _defaults(owner) -> dict:
    """The parameter defaults of a function or class, tuples as lists."""
    return {name: list(p.default) if type(p.default) is tuple else p.default
            for name, p in inspect.signature(owner).parameters.items()
            if p.default is not p.empty}


CHANNEL_COUNTS = (2, 4, 8, 16, 20, 32, 64)
_FOLDS, _SEEDS = 5, (0,)  # cross_validate's and sweep's
FOLDS_RULE = integer(2)  # stratified_folds' n_folds
_CSP_M = _defaults(CspLdaClassifier)["m"]


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
        return {(e.method, e.k_channels): e
                for e in self.entries}[(method, k_channels)]

    def to_csv(self, path, channel_counts) -> None:
        """Rows = methods, columns = channel counts, cells = 'mean% (±std)'."""
        cells = {(e.method, e.k_channels): e.cell() for e in self.entries}
        rows = ["method," + ",".join(f"{k}ch" for k in channel_counts)]
        for m in dict.fromkeys(e.method for e in self.entries):
            rows.append(m + "," + ",".join(f'"{cells.get((m, k), "")}"'
                                           for k in channel_counts))
        io.write_text(path, "\n".join(rows) + "\n")

    def to_json(self, path) -> None:
        blob = [{"method": e.method, "k_channels": e.k_channels,
                 "fold_accuracies": [float(a) for a in e.fold_accuracies],
                 "mean_pct": e.mean_pct, "std_pct": e.std_pct,
                 "confusion": e.confusion.tolist(), "config": e.config}
                for e in self.entries]
        io.write_text(path, json.dumps(blob, indent=2, sort_keys=True))


def stratified_folds(labels, n_folds: int, seed: int = 0) -> list:
    """Deterministic stratified fold assignment; returns a list of index arrays."""
    check("n_folds", n_folds, FOLDS_RULE)
    labels = np.asarray(labels)
    rng = child_rng(seed, "folds")
    classes, counts = np.unique(labels, return_counts=True)
    if (counts < n_folds).any():  # before n_folds lists are made
        c = np.argmax(counts < n_folds)
        raise StratificationError(
            f"class {classes[c]} has {counts[c]} trials for {n_folds} folds")
    folds = [[] for _ in range(n_folds)]
    for c in classes:
        idx = rng.permutation(np.nonzero(labels == c)[0])
        for f, chunk in enumerate(np.array_split(idx, n_folds)):
            folds[f].extend(chunk.tolist())
    return [np.sort(np.asarray(f)) for f in folds]


# method name -> classifier of (seed, csp_m, train_config); the order is
# _run_cells' scheduling order, costliest fit first.
CLASSIFIERS = {
    "cnn": lambda seed, csp_m, tc: CnnClassifier(
        replace(tc or TrainConfig(), seed=seed)),
    "csp_lda": lambda seed, csp_m, tc: CspLdaClassifier(m=csp_m),
}
METHOD_RULE = (lambda v: nonempty_str(v) and v in CLASSIFIERS,
               " and ".join(map(repr, CLASSIFIERS)))


def fold_channel_ranking(train_epochs: EpochSet):
    """Channel ranking of one fold's training epochs, by their per-class PLV
    matrices. _evaluate ranks the training rows of one PLV pass over all
    trials instead, which gives the same ranking."""
    return conn_mod.rank_channels(
        conn_mod.per_class_plv(train_epochs).values())


def _evaluate(dataset: EpochSet, cells: list, folds: int, seeds, csp_m: int,
              train_config: TrainConfig, trial_plv=None) -> list:
    """One EvalEntry per (method, k_channels) cell, all on the same folds.

    k_channels None means the full montage. The per-trial PLV matrices
    (trial_plv, plv_trial_matrices(dataset) when not given) are computed once;
    each fold's channel ranking is the ranking of its training rows, in
    ascending trial order, and is shared by every cell. Every (seed, fold,
    cell) fit is one task for _run_cells; the entries are built from the
    tasks' predictions in task order, so they do not depend on the worker
    count.
    """
    unknown = [m for m, _ in cells if not METHOD_RULE[0](m)]
    if unknown:
        raise ConfigError("method", f"unknown method {unknown[0]!r}")
    require_finite(dataset.tensor, "cross-validation epochs")
    classes = np.unique(dataset.labels, return_counts=True)[0]
    if not np.array_equal(classes, np.arange(classes.size)):
        # the confusion matrix is indexed by class id
        raise RangeError(f"class ids must be 0..{classes.size - 1}, got "
                         f"{classes.tolist()}")
    n_ch = dataset.n_channels
    cells = [(m, n_ch if k is None else k) for m, k in cells]
    for _, k in cells:
        check("k_channels", k, conn_mod.K_RULE)
    if any(k > n_ch for _, k in cells):
        raise RangeError(f"k_channels {max(k for _, k in cells)} "
                         f"exceeds montage")
    ranked = any(k < n_ch for _, k in cells)
    if ranked and trial_plv is None:
        trial_plv = conn_mod.plv_trial_matrices(dataset)
    splits, truths = [], []
    for seed in seeds:
        for fold, test_idx in enumerate(
                stratified_folds(dataset.labels, folds, seed=seed)):
            train_idx = np.delete(np.arange(dataset.n_trials), test_idx)
            ranking = (conn_mod.rank_channels(conn_mod.class_plv(
                trial_plv[train_idx], dataset.labels[train_idx],
                dataset.montage).values()) if ranked else None)
            splits.append((seed, fold, train_idx, test_idx, ranking))
            truths.append(dataset.labels[test_idx])
    plan = _CvPlan(dataset, splits, cells, csp_m, train_config)
    tasks = [(s, c) for s in range(len(splits)) for c in range(len(cells))]
    accs = [[] for _ in cells]
    confusion = [np.zeros((classes.size,) * 2, dtype=np.int64) for _ in cells]
    for (s, c), preds in zip(tasks, _run_cells(plan, tasks)):
        accs[c].append(np.mean(preds == truths[s]))
        np.add.at(confusion[c], (truths[s], preds), 1)
    config = {"folds": folds, "seeds": list(seeds), "csp_m": csp_m,
              "win_s": WIN_S, "overlap": OVERLAP}
    return [EvalEntry(m, int(k), a, c, config=dict(config))
            for (m, k), a, c in zip(cells, accs, confusion)]


# ---------------------------------------------------------------------------
# Cross-validation tasks and the thread pool that runs them

@dataclass(frozen=True)
class _CvPlan:
    """What every task reads: the epochs, the (seed, fold, train_idx,
    test_idx, ranking) splits, the (method, k) cells and the fit settings."""
    dataset: EpochSet
    splits: list
    cells: list
    csp_m: int
    train_config: TrainConfig


def _fit_cell(plan: _CvPlan, task: tuple) -> np.ndarray:
    """Task (split, cell): fit on the split's training trials, restricted to
    the cell's top-k channels; return each test trial's class, in order."""
    s, c = task
    seed, fold, train_idx, test_idx, ranking = plan.splits[s]
    method, k = plan.cells[c]
    sel = (conn_mod.select_channels(ranking, k)
           if k < plan.dataset.n_channels else None)
    train_w, test_w = (
        slide_windows(plan.dataset.select(trial_idx=idx, channel_idx=sel))
        for idx in (train_idx, test_idx))
    clf = CLASSIFIERS[method](seed, plan.csp_m, plan.train_config)
    try:
        scores = clf.fit(train_w).predict_scores(test_w)
    except DivergenceError as e:
        e.cv_seed, e.fold = seed, fold
        raise
    # test_w is trial-major: each test trial's windows are one block
    return predict_trial(scores.reshape(len(test_idx), -1, scores.shape[1]))


def _run_cells(plan: _CvPlan, tasks: list) -> list:
    """_fit_cell(plan, task) for every task, in task order, on the shared
    pool, whatever the methods. Tasks are submitted longest first (methods in
    CLASSIFIERS order, then larger k first) so that no long fit starts
    last."""
    rank = {m: i for i, m in enumerate(CLASSIFIERS)}
    return ordered_map(
        lambda task: _fit_cell(plan, task), tasks,
        key=lambda t: (rank[plan.cells[t[1]][0]], -plan.cells[t[1]][1]))


def cross_validate(dataset: EpochSet, method: str, k_channels: int = None,
                   folds: int = _FOLDS, seeds=_SEEDS, csp_m: int = _CSP_M,
                   train_config: TrainConfig = None) -> EvalEntry:
    """Stratified cross-validation with in-fold channel selection.

    k_channels=None (or the full montage) skips selection. seeds re-run the
    whole CV with fresh fold shuffles and model seeds; the reported spread
    is over folds x seeds.
    """
    return _evaluate(dataset, [(method, k_channels)], folds, seeds, csp_m,
                     train_config)[0]


def _grid(dataset: EpochSet, methods, channel_counts) -> list:
    """The (method, k) cells of a sweep, method-major; counts above the
    montage are dropped, once each passes K_RULE."""
    for k in channel_counts:
        check("k_channels", k, conn_mod.K_RULE)
    return [(m, k) for m in methods for k in channel_counts
            if k <= dataset.n_channels]


def sweep(dataset: EpochSet, methods=tuple(CLASSIFIERS),
          channel_counts=CHANNEL_COUNTS, folds: int = _FOLDS, seeds=_SEEDS,
          csp_m: int = _CSP_M, train_config: TrainConfig = None) -> EvalReport:
    """Full method x channel-count grid; rankings are shared across cells."""
    return EvalReport(_evaluate(dataset, _grid(dataset, methods,
                                               channel_counts),
                                folds, seeds, csp_m, train_config))


# ---------------------------------------------------------------------------
# Config-driven pipeline

def load_config(path) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError("<file>", f"config is not valid JSON: {e}") from e
    return validate_config(cfg)


_WINDOWS = TrialTimeline.window_rules  # epoch_recording's window rules
_GIVEN = object()  # the default of a key that is checked when given only
_PRE, _CONN, _ERSP, _CNN, _STATS, _SWEEP = map(_defaults, (
    dsp.preprocess_recording, conn_mod.strong_edges, dsp.ersp, TrainConfig,
    stats.stat_map, sweep))

# <name> or <section>.<key> -> (default, test that takes any JSON value,
# what a valid value is); a default is that of the code that uses the key
CONFIG_RULES = {
    "seed": (_GIVEN, *SEED_RULE),
    "out": (_GIVEN, nonempty_str, "a non-empty path string"),
    "input": (_GIVEN, nonempty_str, "a non-empty path string"),
    **{f"synth.{key}": (_GIVEN, *rule) for key, rule in SYNTH_RULES.items()},
    "synth.channels": (_GIVEN, *CHANNELS_RULE),
    # SynthSpec takes these by int class id, a config by JSON key "0", "1", ...
    **{f"synth.{key}": (_GIVEN, *by_class(rule))
       for key, rule in CLASS_RULES.items()},
    "preprocess.band": (_PRE["band"], *dsp.BAND_RULE),
    "preprocess.downsample_factor": (_PRE["factor"], *dsp.FACTOR_RULE),
    "epoch.imagery_window_ms": ([500, 4500], *_WINDOWS["imagery"]),
    "epoch.rest_window_ms": ([-4500, -500], *_WINDOWS["rest"]),
    "connectivity.threshold": (_CONN["threshold"], *conn_mod.THRESHOLD_RULE),
    "ersp.channel": ("Oz", CHANNEL_NAME[0], "a channel name"),
    **{f"ersp.{key}": (_ERSP[key], *rule)
       for key, rule in dsp.ERSP_RULES.items()},
    **{f"cnn.{key}": (_CNN[key], *rule) for key, rule in TRAIN_RULES.items()},
    "csp.m": (_CSP_M, *M_RULE),
    "cv.folds": (_SWEEP["folds"], *FOLDS_RULE),
    "cv.seeds": (_SWEEP["seeds"], *list_rule(SEED_RULE)),
    **{f"stats.{key}": (_STATS[key], *rule)
       for key, rule in stats.STAT_RULES.items()},
    "sweep.channel_counts": (_SWEEP["channel_counts"],
                             *list_rule(conn_mod.K_RULE)),
    "sweep.methods": (_SWEEP["methods"], *list_rule(METHOD_RULE)),
}
_SECTIONS = {name.split(".")[0] for name in CONFIG_RULES if "." in name}

# each section's defaults; synth has none, so it is never merged
DEFAULT_CONFIG = {}
for _rule, (_default, _, _) in CONFIG_RULES.items():
    if _default is not _GIVEN:
        _section, _key = _rule.split(".")
        DEFAULT_CONFIG.setdefault(_section, {})[_key] = _default


def _check_synth_bounds(cfg: dict) -> None:
    """Refuse values that the synthetic recording's rate and trial count
    rule out, before the stages that would meet them write anything."""
    fs = cfg["synth"].get("fs", SynthSpec.fs)
    n_trials = cfg["synth"].get("n_trials_per_class", math.inf)
    folds = cfg["cv"]["folds"]
    if folds > n_trials:
        raise ConfigError("cv.folds", f"cv.folds {folds} exceeds "
                          f"synth.n_trials_per_class {n_trials}")
    band = cfg["preprocess"]["band"]
    if band[1] >= fs / 2:
        raise ConfigError("preprocess.band", f"preprocess.band {band} must "
                          f"end below synth.fs / 2 = {fs / 2:g} Hz")
    band = cfg["stats"]["band"]
    rate = fs // downsample_factor(cfg, fs)
    if band[1] > rate / 2:
        raise ConfigError("stats.band", f"stats.band {band} must end at or "
                          f"below the preprocessed Nyquist rate {rate / 2:g} Hz")
    for key in ("rest_window_ms", "imagery_window_ms"):
        try:
            s0, s1 = core.window_samples(cfg["epoch"][key], rate)
        except RangeError as e:
            raise ConfigError(f"epoch.{key}", f"epoch.{key}: {e}") from e
    win = int(round(WIN_S * rate))  # slide_windows' window length
    if s1 - s0 < win:  # key, s0 and s1 are the imagery window's, checked last
        raise ConfigError(f"epoch.{key}", f"epoch.{key} spans {s1 - s0} "
                          f"samples; a {WIN_S:g} s CNN/CSP window needs {win}")


def _given(cfg: dict):
    """(name, value) of every key cfg gives; a section's are <section>.<key>."""
    for key, value in cfg.items():
        if key in _SECTIONS and not isinstance(value, dict):
            raise ConfigError(key, f"config key {key!r} must be an object")
        yield from ({f"{key}.{k}": v for k, v in value.items()}
                    if key in _SECTIONS else {key: value}).items()


def validate_config(cfg: dict) -> dict:
    """cfg merged over DEFAULT_CONFIG; a ConfigError names the bad key."""
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    if "seed" not in cfg:
        raise ConfigError("seed", "seed is required")
    for name, value in _given(cfg):
        if name not in CONFIG_RULES:
            raise ConfigError(name, f"unknown config key {name!r}")
        _, valid, wanted = CONFIG_RULES[name]
        if not valid(value):
            raise ConfigError(name, f"{name} must be {wanted}, got {value!r}")
    merged = {**cfg, **{key: {**default, **cfg.get(key, {})}
                        for key, default in DEFAULT_CONFIG.items()}}
    if "synth" in merged:
        _check_synth_bounds(merged)
    return merged


def synth_from_config(cfg: dict) -> SynthSpec:
    """The validated synth section as a SynthSpec, which defaults the rest."""
    if "synth" not in cfg:
        raise ConfigError("synth", "the synth stage needs a synth section")
    args = {**cfg["synth"], "seed": cfg["seed"]}
    for key in ("n_trials_per_class", "planted_channels", "carrier_hz"):
        if key not in args:
            raise ConfigError(f"synth.{key}", f"synth.{key} is required")
    for key in ("planted_channels", "carrier_hz"):
        args[key] = {int(c): v for c, v in args[key].items()}
    if "channels" in args:
        args["montage"] = Montage(tuple(args.pop("channels")))
    return SynthSpec(**args)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, cfg: dict, artifacts: list) -> str:
    """Write manifest.json listing config hash, seed and artifact hashes.
    The artifacts are hashed on the shared pool, largest file first;
    hashlib releases the GIL on large updates."""
    import vmidecode
    out_dir = str(out_dir)
    paths = [f"{out_dir}/{name}" for name in sorted(artifacts)]
    digests = ordered_map(sha256_file, paths,
                          key=lambda path: -os.path.getsize(path))
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "seed": cfg.get("seed"),
        "versions": {"vmidecode": vmidecode.__version__,
                     "numpy": np.__version__},
        "artifacts": dict(zip(sorted(artifacts), digests)),
    }
    path = f"{out_dir}/manifest.json"
    io.write_text(path, json.dumps(manifest, indent=2, sort_keys=True))
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
    """dsp.decimation_factor of fs and preprocess.downsample_factor; a
    factor it refuses is a ConfigError naming that key."""
    try:
        return dsp.decimation_factor(fs, cfg["preprocess"]["downsample_factor"])
    except RangeError as e:
        raise ConfigError("preprocess.downsample_factor",
                          f"preprocess.downsample_factor: {e}") from e


def synth_stage(cfg: dict, emit) -> EegRecording:
    rec = synth_dataset(synth_from_config(cfg))
    io.save_recording(rec, emit("recording.eegb"))
    return rec


def preprocess_stage(cfg: dict, rec: EegRecording, emit) -> EegRecording:
    # the zero-phase filter would spread one bad sample over its channel
    require_finite(rec.data, "input recording's channels")
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


def connect_stage(cfg: dict, imagery: EpochSet, emit, trial_plv=None) -> dict:
    """Per-class PLV matrices and their strong edges; returns the matrices.
    trial_plv is plv_trial_matrices(imagery), computed here when not given."""
    if trial_plv is None:
        trial_plv = conn_mod.plv_trial_matrices(imagery)
    per_class = conn_mod.class_plv(trial_plv, imagery.labels, imagery.montage)
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
    io.write_text(emit(f"selected_{k}ch.txt"), "\n".join(names) + "\n")


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


def ersp_stage(cfg: dict, rec: EegRecording, emit) -> None:
    """ERSP map of ersp.channel, baseline start to 4500 ms after onset."""
    er = cfg["ersp"]
    channel = er["channel"]
    if channel not in rec.montage.channel_names:
        raise ConfigError("ersp.channel", f"ersp.channel {channel!r} is not "
                          f"in the montage")
    baseline = tuple(er["baseline_ms"])
    span = epoch_recording(rec, "onset", (baseline[0], 4500))
    tf = dsp.ersp(span, rec.montage.index(channel), baseline_ms=baseline,
                  f_range=tuple(er["f_range"]))
    tf.to_csv(emit(f"ersp_{channel}.csv"))


def train_stage(cfg: dict, imagery: EpochSet, method: str, emit) -> None:
    """Fit one classifier on all imagery windows and save its checkpoint."""
    tc = train_config(cfg) if method == "cnn" else None
    clf = CLASSIFIERS[method](cfg["seed"], cfg["csp"]["m"], tc)
    clf.fit(slide_windows(imagery))
    if method == "cnn":
        save_network(clf.net, emit("cnn_model.eegb"), config=tc)
    else:
        save_csp_lda(clf, emit("csp_model.eegb"))


def sweep_stage(cfg: dict, imagery: EpochSet, emit, trial_plv=None) -> None:
    """sweep with the config's settings; trial_plv is
    plv_trial_matrices(imagery), computed when a ranking needs it if not
    given."""
    counts = tuple(cfg["sweep"]["channel_counts"])
    report = EvalReport(_evaluate(
        imagery, _grid(imagery, cfg["sweep"]["methods"], counts),
        cfg["cv"]["folds"], tuple(cfg["cv"]["seeds"]), cfg["csp"]["m"],
        train_config(cfg), trial_plv))
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
    del rec  # the epochs are copies: free the recording before the sweep
    io.save_epochs(imagery, emit("imagery_epochs.eegb"))
    io.save_epochs(rest, emit("rest_epochs.eegb"))
    # one PLV pass serves the connect stage and every fold ranking
    trial_plv = conn_mod.plv_trial_matrices(imagery)
    rank_stage(connect_stage(cfg, imagery, emit, trial_plv), emit)
    stats_stage(cfg, imagery, rest, emit)
    del rest
    psd_stage(imagery, emit)
    sweep_stage(cfg, imagery, emit, trial_plv)
    write_manifest(out_dir, cfg, artifacts)
    return artifacts + ["manifest.json"]
