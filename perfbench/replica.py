"""The traced run: a stage-by-stage replica of each timed call, plus kernels.

The replica calls the same public vmidecode functions, in the same order
and with the same seeds, as ``harness.run_pipeline`` and ``harness.sweep``,
and wraps each call in a span named ``<module>.<function>``. Its outputs
must be byte-identical to the untraced run's; the worker compares them.

The kernel steps time single calls the benchmark drives itself: ``dsp.fft``
at the PLV, Welch and ERSP lengths, and the CNN's layers one by one.
"""

import math
import os
from time import perf_counter as _now

import numpy as np

from vmidecode import (CnnClassifier, CspLdaClassifier, EvalEntry, EvalReport,
                       Network, TrainConfig, build_model, connectivity, dsp,
                       epoch_recording, harness, io, predict_trial,
                       slide_windows, stats)
from vmidecode.seeding import child_rng

from workloads import CONFIG, OUT, sweep_args

KERNEL_REPEATS = 5
LAYER_REPEATS = 3
LAYER_BATCH = 16
LAYER_KINDS = ("conv", "batchnorm", "activation", "dropout", "avgpool",
               "dense")


def run(w, inputs: dict, tr) -> dict:
    """Replica of the workload's timed call.

    Returns the sweep's report, or the imagery epochs a pipeline cut.
    """
    if w.entry == "sweep":
        return {"report": sweep(tr, inputs["imagery"], inputs["cfg"])}
    cfg = inputs["cfg"]
    if w.entry == "cli":
        # cli.main(["--config", ..., "report"]) loads the file, then runs
        with tr.span("harness.load_config"):
            cfg = harness.load_config(CONFIG)
    return {"imagery": pipeline(tr, cfg)}


def pipeline(tr, cfg: dict):
    """``harness.run_pipeline`` for a config with an ``input`` recording."""
    cfg = harness.validate_config(cfg)
    os.makedirs(OUT, exist_ok=True)
    artifacts = []

    def emit(name):
        artifacts.append(name)
        return os.path.join(OUT, name)

    with tr.span("io.load_recording"):
        rec = io.load_recording(cfg["input"])
    pp = cfg["preprocess"]
    factor = pp["downsample_factor"]
    if factor is None:
        factor = max(1, rec.fs // 250)
    with tr.span("dsp.preprocess_recording"):
        rec = dsp.preprocess_recording(rec, band=tuple(pp["band"]),
                                       factor=factor)
    with tr.span("io.save_recording"):
        io.save_recording(rec, emit("preprocessed.eegb"))
    ep = cfg["epoch"]
    with tr.span("core.epoch_recording"):
        imagery = epoch_recording(rec, "imagery",
                                  tuple(ep["imagery_window_ms"]))
    with tr.span("core.epoch_recording"):
        rest = epoch_recording(rec, "rest", tuple(ep["rest_window_ms"]))
    with tr.span("io.save_epochs"):
        io.save_epochs(imagery, emit("imagery_epochs.eegb"))
    with tr.span("io.save_epochs"):
        io.save_epochs(rest, emit("rest_epochs.eegb"))

    with tr.span("connectivity.per_class_plv"):
        per_class = connectivity.per_class_plv(imagery)
    with tr.span("connectivity.write_csv"):
        for c, cm in per_class.items():
            cm.to_csv(emit(f"plv_class{c}.csv"))
            connectivity.edges_to_csv(
                connectivity.strong_edges(
                    cm, cfg["connectivity"]["threshold"]),
                emit(f"edges_class{c}.csv"), montage=cm.montage)
    with tr.span("connectivity.rank_channels"):
        ranking = connectivity.rank_channels(per_class.values())
    with tr.span("connectivity.write_csv"):
        ranking.to_csv(emit("channel_ranking.csv"))

    stat_map(tr, imagery, rest, cfg).to_csv(emit("stat_map.csv"))

    for c in sorted(set(int(l) for l in imagery.labels)):
        idx = np.nonzero(imagery.labels == c)[0]
        x = np.asarray(imagery.tensor[idx], dtype=np.float64).mean(axis=(0, 1))
        with tr.span("dsp.welch_psd"):
            spectrum = dsp.welch_psd(x, imagery.fs)
        spectrum.to_csv(emit(f"psd_class{c}.csv"))

    report = sweep(tr, imagery, cfg)
    with tr.span("harness.write_report"):
        report.to_csv(emit("sweep.csv"),
                      channel_counts=tuple(cfg["sweep"]["channel_counts"]))
        report.to_json(emit("report.json"))
    with tr.span("harness.write_manifest"):
        harness.write_manifest(OUT, cfg, artifacts)
    return imagery


def stat_map(tr, imagery, rest, cfg: dict):
    """``stats.stat_map``: band powers, then one paired test per channel."""
    st = cfg["stats"]
    band = tuple(st["band"])
    with tr.span("stats.band_power"):
        bp_i = stats.band_power(imagery, band)
    with tr.span("stats.band_power"):
        bp_r = stats.band_power(rest, band)
    n_ch = imagery.n_channels
    t_values = np.empty(n_ch)
    p_values = np.empty(n_ch)
    for ch in range(n_ch):
        with tr.span("stats.paired_t"):
            t_values[ch] = stats.paired_t(bp_i[:, ch], bp_r[:, ch])
        with tr.span("stats.permutation_test"):
            p_values[ch] = stats.permutation_test(
                bp_i[:, ch], bp_r[:, ch], n_perm=st["n_perm"],
                rng=child_rng(cfg["seed"], "statmap", ch))
    return stats.StatMap(t_values, p_values, alpha=st["alpha"],
                         montage=imagery.montage)


def sweep(tr, dataset, cfg: dict) -> EvalReport:
    """``harness.sweep``: shared fold rankings, then one CV per cell."""
    a = sweep_args(cfg)
    counts = [k for k in a["channel_counts"] if k <= dataset.n_channels]
    rankings = {}
    if any(k < dataset.n_channels for k in counts):
        for seed in a["seeds"]:
            folds = harness.stratified_folds(dataset.labels, a["folds"],
                                             seed=seed)
            for f, test_idx in enumerate(folds):
                train_idx = np.setdiff1d(np.arange(dataset.n_trials), test_idx)
                with tr.span("harness.fold_channel_ranking"):
                    rankings[(seed, f)] = harness.fold_channel_ranking(
                        dataset.select(trial_idx=train_idx))
    report = EvalReport()
    for method in a["methods"]:
        for k in counts:
            with tr.span(f"harness.cross_validate.{method}.k{k}"):
                report.entries.append(
                    cross_validate(tr, dataset, method, k, rankings, a))
    return report


def cross_validate(tr, dataset, method, k, rankings, a) -> EvalEntry:
    """``harness.cross_validate`` with precomputed rankings, 2 s windows."""
    module = "neural" if method == "cnn" else "csp"
    n_classes = len(np.unique(dataset.labels))
    accs = []
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for seed in a["seeds"]:
        folds = harness.stratified_folds(dataset.labels, a["folds"], seed=seed)
        for f, test_idx in enumerate(folds):
            train_idx = np.setdiff1d(np.arange(dataset.n_trials), test_idx)
            train_ep = dataset.select(trial_idx=train_idx)
            test_ep = dataset.select(trial_idx=test_idx)
            if k < dataset.n_channels:
                sel = connectivity.select_channels(rankings[(seed, f)], k)
                train_ep = train_ep.select(channel_idx=sel)
                test_ep = test_ep.select(channel_idx=sel)
            with tr.span("neural.slide_windows"):
                train_w = slide_windows(train_ep, win_s=2.0, overlap=0.5)
                test_w = slide_windows(test_ep, win_s=2.0, overlap=0.5)
            if method == "cnn":
                clf = CnnClassifier(TrainConfig(
                    **{**a["train_config"].__dict__, "seed": seed}))
            else:
                clf = CspLdaClassifier(m=a["csp_m"])
            with tr.span(f"{module}.fit.k{k}"):
                clf.fit(train_w)
            with tr.span(f"{module}.predict_scores.k{k}"):
                scores = clf.predict_scores(test_w)
            preds = {int(t): predict_trial(scores[test_w.source_trials == t])
                     for t in np.unique(test_w.source_trials)}
            truth = {int(t): int(l) for t, l in
                     zip(test_ep.source_trials, test_ep.labels)}
            accs.append(sum(preds[t] == truth[t] for t in truth) / len(truth))
            for t in truth:
                confusion[truth[t], preds[t]] += 1
    return EvalEntry(method, int(k), accs, confusion,
                     config={"folds": a["folds"], "seeds": list(a["seeds"]),
                             "csp_m": a["csp_m"], "win_s": 2.0,
                             "overlap": 0.5})


# ---------------------------------------------------------------------------
# Kernel steps and computed counts

def _nominal_mflop(rows: int, n: int) -> float:
    """5 N log2 N flops per length-N complex transform, in millions."""
    return rows * 5.0 * n * math.log2(n) / 1e6


def fft_kernels(imagery) -> tuple:
    """Median ``dsp.fft`` time at the PLV (1000), Welch (250) and ERSP (256)
    lengths on one trial's channels, and their nominal Mflop."""
    x = np.asarray(imagery.tensor[0], dtype=np.float64)    # channels x 1000
    frames = np.lib.stride_tricks.sliding_window_view
    batches = {
        "n1000": x,
        # Welch: 250-sample Hann segments at 50 % overlap
        "n250": frames(x, 250, axis=-1)[:, ::125] * np.hanning(250),
        # ERSP: 256-sample Hann frames, 16-sample hop
        "n256": frames(x, 256, axis=-1)[:, ::16] * np.hanning(256),
    }
    times = {}
    mflop = 0.0
    for name, batch in batches.items():
        batch = np.ascontiguousarray(batch)
        samples = []
        for _ in range(KERNEL_REPEATS):
            t0 = _now()
            dsp.fft(batch)
            samples.append(_now() - t0)
        times[f"dsp.fft.{name}_s"] = float(np.median(samples))
        mflop += _nominal_mflop(batch.size // batch.shape[-1], batch.shape[-1])
    return times, mflop


def conv0_bytes(k: int, samples: int = 500) -> int:
    """Computed float32 bytes of the first conv's im2col matrix and output."""
    spec = build_model(k, input_samples=samples)
    conv = spec.layers[0]
    wo = samples - conv.kernel[1] + 1
    cols = LAYER_BATCH * k * wo * conv.kernel[1]
    out = LAYER_BATCH * conv.maps_out * k * wo
    return 4 * (cols + out)


def layer_step(windows, k: int, seed: int) -> tuple:
    """Per-kind forward/backward seconds of one training step at k channels.

    Drives ``layer.forward`` / ``layer.backward`` over ``Network.layers`` on
    a fixed batch (the first windows, first k channels). Returns the median
    over repeats of each kind's summed time, and whether the loop's output
    and parameter gradients equal ``Network.forward`` / ``backward`` bit for
    bit on a fresh network of the same seed.
    """
    x = np.asarray(windows.tensor[:LAYER_BATCH, :k], np.float32)[:, None]
    y = np.asarray(windows.labels[:LAYER_BATCH])
    spec = build_model(k, input_samples=x.shape[-1])
    kinds = [ls.kind for ls in spec.layers]
    samples = []
    for _ in range(LAYER_REPEATS):
        net = Network(spec, seed=seed)
        t = {}
        out = x
        for kind, layer in zip(kinds, net.layers):
            t0 = _now()
            out = layer.forward(out, True)
            t[kind, "fwd"] = t.get((kind, "fwd"), 0.0) + _now() - t0
        # Network.backward's cross-entropy gradient
        grad = out.copy()
        grad[np.arange(len(y)), y] -= 1.0
        grad = (grad / len(y)).astype(net.dtype)
        for kind, layer in zip(kinds[::-1], net.layers[::-1]):
            t0 = _now()
            grad = layer.backward(grad)
            t[kind, "bwd"] = t.get((kind, "bwd"), 0.0) + _now() - t0
        samples.append(t)
    ref = Network(spec, seed=seed)
    same = np.array_equal(ref.forward(x, train=True), out)
    ref.backward(y)
    for (layer, name), (ref_layer, _) in zip(net.parameters(),
                                              ref.parameters()):
        same &= np.array_equal(getattr(layer, "d" + name),
                               getattr(ref_layer, "d" + name))
    times = {f"neural.{kind}.{d}_s.k{k}":
             float(np.median([s[kind, d] for s in samples]))
             for kind in LAYER_KINDS for d in ("fwd", "bwd")}
    return times, bool(same)


def perm_flips(n_trials: int, n_tests: int, n_perm: int) -> int:
    """Computed sign flips drawn by n_tests permutation tests of n_trials
    pairs (exhaustive or Monte Carlo)."""
    patterns = 2 ** n_trials if 2 ** n_trials <= n_perm else n_perm
    return patterns * n_trials * n_tests
