"""The benchmark's workloads: inputs, the timed call and the correctness gate.

Every workload keeps the paper's per-trial shapes (4 s imagery epochs at
250 Hz, band-passed 0.5-13 Hz) and drives vmidecode only through its public
API. The workload seed makes the synthetic recording and is the config's
root seed; the program sees only the files and arrays made here.

All paths are relative: a worker runs in its own empty directory.
"""

import json
import os
from dataclasses import dataclass

INPUT = "input.eegb"
CONFIG = "config.json"
OUT = "out"

CARRIER_HZ = {0: 3.0, 1: 6.0, 2: 9.0, 3: 12.0}
# the demo config's 16 planted electrodes, four per class
PLANTED_64 = {0: ("Fp1", "Fp2", "AF3", "AF4"), 1: ("O1", "O2", "Oz", "Iz"),
              2: ("AF7", "AF8", "AFz", "F1"), 3: ("PO3", "PO4", "PO7", "PO8")}
# the 8-electrode montage of configs/tiny.json, every electrode planted
TINY_CHANNELS = ("Fp1", "Fp2", "Cz", "Pz", "O1", "O2", "Oz", "Iz")
PLANTED_8 = {0: ("Fp1", "Fp2"), 1: ("O1", "O2"), 2: ("Cz", "Pz"),
             3: ("Oz", "Iz")}

# acceptance criterion 7 floors, mean accuracy in percent at k >= 16
ACC_FLOORS = {"csp_lda": 60.0, "cnn": 90.0}
FLOOR_MIN_K = 16


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str              # "pipeline" | "sweep" | "cli": the timed call
    channels: tuple         # montage; None is the 64-electrode default
    planted: dict
    trials_per_class: int
    methods: tuple
    channel_counts: tuple
    cnn_epochs: int
    n_perm: int

    @property
    def planted_names(self) -> set:
        return {n for names in self.planted.values() for n in names}


# Trial counts are as small as the gate allows. With n trials per class a
# planted channel carries signal in n of 4n paired trials, so its sign-flip
# p-value is about 2^-n: 0.001 at n = 10, which 2000 permutations resolve
# against alpha = 0.01; 0.004 at n = 8, which needs 10000.
WORKLOADS = {w.name: w for w in (
    # dsp, connectivity and stats do ~90 % of the wall; neural does none
    Workload("analysis-64ch", "pipeline", None, PLANTED_64, 10,
             ("csp_lda",), (2, 16, 64), 2, 2000),
    # neural does ~85 % of the wall on (B, 25, 64, 376) first-block tensors;
    # n_perm serves only the gate's stat map
    Workload("cnn-64ch", "sweep", None, PLANTED_64, 8,
             ("cnn",), (2, 16, 64), 2, 10000),
    # the same layers on 8x smaller arrays: fixed per-call costs dominate
    Workload("report-8ch", "cli", TINY_CHANNELS, PLANTED_8, 20,
             ("cnn", "csp_lda"), (2, 4, 8), 3, 10000),
)}


def pipeline_config(w: Workload, seed: int) -> dict:
    """The run_pipeline / CLI config; the sweep workload reads it too."""
    return {
        "seed": seed,
        "input": INPUT,
        "preprocess": {"band": [0.5, 13.0], "downsample_factor": None},
        "epoch": {"imagery_window_ms": [500, 4500],
                  "rest_window_ms": [-4500, -500]},
        "connectivity": {"threshold": 0.9},
        "stats": {"band": [0.5, 13.0], "n_perm": w.n_perm, "alpha": 0.01},
        # patience = epochs: early stopping never cuts the work short
        "cnn": {"lr": 0.001, "batch_size": 16, "epochs": w.cnn_epochs,
                "dropout": 0.5, "patience": w.cnn_epochs},
        "csp": {"m": 2},
        "cv": {"folds": 2, "seeds": [0]},
        "sweep": {"channel_counts": list(w.channel_counts),
                  "methods": list(w.methods)},
    }


def sweep_args(cfg: dict) -> dict:
    """harness.sweep keyword arguments, as run_pipeline derives them."""
    from vmidecode import TrainConfig
    return {"methods": tuple(cfg["sweep"]["methods"]),
            "channel_counts": tuple(cfg["sweep"]["channel_counts"]),
            "folds": cfg["cv"]["folds"], "seeds": tuple(cfg["cv"]["seeds"]),
            "csp_m": cfg["csp"]["m"],
            "train_config": TrainConfig(seed=cfg["seed"], **cfg["cnn"])}


def setup(w: Workload, seed: int, tr) -> dict:
    """Make the workload's inputs; everything here counts as set-up time."""
    from vmidecode import (Montage, SynthSpec, dsp, epoch_recording, io,
                           synth_dataset)
    cfg = pipeline_config(w, seed)
    montage = Montage(w.channels) if w.channels else Montage.default()
    spec = SynthSpec(n_trials_per_class=w.trials_per_class,
                     planted_channels={c: list(n) for c, n in w.planted.items()},
                     carrier_hz=CARRIER_HZ, coupling=0.9, snr_db=10.0,
                     seed=seed, fs=250, montage=montage)
    with tr.span("core.synth_dataset"):
        rec = synth_dataset(spec)
    with tr.span("io.save_recording"):
        io.save_recording(rec, INPUT)
    inputs = {"cfg": cfg}
    if w.entry == "cli":
        with open(CONFIG, "w") as f:
            json.dump(cfg, f, indent=2, sort_keys=True)
    elif w.entry == "sweep":
        # the sweep takes epochs, so read the recording back and cut them
        with tr.span("io.load_recording"):
            rec = io.load_recording(INPUT)
        pp = cfg["preprocess"]
        with tr.span("dsp.preprocess_recording"):
            rec = dsp.preprocess_recording(rec, band=tuple(pp["band"]),
                                           factor=max(1, rec.fs // 250))
        with tr.span("core.epoch_recording"):
            inputs["imagery"] = epoch_recording(
                rec, "imagery", tuple(cfg["epoch"]["imagery_window_ms"]))
        inputs["recording"] = rec
    return inputs


def run(w: Workload, inputs: dict) -> dict:
    """The timed section: one call into the program on ready inputs."""
    from vmidecode import cli, harness
    if w.entry == "pipeline":
        harness.run_pipeline(inputs["cfg"], OUT)
        return {}
    if w.entry == "cli":
        return {"exit_code": cli.main(["--config", CONFIG, "--out", OUT,
                                       "report"])}
    return {"report": harness.sweep(inputs["imagery"],
                                    **sweep_args(inputs["cfg"]))}


def finish(w: Workload, inputs: dict, result: dict, tr, replica=None) -> None:
    """Write the outputs the gate reads that the timed call does not write.

    The sweep returns its report in memory, so its workload computes the
    full-data channel ranking, and the stat map of the planted channels
    only, for the gate here. With ``replica`` (the traced run) the stat map
    is built stage by stage.
    """
    if w.entry != "sweep":
        return
    from vmidecode import connectivity, epoch_recording, stats
    os.makedirs(OUT, exist_ok=True)
    result["report"].to_json(os.path.join(OUT, "report.json"))
    cfg = inputs["cfg"]
    imagery = inputs["imagery"]
    with tr.span("connectivity.per_class_plv"):
        per_class = connectivity.per_class_plv(imagery)
    with tr.span("connectivity.rank_channels"):
        ranking = connectivity.rank_channels(per_class.values())
    ranking.to_csv(os.path.join(OUT, "channel_ranking.csv"))
    with tr.span("core.epoch_recording"):
        rest = epoch_recording(inputs["recording"], "rest",
                               tuple(cfg["epoch"]["rest_window_ms"]))
    planted = imagery.montage.indices(sorted(w.planted_names))
    imagery = imagery.select(channel_idx=planted)
    rest = rest.select(channel_idx=planted)
    st = cfg["stats"]
    if replica is None:
        smap = stats.stat_map(imagery, rest, band=tuple(st["band"]),
                              n_perm=st["n_perm"], seed=cfg["seed"],
                              alpha=st["alpha"])
    else:
        smap = replica.stat_map(tr, imagery, rest, cfg)
    smap.to_csv(os.path.join(OUT, "stat_map.csv"))


def _read_csv(path) -> list:
    with open(path) as f:
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    return [dict(zip(rows[0], r)) for r in rows[1:]]


def check(w: Workload, result: dict) -> dict:
    """Gate the outputs under OUT; returns check name -> passed."""
    checks = {}
    if w.entry == "cli":
        checks["cli_exit_0"] = result.get("exit_code") == 0
    planted = w.planted_names
    ranking = _read_csv(os.path.join(OUT, "channel_ranking.csv"))
    top = {row["channel_name"] for row in ranking[:len(planted)]}
    checks[f"ranking_top{len(planted)}_planted"] = top == planted
    if w.channels is None:
        smap = {r["channel"]: r for r in
                _read_csv(os.path.join(OUT, "stat_map.csv"))}
        checks["planted_significant"] = all(
            smap[n]["significant"] == "1" for n in planted)
    with open(os.path.join(OUT, "report.json")) as f:
        entries = {(e["method"], e["k_channels"]): e for e in json.load(f)}
    checks["report_complete"] = set(entries) == {
        (m, k) for m in w.methods for k in w.channel_counts}
    if w.channels is None:
        for (method, k), e in sorted(entries.items()):
            if k >= FLOOR_MIN_K:
                checks[f"acc_{method}_k{k}>={ACC_FLOORS[method]:g}"] = (
                    e["mean_pct"] >= ACC_FLOORS[method])
    return checks
