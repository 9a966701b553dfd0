"""The benchmark under perfbench/ still runs against this package.

perfbench/ is frozen: its files are not edited when the package changes, so
the names, signatures and config keys it uses must keep working. This test
imports its modules as the benchmark's worker does, with perfbench/ on the
path.
"""

from pathlib import Path

from vmidecode import (TrainConfig, epoch_recording, harness, slide_windows,
                       stats)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_configs_validate_and_its_calls_run(monkeypatch,
                                                      small_imagery):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import replica
    import workloads
    for w in workloads.WORKLOADS.values():
        cfg = harness.validate_config(workloads.pipeline_config(w, 1))
        args = workloads.sweep_args(cfg)
        assert args["methods"] == w.methods
        tc = args["train_config"]
        assert TrainConfig(**tc.__dict__) == tc  # as the replica rebuilds it
    # 16 windows x 2 channels x 376 positions x (125 taps + 25 maps) floats
    assert replica.conv0_bytes(2) == 4 * 16 * 2 * 376 * (125 + 25)
    # the layer-by-layer loop gives Network's forward and backward bits
    _, same = replica.layer_step(slide_windows(small_imagery), 2, 1)
    assert same


def test_the_benchmark_stat_map_gives_the_package_bytes(monkeypatch,
                                                        small_recording,
                                                        small_imagery):
    # the trace-mode replica spans each channel's tests; its t and p must
    # stay those of stats.stat_map
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import replica
    import tracing
    import workloads
    cfg = workloads.pipeline_config(next(iter(workloads.WORKLOADS.values())),
                                    1)
    cfg["stats"]["n_perm"] = 200
    st = cfg["stats"]
    rest = epoch_recording(small_recording, "rest",
                           cfg["epoch"]["rest_window_ms"])
    got = replica.stat_map(tracing.NullTracer(), small_imagery, rest, cfg)
    want = stats.stat_map(small_imagery, rest, band=tuple(st["band"]),
                          n_perm=st["n_perm"], seed=cfg["seed"],
                          alpha=st["alpha"])
    assert got.t_values.tobytes() == want.t_values.tobytes()
    assert got.p_values.tobytes() == want.p_values.tobytes()


def test_the_benchmark_fft_kernels_run(monkeypatch, small_imagery):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import replica
    times, mflop = replica.fft_kernels(small_imagery)
    assert times.keys() == {"dsp.fft.n1000_s", "dsp.fft.n250_s",
                            "dsp.fft.n256_s"}
    assert mflop > 0
