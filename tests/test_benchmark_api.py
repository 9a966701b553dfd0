"""The benchmark under perfbench/ still runs against this package.

perfbench/ is frozen: its files are not edited when the package changes, so
the names, signatures and config keys it uses must keep working. This test
imports its modules as the benchmark's worker does, with perfbench/ on the
path.
"""

from pathlib import Path

from vmidecode import TrainConfig, harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_configs_validate_and_its_calls_run(monkeypatch):
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
