"""Command-line interface.

Each subcommand loads its inputs from the output directory, runs one stage
of harness and writes manifest.json; report runs harness.run_pipeline, the
in-memory chain synth, preprocess, connect, stats, psd, sweep (ersp, select
and train-* are not part of it). Global flags: --config (JSON), --seed,
--out. Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric divergence,
5 a cross-validation worker process died.
"""

import argparse
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from . import harness, io
from .errors import ConfigError, DataError, DivergenceError, PipelineError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4
EXIT_WORKER = 5


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vmidecode",
        description="Offline visual-motion-imagery EEG decoding pipeline.")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override the config root seed")
    p.add_argument("--out", default=None, help="output directory")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("synth", "preprocess", "connect", "select", "stats",
                 "ersp", "psd", "train-cnn", "train-csp", "sweep", "report"):
        sp = sub.add_parser(name)
        if name == "select":
            sp.add_argument("-k", type=int, default=16,
                            help="channel count to select")
        if name == "ersp":
            sp.add_argument("--channel", default=None,
                            help="channel name (default from config)")
    return p


def _load_cfg(args) -> dict:
    if args.config is None:
        if args.seed is None:
            raise ConfigError("seed", "need --config or --seed")
        cfg = {}
    else:
        cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return harness.validate_config(cfg)  # again, with the --seed override


def _out_dir(args, cfg) -> str:
    out = args.out or cfg.get("out") or "out"
    os.makedirs(out, exist_ok=True)
    return out


def _run(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, cfg)
    cmd = args.command
    if cmd == "report":
        harness.run_pipeline(cfg, out)
        return EXIT_OK
    artifacts = []
    emit = harness.emitter(out, artifacts)
    if cmd == "synth":
        harness.synth_stage(cfg, emit)
    elif cmd == "preprocess":
        src = cfg.get("input") or os.path.join(out, "recording.eegb")
        harness.preprocess_stage(cfg, io.load_recording(src), emit)
    else:
        # a missing input file is an OSError: exit 3 like any data error
        rec = io.load_recording(os.path.join(out, "preprocessed.eegb"))
        if cmd == "ersp":
            channel = args.channel or cfg["ersp"]["channel"]
            harness.ersp_stage(cfg, rec, channel, emit)
        else:
            imagery, rest = harness.epoch_stage(cfg, rec)
            if cmd == "connect":
                harness.connect_stage(cfg, imagery, emit)
            elif cmd == "select":
                harness.select_stage(imagery, args.k, emit)
            elif cmd == "stats":
                harness.stats_stage(cfg, imagery, rest, emit)
            elif cmd == "psd":
                harness.psd_stage(imagery, emit)
            elif cmd == "sweep":
                harness.sweep_stage(cfg, imagery, emit)
            else:
                harness.train_stage(
                    cfg, imagery, "cnn" if cmd == "train-cnn" else "csp_lda",
                    emit)
    harness.write_manifest(out, cfg, artifacts)
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except PipelineError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except BrokenProcessPool as e:
        print(f"worker error: {e}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
