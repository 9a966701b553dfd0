"""Unsaturated decode check: the CNN at -10 dB SNR, where it does not read
100 %, so a change that makes it learn worse shows.

configs/decode-10db.json is the demo config at synth.snr_db -10 with a
CNN-only sweep at k = 16 over CV seeds 0 and 1 (2 folds each, 3 epochs).
Over synth seeds 1-12, with the float-uniform dropout masks used before
rate-0.5 masks were drawn as random bits, its CNN read the mean accuracies
below (BENCH_fused_runs.json has both versions). The floor is their mean
less two standard deviations across seeds, the paper's across-subject
spread.
"""

from pathlib import Path

import numpy as np

from vmidecode import dsp, epoch_recording, synth_dataset
from vmidecode.harness import (downsample_factor, load_config, sweep,
                               synth_from_config, train_config)

DECODE = Path(__file__).resolve().parents[1] / "configs" / "decode-10db.json"
FLOAT_MASK_PCT = (79.75, 77.75, 85.5, 81.75, 82.75, 68.25, 82.75, 72.5,
                  90.0, 77.0, 85.0, 76.5)
FLOOR_PCT = np.mean(FLOAT_MASK_PCT) - 2 * np.std(FLOAT_MASK_PCT, ddof=1)


def test_cnn_at_minus_10_db_stays_above_the_floor():
    cfg = load_config(DECODE)
    rec = synth_dataset(synth_from_config(cfg))
    rec = dsp.preprocess_recording(rec, band=tuple(cfg["preprocess"]["band"]),
                                   factor=downsample_factor(cfg, rec.fs))
    imagery = epoch_recording(rec, "imagery",
                              tuple(cfg["epoch"]["imagery_window_ms"]))
    report = sweep(imagery, methods=cfg["sweep"]["methods"],
                   channel_counts=cfg["sweep"]["channel_counts"],
                   folds=cfg["cv"]["folds"], seeds=tuple(cfg["cv"]["seeds"]),
                   csp_m=cfg["csp"]["m"], train_config=train_config(cfg))
    entry = report.entry("cnn", 16)
    assert len(entry.fold_accuracies) == 4
    assert entry.mean_pct >= FLOOR_PCT, (entry.mean_pct, FLOOR_PCT)
