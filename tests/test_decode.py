"""Unsaturated decode checks at -10 dB SNR, where no method reads 100 %, so a
change that makes it decode worse shows.

configs/decode-10db.json is the demo config at synth.snr_db -10 with a
CNN-only sweep at k = 16 over CV seeds 0 and 1 (2 folds each, 3 epochs).
Over synth seeds 1-12, with the float-uniform dropout masks used before
rate-0.5 masks were drawn as random bits, its CNN read the mean accuracies
below (BENCH_fused_runs.json has both versions). The floor is their mean
less two standard deviations across seeds, the paper's across-subject
spread.

The same config's CSP-LDA, on the same CV, contrasts the paper's channel
selection with a fixed random channel set: k = 16 PLV-selected channels,
ranked inside each training fold, against the 16 channels of RANDOM_16.
Over synth seeds 1-12 (the white + 1/f noise drawn as one shaped float32
spectrum) they read the accuracies below; the floors are again mean - 2 sd,
of the selected set's accuracy and of its gap over the random set.
"""

from pathlib import Path

import numpy as np
import pytest

from vmidecode import dsp, epoch_recording, synth_dataset
from vmidecode.harness import (cross_validate, downsample_factor, load_config,
                               sweep, synth_from_config, train_config)

DECODE = Path(__file__).resolve().parents[1] / "configs" / "decode-10db.json"
FLOAT_MASK_PCT = (79.75, 77.75, 85.5, 81.75, 82.75, 68.25, 82.75, 72.5,
                  90.0, 77.0, 85.0, 76.5)
FLOOR_PCT = np.mean(FLOAT_MASK_PCT) - 2 * np.std(FLOAT_MASK_PCT, ddof=1)

# np.random.default_rng(16).choice(64, size=16, replace=False), sorted: it
# holds 5 of the 16 planted channels (Fp1, Fp2, AF7, AF8, Iz)
RANDOM_16 = (0, 1, 4, 5, 18, 19, 22, 26, 27, 28, 29, 36, 40, 42, 54, 63)
SELECTED_PCT = (94.0, 98.25, 96.0, 97.0, 96.25, 97.0, 97.25, 98.5, 97.5,
                97.25, 98.0, 97.0)
RANDOM_PCT = (72.25, 69.75, 66.0, 70.25, 72.5, 73.5, 73.25, 72.0, 69.75,
              74.25, 68.5, 76.0)
SELECTED_FLOOR_PCT = np.mean(SELECTED_PCT) - 2 * np.std(SELECTED_PCT, ddof=1)
GAP_PCT = np.subtract(SELECTED_PCT, RANDOM_PCT)
GAP_FLOOR_PCT = np.mean(GAP_PCT) - 2 * np.std(GAP_PCT, ddof=1)


@pytest.fixture(scope="module")
def decode():
    """decode-10db's config and its preprocessed imagery epochs."""
    cfg = load_config(DECODE)
    rec = synth_dataset(synth_from_config(cfg))
    rec = dsp.preprocess_recording(rec, band=tuple(cfg["preprocess"]["band"]),
                                   factor=downsample_factor(cfg, rec.fs))
    return cfg, epoch_recording(rec, "imagery",
                                tuple(cfg["epoch"]["imagery_window_ms"]))


def test_cnn_at_minus_10_db_stays_above_the_floor(decode):
    cfg, imagery = decode
    report = sweep(imagery, methods=cfg["sweep"]["methods"],
                   channel_counts=cfg["sweep"]["channel_counts"],
                   folds=cfg["cv"]["folds"], seeds=tuple(cfg["cv"]["seeds"]),
                   csp_m=cfg["csp"]["m"], train_config=train_config(cfg))
    entry = report.entry("cnn", 16)
    assert len(entry.fold_accuracies) == 4
    assert entry.mean_pct >= FLOOR_PCT, (entry.mean_pct, FLOOR_PCT)


def test_plv_selected_channels_beat_a_random_set_at_minus_10_db(decode):
    cfg, imagery = decode
    cv = dict(folds=cfg["cv"]["folds"], seeds=tuple(cfg["cv"]["seeds"]),
              csp_m=cfg["csp"]["m"])
    selected = cross_validate(imagery, "csp_lda", k_channels=16, **cv)
    random = cross_validate(imagery.select(channel_idx=RANDOM_16), "csp_lda",
                            **cv)
    assert len(selected.fold_accuracies) == len(random.fold_accuracies) == 4
    assert selected.mean_pct >= SELECTED_FLOOR_PCT, (selected.mean_pct,
                                                     SELECTED_FLOOR_PCT)
    gap = selected.mean_pct - random.mean_pct
    assert gap >= GAP_FLOOR_PCT, (selected.mean_pct, random.mean_pct,
                                  GAP_FLOOR_PCT)
