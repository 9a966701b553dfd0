"""Four-class decoding: CSP-LDA baseline vs the CNN, across channel counts.

Runs stratified cross-validation on a small synthetic dataset for both
decoders at several connectivity-selected channel counts and prints the
accuracy grid. Kept deliberately small so it finishes in about a minute.

Run: python3 demos/04_decode_sweep.py
"""

import numpy as np

from vmidecode import (Montage, SynthSpec, TrainConfig, epoch_recording,
                       preprocess_recording, sweep, synth_dataset)

CHANNELS = ("Fp1", "Fp2", "Cz", "Pz", "O1", "O2", "Oz", "Iz")

spec = SynthSpec(
    n_trials_per_class=10,
    planted_channels={0: ["Fp1", "Fp2"], 1: ["O1", "O2"],
                      2: ["Cz", "Pz"], 3: ["Oz", "Iz"]},
    carrier_hz={0: 3.0, 1: 6.0, 2: 9.0, 3: 12.0},
    coupling=0.9, snr_db=10.0, seed=21, fs=250, montage=Montage(CHANNELS),
)
rec = preprocess_recording(synth_dataset(spec))
imagery = epoch_recording(rec, "imagery", (500, 4500))

counts = (2, 4, 8)
report = sweep(imagery, methods=("csp_lda", "cnn"), channel_counts=counts,
               folds=2, seeds=(0,),
               train_config=TrainConfig(epochs=2, batch_size=16, seed=0))

head = "method   " + "".join(f"{f'{k}ch':>18s}" for k in counts)
print(head)
for method in ("csp_lda", "cnn"):
    cells = [report.entry(method, k).cell() for k in counts]
    print(f"{method:8s} " + "".join(f"{c:>18s}" for c in cells))

best = report.entry("cnn", 8)
print(f"\ncnn confusion matrix at 8 channels (rows = true class):")
print(np.array2string(best.confusion, prefix="  "))
