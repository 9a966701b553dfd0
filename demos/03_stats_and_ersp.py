"""Imagery-vs-rest statistics and event-related spectral perturbation.

Contrasts band power between paired imagery and rest epochs with a sign-flip
permutation test, then renders the ERSP time-frequency map of one planted
channel: power rises above the pre-onset baseline once imagery starts.

Run: python3 demos/03_stats_and_ersp.py
"""

import numpy as np

from vmidecode import (Montage, SynthSpec, epoch_recording, ersp,
                       preprocess_recording, stat_map, synth_dataset)

CHANNELS = ("Fp1", "Fp2", "Cz", "Pz", "O1", "O2", "Oz", "Iz")

spec = SynthSpec(
    n_trials_per_class=12,
    planted_channels={0: ["Fp1", "Fp2"], 1: ["O1", "O2"],
                      2: ["Cz", "Pz"], 3: ["Oz", "Iz"]},
    carrier_hz={0: 3.0, 1: 6.0, 2: 9.0, 3: 12.0},
    coupling=0.9, snr_db=10.0, seed=3, fs=250, montage=Montage(CHANNELS),
)
rec = preprocess_recording(synth_dataset(spec))
imagery = epoch_recording(rec, "imagery", (500, 4500))
rest = epoch_recording(rec, "rest", (-4500, -500))

sm = stat_map(imagery, rest, band=(0.5, 13.0), n_perm=2000, seed=0)
print("per-channel imagery-vs-rest band-power contrast (alpha = "
      f"{sm.alpha}):")
for ch, (t, p, sig) in enumerate(zip(sm.t_values, sm.p_values,
                                     sm.significant)):
    mark = " *" if sig else ""
    print(f"  {CHANNELS[ch]:3s}  t = {t:7.2f}  p = {p:.4f}{mark}")
print(f"significant channels: "
      f"{[CHANNELS[i] for i in np.nonzero(sm.significant)[0]]}")

# ERSP of one planted occipital channel over epochs that straddle imagery
# onset. The STFT analysis window is ~1 s, so the baseline interval ends
# 1.1 s before onset to keep every baseline frame clear of the carrier.
wide = epoch_recording(rec, "onset", (-1500, 4500))
ch = CHANNELS.index("O1")
tf = ersp(wide.select(trial_idx=np.nonzero(wide.labels == 1)[0]), ch,
          baseline_ms=(-1500.0, -1100.0))
print(f"\nERSP O1, class 1 (6 Hz carrier): "
      f"{tf.values.shape[0]} freqs x {tf.values.shape[1]} time points")
f_mask = (tf.freqs_hz >= 4.0) & (tf.freqs_hz <= 8.0)
during = tf.values[np.ix_(f_mask, tf.times_ms >= 1000.0)].mean()
print(f"mean 4-8 Hz power change after onset: {during:+.1f} dB "
      f"(positive = above pre-onset baseline)")
