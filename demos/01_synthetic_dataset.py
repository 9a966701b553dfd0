"""Tour of the synthetic dataset: timeline, preprocessing, epoching, spectra.

Generates a small seeded recording with four imagery classes, each carried by
a distinct oscillation frequency on a planted channel group, then walks the
signal through the standard preprocessing chain and shows where the planted
carriers surface in the per-class spectra.

Run: python3 demos/01_synthetic_dataset.py
"""

import numpy as np

from vmidecode import (Montage, SynthSpec, TrialTimeline, epoch_recording,
                       preprocess_recording, synth_dataset, welch_psd)

CHANNELS = ("Fp1", "Fp2", "Cz", "Pz", "O1", "O2", "Oz", "Iz")

spec = SynthSpec(
    n_trials_per_class=10,
    planted_channels={0: ["Fp1", "Fp2"], 1: ["O1", "O2"],
                      2: ["Cz", "Pz"], 3: ["Oz", "Iz"]},
    carrier_hz={0: 3.0, 1: 6.0, 2: 9.0, 3: 12.0},
    coupling=0.9,
    snr_db=10.0,
    seed=42,
    fs=250,
    montage=Montage(CHANNELS),
)

rec = synth_dataset(spec)
tl = TrialTimeline()
print(f"recording: {rec.data.shape[0]} channels x {rec.data.shape[1]} samples "
      f"at {rec.fs} Hz ({rec.data.shape[1] / rec.fs:.0f} s)")
print(f"trial timeline: rest {tl.rest1_s:.0f} s, cue {tl.cue_s:.0f} s, "
      f"rest {tl.rest2_s:.0f} s, imagery {tl.imagery_s:.0f} s "
      f"= {tl.total_s:.0f} s per trial")
print(f"events: {len(rec.events)} trials, classes "
      f"{sorted(set(c for _, c in rec.events))}")

# band-pass [0.5, 13] Hz; fs already 250 so no decimation
clean = preprocess_recording(rec, factor=1)

imagery = epoch_recording(clean, "imagery", (500, 4500))
rest = epoch_recording(clean, "rest", (-4500, -500))
print(f"\nimagery epochs: {imagery.tensor.shape} "
      f"(trials x channels x samples), window starts {imagery.t0_ms:.0f} ms "
      f"after imagery onset")
print(f"rest epochs:    {rest.tensor.shape}")

print("\nper-class spectral peak on each class's planted channel:")
for c in range(4):
    ch_name = spec.planted_channels[c][0]
    ch = CHANNELS.index(ch_name)
    trials = imagery.tensor[imagery.labels == c, ch, :]
    psd = welch_psd(trials.ravel(), imagery.fs, seg_len=512)
    peak = psd.freqs_hz[np.argmax(psd.power[1:]) + 1]
    print(f"  class {c}: planted {spec.carrier_hz[c]:4.1f} Hz on {ch_name:3s} "
          f"-> peak at {peak:4.1f} Hz")
