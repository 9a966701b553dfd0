"""Phase-locking connectivity and channel selection.

Computes one trial-averaged PLV matrix per imagery class, lists the strongest
edges, and ranks channels by their best off-diagonal phase coupling. The
planted channel pairs should dominate both the edge lists and the ranking.

Run: python3 demos/02_connectivity_selection.py
"""

from vmidecode import (Montage, SynthSpec, epoch_recording, per_class_plv,
                       preprocess_recording, rank_channels, select_channels,
                       strong_edges, synth_dataset)

CHANNELS = ("Fp1", "Fp2", "Cz", "Pz", "O1", "O2", "Oz", "Iz")
PLANTED = {0: ["Fp1", "Fp2"], 1: ["O1", "O2"],
           2: ["Cz", "Pz"], 3: ["Oz", "Iz"]}

spec = SynthSpec(
    n_trials_per_class=12, planted_channels=PLANTED,
    carrier_hz={0: 3.0, 1: 6.0, 2: 9.0, 3: 12.0},
    coupling=0.9, snr_db=10.0, seed=7, fs=250, montage=Montage(CHANNELS),
)
rec = preprocess_recording(synth_dataset(spec))
imagery = epoch_recording(rec, "imagery", (500, 4500))

matrices = per_class_plv(imagery)

print("strongest PLV edges per class (threshold 0.5):")
for c, conn in sorted(matrices.items()):
    edges = strong_edges(conn, threshold=0.5)
    named = [f"{CHANNELS[i]}-{CHANNELS[j]} {v:.2f}" for i, j, v in edges[:3]]
    print(f"  class {c} (planted {'-'.join(PLANTED[c])}): "
          + (", ".join(named) if named else "none"))

ranking = rank_channels(matrices.values())
print("\nchannel ranking (mean over classes of best off-diagonal PLV):")
for r, (idx, score) in enumerate(ranking.order):
    print(f"  {r + 1}. {CHANNELS[idx]:3s}  {score:.3f}")

top4 = select_channels(ranking, 4)
print(f"\ntop-4 selection: {[CHANNELS[i] for i in top4]}")
print("(top-k prefixes nest: a larger k always extends a smaller one)")
