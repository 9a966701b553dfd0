"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. The heavyweight fixture executes the shipped demo config once and is
shared by the decode and sweep criteria.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from vmidecode import (EpochSet, Montage, SynthSpec, build_model,
                       cross_validate, epoch_recording, ersp, fft,
                       per_class_plv, permutation_test, plv_matrix,
                       rank_channels, select_channels, synth_dataset)
from vmidecode.csp import _mean_normalized_cov, csp_fit
from vmidecode.dsp import preprocess_recording
from vmidecode.harness import load_config, run_pipeline
from vmidecode.seeding import child_rng

from conftest import gradient_check

REPO = Path(__file__).resolve().parents[1]
DEMO = REPO / "configs" / "demo.json"
TINY = REPO / "configs" / "tiny.json"


def verdict(num, description, ok):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """The shipped demo pipeline, run once end to end and timed."""
    out = tmp_path_factory.mktemp("demo")
    cfg = load_config(DEMO)
    t0 = time.time()
    run_pipeline(cfg, out)
    elapsed = time.time() - t0
    report = json.loads((out / "report.json").read_text())
    return {"out": out, "cfg": cfg, "elapsed": elapsed, "report": report}


def _entry(report, method, k):
    for e in report:
        if e["method"] == method and e["k_channels"] == k:
            return e
    raise KeyError((method, k))


# ---------------------------------------------------------------------------

def test_criterion_1_shape_trace():
    t0 = time.time()
    ok = True
    expected_tail = [(25, 1, 376), (25, 1, 94), (50, 1, 80), (50, 1, 20),
                     (100, 1, 6), (100, 1, 1), 100, 4]
    for n in (2, 4, 8, 16, 20, 32, 64):
        trace = build_model(n).shape_trace()
        key = [trace[i] for i in (0, 4, 7, 9, 12, 14, 17, 18, 19)]
        ok = ok and key == [(25, n, 376)] + expected_tail
    elapsed = time.time() - t0
    verdict(1, "architecture shape trace exact for all channel counts, < 1 s",
            ok and elapsed < 1.0)


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    ok = True
    for seed in range(3):
        n_params, worst = gradient_check(seed)
        ok = ok and n_params >= 200 and worst < 1e-4
    elapsed = time.time() - t0
    verdict(2, "backprop matches central finite differences < 1e-4, < 2 min",
            ok and elapsed < 120.0)


def test_criterion_3_plv_oracle():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((5, 1, 500))

    def plv01(tensor):
        ep = EpochSet(np.zeros(tensor.shape[0], dtype=int), tensor, 250, 500.0)
        return plv_matrix(ep).values[0, 1]

    identical = plv01(np.concatenate([base, base], axis=1))

    t = np.arange(500) / 250.0
    offs = []
    for _ in range(8):
        phi = rng.uniform(0, 2 * np.pi)
        offs.append(np.stack([np.sin(2 * np.pi * 8 * t + phi),
                              np.sin(2 * np.pi * 8 * t + phi + 0.9)]))
    offset = plv01(np.stack(offs))

    noise = plv01(rng.standard_normal((50, 2, 1000)))

    pair = rng.standard_normal((6, 2, 500))
    scaled = pair * np.array([4.0, 0.25])[None, :, None]
    scale_gap = abs(plv01(pair) - plv01(scaled))

    verdict(3, "PLV: copies=1 (1e-9), constant offset=1 (1e-6), "
               "independent noise < 0.1, amplitude-invariant (1e-9)",
            abs(identical - 1.0) < 1e-9 and abs(offset - 1.0) < 1e-6
            and noise < 0.1 and scale_gap < 1e-9)


def test_criterion_4_fft_oracle():
    rng = np.random.default_rng(1)
    ok = True
    for n in range(1, 65):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        k = np.arange(n)
        want = x @ np.exp(-2j * np.pi * np.outer(k, k) / n).T
        scale = max(1.0, np.abs(want).max())
        ok = ok and np.abs(fft(x) - want).max() / scale < 1e-9
    for n in (16, 33, 100, 250):
        x = rng.standard_normal((250, n)) + 1j * rng.standard_normal((250, n))
        time_e = (np.abs(x) ** 2).sum(axis=-1)
        freq_e = (np.abs(fft(x)) ** 2).sum(axis=-1) / n
        ok = ok and np.allclose(freq_e, time_e, rtol=1e-9)
    verdict(4, "FFT matches the naive DFT (n <= 64) and Parseval on 1000 "
               "random inputs, 1e-9", ok)


def test_criterion_5_permutation_oracle():
    p_exh = permutation_test([1.0] * 4, [0.0] * 4, n_perm=10000)

    rng = np.random.default_rng(2)
    a = rng.standard_normal(12) + 0.4
    b = rng.standard_normal(12)
    gap = abs(permutation_test(a, b, n_perm=10000)        # exhaustive, 2^12
              - permutation_test(a, b, n_perm=4000,      # Monte Carlo
                                 rng=child_rng(0, "perm")))

    ps = []
    for _ in range(1000):
        d = rng.standard_normal(20)
        ps.append(permutation_test(
            d, np.zeros(20), n_perm=499,
            rng=np.random.default_rng(rng.integers(2 ** 32))))
    ps = np.sort(ps)
    n = len(ps)
    ks = max((np.arange(1, n + 1) / n - ps).max(),
             (ps - np.arange(n) / n).max())

    verdict(5, "permutation test: exhaustive p = 0.125, MC within 0.02, "
               "null p-values KS-uniform < 0.05",
            p_exh == 0.125 and gap <= 0.02 and ks < 0.05)


def test_criterion_6_csp_oracle():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((10, 4, 400))
        b = rng.standard_normal((10, 4, 400))
        a[:, 0, :] *= 4.0
        b[:, 1, :] *= 4.0
        ep_a = EpochSet(np.zeros(10, dtype=int), a, 250, 500.0)
        ep_b = EpochSet(np.ones(10, dtype=int), b, 250, 500.0)
        model = csp_fit(ep_a, ep_b, m=1)
        comp = (_mean_normalized_cov(a) + _mean_normalized_cov(b))
        white = model.filters @ comp @ model.filters.T
        ok = ok and np.abs(white - np.eye(model.filters.shape[0])).max() < 1e-8
        ok = ok and int(np.argmax(np.abs(model.filters[0]))) == 0
        ok = ok and int(np.argmax(np.abs(model.filters[-1]))) == 1
    verdict(6, "CSP whitening identity (1e-8) and planted-channel recovery "
               "in 10/10 seeds", ok)


def test_criterion_7_end_to_end_decode(demo_run):
    report = demo_run["report"]
    cnn = _entry(report, "cnn", 16)["mean_pct"] / 100.0
    csp = _entry(report, "csp_lda", 16)["mean_pct"] / 100.0

    # label-shuffled control on the very same preprocessed epochs
    from vmidecode.io import load_epochs
    imagery = load_epochs(demo_run["out"] / "imagery_epochs.eegb")
    shuffled = EpochSet(np.random.default_rng(0).permutation(imagery.labels),
                        imagery.tensor, imagery.fs, imagery.t0_ms,
                        montage=imagery.montage)
    chance = cross_validate(shuffled, "csp_lda", k_channels=None, folds=2,
                            seeds=(0,)).mean_pct / 100.0

    # top-16 channel recovery across 5 fresh synthetic seeds
    synth = demo_run["cfg"]["synth"]
    planted = {int(c): names for c, names in synth["planted_channels"].items()}
    planted_set = {name for names in planted.values() for name in names}
    montage = Montage.default()
    hits = total = 0
    for seed in range(5):
        spec = SynthSpec(
            n_trials_per_class=25, planted_channels=planted,
            carrier_hz={int(c): float(v) for c, v in synth["carrier_hz"].items()},
            coupling=synth["coupling"], snr_db=synth["snr_db"],
            seed=seed, fs=synth["fs"])
        rec = preprocess_recording(synth_dataset(spec))
        imagery_s = epoch_recording(rec, "imagery", (500, 4500))
        ranking = rank_channels(per_class_plv(imagery_s).values())
        top = {montage.channel_names[i]
               for i in select_channels(ranking, len(planted_set))}
        hits += len(top & planted_set)
        total += len(planted_set)
    recovery = hits / total

    ok = (demo_run["elapsed"] <= 600.0 and cnn >= 0.90 and csp >= 0.60
          and 0.15 <= chance <= 0.35 and recovery >= 0.90)
    verdict(7, f"demo decode: cnn {cnn:.2f} >= 0.90, csp-lda {csp:.2f} >= "
               f"0.60, shuffled {chance:.2f} in 0.25+-0.10, channel recovery "
               f"{recovery:.2f} >= 0.90, runtime {demo_run['elapsed']:.0f}s "
               f"<= 600s", ok)


def test_criterion_8_channel_sweep_report(demo_run):
    sweep_csv = (demo_run["out"] / "sweep.csv").read_text().strip().split("\n")
    header_ok = sweep_csv[0] == "method,2ch,4ch,8ch,16ch,20ch,32ch,64ch"
    methods = [line.split(",")[0] for line in sweep_csv[1:]]
    cells_ok = all("% (±" in line for line in sweep_csv[1:])
    report = demo_run["report"]
    k16 = _entry(report, "cnn", 16)["mean_pct"]
    k2 = _entry(report, "cnn", 2)["mean_pct"]
    verdict(8, "sweep CSV has 7 channel-count columns with mean% (±std) "
               f"cells and cnn k16 ({k16:.1f}) >= k2 ({k2:.1f})",
            header_ok and set(methods) == {"cnn", "csp_lda"} and cells_ok
            and k16 >= k2)


def test_criterion_9_ersp_property():
    rng = np.random.default_rng(3)
    fs = 250
    n = round(5.0 * fs)
    tensor = rng.standard_normal((24, 1, n))
    onset = round(1.0 * fs)  # 500 ms after imagery onset
    t = np.arange(n - onset) / fs
    tensor[:, 0, onset:] += 3.0 * np.sin(2 * np.pi * 10.0 * t)
    ep = EpochSet(np.zeros(24, dtype=int), tensor, fs, -500.0)
    tf = ersp(ep, 0)
    f_mask = (tf.freqs_hz >= 8.0) & (tf.freqs_hz <= 12.0)
    burst = tf.values[np.ix_(f_mask, tf.times_ms >= 1000.0)].mean()
    pre = abs(tf.values[:, tf.times_ms < 400.0].mean())
    noise_ep = EpochSet(np.zeros(24, dtype=int),
                        rng.standard_normal((24, 1, n)), fs, -500.0)
    quiet = np.abs(ersp(noise_ep, 0).values).mean()
    verdict(9, f"ERSP grid is 400 points, planted burst {burst:.1f} dB > +3, "
               f"pre-onset {pre:.2f} dB < 1, noise-only {quiet:.2f} dB < 1",
            tf.times_ms.shape == (400,) and burst > 3.0 and pre < 1.0
            and quiet < 1.0)


def test_criterion_10_cli_determinism(tmp_path):
    from vmidecode.cli import main
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(["--config", str(TINY), "--out", str(out1), "report"])
    code2 = main(["--config", str(TINY), "--out", str(out2), "report"])
    same = ((out1 / "manifest.json").read_bytes()
            == (out2 / "manifest.json").read_bytes())
    verdict(10, "two CLI pipeline runs with equal config+seed produce "
                "byte-identical manifests", code1 == 0 and code2 == 0 and same)
