"""Shared fixtures: a small synthetic dataset cheap enough for unit tests."""

import numpy as np
import pytest

from vmidecode import Montage, SynthSpec, epoch_recording, synth_dataset

SMALL_CHANNELS = ("Fp1", "Fp2", "Cz", "Pz", "O1", "O2", "Oz", "Iz")


def small_spec(**overrides):
    base = dict(
        n_trials_per_class=8,
        planted_channels={0: ["Fp1", "Fp2"], 1: ["O1", "O2"],
                          2: ["Cz", "Pz"], 3: ["Oz", "Iz"]},
        carrier_hz={0: 3.0, 1: 6.0, 2: 9.0, 3: 12.0},
        coupling=0.9,
        snr_db=10.0,
        seed=5,
        fs=250,
        montage=Montage(SMALL_CHANNELS),
    )
    base.update(overrides)
    return SynthSpec(**base)


@pytest.fixture(scope="session")
def small_recording():
    return synth_dataset(small_spec())


@pytest.fixture(scope="session")
def small_imagery(small_recording):
    return epoch_recording(small_recording, "imagery", (500, 4500))


def reduced_model_spec(n_channels=2, width=40, dropout=0.0):
    """A small stack mirroring the full architecture, cheap enough for
    finite-difference probing of every parameter."""
    from vmidecode import LayerSpec, ModelSpec
    layers = [
        LayerSpec("conv", maps_out=8, kernel=(1, 7)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("dropout", rate=dropout),
        LayerSpec("conv", maps_out=8, kernel=(n_channels, 1)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("avgpool", kernel=(1, 2)),
        LayerSpec("conv", maps_out=12, kernel=(1, 5)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("avgpool", kernel=(1, 2)),
        LayerSpec("flatten"),
        LayerSpec("dense", units=4),
        LayerSpec("softmax"),
    ]
    return ModelSpec(layers, n_channels, width)


def loss_on_batch(net, x, labels, train=True):
    """Forward + cross-entropy without touching gradients (for FD checks)."""
    from vmidecode.neural import _cross_entropy
    return _cross_entropy(net.forward(x, train=train), labels)


def gradient_check(seed, eps=1e-5):
    """Compare backprop against central finite differences on every
    parameter of the reduced model; returns (n_params, worst relative error).

    Batch-norm train-mode statistics make the reduction deterministic, so
    central differences are a valid oracle with dropout disabled.
    """
    from vmidecode import Network
    spec = reduced_model_spec()
    net = Network(spec, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(1000 + seed)
    x = rng.standard_normal((4, 1, spec.n_channels, spec.input_samples))
    y = rng.integers(0, 4, size=4)
    net.forward(x, train=True)
    net.backward(y)
    worst = 0.0
    n_params = 0
    for layer, name in net.parameters():
        p = getattr(layer, name)
        g = getattr(layer, "d" + name)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            up = loss_on_batch(net, x, y, train=True)
            flat_p[i] = orig - eps
            down = loss_on_batch(net, x, y, train=True)
            flat_p[i] = orig
            fd = (up - down) / (2.0 * eps)
            denom = max(1e-4, abs(fd) + abs(flat_g[i]))
            worst = max(worst, abs(fd - flat_g[i]) / denom)
            n_params += 1
    return n_params, worst


def noise_epochs(n_trials, n_channels, n_samples, fs=250, seed=0, t0_ms=500.0):
    """Plain white-noise EpochSet for property tests."""
    from vmidecode import EpochSet
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal((n_trials, n_channels, n_samples))
    labels = np.arange(n_trials) % 4
    return EpochSet(labels, tensor, fs, t0_ms)
