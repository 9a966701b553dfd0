"""Tensor engine, architecture geometry, training and augmentation."""

import numpy as np
import pytest

from vmidecode import (CnnClassifier, EpochSet, Network, TrainConfig,
                       build_model, load_network, predict_proba,
                       predict_trial, save_network, slide_windows)
from vmidecode.errors import DivergenceError, RangeError, ShapeError
from vmidecode.neural import AvgPool, loss_on_batch, out_len, train

from conftest import gradient_check, reduced_model_spec

# Output-shape column of the decoding architecture for any channel count:
# temporal conv, spatial conv, pool, conv, pool, conv, pool, flatten, dense.
EXPECTED_TRACE = lambda n: [
    (25, n, 376), (25, 1, 376), (25, 1, 94),
    (50, 1, 80), (50, 1, 20), (100, 1, 6), (100, 1, 1), 100, 4,
]


# ---------------------------------------------------------------------------
# Geometry

def test_out_len_formula_against_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        k = int(rng.integers(1, n + 1))
        s = int(rng.integers(1, 6))
        # oracle: count the valid window start positions directly
        starts = [i for i in range(n) if i % s == 0 and i + k <= n]
        assert out_len(n, k, s) == len(starts)
    with pytest.raises(ShapeError):
        out_len(4, 5, 1)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 20, 32, 64])
def test_shape_trace_matches_architecture_table(n):
    trace = build_model(n).shape_trace()
    key_layers = [trace[i] for i in (0, 4, 7, 9, 12, 14, 17, 18, 19)]
    assert key_layers == EXPECTED_TRACE(n)


def test_temporal_kernel_forces_376():
    assert out_len(500, 125, 1) == 376


def test_build_model_validates_channels():
    with pytest.raises(RangeError):
        build_model(0)


# ---------------------------------------------------------------------------
# Forward pass

def test_forward_rows_sum_to_one():
    spec = reduced_model_spec()
    net = Network(spec, seed=0, dtype=np.float64)
    x = np.random.default_rng(1).standard_normal((5, 1, 2, 40))
    probs = net.forward(x, train=False)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert probs.min() >= 0.0


def test_zeroed_head_gives_uniform_probabilities():
    spec = reduced_model_spec()
    net = Network(spec, seed=0, dtype=np.float64)
    dense = net.layers[-2]
    dense.w[:] = 0.0
    dense.b[:] = 0.0
    x = np.random.default_rng(2).standard_normal((3, 1, 2, 40))
    np.testing.assert_allclose(net.forward(x, train=False), 0.25, atol=1e-12)


def test_eval_forward_is_deterministic():
    spec = reduced_model_spec(dropout=0.5)
    net = Network(spec, seed=3)
    x = np.random.default_rng(3).standard_normal((4, 1, 2, 40))
    np.testing.assert_array_equal(net.forward(x, train=False),
                                  net.forward(x, train=False))


def test_network_is_freed_without_cyclic_gc():
    # dropout's RNG factory must not refer back to the network: a cycle
    # would keep every dead network and its activations alive until gc runs
    import gc
    import weakref
    gc.disable()
    try:
        net = Network(reduced_model_spec(dropout=0.5), seed=0)
        net.forward(np.zeros((2, 1, 2, 40)), train=True)
        ref = weakref.ref(net)
        del net
        assert ref() is None
    finally:
        gc.enable()


def test_forward_rejects_bad_shape():
    net = Network(reduced_model_spec(), seed=0)
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 1, 3, 40)))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 2, 40)))


# ---------------------------------------------------------------------------
# Gradients

def test_gradient_matches_finite_differences():
    n_params, worst = gradient_check(seed=0)
    assert n_params >= 200
    assert worst < 1e-4


def test_duplicated_batch_keeps_mean_gradients():
    spec = reduced_model_spec()
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 1, 2, 40))
    y = np.array([0, 2, 3])
    grads = []
    for data, labels in ((x, y), (np.concatenate([x, x]), np.concatenate([y, y]))):
        net = Network(spec, seed=5, dtype=np.float64)
        net.forward(data, train=True)
        net.backward(labels)
        grads.append([getattr(l, "d" + n).copy() for l, n in net.parameters()])
    for g1, g2 in zip(*grads):
        np.testing.assert_allclose(g1, g2, atol=1e-9)


def test_backward_rejects_bad_labels():
    net = Network(reduced_model_spec(), seed=0)
    net.forward(np.zeros((2, 1, 2, 40)), train=True)
    with pytest.raises(RangeError):
        net.backward([0, 4])


def test_avgpool_preserves_mean():
    pool = AvgPool((1, 4), (1, 4))
    x = np.random.default_rng(6).standard_normal((2, 3, 1, 16))
    out = pool.forward(x, train=True)
    np.testing.assert_allclose(out.mean(), x.mean(), atol=1e-9)


def test_batchnorm_train_mode_normalizes():
    from vmidecode.neural import BatchNorm
    bn = BatchNorm(3, np.float64)  # gamma = 1, beta = 0
    x = np.random.default_rng(7).standard_normal((8, 3, 2, 50)) * 4.0 + 2.0
    y = bn.forward(x, train=True)
    np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-3)


# ---------------------------------------------------------------------------
# Kernel oracles

def _direct_correlation(x, w, b):
    """Valid stride-1 correlation by an explicit loop over every output."""
    n, _, h, wid = x.shape
    mo, _, kh, kw = w.shape
    out = np.empty((n, mo, h - kh + 1, wid - kw + 1))
    for s in range(n):
        for m in range(mo):
            for i in range(h - kh + 1):
                for j in range(wid - kw + 1):
                    out[s, m, i, j] = (x[s, :, i:i + kh, j:j + kw]
                                       * w[m]).sum() + b[m]
    return out


@pytest.mark.parametrize("x_shape, w_shape", [
    ((2, 1, 3, 140), (4, 1, 1, 125)),   # temporal
    ((2, 5, 3, 16), (4, 5, 3, 1)),      # spatial: collapses the channels
    ((2, 5, 1, 30), (6, 5, 1, 15)),     # the later 1x15 convs
])
def test_conv_forward_matches_direct_correlation(x_shape, w_shape):
    from vmidecode.neural import Conv
    rng = np.random.default_rng(8)
    conv = Conv(w_shape[1], w_shape[0], w_shape[2:], rng, np.float64)
    conv.b = rng.standard_normal(w_shape[0])
    x = rng.standard_normal(x_shape)
    for train in (True, False):
        out = conv.forward(x, train)
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, _direct_correlation(x, conv.w, conv.b),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("x_shape, w_shape", [
    ((2, 1, 3, 30), (4, 1, 1, 7)),      # overlapping taps
    ((2, 5, 3, 16), (4, 5, 3, 1)),      # taps tiling the input
    ((2, 5, 1, 30), (6, 5, 1, 15)),
])
def test_conv_input_gradient_matches_finite_differences(x_shape, w_shape):
    from vmidecode.neural import Conv
    rng = np.random.default_rng(12)
    conv = Conv(w_shape[1], w_shape[0], w_shape[2:], rng, np.float64)
    x = rng.standard_normal(x_shape)
    r = rng.standard_normal(conv.forward(x, True).shape)
    dx = conv.backward(r)  # gradient of sum(forward(x) * r)
    eps = 1e-6
    for idx in zip(*(rng.integers(0, n, size=20) for n in x_shape)):
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        fd = ((conv.forward(xp, False) - conv.forward(xm, False)) * r).sum()
        assert abs(fd / (2 * eps) - dx[idx]) < 1e-6


def test_dropout_masks_follow_the_named_stream():
    from vmidecode.neural import Dropout
    from vmidecode.seeding import child_rng
    spec = reduced_model_spec(dropout=0.3)
    li = next(i for i, ls in enumerate(spec.layers) if ls.kind == "dropout")
    net = Network(spec, seed=9)
    drop = net.layers[li]
    assert isinstance(drop, Dropout)
    # more elements than one chunk of uniforms, and not a multiple of it
    x = np.random.default_rng(9).standard_normal(
        (3, 8, 2, Dropout.CHUNK // 20)).astype(np.float32)
    scale = np.float32(1.0 / (1.0 - 0.3))
    for call in range(2):
        keep = child_rng(9, "dropout", li, call).random(x.shape) >= 0.3
        y = drop.forward(x, train=True)
        np.testing.assert_array_equal(y, np.where(keep, x * scale, 0.0))
        g = drop.backward(np.ones_like(x))
        np.testing.assert_array_equal(g, np.where(keep, scale, 0.0))
    assert drop.forward(x, train=False) is x


def test_first_conv_returns_no_input_gradient():
    spec = reduced_model_spec()
    net = Network(spec, seed=0, dtype=np.float64)
    x = np.random.default_rng(10).standard_normal((3, 1, 2, 40))
    convs = [layer for layer, ls in zip(net.layers, spec.layers)
             if ls.kind == "conv"]
    assert not convs[0].input_grad
    assert all(c.input_grad for c in convs[1:])
    net.forward(x, train=True)
    assert convs[0].backward(np.zeros((3,) + spec.shape_trace()[0])) is None
    assert convs[0].dw.shape == convs[0].w.shape


def test_eval_forward_keeps_no_training_caches():
    net = Network(reduced_model_spec(dropout=0.5), seed=0)
    x = np.random.default_rng(11).standard_normal((5, 1, 2, 40))

    def held(layer):
        kept = set(layer.params) | {"running_mean", "running_var", "probs"}
        return {name for name, v in vars(layer).items()
                if name not in kept and isinstance(v, (np.ndarray, list))}

    net.forward(x, train=True)
    cached = {i for i, layer in enumerate(net.layers) if held(layer)}
    kinds = {ls.kind for i, ls in enumerate(net.spec.layers) if i in cached}
    assert {"conv", "batchnorm", "activation", "dropout", "dense"} <= kinds
    net.forward(x, train=False)
    assert all(not held(layer) for layer in net.layers)


# ---------------------------------------------------------------------------
# Sliding windows

def _epochs(n_trials=4, n_ch=2, n_samples=1000, fs=250, seed=0):
    rng = np.random.default_rng(seed)
    return EpochSet(np.arange(n_trials) % 4,
                    rng.standard_normal((n_trials, n_ch, n_samples)),
                    fs, 500.0)


def test_slide_windows_counts_and_starts():
    ep = _epochs()
    w = slide_windows(ep)  # 2 s windows, 50% overlap at 250 Hz
    assert w.n_trials == 3 * ep.n_trials
    assert w.n_samples == 500
    np.testing.assert_array_equal(w.tensor[0], ep.tensor[0, :, 0:500])
    np.testing.assert_array_equal(w.tensor[1], ep.tensor[0, :, 250:750])
    np.testing.assert_array_equal(w.tensor[2], ep.tensor[0, :, 500:1000])


def test_slide_windows_provenance():
    ep = _epochs(n_trials=5)
    w = slide_windows(ep)
    np.testing.assert_array_equal(w.source_trials, np.repeat(np.arange(5), 3))
    np.testing.assert_array_equal(w.labels, np.repeat(ep.labels, 3))


def test_slide_windows_full_epoch_is_identity():
    ep = _epochs()
    w = slide_windows(ep, win_s=4.0)
    assert w.n_trials == ep.n_trials
    np.testing.assert_array_equal(w.tensor, ep.tensor)


def test_slide_windows_too_long():
    with pytest.raises(RangeError):
        slide_windows(_epochs(n_samples=400))


# ---------------------------------------------------------------------------
# Training

def _train_windows(n_per_class=6, seed=0):
    """Linearly separable windows: one loud channel per class."""
    rng = np.random.default_rng(seed)
    tensors, labels = [], []
    for c in range(4):
        x = rng.standard_normal((n_per_class, 2, 40)) * 0.1
        x[:, c % 2, :] += (1.0 if c < 2 else -1.0) * 2.0
        tensors.append(x)
        labels.append(np.full(n_per_class, c))
    return EpochSet(np.concatenate(labels),
                    np.concatenate(tensors).astype(np.float32), 20, 0.0)


def _small_net(seed=0):
    return Network(reduced_model_spec(dropout=0.25), seed=seed)


def test_training_learns_separable_data():
    windows = _train_windows()
    net = _small_net()
    curve = train(net, windows, TrainConfig(epochs=20, batch_size=8, seed=0,
                                            patience=20))
    probs = predict_proba(net, windows.tensor)
    acc = (np.argmax(probs, axis=1) == windows.labels).mean()
    assert acc >= 0.95
    assert curve[-1] < curve[0]


def test_training_is_deterministic():
    windows = _train_windows()
    params = []
    for _ in range(2):
        net = _small_net(seed=11)
        train(net, windows, TrainConfig(epochs=3, batch_size=8, seed=11))
        params.append(np.concatenate(
            [np.asarray(getattr(l, n)).ravel() for l, n in net.state_arrays()]))
    assert params[0].tobytes() == params[1].tobytes()


def test_zero_learning_rate_freezes_parameters():
    # dropout off and one whole-set batch, so with frozen parameters the
    # batch statistics (and hence the loss) repeat exactly across epochs
    windows = _train_windows()
    net = Network(reduced_model_spec(dropout=0.0), seed=2)
    before = [np.asarray(getattr(l, n)).copy() for l, n in net.parameters()]
    curve = train(net, windows, TrainConfig(lr=0.0, epochs=2,
                                            batch_size=windows.n_trials,
                                            seed=2))
    for (l, n), b in zip(net.parameters(), before):
        np.testing.assert_array_equal(getattr(l, n), b)
    assert abs(curve[0] - curve[1]) < 1e-6


def test_first_epoch_loss_near_chance():
    # 4 classes with labels shuffled against the data: the mean loss of the
    # first epoch stays near ln 4
    windows = _train_windows(n_per_class=8)
    shuffled = EpochSet(np.random.default_rng(0).permutation(windows.labels),
                        windows.tensor, windows.fs, windows.t0_ms)
    net = _small_net(seed=3)
    curve = train(net, shuffled, TrainConfig(epochs=1, batch_size=8, seed=3))
    assert abs(curve[0] - np.log(4.0)) < 0.2


def test_divergence_raises_with_epoch():
    windows = _train_windows()
    net = _small_net(seed=4)
    net.layers[0].w[:] = np.inf
    with pytest.raises(DivergenceError) as err:
        train(net, windows, TrainConfig(epochs=2, batch_size=8, seed=4))
    assert err.value.epoch == 0


def test_divergence_carries_context_and_no_numpy_warning():
    import warnings
    windows = _train_windows()
    net = _small_net(seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would fail here
        with pytest.raises(DivergenceError) as err:
            train(net, windows, TrainConfig(lr=1e30, epochs=2, batch_size=8,
                                            seed=4))
    e = err.value
    assert e.n_channels == 2
    assert np.isfinite(e.last_loss)
    assert "\n" not in str(e) and f"{e.last_loss:.6g}" in str(e)


def test_non_finite_weights_after_the_last_step_diverge():
    # one step whose loss is finite and whose update is not
    windows = _train_windows()
    net = _small_net(seed=4)
    with pytest.raises(DivergenceError) as err:
        train(net, windows, TrainConfig(lr=np.inf, epochs=1,
                                        batch_size=windows.n_trials, seed=4))
    assert err.value.epoch == 0 and np.isfinite(err.value.last_loss)


def test_overflowing_predictions_are_divergence():
    windows = slide_windows(_epochs(n_trials=8, n_ch=2, n_samples=1000))
    clf = CnnClassifier(TrainConfig(epochs=1, batch_size=8, seed=4))
    clf.fit(windows)
    from vmidecode.neural import BatchNorm
    bn = [layer for layer in clf.net.layers if isinstance(layer, BatchNorm)]
    bn[-1].gamma[:] = 3e38  # finite weights whose activations overflow
    with pytest.raises(DivergenceError) as err:
        clf.predict_scores(windows)
    assert err.value.last_loss == clf.loss_curve[-1]


def test_early_stop_on_plateau():
    windows = _train_windows()
    net = _small_net(seed=5)
    curve = train(net, windows, TrainConfig(lr=0.0, epochs=50, batch_size=8,
                                            seed=5, patience=3))
    assert len(curve) <= 5  # flat loss stops after patience epochs


def test_train_config_validation():
    with pytest.raises(RangeError):
        TrainConfig(lr=-1.0)
    with pytest.raises(RangeError):
        TrainConfig(batch_size=0)
    with pytest.raises(RangeError):
        TrainConfig(dropout=1.0)


# ---------------------------------------------------------------------------
# Trial-level decisions

def test_predict_trial_single_window():
    assert predict_trial([[0.1, 0.7, 0.1, 0.1]]) == 1


def test_predict_trial_mean_vote():
    probs = [[0.6, 0.4], [0.6, 0.4], [0.1, 0.9]]
    assert predict_trial(probs) == 1  # mean (0.433, 0.567)


def test_predict_trial_tie_goes_low():
    assert predict_trial([[0.5, 0.5]]) == 0


# ---------------------------------------------------------------------------
# Checkpoints and the classifier wrapper

def test_checkpoint_round_trip(tmp_path):
    windows = _train_windows()
    cfg = TrainConfig(epochs=2, batch_size=8, seed=6)
    net = _small_net(seed=6)
    train(net, windows, cfg)
    path = tmp_path / "model.eegb"
    save_network(net, path, config=cfg)
    back = load_network(path)
    for (layer, name), (layer_b, _) in zip(net.state_arrays(),
                                           back.state_arrays()):
        assert getattr(layer_b, name).dtype == getattr(layer, name).dtype
        np.testing.assert_array_equal(getattr(layer_b, name),
                                      getattr(layer, name))
    x = windows.tensor[:5]
    np.testing.assert_array_equal(predict_proba(back, x), predict_proba(net, x))


def test_checkpoint_with_an_optimizer_in_its_config_loads(tmp_path):
    # checkpoints written while TrainConfig still had an optimizer field
    from vmidecode.io import read_container, write_container
    net = _small_net(seed=6)
    path = tmp_path / "model.eegb"
    save_network(net, path, config=TrainConfig(epochs=2, seed=6))
    header, arrays = read_container(path)
    assert "optimizer" not in header["config"]
    header["config"]["optimizer"] = "adam"
    write_container(path, header, arrays)
    back = load_network(path)
    for (layer, name), (layer_b, _) in zip(net.state_arrays(),
                                           back.state_arrays()):
        np.testing.assert_array_equal(getattr(layer_b, name),
                                      getattr(layer, name))


def test_cnn_classifier_fit_predict():
    ep = _epochs(n_trials=8, n_ch=2, n_samples=1000)
    windows = slide_windows(ep)
    clf = CnnClassifier(TrainConfig(epochs=1, batch_size=8, seed=7))
    clf.fit(windows)
    scores = clf.predict_scores(windows)
    assert scores.shape == (windows.n_trials, 4)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-5)
