"""Tensor engine, architecture geometry, training and augmentation."""

import numpy as np
import pytest

from vmidecode import (CnnClassifier, EpochSet, Network, TrainConfig,
                       build_model, load_network, predict_proba,
                       predict_trial, save_network, slide_windows)
from vmidecode import neural
from vmidecode.errors import DivergenceError, RangeError, ShapeError
from vmidecode.neural import AvgPool, out_len, train

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
    pool = AvgPool((1, 4))
    x = np.random.default_rng(6).standard_normal((2, 3, 1, 16))
    out = pool.forward(x, train=True)
    np.testing.assert_allclose(out.mean(), x.mean(), atol=1e-9)


@pytest.mark.parametrize("spec", [reduced_model_spec(),
                                  build_model(4, input_samples=500)])
def test_shape_trace_matches_every_layer_output(spec):
    # the trace once honoured a conv stride that Conv.forward ignored
    net = Network(spec, seed=0)
    x = np.zeros((2, 1, spec.n_channels, spec.input_samples), np.float32)
    for layer, shape in zip(net.layers, spec.shape_trace()):
        x = layer.forward(x, train=False)
        assert x.shape[1:] == (shape if isinstance(shape, tuple) else (shape,))


@pytest.mark.parametrize("n_ch", [8, 64])
def test_avgpool_matches_direct_loops(n_ch):
    # width 23 is not a multiple of 4: the last 3 columns pool into nothing
    rng = np.random.default_rng(n_ch)
    x = rng.standard_normal((3, n_ch, 2, 23)).astype(np.float32)
    grad = rng.standard_normal((3, n_ch, 2, 5)).astype(np.float32)
    pool = AvgPool((1, 4))
    out = pool.forward(x, train=True)
    dx = pool.backward(grad)

    ref = np.empty((3, n_ch, 2, 5), dtype=np.float32)
    for i in range(2):
        for j in range(5):
            tile = x[:, :, i, 4 * j:4 * j + 4]
            ref[:, :, i, j] = (((tile[..., 0] + tile[..., 1]) + tile[..., 2])
                               + tile[..., 3]) / np.float32(4)
    ref_dx = np.zeros_like(x)
    rows, cols = np.arange(2), np.arange(5) * 4
    for j in range(4):      # the per-tap scatter the broadcast replaced
        ref_dx[:, :, rows[:, None], (cols + j)[None, :]] += grad / 4
    assert out.flags.c_contiguous and dx.flags.c_contiguous
    np.testing.assert_array_equal(out, ref)
    np.testing.assert_array_equal(dx, ref_dx)
    assert not dx[..., 20:].any()


@pytest.mark.parametrize("width", [376, 94, 20, 95, 97])
def test_avgpool_gives_the_bits_of_mean(width):
    # 95 and 97 leave a tail of 3 and 1 columns out; the specials include
    # an all -0.0 tile (mean's sum starts from +0.0) and inf - inf
    rng = np.random.default_rng(width)
    x = (rng.standard_normal((4, 9, 1, width))
         * 10.0 ** rng.integers(-40, 38, (4, 9, 1, width))).astype(np.float32)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], np.float32)
    flat = x.reshape(-1)
    at = rng.choice(flat.size, flat.size // 10, replace=False)
    flat[at] = special[np.arange(at.size) % special.size]
    x[0, 0, 0, :4] = -0.0
    x[0, 1, 0, :4] = [np.inf, 1.0, -np.inf, 2.0]
    wo = width // 4
    with np.errstate(invalid="ignore"):
        out = AvgPool((1, 4)).forward(x, train=False)
        want = x[..., :4 * wo].reshape(4, 9, 1, 1, wo, 4).mean(axis=(3, 5))
    assert out.dtype == want.dtype and out.flags.c_contiguous
    assert out.tobytes() == want.tobytes()


def test_batchnorm_train_mode_normalizes():
    from vmidecode.neural import BatchNorm
    bn = BatchNorm(3, np.float64)  # gamma = 1, beta = 0
    x = np.random.default_rng(7).standard_normal((8, 3, 2, 50)) * 4.0 + 2.0
    y = bn.forward(x, train=True)
    np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-3)


# ---------------------------------------------------------------------------
# Kernel oracles

def _direct_correlation(x, w):
    """Valid stride-1 correlation by an explicit loop over every output."""
    n, _, h, wid = x.shape
    mo, _, kh, kw = w.shape
    out = np.empty((n, mo, h - kh + 1, wid - kw + 1))
    for s in range(n):
        for m in range(mo):
            for i in range(h - kh + 1):
                for j in range(wid - kw + 1):
                    out[s, m, i, j] = (x[s, :, i:i + kh, j:j + kw]
                                       * w[m]).sum()
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
    assert conv.params == ("w",)
    x = rng.standard_normal(x_shape)
    for train in (True, False):
        out = conv.forward(x, train)
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, _direct_correlation(x, conv.w),
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


@pytest.mark.parametrize("batch", [1, 3, 16])
def test_conv_weight_gradient_matches_finite_differences(batch):
    # the 1x15 convs' whole-batch GEMM: dw of sum(forward(x) * r)
    from vmidecode.neural import Conv
    rng = np.random.default_rng(batch)
    conv = Conv(5, 6, (1, 15), rng, np.float64)
    x = rng.standard_normal((batch, 5, 1, 30))
    r = rng.standard_normal(conv.forward(x, True).shape)
    conv.backward(r)
    assert conv.dw.shape == conv.w.shape
    eps = 1e-6
    for idx in zip(*(rng.integers(0, n, size=20) for n in conv.w.shape)):
        w = conv.w[idx]
        conv.w[idx] = w + eps
        up = (conv.forward(x, False) * r).sum()
        conv.w[idx] = w - eps
        down = (conv.forward(x, False) * r).sum()
        conv.w[idx] = w
        assert abs((up - down) / (2 * eps) - conv.dw[idx]) < 1e-6


@pytest.mark.parametrize("x_shape, w_shape", [
    ((2, 1, 3, 40), (8, 1, 1, 7)),      # 34 positions: under one block
    ((2, 1, 3, 500), (4, 1, 1, 125)),   # 376 positions: four whole blocks
    ((2, 1, 3, 300), (4, 1, 1, 125)),   # 176 positions: a padded last block
])
def test_temporal_conv_forward_matches_direct_correlation(x_shape, w_shape):
    from vmidecode.neural import TemporalConv
    rng = np.random.default_rng(8)
    conv = TemporalConv(w_shape[0], w_shape[2:], rng, np.float64)
    assert conv.params == ("w",)
    x = rng.standard_normal(x_shape)
    for train in (True, False):
        out = conv.forward(x, train)
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, _direct_correlation(x, conv.w),
                                   rtol=1e-12, atol=1e-12)


def _conv_pair(maps, kw, dtype):
    """An im2col Conv and a TemporalConv with the same weights."""
    from vmidecode.neural import Conv, TemporalConv
    conv = Conv(1, maps, (1, kw), np.random.default_rng(13), dtype)
    temporal = TemporalConv(maps, (1, kw), np.random.default_rng(13), dtype)
    np.testing.assert_array_equal(conv.w, temporal.w)
    return conv, temporal


@pytest.mark.parametrize("width, kw", [(40, 7), (500, 125), (300, 125)])
def test_temporal_conv_gradients_match_im2col(width, kw):
    conv, temporal = _conv_pair(6, kw, np.float64)
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 1, 4, width))
    grad = rng.standard_normal(conv.forward(x, True).shape)
    temporal.forward(x, True)
    conv.backward(grad)
    assert temporal.backward(grad) is None
    assert temporal.dw.shape == conv.dw.shape
    assert (np.abs(temporal.dw - conv.dw).max()
            <= 1e-12 * np.abs(conv.dw).max())


def test_temporal_conv_forward_is_the_im2col_product_in_float32():
    # the zeros off the Toeplitz band add nothing and the taps are summed
    # in the same order, so with this BLAS build the report bytes do not
    # depend on which of the two computed the first conv
    conv, temporal = _conv_pair(25, 125, np.float32)
    x = np.random.default_rng(16).standard_normal(
        (16, 1, 64, 500)).astype(np.float32)
    np.testing.assert_array_equal(temporal.forward(x, False),
                                  conv.forward(x, False))


@pytest.mark.parametrize("maps, kw", [(1, 1), (4, 7), (25, 125)])
def test_toeplitz_matrix_is_the_scatter_of_the_weights_on_the_band(maps, kw):
    from vmidecode.neural import BLOCK, _band, _toeplitz
    w = np.random.default_rng(17).standard_normal((maps, kw)).astype(np.float32)
    w[0, 0] = -0.0
    want = np.zeros((BLOCK + kw - 1, maps, BLOCK), np.float32)
    want[_band(kw)] = w.T
    got = _toeplitz(w)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want.reshape(BLOCK + kw - 1, -1))
    assert got.tobytes() == want.tobytes()


def test_temporal_conv_refuses_a_kernel_taller_than_one_row():
    from vmidecode.neural import TemporalConv
    with pytest.raises(ShapeError):
        TemporalConv(4, (2, 7), np.random.default_rng(0), np.float64)


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


def test_dropout_at_rate_half_keeps_one_random_bit_per_element():
    from vmidecode.neural import Dropout
    from vmidecode.seeding import child_rng
    spec = reduced_model_spec(dropout=0.5)
    li = next(i for i, ls in enumerate(spec.layers) if ls.kind == "dropout")
    drop = Network(spec, seed=4).layers[li]
    assert isinstance(drop, Dropout)
    # n = 3 x 7 x 2 x 1571: not a multiple of 8, more than one chunk
    x = np.random.default_rng(4).standard_normal(
        (3, 7, 2, 1571)).astype(np.float32)
    n = x.size
    assert n % 8 and n > Dropout.CHUNK
    for call in range(2):
        bits = child_rng(4, "dropout", li, call).bytes(-(-n // 8))
        keep = np.unpackbits(np.frombuffer(bits, np.uint8),
                             count=n).reshape(x.shape).astype(bool)
        y = drop.forward(x, train=True)
        np.testing.assert_array_equal(y, np.where(keep, x * np.float32(2), 0))
        g = drop.backward(np.ones_like(x))
        np.testing.assert_array_equal(g, np.where(keep, np.float32(2), 0))
        # a fair coin per element: within 4 binomial standard errors
        assert abs(keep.mean() - 0.5) < 4 * np.sqrt(0.25 / n)


def _per_layer_step(net, x, labels):
    """Network.forward/backward as one layer call after another."""
    out = x
    for layer in net.layers:
        out = layer.forward(out, True)
    grad = out.copy()
    grad[np.arange(len(labels)), labels] -= 1.0
    grad = (grad / len(labels)).astype(net.dtype)
    for layer in net.layers[::-1]:
        grad = layer.backward(grad)
    return out


@pytest.mark.parametrize("k, batch, chunk", [
    (2, 7, 300),     # rows of 752 and 376 split, 3 rows of 94 a chunk
    (2, 16, None),   # 87 whole rows a chunk, the last chunk partial
    (64, 7, 5000),   # rows of 24064 split, the last piece of a row partial
    (64, 16, None),  # two rows a chunk; partial chunks after conv0's run
])
def test_fused_runs_match_the_per_layer_path(k, batch, chunk, monkeypatch):
    # the train output, every gradient, the running statistics and the eval
    # output; the standalone dropouts after the pools run alone either way
    if chunk is not None:
        monkeypatch.setattr(neural._Elementwise, "CHUNK", chunk)
    x = np.random.default_rng(k + batch).standard_normal(
        (batch, 1, k, 500)).astype(np.float32)
    labels = np.arange(batch) % 4
    for rate in (0.0, 0.3, 0.5):
        spec = build_model(k, input_samples=500, dropout=rate)
        fused, alone = Network(spec, seed=6), Network(spec, seed=6)
        assert any(len(getattr(step, "layers", ())) == 3
                   for step in fused._steps)
        for _ in range(2):  # the second step draws the second masks
            out = fused.forward(x, train=True).copy()
            fused.backward(labels)
            np.testing.assert_array_equal(
                out, _per_layer_step(alone, x, labels))
            for (a, name), (b, _) in zip(fused.parameters(),
                                         alone.parameters()):
                np.testing.assert_array_equal(getattr(a, "d" + name),
                                              getattr(b, "d" + name))
        for (a, name), (b, _) in zip(fused.state_arrays(),
                                     alone.state_arrays()):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        ref = x
        for layer in alone.layers:
            ref = layer.forward(ref, False)
        np.testing.assert_array_equal(fused.forward(x, train=False), ref)


def test_first_conv_returns_no_input_gradient():
    from vmidecode.neural import TemporalConv
    spec = reduced_model_spec()
    net = Network(spec, seed=0, dtype=np.float64)
    x = np.random.default_rng(10).standard_normal((3, 1, 2, 40))
    conv0 = net.layers[0]
    assert isinstance(conv0, TemporalConv)
    assert not any(isinstance(layer, TemporalConv) for layer in net.layers[1:])
    net.forward(x, train=True)
    assert conv0.backward(np.zeros((3,) + spec.shape_trace()[0])) is None
    assert conv0.dw.shape == conv0.w.shape


def _buffer_sizes(net):
    return {(i, name): buf.size for i, layer in enumerate(net.layers)
            for name, buf in vars(layer).get("_buffers", {}).items()}


def test_eval_forward_keeps_no_training_caches(monkeypatch):
    # the layers keep their buffers across calls by design; what must not
    # outlive an eval forward is any array a backward pass would read
    monkeypatch.setattr(neural, "BUFFER_MIN_BYTES", 0)
    net = Network(reduced_model_spec(dropout=0.5), seed=0)
    x = np.random.default_rng(11).standard_normal((16, 1, 2, 40))
    caches = ("_xc", "_ivar", "_y", "_keep", "_cols", "_blocks", "_x")

    def held(layer):
        return {name for name in caches
                if getattr(layer, name, None) is not None}

    net.forward(x, train=True)
    cached = {i for i, layer in enumerate(net.layers) if held(layer)}
    kinds = {ls.kind for i, ls in enumerate(net.spec.layers) if i in cached}
    assert {"conv", "batchnorm", "activation", "dropout", "dense"} <= kinds
    net.backward(np.arange(16) % 4)
    sizes = _buffer_sizes(net)
    assert sizes
    for n in (16, 5):
        # an eval chunk of at most one training batch reuses its buffers
        net.forward(x[:n], train=False)
        assert all(not held(layer) for layer in net.layers)
        assert _buffer_sizes(net) == sizes


def test_arrays_below_the_buffer_size_get_no_buffer():
    # malloc recycles them still in cache, where a buffer per layer would not
    net = Network(build_model(8, input_samples=500), seed=0)
    net.forward(np.zeros((16, 1, 8, 500), np.float32), train=True)
    net.backward(np.arange(16) % 4)
    assert not _buffer_sizes(net)


@pytest.mark.parametrize("spec", [reduced_model_spec(dropout=0.5),
                                  build_model(2, input_samples=500)])
def test_a_step_does_not_depend_on_what_its_buffers_held(spec, monkeypatch):
    # net 1's second step reuses buffers a 16-window step filled, net 2's
    # grows them from a 7-window step; dropout masks follow the call count
    # and train mode reads no running statistic, so both steps must agree
    monkeypatch.setattr(neural, "BUFFER_MIN_BYTES", 0)
    rng = np.random.default_rng(21)
    shape = (1, spec.n_channels, spec.input_samples)
    x16, x7, batch = (rng.standard_normal((n,) + shape).astype(np.float32)
                      for n in (16, 7, 16))
    labels = np.arange(16) % 4
    results = []
    for first in (x16, x7):
        net = Network(spec, seed=3)
        net.forward(first, train=True)
        net.backward(labels[:len(first)])
        out = net.forward(batch, train=True).copy()
        net.backward(labels)
        results.append([out] + [getattr(layer, "d" + name)
                                for layer, name in net.parameters()])
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def test_a_repeated_train_step_allocates_no_activation_afresh():
    # at k = 64 a first-block array (38.5 MB) is above BUFFER_MIN_BYTES
    import tracemalloc
    net = Network(build_model(64, input_samples=500), seed=0)
    x = np.random.default_rng(22).standard_normal(
        (16, 1, 64, 500)).astype(np.float32)
    labels = np.arange(16) % 4
    activation = x.itemsize * 16 * 25 * 64 * 376
    assert activation >= neural.BUFFER_MIN_BYTES
    net.forward(x, train=True)
    net.backward(labels)
    tracemalloc.start()
    try:
        net.forward(x, train=True)
        net.backward(labels)
        # the most memory allocated in the step and live at one time
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < activation


@pytest.mark.parametrize("n", [2, 15, 16, 17, 33, 48, 65])
def test_predict_proba_chunks_give_the_bytes_of_one_batch(n):
    # like the Toeplitz product, this pins the BLAS build: with OpenBLAS a
    # window's scores are the same in any batch of two or more windows
    net = Network(build_model(4, input_samples=500), seed=2)
    rng = np.random.default_rng(n)
    net.forward(rng.standard_normal((16, 1, 4, 500)), train=True)
    x = rng.standard_normal((n, 4, 500)).astype(np.float32)
    np.testing.assert_array_equal(predict_proba(net, x),
                                  net.forward(x[:, None], train=False))


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


@pytest.mark.parametrize("n_ch", [8, 64])
def test_slide_windows_matches_the_trial_window_loop(n_ch):
    rng = np.random.default_rng(n_ch)
    ep = EpochSet(np.array([3, 1, 0, 2, 1]),
                  rng.standard_normal((5, n_ch, 1000)).astype(np.float32),
                  250, 500.0, source_trials=np.array([7, 2, 9, 4, 0]))
    w = slide_windows(ep)
    starts = range(0, 1000 - 500 + 1, 250)
    ref = np.empty((5 * len(starts), n_ch, 500), dtype=np.float32)
    labels = np.empty(len(ref), dtype=np.int64)
    src = np.empty(len(ref), dtype=np.int64)
    k = 0
    for i in range(ep.n_trials):     # trial-major: every window of trial i
        for s in starts:
            ref[k] = ep.tensor[i, :, s:s + 500]
            labels[k] = ep.labels[i]
            src[k] = ep.source_trials[i]
            k += 1
    assert w.tensor.flags.c_contiguous
    assert not np.shares_memory(w.tensor, ep.tensor)
    np.testing.assert_array_equal(w.tensor, ref)
    np.testing.assert_array_equal(w.labels, labels)
    np.testing.assert_array_equal(w.source_trials, src)


def test_slide_windows_one_window_is_a_copy():
    ep = _epochs(n_trials=1, n_samples=500)
    w = slide_windows(ep)
    assert w.tensor.flags.c_contiguous
    assert not np.shares_memory(w.tensor, ep.tensor)


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


def _zero_lr_config(**kwargs):
    """A config whose Adam steps are all zero. TrainConfig refuses lr=0,
    since such a fit trains nothing; these tests use it to hold the
    parameters still while the training loop runs."""
    cfg = TrainConfig(**kwargs)
    cfg.lr = 0.0
    return cfg


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


def _per_parameter_adam(slots, step, lr):
    """train's Adam update as it was before the flat state: one update per
    parameter array; slots holds (layer, name, m1, m2)."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for layer, name, m1, m2 in slots:
        g = getattr(layer, "d" + name).astype(np.float64)
        m1 *= beta1
        m1 += (1 - beta1) * g
        m2 *= beta2
        m2 += (1 - beta2) * g * g
        mhat = m1 / (1 - beta1 ** step)
        vhat = m2 / (1 - beta2 ** step)
        p = getattr(layer, name)
        p -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_gives_the_per_parameter_bits(dtype, monkeypatch):
    # 5 steps of a k = 2 network, with a tile that splits parameters
    # unevenly: the parameters and both float64 moments, bit for bit; a
    # float64 network keeps every bit of each update
    monkeypatch.setattr(neural, "ADAM_TILE", 1000)
    rng = np.random.default_rng(23)
    x = rng.standard_normal((5, 16, 1, 2, 500)).astype(dtype)
    labels = np.arange(16) % 4
    spec = build_model(2, input_samples=500)
    flat, ref = (Network(spec, seed=8, dtype=dtype) for _ in range(2))
    adam = neural._Adam(flat, 1e-2)
    slots = [(layer, name, np.zeros(getattr(layer, name).shape),
              np.zeros(getattr(layer, name).shape))
             for layer, name in ref.parameters()]
    for step, batch in enumerate(x, 1):
        for net in (flat, ref):
            net.forward(batch, train=True)
            net.backward(labels)
        adam.step()
        _per_parameter_adam(slots, step, 1e-2)
        for (a, name), (b, _) in zip(flat.state_arrays(), ref.state_arrays()):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    for i, moment in ((2, adam.m1), (3, adam.m2)):
        want = np.concatenate([slot[i].ravel() for slot in slots])
        assert moment.tobytes() == want.tobytes()


def test_zero_learning_rate_freezes_parameters():
    # dropout off and one whole-set batch, so with frozen parameters the
    # batch statistics (and hence the loss) repeat exactly across epochs
    windows = _train_windows()
    net = Network(reduced_model_spec(dropout=0.0), seed=2)
    before = [np.asarray(getattr(l, n)).copy() for l, n in net.parameters()]
    curve = train(net, windows, _zero_lr_config(
        epochs=2, batch_size=windows.n_trials, seed=2))
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
    # one step whose loss is finite and whose update is not: a finite lr
    # whose step overflows float32
    windows = _train_windows()
    net = _small_net(seed=4)
    with pytest.raises(DivergenceError) as err:
        train(net, windows, TrainConfig(lr=1e300, epochs=1,
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
    curve = train(net, windows, _zero_lr_config(epochs=50, batch_size=8,
                                                seed=5, patience=3))
    assert len(curve) <= 5  # flat loss stops after patience epochs


def test_early_stop_counts_gains_below_min_delta_as_stalls(monkeypatch):
    assert neural.MIN_DELTA == 1e-4
    cfg = _zero_lr_config(epochs=6, batch_size=8, seed=5, patience=2)
    # with -1e9 every epoch is a gain, with 1e9 only the first one is
    for delta, n_epochs in ((-1e9, 6), (1e9, 3)):
        monkeypatch.setattr(neural, "MIN_DELTA", delta)
        assert len(train(_small_net(seed=5), _train_windows(), cfg)) == (
            n_epochs)


@pytest.mark.parametrize("kwargs", [
    {"lr": -1.0}, {"lr": 0}, {"lr": float("nan")}, {"batch_size": 0},
    {"batch_size": 2.5}, {"epochs": True}, {"patience": 0}, {"patience": -3},
    {"dropout": 1.0},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_train_config_validation(kwargs):
    # the values the cnn rows of harness.CONFIG_RULES refuse
    with pytest.raises(RangeError):
        TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# Trial-level decisions

def test_predict_trial_single_window():
    assert predict_trial([[0.1, 0.7, 0.1, 0.1]]) == 1


def test_predict_trial_mean_vote():
    probs = [[0.6, 0.4], [0.6, 0.4], [0.1, 0.9]]
    assert predict_trial(probs) == 1  # mean (0.433, 0.567)


def test_predict_trial_tie_goes_low():
    assert predict_trial([[0.5, 0.5]]) == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_predict_trial_on_a_stack_matches_per_trial_calls(dtype):
    rng = np.random.default_rng(4)
    scores = rng.random((40, 3, 4)).astype(dtype)
    scores[5] = 0.25                     # a four-way tie goes to class 0
    scores[6, :, 2:] = scores[6, :, :2]  # a tie between classes 0/2, 1/3
    got = predict_trial(scores)
    assert got.shape == (40,)
    np.testing.assert_array_equal(
        got, [predict_trial(trial) for trial in scores])
    assert got[5] == 0


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


def test_checkpoint_with_strides_in_its_layers_loads(tmp_path):
    # checkpoints written while LayerSpec still had a stride field
    from vmidecode.io import read_container, write_container
    net = _small_net(seed=6)
    path = tmp_path / "model.eegb"
    save_network(net, path, config=TrainConfig(epochs=2, seed=6))
    header, arrays = read_container(path)
    for d in header["layers"]:
        assert "stride" not in d
        d["stride"] = d["kernel"] if d["kind"] == "avgpool" else [1, 1]
    write_container(path, header, arrays)
    back = load_network(path)
    assert back.spec == net.spec
    for (layer, name), (layer_b, _) in zip(net.state_arrays(),
                                           back.state_arrays()):
        np.testing.assert_array_equal(getattr(layer_b, name),
                                      getattr(layer, name))


def test_checkpoint_with_conv_biases_loads_them_folded(tmp_path):
    # checkpoints written while every conv had a bias: each bias moves into
    # the running mean of the batch norm after it
    from vmidecode.io import read_container, write_container
    from vmidecode.neural import Conv
    windows = _train_windows()
    net = _small_net(seed=6)
    train(net, windows, TrainConfig(epochs=2, batch_size=8, seed=6))
    rng = np.random.default_rng(24)
    biases = {layer: rng.standard_normal(len(layer.w)).astype(np.float32)
              for layer in net.layers if isinstance(layer, Conv)}
    old = [pair for layer, name in net.state_arrays() for pair in (
        [(layer, name), (layer, "b")] if layer in biases
        else [(layer, name)])]
    path = tmp_path / "model.eegb"
    save_network(net, path)
    header, _ = read_container(path)
    write_container(path, header, {
        f"{i}.{name}": biases[layer] if layer in biases and name == "b"
        else getattr(layer, name) for i, (layer, name) in enumerate(old)})
    back = load_network(path)
    assert not any(hasattr(layer, "b") for layer in back.layers
                   if isinstance(layer, Conv))
    x = windows.tensor[:, None]
    ref = x
    for layer in net.layers:     # the network the checkpoint describes
        ref = layer.forward(ref, False)
        if layer in biases:
            ref = ref + biases[layer][:, None, None]
    got = predict_proba(back, windows.tensor)
    np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-6)
    assert np.abs(got - predict_proba(net, windows.tensor)).max() > 1e-3


def test_cnn_classifier_fit_predict():
    ep = _epochs(n_trials=8, n_ch=2, n_samples=1000)
    windows = slide_windows(ep)
    clf = CnnClassifier(TrainConfig(epochs=1, batch_size=8, seed=7))
    clf.fit(windows)
    scores = clf.predict_scores(windows)
    assert scores.shape == (windows.n_trials, 4)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-5)
