"""From-scratch tensor engine and the decoding CNN.

Layers operate on contiguous batch x maps x height x width arrays with
explicit forward/backward passes; gradients are checked against central
finite differences in the test suite. Convolutions multiply each sample's
im2col matrix by the weights; the network's first conv computes no input
gradient. Only a train-mode forward keeps what the backward pass needs
(im2col matrices, centred batch-norm input, ELU output, dropout masks);
eval mode keeps nothing. The architecture is a temporal convolution,
a spatial convolution collapsing the channel axis, and two further
conv + average-pool stages, ending in a 4-way softmax. All stochasticity
(init, dropout masks, shuffling) derives from a single seed.
"""

import functools
from dataclasses import dataclass, field, asdict

import numpy as np

from .core import EpochSet
from .errors import (DivergenceError, RangeError, ShapeError)
from .io import read_container, write_container
from .seeding import child_rng


def out_len(n_in: int, kernel: int, stride: int) -> int:
    """Output length of a valid convolution/pool: floor((in - k)/s) + 1."""
    if kernel > n_in:
        raise ShapeError(f"kernel {kernel} exceeds input {n_in}")
    return (n_in - kernel) // stride + 1


@dataclass
class LayerSpec:
    kind: str                  # conv | avgpool | batchnorm | activation | dropout | flatten | dense | softmax
    maps_out: int = None
    kernel: tuple = (1, 1)
    stride: tuple = (1, 1)
    rate: float = 0.5          # dropout only
    units: int = None          # dense only


@dataclass
class ModelSpec:
    """Ordered layer stack plus the input geometry it expects."""

    layers: list
    n_channels: int
    input_samples: int = 500

    def shape_trace(self):
        """(maps, height, width) after each layer; dense layers yield ints."""
        shape = (1, self.n_channels, self.input_samples)
        trace = []
        for spec in self.layers:
            if spec.kind == "conv":
                m, h, w = shape
                shape = (spec.maps_out,
                         out_len(h, spec.kernel[0], spec.stride[0]),
                         out_len(w, spec.kernel[1], spec.stride[1]))
            elif spec.kind == "avgpool":
                m, h, w = shape
                shape = (m,
                         out_len(h, spec.kernel[0], spec.stride[0]),
                         out_len(w, spec.kernel[1], spec.stride[1]))
            elif spec.kind == "flatten":
                shape = int(np.prod(shape))
            elif spec.kind == "dense":
                shape = spec.units
            # batchnorm / activation / dropout / softmax keep the shape
            trace.append(shape)
        return trace


def build_model(n_channels: int, input_samples: int = 500,
                dropout: float = 0.5) -> ModelSpec:
    """The decoding CNN: 4 conv layers, 3 average pools, softmax head.

    Temporal conv (25 maps, 1x125), spatial conv (25 maps, n_channels x 1)
    collapsing the electrode axis, then 50- and 100-map 1x15 convs, each
    pool 1x4 stride 1x4. Batch norm follows every conv, ELU follows every
    batch norm, dropout precedes every conv block after the first.
    """
    if n_channels < 1:
        raise RangeError("n_channels must be >= 1")
    layers = [
        LayerSpec("conv", maps_out=25, kernel=(1, 125)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("dropout", rate=dropout),
        LayerSpec("conv", maps_out=25, kernel=(n_channels, 1)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("avgpool", kernel=(1, 4), stride=(1, 4)),
        LayerSpec("dropout", rate=dropout),
        LayerSpec("conv", maps_out=50, kernel=(1, 15)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("avgpool", kernel=(1, 4), stride=(1, 4)),
        LayerSpec("dropout", rate=dropout),
        LayerSpec("conv", maps_out=100, kernel=(1, 15)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("avgpool", kernel=(1, 4), stride=(1, 4)),
        LayerSpec("flatten"),
        LayerSpec("dense", units=4),
        LayerSpec("softmax"),
    ]
    return ModelSpec(layers, n_channels, input_samples)


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 100
    dropout: float = 0.5
    seed: int = 0
    patience: int = 10
    min_delta: float = 1e-4

    def __post_init__(self):
        if self.lr < 0 or self.batch_size < 1 or self.epochs < 1:
            raise RangeError("non-positive training hyperparameter")
        if not 0.0 <= self.dropout < 1.0:
            raise RangeError(f"dropout {self.dropout} outside [0, 1)")


# ---------------------------------------------------------------------------
# Layers

class _Layer:
    params = ()

    def forward(self, x, train):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError


class Conv(_Layer):
    """Valid 2-D convolution (correlation), stride 1.

    Each sample's im2col matrix (kernel taps x output positions) is
    multiplied by the weights straight into a contiguous output. It is a
    view of the input where the geometry allows (the spatial conv), else a
    copy, and it is kept for the weight gradient only in train mode. The
    network's first conv (input_grad=False) returns no input gradient.
    """

    def __init__(self, maps_in, maps_out, kernel, rng, dtype, input_grad=True):
        kh, kw = kernel
        fan_in = maps_in * kh * kw
        limit = np.sqrt(6.0 / (fan_in + maps_out))
        self.w = rng.uniform(-limit, limit,
                             size=(maps_out, maps_in, kh, kw)).astype(dtype)
        self.b = np.zeros(maps_out, dtype=dtype)
        self.params = ("w", "b")
        self.input_grad = input_grad

    def forward(self, x, train):
        mo, mi, kh, kw = self.w.shape
        b, _, h, w_in = x.shape
        ho = out_len(h, kh, 1)
        wo = out_len(w_in, kw, 1)
        # (B, maps_in, kh, kw, ho, wo): sample i's columns are wv[i] as a matrix
        wv = np.lib.stride_tricks.sliding_window_view(
            x, (kh, kw), axis=(2, 3)).transpose(0, 1, 4, 5, 2, 3)
        w2 = self.w.reshape(mo, -1)
        out = np.empty((b, mo, ho * wo), dtype=np.result_type(x, self.w))
        cols = []
        for i in range(b):
            c = wv[i].reshape(mi * kh * kw, ho * wo)
            np.matmul(w2, c, out=out[i])
            out[i] += self.b[:, None]
            if train:
                cols.append(c)
        self._cols = cols if train else None
        self._x_shape = x.shape
        return out.reshape(b, mo, ho, wo)

    def backward(self, grad):
        mo, mi, kh, kw = self.w.shape
        b, _, ho, wo = grad.shape
        g = grad.reshape(b, mo, ho * wo)
        self.db = g.sum(axis=(0, 2))
        self.dw = sum(gi @ ci.T for gi, ci in zip(g, self._cols)).reshape(
            self.w.shape)
        self._cols = None
        if not self.input_grad:
            return None
        # column gradients (B, maps_in, kh, kw, ho, wo), added back tap by tap
        dcols = np.matmul(self.w.reshape(mo, -1).T, g).reshape(
            b, mi, kh, kw, ho, wo)
        if (kh == 1 or ho == 1) and (kw == 1 or wo == 1):
            # the taps tile the input without overlap (the spatial conv):
            # each input gradient is one column gradient
            return dcols.transpose(0, 1, 2, 4, 3, 5).reshape(self._x_shape)
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i:i + ho, j:j + wo] += dcols[:, :, i, j]
        return dx


class AvgPool(_Layer):
    def __init__(self, kernel, stride):
        self.kernel = kernel
        self.stride = stride

    def forward(self, x, train):
        kh, kw = self.kernel
        sh, sw = self.stride
        wv = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
        self._x_shape = x.shape
        return wv[:, :, ::sh, ::sw].mean(axis=(-2, -1))

    def backward(self, grad):
        kh, kw = self.kernel
        sh, sw = self.stride
        b, m, ho, wo = grad.shape
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        g = grad / (kh * kw)
        rows = np.arange(ho) * sh
        cols = np.arange(wo) * sw
        for i in range(kh):
            for j in range(kw):
                dx[:, :, (rows + i)[:, None], (cols + j)[None, :]] += g
        return dx


def _per_map(v):
    """A per-map vector shaped to broadcast over (B, maps, H, W)."""
    return v[:, None, None]


class BatchNorm(_Layer):
    """Batch normalisation over (batch, height, width) per map.

    Train mode keeps the centred input and the inverse deviation for the
    backward pass; eval mode uses the running statistics and keeps nothing.
    """

    def __init__(self, n_maps, dtype):
        self.gamma = np.ones(n_maps, dtype=dtype)
        self.beta = np.zeros(n_maps, dtype=dtype)
        self.running_mean = np.zeros(n_maps, dtype=dtype)
        self.running_var = np.ones(n_maps, dtype=dtype)
        self.eps = 1e-5
        self.momentum = 0.1
        self.params = ("gamma", "beta")

    def forward(self, x, train):
        if train:
            n = x.size // x.shape[1]
            mean = np.einsum("bmhw->m", x) / n
            xc = x - _per_map(mean)
            var = np.einsum("bmhw,bmhw->m", xc, xc) / n
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
        else:
            xc = x - _per_map(self.running_mean)
            var = self.running_var
        ivar = 1.0 / np.sqrt(var + self.eps)
        # eval mode keeps no xc, so it is scaled in place
        y = np.multiply(xc, _per_map(self.gamma * ivar),
                        out=None if train else xc)
        y += _per_map(self.beta)
        self._xc, self._ivar = (xc, ivar) if train else (None, None)
        return y

    def backward(self, grad):
        xc, ivar = self._xc, self._ivar
        n = grad.size // grad.shape[1]
        self.dbeta = np.einsum("bmhw->m", grad)
        gxc = np.einsum("bmhw,bmhw->m", grad, xc)
        self.dgamma = gxc * ivar
        # dx = gamma ivar (g - mean(g) - xhat mean(g xhat)), xhat = xc ivar
        dx = xc * _per_map(ivar * ivar * gxc / n)
        dx += _per_map(self.dbeta / n)
        np.subtract(grad, dx, out=dx)
        dx *= _per_map(self.gamma * ivar)
        self._xc = None
        return dx


class Elu(_Layer):
    def forward(self, x, train):
        # expm1(min(x, 0)) >= x wherever x <= 0, so the max picks ELU's branch
        y = np.minimum(x, 0)
        np.expm1(y, out=y)
        np.maximum(x, y, out=y)
        self._y = y if train else None
        return y

    def backward(self, grad):
        # dELU/dx = 1 for y > 0, exp(x) = y + 1 otherwise
        d = np.minimum(self._y, 0)
        d += 1
        d *= grad
        self._y = None
        return d


class Dropout(_Layer):
    """Inverted dropout; masks come from the network's named RNG stream.

    Call c draws ``rng_factory(c).random(x.shape) >= rate`` (float64
    uniforms, drawn in chunks; the stream is the same as one draw) and keeps
    only the boolean mask.
    """

    CHUNK = 1 << 16

    def __init__(self, rate, rng_factory):
        self.rate = rate
        self._rng_factory = rng_factory
        self._calls = 0

    def forward(self, x, train):
        self._keep = None
        if not train or self.rate <= 0.0:
            return x
        rng = self._rng_factory(self._calls)
        self._calls += 1
        keep = np.empty(x.size, dtype=bool)
        for s in range(0, x.size, self.CHUNK):
            u = rng.random(min(self.CHUNK, x.size - s))
            np.greater_equal(u, self.rate, out=keep[s:s + u.size])
        self._keep = keep.reshape(x.shape)
        return self._scaled(x)

    def backward(self, grad):
        if self._keep is None:
            return grad
        out = self._scaled(grad)
        self._keep = None
        return out

    def _scaled(self, x):
        y = x * x.dtype.type(1.0 / (1.0 - self.rate))
        y *= self._keep
        return y


class Flatten(_Layer):
    def forward(self, x, train):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class Dense(_Layer):
    def __init__(self, n_in, n_out, rng, dtype):
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.w = rng.uniform(-limit, limit, size=(n_out, n_in)).astype(dtype)
        self.b = np.zeros(n_out, dtype=dtype)
        self.params = ("w", "b")

    def forward(self, x, train):
        self._x = x if train else None
        return x @ self.w.T + self.b

    def backward(self, grad):
        self.dw = grad.T @ self._x
        self.db = grad.sum(axis=0)
        return grad @ self.w


class Softmax(_Layer):
    """Softmax head; cross-entropy gradient is injected by the network."""

    def forward(self, x, train):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        self.probs = e / e.sum(axis=1, keepdims=True)
        return self.probs

    def backward(self, grad):
        # grad here is (probs - onehot)/B from the cross-entropy loss
        return grad


# ---------------------------------------------------------------------------
# Network

class Network:
    """A layer stack instantiated from a ModelSpec with seeded init."""

    def __init__(self, spec: ModelSpec, seed: int = 0, dtype=np.float32):
        self.spec = spec
        self.seed = seed
        self.dtype = np.dtype(dtype)
        self.layers = []
        # the shape entering each layer
        shapes = [(1, spec.n_channels, spec.input_samples)] + spec.shape_trace()
        for li, (ls, shape) in enumerate(zip(spec.layers, shapes)):
            if ls.kind == "conv":
                rng = child_rng(seed, "init", li)
                # nothing consumes the gradient of the network's input
                layer = Conv(shape[0], ls.maps_out, ls.kernel, rng, self.dtype,
                             input_grad=li > 0)
            elif ls.kind == "avgpool":
                layer = AvgPool(ls.kernel, ls.stride)
            elif ls.kind == "batchnorm":
                layer = BatchNorm(shape[0], self.dtype)
            elif ls.kind == "activation":
                layer = Elu()
            elif ls.kind == "dropout":
                # bound to the seed, not to self: a closure over the network
                # would form a cycle that only the cyclic GC can free
                layer = Dropout(ls.rate, functools.partial(
                    child_rng, seed, "dropout", li))
            elif ls.kind == "flatten":
                layer = Flatten()
            elif ls.kind == "dense":
                rng = child_rng(seed, "init", li)
                layer = Dense(shape, ls.units, rng, self.dtype)
            elif ls.kind == "softmax":
                layer = Softmax()
            else:
                raise ShapeError(f"unknown layer kind {ls.kind!r}")
            self.layers.append(layer)

    def forward(self, x, train: bool = False) -> np.ndarray:
        """Class probabilities for a batch shaped (B, 1, channels, samples)."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1] != 1 \
                or x.shape[2] != self.spec.n_channels \
                or x.shape[3] != self.spec.input_samples:
            raise ShapeError(
                f"expected (B, 1, {self.spec.n_channels}, "
                f"{self.spec.input_samples}), got {x.shape}"
            )
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, labels) -> float:
        """Cross-entropy loss of the last train-mode forward; fills grads."""
        labels = np.asarray(labels)
        if labels.min() < 0 or labels.max() >= self.layers[-1].probs.shape[1]:
            raise RangeError("label outside class range")
        probs = self.layers[-1].probs
        b = probs.shape[0]
        eps = 1e-12
        loss = -np.log(probs[np.arange(b), labels] + eps).mean()
        grad = probs.copy()
        grad[np.arange(b), labels] -= 1.0
        grad /= b
        grad = grad.astype(self.dtype)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return float(loss)

    def parameters(self):
        """Yield (layer, attr name) for every trainable array."""
        for layer in self.layers:
            for name in layer.params:
                yield layer, name

    def state_arrays(self):
        """All persistent arrays (trainable + batch-norm running stats)."""
        for layer in self.layers:
            for name in layer.params:
                yield layer, name
            if isinstance(layer, BatchNorm):
                yield layer, "running_mean"
                yield layer, "running_var"


def loss_on_batch(net: Network, x, labels, train: bool = True) -> float:
    """Forward + cross-entropy without touching gradients (for FD checks)."""
    probs = net.forward(x, train=train)
    eps = 1e-12
    return float(-np.log(
        probs[np.arange(len(labels)), labels] + eps).mean())


# a non-finite loss raises DivergenceError with its context; numpy's
# overflow/invalid warnings on the way there would only repeat it on stderr
@np.errstate(all="ignore")
def train(net: Network, windows: EpochSet, config: TrainConfig):
    """Adam training loop with early stop on a training-loss plateau.

    Returns the per-epoch mean loss curve; the network is trained in place.
    Deterministic for a fixed config seed.
    """
    x = np.asarray(windows.tensor, dtype=net.dtype)[:, None, :, :]
    y = np.asarray(windows.labels)
    n = x.shape[0]
    if n < 1:
        raise RangeError("no training data")
    slots = [(layer, name,
              np.zeros_like(getattr(layer, name), dtype=np.float64),
              np.zeros_like(getattr(layer, name), dtype=np.float64))
             for layer, name in net.parameters()]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    curve = []
    last_loss = None
    best = np.inf
    stall = 0
    for epoch in range(config.epochs):
        order = child_rng(config.seed, "shuffle", epoch).permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            net.forward(x[idx], train=True)
            loss = net.backward(y[idx])
            if not np.isfinite(loss):
                raise DivergenceError(epoch, last_loss,
                                      n_channels=windows.n_channels)
            losses.append(loss)
            last_loss = loss
            step += 1
            for layer, name, m1, m2 in slots:
                g = getattr(layer, "d" + name).astype(np.float64)
                m1 *= beta1
                m1 += (1 - beta1) * g
                m2 *= beta2
                m2 += (1 - beta2) * g * g
                mhat = m1 / (1 - beta1 ** step)
                vhat = m2 / (1 - beta2 ** step)
                p = getattr(layer, name)
                p -= (config.lr * mhat / (np.sqrt(vhat) + eps)).astype(p.dtype)
        epoch_loss = float(np.mean(losses))
        curve.append(epoch_loss)
        if epoch_loss < best - config.min_delta:
            best = epoch_loss
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break
    # the last update can overflow with every loss finite; a network with
    # non-finite weights would still predict (argmax of NaN is class 0)
    if not all(np.isfinite(getattr(layer, name)).all()
               for layer, name in net.parameters()):
        raise DivergenceError(epoch, last_loss, n_channels=windows.n_channels)
    return curve


def predict_proba(net: Network, tensor: np.ndarray) -> np.ndarray:
    """Eval-mode class probabilities for windows shaped (n, channels, samples)."""
    x = np.asarray(tensor, dtype=net.dtype)[:, None, :, :]
    out = []
    for start in range(0, x.shape[0], 64):
        out.append(net.forward(x[start:start + 64], train=False))
    return np.concatenate(out, axis=0)


def predict_trial(window_probs: np.ndarray) -> int:
    """Trial decision: argmax of the mean window probability vector.

    Ties resolve to the lowest class id (numpy argmax convention).
    """
    window_probs = np.atleast_2d(np.asarray(window_probs, dtype=np.float64))
    return int(np.argmax(window_probs.mean(axis=0)))


def slide_windows(epochs: EpochSet, win_s: float = 2.0,
                  overlap: float = 0.5) -> EpochSet:
    """Sliding-window augmentation: 50%-overlapping windows, labels inherited.

    Window 0 of each trial is an exact prefix slice; source trial ids are
    kept so cross-validation can hold all windows of a trial together.
    """
    fs = epochs.fs
    win = int(round(win_s * fs))
    if win > epochs.n_samples:
        raise RangeError(
            f"window of {win} samples exceeds epoch length {epochs.n_samples}"
        )
    hop = max(1, int(round(win * (1.0 - overlap))))
    starts = list(range(0, epochs.n_samples - win + 1, hop))
    n_out = epochs.n_trials * len(starts)
    tensor = np.empty((n_out, epochs.n_channels, win), dtype=epochs.tensor.dtype)
    labels = np.empty(n_out, dtype=np.int64)
    src = np.empty(n_out, dtype=np.int64)
    k = 0
    for i in range(epochs.n_trials):
        for s in starts:
            tensor[k] = epochs.tensor[i, :, s:s + win]
            labels[k] = epochs.labels[i]
            src[k] = epochs.source_trials[i]
            k += 1
    return EpochSet(labels, tensor, fs, epochs.t0_ms, source_trials=src,
                    montage=epochs.montage)


class CnnClassifier:
    """Harness-facing wrapper: build, train and score the decoding CNN."""

    def __init__(self, config: TrainConfig):
        self.config = config
        self.net = None
        self.loss_curve = None

    def fit(self, windows: EpochSet) -> "CnnClassifier":
        spec = build_model(windows.n_channels,
                           input_samples=windows.n_samples,
                           dropout=self.config.dropout)
        self.net = Network(spec, seed=self.config.seed)
        self.loss_curve = train(self.net, windows, self.config)
        return self

    def predict_scores(self, windows: EpochSet) -> np.ndarray:
        with np.errstate(all="ignore"):
            scores = predict_proba(self.net, windows.tensor)
        if not np.isfinite(scores).all():
            # finite weights whose eval-mode outputs overflow: the fit
            # diverged even though every training loss was finite
            raise DivergenceError(len(self.loss_curve) - 1,
                                  self.loss_curve[-1],
                                  n_channels=windows.n_channels)
        return scores


# ---------------------------------------------------------------------------
# Checkpoints

def save_network(net: Network, path, config: TrainConfig = None) -> None:
    """Model checkpoint: JSON layer specs + the state arrays, each named
    '<position in state_arrays()>.<attribute>'."""
    header = {
        "kind": "cnn-checkpoint",
        "seed": int(net.seed),
        "n_channels": int(net.spec.n_channels),
        "input_samples": int(net.spec.input_samples),
        "layers": [asdict(ls) for ls in net.spec.layers],
        "config": asdict(config) if config is not None else None,
    }
    write_container(path, header, {
        f"{i}.{name}": getattr(layer, name)
        for i, (layer, name) in enumerate(net.state_arrays())})


def load_network(path) -> Network:
    header, arrays = read_container(path)
    layers = [LayerSpec(**{**d, "kernel": tuple(d["kernel"]),
                           "stride": tuple(d["stride"])})
              for d in header["layers"]]
    spec = ModelSpec(layers, header["n_channels"], header["input_samples"])
    net = Network(spec, seed=header["seed"])
    for i, (layer, name) in enumerate(net.state_arrays()):
        key, arr = f"{i}.{name}", getattr(layer, name)
        if key not in arrays or arrays[key].shape != arr.shape:
            raise ShapeError(f"{path}: checkpoint lacks a {arr.shape} {key!r}")
        setattr(layer, name, arrays[key].astype(arr.dtype))
    return net
