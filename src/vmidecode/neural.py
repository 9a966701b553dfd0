"""From-scratch tensor engine and the decoding CNN.

Layers operate on contiguous batch x maps x height x width arrays with
explicit forward/backward passes; gradients are checked against central
finite differences in the test suite. No conv has a bias: a batch norm
follows each one and would subtract it again. The network's first conv
(TemporalConv) multiplies the overlapping blocks of every input row at once
by a banded Toeplitz matrix of its weights and computes no input gradient;
the spatial conv multiplies each sample's im2col matrix, a view of its
input, by the weights, and the 1 x 15 convs one im2col matrix of the whole
batch. Network runs each maximal run of element-wise layers (batch norm,
then the ELU and dropout after it) as one step: each tile of at most CHUNK
elements of the (batch x maps, height x width) view goes through every
layer of the run while it is in cache, and the outputs between them are
chunk temporaries. Batch norm's reductions stay whole-array passes. A
layer's own forward/backward is the run of that layer alone and gives the
same bits. Only a train-mode forward keeps what the backward pass needs
(the first conv's row blocks, the later convs' im2col matrices, centred
batch-norm input, ELU output, dropout masks). Arrays of BUFFER_MIN_BYTES or
more go into buffers the layer keeps; an output is valid until the next
call of the layer or run that made it. Backward may overwrite what its
forward kept and its incoming gradient, never its forward input. The
architecture is a temporal convolution, a spatial convolution collapsing
the channel axis, and two further conv + average-pool stages, ending in a
softmax with one output per class. train's Adam keeps one flat state for
all parameters and updates it in cache-sized tiles. All stochasticity
(init, dropout masks, shuffling) derives from a single seed.
"""

import functools
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .core import EpochSet
from .errors import (POSITIVE, DivergenceError, RangeError, ShapeError,
                     check, integer, number)
from .io import read_container, write_container
from .seeding import child_rng

# sliding-window augmentation: 2 s windows at 50 % overlap
WIN_S = 2.0
OVERLAP = 0.5
# early stop: an epoch's loss must beat the best by this much to count
MIN_DELTA = 1e-4
# output positions per row block of the first conv: 376 = 8 x 47
BLOCK = 47
# arrays this large live in a buffer their layer keeps: glibc maps them
# afresh on each allocation. Smaller ones are left to malloc, which serves
# them from its heap only once the free of a larger mapped block has raised
# its mmap threshold (128 KiB at start, 32 MiB at most)
BUFFER_MIN_BYTES = 32 << 20
# elements per tile of the Adam update: its five float64/float32 tile
# arrays stay within a core's L2
ADAM_TILE = 1 << 14
# TrainConfig's value rules
TRAIN_RULES = {"lr": POSITIVE,
               "batch_size": integer(1), "epochs": integer(1),
               "dropout": (lambda v: number(v) and 0 <= v < 1,
                           "a number in [0, 1)"),
               "patience": integer(1)}


def out_len(n_in: int, kernel: int, stride: int) -> int:
    """Output length of a valid convolution/pool: floor((in - k)/s) + 1."""
    if kernel > n_in:
        raise ShapeError(f"kernel {kernel} exceeds input {n_in}")
    return (n_in - kernel) // stride + 1


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 100
    dropout: float = 0.5
    seed: int = 0
    patience: int = 10

    def __post_init__(self):
        for name, rule in TRAIN_RULES.items():
            check(name, getattr(self, name), rule)


@dataclass
class LayerSpec:
    kind: str                  # conv | avgpool | batchnorm | activation | dropout | flatten | dense | softmax
    maps_out: int = None
    kernel: tuple = (1, 1)     # a conv's stride is 1, a pool's its kernel
    rate: float = TrainConfig.dropout  # dropout only
    units: int = None          # dense only


@dataclass
class ModelSpec:
    """Ordered layer stack plus the input geometry it expects."""

    layers: list
    n_channels: int
    input_samples: int

    def shape_trace(self):
        """(maps, height, width) after each layer; dense layers yield ints."""
        shape = (1, self.n_channels, self.input_samples)
        trace = []
        for spec in self.layers:
            if spec.kind in ("conv", "avgpool"):
                m, h, w = shape
                shape = (spec.maps_out or m,  # a pool keeps the map count
                         *(out_len(n, k, k if spec.kind == "avgpool" else 1)
                           for n, k in zip((h, w), spec.kernel)))
            elif spec.kind == "flatten":
                shape = int(np.prod(shape))
            elif spec.kind == "dense":
                shape = spec.units
            # batchnorm / activation / dropout / softmax keep the shape
            trace.append(shape)
        return trace


def build_model(n_channels: int, input_samples: int = 500,
                dropout: float = TrainConfig.dropout,
                n_classes: int = 4) -> ModelSpec:
    """The decoding CNN: 4 conv layers, 3 average pools, softmax head.

    Temporal conv (25 maps, 1x125), spatial conv (25 maps, n_channels x 1)
    collapsing the electrode axis, then 50- and 100-map 1x15 convs, each
    pool 1x4. Batch norm follows every conv, ELU follows every
    batch norm, dropout precedes every conv block after the first.
    """
    check("n_channels", n_channels, integer(1))
    layers = [
        LayerSpec("conv", maps_out=25, kernel=(1, 125)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("dropout", rate=dropout),
        LayerSpec("conv", maps_out=25, kernel=(n_channels, 1)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("avgpool", kernel=(1, 4)),
        LayerSpec("dropout", rate=dropout),
        LayerSpec("conv", maps_out=50, kernel=(1, 15)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("avgpool", kernel=(1, 4)),
        LayerSpec("dropout", rate=dropout),
        LayerSpec("conv", maps_out=100, kernel=(1, 15)),
        LayerSpec("batchnorm"),
        LayerSpec("activation"),
        LayerSpec("avgpool", kernel=(1, 4)),
        LayerSpec("flatten"),
        LayerSpec("dense", units=n_classes),
        LayerSpec("softmax"),
    ]
    return ModelSpec(layers, n_channels, input_samples)


# ---------------------------------------------------------------------------
# Layers

class _Layer:
    params = ()

    def _scratch(self, name, shape, dtype):
        """The start of the layer's buffer `name` as a C-contiguous array; the
        buffer grows for a large request, a small one gets a fresh array."""
        n = math.prod(shape)
        buf = vars(self).setdefault("_buffers", {}).get(name)
        if buf is None or buf.size < n or buf.dtype != dtype:
            if n * np.dtype(dtype).itemsize < BUFFER_MIN_BYTES:
                return np.empty(shape, dtype)
            buf = self._buffers[name] = np.empty(n, dtype)
        return buf[:n].reshape(shape)

    def forward(self, x, train):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError


class Conv(_Layer):
    """Valid 2-D convolution (correlation), stride 1, without a bias: every
    conv of the network feeds a batch norm, which subtracts any per-map
    constant again.

    Where the kernel taps tile the input without overlap (the spatial conv),
    each sample's im2col matrix (taps x output positions) is a view of the
    input and one stacked matmul multiplies them all by the weights. Else
    (the 1 x 15 convs) one im2col copy lays the whole batch out as (taps,
    batch x positions), and the forward product, the weight gradient and
    the column gradients are one GEMM each; the input gradient adds the
    column gradients back tap by tap. The matrices are kept for the weight
    gradient only in train mode. The network's first conv is a
    TemporalConv, which builds no im2col matrix.
    """

    def __init__(self, maps_in, maps_out, kernel, rng, dtype):
        kh, kw = kernel
        fan_in = maps_in * kh * kw
        limit = np.sqrt(6.0 / (fan_in + maps_out))
        self.w = rng.uniform(-limit, limit,
                             size=(maps_out, maps_in, kh, kw)).astype(dtype)
        self.params = ("w",)

    def forward(self, x, train):
        mo, mi, kh, kw = self.w.shape
        b, _, h, w_in = x.shape
        ho = out_len(h, kh, 1)
        wo = out_len(w_in, kw, 1)
        # (B, maps_in, ho, wo, kh, kw)
        windows = np.lib.stride_tricks.sliding_window_view(
            x, (kh, kw), axis=(2, 3))
        self._tiled = (kh == 1 or ho == 1) and (kw == 1 or wo == 1)
        if self._tiled:
            # (B, taps, positions): sample i's im2col matrix is cols[i]
            cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
                b, mi * kh * kw, ho * wo)
            out = np.matmul(self.w.reshape(mo, -1), cols)
        else:
            # (taps, B x positions), a copy that backward may overwrite
            cols = np.empty((mi * kh * kw, b * ho * wo), x.dtype)
            cols.reshape(mi, kh, kw, b, ho, wo)[...] = windows.transpose(
                1, 4, 5, 0, 2, 3)
            out = (self.w.reshape(mo, -1) @ cols).reshape(
                mo, b, ho * wo).transpose(1, 0, 2).copy()
        self._cols = cols if train else None
        self._x_shape = x.shape
        return out.reshape(b, mo, ho, wo)

    def backward(self, grad):
        mo, mi, kh, kw = self.w.shape
        b, _, ho, wo = grad.shape
        g = grad.reshape(b, mo, ho * wo)
        cols, self._cols = self._cols, None
        if self._tiled:
            self.dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(
                axis=0).reshape(self.w.shape)
            # column gradients (B, maps_in, kh, kw, ho, wo); each input
            # gradient is one of them
            dcols = self._scratch("dcols", (b, mi, kh, kw, ho, wo), g.dtype)
            np.matmul(self.w.reshape(mo, -1).T, g,
                      out=dcols.reshape(b, -1, ho * wo))
            return dcols.transpose(0, 1, 2, 4, 3, 5).reshape(self._x_shape)
        g = g.transpose(1, 0, 2).reshape(mo, -1)      # (maps, B x positions)
        self.dw = (g @ cols.T).reshape(self.w.shape)
        # column gradients (maps_in, kh, kw, B, ho, wo) in the matrices'
        # memory, added back tap by tap
        dcols = np.matmul(self.w.reshape(mo, -1).T, g, out=cols).reshape(
            mi, kh, kw, b, ho, wo)
        _, _, h, w_in = self._x_shape
        dx = np.zeros((mi, b, h, w_in), dtype=grad.dtype)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i:i + ho, j:j + wo] += dcols[:, i, j]
        return dx.transpose(1, 0, 2, 3).copy()


def _pad_tail(a, n):
    """a with its last axis zero-padded to length n."""
    pad = n - a.shape[-1]
    return a if pad == 0 else np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, pad)])


def _block_pairs(product, rows):
    """(blocks, positions) views, (B, maps, H, blocks, length), that tile rows
    (B, maps, H, wo) with a first-conv product: whole blocks, then the rest."""
    b, mo, h, wo = rows.shape
    nb, tail = divmod(wo, BLOCK)
    grouped = product.reshape(b, h, -1, mo, BLOCK).transpose(0, 3, 1, 2, 4)
    return [(grouped[:, :, :, :nb],
             rows[..., :nb * BLOCK].reshape(b, mo, h, nb, BLOCK)),
            (grouped[:, :, :, -1:, :tail],
             rows[..., nb * BLOCK:].reshape(b, mo, h, 1, tail))]


def _band(kw):
    """Where a (BLOCK + kw - 1, maps, BLOCK) Toeplitz array holds tap t of
    output position j: [j + t, :, j], indexed out as (BLOCK, kw, maps)."""
    j = np.arange(BLOCK)[:, None]
    return j + np.arange(kw), slice(None), j


def _toeplitz(w):
    """(BLOCK + kw - 1, maps x BLOCK) Toeplitz matrix of w (maps, kw): tap t
    of map m at [j + t, (m, j)], 0 off the band; windows of w reversed."""
    mo, kw = w.shape
    padded = np.zeros((mo, 2 * BLOCK + kw - 2), w.dtype)
    padded[:, BLOCK - 1:BLOCK - 1 + kw] = w[:, ::-1]
    windows = np.lib.stride_tricks.sliding_window_view(padded, BLOCK, axis=1)
    return np.ascontiguousarray(
        windows[:, ::-1].transpose(1, 0, 2).reshape(BLOCK + kw - 1, -1))


class TemporalConv(Conv):
    """The network's first conv: one input map, a (1, kw) kernel, stride 1.

    Every input row is cut into blocks of BLOCK + kw - 1 samples that overlap
    by kw - 1, its tail zero-padded to whole blocks. One GEMM multiplies all
    blocks by a (BLOCK + kw - 1, maps x BLOCK) banded Toeplitz matrix of the
    weights, rebuilt on every forward because the optimiser updates the
    weights in place; the zeros off the band add nothing, and the product's
    columns are copied into the output maps. Train mode keeps
    only the blocks, from which the weight gradient is one GEMM and a sum
    along the band. Nothing consumes the gradient of the network's input, so
    backward returns None.
    """

    def __init__(self, maps_out, kernel, rng, dtype):
        if kernel[0] != 1:
            raise ShapeError(f"the first conv's kernel must be (1, kw), got "
                             f"{tuple(kernel)}")
        super().__init__(1, maps_out, kernel, rng, dtype)

    def forward(self, x, train):
        mo, _, _, kw = self.w.shape
        b, _, h, w_in = x.shape
        wo = out_len(w_in, kw, 1)
        nb = -(-wo // BLOCK)
        rows = _pad_tail(x.reshape(b * h, w_in), nb * BLOCK + kw - 1)
        blocks = np.lib.stride_tricks.sliding_window_view(
            rows, BLOCK + kw - 1, axis=1)[:, ::BLOCK].reshape(b * h * nb, -1)
        # rows (window, electrode, block), columns (map, position)
        product = self._scratch("product", (b * h * nb, mo * BLOCK), x.dtype)
        np.matmul(blocks, _toeplitz(self.w.reshape(mo, kw)), out=product)
        out = self._scratch("out", (b, mo, h, wo), product.dtype)
        for block, positions in _block_pairs(product, out):
            positions[...] = block
        self._blocks = blocks if train else None
        return out

    def backward(self, grad):
        mo, _, _, kw = self.w.shape
        b, _, h, wo = grad.shape
        # the gradient regrouped like the product, in its buffer; 0 past wo
        g = self._scratch("product", (len(self._blocks), mo * BLOCK),
                          grad.dtype)
        for block, positions in _block_pairs(g, grad):
            block[...] = positions
        g.reshape(b, h, -1, mo, BLOCK)[:, :, -1, :, wo % BLOCK or BLOCK:] = 0
        band = (self._blocks.T @ g).reshape(BLOCK + kw - 1, mo, BLOCK)
        self.dw = band[_band(kw)].sum(axis=0).T.reshape(self.w.shape)
        self._blocks = None
        return None


class AvgPool(_Layer):
    """Average pool with stride equal to its kernel. The forward starts
    from each tile's first entry plus 0 (np.mean's start, which turns -0
    into +0), adds the other entries in row-major order as strided slices
    and divides by their count as np.mean does: on the network's (1, kw)
    pools it gives np.mean's bits."""

    def __init__(self, kernel):
        self.kernel = kernel

    def _tiles(self, x):
        """x's whole, non-overlapping tiles as (B, maps, ho, kh, wo, kw); rows
        and columns past the last whole tile are left out."""
        kh, kw = self.kernel
        b, m, h, w = x.shape
        ho, wo = out_len(h, kh, kh), out_len(w, kw, kw)
        return x[:, :, :ho * kh, :wo * kw].reshape(b, m, ho, kh, wo, kw)

    def forward(self, x, train):
        kh, kw = self.kernel
        self._x_shape = x.shape
        tiles = self._tiles(x)
        out = tiles[:, :, :, 0, :, 0] + x.dtype.type(0)
        for i in range(kh):
            for j in range(kw):
                if i or j:
                    out += tiles[:, :, :, i, :, j]
        return np.divide(out, np.intp(kh * kw), out=out, casting="unsafe")

    def backward(self, grad):
        kh, kw = self.kernel
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        self._tiles(dx)[...] += (grad / (kh * kw))[:, :, :, None, :, None]
        return dx


def _per_map(v):
    """A per-map vector shaped to broadcast over (B, maps, H, W)."""
    return v[:, None, None]


def _per_row(v, batch):
    """A per-map vector as a column over the (batch x maps) rows of the
    element-wise view."""
    return v[None].repeat(batch, axis=0).reshape(-1, 1)


def _rows(x):
    """x (B, maps, H, W) as its (B x maps, H x W) element-wise view."""
    b, m, h, w = x.shape
    return x.reshape(b * m, h * w)


def _tiles(n_rows, n_cols, chunk):
    """(rows, columns) slices that cut a (n_rows, n_cols) array in C order
    into pieces of at most chunk elements: whole rows, or pieces of one row
    when a row is longer."""
    if n_cols > chunk:
        return [(slice(r, r + 1), slice(c, min(c + chunk, n_cols)))
                for r in range(n_rows) for c in range(0, n_cols, chunk)]
    step = chunk // n_cols
    return [(slice(r, min(r + step, n_rows)), slice(0, n_cols))
            for r in range(0, n_rows, step)]


class _Elementwise(_Layer):
    """A layer that maps each element on its own once a prelude over the
    whole array has set its per-map factors: batch norm, ELU, dropout.

    A run of such layers goes through the element-wise view tile by tile
    (_tiles, at most CHUNK elements), each tile through every layer of the
    run while it is in cache. A layer whose prelude reduces over the whole
    array (REDUCES) starts a new pass, forward and backward. Within a pass
    only its last layer, and a layer that keeps its output for backward,
    write whole arrays; the others write chunk temporaries. A layer's own
    forward/backward is the run of that layer alone.
    """

    CHUNK = 1 << 16
    REDUCES = False

    def forward(self, x, train):
        return _Run([self]).forward(x, train)

    def backward(self, grad):
        return _Run([self]).backward(grad)

    def _begin(self, x, train):
        """The forward prelude, x the pass's whole input; False when the
        layer passes its input on unchanged."""
        return True

    def _dest(self, a, train, last):
        """The whole (rows, columns) array the forward writes, or None."""
        return self._scratch("y", a.shape, a.dtype) if last else None

    def _begin_backward(self, grad):
        """The backward prelude, grad the pass's whole upstream gradient;
        False when the layer passes it on unchanged."""
        return True

    def _release(self):
        """Drop what the forward kept for backward."""


def _passes(layers):
    """layers cut before each one that reduces, so that it starts a pass."""
    passes = []
    for layer in layers:
        if not passes or layer.REDUCES:
            passes.append([])
        passes[-1].append(layer)
    return passes


class _Run:
    """Consecutive element-wise layers, run tile by tile (see _Elementwise).
    The run keeps the two chunk temporaries between its layers, and a chunk
    of zeros for the kernels' comparisons, for its next call."""

    def __init__(self, layers):
        self.layers = list(layers)
        self._temps = []

    def forward(self, x, train):
        for layer_pass in _passes(self.layers):
            live = [layer for layer in layer_pass if layer._begin(x, train)]
            if live:
                a = _rows(x)
                dests = [layer._dest(a, train, layer is live[-1])
                         for layer in live]
                x = self._sweep([layer._forward_tile for layer in live], a,
                                dests).reshape(x.shape)
        return x

    def backward(self, grad):
        """The last pass's last layer writes the gradient into an array its
        forward kept, or in place."""
        for layer_pass in _passes(self.layers[::-1]):
            live = [layer for layer in layer_pass
                    if layer._begin_backward(grad)]
            if live:
                a = _rows(grad)
                dests = [None] * (len(live) - 1) + [live[-1]._grad_dest(a)]
                grad = self._sweep([layer._backward_tile for layer in live],
                                   a, dests).reshape(grad.shape)
                for layer in live:
                    layer._release()
        return grad

    def _sweep(self, kernels, a, dests):
        """Feed a (rows, columns) array tile by tile through the tile kernels
        in turn; kernel i writes into dests[i], or into a chunk temporary
        where that is None, and is also given zeros of the tile's shape.
        Returns the last kernel's whole output."""
        chunk = _Elementwise.CHUNK
        n, temps = min(chunk, a.size), self._temps
        if not temps or temps[0].dtype != a.dtype or temps[0].size < n:
            temps = self._temps = [np.empty(n, a.dtype), np.empty(n, a.dtype),
                                   np.zeros(n, a.dtype)]
        for tile in _tiles(*a.shape, chunk):
            x = a[tile]
            zeros = temps[2][:x.size].reshape(x.shape)
            for i, (kernel, dest) in enumerate(zip(kernels, dests)):
                out = (temps[i % 2][:x.size].reshape(x.shape)
                       if dest is None else dest[tile])
                x = kernel(x, tile, out, zeros)
        return dests[-1]


class BatchNorm(_Elementwise):
    """Batch normalisation over (batch, height, width) per map.

    Its preludes reduce, so it starts a pass. In train mode the forward
    prelude computes the mean, the centred input (kept; backward writes the
    input gradient into it), the variance and the inverse deviation, and the
    tiles scale and shift the centred input. Eval mode uses the running
    statistics, centres tile by tile and keeps nothing. The backward prelude
    reduces the whole upstream gradient.
    """

    REDUCES = True

    def __init__(self, n_maps, dtype):
        self.gamma = np.ones(n_maps, dtype=dtype)
        self.beta = np.zeros(n_maps, dtype=dtype)
        self.running_mean = np.zeros(n_maps, dtype=dtype)
        self.running_var = np.ones(n_maps, dtype=dtype)
        self.eps = 1e-5
        self.momentum = 0.1
        self.params = ("gamma", "beta")

    def _begin(self, x, train):
        b = x.shape[0]
        if train:
            n = x.size // x.shape[1]
            mean = np.einsum("bmhw->m", x) / n
            xc = np.subtract(x, _per_map(mean),
                             out=self._scratch("xc", x.shape, x.dtype))
            var = np.einsum("bmhw,bmhw->m", xc, xc) / n
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean)
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var)
            self._xc, shift = _rows(xc), None
        else:
            var = self.running_var
            self._xc, shift = None, _per_row(self.running_mean, b)
        ivar = 1.0 / np.sqrt(var + self.eps)
        self._ivar = ivar if train else None
        self._factors = (shift, _per_row(self.gamma * ivar, b),
                         _per_row(self.beta, b))
        return True

    def _forward_tile(self, x, tile, out, zeros):
        rows = tile[0]
        shift, scale, beta = self._factors
        xc = (self._xc[tile] if shift is None
              else np.subtract(x, shift[rows], out=out))
        np.multiply(xc, scale[rows], out=out)
        out += beta[rows]
        return out

    def _begin_backward(self, grad):
        b, m = grad.shape[:2]
        n = grad.size // m
        ivar = self._ivar
        self.dbeta = np.einsum("bmhw->m", grad)
        gxc = np.einsum("bmhw,bmhw->m", grad, self._xc.reshape(grad.shape))
        self.dgamma = gxc * ivar
        # dx = gamma ivar (g - mean(g) - xhat mean(g xhat)), xhat = xc ivar
        self._factors = tuple(_per_row(v, b) for v in (
            ivar * ivar * gxc / n, self.dbeta / n, self.gamma * ivar))
        return True

    def _grad_dest(self, a):
        return self._xc

    def _backward_tile(self, g, tile, out, zeros):
        proj, mean, scale = (f[tile[0]] for f in self._factors)
        dx = np.multiply(self._xc[tile], proj, out=out)
        dx += mean
        np.subtract(g, dx, out=dx)
        dx *= scale
        return dx

    def _release(self):
        self._xc = None


class Elu(_Elementwise):
    """ELU; train mode keeps its output, into which backward writes the
    input gradient."""

    def _dest(self, a, train, last):
        y = self._scratch("y", a.shape, a.dtype) if train or last else None
        self._y = y if train else None
        return y

    def _forward_tile(self, x, tile, out, zeros):
        # expm1(min(x, 0)) >= x wherever x <= 0, so the max picks ELU's branch;
        # a zeros array is cheaper to compare against than the scalar 0
        y = np.minimum(x, zeros, out=out)
        np.expm1(y, out=y)
        np.maximum(x, y, out=y)
        return y

    def _grad_dest(self, a):
        return self._y

    def _backward_tile(self, g, tile, out, zeros):
        # dELU/dx = 1 for y > 0, exp(x) = y + 1 otherwise
        d = np.minimum(self._y[tile], zeros, out=out)
        d += 1
        d *= g
        return d

    def _release(self):
        self._y = None


class Dropout(_Elementwise):
    """Inverted dropout; masks come from the network's named RNG stream.

    Call c draws its mask from ``rng = rng_factory(c)``. At rate 0.5 an
    element is kept where its bit is set in
    ``np.unpackbits(rng.bytes(ceil(n / 8)), count=n)``, one bit per element
    in C order. Any other rate keeps it where ``rng.random(n) >= rate``
    (float64 uniforms, drawn tile by tile in C order; the stream is the same
    as one draw). Only the boolean mask is kept; backward scales the
    incoming gradient in place when the dropout stands alone.
    """

    def __init__(self, rate, rng_factory):
        self.rate = rate
        self._rng_factory = rng_factory
        self._calls = 0

    def _begin(self, x, train):
        self._keep = None
        if not train or self.rate <= 0.0:
            return False
        rng = self._rng_factory(self._calls)
        self._calls += 1
        shape = _rows(x).shape
        if self.rate == 0.5:
            bits = np.frombuffer(rng.bytes(-(-x.size // 8)), np.uint8)
            self._keep = np.unpackbits(bits, count=x.size).view(bool).reshape(
                shape)
            self._rng = None
        else:
            self._keep = self._scratch("keep", shape, bool)
            self._rng = rng
        self._scale = x.dtype.type(1.0 / (1.0 - self.rate))
        return True

    def _forward_tile(self, x, tile, out, zeros):
        if self._rng is not None:  # the float rule draws tile by tile
            keep = self._keep[tile]
            np.greater_equal(self._rng.random(keep.size).reshape(keep.shape),
                             self.rate, out=keep)
        return self._scaled(x, tile, out)

    def _begin_backward(self, grad):
        return self._keep is not None

    def _grad_dest(self, a):
        return a

    def _backward_tile(self, g, tile, out, zeros):
        return self._scaled(g, tile, out)

    def _release(self):
        self._keep = None

    def _scaled(self, x, tile, out):
        np.multiply(x, self._scale, out=out)
        out *= self._keep[tile]
        return out


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
                layer = (TemporalConv(ls.maps_out, ls.kernel, rng, self.dtype)
                         if li == 0 else
                         Conv(shape[0], ls.maps_out, ls.kernel, rng,
                              self.dtype))
            elif ls.kind == "avgpool":
                layer = AvgPool(ls.kernel)
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
        # each maximal run of element-wise layers is one step, run tile by
        # tile; any other layer is a step of its own
        self._steps = []
        for layer in self.layers:
            if not isinstance(layer, _Elementwise):
                self._steps.append(layer)
            elif self._steps and isinstance(self._steps[-1], _Run):
                self._steps[-1].layers.append(layer)
            else:
                self._steps.append(_Run([layer]))

    def forward(self, x, train: bool = False) -> np.ndarray:
        """Class probabilities for a batch shaped (B, 1, channels, samples)."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1] != 1 \
                or x.shape[2] != self.spec.n_channels \
                or x.shape[3] != self.spec.input_samples:
            raise ShapeError(f"expected (B, 1, {self.spec.n_channels}, "
                             f"{self.spec.input_samples}), got {x.shape}")
        for step in self._steps:
            x = step.forward(x, train)
        return x

    def backward(self, labels) -> float:
        """Cross-entropy loss of the last train-mode forward; fills grads."""
        labels = np.asarray(labels)
        if labels.min() < 0 or labels.max() >= self.layers[-1].probs.shape[1]:
            raise RangeError("label outside class range")
        probs = self.layers[-1].probs
        b = probs.shape[0]
        loss = _cross_entropy(probs, labels)
        grad = probs.copy()
        grad[np.arange(b), labels] -= 1.0
        grad /= b
        grad = grad.astype(self.dtype)
        for step in reversed(self._steps):
            grad = step.backward(grad)
        return loss

    def parameters(self):
        """Yield (layer, attr name) for every trainable array."""
        yield from ((layer, name) for layer in self.layers
                    for name in layer.params)

    def state_arrays(self):
        """All persistent arrays (trainable + batch-norm running stats)."""
        for layer in self.layers:
            stats = (("running_mean", "running_var")
                     if isinstance(layer, BatchNorm) else ())
            yield from ((layer, name) for name in layer.params + stats)


def _cross_entropy(probs: np.ndarray, labels) -> float:
    """Mean -log p(label) over a batch of class probabilities."""
    return float(-np.log(probs[np.arange(len(labels)), labels] + 1e-12).mean())


class _Adam:
    """Adam over every parameter of a network as one flat state.

    The parameters become views of one flat array of the network's dtype,
    and the two moments are one float64 vector each. A step gathers the
    gradients into one float64 vector, then updates tile by tile
    (ADAM_TILE elements), each tile through every pass while it is in cache.
    Per element the ops and their order are those of the per-parameter
    update ``m1 = b1 m1 + (1 - b1) g``, ``m2 = b2 m2 + ((1 - b2) g) g``,
    ``p -= cast(lr (m1 / (1 - b1^t)) / (sqrt(m2 / (1 - b2^t)) + eps))``.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, net: Network, lr: float):
        self.lr = lr
        self.pairs = list(net.parameters())
        arrays = [getattr(layer, name) for layer, name in self.pairs]
        self.p = np.concatenate([a.ravel() for a in arrays], dtype=net.dtype)
        self.slices = []
        lo = 0
        for (layer, name), a in zip(self.pairs, arrays):
            self.slices.append(slice(lo, lo + a.size))
            setattr(layer, name, self.p[self.slices[-1]].reshape(a.shape))
            lo += a.size
        self.g, self.m1, self.m2 = (np.zeros(lo) for _ in range(3))
        n = min(ADAM_TILE, lo)
        self._temps = (np.empty(n), np.empty(n), np.empty(n, self.p.dtype))
        self.t = 0

    def step(self):
        """Update the parameters from the gradients the last backward set."""
        beta1, beta2 = self.BETA1, self.BETA2
        self.t += 1
        c1, c2 = 1 - beta1 ** self.t, 1 - beta2 ** self.t
        for (layer, name), sl in zip(self.pairs, self.slices):
            grad = getattr(layer, "d" + name)
            self.g[sl].reshape(grad.shape)[...] = grad
        for lo in range(0, self.p.size, ADAM_TILE):
            tile = slice(lo, lo + ADAM_TILE)
            g, m1, m2, p = (v[tile] for v in (self.g, self.m1, self.m2,
                                              self.p))
            a, b, u = (t[:len(g)] for t in self._temps)
            m1 *= beta1
            m1 += np.multiply(g, 1 - beta1, out=a)
            m2 *= beta2
            np.multiply(g, 1 - beta2, out=a)
            a *= g
            m2 += a
            np.divide(m1, c1, out=a)
            a *= self.lr
            np.divide(m2, c2, out=b)
            np.sqrt(b, out=b)
            b += self.EPS
            a /= b
            np.copyto(u, a, casting="unsafe")
            p -= u


# a non-finite loss raises DivergenceError with its context; numpy's
# overflow/invalid warnings on the way there would only repeat it on stderr
@np.errstate(all="ignore")
def train(net: Network, windows: EpochSet, config: TrainConfig):
    """Adam training loop with early stop on a training-loss plateau.

    Returns the per-epoch mean loss curve; the network is trained in place,
    its parameters rebound to views of the optimiser's one flat array (see
    _Adam). Deterministic for a fixed config seed.
    """
    x = np.asarray(windows.tensor, dtype=net.dtype)[:, None, :, :]
    y = np.asarray(windows.labels)
    n = x.shape[0]
    if n < 1:
        raise RangeError("no training data")
    adam = _Adam(net, config.lr)
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
            adam.step()
        epoch_loss = float(np.mean(losses))
        curve.append(epoch_loss)
        if epoch_loss < best - MIN_DELTA:
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
    """Eval-mode class probabilities for windows shaped (n, channels, samples),
    in near-equal chunks of at most one default batch, to reuse its buffers."""
    x = np.asarray(tensor, dtype=net.dtype)[:, None, :, :]
    chunks = np.array_split(x, -(-x.shape[0] // TrainConfig.batch_size))
    return np.concatenate([net.forward(c, train=False) for c in chunks])


def predict_trial(window_probs: np.ndarray):
    """Trial decision: argmax of the mean window probability vector.

    One trial's (windows, classes) scores give an int, a (trials, windows,
    classes) stack one class per trial. Ties resolve to the lowest class id.
    """
    p = np.atleast_2d(np.asarray(window_probs, dtype=np.float64))
    decision = np.argmax(p.mean(axis=-2), axis=-1)
    return int(decision) if p.ndim == 2 else decision


def slide_windows(epochs: EpochSet, win_s: float = WIN_S,
                  overlap: float = OVERLAP) -> EpochSet:
    """Sliding-window augmentation: 50%-overlapping windows, labels inherited.

    Windows are trial-major (trial 0's by start time, then trial 1's, ...);
    cross-validation scores each test trial from its block of windows.
    Window 0 of each trial is an exact prefix slice; source trial ids are kept.
    """
    fs = epochs.fs
    win = int(round(win_s * fs))
    if win > epochs.n_samples:
        raise RangeError(f"window of {win} samples exceeds epoch length "
                         f"{epochs.n_samples}")
    hop = max(1, int(round(win * (1.0 - overlap))))
    # a (trials, windows, channels, win) view, then one C-order copy
    view = np.lib.stride_tricks.sliding_window_view(
        epochs.tensor, win, axis=2)[:, :, ::hop].transpose(0, 2, 1, 3)
    n_win = view.shape[1]
    tensor = view.copy().reshape(-1, epochs.n_channels, win)
    return EpochSet(np.repeat(epochs.labels, n_win), tensor, fs, epochs.t0_ms,
                    source_trials=np.repeat(epochs.source_trials, n_win),
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
                           dropout=self.config.dropout,
                           n_classes=int(windows.labels.max()) + 1)
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
    """A network from save_network's checkpoint. A checkpoint written while
    the convs had a bias loads with each bias folded into the running mean
    of the batch norm after it."""
    header, arrays = read_container(path)
    # older checkpoints list each layer's stride, which its kind now implies
    layers = [LayerSpec(**{k: tuple(v) if k == "kernel" else v
                           for k, v in d.items() if k != "stride"})
              for d in header["layers"]]
    spec = ModelSpec(layers, header["n_channels"], header["input_samples"])
    net = Network(spec, seed=header["seed"])
    # older checkpoints list a bias after each conv's weights; with a conv
    # first, position 1 holds a "b" only then
    state = list(net.state_arrays())
    if "1.b" in arrays and isinstance(net.layers[0], Conv):
        state = [pair for layer, name in state for pair in (
            [(layer, name), (layer, "b")] if isinstance(layer, Conv)
            else [(layer, name)])]
    biases = {}
    for i, (layer, name) in enumerate(state):
        key = f"{i}.{name}"
        bias = isinstance(layer, Conv) and name == "b"
        arr = (np.empty(len(layer.w), net.dtype) if bias
               else getattr(layer, name))
        if key not in arrays or arrays[key].shape != arr.shape:
            raise ShapeError(f"{path}: checkpoint lacks a {arr.shape} {key!r}")
        if bias:
            biases[layer] = arrays[key].astype(arr.dtype)
        else:
            setattr(layer, name, arrays[key].astype(arr.dtype))
    # a conv's bias only shifts the next batch norm's input: at eval,
    # (x + b - mean) equals x - (mean - b)
    for conv, bn in zip(net.layers, net.layers[1:]):
        if conv in biases:
            if not isinstance(bn, BatchNorm):
                raise ShapeError(f"{path}: a conv bias that no batch norm "
                                 f"follows cannot be folded")
            bn.running_mean = bn.running_mean - biases[conv]
    return net
