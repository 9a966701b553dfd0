"""Trial-averaged phase-locking-value connectivity and channel selection;
phase factors and per-trial PLV matrices are formed in byte-bounded blocks
of trials on the shared thread pool, never for all trials at once."""

from dataclasses import dataclass

import numpy as np

from .core import EpochSet, Montage
from .dsp import analytic_signal
from .errors import RangeError, ShapeError, check, integer, number
from .io import write_text
from .pool import ordered_map, row_blocks

# strong_edges' threshold and select_channels' k
THRESHOLD_RULE = (lambda v: number(v) and 0 <= v <= 1, "a number in [0, 1]")
K_RULE = integer(1)


@dataclass
class ConnectivityMatrix:
    """Symmetric channels x channels PLV scores in [0, 1], unit diagonal."""

    values: np.ndarray
    montage: Montage

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError("connectivity matrix must be square")
        self.values = v

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        names = self.montage.channel_names
        rows = ["channel," + ",".join(names)]
        for name, row in zip(names, self.values):
            rows.append(name + "," + ",".join(f"{v:.6f}" for v in row))
        write_text(path, "\n".join(rows) + "\n")


@dataclass
class ChannelRanking:
    """Channels ordered by descending connectivity score.

    Ties are broken by lower channel index, so rankings are reproducible.
    """

    order: list  # list of (channel index, score)
    montage: Montage

    def indices(self) -> list:
        return [i for i, _ in self.order]

    def to_csv(self, path) -> None:
        rows = ["rank,channel_index,channel_name,score"]
        for r, (idx, score) in enumerate(self.order):
            rows.append(f"{r},{idx},{self.montage.channel_names[idx]},"
                        f"{score:.6f}")
        write_text(path, "\n".join(rows) + "\n")


def _trial_blocks(epochs: EpochSet, out: np.ndarray, fn) -> np.ndarray:
    """out[trials] = fn(the phase factors of trials), block by block."""
    def fill(trials):
        a = analytic_signal(epochs.tensor[trials])
        mag = np.abs(a)
        mag[mag == 0] = 1.0
        out[trials] = fn(np.divide(a, mag, out=a))
    # a trial's phase factors are complex128
    ordered_map(fill, row_blocks(epochs.n_trials,
                                 16 * epochs.n_channels * epochs.n_samples))
    return out


def phase_factors(epochs: EpochSet) -> np.ndarray:
    """Unit-modulus instantaneous phase factors e^{i phi} per trial/channel."""
    return _trial_blocks(epochs, np.empty(epochs.tensor.shape, np.complex128),
                         lambda z: z)


def plv_trial_matrices(epochs: EpochSet) -> np.ndarray:
    """Per-trial PLV matrices, trials x channels x channels.

    PLV(i, j) = |mean_t e^{i (phi_i(t) - phi_j(t))}| within each trial.
    """
    return _trial_blocks(
        epochs, np.empty(epochs.tensor.shape[:2] + (epochs.n_channels,)),
        lambda z: np.abs(z @ z.conj().swapaxes(-1, -2) / epochs.n_samples))


def _mean_plv(trial_plv: np.ndarray, montage: Montage) -> ConnectivityMatrix:
    m = trial_plv.mean(axis=0)
    m = np.clip((m + m.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(m, 1.0)
    return ConnectivityMatrix(m, montage=montage)


def plv_matrix(epochs: EpochSet) -> ConnectivityMatrix:
    """Trial-averaged PLV connectivity over the analysis window."""
    if epochs.n_trials < 1:
        raise RangeError("PLV needs at least one trial")
    return _mean_plv(plv_trial_matrices(epochs), epochs.montage)


def strong_edges(conn: ConnectivityMatrix, threshold: float = 0.9) -> list:
    """Upper-triangle pairs with PLV above threshold, strongest first."""
    check("threshold", threshold, THRESHOLD_RULE)
    v = conn.values
    i_idx, j_idx = np.triu_indices(conn.n_channels, k=1)
    keep = v[i_idx, j_idx] > threshold
    edges = [(int(i), int(j), float(v[i, j]))
             for i, j in zip(i_idx[keep], j_idx[keep])]
    edges.sort(key=lambda e: (-e[2], e[0], e[1]))
    return edges


def edges_to_csv(edges, path, montage: Montage) -> None:
    names = montage.channel_names
    rows = ["src,dst,plv"]
    rows += [f"{names[i]},{names[j]},{v:.6f}" for i, j, v in edges]
    write_text(path, "\n".join(rows) + "\n")


def rank_channels(conns) -> ChannelRanking:
    """Rank channels by mean-over-classes of their strongest off-diagonal PLV."""
    conns = list(conns)
    if not conns:
        raise ShapeError("rank_channels needs at least one matrix")
    if len({c.n_channels for c in conns}) > 1:
        raise ShapeError("connectivity matrices disagree on channel count")
    v = np.stack([c.values for c in conns])
    n = v.shape[1]
    v[:, range(n), range(n)] = -np.inf
    scores = v.max(axis=2).mean(axis=0)
    order = np.lexsort((np.arange(n), -scores))
    return ChannelRanking([(int(i), float(scores[i])) for i in order],
                          montage=conns[0].montage)


def select_channels(ranking: ChannelRanking, k: int) -> list:
    """Top-k channel indices of a ranking; prefixes nest as k grows."""
    check("k", k, K_RULE)
    if k > len(ranking.order):
        raise RangeError(f"k={k} outside 1..{len(ranking.order)}")
    return ranking.indices()[:k]


def class_plv(trial_plv: np.ndarray, labels: np.ndarray,
              montage: Montage) -> dict:
    """One PLV matrix per class label, in label order: the mean of that
    class's rows of trial_plv (per-trial matrices, one row per label)."""
    return {c: _mean_plv(trial_plv[np.nonzero(labels == c)[0]], montage)
            for c in sorted(set(int(l) for l in labels))}


def per_class_plv(epochs: EpochSet) -> dict:
    """One trial-averaged PLV matrix per class label, in label order."""
    return class_plv(plv_trial_matrices(epochs), epochs.labels,
                     epochs.montage)
