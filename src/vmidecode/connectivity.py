"""Trial-averaged phase-locking-value connectivity and channel selection."""

from dataclasses import dataclass

import numpy as np

from .core import EpochSet, Montage
from .dsp import analytic_signal
from .errors import RangeError, ShapeError


@dataclass
class ConnectivityMatrix:
    """Symmetric channels x channels PLV scores in [0, 1], unit diagonal."""

    values: np.ndarray
    montage: Montage = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError("connectivity matrix must be square")
        self.values = v

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        names = (list(self.montage.channel_names) if self.montage is not None
                 else [f"ch{i}" for i in range(self.n_channels)])
        rows = ["channel," + ",".join(names)]
        for name, row in zip(names, self.values):
            rows.append(name + "," + ",".join(f"{v:.6f}" for v in row))
        with open(path, "w") as f:
            f.write("\n".join(rows) + "\n")


@dataclass
class ChannelRanking:
    """Channels ordered by descending connectivity score.

    Ties are broken by lower channel index, so rankings are reproducible.
    """

    order: list  # list of (channel index, score)
    montage: Montage = None

    def indices(self) -> list:
        return [i for i, _ in self.order]

    def to_csv(self, path) -> None:
        rows = ["rank,channel_index,channel_name,score"]
        for r, (idx, score) in enumerate(self.order):
            name = (self.montage.channel_names[idx]
                    if self.montage is not None else f"ch{idx}")
            rows.append(f"{r},{idx},{name},{score:.6f}")
        with open(path, "w") as f:
            f.write("\n".join(rows) + "\n")


def phase_factors(epochs: EpochSet) -> np.ndarray:
    """Unit-modulus instantaneous phase factors e^{i phi} per trial/channel."""
    if epochs.n_samples < 2:
        raise RangeError("PLV needs more than one sample per epoch")
    a = analytic_signal(np.asarray(epochs.tensor, dtype=np.float64))
    mag = np.abs(a)
    mag[mag == 0] = 1.0
    return a / mag


def plv_trial_matrices(epochs: EpochSet) -> np.ndarray:
    """Per-trial PLV matrices, trials x channels x channels.

    PLV(i, j) = |mean_t e^{i (phi_i(t) - phi_j(t))}| within each trial.
    """
    z = phase_factors(epochs)
    return np.abs(z @ z.conj().swapaxes(-1, -2) / epochs.n_samples)


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
    v = conn.values
    i_idx, j_idx = np.triu_indices(conn.n_channels, k=1)
    keep = v[i_idx, j_idx] > threshold
    edges = [(int(i), int(j), float(v[i, j]))
             for i, j in zip(i_idx[keep], j_idx[keep])]
    edges.sort(key=lambda e: (-e[2], e[0], e[1]))
    return edges


def edges_to_csv(edges, path, montage: Montage = None) -> None:
    rows = ["src,dst,plv"]
    for i, j, v in edges:
        if montage is not None:
            rows.append(f"{montage.channel_names[i]},{montage.channel_names[j]},{v:.6f}")
        else:
            rows.append(f"{i},{j},{v:.6f}")
    with open(path, "w") as f:
        f.write("\n".join(rows) + "\n")


def rank_channels(conns) -> ChannelRanking:
    """Rank channels by mean-over-classes of their strongest off-diagonal PLV."""
    conns = list(conns)
    if not conns:
        raise ShapeError("rank_channels needs at least one matrix")
    n = conns[0].n_channels
    for c in conns:
        if c.n_channels != n:
            raise ShapeError("connectivity matrices disagree on channel count")
    scores = np.zeros(n)
    for c in conns:
        v = c.values.copy()
        np.fill_diagonal(v, -np.inf)
        scores += v.max(axis=1)
    scores /= len(conns)
    order = np.lexsort((np.arange(n), -scores))
    return ChannelRanking([(int(i), float(scores[i])) for i in order],
                          montage=conns[0].montage)


def select_channels(ranking: ChannelRanking, k: int) -> list:
    """Top-k channel indices of a ranking; prefixes nest as k grows."""
    if k < 1 or k > len(ranking.order):
        raise RangeError(f"k={k} outside 1..{len(ranking.order)}")
    return ranking.indices()[:k]


def per_class_plv(epochs: EpochSet) -> dict:
    """One trial-averaged PLV matrix per class label, in label order."""
    trial_plv = plv_trial_matrices(epochs)
    out = {}
    for c in sorted(set(int(l) for l in epochs.labels)):
        idx = np.nonzero(epochs.labels == c)[0]
        out[c] = _mean_plv(trial_plv[idx], epochs.montage)
    return out
