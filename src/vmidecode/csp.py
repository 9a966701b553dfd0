"""Common spatial patterns + LDA, combined one-vs-rest for four classes.

CSP solves the generalized eigenproblem C_a w = lambda (C_a + C_b) w on
trace-normalized trial-averaged covariances and keeps the top-m and
bottom-m eigenvectors; features are normalized log-variances of the
spatially filtered epochs. The problem is symmetric-definite and is solved
as LAPACK's sygvd does, in numpy: the Cholesky factor C_a + C_b = L L^T,
then the symmetric eigenproblem of L^-1 C_a L^-T, whose eigenvectors U give
the filters L^-T U. LDA is pooled-covariance with a small ridge for rank
safety.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import EpochSet
from .errors import (DegenerateInputError, FormatError, RangeError,
                     ShapeError, check, integer)
from .io import read_container, write_container
from .pool import row_blocks

RIDGE = 1e-6
M_RULE = integer(1)  # CspLdaClassifier's m


@dataclass
class CspModel:
    """Spatial filters (rows) from the two-class CSP eigenproblem."""

    filters: np.ndarray      # 2m x channels, top-m then bottom-m
    eigenvalues: np.ndarray  # matching generalized eigenvalues, descending
    n_channels: int
    m: int


@dataclass
class LdaModel:
    """Pooled-covariance linear discriminant; decision is affine in features."""

    weights: np.ndarray  # classes x features
    biases: np.ndarray
    classes: np.ndarray
    priors: np.ndarray


def _float64_blocks(tensor: np.ndarray):
    """float64 copies of a (trials, ...) tensor's blocks of trials, in order,
    each block at most pool.BLOCK_BYTES unless it is one trial."""
    for rows in row_blocks(len(tensor), 8 * math.prod(tensor.shape[1:])):
        yield np.asarray(tensor[rows], dtype=np.float64)


def _normalized_covs(tensor: np.ndarray) -> np.ndarray:
    """Per-trial covariance C / trace(C), trials x channels x channels."""
    covs = []
    for x in _float64_blocks(tensor):
        x = x - x.mean(axis=2, keepdims=True)
        covs.append(x @ x.transpose(0, 2, 1))
    c = np.concatenate(covs)
    tr = np.trace(c, axis1=1, axis2=2)
    if np.any(tr <= 0):
        raise DegenerateInputError("trial with zero variance")
    return c / tr[:, None, None]


def _mean_cov(covs: np.ndarray) -> np.ndarray:
    return covs.sum(axis=0) / len(covs)


def _mean_normalized_cov(tensor: np.ndarray) -> np.ndarray:
    """Mean over trials of per-trial covariance C / trace(C)."""
    return _mean_cov(_normalized_covs(tensor))


def _generalized_eigh(a: np.ndarray, b: np.ndarray) -> tuple:
    """Ascending eigenvalues and eigenvectors (columns) of a w = lambda b w
    for symmetric a and positive definite b, normalized so that
    vecs^T b vecs = I; np.linalg.LinAlgError where b's Cholesky fails."""
    l_inv = np.linalg.inv(np.linalg.cholesky(b))
    vals, u = np.linalg.eigh(l_inv @ a @ l_inv.T)
    return vals, l_inv.T @ u


def _csp_model(ca: np.ndarray, cb: np.ndarray, m: int) -> CspModel:
    """The CSP filters of two mean normalized covariances; m is clamped to
    1..n_channels // 2, and one channel (constant features) is refused."""
    n_ch = ca.shape[0]
    if n_ch < 2:
        raise RangeError(f"CSP needs at least 2 channels, got {n_ch}")
    m = max(1, min(m, n_ch // 2))
    comp = ca + cb
    try:
        # the eigenvectors are normalized against comp, so W comp W^T = I
        vals, vecs = _generalized_eigh(ca, comp)
    except np.linalg.LinAlgError:
        # rank-deficient composite: retry with a small ridge
        ridged = comp + RIDGE * np.trace(comp) / n_ch * np.eye(n_ch)
        try:
            vals, vecs = _generalized_eigh(ca, ridged)
        except np.linalg.LinAlgError as e:
            raise DegenerateInputError(
                f"singular composite covariance: {e}") from e
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    keep = list(range(m)) + list(range(n_ch - m, n_ch))
    return CspModel(filters=vecs[:, keep].T.copy(),
                    eigenvalues=vals[keep].copy(),
                    n_channels=n_ch, m=m)


_TOO_FEW = "csp_fit needs >= 2 trials per class"


def csp_fit(class_a: EpochSet, class_b: EpochSet, m: int) -> CspModel:
    """Fit CSP filters discriminating two epoch sets.

    Solves C_a w = lambda (C_a + C_b) w; eigenvalues lie in [0, 1] and are
    sorted descending. The returned filters whiten the composite covariance:
    W (C_a + C_b) W^T = I. m is clamped to 1..n_channels // 2.
    """
    if class_a.n_channels != class_b.n_channels:
        raise ShapeError("class epoch sets must share channels")
    if class_a.n_trials < 2 or class_b.n_trials < 2:
        raise RangeError(_TOO_FEW)
    ca, cb = (_mean_normalized_cov(e.tensor) for e in (class_a, class_b))
    return _csp_model(ca, cb, m)


def csp_features(model: CspModel, epochs: EpochSet) -> np.ndarray:
    """Normalized log-variance features, trials x 2m.

    Per trial: var_f of each filtered signal, normalized by the sum over
    retained filters, then log. Invariant to overall epoch scaling.
    """
    return _features([model], epochs.tensor)[0]


def _features(models: list, tensor: np.ndarray) -> list:
    """csp_features of each model on a (trials, channels, samples) tensor,
    which is converted to float64 and filtered one block of trials at a
    time."""
    for model in models:
        if tensor.shape[1] != model.n_channels:
            raise ShapeError(f"model expects {model.n_channels} channels, "
                             f"got {tensor.shape[1]}")
    blocks = [[(model.filters @ x).var(axis=2) for model in models]
              for x in _float64_blocks(tensor)]
    features = []
    for v in map(np.concatenate, zip(*blocks)):
        # a trial whose variances are all positive has a positive total
        bad = (v <= 0).any(axis=1)
        if bad.any():
            raise DegenerateInputError(f"zero variance in trial {bad.argmax()}")
        features.append(np.log(v / v.sum(axis=1, keepdims=True)))
    return features


def lda_fit(features: np.ndarray, labels: np.ndarray) -> LdaModel:
    """Pooled-covariance LDA with a small ridge shrinkage term."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.isfinite(features).all():
        raise DegenerateInputError("non-finite features")
    classes = np.unique(labels, return_counts=True)[0]
    if classes.size < 2:
        raise RangeError("lda_fit needs >= 2 classes")
    n, d = features.shape
    means = np.stack([features[labels == c].mean(axis=0) for c in classes])
    pooled = np.zeros((d, d))
    for c, mu in zip(classes, means):
        x = features[labels == c] - mu
        pooled += x.T @ x
    pooled /= max(1, n - classes.size)
    pooled += RIDGE * np.trace(pooled) / d * np.eye(d)
    inv = np.linalg.inv(pooled)
    priors = np.array([(labels == c).mean() for c in classes])
    weights = means @ inv
    biases = -0.5 * np.einsum("kd,kd->k", weights, means) + np.log(priors)
    return LdaModel(weights, biases, classes, priors)


def lda_scores(model: LdaModel, features: np.ndarray) -> np.ndarray:
    """Discriminant score per class, samples x classes."""
    return np.asarray(features, dtype=np.float64) @ model.weights.T + model.biases


def lda_predict(model: LdaModel, features: np.ndarray) -> np.ndarray:
    scores = lda_scores(model, features)
    return model.classes[np.argmax(scores, axis=1)]


class CspLdaClassifier:
    """One-vs-rest CSP + LDA for the 4-class problem.

    One binary CSP/LDA model per class (class vs pooled rest); a window's
    score vector is each model's class-vs-rest margin, and a trial decision
    averages the score vectors of its windows.
    """

    def __init__(self, m: int = 2):
        check("m", m, M_RULE)
        self.m = m
        self.classes_ = None
        self.models_ = []

    def fit(self, windows: EpochSet) -> "CspLdaClassifier":
        """csp_fit of each class against the rest, then LDA on its features;
        the per-window covariances are made once, and each window's filtered
        variances once for all models, in blocks of windows."""
        self.classes_, counts = np.unique(windows.labels, return_counts=True)
        self.models_ = []
        # the smallest "rest" is the complement of the largest class
        if counts.min() < 2 or windows.n_trials - counts.max() < 2:
            raise RangeError(_TOO_FEW)
        covs = _normalized_covs(windows.tensor)
        is_class = [windows.labels == c for c in self.classes_]
        csps = [_csp_model(_mean_cov(covs[is_c]), _mean_cov(covs[~is_c]),
                           self.m) for is_c in is_class]
        for csp, is_c, f in zip(csps, is_class,
                                _features(csps, windows.tensor)):
            self.models_.append((csp, lda_fit(f, is_c.astype(np.int64))))
        return self

    def predict_scores(self, windows: EpochSet) -> np.ndarray:
        """OVR margin per class for every window, windows x classes."""
        scores = np.empty((windows.n_trials, self.classes_.size))
        features = _features([csp for csp, _ in self.models_], windows.tensor)
        for k, ((_, lda), f) in enumerate(zip(self.models_, features)):
            s = lda_scores(lda, f)
            # each binary LDA is fitted on labels 0 (rest) and 1 (class k)
            scores[:, k] = s[:, 1] - s[:, 0]
        return scores


_CSP_FIELDS = ("filters", "eigenvalues")
_LDA_FIELDS = ("weights", "biases", "classes", "priors")


def save_csp_lda(clf: CspLdaClassifier, path) -> None:
    """Serialize an OVR CSP-LDA model: each model's arrays by name."""
    arrays = {}
    for i, (csp, lda) in enumerate(clf.models_):
        arrays.update({f"{i}.{f}": getattr(csp, f) for f in _CSP_FIELDS})
        arrays.update({f"{i}.{f}": getattr(lda, f) for f in _LDA_FIELDS})
    header = {
        "kind": "csp-lda-checkpoint",
        "m": clf.m,
        "classes": [int(c) for c in clf.classes_],
    }
    write_container(path, header, arrays)


def load_csp_lda(path) -> CspLdaClassifier:
    header, arrays = read_container(path)
    clf = CspLdaClassifier(m=header["m"])
    clf.classes_ = np.asarray(header["classes"])
    try:
        for i in range(clf.classes_.size):
            csp = {f: arrays[f"{i}.{f}"] for f in _CSP_FIELDS}
            lda = {f: arrays[f"{i}.{f}"] for f in _LDA_FIELDS}
            clf.models_.append((
                CspModel(**csp, n_channels=csp["filters"].shape[1],
                         m=csp["filters"].shape[0] // 2),
                LdaModel(**lda)))
    except KeyError as e:
        raise FormatError(f"{path}: checkpoint lacks array {e}") from e
    return clf
