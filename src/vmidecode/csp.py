"""Common spatial patterns + LDA, combined one-vs-rest for four classes.

CSP solves the generalized eigenproblem C_a w = lambda (C_a + C_b) w on
trace-normalized trial-averaged covariances and keeps the top-m and
bottom-m eigenvectors; features are normalized log-variances of the
spatially filtered epochs. LDA is pooled-covariance with a small ridge for
rank safety.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import EpochSet
from .errors import (DegenerateInputError, FormatError, RangeError,
                     ShapeError)
from .io import read_container, write_container

RIDGE = 1e-6


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


def _mean_normalized_cov(tensor: np.ndarray) -> np.ndarray:
    """Mean over trials of per-trial covariance C / trace(C)."""
    n_trials, n_ch, _ = tensor.shape
    acc = np.zeros((n_ch, n_ch))
    for x in tensor:
        x = x - x.mean(axis=1, keepdims=True)
        c = x @ x.T
        tr = np.trace(c)
        if tr <= 0:
            raise DegenerateInputError("trial with zero variance")
        acc += c / tr
    return acc / n_trials


def csp_fit(class_a: EpochSet, class_b: EpochSet, m: int = 2) -> CspModel:
    """Fit CSP filters discriminating two epoch sets.

    Solves C_a w = lambda (C_a + C_b) w; eigenvalues lie in [0, 1] and are
    sorted descending. The returned filters whiten the composite covariance:
    W (C_a + C_b) W^T = I. m is clamped to 1..n_channels // 2.
    """
    if class_a.n_channels != class_b.n_channels:
        raise ShapeError("class epoch sets must share channels")
    if class_a.n_trials < 2 or class_b.n_trials < 2:
        raise RangeError("csp_fit needs >= 2 trials per class")
    n_ch = class_a.n_channels
    m = max(1, min(m, n_ch // 2))
    ca = _mean_normalized_cov(np.asarray(class_a.tensor, dtype=np.float64))
    cb = _mean_normalized_cov(np.asarray(class_b.tensor, dtype=np.float64))
    comp = ca + cb
    try:
        # eigh normalizes eigenvectors against comp, so W comp W^T = I
        vals, vecs = scipy.linalg.eigh(ca, comp)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        # rank-deficient composite: retry with a small ridge
        ridged = comp + RIDGE * np.trace(comp) / n_ch * np.eye(n_ch)
        try:
            vals, vecs = scipy.linalg.eigh(ca, ridged)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as e:
            raise DegenerateInputError(
                f"singular composite covariance: {e}") from e
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    keep = list(range(m)) + list(range(n_ch - m, n_ch))
    return CspModel(filters=vecs[:, keep].T.copy(),
                    eigenvalues=vals[keep].copy(),
                    n_channels=n_ch, m=m)


def csp_features(model: CspModel, epochs: EpochSet) -> np.ndarray:
    """Normalized log-variance features, trials x 2m.

    Per trial: var_f of each filtered signal, normalized by the sum over
    retained filters, then log. Invariant to overall epoch scaling.
    """
    if epochs.n_channels != model.n_channels:
        raise ShapeError(
            f"model expects {model.n_channels} channels, got {epochs.n_channels}"
        )
    feats = np.empty((epochs.n_trials, model.filters.shape[0]))
    for i, x in enumerate(np.asarray(epochs.tensor, dtype=np.float64)):
        y = model.filters @ x
        v = y.var(axis=1)
        total = v.sum()
        if total <= 0 or np.any(v <= 0):
            raise DegenerateInputError(f"zero variance in trial {i}")
        feats[i] = np.log(v / total)
    return feats


def lda_fit(features: np.ndarray, labels: np.ndarray) -> LdaModel:
    """Pooled-covariance LDA with a small ridge shrinkage term."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.isfinite(features).all():
        raise DegenerateInputError("non-finite features")
    classes = np.unique(labels)
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
    score vector is each model's signed "one" margin, and a trial decision
    averages the score vectors of its windows.
    """

    def __init__(self, m: int = 2):
        self.m = m
        self.classes_ = None
        self.models_ = []

    def fit(self, windows: EpochSet) -> "CspLdaClassifier":
        self.classes_ = np.unique(windows.labels)
        self.models_ = []
        for c in self.classes_:
            pos = np.nonzero(windows.labels == c)[0]
            neg = np.nonzero(windows.labels != c)[0]
            csp = csp_fit(windows.select(trial_idx=pos),
                          windows.select(trial_idx=neg), m=self.m)
            feats = csp_features(csp, windows)
            binary = (windows.labels == c).astype(np.int64)
            lda = lda_fit(feats, binary)
            self.models_.append((csp, lda))
        return self

    def predict_scores(self, windows: EpochSet) -> np.ndarray:
        """OVR margin per class for every window, windows x classes."""
        scores = np.empty((windows.n_trials, self.classes_.size))
        for k, (csp, lda) in enumerate(self.models_):
            feats = csp_features(csp, windows)
            s = lda_scores(lda, feats)
            one = int(np.nonzero(lda.classes == 1)[0][0])
            rest = 1 - one
            scores[:, k] = s[:, one] - s[:, rest]
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
