"""CSP spatial filters, LDA and the one-vs-rest 4-class baseline."""

import numpy as np
import pytest
import scipy.linalg

from vmidecode import (CspLdaClassifier, EpochSet, csp_features, csp_fit,
                       lda_fit, lda_predict, pool)
from vmidecode.csp import (_csp_model, _mean_normalized_cov, lda_scores,
                           load_csp_lda, save_csp_lda)
from vmidecode.errors import DegenerateInputError, RangeError, ShapeError


def _variance_classes(n_trials=12, n_ch=4, boost_a=0, boost_b=1, seed=0,
                      gain=4.0):
    """Two-class data where one channel carries extra variance per class."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_trials, n_ch, 400))
    b = rng.standard_normal((n_trials, n_ch, 400))
    a[:, boost_a, :] *= gain
    b[:, boost_b, :] *= gain
    zeros = np.zeros(n_trials, dtype=int)
    return (EpochSet(zeros, a, 250, 500.0),
            EpochSet(zeros + 1, b, 250, 500.0))


def test_csp_whitens_composite_covariance():
    ep_a, ep_b = _variance_classes()
    model = csp_fit(ep_a, ep_b, m=2)
    comp = (_mean_normalized_cov(np.asarray(ep_a.tensor, dtype=np.float64))
            + _mean_normalized_cov(np.asarray(ep_b.tensor, dtype=np.float64)))
    ident = model.filters @ comp @ model.filters.T
    np.testing.assert_allclose(ident, np.eye(4), atol=1e-8)


def test_csp_eigenvalues_bounded_descending():
    ep_a, ep_b = _variance_classes()
    model = csp_fit(ep_a, ep_b, m=2)
    vals = model.eigenvalues
    assert np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))
    # retained order: top-m descending, then bottom-m descending
    assert vals[0] >= vals[1] >= vals[2] >= vals[3]


def test_csp_recovers_planted_channels():
    ep_a, ep_b = _variance_classes(boost_a=0, boost_b=1)
    model = csp_fit(ep_a, ep_b, m=1)
    first, last = model.filters[0], model.filters[-1]
    assert int(np.argmax(np.abs(first))) == 0
    assert int(np.argmax(np.abs(last))) == 1


def test_csp_class_swap_reverses_filters():
    ep_a, ep_b = _variance_classes()
    ab = csp_fit(ep_a, ep_b, m=1)
    ba = csp_fit(ep_b, ep_a, m=1)
    # the retained eigenvalue set maps lambda -> 1 - lambda under the swap
    np.testing.assert_allclose(np.sort(ba.eigenvalues),
                               np.sort(1.0 - ab.eigenvalues), atol=1e-8)
    # same spatial subspace, opposite roles
    assert abs(np.dot(ab.filters[0] / np.linalg.norm(ab.filters[0]),
                      ba.filters[-1] / np.linalg.norm(ba.filters[-1]))) > 0.99


def test_csp_validation():
    ep_a, ep_b = _variance_classes()
    with pytest.raises(ShapeError):
        csp_fit(ep_a, ep_b.select(channel_idx=[0, 1]), m=1)
    with pytest.raises(RangeError):
        csp_fit(ep_a.select(trial_idx=[0]), ep_b, m=1)


def test_csp_features_scale_invariant():
    ep_a, ep_b = _variance_classes()
    model = csp_fit(ep_a, ep_b, m=2)
    f1 = csp_features(model, ep_a)
    scaled = EpochSet(ep_a.labels, ep_a.tensor * 2.0, ep_a.fs, ep_a.t0_ms)
    f2 = csp_features(model, scaled)
    np.testing.assert_allclose(f1, f2, atol=1e-9)
    assert f1.shape == (ep_a.n_trials, 4)


def test_csp_features_zero_epoch_degenerate():
    ep_a, ep_b = _variance_classes()
    model = csp_fit(ep_a, ep_b, m=1)
    zero = EpochSet([0], np.zeros((1, 4, 400)), 250, 500.0)
    with pytest.raises(DegenerateInputError):
        csp_features(model, zero)


def _separated_pair(n, seed):
    """Covariances ca, cb = A diag(lam) A^T, A diag(1 - lam) A^T with A of
    condition number 4 and generalized eigenvalues lam spaced 0.9 / n apart,
    so each eigenvector is well determined."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    r, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q * rng.uniform(0.5, 2.0, n) @ r
    lam = rng.permutation(np.linspace(0.05, 0.95, n))
    return a * lam @ a.T, a * (1 - lam) @ a.T


@pytest.mark.parametrize("n", [2, 8, 16, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_csp_eigensolver_matches_scipy_eigh(n, seed):
    ca, cb = _separated_pair(n, seed)
    comp = ca + cb
    model = _csp_model(ca, cb, m=n // 2)  # keeps all n filters
    vals, vecs = scipy.linalg.eigh(ca, comp)
    np.testing.assert_allclose(model.eigenvalues, vals[::-1], rtol=0,
                               atol=1e-12)
    want = vecs[:, ::-1].T
    sign = np.sign(np.sum(model.filters * want, axis=1, keepdims=True))
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(model.filters * sign - want) <= 1e-10 * scale)
    np.testing.assert_allclose(model.filters @ comp @ model.filters.T,
                               np.eye(n), rtol=0, atol=1e-12)


def test_csp_fits_a_rank_deficient_composite_through_the_ridge():
    # channels 1 and 2 carry one signal in both classes; every step of the
    # Cholesky factorization is exact, so its last pivot is exactly zero
    ca = np.array([[1.0, 0, 0], [0, 4, 4], [0, 4, 4]])
    cb = np.diag([4.0, 0, 0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(ca + cb)
    model = _csp_model(ca, cb, m=1)
    assert np.isfinite(model.filters).all()
    np.testing.assert_allclose(model.eigenvalues, [1, 0], atol=1e-5)
    # the same on epochs with a duplicated channel, whichever way round-off
    # takes the factorization
    dup = [EpochSet(e.labels, e.tensor[:, [0, 1, 2, 2]], e.fs, e.t0_ms)
           for e in _variance_classes()]
    model = csp_fit(*dup, m=2)
    assert np.isfinite(model.filters).all()
    assert np.all((model.eigenvalues > -1e-9)
                  & (model.eigenvalues < 1 + 1e-9))


def test_csp_refuses_an_all_zero_composite():
    zero = np.zeros((4, 4))
    with pytest.raises(DegenerateInputError,
                       match="^singular composite covariance"):
        _csp_model(zero, zero, m=1)


def _float32_classes(n_ch, n_trials=6, seed=0):
    """Two float32 epoch sets whose channel 0 / channel 1 carry the most
    variance."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, n_trials, n_ch, 500)).astype(np.float32)
    x[0, :, 0] *= 4
    x[1, :, 1] *= 4
    return (EpochSet(np.zeros(n_trials, dtype=int), x[0], 250, 500.0),
            EpochSet(np.ones(n_trials, dtype=int), x[1], 250, 500.0))


@pytest.mark.parametrize("n_ch", [8, 64])
def test_mean_normalized_cov_matches_the_per_trial_loop(n_ch):
    tensor = np.asarray(_float32_classes(n_ch)[0].tensor, dtype=np.float64)
    acc = np.zeros((n_ch, n_ch))
    for x in tensor:
        x = x - x.mean(axis=1, keepdims=True)
        c = x @ x.T
        acc += c / np.trace(c)
    np.testing.assert_array_equal(_mean_normalized_cov(tensor),
                                  acc / len(tensor))


def test_mean_normalized_cov_refuses_a_zero_variance_trial():
    tensor = np.asarray(_float32_classes(8)[0].tensor, dtype=np.float64)
    tensor[2] = 5.0
    with pytest.raises(DegenerateInputError, match="zero variance"):
        _mean_normalized_cov(tensor)


@pytest.mark.parametrize("n_ch", [8, 64])
def test_csp_features_match_the_per_trial_loop(n_ch):
    ep_a, ep_b = _float32_classes(n_ch)
    model = csp_fit(ep_a, ep_b, m=2)
    feats = csp_features(model, ep_b)
    ref = np.empty((ep_b.n_trials, 4))
    for i, x in enumerate(np.asarray(ep_b.tensor, dtype=np.float64)):
        v = (model.filters @ x).var(axis=1)
        ref[i] = np.log(v / v.sum())
    assert feats.flags.c_contiguous
    np.testing.assert_array_equal(feats, ref)


def test_csp_features_error_names_the_first_zero_variance_trial():
    ep_a, ep_b = _float32_classes(8)
    model = csp_fit(ep_a, ep_b, m=2)
    tensor = ep_b.tensor.copy()
    tensor[[3, 5]] = 0.0
    with pytest.raises(DegenerateInputError,
                       match="^zero variance in trial 3$"):
        csp_features(model, EpochSet(ep_b.labels, tensor, 250, 500.0))


def test_csp_feature_separation_on_planted_data():
    ep_a, ep_b = _variance_classes(gain=6.0)
    model = csp_fit(ep_a, ep_b, m=1)
    fa = csp_features(model, ep_a)[:, 0]
    fb = csp_features(model, ep_b)[:, 0]
    pooled_sd = np.sqrt((fa.var(ddof=1) + fb.var(ddof=1)) / 2.0)
    assert abs(fa.mean() - fb.mean()) > 2.0 * pooled_sd


def test_csp_mixing_invariance():
    # an invertible linear mixing applied to both classes leaves the
    # decisions of the refit CSP+LDA unchanged
    ep_a, ep_b = _variance_classes(gain=5.0)
    rng = np.random.default_rng(7)
    mix = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)

    def pipeline(a, b):
        model = csp_fit(a, b, m=1)
        feats = np.vstack([csp_features(model, a), csp_features(model, b)])
        labels = np.concatenate([np.zeros(a.n_trials), np.ones(b.n_trials)])
        lda = lda_fit(feats, labels.astype(int))
        return lda_predict(lda, feats)

    base = pipeline(ep_a, ep_b)
    mixed = pipeline(
        EpochSet(ep_a.labels, np.einsum("ij,tjs->tis", mix, ep_a.tensor),
                 250, 500.0),
        EpochSet(ep_b.labels, np.einsum("ij,tjs->tis", mix, ep_b.tensor),
                 250, 500.0))
    np.testing.assert_array_equal(base, mixed)


# ---------------------------------------------------------------------------
# LDA

def test_lda_separates_distant_clouds():
    rng = np.random.default_rng(8)
    x = np.vstack([rng.standard_normal((40, 2)) + [-5.0, 0.0],
                   rng.standard_normal((40, 2)) + [5.0, 0.0]])
    y = np.repeat([0, 1], 40)
    model = lda_fit(x, y)
    assert (lda_predict(model, x) == y).all()


def test_lda_boundary_near_midpoint():
    rng = np.random.default_rng(9)
    x = np.vstack([rng.standard_normal((500, 1)) - 3.0,
                   rng.standard_normal((500, 1)) + 3.0])
    y = np.repeat([0, 1], 500)
    model = lda_fit(x, y)
    # scores are equal at the boundary; solve w0 x + b0 = w1 x + b1
    w = model.weights[:, 0]
    boundary = (model.biases[0] - model.biases[1]) / (w[1] - w[0])
    assert abs(boundary) < 0.1


def test_lda_column_permutation_invariance():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((60, 4))
    y = (x[:, 2] > 0).astype(int)
    model = lda_fit(x, y)
    perm = [3, 1, 0, 2]
    model_p = lda_fit(x[:, perm], y)
    np.testing.assert_array_equal(lda_predict(model, x),
                                  lda_predict(model_p, x[:, perm]))


def test_lda_validation():
    with pytest.raises(RangeError):
        lda_fit(np.zeros((4, 2)), np.zeros(4, dtype=int))
    with pytest.raises(DegenerateInputError):
        lda_fit(np.array([[np.nan, 1.0], [0.0, 1.0]]), np.array([0, 1]))


# ---------------------------------------------------------------------------
# One-vs-rest 4-class classifier

def _four_class_windows(n_per_class=10, seed=0):
    rng = np.random.default_rng(seed)
    tensors, labels = [], []
    for c in range(4):
        x = rng.standard_normal((n_per_class, 4, 400))
        x[:, c, :] *= 5.0
        tensors.append(x)
        labels.append(np.full(n_per_class, c))
    return EpochSet(np.concatenate(labels), np.concatenate(tensors),
                    250, 500.0)


def test_ovr_classifier_separates_planted_classes():
    windows = _four_class_windows()
    clf = CspLdaClassifier(m=1).fit(windows)
    scores = clf.predict_scores(windows)
    assert scores.shape == (40, 4)
    preds = np.argmax(scores, axis=1)
    assert (preds == windows.labels).mean() >= 0.9


def _four_class_float32_windows(n_ch, n_per_class=6, seed=0):
    """Four classes of float32 windows, class c louder on channel c % n_ch."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, n_per_class, n_ch, 500)).astype(np.float32)
    for c in range(4):
        x[c, :, c % n_ch] *= 2 + c
    labels = np.repeat(np.arange(4), n_per_class)
    order = rng.permutation(labels.size)
    return EpochSet(labels[order], x.reshape(-1, n_ch, 500)[order], 250, 500.0)


@pytest.mark.parametrize("n_ch", [2, 8])
def test_ovr_fit_matches_per_class_csp_fit(n_ch):
    windows = _four_class_float32_windows(n_ch)
    clf = CspLdaClassifier(m=2).fit(windows)
    for c, (csp, lda) in zip(range(4), clf.models_):
        is_c = windows.labels == c
        want = csp_fit(windows.select(trial_idx=np.nonzero(is_c)[0]),
                       windows.select(trial_idx=np.nonzero(~is_c)[0]), m=2)
        want_lda = lda_fit(csp_features(want, windows), is_c.astype(np.int64))
        assert csp.m == want.m == min(2, n_ch // 2)
        np.testing.assert_array_equal(csp.filters, want.filters)
        np.testing.assert_array_equal(csp.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(lda.weights, want_lda.weights)
        np.testing.assert_array_equal(lda.biases, want_lda.biases)


@pytest.mark.parametrize("block_bytes", [1, 100_000, pool.BLOCK_BYTES])
@pytest.mark.parametrize("n_ch", [8, 64])
def test_ovr_fit_and_scores_in_blocks_are_the_whole_tensor_bits(
        n_ch, block_bytes, monkeypatch):
    # 24 windows of 8 channels are 0.8 MB in float64, of 64 channels 6.1 MB
    monkeypatch.setattr(pool, "BLOCK_BYTES", block_bytes)
    windows = _four_class_float32_windows(n_ch)
    clf = CspLdaClassifier(m=2).fit(windows)
    # the float64 copy of every window at once, as fit first made it
    x = np.asarray(windows.tensor, dtype=np.float64)
    centred = x - x.mean(axis=2, keepdims=True)
    c = centred @ centred.transpose(0, 2, 1)
    covs = c / np.trace(c, axis1=1, axis2=2)[:, None, None]
    want_scores = np.empty((windows.n_trials, 4))
    for k, (csp, lda) in enumerate(clf.models_):
        is_c = windows.labels == k
        want = _csp_model(covs[is_c].sum(axis=0) / is_c.sum(),
                          covs[~is_c].sum(axis=0) / (~is_c).sum(), 2)
        v = (want.filters @ x).var(axis=2)
        features = np.log(v / v.sum(axis=1, keepdims=True))
        want_lda = lda_fit(features, is_c.astype(np.int64))
        np.testing.assert_array_equal(csp.filters, want.filters)
        np.testing.assert_array_equal(lda.weights, want_lda.weights)
        np.testing.assert_array_equal(lda.biases, want_lda.biases)
        s = lda_scores(want_lda, features)
        want_scores[:, k] = s[:, 1] - s[:, 0]
    np.testing.assert_array_equal(clf.predict_scores(windows), want_scores)


def test_ovr_fit_refusals_match_csp_fit():
    windows = _four_class_float32_windows(4)
    labels = windows.labels
    first_3, first_1 = (np.nonzero(labels == c)[0][:1] for c in (3, 1))
    one_window_of_class_3 = np.union1d(np.nonzero(labels < 3)[0], first_3)
    a_rest_of_one_window = np.union1d(np.nonzero(labels == 0)[0], first_1)
    for idx in (one_window_of_class_3, a_rest_of_one_window):
        with pytest.raises(RangeError, match="needs >= 2 trials per class"):
            CspLdaClassifier().fit(windows.select(trial_idx=idx))
    tensor = windows.tensor.copy()
    tensor[7] = 3.0
    with pytest.raises(DegenerateInputError,
                       match="^trial with zero variance$"):
        CspLdaClassifier().fit(EpochSet(windows.labels, tensor, 250, 500.0))


def test_ovr_model_round_trip(tmp_path):
    windows = _four_class_windows()
    clf = CspLdaClassifier(m=1).fit(windows)
    path = tmp_path / "csp.eegb"
    save_csp_lda(clf, path)
    back = load_csp_lda(path)
    # every array is stored in its own dtype, so the reload is exact
    np.testing.assert_array_equal(back.predict_scores(windows),
                                  clf.predict_scores(windows))
    for (c0, l0), (c1, l1) in zip(clf.models_, back.models_):
        assert (c1.m, c1.n_channels) == (c0.m, c0.n_channels)
        for a, b in ((c0.filters, c1.filters),
                     (c0.eigenvalues, c1.eigenvalues),
                     (l0.weights, l1.weights), (l0.biases, l1.biases),
                     (l0.classes, l1.classes), (l0.priors, l1.priors)):
            assert b.dtype == a.dtype
            np.testing.assert_array_equal(b, a)


def test_csp_and_cnn_checkpoints_share_the_container(tmp_path):
    from vmidecode import build_model, Network, save_network
    from vmidecode.io import read_container
    clf = CspLdaClassifier(m=1).fit(_four_class_windows())
    save_csp_lda(clf, tmp_path / "csp.eegb")
    header, arrays = read_container(tmp_path / "csp.eegb")
    assert header["kind"] == "csp-lda-checkpoint"
    assert arrays["0.filters"].dtype == np.float64
    assert arrays["0.classes"].dtype == np.int64
    save_network(Network(build_model(2), seed=0),
                 tmp_path / "cnn.eegb")
    header, arrays = read_container(tmp_path / "cnn.eegb")
    assert header["kind"] == "cnn-checkpoint"
    assert arrays["0.w"].dtype == np.float32


def test_lda_scores_shape():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((20, 3))
    y = (x[:, 0] > 0).astype(int)
    model = lda_fit(x, y)
    assert lda_scores(model, x).shape == (20, 2)
