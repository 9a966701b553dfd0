"""PLV connectivity, edge extraction and channel ranking."""

import numpy as np
import pytest

from vmidecode import harness
from vmidecode import (ChannelRanking, ConnectivityMatrix, EpochSet, Montage,
                       load_epochs, per_class_plv, plv_matrix, rank_channels,
                       save_epochs, select_channels, stat_map, strong_edges)
from vmidecode.connectivity import (edges_to_csv, phase_factors,
                                    plv_trial_matrices)
from vmidecode.errors import RangeError, ShapeError

from conftest import SMALL_CHANNELS, small_spec


def _epochs(tensor, labels=None, fs=250):
    tensor = np.asarray(tensor)
    if labels is None:
        labels = np.zeros(tensor.shape[0], dtype=int)
    return EpochSet(labels, tensor, fs, 500.0)


def test_plv_identical_channels_is_one():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 1, 500))
    tensor = np.concatenate([x, x], axis=1)
    m = plv_matrix(_epochs(tensor)).values
    assert abs(m[0, 1] - 1.0) < 1e-9


def test_plv_constant_phase_offset_is_one():
    t = np.arange(500) / 250.0
    trials = []
    rng = np.random.default_rng(1)
    for _ in range(8):
        phi = rng.uniform(0, 2 * np.pi)
        a = np.sin(2 * np.pi * 8.0 * t + phi)
        b = np.sin(2 * np.pi * 8.0 * t + phi + 1.1)
        trials.append(np.stack([a, b]))
    m = plv_matrix(_epochs(np.stack(trials))).values
    assert abs(m[0, 1] - 1.0) < 1e-6


def test_plv_independent_noise_is_low():
    rng = np.random.default_rng(2)
    tensor = rng.standard_normal((50, 2, 1000))
    m = plv_matrix(_epochs(tensor)).values
    assert m[0, 1] < 0.1


def test_plv_amplitude_invariance():
    rng = np.random.default_rng(3)
    tensor = rng.standard_normal((6, 2, 500))
    scaled = tensor * np.array([3.0, 0.2])[None, :, None]
    m1 = plv_matrix(_epochs(tensor)).values
    m2 = plv_matrix(_epochs(scaled)).values
    np.testing.assert_allclose(m1, m2, atol=1e-9)


def test_plv_matrix_structure():
    rng = np.random.default_rng(4)
    m = plv_matrix(_epochs(rng.standard_normal((4, 6, 400)))).values
    np.testing.assert_allclose(m, m.T, atol=0)
    np.testing.assert_allclose(np.diag(m), 1.0, atol=0)
    assert m.min() >= 0.0 and m.max() <= 1.0


def test_plv_trial_permutation_invariance():
    rng = np.random.default_rng(5)
    tensor = rng.standard_normal((7, 3, 300))
    m1 = plv_matrix(_epochs(tensor)).values
    m2 = plv_matrix(_epochs(tensor[[4, 2, 6, 0, 1, 5, 3]])).values
    np.testing.assert_allclose(m1, m2, atol=1e-12)


def test_plv_trial_matrices_batched_matches_per_trial_loop():
    rng = np.random.default_rng(6)
    ep = _epochs(rng.standard_normal((5, 4, 301)))
    z = phase_factors(ep)
    want = np.stack([np.abs(zk @ zk.conj().T / ep.n_samples) for zk in z])
    np.testing.assert_allclose(plv_trial_matrices(ep), want, rtol=0,
                               atol=1e-12)


def test_plv_needs_samples():
    with pytest.raises(RangeError):
        plv_matrix(_epochs(np.zeros((2, 2, 1))))


# ---------------------------------------------------------------------------
# Edges

def _conn(values):
    return ConnectivityMatrix(np.asarray(values, dtype=float),
                              Montage.numbered(len(values)))


def test_strong_edges_empty_below_threshold():
    v = np.full((4, 4), 0.2)
    np.fill_diagonal(v, 1.0)
    assert strong_edges(_conn(v), 0.9) == []


def test_strong_edges_single_planted_pair():
    v = np.full((4, 4), 0.2)
    np.fill_diagonal(v, 1.0)
    v[1, 3] = v[3, 1] = 0.95
    assert strong_edges(_conn(v), 0.9) == [(1, 3, 0.95)]


def test_strong_edges_sorted_descending():
    v = np.eye(4)
    v[0, 1] = v[1, 0] = 0.92
    v[2, 3] = v[3, 2] = 0.97
    edges = strong_edges(_conn(v), 0.9)
    assert edges == [(2, 3, 0.97), (0, 1, 0.92)]


def test_edges_csv(tmp_path):
    path = tmp_path / "edges.csv"
    edges_to_csv([(0, 1, 0.95)], path, montage=Montage(SMALL_CHANNELS))
    assert path.read_text() == "src,dst,plv\nFp1,Fp2,0.950000\n"


# ---------------------------------------------------------------------------
# Ranking and selection

def test_rank_channels_dominant_pair_first():
    v = np.full((5, 5), 0.1)
    np.fill_diagonal(v, 1.0)
    v[2, 4] = v[4, 2] = 0.9
    ranking = rank_channels([_conn(v)])
    assert ranking.indices()[:2] == [2, 4]


def test_rank_channels_tie_break_by_index():
    v = np.full((4, 4), 0.5)
    np.fill_diagonal(v, 1.0)
    ranking = rank_channels([_conn(v)])
    assert ranking.indices() == [0, 1, 2, 3]


def test_rank_channels_scores_non_increasing():
    rng = np.random.default_rng(6)
    m = plv_matrix(_epochs(rng.standard_normal((5, 8, 400))))
    scores = [s for _, s in rank_channels([m]).order]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


@pytest.mark.parametrize("n_ch", [8, 64])
def test_rank_channels_matches_the_per_class_loop(n_ch):
    rng = np.random.default_rng(n_ch)
    tensor = rng.standard_normal((8, n_ch, 500)).astype(np.float32)
    conns = list(per_class_plv(_epochs(tensor, np.arange(8) % 4)).values())
    scores = np.zeros(n_ch)
    for c in conns:
        v = c.values.copy()
        np.fill_diagonal(v, -np.inf)
        scores += v.max(axis=1)
    scores /= len(conns)
    ranking = rank_channels(conns)
    assert ranking.indices() == np.lexsort((np.arange(n_ch), -scores)).tolist()
    np.testing.assert_array_equal([s for _, s in ranking.order],
                                  np.sort(scores)[::-1])


def test_rank_channels_montage_mismatch():
    with pytest.raises(ShapeError):
        rank_channels([_conn(np.eye(4)), _conn(np.eye(5))])
    with pytest.raises(ShapeError):
        rank_channels([])


def test_select_channels_prefix_property():
    rng = np.random.default_rng(7)
    m = plv_matrix(_epochs(rng.standard_normal((5, 8, 400))))
    ranking = rank_channels([m])
    k4 = select_channels(ranking, 4)
    k8 = select_channels(ranking, 8)
    assert set(k4) <= set(k8)
    assert len(k8) == 8
    with pytest.raises(RangeError):
        select_channels(ranking, 9)
    with pytest.raises(RangeError):
        select_channels(ranking, 0)


def test_ranking_csv(tmp_path):
    ranking = ChannelRanking([(1, 0.9), (0, 0.5)],
                             montage=Montage(SMALL_CHANNELS))
    path = tmp_path / "rank.csv"
    ranking.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "rank,channel_index,channel_name,score"
    assert lines[1] == "0,1,Fp2,0.900000"


def test_connectivity_csv(tmp_path):
    m = ConnectivityMatrix(np.eye(8), montage=Montage(SMALL_CHANNELS))
    path = tmp_path / "plv.csv"
    m.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "channel," + ",".join(SMALL_CHANNELS)
    assert len(lines) == 9


# ---------------------------------------------------------------------------
# End-to-end on the synthetic oracle

def test_planted_channels_rank_on_top(small_imagery):
    per_class = per_class_plv(small_imagery)
    assert sorted(per_class) == [0, 1, 2, 3]
    ranking = rank_channels(per_class.values())
    # every channel of the small montage is planted for some class, but each
    # class's own pair must dominate its class matrix
    m0 = per_class[0].values
    assert m0[0, 1] > 0.8          # Fp1-Fp2 coupled for class 0
    assert m0[0, 1] > m0[0, 2] + 0.3
    assert len(ranking.indices()) == 8


def test_full_coupling_planted_pair_plv(small_imagery):
    from vmidecode import synth_dataset, epoch_recording
    spec = small_spec(coupling=1.0, snr_db=20.0, n_trials_per_class=6)
    rec = synth_dataset(spec)
    imagery = epoch_recording(rec, "imagery", (500, 4500))
    per_class = per_class_plv(imagery)
    assert per_class[1].values[4, 5] >= 0.95  # O1-O2 for class 1
    edges = strong_edges(per_class[1], 0.9)
    assert any({i, j} == {4, 5} for i, j, _ in edges)


# ---------------------------------------------------------------------------
# Epochs without a montage

def test_montage_less_channel_names_follow_select(tmp_path):
    # select dropped the missing montage, so the CSVs named channels 3 and 5
    # ch0 and ch1 (and edges_to_csv wrote bare indices)
    rng = np.random.default_rng(0)
    labels = np.arange(8) % 2
    imagery, rest = (EpochSet(labels, rng.standard_normal((8, 6, 500)),
                              250, 500.0).select(channel_idx=[3, 5])
                     for _ in range(2))
    assert imagery.montage.channel_names == ("ch3", "ch5")
    per_class = per_class_plv(imagery)
    per_class[0].to_csv(tmp_path / "plv.csv")
    rank_channels(per_class.values()).to_csv(tmp_path / "rank.csv")
    edges_to_csv(strong_edges(per_class[0], 0.0), tmp_path / "edges.csv",
                 montage=per_class[0].montage)
    stat_map(imagery, rest, n_perm=16).to_csv(tmp_path / "stat.csv")

    def column(name, i):
        lines = (tmp_path / name).read_text().strip().split("\n")
        return [line.split(",")[i] for line in lines[1:]]
    assert (tmp_path / "plv.csv").read_text().startswith("channel,ch3,ch5\n")
    assert column("plv.csv", 0) == ["ch3", "ch5"]
    assert sorted(column("rank.csv", 2)) == ["ch3", "ch5"]
    assert column("edges.csv", 0) + column("edges.csv", 1) == ["ch3", "ch5"]
    assert column("stat.csv", 0) == ["ch3", "ch5"]
    save_epochs(imagery, tmp_path / "e.eegb")
    assert load_epochs(tmp_path / "e.eegb").montage.channel_names == (
        "ch3", "ch5")


def test_connect_stage_matrices_match_per_class_plv(small_imagery, tmp_path):
    got = harness.connect_stage(
        {"connectivity": {"threshold": 0.9}}, small_imagery,
        harness.emitter(tmp_path, []), plv_trial_matrices(small_imagery))
    want = per_class_plv(small_imagery)
    assert list(got) == list(want) == [0, 1, 2, 3]
    for c, cm in got.items():
        np.testing.assert_array_equal(cm.values, want[c].values)
        # rows of the one PLV pass equal a pass over the class alone
        alone = plv_matrix(small_imagery.select(
            trial_idx=np.nonzero(small_imagery.labels == c)[0]))
        np.testing.assert_array_equal(cm.values, alone.values)
