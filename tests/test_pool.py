"""The shared thread pool: pooled stages give the same bytes at any worker
count, raise the earliest item's error and leave no thread running."""

import sys
import threading
import time

import numpy as np
import pytest

from vmidecode import (EegRecording, EpochSet, Montage, band_power, pool,
                       preprocess_recording, stat_map, synth_dataset)
from vmidecode.connectivity import plv_trial_matrices
from vmidecode.errors import DegenerateInputError, RangeError

from conftest import small_spec


def _epochs(n_trials=7, n_ch=6, n_samples=300, seed=0):
    rng = np.random.default_rng(seed)
    return EpochSet(np.arange(n_trials) % 2,
                    rng.standard_normal((n_trials, n_ch, n_samples))
                    .astype(np.float32), 250, 500.0)


def _recording():
    rng = np.random.default_rng(1)
    return EegRecording(Montage.numbered(5), 500,
                        rng.standard_normal((5, 4001)).astype(np.float32),
                        [(0, 0), (2000, 1)])


def _stat_values(m):
    return np.stack([m.t_values, m.p_values])


STAGES = {
    "synth_dataset": lambda: synth_dataset(
        small_spec(n_trials_per_class=2)).data,
    "preprocess_recording": lambda: preprocess_recording(_recording()).data,
    "plv_trial_matrices": lambda: plv_trial_matrices(_epochs()),
    "band_power": lambda: band_power(_epochs(), (0.5, 13.0)),
    "stat_map": lambda: _stat_values(
        stat_map(_epochs(), _epochs(seed=1), n_perm=500, seed=3)),
}


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(pool, "worker_count",
                        lambda n_tasks: min(workers, n_tasks))


@pytest.mark.parametrize("stage", STAGES)
def test_pooled_stage_gives_the_same_bytes_at_1_2_and_3_workers(
        stage, monkeypatch):
    # the workers write disjoint rows of shared arrays; more threads than
    # CPUs and frequent switches would show a write to a neighbour's rows
    threads = threading.enumerate()
    blobs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            _force_workers(monkeypatch, workers)
            out = STAGES[stage]()
            assert threading.enumerate() == threads
            blobs.append((out.dtype, out.shape, out.tobytes()))
    finally:
        sys.setswitchinterval(interval)
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("stage", STAGES)
def test_one_row_blocks_give_the_same_bytes_at_1_2_and_3_workers(
        stage, monkeypatch):
    want = STAGES[stage]()
    monkeypatch.setattr(pool, "BLOCK_BYTES", 1)
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        out = STAGES[stage]()
        assert (out.dtype, out.shape) == (want.dtype, want.shape)
        assert out.tobytes() == want.tobytes()


def test_stat_map_raises_the_earliest_non_finite_channel(monkeypatch):
    _force_workers(monkeypatch, 2)
    imagery = _epochs()
    imagery.tensor[2, 5, 10] = np.nan
    imagery.tensor[4, 3, 10] = np.nan
    threads = threading.enumerate()
    with pytest.raises(DegenerateInputError, match="^stat_map channel ch3 "):
        stat_map(imagery, _epochs(seed=1), n_perm=500)
    assert threading.enumerate() == threads


def _fail_first_item_last(i):
    if i == 0:
        time.sleep(0.3)
    raise RangeError(f"item {i}")


def test_ordered_map_keeps_item_order_and_the_earliest_error(monkeypatch):
    _force_workers(monkeypatch, 2)
    threads = threading.enumerate()
    assert pool.ordered_map(lambda i: i * i, range(7),
                            key=lambda i: -i) == [i * i for i in range(7)]
    with pytest.raises(RangeError, match="^item 0$"):
        pool.ordered_map(_fail_first_item_last, range(4))
    assert threading.enumerate() == threads


@pytest.mark.parametrize("n_rows", [0, 1, 2, 5])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_row_blocks_cover_every_row_once_in_order(n_rows, workers,
                                                  monkeypatch):
    _force_workers(monkeypatch, workers)
    blocks = pool.row_blocks(n_rows)
    assert len(blocks) == max(1, min(workers, n_rows))
    assert [r for b in blocks for r in range(n_rows)[b]] == list(range(n_rows))


@pytest.mark.parametrize("n_rows", [0, 1, 5, 64])
@pytest.mark.parametrize("row_bytes", [0, 1, 3 << 20, 5 << 20])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_row_blocks_of_several_rows_fit_the_byte_budget(n_rows, row_bytes,
                                                        workers, monkeypatch):
    _force_workers(monkeypatch, workers)
    blocks = pool.row_blocks(n_rows, row_bytes)
    sizes = [len(range(n_rows)[b]) for b in blocks]
    assert [r for b in blocks for r in range(n_rows)[b]] == list(range(n_rows))
    assert len(blocks) >= max(1, min(workers, n_rows))
    assert all(size == 1 or size * row_bytes <= pool.BLOCK_BYTES
               for size in sizes)


def test_blas_controls_are_listed_once(monkeypatch):
    reads = []

    def counting_open(path, *args, **kwargs):
        reads.append(path)
        return open(path, *args, **kwargs)

    pool._blas_controls.cache_clear()
    monkeypatch.setattr(pool, "open", counting_open, raising=False)
    for _ in range(2):
        with pool.one_blas_thread():
            pass
    assert reads == ["/proc/self/maps"]
