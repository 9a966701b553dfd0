"""The thread pool of every stage whose items (trials, channels, blocks of
rows, CV tasks) are independent; the items spend their time in numpy and
OpenBLAS calls that release the GIL. Blocks of rows are bounded in bytes,
so malloc reuses their temporaries instead of mapping zero-filled pages anew
and one thread's GIL-holding calls overlap another's copies."""

import ctypes
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

BLOCK_BYTES = 4 << 20  # the largest temporary one block of rows may need


def worker_count(n_tasks: int) -> int:
    """One worker per CPU this process may run on, and no idle ones; one
    (the calling thread) where os.sched_getaffinity is missing."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.lru_cache(maxsize=1)
def _blas_controls(n_modules: int) -> tuple:
    """(set, get) thread-count functions of each OpenBLAS in this process,
    listed again only when n_modules, len(sys.modules), has changed: a BLAS
    is loaded with the extension module that links it, so an import after
    the last listing (scipy.linalg, say) may have brought one more."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f
                     if "openblas" in line.lower()}
    except OSError:
        paths = set()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((n for n in _BLAS_SET_THREADS if hasattr(lib, n)), None)
        if name is not None:
            set_threads = getattr(lib, name)
            get_threads = getattr(lib, name.replace("set_num", "get_num"))
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.restype = ctypes.c_int
            controls.append((set_threads, get_threads))
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Cap every OpenBLAS loaded in this process at one thread, so pool
    threads do not oversubscribe the CPUs, and restore each one's previous
    count on exit; a no-op where none is found."""
    restore = [(set_threads, get()) for set_threads, get in
               _blas_controls(len(sys.modules))]
    for set_threads, _ in restore:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in restore:
            set_threads(count)


def ordered_map(fn, items, key=None) -> list:
    """[fn(item) for item in items] on worker_count(len(items)) threads of
    this process, submitted in key order if given, every OpenBLAS capped at
    one thread; with one worker, in the calling thread. Results are read in
    item order, so the error raised is the earliest failing item's,
    whichever finished first; the items not yet started are dropped. No
    thread outlives it."""
    items = list(items)
    workers = worker_count(len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    order = sorted(range(len(items)), key=key and (lambda i: key(items[i])))
    with one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        futures = {i: pool.submit(fn, items[i]) for i in order}
        try:
            return [futures[i].result() for i in range(len(items))]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def row_blocks(n_rows: int, row_bytes: int = 0) -> list:
    """range(n_rows) as contiguous slices in order, at least one per worker;
    a block of more than one row needs at most BLOCK_BYTES when each row's
    largest temporary takes row_bytes."""
    per_block = max(1, BLOCK_BYTES // row_bytes if row_bytes else n_rows)
    k = max(1, worker_count(n_rows), -(-n_rows // per_block))
    return [slice(i * n_rows // k, (i + 1) * n_rows // k) for i in range(k)]
