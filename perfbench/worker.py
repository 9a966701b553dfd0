"""One benchmark sample in a fresh process; the last stdout line is JSON.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --src CHECKOUT/src --spawned MONOTONIC_SECONDS

run.py starts it in an empty directory with BLAS pinned to one thread.
Modes: ``setup`` makes the inputs only; ``timed`` also runs the workload
once and gates its outputs; ``trace`` runs the traced replica and the
kernel steps instead. ``--spawned`` is the parent's monotonic clock just
before the process was started, so set-up time includes interpreter start
and ``import vmidecode``.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import time

import workloads
from tracing import NullTracer, Tracer


def _cpu_s() -> tuple:
    """User and system CPU seconds of this process and its reaped children."""
    user = system = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        user += ru.ru_utime
        system += ru.ru_stime
    return user, system


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports it will use, by library file."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    out = {}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "blas_threads_active": _blas_threads()}


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    p.add_argument("--src", required=True)
    p.add_argument("--spawned", type=float, required=True)
    args = p.parse_args()
    w = workloads.WORKLOADS[args.workload]
    tr = (Tracer(f"{w.name}/seed{args.seed}") if args.mode == "trace"
          else NullTracer())

    with tr.span("phase.setup"):
        inputs = workloads.setup(w, args.seed, tr)
    out = {"setup_s": time.monotonic() - args.spawned}

    import vmidecode
    here = os.path.realpath(vmidecode.__file__)
    if not here.startswith(os.path.realpath(args.src) + os.sep):
        raise SystemExit(f"imported vmidecode from {here}, not {args.src}")

    if args.mode == "timed":
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        result = workloads.run(w, inputs)
        out["wall_s"] = time.perf_counter() - t0
        cpu1 = _cpu_s()
        out["user_s"] = cpu1[0] - cpu0[0]
        out["sys_s"] = cpu1[1] - cpu0[1]
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
        workloads.finish(w, inputs, result, tr)
        out["checks"] = workloads.check(w, result)
        out["report_sha256"] = _sha256(os.path.join(workloads.OUT,
                                                    "report.json"))
        out["env"] = environment()
    elif args.mode == "trace":
        import replica
        with tr.span("phase.workload"):
            result = replica.run(w, inputs, tr)
        with tr.span("phase.finish"):
            workloads.finish(w, inputs, result, tr, replica)
        imagery = (inputs["imagery"] if "imagery" in inputs
                   else result["imagery"])
        kernels, mflop = replica.fft_kernels(imagery)
        windows = vmidecode.slide_windows(imagery)
        layer_loop_bitwise = True
        for k in w.channel_counts:
            times, same = replica.layer_step(windows, k, args.seed)
            kernels.update(times)
            kernels[f"neural.conv0.bytes.k{k}"] = replica.conv0_bytes(k)
            layer_loop_bitwise &= same
        st = inputs["cfg"]["stats"]
        kernels["dsp.fft.mflop"] = mflop
        kernels["stats.perm_flips"] = replica.perm_flips(
            imagery.n_trials, len(tr.durations("stats.permutation_test")),
            st["n_perm"])
        kernels["io.bytes"] = sum(os.path.getsize(f) for f in
                                  glob.glob("**/*.eegb", recursive=True))
        out.update(
            workload_s=tr.durations("phase.workload")[0],
            self_times=tr.self_times(), kernels=kernels, spans=tr.spans,
            checks={"layer_loop_bitwise": layer_loop_bitwise})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
