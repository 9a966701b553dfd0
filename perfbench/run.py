"""The vmidecode benchmark: one workload, or all three in turn.

    python3 perfbench/run.py --workload analysis-64ch --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a source checkout; it imports ``src/vmidecode``
and builds nothing. Every sample is a fresh ``worker.py`` process with BLAS
pinned to one thread, started one after another: a closed loop with one
client.

``--trace 0`` repeats the timed workload until ``--seconds`` have passed,
adds set-up-only processes until there are SETUP_SAMPLES set-up times, and
reports the end-to-end metrics of BENCHMARK.json as medians over samples.
``--trace 1`` runs the workload once untraced and once as the traced
replica, checks that both wrote identical outputs, and reports the
per-layer metrics.

Every metric is printed with its unit, median, quartiles and n, then every
check of the gate; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = HERE / ".out"

DEFAULT_SEED = 1        # the seed used while developing; 2026 is held out
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
METHODS = ("csp_lda", "cnn")
COUNTS = ("dsp.fft.mflop", "stats.perm_flips", "io.bytes")
# peak_rss_mb is printed but not in BENCHMARK.json: on cnn-64ch and
# report-8ch it moves with when the cyclic garbage collector frees dead
# networks, which differs from seed to seed by more than any allowed bound.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def code_digest() -> str:
    """Identity of the program and the benchmark; the checkout need not be
    a git repository."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*"), *HERE.glob("*.py")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def machine(seed: int, digest: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "code_sha256": digest, "seed": seed}


def run_worker(name: str, seed: int, mode: str, cwd: Path, deadline: float):
    """One sample in a fresh process; its JSON result, or None if it failed."""
    cwd.mkdir(parents=True)
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                           if p)
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": path}
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--mode", mode, "--src", str(SRC),
           "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        print(f"{mode} worker killed at the deadline", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{mode} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_as_stored(path: Path, record: dict) -> bool:
    """True when ``record`` matches the one stored for this program, or is
    the first; the store outlives the run so later runs are compared."""
    if path.exists():
        return json.loads(path.read_text()) == record
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return True


def same_outputs(reference: Path, replica: Path) -> bool:
    """Every file the replica wrote is byte-identical to the reference's."""
    files = [p for p in replica.rglob("*") if p.is_file()]
    return bool(files) and all(
        (reference / p.relative_to(replica)).is_file()
        and (reference / p.relative_to(replica)).read_bytes() == p.read_bytes()
        for p in files)


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def per_layer(w, base: dict, traced: dict) -> dict:
    """Every per-layer number of a traced run, keyed by metric name.

    Span ``<module>.<function>[.<qualifier>]`` gives the self time
    ``<module>.<function>_s[.<qualifier>]``. The classifier,
    cross-validation and manifest spans read 0 on a workload that never
    enters them. ``.kmin`` / ``.kmid`` / ``.kmax`` alias the workload's
    smallest, middle and largest channel count, so the same name exists on
    every workload.
    """
    d = {}
    for name, t in traced["self_times"].items():
        module, function, *qualifier = name.split(".")
        d[".".join([module, function + "_s", *qualifier])] = t
    d["io.save_s"] = (d.get("io.save_recording_s", 0.0)
                      + d.get("io.save_epochs_s", 0.0))
    d["io.load_s"] = d.get("io.load_recording_s", 0.0)
    d.setdefault("harness.write_manifest_s", 0.0)
    for k in w.channel_counts:
        for method in METHODS:
            d.setdefault(f"harness.cross_validate_s.{method}.k{k}", 0.0)
        for module in ("csp", "neural"):
            for function in ("fit", "predict_scores"):
                d.setdefault(f"{module}.{function}_s.k{k}", 0.0)
    d.update(traced["kernels"])
    d["harness.cpu_per_wall"] = (base["user_s"] + base["sys_s"]) / base["wall_s"]
    d["trace.uncovered_s"] = sum(t for n, t in traced["self_times"].items()
                                 if n.startswith("phase."))
    d["trace.overhead_s"] = traced["workload_s"] - base["wall_s"]
    for pos, k in zip(("kmin", "kmid", "kmax"), sorted(w.channel_counts)):
        for name in [n for n in d if n.endswith(f".k{k}")]:
            d[name[:-len(str(k)) - 1] + pos] = d[name]
        d[f"harness.cross_validate_s.{pos}"] = sum(
            d[f"harness.cross_validate_s.{m}.k{k}"] for m in METHODS)
    return d


def unit(name: str) -> str:
    if ".bytes" in name:
        return "B"
    if name.endswith("mflop"):
        return "Mflop"
    if name.endswith("perm_flips"):
        return "count"
    if name.endswith("cpu_per_wall"):
        return "ratio"
    return "s"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"],
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed (default 1; re-check claims on the "
                        "held-out seed 2026)")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "vmidecode" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC}/vmidecode not found",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (workloads.WORKLOADS if args.workload == "all"
             else [args.workload])
    return max(run_workload(workloads.WORKLOADS[n], args, spec)
               for n in names)


def run_workload(w, args, spec: dict) -> int:
    """Sample one workload, print its metrics and checks; the exit code."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    digest = code_digest()
    state = STATE_DIR / "state" / digest[:16]
    work = STATE_DIR / "work" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    env = machine(args.seed, digest)
    print(f"vmidecode benchmark: workload {w.name}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")

    ops = []      # (label, worker result or None, checks)

    def sample(mode, label):
        t0 = time.monotonic()
        r = run_worker(w.name, args.seed, mode, work / label, deadline)
        checks = dict(r.get("checks", {})) if r else {"worker_ran": False}
        if r and mode == "timed":
            checks["report_json_deterministic"] = same_as_stored(
                state / f"{w.name}-seed{args.seed}.json",
                {"report.json": r["report_sha256"]})
            env.update(r["env"])
        ops.append((label, r, checks))
        return r, time.monotonic() - t0

    try:
        metrics = {}
        if args.trace:
            base, _ = sample("timed", "untraced")
            traced, _ = sample("trace", "traced")
            detail = {}
            if base and traced:
                detail = per_layer(w, base, traced)
                checks = ops[-1][2]
                checks["replica_outputs_match"] = same_outputs(
                    work / "untraced" / workloads.OUT,
                    work / "traced" / workloads.OUT)
                counts = {n: v for n, v in detail.items()
                          if n in COUNTS or n.startswith("neural.conv0.bytes.k")}
                checks["computed_counts_stable"] = same_as_stored(
                    state / f"{w.name}.counts.json", counts)
            for name in sorted(detail):
                print(f"layer {name} = {detail[name]:.6g} {unit(name)}")
            wanted = spec["per_layer"]
            metrics = {m["name"]: {"value": detail[m["name"]],
                                   "unit": m["unit"]}
                       for m in wanted if m["name"] in detail}
        else:
            while True:
                r, took = sample("timed", f"timed{len(ops)}")
                left = deadline - time.monotonic()
                if (r is None or time.monotonic() - start >= args.seconds
                        or left < 2 * took):
                    break
            timed = [r for _, r, _ in ops if r]
            setups = len(timed)
            while timed and setups < SETUP_SAMPLES:
                r, took = sample("setup", f"setup{len(ops)}")
                if r is None or deadline - time.monotonic() < 2 * took:
                    break
                setups += 1
            wanted = spec["end_to_end"]
            gated = {m["name"] for m in wanted}
            samples = [r for _, r, _ in ops if r]
            values = {"wall_s": [r["wall_s"] for r in timed],
                      "setup_s": [r["setup_s"] for r in samples],
                      "peak_rss_mb": [r["peak_rss_mb"] for r in timed]}
            for name, v in values.items():
                if not v:
                    continue
                s = summarize(v)
                u = E2E_UNITS[name]
                if name in gated:
                    metrics[name] = {"value": s["median"], "unit": u}
                print(f"metric {name} = {s['median']:.6g} {u} (median; "
                      f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}; n={s['n']})"
                      + ("" if name in gated else "; not gated"))
        print("env " + json.dumps(env, sort_keys=True))
        failed = 0
        for label, _, checks in ops:
            failed += not all(checks.values())
            for name, ok in checks.items():
                print(f"check {label} {name}: {'PASS' if ok else 'FAIL'}")
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            print("missing metrics: " + ", ".join(missing))
        correct = failed == 0 and not missing
        print(f"gate: {'PASS' if correct else 'FAIL'} "
              f"({failed} failed of {len(ops)} attempted)")
        results = STATE_DIR / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(
             {"env": env, "metrics": metrics,
              "samples": [{"label": label, "result": r, "checks": checks}
                          for label, r, checks in ops]},
             indent=1, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
