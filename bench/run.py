"""mtmlab benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload eigen_survey --seed 1 --seconds 25 --trace 0

Runs whole passes over the workload's items for about ``--seconds`` seconds,
checks every item's outputs, and prints every metric by name followed by a
final line holding one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import os

# one process, no extra threads: pin the BLAS/OpenMP pools before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
REFERENCE_DIR = os.path.join(HERE, "reference")
SETUP_PROBES = 5
WORKLOAD_NAMES = ("stability_ref", "orbit_dense", "eigen_survey", "cli_snapshots")

END_TO_END_UNITS = {"wall_s": "s", "item_p50_s": "s", "item_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: import and generate inputs, then exit")
    ap.add_argument("--record-reference", action="store_true",
                    help="run one pass and store its outputs as the numerics reference")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# machine and settings
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy

    model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = _read(f"{d}/type")
        caches[f"L{_read(f'{d}/level')}{kind[0].lower() if kind != 'Unified' else ''}"] = \
            _read(f"{d}/size")
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "seed": seed,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def _process_threads() -> int:
    for ln in _read("/proc/self/status").splitlines():
        if ln.startswith("Threads:"):
            return int(ln.split()[1])
    return -1


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters that import mtmlab and build the inputs
# ---------------------------------------------------------------------------

def setup_probe(args) -> int:
    from workloads import WORKLOADS

    workdir = os.path.join(RUN_DIR, f"probe-{os.getpid()}")
    WORKLOADS[args.workload](args.seed, workdir)
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
        times.append(ready)
    return times


# ---------------------------------------------------------------------------
# numerics drift against the stored outputs of the reference commit
# ---------------------------------------------------------------------------

def _reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, seed: int, n_items: int):
    """Stored outputs for this seed, or None when there are none to compare."""
    try:
        with open(_reference_path(workload)) as fh:
            ref = json.load(fh).get(str(seed))
    except FileNotFoundError:
        return None
    return ref if ref is not None and len(ref) == n_items else None


def store_reference(workload: str, seed: int, items: list) -> None:
    path = _reference_path(workload)
    try:
        with open(path) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    ref[str(seed)] = items
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dict(sorted(ref.items(), key=lambda kv: int(kv[0]))), fh,
                  separators=(",", ":"))
        fh.write("\n")


def max_rel_dev(values: dict, ref: dict) -> float:
    """Largest normwise relative deviation over the named output arrays."""
    worst = 0.0
    for key, want in ref.items():
        got = values.get(key, [])
        if len(got) != len(want):
            return float("inf")
        scale = max((abs(w) for w in want), default=0.0)
        dev = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
        worst = max(worst, dev / scale if scale else dev)
    return worst


# ---------------------------------------------------------------------------
# the measuring loop
# ---------------------------------------------------------------------------

def run_pass(wl, workdir: str, tracer=None) -> tuple[list[float], list]:
    """Time every item once; tracing, when given, covers only the items."""
    restore = tracing.install(tracer) if tracer is not None else None
    durations, outputs = [], []
    try:
        for i in range(len(wl.items)):
            d = os.path.join(workdir, f"item{i}")
            os.makedirs(d)
            if tracer is not None:
                tracer.item = i
                root = tracer.open("bench.item")
            t0 = time.perf_counter()
            try:
                out, err = wl.run(i, d), None
            except Exception as exc:  # the item boundary: record it and go on
                out, err = None, f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            finally:
                durations.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.close(root)
            outputs.append((out, err))
    finally:
        if restore is not None:
            restore()
    return durations, outputs


def check_pass(wl, workdir: str, outputs: list) -> list:
    """Gate every item of a pass; returns (failures, values, digest or None) per item."""
    checked = []
    for i, (out, err) in enumerate(outputs):
        d = os.path.join(workdir, f"item{i}")
        if err is not None:
            checked.append(([err], {}, ""))
        else:
            try:
                checked.append(wl.check(i, out, d))
            except Exception as exc:  # a gate that cannot read its outputs fails
                checked.append(([f"gate raised {type(exc).__name__}: {exc}"], {}, ""))
        shutil.rmtree(d, ignore_errors=True)
    return checked


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 items beyond it.

    Below 20 items that percentile would lie under the median, so the
    maximum is reported instead, with percentile 100.
    """
    xs = sorted(durations)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mtmlab", "__init__.py")):
        print(f"error: mtmlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)

    from workloads import WORKLOADS

    setup_times = [] if args.record_reference else measure_setup(args)
    workdir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    wl = WORKLOADS[args.workload](args.seed, os.path.join(workdir, "inputs"))

    if args.record_reference:
        _, outputs = run_pass(wl, workdir)
        checked = check_pass(wl, workdir, outputs)
        shutil.rmtree(workdir, ignore_errors=True)
        bad = [f for fails, _, _ in checked for f in fails]
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        store_reference(args.workload, args.seed,
                        [{"values": v, "digest": dg} for _, v, dg in checked])
        print(f"stored reference for {args.workload} seed {args.seed}")
        return 0

    reference = load_reference(args.workload, args.seed, len(wl.items))
    tracer = tracing.Tracer() if args.trace else None
    passes = []           # (traced, item durations)
    attempted = failed = 0
    failures: list[str] = []
    identical, worst_dev = True, 0.0
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        durations, outputs = run_pass(wl, workdir, tracer if traced else None)
        passes.append((traced, durations))
        for i, (fails, values, digest) in enumerate(check_pass(wl, workdir, outputs)):
            attempted += 1
            if fails:
                failed += 1
                failures.extend(f"item {i}: {f}" for f in fails)
            elif reference is not None:
                ref = reference[i]
                identical &= digest == ref["digest"] and values == ref["values"]
                worst_dev = max(worst_dev, max_rel_dev(values, ref["values"]))
        elapsed = time.perf_counter() - t_start
        if (len(passes) >= (2 if tracer else 1)
                and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
            break
    shutil.rmtree(workdir, ignore_errors=True)

    untraced = [d for t, d in passes if not t]
    walls = [sum(d) for d in untraced]
    items = [x for d in untraced for x in d]
    tail_value, tail_pct, tail_n = tail(items)
    report = {
        "workload": args.workload,
        "machine": machine_info(args.seed),
        "threads_in_process": _process_threads(),
        "passes": len(passes),
        "items_per_pass": len(wl.items),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "item_tail_percentile": tail_pct,
        "item_tail_samples": tail_n,
        "setup_samples_s": setup_times,
        "numerics.bit_identical": None if reference is None else int(identical),
        "numerics.max_rel_dev": None if reference is None else worst_dev,
    }
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "item_p50_s": statistics.median(items),
            "item_tail_s": tail_value,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        traced_walls = [sum(d) for t, d in passes if t]
        metrics = tracing.layer_metrics(tracer, traced_walls, walls)
        numerics = (-1.0, -1.0) if reference is None else (float(identical), worst_dev)
        metrics["numerics.bit_identical"], metrics["numerics.max_rel_dev"] = numerics
        overhead = abs(metrics["trace.overhead_frac"])
        checks = {
            "dominant_layer": (bool(wl.shares_ok(metrics)), wl.dominant),
            "self_sum": (abs(metrics["trace.self_sum_frac"] - 1.0) <= max(overhead, 0.02),
                         "per-layer self times sum to the traced wall within the overhead"),
        }
        metrics["trace.dominant_ok"] = float(checks["dominant_layer"][0])
        metrics["trace.self_sum_ok"] = float(checks["self_sum"][0])
        report["trace_checks"] = {k: {"ok": ok, "rule": rule} for k, (ok, rule) in checks.items()}
        units = {k: tracing.unit_of(k) for k in metrics}
        os.makedirs(RUN_DIR, exist_ok=True)
        spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)

    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps(report, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
