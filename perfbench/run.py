"""sketchlearn benchmark: one workload per process, metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload elm-wide --seed 1 --seconds 55 --trace 0

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. The line before it is a detail
report: the machine, every named metric with its median, upper percentile
and sample count, quality figures, and any failed operation. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes per run, spread over the measuring time so that a short burst
# of load on the host moves few of them. Their median is setup_s.
SETUP_PROBES = 21


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_environment() -> None:
    """Settings numpy reads when it is first imported, so this runs before."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_nproc())
    # numpy asks for transparent huge pages on large arrays. Whether the host
    # grants them varies from process to process, and moved stream-update's
    # write time by up to 30% between runs; without them it moved by 2%.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def _import_program():
    """Import sketchlearn from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import sketchlearn
    except ImportError as exc:
        sys.exit(f"cannot import sketchlearn from {src}: {exc}")
    if not Path(sketchlearn.__file__).resolve().is_relative_to(src):
        sys.exit(f"sketchlearn was imported from {sketchlearn.__file__}, not {src}")


def _blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _thp_mode() -> str | None:
    """The host's transparent huge page mode, the bracketed word, if readable."""
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as fh:
            text = fh.read()
    except OSError:
        return None
    start, end = text.find("["), text.find("]")
    return text[start + 1 : end] if 0 <= start < end else text.strip()


def machine() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_runtime_threads()
    except OSError:
        threads = None
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "thp_enabled": _thp_mode(),
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
    }


def summarize(values: list[float]) -> dict:
    """Median and mean, plus the highest percentile with at least ten samples above it."""
    import numpy as np

    n = len(values)
    out = {"n": n, "median": statistics.median(values) if n else None,
           "mean": statistics.fmean(values) if n else None}
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = float(np.percentile(values, pct))
            break
    return out


def probe(workload: str, seed: int) -> None:
    """Import plus the cold first round at tiny scale; prints its time."""
    t0 = time.perf_counter()
    _import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    WORKLOADS[workload]("tiny", seed, Tracer()).run_round(0)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int) -> float:
    """One set-up probe in a fresh process; returns its time."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def per_layer(tracer, walls: dict[int, float]) -> dict:
    """Per-layer metrics of the traced rounds, as medians over rounds."""
    from tracing import SPAN_NAMES, self_times

    spans = tracer.spans
    own = self_times(spans)
    per_round = {r: defaultdict(float) for r in walls}
    values = defaultdict(list)
    for span, t in zip(spans, own):
        name, r, count, value = span[0], span[4], span[5], span[6]
        acc = per_round[r]
        acc[name + "_s"] += t
        acc[name + "_calls"] += count
        acc[name.split(".")[0] + ".self_s"] += t
        acc["spans"] += 1
        # SegTreeMatrix.__init__ fills the store through set_rows, so the
        # build's self time is its allocation only; this sums whole builds.
        parent = span[3]
        if name == "segtree.build" and (parent < 0 or spans[parent][0] != name):
            acc["segtree.build_total_s"] += span[2] - span[1]
        if value is not None:
            values[name].append(value)

    def med(key):
        return statistics.median(acc[key] for acc in per_round.values())

    metrics = {}
    for name in SPAN_NAMES:
        metrics[name + "_s"] = (med(name + "_s"), "s")
        metrics[name + "_calls"] = (med(name + "_calls"), "count")
    metrics["segtree.build_total_s"] = (med("segtree.build_total_s"), "s")
    build_mb = max(values["segtree.build"], default=0) / 2**20
    metrics["segtree.build_mb"] = (build_mb, "MB")
    ranks = values["modfkv.usable_rank"]
    metrics["modfkv.usable_rank"] = (statistics.median(ranks) if ranks else 0, "count")
    metrics["modfkv.reduced_calls"] = (sum(values["modfkv.modfkv"]), "count")
    for layer in ("segtree", "modfkv", "linalg", "elm"):
        shares = [100.0 * per_round[r][layer + ".self_s"] / w for r, w in walls.items()]
        metrics[layer + ".share_pct"] = (statistics.median(shares), "%")
    metrics["trace.spans_per_round"] = (med("spans"), "count")
    return metrics


def write_spans(tracer, workload: str, seed: int, scale: str) -> Path:
    from tracing import FIELDS

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    suffix = "" if scale == "full" else f"-{scale}"
    path = out_dir / f"spans-{workload}-seed{seed}{suffix}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "fields": FIELDS,
                   "spans": tracer.spans}, fh)
    return path


def run(args) -> dict:
    _import_program()
    setup = [measure_setup(args.workload, args.seed)]
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    wl = WORKLOADS[args.workload](args.scale, args.seed, tracer)
    # A first round at full size fills caches and lazy state; its operations
    # are checked and counted, its samples dropped.
    wl.run_round(0)
    wl.samples.clear()
    wl.quality.clear()

    # A traced run needs an untraced round and a traced one.
    min_rounds = max(wl.min_rounds, 2 if args.trace else 1)
    walls = {False: [], True: []}
    traced_walls = {}
    traced_samples = defaultdict(list)
    start = time.perf_counter()
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * elapsed / args.seconds))
        while len(setup) < due:
            setup.append(measure_setup(args.workload, args.seed))
        elapsed = time.perf_counter() - start
        done = walls[False] + walls[True]
        left = (SETUP_PROBES - len(setup)) * statistics.median(setup)
        if r >= min_rounds and elapsed + statistics.median(done) + left > args.seconds:
            break
        # In a traced run every other round is traced; the untraced ones
        # give the end-to-end figures and the tracing overhead.
        traced = bool(args.trace) and r % 2 == 1
        if traced:
            before = {k: len(v) for k, v in wl.samples.items()}
            tracer.round = r
            tracer.install()
        try:
            wall = wl.run_round(r)
        finally:
            tracer.uninstall()
        walls[traced].append(wall)
        if traced:
            traced_walls[r] = wall
            for key, values in wl.samples.items():
                cut = before.get(key, 0)
                traced_samples[key] += values[cut:]
                del values[cut:]
        r += 1
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args.workload, args.seed))
    measured_s = time.perf_counter() - start
    wl.finish()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {"setup_s": (statistics.median(setup), "s"),
           "peak_rss_mb": (rss_mb, "MB"),
           "round_s": (statistics.median(walls[False]), "s")}
    for key, value in wl.end_to_end(wl.samples).items():
        e2e[key] = (value, "s")

    named = {key: dict(unit="s", **summarize(v)) for key, v in sorted(wl.samples.items())}
    for key in ("updates_per_s", "draws_per_s"):
        if key in named:
            named[key]["unit"] = "1/s"
    named["setup_s"] = dict(unit="s", **summarize(setup))
    named["round_s"] = dict(unit="s", **summarize(walls[False]))
    detail = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "machine": machine(), "rounds": r,
        "measured_s": measured_s, "peak_rss_mb": rss_mb,
        "metrics": named, "quality": wl.quality_metrics(),
        "errors": wl.errors[:20],
    }

    if args.trace:
        metrics = per_layer(tracer, traced_walls)
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        traced_e2e = {"round_s": statistics.median(walls[True])}
        traced_e2e.update(wl.end_to_end(traced_samples))
        detail["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        detail["end_to_end_traced"] = traced_e2e
        detail["spans_file"] = str(write_spans(tracer, args.workload, args.seed,
                                               args.scale).relative_to(ROOT))
    else:
        metrics = e2e
    print(json.dumps({"detail": detail}))
    return {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("elm-wide", "lowrank-tall", "stream-update"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the benchmark's own tests")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    _pin_environment()
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
