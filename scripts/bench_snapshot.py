#!/usr/bin/env python3
"""Layer timings of the sampling store, written as one labelled snapshot.

Needs no data files: every input is a seeded Gaussian matrix. For each
shape it times the store build, the store filled as ``build_design`` fills
it (``zeros``, then ``set_rows`` in ``elm.DEFAULT_BLOCK``-row blocks, then
the first read), a P=256 row draw, 256 in-row column draws, a whole P=256
sketch draw (``draw_samples``) for the norm and the uniform strategy, 2000
entry updates followed by the read that refreshes them, and single updates
each followed by a read (the mean per pair over 100 pairs).
At the 2048 x 4096 shape it also times, for P in 50, 100 and 200 and on
one seeded norm draw per P, the rest of the sketch stage by stage: the row
sketch S (``build_s``), the P x P core W read off it (``build_w``), W's
SVD (``svd_dense``), the lift of its top 10 triplets (``reconstruct``) and
the rank-10 pseudo-inverse of the lifted factors (``truncated_pinv``). The
lift is also split into its three steps, each timed on the previous one's
output: ``S^T u'`` over the top singular values, the QR of that basis, and
the one full pass ``X @ v``.
In a process of its own, each ``EVAL_SHAPES`` entry times ``evaluate``
of one fixed seeded model (10 classes) on 1000 seeded test rows: at
d=64, M=10000 (the timing-ordering criterion's shape) and at M=1024 (the
elm-wide workload's width). That model's map and inputs are nonnegative,
so ``evaluate`` scores through the folded head and featurizes nothing;
``evaluate_mixed`` times it with a seeded map of mixed-sign weights and
offsets, the featurized path. The same process times ``build_design`` of
the model's feature map on ``DESIGN_ROWS`` seeded rows, with and without
the tree, ``train`` of the output weights from a rank-10 uniform sketch
(P=``TRAIN_P``) of that design, and ``featurize_batch`` of those rows
under the mixed-sign map, the one timing of the ReLU's clamping pass
(every workload's map and inputs are nonnegative, so its ReLU pass is
skipped).
Each ``POINTS`` entry is one whole bench point, ``run_experiment`` of a
one-point spec in a process of its own, with the median and minimum of
each stage field of its record (featurize, tree build, factorize, solve,
total) and its seeded accuracy: the timing-ordering criterion's point
(D=2000, M=10000, K=10, P=100) for norm and uniform at ``REPEATS`` and for
exact once, with no warm-up (its SVD takes about 10 s), and a
``sweep-samples`` matrix point (400 x 300, K=5, P=50) for all three
strategies at ``REPEATS``.
Every repeat of a draw layer draws fresh rows, as a workload does; the
column draws get theirs from an untimed row draw. Each layer gives the
median and the minimum over the repeats, taken after one untimed warm-up.
Each shape runs in its own fresh process, whose peak RSS (the imports
included) is recorded once per shape. A machine block records the cores,
numpy, its BLAS and the BLAS thread settings.

    python3 scripts/bench_snapshot.py --label change --out BENCH_21.json
    python3 scripts/bench_snapshot.py --src ../parent/src --label parent \\
        --out BENCH_21.json

The snapshot is stored under its label in the output file; other labels
already there are kept, so one file can hold a before/after pair.
``--src`` needs a tree whose ``run_experiment`` returns a list of records;
for an older tree, run that tree's own copy of this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# 2^10, 2^14 and 2^18 rows at 64 columns, then the stream-update shape.
SHAPES = ((2**10, 64), (2**14, 64), (2**18, 64), (2048, 4096))
DRAWS = 256
UPDATES = 2000
PAIRS = 100
REPEATS = 7
# The sketch stages after the draw run at the stream-update shape only.
CORE_SHAPE = (2048, 4096)
CORE_P = (50, 100, 200)
LIFT_K = 10
# (test rows, input width d, features M) for the evaluate layer.
EVAL_SHAPES = ((1000, 64, 10000), (1000, 64, 1024))
EVAL_CLASSES = 10
EVAL_REPEATS = 15
# Training rows of the design layers beside evaluate (elm-wide's count).
DESIGN_ROWS = 2000
# Samples of the sketch whose pseudo-inverse the train layer applies.
TRAIN_P = 50
STAGES = ("featurize_s", "tree_build_s", "factorize_s", "solve_s", "total_s")
_CRIT6 = dict(kind="compare-sampling", m=(10_000,), k=(10,), p=(100,), subsample=2000)
_MATRIX = dict(kind="sweep-samples", k=(5,), p=(50,))
# Point name -> (ExperimentSpec fields, timed repeats). A point timed once
# gets no warm-up: the exact criterion-6 SVD alone takes about 10 s.
POINTS = {
    f"{name}_{s}": (
        dict(fields, strategies=(s,)),
        1 if (name, s) == ("criterion6", "exact") else REPEATS,
    )
    for name, fields in (("criterion6", _CRIT6), ("matrix", _MATRIX))
    for s in ("exact", "norm", "uniform")
}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        # Unset means the BLAS default, one thread per core for OpenBLAS.
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summary(times: list[float]) -> dict:
    return {"median_s": statistics.median(times), "min_s": min(times), "repeats": len(times)}


def timed(fn, repeats: int, fresh=None) -> dict:
    """Median and min of ``repeats`` timed calls, after one untimed warm-up.

    With ``fresh``, each call is ``fn(fresh())``, and ``fresh`` is untimed.
    """
    times = []
    for rep in range(repeats + 1):
        args = (fresh(),) if fresh else ()
        t0 = time.perf_counter()
        fn(*args)
        if rep:  # call 0 is the warm-up
            times.append(time.perf_counter() - t0)
    return summary(times)


def measure(rows: int, cols: int, repeats: int) -> dict:
    import numpy as np
    from sketchlearn.elm import DEFAULT_BLOCK
    from sketchlearn.linalg import svd_dense, truncated_pinv
    from sketchlearn.modfkv import (
        SketchConfig, build_s, build_w, draw_samples, reconstruct,
    )
    from sketchlearn.segtree import SegTreeMatrix

    rng = np.random.default_rng([rows, cols])
    x = rng.standard_normal((rows, cols))
    out = [("store_build", timed(lambda: SegTreeMatrix(x), repeats))]

    def fill():
        store = SegTreeMatrix.zeros(rows, cols)
        for start in range(0, rows, DEFAULT_BLOCK):
            store.set_rows(start, x[start : start + DEFAULT_BLOCK])
        store.fro_norm_sq()

    out.append(("store_fill", timed(fill, repeats)))
    store = SegTreeMatrix(x)
    out.append(("sample_rows", timed(lambda: store.sample_rows(rng, DRAWS), repeats)))
    out.append(("sample_cols_in_rows",
                timed(lambda rows: store.sample_cols_in_rows(rows, rng), repeats,
                      fresh=lambda: store.sample_rows(rng, DRAWS))))
    for strategy in ("norm", "uniform"):
        cfg = SketchConfig(k=10, p=DRAWS, strategy=strategy)
        out.append((f"draw_samples_{strategy}",
                    timed(lambda: draw_samples(store, cfg, rng), repeats)))
    if (rows, cols) == CORE_SHAPE:
        for p in CORE_P:
            d = draw_samples(store, SketchConfig(k=LIFT_K, p=p),
                             np.random.default_rng([rows, cols, p]))
            s = build_s(store, d)
            w = build_w(s, d)
            w_svd = svd_dense(w)
            lifted = reconstruct(store, s, w_svd, LIFT_K)
            out.append((f"core_svd_p{p}", timed(lambda: svd_dense(w), repeats)))
            out.append((f"build_s_p{p}", timed(lambda: build_s(store, d), repeats)))
            out.append((f"build_w_p{p}", timed(lambda: build_w(s, d), repeats)))
            out.append((f"lift_p{p}",
                        timed(lambda: reconstruct(store, s, w_svd, LIFT_K), repeats)))
            # The lift's steps as reconstruct runs them.
            u, sigma = w_svd.u[:, :LIFT_K], w_svd.sigma[:LIFT_K]
            v = (s.T @ u) / sigma
            q = np.linalg.qr(v)[0]
            out.append((f"lift_stu_p{p}", timed(lambda: (s.T @ u) / sigma, repeats)))
            out.append((f"lift_qr_p{p}", timed(lambda: np.linalg.qr(v), repeats)))
            out.append((f"lift_xv_p{p}", timed(lambda: store.dense @ q, repeats)))
            out.append((f"pinv_p{p}",
                        timed(lambda: truncated_pinv(lifted, LIFT_K), repeats)))
    # The first read after the updates refreshes whatever they left pending.
    upd, refresh = [], []
    for rep in range(repeats + 1):
        ii = rng.integers(0, rows, UPDATES).tolist()
        jj = rng.integers(0, cols, UPDATES).tolist()
        vv = rng.standard_normal(UPDATES).tolist()
        t0 = time.perf_counter()
        for i, j, v in zip(ii, jj, vv):
            store.update(i, j, v)
        t1 = time.perf_counter()
        store.fro_norm_sq()
        t2 = time.perf_counter()
        if rep:  # round 0 is the warm-up
            upd.append(t1 - t0)
            refresh.append(t2 - t1)
    out.append(("updates", summary(upd)))
    out.append(("refresh", summary(refresh)))
    out.append(("updates_plus_refresh", summary([a + b for a, b in zip(upd, refresh)])))
    ii = rng.integers(0, rows, PAIRS).tolist()
    jj = rng.integers(0, cols, PAIRS).tolist()

    def pairs():
        for i, j in zip(ii, jj):
            store.update(i, j, 1.5)
            store.fro_norm_sq()

    stats = timed(pairs, repeats)
    out.append(("update_then_read", {
        "median_s": stats["median_s"] / PAIRS, "min_s": stats["min_s"] / PAIRS,
        "repeats": stats["repeats"]}))
    return {"rows": rows, "cols": cols, "peak_rss_mb": peak_rss_mb(),
            "layers": dict(out)}


def measure_evaluate(rows: int, d: int, m: int, repeats: int) -> dict:
    import numpy as np
    from sketchlearn.elm import (
        Dataset, ElmModel, FeatureMap, build_design, evaluate, featurize_batch,
        init_features, train,
    )
    from sketchlearn.linalg import truncated_pinv
    from sketchlearn.modfkv import SketchConfig, modfkv

    rng = np.random.default_rng([rows, d, m])
    model = ElmModel(features=init_features(d, m, rng),
                     w=rng.standard_normal((m, EVAL_CLASSES)))
    ds = Dataset(inputs=rng.random((rows, d)),
                 labels=rng.integers(0, EVAL_CLASSES, rows))
    train_ds = Dataset(inputs=rng.random((DESIGN_ROWS, d)),
                       labels=rng.integers(0, EVAL_CLASSES, DESIGN_ROWS))
    mixed = FeatureMap(a=rng.standard_normal((m, d)), b=rng.standard_normal(m))
    fm = model.features
    cfg = SketchConfig(k=LIFT_K, p=TRAIN_P, strategy="uniform")
    design = build_design(fm, train_ds, with_tree=False).design
    pinv = truncated_pinv(modfkv(design, cfg), LIFT_K)
    del design
    mixed_model = ElmModel(features=mixed, w=model.w)
    layers = {
        "evaluate": timed(lambda: evaluate(model, ds), repeats),
        "evaluate_mixed": timed(lambda: evaluate(mixed_model, ds), repeats),
        "train": timed(lambda: train(fm, train_ds, pinv, EVAL_CLASSES), repeats),
        "build_design_tree": timed(lambda: build_design(fm, train_ds), repeats),
        "build_design_no_tree":
            timed(lambda: build_design(fm, train_ds, with_tree=False), repeats),
        "featurize_mixed":
            timed(lambda: featurize_batch(mixed, train_ds.inputs), repeats),
    }
    return {"rows": rows, "d": d, "m": m, "peak_rss_mb": peak_rss_mb(), "layers": layers}


def measure_point(name: str) -> dict:
    from sketchlearn.bench import ExperimentSpec, run_experiment

    fields, repeats = POINTS[name]
    spec = ExperimentSpec(**fields)
    warmups = 1 if repeats > 1 else 0
    records = []
    for _ in range(warmups + repeats):
        (rec,) = run_experiment(spec)
        if rec.error:
            raise RuntimeError(f"point {name} failed: {rec.error}")
        records.append(rec)
    stages = {f: summary([getattr(r, f) for r in records[warmups:]]) for f in STAGES}
    return {"point": name, "accuracy": rec.accuracy, "peak_rss_mb": peak_rss_mb(),
            "stages": stages}


def measure_fresh(flag: str, arg: str, src: Path) -> dict:
    """Run one ``--shape``/``--eval-shape``/``--point`` measurement in a new interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--src", str(src), flag, arg],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory to import sketchlearn from (default: this checkout's src)")
    ap.add_argument("--label", help="key of this snapshot in the output file")
    ap.add_argument("--out", type=Path, help="JSON file to add the snapshot to")
    ap.add_argument("--shape", help="measure one ROWSxCOLS shape and print its JSON")
    ap.add_argument("--eval-shape",
                    help="measure evaluate at one ROWSxDxM shape and print its JSON")
    ap.add_argument("--point", choices=POINTS,
                    help="measure one end-to-end bench point and print its JSON")
    args = ap.parse_args()
    src = args.src.resolve()
    if args.shape or args.eval_shape or args.point:
        sys.path.insert(0, str(src))
        if args.shape:
            print(json.dumps(measure(*map(int, args.shape.split("x")), REPEATS)))
        elif args.eval_shape:
            dims = map(int, args.eval_shape.split("x"))
            print(json.dumps(measure_evaluate(*dims, EVAL_REPEATS)))
        else:
            print(json.dumps(measure_point(args.point)))
        return
    if not (args.label and args.out):
        ap.error("--label and --out are required")

    shapes = [measure_fresh("--shape", "x".join(map(str, s)), src) for s in SHAPES]
    evals = [measure_fresh("--eval-shape", "x".join(map(str, s)), src) for s in EVAL_SHAPES]
    points = [measure_fresh("--point", name, src) for name in POINTS]
    snapshot = {
        "machine": machine(),
        "updates": UPDATES,
        "draws": DRAWS,
        "pairs": PAIRS,
        "core_p": list(CORE_P),
        "lift_k": LIFT_K,
        "shapes": shapes,
        "evaluate": evals,
        "points": points,
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("snapshots", {})[args.label] = snapshot
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for shape in shapes + evals + points:
        dims = "x".join(str(shape[key]) for key in ("rows", "cols", "d", "m") if key in shape)
        print(f"{shape.get('point', dims)}: peak RSS {shape['peak_rss_mb']:.1f} MB")
        for name, e in shape.get("layers", shape.get("stages")).items():
            print(f"  {name:>22} median {e['median_s'] * 1e3:9.3f} ms"
                  f"  min {e['min_s'] * 1e3:9.3f} ms")


if __name__ == "__main__":
    main()
