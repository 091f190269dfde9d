"""The benchmark's workloads: inputs made from a seed, timed rounds, checks.

Every workload generates its own inputs with numpy (not
``sketchlearn.datasets``), so a change to the program cannot change what is
measured. It calls sketchlearn only through public functions, looked up on
their modules at call time so that the tracer's replacements are seen.

A round is the workload's unit of work. ``run_round`` returns the round's
wall time, counted over the timed calls only (checks are left out), and
appends per-call samples to ``self.samples`` under the metric names of the
benchmark's doc. Each call, and each check, is one attempted operation;
an exception or a failed check makes it a failed one.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


def _mod(name: str):
    return sys.modules[f"sketchlearn.{name}"]


def _seed_int(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class Workload:
    name = ""
    # End-to-end metric -> the samples behind it.
    E2E: dict[str, str] = {}
    # Rounds that always run, whatever --seconds says. Quality figures are
    # taken from these rounds only, so they depend on the seed alone.
    min_rounds = 1

    def __init__(self, scale: str, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self.cfg = self.SCALES[scale]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.quality: dict[str, list[float]] = defaultdict(list)

    def _check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def _fail(self, what: str, exc: Exception, ops: int = 1) -> None:
        self.attempted += ops
        self.failed += ops
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def finish(self) -> None:
        """Checks made once after the last round."""

    def end_to_end(self, samples) -> dict[str, float]:
        """norm_s, uniform_s and store_s: the median of their samples."""
        return {key: statistics.median(samples[name]) for key, name in self.E2E.items()}

    def quality_metrics(self) -> dict[str, float]:
        return {}


class ElmWide(Workload):
    """The paper's pipeline at one point: exact vs norm vs uniform."""

    name = "elm-wide"
    min_rounds = 3
    E2E = {"norm_s": "pipeline_s.norm", "uniform_s": "pipeline_s.uniform",
           "store_s": "design_s.norm"}
    SCALES = {
        "full": dict(d=64, classes=10, spread=0.3, n_train=2000, n_test=1000,
                     m=1024, k=10, p=50, sketches=4,
                     floor={"norm": 0.5, "uniform": 0.5, "exact": 0.9}),
        "tiny": dict(d=16, classes=4, spread=0.15, n_train=200, n_test=100,
                     m=160, k=5, p=16, sketches=2,
                     floor={"norm": 0.5, "uniform": 0.5, "exact": 0.8}),
    }
    STRATEGIES = ("norm", "uniform", "exact")
    SKETCHES = ("norm", "uniform")

    def __init__(self, scale: str, seed: int, tracer):
        super().__init__(scale, seed, tracer)
        c = self.cfg
        rng = np.random.default_rng([seed, 0])
        centers = 0.2 + 0.6 * rng.random((c["classes"], c["d"]))
        n = c["n_train"] + c["n_test"]
        labels = rng.integers(0, c["classes"], size=n)
        inputs = np.clip(
            centers[labels] + c["spread"] * rng.standard_normal((n, c["d"])), 0.0, 1.0
        )
        elm = _mod("elm")
        cut = c["n_train"]
        self.train = elm.Dataset(inputs[:cut], labels[:cut])
        self.test = elm.Dataset(inputs[cut:], labels[cut:])

    def run_round(self, r: int) -> float:
        # The Jacobi core's time varies from sketch to sketch, from 0.17 s to
        # 0.5 s in two clusters, so a round runs several sketch pipelines per
        # exact one: a run's means then rest on about 55 sketches each rather
        # than 14.
        wall = 0.0
        for i in range(self.cfg["sketches"]):
            for strategy in self.STRATEGIES if i == 0 else self.SKETCHES:
                wall += self._pipeline(r, i, strategy)
        return wall

    def _pipeline(self, r: int, i: int, strategy: str) -> float:
        """One pipeline, featurize to evaluate; returns its time (0 if it failed)."""
        elm, linalg, modfkv = _mod("elm"), _mod("linalg"), _mod("modfkv")
        c = self.cfg
        try:
            t0 = clock()
            fm = elm.init_features(
                c["d"], c["m"], np.random.default_rng([self.seed, 1, r, i])
            )
            t1 = clock()
            dr = elm.build_design(fm, self.train, with_tree=strategy == "norm")
            t2 = clock()
            if strategy == "exact":
                pinv = linalg.truncated_pinv(linalg.svd_dense(dr.design), c["k"])
            else:
                cfg = modfkv.SketchConfig(
                    k=c["k"], p=c["p"], strategy=strategy,
                    seed=_seed_int(self.seed, 2, r, i),
                )
                source = dr.tree if strategy == "norm" else dr.design
                pinv = linalg.truncated_pinv(modfkv.modfkv(source, cfg), c["k"])
            model = elm.train(fm, self.train, pinv, c["classes"])
            acc = elm.evaluate(model, self.test)
            t3 = clock()
        except Exception as exc:
            self._fail(f"{strategy} pipeline, round {r}.{i}", exc)
            return 0.0
        del dr, pinv, model
        self.samples[f"pipeline_s.{strategy}"].append(t3 - t0)
        if strategy == "norm":
            self.samples["design_s.norm"].append(t2 - t1)
        if r < self.min_rounds:
            self.quality[f"accuracy.{strategy}"].append(acc)
        floor = c["floor"][strategy]
        self._check(acc >= floor, f"{strategy} accuracy {acc:.4f} < {floor} in round {r}.{i}")
        return t3 - t0

    def end_to_end(self, samples):
        # A sketch's Jacobi core either converges in 10-25 sweeps or runs all
        # 60, about half of them each way, so a pipeline takes about 0.2 s or
        # about 0.45 s. The median of a run's pipelines sits at the edge of
        # the two clusters and jumps between them as the share of capped
        # cores moves with the seed; the mean moves in proportion to it.
        out = super().end_to_end(samples)
        for key in ("norm_s", "uniform_s"):
            out[key] = statistics.fmean(samples[self.E2E[key]])
        return out

    def quality_metrics(self):
        return {k: float(np.mean(v)) for k, v in self.quality.items()}


class LowrankTall(Workload):
    """Tall planted low-rank matrix: store build, draws and the lift."""

    name = "lowrank-tall"
    min_rounds = 2
    E2E = {"norm_s": "sketch_s.norm", "uniform_s": "sketch_s.uniform",
           "store_s": "store_build_s"}
    SCALES = {
        "full": dict(m=50000, n=400, rank=10, noise=1.3e-3, k=10, p=200, calls=8,
                     ceiling=1.05),
        "tiny": dict(m=3000, n=64, rank=4, noise=1e-3, k=4, p=16, calls=3,
                     ceiling=1.5),
    }
    STRATEGIES = ("norm", "uniform")

    def __init__(self, scale: str, seed: int, tracer):
        super().__init__(scale, seed, tracer)
        c = self.cfg
        rng = np.random.default_rng([seed, 0])
        u, _ = np.linalg.qr(rng.standard_normal((c["m"], c["rank"])))
        v, _ = np.linalg.qr(rng.standard_normal((c["n"], c["rank"])))
        x = (u * np.arange(c["rank"], 0, -1.0)) @ v.T
        x += c["noise"] * rng.standard_normal(x.shape)
        self.x = x
        self.x_norm_sq = float(np.einsum("ij,ij->", x, x))
        # Relative Frobenius size of the planted noise: the best rank-K
        # error sits just under it. At full scale, a sketch that misses any
        # planted direction but the weakest (sigma = 1) lands above the
        # ceiling.
        noise_rel = c["noise"] * np.sqrt(x.size / self.x_norm_sq)
        self.err_ceiling = c["ceiling"] * noise_rel

    def _recon_err(self, f) -> float:
        # ||X - U S V^T||^2 = ||X||^2 - 2 tr(S U^T X V) + tr(S U^T U S V^T V),
        # without forming the m x n approximation.
        us = f.u * f.sigma
        cross = float(np.einsum("ik,ik->", us, self.x @ f.v))
        sq = float(np.einsum("kl,kl->", us.T @ us, f.v.T @ f.v))
        return float(np.sqrt(max(self.x_norm_sq - 2.0 * cross + sq, 0.0) / self.x_norm_sq))

    def run_round(self, r: int) -> float:
        segtree, modfkv = _mod("segtree"), _mod("modfkv")
        c = self.cfg
        try:
            t0 = clock()
            store = segtree.SegTreeMatrix(self.x)
            wall = clock() - t0
        except Exception as exc:
            self._fail(f"store build, round {r}", exc, 1 + 2 * c["calls"])
            return 0.0
        self.attempted += 1
        self.samples["store_build_s"].append(wall)
        for strategy in self.STRATEGIES:
            source = store if strategy == "norm" else self.x
            for j in range(c["calls"]):
                cfg = modfkv.SketchConfig(
                    k=c["k"], p=c["p"], strategy=strategy,
                    seed=_seed_int(self.seed, 3, r, j),
                )
                try:
                    t0 = clock()
                    f = modfkv.modfkv(source, cfg)
                    dt = clock() - t0
                except Exception as exc:
                    self._fail(f"{strategy} sketch {j}, round {r}", exc)
                    continue
                wall += dt
                self.samples[f"sketch_s.{strategy}"].append(dt)
                err = self._recon_err(f)
                if r < self.min_rounds:
                    self.quality[f"recon_err.{strategy}"].append(err)
                self._check(
                    err <= self.err_ceiling,
                    f"{strategy} recon_err {err:.4f} > {self.err_ceiling:.4f} in round {r}",
                )
        return wall


    def quality_metrics(self):
        return {k: float(np.median(v)) for k, v in self.quality.items()}


class StreamUpdate(Workload):
    """Entry updates and row-block writes beside draws on one wide store."""

    name = "stream-update"
    E2E = {"norm_s": "draw_s.norm", "uniform_s": "draw_s.uniform",
           "store_s": "store_write_s"}
    SCALES = {
        "full": dict(rows=2048, cols=4096, updates=2000, block=64,
                     draws=8, k=10, p=256, law_draws=400_000, rebuild_every=20),
        "tiny": dict(rows=64, cols=128, updates=100, block=4,
                     draws=4, k=4, p=32, law_draws=20_000, rebuild_every=2),
    }

    def __init__(self, scale: str, seed: int, tracer):
        super().__init__(scale, seed, tracer)
        c = self.cfg
        rng = np.random.default_rng([seed, 0])
        # Lognormal row and column scales make both sampling laws uneven.
        x = rng.standard_normal((c["rows"], c["cols"]))
        x *= rng.lognormal(0.0, 0.5, (c["rows"], 1))
        x *= rng.lognormal(0.0, 0.5, (1, c["cols"]))
        self.ops_rng = np.random.default_rng([seed, 1])
        self.draw_rng = np.random.default_rng([seed, 2])
        modfkv = _mod("modfkv")
        self.draw_cfgs = {
            s: modfkv.SketchConfig(k=c["k"], p=c["p"], strategy=s)
            for s in ("norm", "uniform")
        }
        self.store = _mod("segtree").SegTreeMatrix(x)
        # The store copies x, so x stays the benchmark's own record of
        # every write, for the checks in finish().
        self.shadow = x

    def _draw_ok(self, d) -> bool:
        c = self.cfg
        return (
            d.row_idx.shape == (c["p"],) and d.col_idx.shape == (c["p"],)
            and 0 <= d.row_idx.min() and d.row_idx.max() < c["rows"]
            and 0 <= d.col_idx.min() and d.col_idx.max() < c["cols"]
            and bool(np.all(d.row_prob > 0.0)) and bool(np.all(d.col_prob > 0.0))
        )

    def run_round(self, r: int) -> float:
        modfkv = _mod("modfkv")
        c = self.cfg
        if r and r % c["rebuild_every"] == 0:
            # The update and draw times depend on where the store's pages
            # land, which moved them by up to a third from one allocation to
            # the next. A run rebuilds the store from its record of the writes
            # every few rounds, untimed, so that its medians cover several
            # allocations. rebuild_every is even, so in a traced run the
            # rebuild falls in an untraced round.
            self.store = None
            self.store = _mod("segtree").SegTreeMatrix(self.shadow)
        rng, store = self.ops_rng, self.store
        n = c["updates"]
        ii = rng.integers(0, c["rows"], n).tolist()
        jj = rng.integers(0, c["cols"], n).tolist()
        vv = (3.0 * rng.standard_normal(n)).tolist()
        start = int(rng.integers(0, c["rows"] - c["block"] + 1))
        block = rng.standard_normal((c["block"], c["cols"]))
        block *= rng.lognormal(0.0, 0.5, (c["block"], 1))

        done = 0
        t0 = clock()
        try:
            with self.tracer.span("segtree.update", n):
                for i, j, v in zip(ii, jj, vv):
                    store.update(i, j, v)
                    done += 1
        except Exception as exc:
            self._fail(f"update, round {r}", exc, n - done)
        t_upd = clock() - t0
        self.attempted += done
        for i, j, v in zip(ii[:done], jj[:done], vv[:done]):
            self.shadow[i, j] = v
        try:
            t0 = clock()
            store.set_rows(start, block)
            t_set = clock() - t0
            self.attempted += 1
            self.shadow[start : start + c["block"]] = block
        except Exception as exc:
            self._fail(f"set_rows, round {r}", exc)
            t_set = 0.0
        if done == n:
            self.samples["update_s"].append(t_upd / n)
            self.samples["updates_per_s"].append(n / t_upd)
        self.samples["store_write_s"].append(t_upd + t_set)
        wall = t_upd + t_set
        for strategy, cfg in self.draw_cfgs.items():
            spent = 0.0
            for _ in range(c["draws"]):
                try:
                    t0 = clock()
                    d = modfkv.draw_samples(store, cfg, self.draw_rng)
                    dt = clock() - t0
                except Exception as exc:
                    self._fail(f"{strategy} draw, round {r}", exc)
                    continue
                spent += dt
                self.samples[f"draw_s.{strategy}"].append(dt)
                self._check(self._draw_ok(d), f"{strategy} draw out of range in round {r}")
            if strategy == "norm" and spent > 0.0:
                self.samples["draws_per_s"].append(c["draws"] / spent)
            wall += spent
        return wall

    def finish(self) -> None:
        c, store, x = self.cfg, self.store, self.shadow
        self._check(np.array_equal(store.dense, x), "stored entries differ from the applied writes")
        row_sq = np.einsum("ij,ij->i", x, x)
        self._check(
            np.allclose(store.row_norm_sq(np.arange(c["rows"])), row_sq, rtol=1e-9, atol=0.0),
            "stored row norms differ from recomputed ones",
        )
        fro = float(row_sq.sum())
        self._check(
            abs(store.fro_norm_sq() - fro) <= 1e-9 * fro,
            "stored Frobenius norm differs from the recomputed one",
        )
        # Row-draw frequencies against the row law after all the writes:
        # Pearson's statistic has mean dof and sd sqrt(2 dof) under the law.
        n = c["law_draws"]
        rows = store.sample_rows(np.random.default_rng([self.seed, 3]), n)
        counts = np.bincount(rows, minlength=c["rows"])
        expected = n * row_sq / fro
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        dof = c["rows"] - 1
        self.law_chi2_per_dof = chi2 / dof
        self._check(
            counts.size == c["rows"] and chi2 <= dof + 6.0 * np.sqrt(2.0 * dof),
            f"row-draw frequencies off the row law: chi2 {chi2:.1f} on {dof} dof",
        )


    def quality_metrics(self):
        return {"row_law_chi2_per_dof": self.law_chi2_per_dof}


WORKLOADS = {w.name: w for w in (ElmWide, LowrankTall, StreamUpdate)}
