import csv
import io
import json
import re
import warnings
import weakref
from dataclasses import asdict, fields

import numpy as np
import pytest

import sketchlearn.bench as bench
import sketchlearn.cli as cli
import sketchlearn.elm as elm
from sketchlearn.bench import (
    _TAG_SKETCH,
    CSV_COLUMNS,
    ExperimentSpec,
    RunRecord,
    _factors,
    _run_pass,
    emit_report,
    run_experiment,
)
from sketchlearn.cli import main
from sketchlearn.elm import Dataset, OptimizerConfig, init_features, train
from sketchlearn.errors import DatasetMissing, NonFinite, RankDeficientSketch
from sketchlearn.linalg import svd_dense, truncated_pinv

from imagefiles import mnist_split_bytes


@pytest.fixture
def mnist_dir(tmp_path):
    """A tiny MNIST layout: 40 train and 20 test images of 4x4 pixels."""
    rng = np.random.default_rng(0)
    for prefix, count in (("train", 40), ("t10k", 20)):
        for name, blob in mnist_split_bytes(prefix, count, rng).items():
            (tmp_path / name).write_bytes(blob)
    return tmp_path


def tiny_spec(**overrides):
    base = dict(
        kind="compare-sampling",
        dataset="synthetic",
        m=(50,),
        k=(4,),
        p=(16,),
        strategies=("exact", "norm", "uniform"),
        seeds=(0, 1),
        subsample=200,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def errors(records):
    """The error of every failed record."""
    return [r.error for r in records if r.error is not None]


class TestSpecValidation:
    def test_optimizer_defaults_are_the_optimizers(self):
        assert ExperimentSpec(kind="compare-sampling").optimizer == OptimizerConfig()

    def test_coerces_lists_to_tuples(self):
        spec = ExperimentSpec(kind="compare-sampling", m=[10], seeds=[0, 1])
        assert spec.m == (10,)
        assert spec.seeds == (0, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="sweep-everything"),
            dict(kind="compare-sampling", dataset="imagenet"),
            dict(kind="compare-sampling", m=()),
            dict(kind="compare-sampling", strategies=("norm", "leverage")),
            dict(kind="compare-sampling", seeds=(-1,)),
            dict(kind="compare-sampling", subsample=0),
            dict(kind="compare-sampling", subsample=-5),
            # Strategy and seed lists given as a string or a scalar.
            dict(kind="compare-sampling", strategies="norm"),
            dict(kind="compare-sampling", seeds=0),
            dict(kind="sweep-rank", k=(0,)),
            dict(kind="sweep-rank", k=(5, -2)),
            dict(kind="compare-sampling", m=(0,)),
            dict(kind="compare-sampling", p=(0,)),
            # List fields given as a scalar or a string, as a config can.
            dict(kind="compare-sampling", m=50),
            dict(kind="compare-sampling", m="50"),
            # Entries and counts that no integer flag can express.
            dict(kind="compare-sampling", m=(2.5,)),
            dict(kind="sweep-rank", k=(2.5,)),
            dict(kind="compare-sampling", p=(1.5,)),
            dict(kind="compare-sampling", seeds=(1.5,)),
            dict(kind="compare-sampling", m=(True,)),
            dict(kind="compare-sampling", subsample=2.5),
            dict(kind="optimized-compare", learning_rate="0.1"),
            dict(kind="optimized-compare", epochs=-2),
            dict(kind="optimized-compare", epochs=2.5),
            dict(kind="optimized-compare", learning_rate=float("nan")),
            dict(kind="optimized-compare", learning_rate=float("inf")),
            dict(kind="optimized-compare", learning_rate=-1e-3),
            # JSON true is an int to Python, but no count or rate.
            dict(kind="optimized-compare", epochs=True),
            dict(kind="compare-sampling", subsample=True),
            dict(kind="optimized-compare", learning_rate=True),
            dict(kind="compare-sampling", data_dir=5),
            # A repeated sweep value would run the same point twice.
            dict(kind="compare-sampling", m=(50, 50)),
            dict(kind="sweep-rank", k=(3, 5, 3)),
            dict(kind="compare-sampling", p=(16, np.int64(16))),
            dict(kind="compare-sampling", strategies=("norm", "norm")),
            dict(kind="compare-sampling", seeds=(0, 0)),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentSpec(**kwargs)


class TestRunExperiment:
    def test_point_grid_and_metrics(self):
        records = run_experiment(tiny_spec())
        assert not errors(records)
        # exact collapses the P list; sketches get one record per (p, seed)
        assert len(records) == 6
        by_strategy = {}
        for rec in records:
            by_strategy.setdefault(rec.strategy, []).append(rec)
            assert rec.error is None
            assert 0.0 <= rec.accuracy <= 1.0
            parts = (
                rec.featurize_s + rec.tree_build_s
                + rec.factorize_s + rec.solve_s
            )
            assert all(
                v >= 0.0
                for v in (rec.featurize_s, rec.tree_build_s,
                          rec.factorize_s, rec.solve_s)
            )
            assert rec.total_s + 1e-6 >= parts
        assert sorted(by_strategy) == ["exact", "norm", "uniform"]
        assert all(r.p == 0 for r in by_strategy["exact"])
        assert all(r.p == 16 for r in by_strategy["norm"])
        # only the norm strategy pays for the sampling tree
        assert all(r.tree_build_s > 0.0 for r in by_strategy["norm"])
        assert all(r.tree_build_s == 0.0 for r in by_strategy["uniform"])

    def test_deterministic_across_runs(self):
        # Every field but the timings (accuracy, error, sampled_col_norms
        # and the point's parameters) must repeat from run to run.
        sampled_norms = tiny_spec(
            kind="sampled-norms", m=(30,), p=(12,), seeds=(0,), epochs=2,
        )
        for spec in (tiny_spec(), sampled_norms):
            runs = [
                [
                    {k: v for k, v in asdict(r).items() if not k.endswith("_s")}
                    for r in run_experiment(spec)
                ]
                for _ in range(2)
            ]
            assert runs[0] == runs[1]

    def test_seed_changes_sketch_result(self):
        records = run_experiment(tiny_spec(strategies=("norm",)))
        a0, a1 = [r.accuracy for r in records]
        # different seeds draw different sketches; identical values would
        # suggest the seed is not reaching the sampler
        rec = records[0]
        assert (a0, rec.seed) != (a1, records[1].seed)

    def test_failing_point_is_isolated(self):
        # k > p is rejected by the sketch config, so the norm points fail
        # while the exact baseline still completes.
        spec = tiny_spec(k=(8,), p=(4,), strategies=("exact", "norm"), seeds=(0,))
        records = run_experiment(spec)
        assert errors(records)
        by_strategy = {r.strategy: r for r in records}
        assert by_strategy["exact"].error is None
        assert by_strategy["exact"].accuracy is not None
        assert "ValueError" in by_strategy["norm"].error
        assert by_strategy["norm"].accuracy is None

    def test_failing_sketch_keeps_the_stages_it_reached(self):
        # The sketch config rejects k > p after the design is built, so the
        # design's two timings are set and every later field stays None.
        spec = tiny_spec(k=(8,), p=(4,), strategies=("norm", "uniform"), seeds=(0,))
        for rec in run_experiment(spec):
            assert "ValueError" in rec.error
            assert rec.featurize_s is not None and rec.tree_build_s is not None
            assert rec.factorize_s is None and rec.solve_s is None
            assert rec.total_s is None and rec.accuracy is None

    def test_diverged_second_pass_keeps_first_pass_timings(self):
        spec = ExperimentSpec(
            kind="optimized-compare",
            m=(30,),
            k=(4,),
            p=(12,),
            strategies=("norm", "uniform"),
            seeds=(0,),
            subsample=150,
            epochs=2,
            learning_rate=1.0,
        )
        for rec in run_experiment(spec):
            assert rec.error.startswith("Diverged")
            for name in ("featurize_s", "tree_build_s", "factorize_s", "solve_s"):
                assert getattr(rec, name) >= 0.0
            assert rec.accuracy is None and rec.total_s is None

    def test_sweep_nodes_forces_exact(self):
        spec = ExperimentSpec(
            kind="sweep-nodes",
            m=(30, 60),
            k=(4,),
            strategies=("norm", "uniform"),
            subsample=150,
        )
        records = run_experiment(spec)
        assert len(records) == 2
        assert {r.strategy for r in records} == {"exact"}
        assert sorted(r.m for r in records) == [30, 60]

    def test_sweep_rank_reports_reconstruction_error(self):
        spec = ExperimentSpec(kind="sweep-rank", k=(5,), subsample=60)
        records = run_experiment(spec)
        assert not errors(records)
        (rec,) = records
        assert rec.strategy == "exact"
        # planted rank-5 matrix truncated at rank 5: error is numerically zero
        assert rec.accuracy <= 1e-8
        assert rec.featurize_s == 0.0

    def test_sweep_samples_sketch_accuracy(self):
        spec = ExperimentSpec(
            kind="sweep-samples",
            k=(5,),
            p=(40,),
            strategies=("norm", "uniform"),
            seeds=(0, 1, 2),
            subsample=60,
        )
        records = run_experiment(spec)
        assert not errors(records)
        assert len(records) == 6
        for rec in records:
            assert rec.accuracy <= 0.05

    def test_reduced_sketch_is_a_normal_record(self):
        # K=8 is above the synthetic matrix's planted rank 5, so each sketch
        # is cut to 5 triplets. The cut is reported by the factors' reduced
        # flag alone, so the records do not depend on the warning filter.
        spec = ExperimentSpec(
            kind="sweep-samples",
            k=(8,),
            p=(40,),
            strategies=("norm", "uniform"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = run_experiment(spec)
        assert [r.strategy for r in records] == ["norm", "uniform"]
        for rec in records:
            assert rec.error is None
            assert rec.accuracy < 1e-12

    @pytest.mark.parametrize("strategy", ["exact", "norm", "uniform"])
    def test_optimized_point_frees_first_design(self, strategy, monkeypatch):
        # The first pass's design, and a norm point's store with it, is
        # released before the optimizer and the second pass run.
        designs, first_alive = [], []
        build_design, optimize = elm.build_design, elm.optimize_features

        def keep_ref(*args, **kwargs):
            result = build_design(*args, **kwargs)
            designs.append(weakref.ref(result))
            return result

        def check_first(*args, **kwargs):
            first_alive.append(designs[0]() is not None)
            return optimize(*args, **kwargs)

        monkeypatch.setattr(elm, "build_design", keep_ref)
        monkeypatch.setattr(elm, "optimize_features", check_first)
        spec = tiny_spec(kind="optimized-compare", m=(30,), p=(12,),
                         strategies=(strategy,), seeds=(0,), epochs=1)
        assert not errors(run_experiment(spec))
        assert len(designs) == 2
        assert first_alive == [False]

    def test_sampled_norms_records_column_norms(self):
        spec = ExperimentSpec(
            kind="sampled-norms",
            m=(30,),
            k=(4,),
            p=(12,),
            strategies=("norm", "uniform"),
            seeds=(0,),
            subsample=150,
            epochs=2,
        )
        records = run_experiment(spec)
        assert not errors(records)
        for rec in records:
            assert len(rec.sampled_col_norms) == 12
            assert all(v >= 0.0 for v in rec.sampled_col_norms)

    def test_sampled_norms_rederives_one_draw_per_sketched_point(self, monkeypatch):
        # The sketch draws through modfkv's own global, so the stub sees
        # only the harness's re-derivations of a point's last draw.
        strategies = []
        real = bench.draw_samples

        def counting(t, cfg, rng):
            strategies.append(cfg.strategy)
            return real(t, cfg, rng)

        monkeypatch.setattr(bench, "draw_samples", counting)
        spec = ExperimentSpec(
            kind="sampled-norms",
            m=(30,),
            k=(4,),
            p=(12,),
            strategies=("exact", "norm", "uniform"),
            seeds=(0,),
            subsample=150,
            epochs=2,
        )
        assert not errors(run_experiment(spec))
        assert sorted(strategies) == ["norm", "uniform"]

    def test_library_run_reads_data_dir_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SKETCHLEARN_DATA_DIR", str(tmp_path))
        spec = ExperimentSpec(kind="compare-sampling", dataset="mnist")
        assert spec.data_dir == str(tmp_path)
        with pytest.raises(DatasetMissing, match=re.escape(str(tmp_path))):
            run_experiment(spec)

    def test_image_dataset_split_and_subsample(self, mnist_dir, monkeypatch):
        load = bench._load_classification
        loaded = []

        def spy(spec):
            loaded.append(load(spec))
            return loaded[-1]

        monkeypatch.setattr(bench, "_load_classification", spy)
        spec = tiny_spec(
            dataset="mnist", data_dir=str(mnist_dir), m=(20,), p=(12,), seeds=(0,),
            subsample=30,
        )
        records = run_experiment(spec)
        assert not errors(records) and len(records) == 3
        ((train, test),) = loaded
        # 30 distinct rows of the 40 train images; the test split whole.
        assert (train.count, test.count, train.dim) == (30, 20, 16)
        assert len({row.tobytes() for row in train.inputs}) == 30

    def test_optimized_compare_runs(self):
        spec = ExperimentSpec(
            kind="optimized-compare",
            m=(30,),
            k=(4,),
            p=(12,),
            strategies=("norm",),
            seeds=(0,),
            subsample=150,
            epochs=2,
        )
        records = run_experiment(spec)
        assert not errors(records)
        (rec,) = records
        assert 0.0 <= rec.accuracy <= 1.0

    def test_records_sorted_canonically(self):
        spec = tiny_spec(seeds=(1, 0), p=(24, 16))
        keys = [
            (r.m, r.k, r.p, r.strategy, r.seed)
            for r in run_experiment(spec)
        ]
        assert keys == sorted(keys)


def sampled_norms_factors(x, k, p):
    """Factorize a given design as one uniform sampled-norms point would."""
    rec = RunRecord(
        kind="sampled-norms",
        dataset="synthetic",
        m=x.shape[1],
        k=k,
        p=p,
        strategy="uniform",
        seed=0,
    )
    return _factors(rec, x, None, _TAG_SKETCH)


class TestSampledNormsSketchPath:
    def test_zero_core_raises_rank_deficient(self):
        # One nonzero entry, which this point's P=2 draw misses: W is all zero.
        x = np.zeros((40, 40))
        x[7, 11] = 1.0
        with pytest.raises(RankDeficientSketch):
            sampled_norms_factors(x, k=1, p=2)

    def test_reduced_rank_cuts_without_warning(self):
        x = np.outer(np.arange(1.0, 41.0), np.linspace(0.5, 2.0, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = sampled_norms_factors(x, k=3, p=10)
        assert f.k == 1 and f.reduced
        assert truncated_pinv(f, 3).k == 1
        assert truncated_pinv(f, 3).reduced


class TestExactPoint:
    def test_rank_above_design_rank_trains_as_full_pinv(self):
        # Six points give a design of rank at most 6 < K=10, so the exact
        # factors are cut below K; the weights match the uncut pseudo-inverse.
        rng = np.random.default_rng(5)
        data = Dataset(rng.random((6, 4)), np.arange(6) % 3)
        fm = init_features(4, 30, rng)
        rec = RunRecord(
            kind="compare-sampling",
            dataset="synthetic",
            m=30,
            k=10,
            p=0,
            strategy="exact",
            seed=0,
        )
        model, dr = _run_pass(rec, fm, data, 3, _TAG_SKETCH)
        assert np.linalg.matrix_rank(dr.design) < rec.k
        expected = train(fm, data, truncated_pinv(svd_dense(dr.design), rec.k), 3)
        np.testing.assert_array_equal(model.w, expected.w)

    def test_factors_flag_the_floor_cut(self):
        # K=8 above the matrix kinds' planted rank 5: the exact factors keep
        # 5 triplets, and say so as a sketch does.
        x = bench._load_matrix(ExperimentSpec(kind="sweep-rank", subsample=60))
        rec = RunRecord(
            kind="sweep-rank",
            dataset="synthetic",
            m=1,
            k=8,
            p=0,
            strategy="exact",
            seed=0,
        )
        f = _factors(rec, x, None, _TAG_SKETCH)
        assert f.k == 5 and f.reduced
        assert truncated_pinv(f, rec.k).reduced


class TestNonFiniteInput:
    @pytest.mark.parametrize("strategy", ["exact", "norm", "uniform"])
    def test_every_strategy_raises_non_finite(self, strategy):
        # One NaN input makes one NaN design row, whichever path meets it.
        # Dataset rejects a NaN input, so it is written after construction:
        # each design path must still reject the NaN row itself.
        rng = np.random.default_rng(6)
        inputs = rng.random((60, 4))
        data = Dataset(inputs, np.arange(60) % 3)
        data.inputs[17, 2] = np.nan
        with pytest.raises(NonFinite):
            Dataset(data.inputs, data.labels)
        fm = init_features(4, 30, rng)
        rec = RunRecord(
            kind="compare-sampling",
            dataset="synthetic",
            m=30,
            k=3,
            p=0 if strategy == "exact" else 12,
            strategy=strategy,
            seed=0,
        )
        with pytest.raises(NonFinite):
            _run_pass(rec, fm, data, 3, _TAG_SKETCH)


class TestEmitReport:
    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_report([], "csv", path)
        assert path.read_text().strip() == ",".join(CSV_COLUMNS)

    def test_error_record_has_blank_cells(self, tmp_path):
        rec = RunRecord(
            kind="compare-sampling", dataset="synthetic",
            m=10, k=2, p=4, strategy="norm", seed=0,
            error="ValueError: boom",
        )
        path = tmp_path / "out.csv"
        emit_report([rec], "csv", path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert rows[0]["accuracy"] == ""
        assert rows[0]["total_s"] == ""
        assert rows[0]["strategy"] == "norm"

    def test_csv_and_json_agree(self, tmp_path):
        records = run_experiment(tiny_spec(seeds=(0,)))
        cpath, jpath = tmp_path / "r.csv", tmp_path / "r.json"
        emit_report(records, "csv", cpath)
        emit_report(records, "json", jpath)
        crows = list(csv.DictReader(cpath.read_text().splitlines()))
        jrows = json.loads(jpath.read_text())
        assert len(crows) == len(jrows) == len(records)
        renamed = {"M": "m", "K": "k", "P": "p", "treeBuild_s": "tree_build_s"}
        for crow, jrow in zip(crows, jrows):
            assert list(crow) == list(CSV_COLUMNS)
            for col in CSV_COLUMNS:
                value = jrow[renamed.get(col, col)]
                # repr round-trips doubles exactly
                assert type(value)(crow[col]) == value, col
            assert jrow["error"] is None

    def test_json_from_numpy_integer_spec(self, tmp_path):
        spec = tiny_spec(m=np.array([30]), k=(3,), p=(8,), seeds=np.arange(1),
                         strategies=("norm",), subsample=100)
        path = tmp_path / "r.json"
        emit_report(run_experiment(spec), "json", path)
        [row] = json.loads(path.read_text())
        assert (row["m"], row["seed"], row["error"]) == (30, 0, None)
        assert all(type(v) is int for v in spec.m + spec.k + spec.p + spec.seeds)

    def test_json_includes_sampled_norms(self, tmp_path):
        rec = RunRecord(
            kind="sampled-norms", dataset="synthetic",
            m=10, k=2, p=2, strategy="norm", seed=0,
            sampled_col_norms=[1.5, 2.5],
        )
        path = tmp_path / "r.json"
        emit_report([rec], "json", path)
        assert json.loads(path.read_text())[0]["sampled_col_norms"] == [1.5, 2.5]

    def test_stdout_target(self, capsys):
        emit_report([], "csv", "-")
        assert capsys.readouterr().out.strip() == ",".join(CSV_COLUMNS)

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "xml", tmp_path / "r.xml")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            emit_report([], "csv", tmp_path / "missing" / "r.csv")


class TestCli:
    def run_main(self, *extra, out):
        argv = [
            "--experiment", "compare-sampling",
            "--dataset", "synthetic",
            "--m", "40", "--k", "4", "--p", "16",
            "--strategy", "norm",
            "--seeds", "0",
            "--subsample", "150",
            "--out", str(out),
        ]
        argv.extend(extra)
        return main(argv)

    def test_smoke(self, tmp_path):
        out = tmp_path / "run.csv"
        assert self.run_main(out=out) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        assert rows[0]["strategy"] == "norm"
        assert 0.0 <= float(rows[0]["accuracy"]) <= 1.0

    def test_jobs_flag_is_gone(self, tmp_path, capsys):
        # Sweep points run one after another; the flag is an unknown option.
        out = tmp_path / "run.csv"
        with pytest.raises(SystemExit) as exc:
            self.run_main("--jobs", "2", out=out)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()
        assert self.run_main(out=out) == 0

    def test_batch_size_is_gone(self, tmp_path, capsys):
        # Feature optimization runs full batch only; neither the flag nor
        # the config field exists.
        out = tmp_path / "run.csv"
        with pytest.raises(SystemExit) as exc:
            self.run_main("--batch-size", "4", out=out)
        assert exc.value.code == 2
        assert "--batch-size" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "optimized-compare", "batch_size": 4}))
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert "batch_size" in capsys.readouterr().err
        assert not out.exists()
        assert self.run_main("--experiment", "optimized-compare", "--epochs", "2",
                             out=out) == 0

    def test_json_format(self, tmp_path):
        out = tmp_path / "run.json"
        assert self.run_main("--format", "json", out=out) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1 and rows[0]["error"] is None

    def test_config_file_with_flag_override(self, tmp_path):
        base = {
            "kind": "compare-sampling",
            "dataset": "synthetic",
            "m": [40],
            "k": [4],
            "p": [16],
            "strategies": ["norm"],
            "seeds": [0],
            "subsample": 150,
        }
        every_field = dict(
            base, learning_rate=1e-3, epochs=2,
            data_dir=str(tmp_path),
        )
        assert set(every_field) == {f.name for f in fields(ExperimentSpec)}
        for loaded in (base, every_field):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(loaded))
            out = tmp_path / "run.csv"
            code = main(["--config", str(cfg), "--k", "3", "--out", str(out)])
            assert code == 0
            rows = list(csv.DictReader(out.read_text().splitlines()))
            assert [r["K"] for r in rows] == ["3"]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "compare-sampling", "rank": [4]}))
        assert main(["--config", str(cfg)]) == 2
        assert "rank" in capsys.readouterr().err

    def test_missing_kind_exits_2(self, capsys):
        assert main(["--dataset", "synthetic"]) == 2
        assert "kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--m", "0"),
            ("--p", "0"),
            ("--subsample", "-5"),
            ("--experiment", "sweep-rank", "--k", "0"),
            ("--experiment", "sweep-rank", "--k", "-2"),
            ("--epochs", "-2"),
            ("--lr", "nan"),
            ("--lr=-1e-3",),
            ("--strategy", "norm", "norm", "--seeds", "0", "0"),
            ("--m", "40", "40"),
        ],
    )
    def test_out_of_range_flag_exits_2(self, flags, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert self.run_main(*flags, out=out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "loaded",
        [
            {"kind": "compare-sampling", "m": 50},
            50,
            ["compare-sampling"],
            {"kind": "compare-sampling", "data_dir": 5},
            {"kind": "optimized-compare", "epochs": True},
        ],
    )
    def test_config_of_wrong_shape_exits_2(self, loaded, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(loaded))
        assert main(["--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["--config", str(cfg)]) == 2

    def test_unwritable_out_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        def never(spec):
            raise AssertionError("a point ran before --out was checked")

        monkeypatch.setattr(cli, "run_experiment", never)
        out = tmp_path / "missing" / "run.csv"
        assert self.run_main(out=out) == 2
        assert "error:" in capsys.readouterr().err
        assert self.run_main(out=tmp_path) == 2  # a directory

    def test_out_checked_without_truncating(self, tmp_path, monkeypatch):
        # A run that fails as a whole leaves an existing report as it was.
        monkeypatch.delenv("SKETCHLEARN_DATA_DIR", raising=False)
        out = tmp_path / "run.csv"
        out.write_text("earlier report\n")
        assert self.run_main("--dataset", "mnist", out=out) == 1
        assert out.read_text() == "earlier report\n"

    def test_failed_points_exit_1(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = self.run_main("--k", "8", "--p", "4", out=out)
        assert code == 1
        assert "failed" in capsys.readouterr().err
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["accuracy"] == ""  # report still written

    def test_image_dataset_from_data_dir(self, mnist_dir, tmp_path):
        out = tmp_path / "run.json"
        code = self.run_main(
            "--dataset", "mnist", "--data-dir", str(mnist_dir), "--subsample", "30",
            "--format", "json", out=out,
        )
        assert code == 0
        (row,) = json.loads(out.read_text())
        assert row["dataset"] == "mnist" and row["error"] is None

    def test_missing_dataset_dir_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SKETCHLEARN_DATA_DIR", raising=False)
        code = main([
            "--experiment", "compare-sampling",
            "--dataset", "mnist",
            "--out", str(tmp_path / "run.csv"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err
