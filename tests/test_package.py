"""The package's import contract, and README's examples run as written."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import sketchlearn
from sketchlearn import elm, linalg, modfkv, segtree
from sketchlearn.segtree import SegTreeMatrix

ROOT = Path(__file__).resolve().parent.parent
CORE_MODULES = ("bench", "datasets", "elm", "errors", "linalg", "modfkv", "segtree")


def test_import_loads_the_core_modules_and_not_the_cli():
    # A fresh interpreter, so modules that other tests imported do not count.
    probe = (
        "import inspect, sys, sketchlearn\n"
        "assert inspect.ismodule(sketchlearn.modfkv)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('sketchlearn.'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT / "src", capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == [f"sketchlearn.{name}" for name in CORE_MODULES]


def test_patching_the_module_reaches_the_sketch(monkeypatch):
    calls = []
    svd_dense = sketchlearn.modfkv.svd_dense

    def counting(a):
        calls.append(np.shape(a))
        return svd_dense(a)

    monkeypatch.setattr(sketchlearn.modfkv, "svd_dense", counting)
    x = np.random.default_rng(0).random((20, 15))
    sketchlearn.modfkv.modfkv(SegTreeMatrix(x), sketchlearn.modfkv.SketchConfig(k=3, p=8))
    assert calls == [(8, 8)]


def test_every_traced_name_is_looked_up_by_its_caller():
    """The benchmark's tracer (``perfbench/tracing.py``, loaded read-only)
    replaces module globals and store methods; each must still be what its
    caller looks up at call time, or its span goes dark. One tiny pipeline
    through the module attributes opens a span for every name but
    ``segtree.update``, which the benchmark opens itself."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    rng = np.random.default_rng(0)
    ds = elm.Dataset(rng.random((40, 4)), np.arange(40) % 3)
    fm = elm.init_features(4, 24, rng)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        segtree.SegTreeMatrix(rng.random((40, 24)))
        dr = elm.build_design(fm, ds, with_tree=True)
        modfkv.modfkv(dr.tree, modfkv.SketchConfig(k=3, p=8))
        pinv = linalg.truncated_pinv(linalg.svd_dense(dr.design), 3)
        elm.evaluate(elm.train(fm, ds, pinv), ds)
    finally:
        tracer.uninstall()
    spanned = {span[0] for span in tracer.spans}
    assert set(tracing.SPAN_NAMES) - spanned == {"segtree.update"}


def test_readme_examples_run(capsys):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert len(blocks) >= 2
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {})
        assert capsys.readouterr().out, f"README python block {index} printed nothing"
