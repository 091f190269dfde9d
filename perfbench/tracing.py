"""In-memory span tracing of sketchlearn's layers, installed from outside.

The tracer replaces public functions and methods under the names their
callers look up (``sketchlearn.modfkv.svd_dense`` is the core SVD that
``modfkv`` calls; ``sketchlearn.linalg.svd_dense`` is the one the benchmark
calls for the exact baseline), records one span per call, and puts the
originals back on ``uninstall``. The program itself is not modified.

A span is ``(name, start, end, parent, round, count, value)``: ``parent``
is the index of the enclosing span (-1 at the top), ``round`` the workload
round it belongs to, ``count`` the number of operations it covers (more
than one for a batch span) and ``value`` an optional number the call
returned (a usable rank, a reduced flag) or, for store builds, the
tracemalloc peak in bytes.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc

FIELDS = ("name", "start", "end", "parent", "round", "count", "value")

# (module, attribute, span name); module attributes are looked up by their
# callers at call time, so replacing them redirects every caller.
_MODULE_TARGETS = (
    ("sketchlearn.modfkv", "modfkv", "modfkv.modfkv"),
    ("sketchlearn.modfkv", "draw_samples", "modfkv.draw"),
    ("sketchlearn.modfkv", "build_w", "modfkv.build_w"),
    ("sketchlearn.modfkv", "svd_dense", "linalg.core_svd"),
    ("sketchlearn.modfkv", "usable_rank", "modfkv.usable_rank"),
    ("sketchlearn.modfkv", "reconstruct", "modfkv.lift"),
    ("sketchlearn.linalg", "svd_dense", "linalg.exact_svd"),
    ("sketchlearn.linalg", "truncated_pinv", "linalg.pinv"),
    ("sketchlearn.elm", "build_design", "elm.build_design"),
    ("sketchlearn.elm", "featurize_batch", "elm.featurize"),
    ("sketchlearn.elm", "train", "elm.train"),
    ("sketchlearn.elm", "evaluate", "elm.evaluate"),
)
# SegTreeMatrix methods. ``update`` is traced by the benchmark as one span
# per batch (see Tracer.span): a span per call adds about 0.7 us to a
# 15 us call and 2000 spans to every stream-update round.
_METHOD_TARGETS = (
    ("__init__", "segtree.build"),
    ("zeros", "segtree.build"),
    ("set_rows", "segtree.set_rows"),
    ("sample_rows", "segtree.sample_rows"),
    ("sample_cols_in_rows", "segtree.sample_cols"),
)
# Spans whose returned value is kept: the usable rank, and whether the
# sketch came back reduced.
_VALUE_OF = {
    "modfkv.usable_rank": int,
    "modfkv.modfkv": lambda f: int(f.reduced),
}
_MEMORY_SPANS = ("segtree.build",)
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, name in _METHOD_TARGETS] + ["segtree.update"]
    + [name for _, _, name in _MODULE_TARGETS]
))


class Tracer:
    """Records spans while installed; ``spans`` survives uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._clock = time.perf_counter

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def _open(self, name: str, count: int = 1) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), 0.0, parent, self.round, count, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, value=None) -> None:
        span = self.spans[idx]
        span[2] = self._clock()
        span[6] = value
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, count: int = 1):
        """A span opened by the benchmark itself; a no-op when not installed."""
        if not self.active:
            yield
            return
        idx = self._open(name, count)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        value_of = _VALUE_OF.get(name)
        measure_memory = name in _MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            started_tracemalloc = measure_memory and not tracemalloc.is_tracing()
            if started_tracemalloc:
                tracemalloc.start()
            value = None
            try:
                result = fn(*args, **kwargs)
                if started_tracemalloc:
                    value = tracemalloc.get_traced_memory()[1]
                elif value_of is not None:
                    value = value_of(result)
                return result
            finally:
                if started_tracemalloc:
                    tracemalloc.stop()
                self._close(idx, value)

        return traced

    def install(self) -> None:
        from sketchlearn.segtree import SegTreeMatrix

        for modname, attr, name in _MODULE_TARGETS:
            mod = sys.modules[modname]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))
        for attr, name in _METHOD_TARGETS:
            raw = SegTreeMatrix.__dict__[attr]
            self._saved.append((SegTreeMatrix, attr, raw))
            # getattr binds a classmethod to the class; staticmethod keeps
            # the wrapper unbound however it is looked up.
            wrapped = self._wrap(name, getattr(SegTreeMatrix, attr))
            if isinstance(raw, classmethod):
                wrapped = staticmethod(wrapped)
            setattr(SegTreeMatrix, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
