"""Sampling-based randomized SVD over a segment-tree store, applied to
extreme-learning-machine training, with a benchmark harness comparing
norm-weighted sampling, uniform sampling, and the exact-SVD baseline.

Each public name is imported from the module that defines it, for example
``from sketchlearn.modfkv import SketchConfig, modfkv``."""

from . import bench, datasets, elm, errors, linalg, modfkv, segtree

__version__ = "0.1.0"
