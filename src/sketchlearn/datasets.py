"""Image dataset ingestion (IDX and CIFAR-10 binary) plus synthetic generators.

The readers return uint8 ``(pixels, labels)``: one row of pixel bytes per
image and one label per row. ``normalize`` maps the bytes to [0, 1].
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from pathlib import Path

import numpy as np

from .elm import Dataset
from .errors import (
    BadMagic,
    CountMismatch,
    DatasetMissing,
    LabelOutOfRange,
    RankTooLarge,
    TruncatedFile,
)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixels
DATA_DIR_ENV = "SKETCHLEARN_DATA_DIR"

MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}
CIFAR_SUBDIR = "cifar-10-batches-bin"
CIFAR_FILES = {
    "train": tuple(f"data_batch_{i}.bin" for i in range(1, 6)),
    "test": ("test_batch.bin",),
}


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    return blob


def _read_idx(path, magic: int):
    """Parse one IDX file into ``(dims, uint8 payload)``.

    The magic's low byte is the number of big-endian uint32 dimensions that
    follow it; the header, the magic and the payload size are all checked.
    """
    blob = _read_bytes(path)
    header = 4 * (1 + (magic & 0xFF))
    if len(blob) < header:
        raise TruncatedFile(f"{path}: too short for an IDX header")
    got, *dims = struct.unpack(f">{header // 4}I", blob[:header])
    if got != magic:
        raise BadMagic(f"{path}: magic {got:#010x}, expected {magic:#010x}")
    if len(blob) != header + math.prod(dims):
        raise TruncatedFile(f"{path}: {len(blob) - header} payload bytes for dims {dims}")
    return dims, np.frombuffer(blob, dtype=np.uint8, offset=header)


def load_mnist(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an IDX image/label file pair (gzipped files are detected).

    Returns uint8 ``(pixels, labels)``, shapes (count, height * width) and (count,).
    """
    (count, height, width), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC)
    (label_count,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if label_count != count:
        raise CountMismatch(f"{count} images but {label_count} labels")
    return pixels.reshape(count, height * width), labels


def load_cifar10(batch_paths) -> tuple[np.ndarray, np.ndarray]:
    """Parse CIFAR-10 binary batches: 3073-byte records, label byte first.

    Returns uint8 ``(pixels, labels)`` of shapes (count, 3072) and (count,).
    An empty list of batches is DatasetMissing.
    """
    pixel_parts = []
    label_parts = []
    for path in batch_paths:
        blob = _read_bytes(path)
        if len(blob) == 0 or len(blob) % CIFAR_RECORD != 0:
            raise TruncatedFile(
                f"{path}: {len(blob)} bytes is not a multiple of {CIFAR_RECORD}"
            )
        rec = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels = rec[:, 0]
        if labels.max() >= 10:
            raise LabelOutOfRange(f"{path}: label {labels.max()} outside [0, 10)")
        label_parts.append(labels)
        pixel_parts.append(rec[:, 1:])
    if not label_parts:
        raise DatasetMissing("no CIFAR-10 batch files given")
    # concatenate copies, so neither array holds on to the file buffers.
    return np.concatenate(pixel_parts), np.concatenate(label_parts)


def normalize(pixels, labels) -> Dataset:
    """Map rows of pixel bytes to [0, 1] by /255."""
    return Dataset(inputs=pixels / 255.0, labels=labels)


def synth_lowrank(
    m: int, n: int, r: int, noise: float, rng: np.random.Generator
) -> np.ndarray:
    """Planted low-rank matrix: sum of r spectral terms with sigma_i = r-i+1.

    Factors are random orthonormal; ``noise`` scales an added i.i.d.
    gaussian perturbation.
    """
    if r > min(m, n):
        raise RankTooLarge(f"rank {r} exceeds min({m}, {n})")
    u, _ = np.linalg.qr(rng.standard_normal((m, r)))
    v, _ = np.linalg.qr(rng.standard_normal((n, r)))
    sigma = np.arange(r, 0, -1, dtype=np.float64)
    x = (u * sigma) @ v.T
    if noise:
        x = x + noise * rng.standard_normal((m, n))
    return x


def synth_blobs(
    d: int,
    n_per_class: int,
    n_classes: int,
    rng: np.random.Generator,
    spread: float = 0.08,
) -> Dataset:
    """Gaussian class blobs clipped into [0, 1]^d; linearly learnable."""
    centers = 0.2 + 0.6 * rng.random((n_classes, d))
    points = []
    labels = []
    for c in range(n_classes):
        pts = centers[c] + spread * rng.standard_normal((n_per_class, d))
        points.append(np.clip(pts, 0.0, 1.0))
        labels.append(np.full(n_per_class, c, dtype=np.int64))
    inputs = np.concatenate(points)
    labels = np.concatenate(labels)
    perm = rng.permutation(inputs.shape[0])
    return Dataset(inputs=inputs[perm], labels=labels[perm])


# -- on-disk discovery -------------------------------------------------------


def resolve_data_dir(cli_value=None) -> Path | None:
    """Directory holding datasets: explicit value, else $SKETCHLEARN_DATA_DIR."""
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(DATA_DIR_ENV)
    return Path(env) if env else None


def _existing(base: Path, name: str) -> Path:
    for cand in (base / name, base / (name + ".gz")):
        if cand.is_file():
            return cand
    raise DatasetMissing(f"missing {name}[.gz] under {base}")


def split_paths(data_dir, split: str, files: dict, subdir: str | None = None) -> list:
    """Paths of ``files[split]`` (plain or ``.gz``) under ``data_dir`` or its ``subdir``.

    An unknown split is a ValueError; no directory or a missing file is DatasetMissing.
    """
    if split not in files:
        raise ValueError(f"split must be one of {tuple(files)}, got {split!r}")
    if data_dir is None:
        raise DatasetMissing(f"no data directory given (set ${DATA_DIR_ENV})")
    base = Path(data_dir)
    if subdir and (base / subdir).is_dir():
        base = base / subdir
    return [_existing(base, name) for name in files[split]]


def mnist_dataset(data_dir, split: str = "train") -> Dataset:
    return normalize(*load_mnist(*split_paths(data_dir, split, MNIST_FILES)))


def cifar10_dataset(data_dir, split: str = "train") -> Dataset:
    return normalize(*load_cifar10(split_paths(data_dir, split, CIFAR_FILES, CIFAR_SUBDIR)))
