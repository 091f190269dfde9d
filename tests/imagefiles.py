"""Writers of the on-disk image formats the dataset readers parse.

Nothing in here calls into sketchlearn: each file is encoded from the format
itself, so a reader that agrees with it reads the format, not its own output.
"""

from __future__ import annotations

import io
import struct
import tarfile

import numpy as np


def idx_image_bytes(pixels):
    """Big-endian IDX encoding of a (count, h, w) uint8 array."""
    count, h, w = pixels.shape
    return struct.pack(">IIII", 0x803, count, h, w) + pixels.tobytes()


def idx_label_bytes(labels):
    return struct.pack(">II", 0x801, len(labels)) + bytes(labels)


def cifar_batch_bytes(labels, rng):
    recs = []
    pixel_rows = []
    for lab in labels:
        pix = rng.integers(0, 256, size=3072, dtype=np.uint8)
        pixel_rows.append(pix)
        recs.append(bytes([lab]) + pix.tobytes())
    return b"".join(recs), pixel_rows


def mnist_split_bytes(prefix, count, rng, size=4):
    """IDX bytes of ``<prefix>-images-idx3-ubyte`` and its labels (0..9 cycled), by name."""
    pixels = rng.integers(0, 256, size=(count, size, size), dtype=np.uint8)
    return {
        f"{prefix}-images-idx3-ubyte": idx_image_bytes(pixels),
        f"{prefix}-labels-idx1-ubyte": idx_label_bytes([i % 10 for i in range(count)]),
    }


def cifar_tar_bytes(batches, rng):
    """A gzipped tar holding ``cifar-10-batches-bin/<name>`` for each (name, labels)."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:gz") as tar:
        for name, labels in batches:
            blob, _ = cifar_batch_bytes(labels, rng)
            info = tarfile.TarInfo(f"cifar-10-batches-bin/{name}")
            info.size = len(blob)
            tar.addfile(info, io.BytesIO(blob))
    return buf.getvalue()
