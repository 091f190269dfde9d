#!/usr/bin/env python3
"""Download the MNIST and CIFAR-10 files the benchmark harness reads.

The library itself never downloads anything; it reads files under a data
directory (``--data-dir`` or ``$SKETCHLEARN_DATA_DIR``) in the layout that
``sketchlearn.datasets`` defines (MNIST as gzipped IDX files, CIFAR-10 as
binary batches in a subdirectory). This script fills that layout, taking
every name from that module. Re-runs skip files that already exist. Every
split is then read back with the library's own readers. A file they reject
makes the script exit 1, and that split's files are moved aside to
``<name>.rejected``, so a rerun downloads them again.
"""

from __future__ import annotations

import argparse
import os
import sys
import tarfile
import tempfile
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sketchlearn.datasets import (
    CIFAR_FILES,
    CIFAR_SUBDIR,
    DATA_DIR_ENV,
    MNIST_FILES,
    load_cifar10,
    load_mnist,
    split_paths,
)
from sketchlearn.errors import SketchLearnError

MNIST_BASE = "https://ossci-datasets.s3.amazonaws.com/mnist/"
CIFAR_URL = "https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz"


def download(url: str, dest: Path) -> None:
    print(f"fetching {url}")
    tmp = dest.with_suffix(dest.suffix + ".part")
    with urllib.request.urlopen(url) as resp, open(tmp, "wb") as out:
        while True:
            chunk = resp.read(1 << 20)
            if not chunk:
                break
            out.write(chunk)
    tmp.replace(dest)


def verified(paths: list, load):
    """Return ``load()``; if it rejects a file, move every path aside."""
    try:
        return load()
    except SketchLearnError:
        for path in paths:
            aside = path.with_name(path.name + ".rejected")
            path.replace(aside)
            print(f"moved {path} to {aside}", file=sys.stderr)
        raise


def fetch_mnist(data_dir: Path) -> None:
    data_dir.mkdir(parents=True, exist_ok=True)
    for split, names in MNIST_FILES.items():
        for name in names:
            if (data_dir / name).is_file() or (data_dir / f"{name}.gz").is_file():
                print(f"have {name}, skipping")
            else:
                download(f"{MNIST_BASE}{name}.gz", data_dir / f"{name}.gz")
        paths = split_paths(data_dir, split, MNIST_FILES)
        _, labels = verified(paths, lambda: load_mnist(*paths))
        print(f"verified MNIST {split}: {len(labels)} images")


def fetch_cifar10(data_dir: Path) -> None:
    out_dir = data_dir / CIFAR_SUBDIR
    names = {name for split in CIFAR_FILES.values() for name in split}
    if all((out_dir / n).is_file() for n in names):
        print(f"have {CIFAR_SUBDIR}, skipping")
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            archive = Path(tmp) / "archive.tar.gz"
            download(CIFAR_URL, archive)
            with tarfile.open(archive, "r:gz") as tar:
                for member in tar.getmembers():
                    name = os.path.basename(member.name)
                    if name in names and member.isfile():
                        (out_dir / name).write_bytes(tar.extractfile(member).read())
                        print(f"wrote {out_dir / name}")
    for split in CIFAR_FILES:
        paths = split_paths(data_dir, split, CIFAR_FILES, CIFAR_SUBDIR)
        _, labels = verified(paths, lambda: load_cifar10(paths))
        print(f"verified CIFAR-10 {split}: {len(labels)} images")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dest",
        default=os.environ.get(DATA_DIR_ENV, "data"),
        help=f"target data directory (default: ${DATA_DIR_ENV} or ./data)",
    )
    parser.add_argument(
        "--dataset",
        choices=("mnist", "cifar10", "all"),
        default="all",
        help="which dataset to fetch (default: all)",
    )
    args = parser.parse_args(argv)
    dest = Path(args.dest)
    try:
        if args.dataset in ("mnist", "all"):
            fetch_mnist(dest)
        if args.dataset in ("cifar10", "all"):
            fetch_cifar10(dest)
    except SketchLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"data directory ready: {dest.resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
