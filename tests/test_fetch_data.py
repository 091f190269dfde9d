"""scripts/fetch_data.py run offline: ``download`` is replaced by a stub
that writes synthetic gzipped IDX files and a CIFAR-10 tar."""

import gzip
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sketchlearn.datasets import cifar10_dataset, mnist_dataset

from imagefiles import cifar_tar_bytes, mnist_split_bytes

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fetch_data.py"
COUNTS = {"train": 6, "t10k": 3}


@pytest.fixture
def fetch_data():
    spec = importlib.util.spec_from_file_location("fetch_data", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_download(fetched, corrupt=None):
    """A ``download`` writing what each URL names; ``corrupt`` maps a file
    name to the bytes served for it instead."""
    rng = np.random.default_rng(0)
    corrupt = corrupt or {}

    def download(url, dest):
        name = url.rsplit("/", 1)[1]
        fetched.append(name)
        if name.endswith(".tar.gz"):
            batches = [(f"data_batch_{i}.bin", [i, 9 - i]) for i in range(1, 6)]
            blob = cifar_tar_bytes(batches + [("test_batch.bin", [0])], rng)
        else:
            raw = name.removesuffix(".gz")
            prefix = raw.split("-")[0]
            files = mnist_split_bytes(prefix, COUNTS[prefix], rng)
            blob = gzip.compress(corrupt.get(raw, files[raw]))
        dest.write_bytes(blob)

    return download


class TestFetchData:
    def test_fills_the_layout_the_loaders_read(
        self, fetch_data, tmp_path, monkeypatch, capsys
    ):
        fetched = []
        monkeypatch.setattr(fetch_data, "download", stub_download(fetched))
        assert fetch_data.main(["--dest", str(tmp_path)]) == 0
        assert len(fetched) == 5  # four MNIST files, one CIFAR archive
        assert mnist_dataset(tmp_path, "train").count == 6
        assert mnist_dataset(tmp_path, "test").count == 3
        assert cifar10_dataset(tmp_path, "train").count == 10
        assert cifar10_dataset(tmp_path, "test").count == 1
        capsys.readouterr()
        # A rerun skips every file, and still verifies each split.
        assert fetch_data.main(["--dest", str(tmp_path)]) == 0
        assert len(fetched) == 5
        out = capsys.readouterr().out
        assert out.count("skipping") == 5 and out.count("verified") == 4

    def test_file_with_the_wrong_magic_fails(
        self, fetch_data, tmp_path, monkeypatch, capsys
    ):
        # A label file carrying the image magic, 0x803.
        images = mnist_split_bytes("train", 2, np.random.default_rng(1))
        corrupt = {"train-labels-idx1-ubyte": images["train-images-idx3-ubyte"]}
        monkeypatch.setattr(fetch_data, "download", stub_download([], corrupt))
        assert fetch_data.main(["--dest", str(tmp_path), "--dataset", "mnist"]) == 1
        assert "magic 0x00000803, expected 0x00000801" in capsys.readouterr().err
        # The rejected split is moved aside, so a rerun downloads it again.
        assert (tmp_path / "train-labels-idx1-ubyte.gz.rejected").is_file()
        fetched = []
        monkeypatch.setattr(fetch_data, "download", stub_download(fetched))
        assert fetch_data.main(["--dest", str(tmp_path), "--dataset", "mnist"]) == 0
        # The first run stopped at the train split, before any test file.
        assert len(fetched) == 4
        assert fetched[:2] == ["train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"]
        assert mnist_dataset(tmp_path, "train").count == 6
