import gzip
import struct

import numpy as np
import pytest

from sketchlearn.datasets import (
    cifar10_dataset,
    load_cifar10,
    load_mnist,
    mnist_dataset,
    normalize,
    resolve_data_dir,
    synth_blobs,
    synth_lowrank,
)
from sketchlearn.errors import (
    BadMagic,
    CountMismatch,
    DatasetMissing,
    EmptyMatrix,
    LabelOutOfRange,
    RankTooLarge,
)
from sketchlearn.errors import TruncatedFile

from imagefiles import cifar_batch_bytes, idx_image_bytes, idx_label_bytes


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(2, 4, 3), dtype=np.uint8)
    labels = [7, 1]
    img = tmp_path / "train-images-idx3-ubyte"
    lab = tmp_path / "train-labels-idx1-ubyte"
    img.write_bytes(idx_image_bytes(pixels))
    lab.write_bytes(idx_label_bytes(labels))
    return img, lab, pixels, labels


class TestLoadMnist:
    def test_round_trip(self, idx_pair):
        img, lab, pixels, labels = idx_pair
        got_pixels, got_labels = load_mnist(img, lab)
        assert got_pixels.dtype == got_labels.dtype == np.uint8
        assert (got_pixels.shape, got_labels.shape) == ((2, 12), (2,))
        np.testing.assert_array_equal(got_pixels, pixels.reshape(2, -1))
        np.testing.assert_array_equal(got_labels, labels)

    def test_gzipped_variant(self, idx_pair, tmp_path):
        img, lab, pixels, labels = idx_pair
        gz_img = tmp_path / "imgs.gz"
        gz_lab = tmp_path / "labs.gz"
        gz_img.write_bytes(gzip.compress(img.read_bytes()))
        gz_lab.write_bytes(gzip.compress(lab.read_bytes()))
        got_pixels, got_labels = load_mnist(gz_img, gz_lab)
        np.testing.assert_array_equal(got_pixels, pixels.reshape(2, -1))
        np.testing.assert_array_equal(got_labels, labels)

    def test_wrong_image_magic(self, idx_pair, tmp_path):
        img, lab, pixels, _ = idx_pair
        bad = tmp_path / "bad-images"
        bad.write_bytes(struct.pack(">IIII", 0x804, 2, 4, 3) + pixels.tobytes())
        with pytest.raises(BadMagic):
            load_mnist(bad, lab)

    def test_wrong_label_magic(self, idx_pair, tmp_path):
        img, _, _, labels = idx_pair
        bad = tmp_path / "bad-labels"
        bad.write_bytes(struct.pack(">II", 0x803, 2) + bytes(labels))
        with pytest.raises(BadMagic):
            load_mnist(img, bad)

    def test_truncated_payload(self, idx_pair, tmp_path):
        img, lab, _, _ = idx_pair
        cut = tmp_path / "cut-images"
        cut.write_bytes(img.read_bytes()[:-1])
        with pytest.raises(TruncatedFile):
            load_mnist(cut, lab)
        header_only = tmp_path / "header-only"
        header_only.write_bytes(img.read_bytes()[:10])
        with pytest.raises(TruncatedFile):
            load_mnist(header_only, lab)
        # Label files: shorter than the header, and a payload one short of
        # or one past the count the header gives.
        good = lab.read_bytes()
        bad_lab = tmp_path / "bad-labels"
        for blob in (good[:5], good[:-1], good + b"\x00"):
            bad_lab.write_bytes(blob)
            with pytest.raises(TruncatedFile):
                load_mnist(img, bad_lab)

    def test_count_mismatch(self, idx_pair, tmp_path):
        img, _, _, _ = idx_pair
        short = tmp_path / "short-labels"
        short.write_bytes(idx_label_bytes([5]))
        with pytest.raises(CountMismatch):
            load_mnist(img, short)


class TestLoadCifar10:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        blob, pixel_rows = cifar_batch_bytes([3, 9], rng)
        path = tmp_path / "data_batch_1.bin"
        path.write_bytes(blob)
        pixels, labels = load_cifar10([path])
        assert pixels.dtype == labels.dtype == np.uint8
        assert (pixels.shape, labels.shape) == ((2, 3072), (2,))
        np.testing.assert_array_equal(labels, [3, 9])
        np.testing.assert_array_equal(pixels, np.vstack(pixel_rows))

    def test_multiple_batches_concatenate(self, tmp_path):
        rng = np.random.default_rng(2)
        b1, _ = cifar_batch_bytes([0], rng)
        b2, _ = cifar_batch_bytes([5, 2], rng)
        p1, p2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
        p1.write_bytes(b1)
        p2.write_bytes(b2)
        pixels, labels = load_cifar10([p1, p2])
        assert pixels.shape == (3, 3072)
        np.testing.assert_array_equal(labels, [0, 5, 2])

    def test_partial_record_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3072)  # one byte short of a record
        with pytest.raises(TruncatedFile):
            load_cifar10([path])

    def test_label_out_of_range(self, tmp_path):
        rng = np.random.default_rng(3)
        blob, _ = cifar_batch_bytes([10], rng)
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(LabelOutOfRange):
            load_cifar10([path])

    def test_no_batches_is_dataset_missing(self):
        with pytest.raises(DatasetMissing, match="no CIFAR-10 batch files"):
            load_cifar10([])


class TestNormalize:
    def test_endpoints_and_scaling(self):
        ds = normalize(np.array([[0, 255, 51, 102]], dtype=np.uint8),
                       np.array([2], dtype=np.uint8))
        np.testing.assert_allclose(ds.inputs[0], [0.0, 1.0, 0.2, 0.4])
        assert ds.labels.dtype == np.int64

    def test_range_and_order_preserved(self):
        rng = np.random.default_rng(4)
        pix = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
        ds = normalize(pix, np.array([0, 1, 2], dtype=np.uint8))
        assert ds.inputs.shape == (3, 4)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        order = np.argsort(pix[0])
        np.testing.assert_array_equal(np.argsort(ds.inputs[0]), order)

    def test_no_images_is_an_empty_dataset(self):
        with pytest.raises(EmptyMatrix):
            normalize(np.zeros((0, 4), np.uint8), np.zeros(0, np.uint8))


class TestSynthLowrank:
    def test_planted_spectrum(self):
        x = synth_lowrank(30, 20, 4, 0.0, np.random.default_rng(5))
        sigma = np.linalg.svd(x, compute_uv=False)
        np.testing.assert_allclose(sigma[:4], [4.0, 3.0, 2.0, 1.0], atol=1e-8)
        assert sigma[4:].max() <= 1e-10

    def test_full_rank_square(self):
        x = synth_lowrank(5, 5, 5, 0.0, np.random.default_rng(6))
        sigma = np.linalg.svd(x, compute_uv=False)
        np.testing.assert_allclose(sigma, [5, 4, 3, 2, 1], atol=1e-8)

    def test_noise_perturbs(self):
        rng = np.random.default_rng(7)
        x = synth_lowrank(30, 20, 2, 0.1, rng)
        sigma = np.linalg.svd(x, compute_uv=False)
        assert sigma[2] > 1e-3  # noise fills the tail

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            synth_lowrank(4, 6, 5, 0.0, np.random.default_rng(8))


class TestSynthBlobs:
    def test_shapes_and_ranges(self):
        ds = synth_blobs(6, 20, 3, np.random.default_rng(9))
        assert ds.inputs.shape == (60, 6)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        np.testing.assert_array_equal(
            np.bincount(ds.labels, minlength=3), [20, 20, 20]
        )

    def test_classes_are_separable(self):
        ds = synth_blobs(8, 30, 4, np.random.default_rng(10), spread=0.02)
        centers = np.array(
            [ds.inputs[ds.labels == c].mean(axis=0) for c in range(4)]
        )
        # nearest-center assignment recovers the labels
        dist = ((ds.inputs[:, None, :] - centers[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(np.argmin(dist, axis=1), ds.labels)


class TestDiscovery:
    def test_resolve_data_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("SKETCHLEARN_DATA_DIR", raising=False)
        assert resolve_data_dir() is None
        assert resolve_data_dir(str(tmp_path)) == tmp_path
        monkeypatch.setenv("SKETCHLEARN_DATA_DIR", str(tmp_path / "env"))
        assert resolve_data_dir() == tmp_path / "env"
        assert resolve_data_dir(str(tmp_path)) == tmp_path  # explicit wins

    def test_mnist_dataset_missing(self, tmp_path):
        with pytest.raises(DatasetMissing):
            mnist_dataset(None)
        with pytest.raises(DatasetMissing):
            mnist_dataset(tmp_path)

    def test_mnist_dataset_loads_fixture_dir(self, tmp_path, idx_pair):
        ds = mnist_dataset(tmp_path, split="train")
        assert ds.count == 2
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        np.testing.assert_array_equal(ds.labels, [7, 1])
        for split in ("validation", "Train"):
            with pytest.raises(ValueError, match="split must be one of"):
                mnist_dataset(tmp_path, split=split)

    def test_cifar_dataset_missing(self, tmp_path):
        with pytest.raises(DatasetMissing):
            cifar10_dataset(None)
        with pytest.raises(DatasetMissing):
            cifar10_dataset(tmp_path)

    def test_cifar_dataset_loads_subdir(self, tmp_path):
        rng = np.random.default_rng(11)
        sub = tmp_path / "cifar-10-batches-bin"
        sub.mkdir()
        for i in range(1, 6):
            blob, _ = cifar_batch_bytes([i % 10], rng)
            (sub / f"data_batch_{i}.bin").write_bytes(blob)
        ds = cifar10_dataset(tmp_path, split="train")
        assert ds.count == 5
        assert ds.inputs.shape == (5, 3072)
        # An unknown split is an error, not the test batches.
        (sub / "test_batch.bin").write_bytes(cifar_batch_bytes([4], rng)[0])
        assert cifar10_dataset(tmp_path, split="test").count == 1
        for split in ("validation", "Train"):
            with pytest.raises(ValueError, match="split must be one of"):
                cifar10_dataset(tmp_path, split=split)
