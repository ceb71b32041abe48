"""Dataset loaders: synthetic determinism, IDX/CIFAR binary formats, augmentation."""

import gzip
import struct

import numpy as np
import pytest

from kernelblend import data as D
from oracles import synthetic_reference


def _random_specs(count: int) -> list:
    """Seeded specs over the generator's range: odd and even class counts,
    1-3 clusters, 8-32 pixels, noise 0 to 0.3, splits of 1-200 images. The
    first few pin the edges: size 8 and 32, no noise, splits of one image."""
    rng = np.random.default_rng(20)
    specs = [
        D.SyntheticSpec(num_classes=3, clusters_per_class=1, image_size=8, noise=0.0,
                        train_size=1, eval_size=1, seed=1),
        D.SyntheticSpec(num_classes=11, clusters_per_class=3, image_size=32, noise=0.3,
                        train_size=7, eval_size=1, seed=2),
        D.SyntheticSpec(num_classes=2, clusters_per_class=2, image_size=9, noise=0.0,
                        train_size=1, eval_size=40, seed=3),
    ]
    while len(specs) < count:
        specs.append(D.SyntheticSpec(
            num_classes=int(rng.integers(2, 12)), clusters_per_class=int(rng.integers(1, 4)),
            image_size=int(rng.integers(8, 33)),
            noise=0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.3)),
            train_size=int(rng.integers(1, 201)), eval_size=int(rng.integers(1, 201)),
            seed=int(rng.integers(0, 2 ** 31))))
    return specs


# the demo config's dataset, the default spec and 22 seeded random specs
ORACLE_SPECS = [
    D.SyntheticSpec(num_classes=6, clusters_per_class=2, image_size=12, noise=0.1,
                    train_size=1024, eval_size=256, seed=1),
    D.SyntheticSpec(),
] + _random_specs(22)


class TestSynthetic:
    def test_same_seed_is_bitwise_identical(self):
        spec = D.SyntheticSpec(train_size=64, eval_size=32, seed=5)
        t1, e1 = D.generate_synthetic(spec)
        t2, e2 = D.generate_synthetic(spec)
        assert t1.images.tobytes() == t2.images.tobytes()
        assert np.array_equal(e1.labels, e2.labels)

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: (
        f"c{spec.num_classes}k{spec.clusters_per_class}s{spec.image_size}"
        f"n{spec.noise:.2f}m{spec.train_size}-{spec.eval_size}"))
    def test_matches_per_sample_reference_bitwise(self, spec):
        # the batched render against the image-by-image generator it replaced
        for split, (images, labels) in zip(D.generate_synthetic(spec), synthetic_reference(spec)):
            assert split.images.shape == images.shape
            assert split.images.dtype == images.dtype
            assert split.images.tobytes() == images.tobytes()
            assert split.labels.dtype == labels.dtype
            assert split.labels.tobytes() == labels.tobytes()

    def test_different_seed_differs(self):
        a, _ = D.generate_synthetic(D.SyntheticSpec(train_size=64, eval_size=8, seed=1))
        b, _ = D.generate_synthetic(D.SyntheticSpec(train_size=64, eval_size=8, seed=2))
        assert not np.array_equal(a.images, b.images)

    def test_values_in_unit_range_and_shapes(self):
        train, evalset = D.generate_synthetic(D.SyntheticSpec(
            num_classes=4, image_size=12, train_size=40, eval_size=20))
        assert train.images.shape == (40, 1, 12, 12)
        assert evalset.images.shape == (20, 1, 12, 12)
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0
        assert set(np.unique(train.labels)) <= set(range(4))

    def test_paired_classes_are_visually_close(self):
        # classes 0 and 1 share a group pattern; class 2 sits elsewhere
        spec = D.SyntheticSpec(num_classes=6, noise=0.0, train_size=300, eval_size=10, seed=3)
        train, _ = D.generate_synthetic(spec)
        mean = lambda c: train.images[train.labels == c].mean(axis=0).ravel()
        d_pair = np.linalg.norm(mean(0) - mean(1))
        d_far = np.linalg.norm(mean(0) - mean(2))
        assert d_pair < d_far


class TestMnistReaders:
    def make_idx_images(self, path, count=5, rows=4, cols=4, magic=2051):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
        path.write_bytes(struct.pack(">IIII", magic, count, rows, cols) + pixels.tobytes())
        return pixels

    def make_idx_labels(self, path, labels, magic=2049):
        arr = np.asarray(labels, dtype=np.uint8)
        path.write_bytes(struct.pack(">II", magic, len(arr)) + arr.tobytes())

    def test_images_roundtrip(self, tmp_path):
        p = tmp_path / "imgs"
        pixels = self.make_idx_images(p)
        images = D.read_idx_images(p)
        assert images.shape == (5, 4, 4)
        np.testing.assert_allclose(images, pixels / 255.0)

    def test_gzip_transparent(self, tmp_path):
        p = tmp_path / "imgs"
        pixels = self.make_idx_images(p)
        gz = tmp_path / "imgs.gz"
        gz.write_bytes(gzip.compress(p.read_bytes()))
        np.testing.assert_allclose(D.read_idx_images(gz), pixels / 255.0)

    def test_bad_magic_names_offset(self, tmp_path):
        p = tmp_path / "imgs"
        self.make_idx_images(p, magic=1234)
        with pytest.raises(D.DatasetError, match="offset 0"):
            D.read_idx_images(p)

    def test_truncated_file_names_offset(self, tmp_path):
        p = tmp_path / "imgs"
        self.make_idx_images(p)
        data = p.read_bytes()
        p.write_bytes(data[:-3])
        with pytest.raises(D.DatasetError, match=f"offset {len(data) - 3}"):
            D.read_idx_images(p)

    def test_label_reader_and_range(self, tmp_path):
        p = tmp_path / "lbls"
        self.make_idx_labels(p, [0, 3, 9])
        assert np.array_equal(D.read_idx_labels(p), [0, 3, 9])
        self.make_idx_labels(p, [0, 12])
        with pytest.raises(D.DatasetError, match="out of range"):
            D.read_idx_labels(p)

    def test_full_layout(self, tmp_path):
        self.make_idx_images(tmp_path / "train-images-idx3-ubyte", count=6)
        self.make_idx_labels(tmp_path / "train-labels-idx1-ubyte", [0, 1, 2, 3, 4, 5])
        self.make_idx_images(tmp_path / "t10k-images-idx3-ubyte", count=2)
        self.make_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", [7, 8])
        train, test = D.load_mnist(tmp_path)
        assert len(train) == 6 and len(test) == 2
        assert train.images.shape == (6, 1, 4, 4)
        assert train.num_classes == 10


class TestCifarReader:
    def make_batch(self, path, count=4, bad_label_at=None):
        rng = np.random.default_rng(1)
        rows = []
        for i in range(count):
            label = 11 if i == bad_label_at else int(rng.integers(0, 10))
            rows.append(bytes([label]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes())
        path.write_bytes(b"".join(rows))

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "data_batch_1.bin"
        self.make_batch(p, count=3)
        images, labels = D.read_cifar_batch(p)
        assert images.shape == (3, 3, 32, 32)
        assert labels.shape == (3,)
        assert images.max() <= 1.0

    def test_truncation_detected(self, tmp_path):
        p = tmp_path / "data_batch_1.bin"
        self.make_batch(p, count=2)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(D.DatasetError, match="offset"):
            D.read_cifar_batch(p)

    def test_bad_label_detected(self, tmp_path):
        p = tmp_path / "data_batch_1.bin"
        self.make_batch(p, count=3, bad_label_at=1)
        with pytest.raises(D.DatasetError, match=f"offset {D._CIFAR_RECORD}"):
            D.read_cifar_batch(p)

    def test_full_layout(self, tmp_path):
        for i in range(1, 6):
            self.make_batch(tmp_path / f"data_batch_{i}.bin", count=2)
        self.make_batch(tmp_path / "test_batch.bin", count=3)
        train, test = D.load_cifar10(tmp_path)
        assert len(train) == 10 and len(test) == 3
        assert train.images.shape == (10, 3, 32, 32)

    def test_missing_batch(self, tmp_path):
        with pytest.raises(D.DatasetError, match="missing"):
            D.load_cifar10(tmp_path)


class TestAugment:
    def test_noop_flags_return_input_unchanged(self):
        rng = np.random.default_rng(0)
        images = rng.random((4, 1, 8, 8))
        out = D.augment_batch(images, rng, flip=False, crop_pad=0)
        assert out is images

    def test_flip_mirrors_some_samples(self):
        images = np.arange(2 * 1 * 2 * 3, dtype=float).reshape(2, 1, 2, 3)
        out = D.augment_batch(images, np.random.default_rng(3), flip=True)
        flipped = [np.array_equal(out[i], images[i, :, :, ::-1]) for i in range(2)]
        unchanged = [np.array_equal(out[i], images[i]) for i in range(2)]
        assert all(f or u for f, u in zip(flipped, unchanged))

    def test_crop_preserves_shape_and_is_deterministic(self):
        rng_img = np.random.default_rng(4)
        images = rng_img.random((5, 1, 8, 8))
        a = D.augment_batch(images, np.random.default_rng(7), crop_pad=2)
        b = D.augment_batch(images, np.random.default_rng(7), crop_pad=2)
        assert a.shape == images.shape
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, images)
