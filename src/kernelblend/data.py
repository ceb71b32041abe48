"""Dataset ingestion: synthetic coarse/fine blobs, MNIST IDX, CIFAR-10 binary.

The synthetic generator builds Gaussian-blob images whose classes come in
visually similar pairs: a size-coded group blob (coarse, easy) shared by
the pair plus a small relative detail (fine, hard) that tells the pair
apart. Easy/hard structure is what gives the confidence threshold something
to separate.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DatasetError(ValueError):
    """A data file failed validation (bad magic, truncation, bad label)."""


@dataclass
class Dataset:
    images: np.ndarray  # (M, C, H, W) float64 in [0, 1]
    labels: np.ndarray  # (M,) int64
    num_classes: int

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DatasetError(f"{len(self.images)} images vs {len(self.labels)} labels")

    def __len__(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# synthetic coarse/fine blobs


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 6
    clusters_per_class: int = 2
    image_size: int = 16
    noise: float = 0.08
    train_size: int = 960
    eval_size: int = 480
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.clusters_per_class < 1:
            raise ValueError("clusters_per_class must be >= 1")
        if self.image_size < 8:
            raise ValueError("image_size must be >= 8")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        for name in ("train_size", "eval_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _render(spec: SyntheticSpec, labels: np.ndarray, clusters: np.ndarray,
            centers: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One split's (M, H, W) images in [0, 1]: a size-coded group blob at each
    centre, a detail blob at a group-specific relative direction, and noise.

    Classes pair up as (0,1), (2,3), ...: the pair's blob width encodes the
    coarse group (visible even downsampled), while the class within the pair
    is the side the detail blob sits on. The detail axis rotates with the
    group and the whole figure is translated per sample, so absolute
    position carries no class information; only relative structure does.
    Clusters vary blob amplitude and detail distance for intra-class modes.
    """
    s = spec.image_size
    yy, xx = np.mgrid[0:s, 0:s]
    group, within = np.divmod(labels[:, None, None], 2)
    odd = clusters[:, None, None] % 2
    cy, cx = centers[:, 0, None, None], centers[:, 1, None, None]

    def blob(y, x, sigma, amp):
        return amp * np.exp(-(((yy - y) ** 2 + (xx - x) ** 2) / (2.0 * sigma ** 2)))

    img = blob(cy, cx, sigma=s * (0.09 + 0.045 * group), amp=0.9 - 0.15 * odd)
    n_groups = (spec.num_classes + 1) // 2
    ang = np.pi * group / n_groups + np.pi * within
    dist = s * (0.24 + 0.03 * odd)
    img += blob(cy + dist * np.sin(ang), cx + dist * np.cos(ang), sigma=s / 10.0, amp=0.55)
    img += spec.noise * noise
    return np.clip(img, 0.0, 1.0)


def _sample_split(spec: SyntheticSpec, count: int, rng: np.random.Generator) -> Dataset:
    s = spec.image_size
    margin = 0.3 * s
    labels = rng.integers(0, spec.num_classes, size=count)
    clusters = rng.integers(0, spec.clusters_per_class, size=count)
    centers = np.empty((count, 2))
    noise = np.empty((count, s, s))
    # centre, then noise, image by image: this order fixes the images a seed
    # gives, so drawing all centres first would change every dataset
    for i in range(count):
        centers[i] = rng.uniform(margin, s - 1 - margin, size=2)
        noise[i] = rng.standard_normal((s, s))
    images = _render(spec, labels, clusters, centers, noise)
    return Dataset(images=images[:, None], labels=labels, num_classes=spec.num_classes)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Deterministic (train, eval) pair for a spec; same seed, same bits."""
    rng = np.random.default_rng([spec.seed, 0xDA7A])
    train = _sample_split(spec, spec.train_size, rng)
    evalset = _sample_split(spec, spec.eval_size, rng)
    return train, evalset


# ---------------------------------------------------------------------------
# MNIST (IDX format)


def _open_maybe_gz(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, magic: int) -> np.ndarray:
    """The uint8 payload of an IDX file, shaped by its header. The magic's
    low byte is the dimension count; the file must end where the header
    says the payload does."""
    path = Path(path)
    with _open_maybe_gz(path) as fh:
        raw = fh.read()
    header = 4 + 4 * (magic & 0xFF)
    if len(raw) < header:
        raise DatasetError(f"{path}: truncated IDX header, {len(raw)} bytes at offset 0")
    found, *shape = struct.unpack(f">{header // 4}I", raw[:header])
    if found != magic:
        raise DatasetError(f"{path}: bad magic {found:#010x} at offset 0, expected {magic:#010x}")
    expected = header + math.prod(shape)
    if len(raw) != expected:
        raise DatasetError(f"{path}: expected {expected} bytes, file ends at offset {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(shape)


def read_idx_images(path) -> np.ndarray:
    return _read_idx(path, 2051).astype(np.float64) / 255.0


def read_idx_labels(path) -> np.ndarray:
    labels = _read_idx(path, 2049).astype(np.int64)
    if labels.size and labels.max() > 9:
        raise DatasetError(f"{Path(path)}: label {labels.max()} out of range [0, 9]")
    return labels


def _find_idx_file(root: Path, stem: str) -> Path:
    for candidate in (root / stem, root / f"{stem}.gz"):
        if candidate.exists():
            return candidate
    raise DatasetError(f"missing {stem}[.gz] under {root}")


def load_mnist(root) -> tuple[Dataset, Dataset]:
    """Standard four-file MNIST layout; the source split is preserved."""
    root = Path(root)
    splits = []
    for img_stem, lbl_stem in (
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    ):
        images = read_idx_images(_find_idx_file(root, img_stem))
        labels = read_idx_labels(_find_idx_file(root, lbl_stem))
        if len(images) != len(labels):
            raise DatasetError(f"{img_stem}: {len(images)} images vs {len(labels)} labels")
        splits.append(Dataset(images=images[:, None, :, :], labels=labels, num_classes=10))
    return splits[0], splits[1]


# ---------------------------------------------------------------------------
# CIFAR-10 (binary batches)

_CIFAR_RECORD = 1 + 3 * 32 * 32


def read_cifar_batch(path) -> tuple[np.ndarray, np.ndarray]:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) == 0 or len(raw) % _CIFAR_RECORD != 0:
        offset = (len(raw) // _CIFAR_RECORD) * _CIFAR_RECORD
        raise DatasetError(f"{path}: size {len(raw)} is not a multiple of {_CIFAR_RECORD}; bad record at offset {offset}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise DatasetError(f"{path}: label {labels[bad]} out of range at offset {bad * _CIFAR_RECORD}")
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return images, labels


def load_cifar10(root) -> tuple[Dataset, Dataset]:
    root = Path(root)
    train_parts = []
    for i in range(1, 6):
        path = root / f"data_batch_{i}.bin"
        if not path.exists():
            raise DatasetError(f"missing {path}")
        train_parts.append(read_cifar_batch(path))
    test_path = root / "test_batch.bin"
    if not test_path.exists():
        raise DatasetError(f"missing {test_path}")
    test_images, test_labels = read_cifar_batch(test_path)
    images = np.concatenate([p[0] for p in train_parts])
    labels = np.concatenate([p[1] for p in train_parts])
    return (
        Dataset(images=images, labels=labels, num_classes=10),
        Dataset(images=test_images, labels=test_labels, num_classes=10),
    )


# ---------------------------------------------------------------------------
# augmentation


def augment_batch(images: np.ndarray, rng: np.random.Generator,
                  flip: bool = False, crop_pad: int = 0) -> np.ndarray:
    """Random crop (zero padding) then horizontal flip, per sample."""
    out = images
    if crop_pad > 0:
        b, c, h, w = out.shape
        padded = np.pad(out, ((0, 0), (0, 0), (crop_pad, crop_pad), (crop_pad, crop_pad)))
        oy, ox = rng.integers(0, 2 * crop_pad + 1, size=(b, 2)).T
        # sample i's (h, w) window at (oy[i], ox[i]), gathered in one index
        out = sliding_window_view(padded, (h, w), axis=(2, 3))[np.arange(b), :, oy, ox]
    if flip:
        mask = rng.random(len(out)) < 0.5
        out = out.copy()
        out[mask] = out[mask, :, :, ::-1]
    return out
