"""Dataset ingestion: synthetic Gaussian blobs, CSV tables, and the
big-endian IDX image/label pair format. Also label flipping for the
noise-detection experiments.
"""

from __future__ import annotations

import csv
import math
import re
import struct

import numpy as np

from .errors import ConfigError, FormatError
from .model import Dataset

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

_BLOBS_RE = re.compile(
    r"^blobs\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,"
    r"\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*,\s*(\d+)\s*\)$"  # sep: what float() reads
)


def make_blobs(n: int, d: int, C: int, sep: float, seed: int) -> Dataset:
    """Gaussian clusters (unit covariance) with pairwise mean separation sep.

    Emits n train rows plus n//2 val and n//2 test rows drawn from the
    same mixture. Class labels are balanced round-robin then shuffled.
    """
    if C < 2 or C > d:
        raise ConfigError(f"blobs: need 2 <= C <= d, got C={C} d={d}")
    if n < C:
        raise ConfigError("blobs: need at least one point per class")
    rng = np.random.default_rng(seed)
    # Orthonormal directions scaled so every pair of means is sep apart.
    raw = rng.standard_normal((d, C))
    Q, _ = np.linalg.qr(raw)
    means = (sep / np.sqrt(2.0)) * Q[:, :C].T  # (C, d)

    def draw(count: int, sub: int):
        sub_rng = np.random.default_rng([seed, sub])
        labels = np.arange(count, dtype=np.int64) % C
        sub_rng.shuffle(labels)
        X = means[labels] + sub_rng.standard_normal((count, d))
        return X, labels

    n_val = max(n // 2, 1)
    n_test = max(n // 2, 1)
    X_tr, y_tr = draw(n, 0)
    X_va, y_va = draw(n_val, 1)
    X_te, y_te = draw(n_test, 2)
    split = np.concatenate(
        [
            np.full(n, "train", dtype=object),
            np.full(n_val, "val", dtype=object),
            np.full(n_test, "test", dtype=object),
        ]
    )
    return Dataset(
        features=np.vstack([X_tr, X_va, X_te]),
        labels=np.concatenate([y_tr, y_va, y_te]),
        split=split,
    )


def load_csv(path: str, label_column: str = "label") -> Dataset:
    """CSV with a header row; one named label column of nonnegative
    integers, the rest finite numeric features; a cell that is neither is
    a FormatError naming its row and column. All rows arrive tagged train;
    use split_dataset after."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty CSV file") from None
        if label_column not in header:
            raise FormatError(f"{path}: header has no column named {label_column!r}")
        label_idx = header.index(label_column)
        feat_cols = [i for i in range(len(header)) if i != label_idx]
        feats, labels = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
            try:
                labels.append(int(row[label_idx]))
            except ValueError:
                raise FormatError(
                    f"{path}: row {row_no}, column {label_column!r}: non-integer label {row[label_idx]!r}"
                ) from None
            if labels[-1] < 0:
                raise FormatError(
                    f"{path}: row {row_no}, column {label_column!r}: negative label {row[label_idx]!r}"
                )
            vals = []
            for i in feat_cols:
                try:
                    vals.append(float(row[i]))
                except ValueError:
                    raise FormatError(
                        f"{path}: row {row_no}, column {header[i]!r}: non-numeric cell {row[i]!r}"
                    ) from None
                if not math.isfinite(vals[-1]):
                    raise FormatError(
                        f"{path}: row {row_no}, column {header[i]!r}: non-finite cell {row[i]!r}"
                    )
            feats.append(vals)
    if not feats:
        raise FormatError(f"{path}: CSV has a header but no data rows")
    return Dataset(features=np.asarray(feats), labels=np.asarray(labels))


def _read_be32(f, path: str, what: str) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise FormatError(f"{path}: truncated while reading {what}")
    return struct.unpack(">i", data)[0]


def load_idx_pair(images_path: str, labels_path: str) -> Dataset:
    """Standard IDX image/label pair; pixels scaled to [0, 1], images
    flattened row-wise. All rows arrive tagged train."""
    with open(images_path, "rb") as f:
        magic = _read_be32(f, images_path, "magic")
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(f"{images_path}: magic 0x{magic:08x} != image magic 0x{IDX_IMAGE_MAGIC:08x}")
        count = _read_be32(f, images_path, "item count")
        rows = _read_be32(f, images_path, "row count")
        cols = _read_be32(f, images_path, "column count")
        raw = f.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise FormatError(f"{images_path}: pixel data truncated")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic = _read_be32(f, labels_path, "magic")
        if magic != IDX_LABEL_MAGIC:
            raise FormatError(f"{labels_path}: magic 0x{magic:08x} != label magic 0x{IDX_LABEL_MAGIC:08x}")
        lcount = _read_be32(f, labels_path, "item count")
        raw = f.read(lcount)
        if len(raw) != lcount:
            raise FormatError(f"{labels_path}: label data truncated")
        labels = np.frombuffer(raw, dtype=np.uint8)
    if count != lcount:
        raise FormatError(f"IDX pair mismatch: {count} images vs {lcount} labels")
    if count == 0:
        raise FormatError(f"{images_path}: IDX pair has no items")
    return Dataset(features=images.astype(np.float64) / 255.0, labels=labels.astype(np.int64))


def check_split_fractions(val_fraction: float, test_fraction: float) -> None:
    """Both fractions nonnegative and their sum below 1 (NaN fails)."""
    if not (val_fraction >= 0 and test_fraction >= 0 and val_fraction + test_fraction < 1):
        raise ConfigError("val/test fractions must be nonnegative and sum below 1")


def split_dataset(ds: Dataset, val_fraction: float, test_fraction: float, seed: int) -> Dataset:
    """Reassign split tags by a seeded shuffle."""
    check_split_fractions(val_fraction, test_fraction)
    n = ds.n
    order = np.random.default_rng(seed).permutation(n)
    n_val = int(round(val_fraction * n))
    n_test = int(round(test_fraction * n))
    split = np.full(n, "train", dtype=object)
    split[order[:n_val]] = "val"
    split[order[n_val : n_val + n_test]] = "test"
    return Dataset(features=ds.features, labels=ds.labels, split=split)


def ingest(source: str, label_column: str = "label") -> Dataset:
    """Parse a dataset source string.

    Accepted forms:
      blobs(n, d, C, sep, seed)     synthetic Gaussian clusters
      csv:<path>                    CSV table (or a bare path ending .csv)
      idx:<images>,<labels>         IDX binary pair
    """
    source = source.strip()
    m = _BLOBS_RE.match(source)
    if m:
        n, d, C = int(m.group(1)), int(m.group(2)), int(m.group(3))
        return make_blobs(n, d, C, float(m.group(4)), int(m.group(5)))
    if source.startswith("blobs"):
        raise ConfigError(f"malformed blobs spec {source!r}; expected blobs(n, d, C, sep, seed)")
    if source.startswith("idx:"):
        parts = source[4:].split(",")
        if len(parts) != 2:
            raise ConfigError("idx source must be idx:<images_path>,<labels_path>")
        return load_idx_pair(parts[0].strip(), parts[1].strip())
    if source.startswith("csv:"):
        return load_csv(source[4:].strip(), label_column)
    if source.endswith(".csv"):
        return load_csv(source, label_column)
    raise ConfigError(f"unrecognized dataset source {source!r}")


def flip_labels(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, np.ndarray]:
    """Flip a seeded random fraction of *train* labels to (y+1) mod C.

    Returns the noisy dataset and the flipped train-split positions.
    """
    if not 0.0 < fraction <= 0.5:
        raise ConfigError(f"flip fraction must lie in (0, 0.5], got {fraction}")
    C = int(ds.labels.max()) + 1
    rows = ds.indices("train")
    count = int(round(fraction * rows.size))
    picked = np.sort(np.random.default_rng(seed).choice(rows.size, size=count, replace=False))
    labels = ds.labels.copy()
    labels[rows[picked]] = (labels[rows[picked]] + 1) % C
    noisy = Dataset(features=ds.features, labels=labels, split=ds.split)
    return noisy, picked
