import re
import struct

import numpy as np
import pytest

from samattr import model as mod
from samattr.datasets import (
    flip_labels,
    ingest,
    load_csv,
    load_idx_pair,
    make_blobs,
    split_dataset,
)
from samattr.errors import ConfigError, FormatError
from samattr.model import ModelSpec
from samattr.samtrain import SAMConfig, train_sam


class TestMakeBlobs:
    def test_shapes_and_splits(self):
        ds = make_blobs(100, 5, 3, 2.0, seed=0)
        assert ds.n == 100 + 50 + 50
        assert ds.d == 5
        assert ds.indices("train").size == 100
        assert ds.indices("val").size == 50
        assert ds.indices("test").size == 50

    def test_balanced_labels(self):
        ds = make_blobs(99, 4, 3, 2.0, seed=1)
        train_labels = ds.labels[ds.indices("train")]
        counts = np.bincount(train_labels, minlength=3)
        assert counts.tolist() == [33, 33, 33]

    def test_deterministic(self):
        a = make_blobs(40, 3, 2, 2.0, seed=5)
        b = make_blobs(40, 3, 2, 2.0, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_mean_separation(self):
        # Empirical class means should be close to `sep` apart.
        ds = make_blobs(2000, 6, 3, 4.0, seed=2)
        rows = ds.indices("train")
        X, y = ds.features[rows], ds.labels[rows]
        means = np.stack([X[y == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(means[i] - means[j]) == pytest.approx(4.0, abs=0.3)

    def test_separable_blobs_are_learnable(self):
        ds = make_blobs(80, 5, 2, 4.0, seed=3)
        spec = ModelSpec(kind="logistic", layer_sizes=(5, 2))
        cfg = SAMConfig(rho=0.0, lam=0.001, eta=0.5, batch_size=80, steps=500, seed=3)
        params, _ = train_sam(spec, ds, cfg)
        assert mod.accuracy(spec, params, ds, "train") > 0.99

    def test_rejects_bad_class_count(self):
        with pytest.raises(ConfigError):
            make_blobs(10, 3, 5, 2.0, seed=0)  # C > d
        with pytest.raises(ConfigError):
            make_blobs(10, 3, 1, 2.0, seed=0)


class TestCSV:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n3.5,-1.0,1\n")
        ds = load_csv(str(path))
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.5, -1.0]])
        assert ds.labels.tolist() == [0, 1]
        assert ds.indices("train").size == 2

    def test_label_column_anywhere(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,a\n1,5.0\n0,6.0\n")
        ds = load_csv(str(path), label_column="y")
        assert ds.labels.tolist() == [1, 0]
        np.testing.assert_array_equal(ds.features, [[5.0], [6.0]])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError, match="label"):
            load_csv(str(path))

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n1.0,0\n2.0\n")
        with pytest.raises(FormatError, match="row 3"):
            load_csv(str(path))

    def test_non_numeric_cell_reports_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\nfoo,0\n")
        with pytest.raises(FormatError, match="'a'"):
            load_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_row_and_column(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"a,b,label\n1.0,2.0,0\n3.0,{cell},1\n")
        with pytest.raises(FormatError, match=f"data.csv: row 3, column 'b': non-finite cell '{cell}'"):
            load_csv(str(path))

    def test_negative_label_reports_row_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n1.0,0\n2.0,1\n3.0,-2\n")
        with pytest.raises(FormatError, match="data.csv: row 4, column 'label': negative label '-2'"):
            load_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_csv(str(path))

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\ufefflabel,a\n1,5.0\n0,6.0\n", encoding="utf-8")
        ds = load_csv(str(path))
        assert ds.labels.tolist() == [1, 0]
        np.testing.assert_array_equal(ds.features, [[5.0], [6.0]])

    def test_header_only(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n")
        with pytest.raises(FormatError, match="no data rows"):
            load_csv(str(path))


def write_idx_pair(tmp_path, count=10, rows=28, cols=28):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=count, dtype=np.uint8)
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">iiii", 0x803, count, rows, cols))
        f.write(pixels.tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">ii", 0x801, count))
        f.write(labels.tobytes())
    return img_path, lbl_path, pixels, labels


class TestIDX:
    def test_round_trip(self, tmp_path):
        img, lbl, pixels, labels = write_idx_pair(tmp_path)
        ds = load_idx_pair(str(img), str(lbl))
        assert ds.features.shape == (10, 28 * 28)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        np.testing.assert_allclose(ds.features, pixels.reshape(10, -1) / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_bad_image_magic(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path)
        data = bytearray(img.read_bytes())
        data[3] = 0x99
        img.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_idx_pair(str(img), str(lbl))

    def test_truncated_pixels(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path)
        data = img.read_bytes()
        img.write_bytes(data[:-100])
        with pytest.raises(FormatError, match="truncated"):
            load_idx_pair(str(img), str(lbl))

    def test_count_mismatch(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path)
        rng = np.random.default_rng(1)
        with open(lbl, "wb") as f:
            f.write(struct.pack(">ii", 0x801, 7))
            f.write(rng.integers(0, 10, size=7, dtype=np.uint8).tobytes())
        with pytest.raises(FormatError, match="mismatch"):
            load_idx_pair(str(img), str(lbl))

    def test_empty_pair(self, tmp_path):
        # Like a header-only CSV: a FormatError naming the file, not an empty Dataset.
        img, lbl, _, _ = write_idx_pair(tmp_path, count=0)
        with pytest.raises(FormatError, match=f"^{re.escape(str(img))}: IDX pair has no items$"):
            load_idx_pair(str(img), str(lbl))

    @pytest.mark.parametrize("count, rows, cols, pixels", [
        (-1, -1, 1, 6),  # once a bare ValueError from reshape
        (-2, 1, 1, 6),
        (2**31 - 1, 2**31 - 1, 2**31 - 1, 6),  # once an OverflowError
        (1, -2, -3, 6),  # once a silent (1, 6) image
    ])
    def test_sizes_the_file_cannot_hold(self, tmp_path, count, rows, cols, pixels):
        # IDX sizes are unsigned: read so, each of these asks for more
        # bytes than the file holds.
        img, lbl, _, _ = write_idx_pair(tmp_path, count=1, rows=2, cols=3)
        img.write_bytes(struct.pack(">iiii", 0x803, count, rows, cols) + bytes(pixels))
        with pytest.raises(FormatError, match=f"^{re.escape(str(img))}: item data truncated: "):
            load_idx_pair(str(img), str(lbl))

    def test_item_size_no_array_holds(self, tmp_path):
        # No items, so no bytes are missing, but no array axis spans the size.
        img, lbl, _, _ = write_idx_pair(tmp_path, count=0)
        img.write_bytes(struct.pack(">IIII", 0x803, 0, 2**32 - 1, 2**32 - 1))
        with pytest.raises(FormatError, match=f"^{re.escape(str(img))}: item size "):
            load_idx_pair(str(img), str(lbl))

    @pytest.mark.parametrize("which, keep, needs", [("images", 10, 16), ("labels", 6, 8)])
    def test_header_cut_short(self, tmp_path, which, keep, needs):
        img, lbl, _, _ = write_idx_pair(tmp_path)
        path = img if which == "images" else lbl
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: header truncated: "
                                              f"{keep} bytes, the header needs {needs}$"):
            load_idx_pair(str(img), str(lbl))

    def test_bad_label_magic(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path)
        lbl.write_bytes(struct.pack(">i", 0x803) + lbl.read_bytes()[4:])
        with pytest.raises(FormatError, match=f"^{re.escape(str(lbl))}: magic 0x00000803 "):
            load_idx_pair(str(img), str(lbl))

    def test_trailing_bytes_ignored(self, tmp_path):
        img, lbl, pixels, labels = write_idx_pair(tmp_path)
        img.write_bytes(img.read_bytes() + b"\x07" * 5)
        lbl.write_bytes(lbl.read_bytes() + b"\x07" * 3)
        ds = load_idx_pair(str(img), str(lbl))
        np.testing.assert_array_equal(ds.features, pixels.reshape(10, -1) / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)


class TestSplitDataset:
    def test_fractions(self):
        ds = make_blobs(100, 4, 2, 2.0, seed=0)
        resplit = split_dataset(ds, 0.25, 0.25, seed=1)
        assert resplit.indices("val").size == 50
        assert resplit.indices("test").size == 50
        assert resplit.indices("train").size == 100

    def test_deterministic(self):
        ds = make_blobs(50, 4, 2, 2.0, seed=0)
        a = split_dataset(ds, 0.2, 0.2, seed=9)
        b = split_dataset(ds, 0.2, 0.2, seed=9)
        np.testing.assert_array_equal(a.split, b.split)

    def test_rejects_bad_fractions(self):
        ds = make_blobs(20, 4, 2, 2.0, seed=0)
        with pytest.raises(ConfigError):
            split_dataset(ds, 0.6, 0.5, seed=0)


class TestIngest:
    def test_blobs_spec(self):
        ds = ingest("blobs(30, 4, 2, 2.5, 7)")
        assert ds.indices("train").size == 30
        assert ds.d == 4

    def test_malformed_blobs(self):
        with pytest.raises(ConfigError):
            ingest("blobs(30, 4)")

    @pytest.mark.parametrize("sep", ["3.", ".5", "+1E+1", "-1e-2", "3"])
    def test_blobs_separation_in_any_float_form(self, sep):
        assert ingest(f"blobs(30, 4, 2, {sep}, 7)").labels.tolist() == \
            make_blobs(30, 4, 2, float(sep), 7).labels.tolist()

    @pytest.mark.parametrize("sep", ["1e", "1.2.3", "1e+", ".", "+-1", "1e5.0"])
    def test_blobs_separation_float_refuses(self, sep):
        with pytest.raises(ConfigError, match="^malformed blobs spec "):
            ingest(f"blobs(20, 3, 2, {sep}, 1)")

    def test_csv_prefix(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label\n1,0\n2,1\n")
        assert ingest(f"csv:{path}").n == 2
        assert ingest(str(path)).n == 2  # bare .csv path

    def test_idx_prefix(self, tmp_path):
        img, lbl, _, _ = write_idx_pair(tmp_path, count=4, rows=2, cols=2)
        ds = ingest(f"idx:{img},{lbl}")
        assert ds.n == 4 and ds.d == 4

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            ingest("parquet:whatever")


class TestFlipLabels:
    def test_flip_count_and_positions(self):
        ds = make_blobs(100, 4, 3, 2.0, seed=0)
        noisy, picked = flip_labels(ds, 0.1, seed=1)
        assert picked.size == 10
        rows = ds.indices("train")
        changed = np.nonzero(noisy.labels != ds.labels)[0]
        np.testing.assert_array_equal(changed, rows[picked])
        # Flips rotate the label by one class.
        np.testing.assert_array_equal(
            noisy.labels[rows[picked]], (ds.labels[rows[picked]] + 1) % 3
        )

    def test_only_train_rows_touched(self):
        ds = make_blobs(60, 4, 2, 2.0, seed=2)
        noisy, _ = flip_labels(ds, 0.5, seed=3)
        for split in ("val", "test"):
            idx = ds.indices(split)
            np.testing.assert_array_equal(noisy.labels[idx], ds.labels[idx])

    def test_fraction_bounds(self):
        ds = make_blobs(20, 4, 2, 2.0, seed=0)
        with pytest.raises(ConfigError):
            flip_labels(ds, 0.0, seed=0)
        with pytest.raises(ConfigError):
            flip_labels(ds, 0.7, seed=0)
