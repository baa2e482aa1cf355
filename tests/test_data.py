"""Synthetic generation, splits, batching and the dataset file format."""

import hashlib
import json
import os
import struct
import time
import tracemalloc
import types

import numpy as np
import pytest

from xmodal import data as data_module
from xmodal.data import (FORMAT_HEADER, SynthConfig, TupleDataset, _load_columns,
                         batch_iter, file_sha256, generate_synthetic, load_dataset,
                         read_container, save_dataset, split, stack_features,
                         write_container)
from xmodal.cli import read_kv, typed_config
from xmodal.errors import ContractError, DatasetFormatError, DegenerateInputError

from index_rows import label_layout, label_sets, with_labels
from reference_archive import save_dataset_per_row
from reference_synth import generate_per_tuple

CFG = SynthConfig(num_classes=5, num_tuples=100, input_dim=12, latent_dim=6,
                  noise_sigma=0.05, seed=3)


class TestGenerateSynthetic:
    def test_counts(self):
        ds = generate_synthetic(CFG)
        assert len(ds) == 100
        assert sum(len(f) for f in ds.features) == 200
        assert all(max(labels) < 5 for labels in label_sets(ds))

    def test_same_seed_bit_identical(self):
        d1, d2 = generate_synthetic(CFG), generate_synthetic(CFG)
        for f1, f2 in zip(d1.features, d2.features):
            np.testing.assert_array_equal(f1, f2)
        assert _layout(d1) == _layout(d2)

    def test_different_seed_differs(self):
        other = SynthConfig(**{**CFG.__dict__, "seed": 4})
        d1, d2 = generate_synthetic(CFG), generate_synthetic(other)
        assert any(not np.array_equal(r1, r2)
                   for f1, f2 in zip(d1.features, d2.features)
                   for r1, r2 in zip(f1, f2))

    def test_within_class_clustering_noiseless(self):
        cfg = SynthConfig(num_classes=4, num_tuples=80, input_dim=16, latent_dim=8,
                          noise_sigma=0.0, seed=5)
        ds = generate_synthetic(cfg)
        feats = stack_features(ds, np.arange(len(ds)))[0]
        labels = [next(iter(labels)) for labels in label_sets(ds)]
        within, cross = [], []
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                d = np.linalg.norm(feats[i] - feats[j])
                (within if labels[i] == labels[j] else cross).append(d)
        assert np.mean(within) < np.mean(cross)

    def test_multi_label_sizes(self):
        cfg = SynthConfig(num_classes=6, num_tuples=50, multi_label=True,
                          labels_per_tuple=(1, 3), seed=6)
        ds = generate_synthetic(cfg)
        sizes = {len(labels) for labels in label_sets(ds)}
        assert sizes <= {1, 2, 3} and len(sizes) > 1

    def test_alignment_invariant(self):
        ds = generate_synthetic(CFG)
        # one row per tuple id in each modality's matrix and in the label offsets
        assert all(len(f) == len(ds.ids) for f in ds.features)
        assert len(ds.label_offsets) == len(ds.ids) + 1

    @pytest.mark.parametrize("multi_label", [False, True])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
    @pytest.mark.parametrize("num_modalities", [2, 3])
    @pytest.mark.parametrize("latent_dim", [1, 16])
    def test_matches_per_tuple_reference(self, multi_label, noise_sigma, num_modalities,
                                         latent_dim):
        # up to 12 labels a tuple: at latent_dim 1 a sum of 8 or more prototype rows is
        # one contiguous reduction, which NumPy adds pairwise, not row by row
        for seed, labels_per_tuple in [(0, (1, 3)), (1, (1, 12)), (2, (2, 5)), (3, (12, 12))]:
            cfg = SynthConfig(num_classes=12, num_tuples=60, input_dim=32,
                              latent_dim=latent_dim, noise_sigma=noise_sigma,
                              num_modalities=num_modalities, multi_label=multi_label,
                              labels_per_tuple=labels_per_tuple, seed=seed)
            ds = generate_synthetic(cfg)
            ids, features, offsets, label_ids = generate_per_tuple(cfg)
            assert np.array_equal(ds.ids, ids)
            assert len(ds.features) == num_modalities
            # bytes, not values: a -0.0 for a 0.0 would change the archive's text
            assert all(f.tobytes() == g.tobytes() for f, g in zip(ds.features, features))
            assert np.array_equal(ds.label_offsets, offsets)
            assert np.array_equal(ds.label_ids, label_ids)


class TestSplit:
    def test_paper_ratios(self):
        ds = generate_synthetic(CFG)
        tr, va, te = split(ds, (0.52, 0.24, 0.24), seed=0)
        assert (len(tr), len(va), len(te)) == (52, 24, 24)

    def test_partition_property(self):
        ds = generate_synthetic(CFG)
        tr, va, te = split(ds, (0.5, 0.25, 0.25), seed=1)
        ids = [set(p.ids.tolist()) for p in (tr, va, te)]
        assert ids[0] | ids[1] | ids[2] == set(ds.ids.tolist())
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])

    def test_gathered_labels_equal_each_rows_labels(self):
        ds = generate_synthetic(SynthConfig(num_classes=6, num_tuples=90, multi_label=True,
                                            seed=2))
        sets = label_sets(ds)
        sets[:3] = [frozenset()] * 3   # empty sets at the start, middle and end
        sets[45] = sets[-1] = frozenset()
        ds = with_labels(ds, sets)
        for part in split(ds, (0.5, 0.25, 0.25), seed=3):
            rows = [ds.ids.tolist().index(tid) for tid in part.ids.tolist()]
            assert label_sets(part) == [sets[row] for row in rows]
            assert _layout(part) == tuple(arr.tolist() for arr in
                                          label_layout([sets[row] for row in rows]))

    def test_remainder_goes_to_train(self):
        ds = generate_synthetic(SynthConfig(num_tuples=101, seed=7))
        tr, va, te = split(ds, (0.52, 0.24, 0.24), seed=0)
        assert (len(tr), len(va), len(te)) == (53, 24, 24)

    def test_degenerate_rejected(self):
        ds = generate_synthetic(CFG)
        with pytest.raises(ContractError):
            split(ds, (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ContractError):
            split(ds, (0.5, 0.3, 0.3), seed=0)

    def test_deterministic(self):
        ds = generate_synthetic(CFG)
        a = split(ds, (0.52, 0.24, 0.24), seed=9)
        b = split(ds, (0.52, 0.24, 0.24), seed=9)
        for pa, pb in zip(a, b):
            assert pa.ids.tolist() == pb.ids.tolist()


class TestBatchIter:
    def test_sizes_with_partial_batch(self):
        ds = generate_synthetic(SynthConfig(num_tuples=10, seed=8))
        sizes = [len(b) for b in batch_iter(ds, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_trailing_singleton_dropped(self):
        ds = generate_synthetic(SynthConfig(num_tuples=13, seed=8))
        sizes = [len(b) for b in batch_iter(ds, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 4]

    def test_same_key_same_order(self):
        ds = generate_synthetic(CFG)
        order = lambda e: ds.ids[np.concatenate(list(batch_iter(ds, 8, 1, e)))].tolist()
        assert order(3) == order(3)
        assert order(3) != order(4)

    def test_epoch_covers_each_tuple_once(self):
        ds = generate_synthetic(CFG)
        seen = ds.ids[np.concatenate(list(batch_iter(ds, 8, 0, 0)))].tolist()
        assert len(seen) == len(set(seen))

    def test_single_batch(self):
        ds = generate_synthetic(SynthConfig(num_tuples=256, seed=9))
        assert [len(b) for b in batch_iter(ds, 256, 0, 0)] == [256]

    def test_t1_rejected(self):
        ds = generate_synthetic(CFG)
        with pytest.raises(ContractError):
            list(batch_iter(ds, 1, 0, 0))


def _columns(path):
    """``_load_columns`` of the archive at ``path``, given its text's digest; None, as
    load_dataset reads no sidecar, if the text cannot be opened."""
    try:
        return _load_columns(str(path), file_sha256(path))
    except FileNotFoundError:
        return None


def _save(ds, path, sidecar):
    """save_dataset, then the sidecar kept (and trusted) or removed, so that a
    round trip tests the sidecar or the text parse."""
    save_dataset(ds, path)
    if sidecar == "removed":
        os.remove(f"{path}.cols")
    assert (_columns(path) is not None) == (sidecar == "kept")


SIDECAR = pytest.mark.parametrize("sidecar", ["kept", "removed"])


class TestFileRoundTrip:
    @SIDECAR
    def test_save_load_value_identical(self, tmp_path, sidecar):
        ds = generate_synthetic(CFG)
        path = tmp_path / "ds.txt"
        _save(ds, path, sidecar)
        loaded = load_dataset(path)
        assert loaded.num_modalities == ds.num_modalities
        assert len(loaded) == len(ds)
        for f1, f2 in zip(ds.features, loaded.features):
            np.testing.assert_array_equal(f1, f2)
        assert _layout(loaded) == _layout(ds)

    @SIDECAR
    def test_special_values_round_trip_bit_exact(self, tmp_path, sidecar):
        values = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1])
        ds = TupleDataset([3, 8], [np.stack([values, -values]),
                                   np.stack([values[::-1], values / 3])],
                          *label_layout([{0}, {0, 1}]), 2)
        path = tmp_path / "ds.txt"
        _save(ds, path, sidecar)
        assert "-0,4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001" \
            in path.read_text()
        loaded = load_dataset(path)
        assert loaded.ids.tolist() == [3, 8] and _layout(loaded) == _layout(ds)
        for a, b in zip(ds.features, loaded.features):
            assert a.tobytes() == b.tobytes()

    @SIDECAR
    def test_loaded_floats_are_float_of_their_text(self, tmp_path, sidecar):
        ds = generate_synthetic(SynthConfig(num_tuples=300, input_dim=5, seed=4))
        path = tmp_path / "ds.txt"
        _save(ds, path, sidecar)
        loaded = load_dataset(path)
        for line in path.read_text().splitlines()[1:]:
            tid, m, feats, _ = line.split("\t")
            row = loaded.features[int(m)][loaded.ids.tolist().index(int(tid))]
            assert row.tobytes() == np.array([float(v) for v in feats.split(",")]).tobytes()
        assert all(f.flags.c_contiguous and f.dtype == np.float64 for f in loaded.features)

    def test_byte_identical_rewrites(self, tmp_path):
        ds = generate_synthetic(CFG)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_extra_field_rejected_with_line(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_tuples=10, seed=1))
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[3] += "\tunexpected"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 4"):
            load_dataset(path)

    def test_truncated_file_names_last_good_line(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_tuples=10, seed=1))
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])  # cut mid-record
        with pytest.raises(DatasetFormatError, match="last good line"):
            load_dataset(path)

    def test_missing_modality_rejected(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_tuples=10, seed=1))
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        del lines[2]  # drop one record of a tuple
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="modalities"):
            load_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("not a dataset\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(path)

    def test_mismatched_labels_rejected(self, tmp_path):
        path = tmp_path / "ds.txt"
        save_dataset(TupleDataset([0], [np.ones((1, 2)), np.ones((1, 2))],
                                  *label_layout([{1}]), 2), path)
        text = path.read_text().replace("\t1\n", "\t0\n", 1)
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match="mismatched label"):
            load_dataset(path)


def _set_field(lines, i, f, value):
    parts = lines[i].split("\t")
    parts[f] = value
    lines[i] = "\t".join(parts)


def _set_feature(lines, i, value):
    parts = lines[i].split("\t")
    parts[2] = ",".join([value, *parts[2].split(",")[1:]])
    lines[i] = "\t".join(parts)


def _append(lines, i, text):
    lines[i] += text


def _drop_feature(lines, i):
    _set_field(lines, i, 2, lines[i].split("\t")[2].partition(",")[2])


# ARCHIVE_CFG saved, as a list of lines: item i is line i + 1, tuple (i - 1) // 2,
# modality (i - 1) % 2. Items 1..256 were the first chunk of an earlier bulk parse.
ARCHIVE_CFG = SynthConfig(num_tuples=150, input_dim=3, num_classes=4, seed=1)
# Each message is the one the line-by-line parse gives.
MALFORMED = [
    pytest.param([(_append, 280, "\textra")], DatasetFormatError,
                 "line 281: expected 4 tab-separated fields, got 5 (last good line 280)",
                 id="field count"),
    pytest.param([(_set_field, 10, 0, "x")], DatasetFormatError,
                 "line 11: invalid literal for int() with base 10: 'x' (last good line 10)",
                 id="tuple id"),
    pytest.param([(_set_feature, 270, "abc")], DatasetFormatError,
                 "line 271: could not convert string to float: 'abc' (last good line 270)",
                 id="float"),
    # np.loadtxt alone would read this number as 0.5
    pytest.param([(_set_feature, 120, "0.5\x1c")], DatasetFormatError,
                 "line 121: could not convert string to float: '0.5\\x1c' (last good line 120)",
                 id="separator"),
    pytest.param([(_drop_feature, 5)], DatasetFormatError,
                 "line 6: feature length 2 != dim=3", id="feature length"),
    pytest.param([(_set_field, 7, 1, "2")], DatasetFormatError,
                 "line 8: modality 2 >= N=2", id="modality"),
    pytest.param([(_set_field, 300, 3, "9")], DatasetFormatError,
                 "line 301: label id outside vocabulary", id="label"),
    pytest.param([(_set_feature, 261, "nan")], ContractError,
                 "tuple 130: non-finite features", id="non-finite"),
    pytest.param([(list.__delitem__, 101)], DatasetFormatError,
                 "tuple 50 has 1 of 2 modalities", id="missing modality"),
    pytest.param([(_set_field, 51, 3, "0,1")], DatasetFormatError,
                 "tuple 25 has mismatched label sets", id="label sets"),
    pytest.param([(_set_feature, 40, "inf"), (_set_feature, 200, "abc")], ContractError,
                 "tuple 19: non-finite features", id="non-finite, then float"),
    pytest.param([(_set_feature, 30, "1.5e"), (_append, 250, "\tx")], DatasetFormatError,
                 "line 31: could not convert string to float: '1.5e' (last good line 30)",
                 id="float, then field count"),
    pytest.param([(_set_feature, 100, "-inf"), (_set_field, 280, 1, "7")], ContractError,
                 "tuple 49: non-finite features", id="non-finite, then modality next chunk"),
]


class TestLoaderErrors:
    @pytest.fixture(scope="class")
    def archive_lines(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("archive") / "ds.txt"
        save_dataset(generate_synthetic(ARCHIVE_CFG), path)
        return path.read_text().splitlines()

    @pytest.mark.parametrize("edits, error, message", MALFORMED)
    def test_first_bad_line_named(self, archive_lines, tmp_path, edits, error, message):
        lines = list(archive_lines)
        for edit, *args in edits:
            edit(lines, *args)
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error) as exc:
            load_dataset(path)
        assert type(exc.value) is error and str(exc.value) == message

    def test_repeated_record_rejected(self, archive_lines, tmp_path):
        # a second line for tuple 9, modality 0, after the first; it used to replace it
        lines = list(archive_lines)
        lines.insert(20, lines[19].replace(lines[19].split("\t")[2], "0,0,0"))
        path = tmp_path / "dup.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=r"^line 21: tuple 9 modality 0 given twice$"):
            load_dataset(path)

    @pytest.mark.parametrize("modality, labels, message", [
        ("-1", "0", "line 4: modality -1 < 0"),
        ("0", "-1", "line 4: label id outside vocabulary"),
    ])
    def test_negative_modality_and_label_rejected(self, archive_lines, tmp_path,
                                                  modality, labels, message):
        lines = list(archive_lines)
        _set_field(lines, 3, 1, modality)
        _set_field(lines, 3, 3, labels)
        path = tmp_path / "neg.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=f"^{message}$"):
            load_dataset(path)

    def test_modality_count_beyond_memory(self, tmp_path):
        # the header's N sizes nothing: a tuple's lines are counted as they come
        path = tmp_path / "huge_n.txt"
        path.write_text(f"{FORMAT_HEADER} N=1000000000000 dim=1 labels=2\n0\t0\t0.5\t1\n")
        with pytest.raises(DatasetFormatError,
                           match="^tuple 0 has 1 of 1000000000000 modalities$"):
            load_dataset(path)

    def test_header_without_tuple_lines_rejected(self, tmp_path):
        # nothing is built per modality: the header's N sizes no work either
        path = tmp_path / "no_tuples.txt"
        path.write_text(f"{FORMAT_HEADER} N=100000 dim=1 labels=2\n")
        with pytest.raises(DatasetFormatError, match="^no tuple lines after the header$"):
            load_dataset(path)

    def test_empty_feature_fields(self, tmp_path, recwarn):
        # one feature per record, every field empty: np.loadtxt would skip such lines
        path = tmp_path / "empty.txt"
        path.write_text(f"{FORMAT_HEADER} N=2 dim=1 labels=2\n0\t0\t\t1\n0\t1\t\t1\n")
        with pytest.raises(DatasetFormatError, match=r"^line 2: could not convert string "
                                                     r"to float: '' \(last good line 1\)$"):
            load_dataset(path)
        assert not recwarn.list

    @SIDECAR
    def test_all_zero_record_rejected(self, tmp_path, sidecar):
        # a record whose features are all zero (-0.0 is zero) has no direction; the
        # first by tuple, then by modality, is named
        ds = _small(ids=(4, 7, 9))
        ds.features[0, 2] = 0.0
        ds.features[1, 1] = [0.0, -0.0]
        path = tmp_path / "zero.txt"
        _save(ds, path, sidecar)
        with pytest.raises(DegenerateInputError,
                           match="^tuple 7 modality 1: zero-norm features$"):
            load_dataset(path)
        ds.features[:, 1:] = [5e-324, 0.0]   # tiny, but not zero: it loads
        _save(ds, path, sidecar)
        np.testing.assert_array_equal(load_dataset(path).features, ds.features)

    def test_values_float_accepts_but_bulk_parse_does_not(self, archive_lines, tmp_path):
        # underscores and surrounding spaces are valid for float(): the archive
        # loads, through the line-by-line parse, with float()'s values
        lines = list(archive_lines)
        _set_feature(lines, 3, "1_5")
        _set_feature(lines, 200, " -2.5 ")
        path = tmp_path / "odd.txt"
        path.write_text("\n".join(lines) + "\n")
        ds = load_dataset(path)
        assert ds.features[0][1][0] == 15.0 and ds.features[1][99][0] == -2.5


def _outcome(path):
    """What load_dataset gives: the dataset's columns, or the error's type and message."""
    try:
        ds = load_dataset(path)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.ids.tobytes(), [f.tobytes() for f in ds.features], _layout(ds), ds.num_labels


def _layout(ds):
    return ds.label_offsets.tolist(), ds.label_ids.tolist()


def _rows(*rows):
    return np.array(rows, dtype=np.float64)


def _small(ids=(0, 1, 2), value=0.5, labels=({0}, {1}, set())):
    return TupleDataset(list(ids), [_rows([1.0, 2.0], [value, -1.0], [3.0, 4.0]),
                                    _rows([0.0, 1.0], [2.0, 3.0], [-2.0, 5.0])],
                        *label_layout(labels), 2)


def _edit_text(edit, *args):
    def mutate(path):
        lines = path.read_text().splitlines()
        edit(lines, *args)
        path.write_text("\n".join(lines) + "\n")
    return mutate


def _edit_sidecar(change):
    def mutate(path):
        with open(f"{path}.cols", "r+b") as fh:
            blob = change(fh.read())
            fh.seek(0)
            fh.truncate()
            fh.write(blob)
    return mutate


def _forge(change):
    """Changes the int64 words of the sidecar's payload and writes their digest, so
    that only the structural checks can reject it. _small()'s payload: counts 0-4,
    ids 5-7, features 8-19, label offsets 20-23 ([0, 1, 2, 2]), label ids 24-25."""
    def forged(blob):
        magic, version, size = struct.unpack_from("<6sII", blob)
        header = json.loads(blob[14:14 + size])
        words = change(np.frombuffer(blob, "<i8", offset=14 + size).copy()).tobytes()
        header["payload_sha256"] = hashlib.sha256(words).hexdigest()
        raw = json.dumps(header).encode()
        return struct.pack("<6sII", magic, version, len(raw)) + raw + words
    return _edit_sidecar(forged)


def _set_words(start, *values):
    def change(words):
        words[start:start + len(values)] = values
        return words
    return change


SIDECAR_EQUALS_TEXT = {
    "extreme values": TupleDataset(
        [3, 8], [_rows([-0.0, 5e-324, 1.7976931348623157e308], [-5e-324, 0.1, -0.0]),
                 _rows([1.7976931348623157e308, -0.0, 2.5],
                       [5e-324, -1.7976931348623157e308, 1.0])],
        *label_layout([{0}, {0, 1}]), 2),
    "empty label set": _small(),
    "3 modalities": generate_synthetic(SynthConfig(
        num_tuples=30, num_modalities=3, input_dim=5, multi_label=True, num_classes=6,
        seed=6)),
}

SIDECAR_REJECTED = [
    pytest.param(_small(), _edit_text(_set_feature, 1, "0.25"), id="text value changed"),
    pytest.param(_small(), _edit_text(_append, 2, "\textra"), id="text line malformed"),
    pytest.param(_small(), _edit_sidecar(lambda b: b[:len(b) // 2]), id="sidecar truncated"),
    # the lowest byte of the last feature: a finite value one ulp away
    pytest.param(_small(), _edit_sidecar(lambda b: b[:-56] + bytes([b[-56] ^ 1]) + b[-55:]),
                 id="payload byte flipped"),
    pytest.param(_small(), _edit_sidecar(lambda b: b"Y" + b[1:]), id="wrong magic"),
    pytest.param(_small(), _edit_sidecar(lambda b: b[:6] + struct.pack("<I", 2) + b[10:]),
                 id="version 2"),
    pytest.param(_small(), lambda path: path.unlink(), id="text missing"),
    pytest.param(_small(), _forge(_set_words(20, 1, 1)), id="label offsets not from 0"),
    pytest.param(_small(), _forge(_set_words(22, 1, 1)), id="label offsets short of the end"),
    pytest.param(_small(), _forge(_set_words(21, 2, 1)), id="label offsets decreasing"),
    pytest.param(_small(), _forge(lambda words: np.append(words, 0)), id="a word too many"),
    pytest.param(_small(), _forge(_set_words(24, 2)), id="label id forged past the range"),
    pytest.param(_small(), _forge(_set_words(25, -1)), id="label id forged negative"),
    # tuple 0 given both label ids, in forms that only the ascending check rejects
    pytest.param(_small(), _forge(_set_words(21, 2, 2, 2, 0, 0)), id="label id repeated"),
    pytest.param(_small(), _forge(_set_words(21, 2, 2, 2, 1, 0)),
                 id="label ids descending within a tuple"),
    pytest.param(_small(ids=(4, 1, 2)), None, id="unsorted ids"),
    pytest.param(_small(ids=(1, 1, 2)), None, id="repeated id"),
    pytest.param(_small(value=np.nan), None, id="NaN feature"),
    pytest.param(TupleDataset([0, 1], [np.empty((2, 0))] * 2, [0, 0, 0], [], 1), None,
                 id="zero dim"),
    pytest.param(_small(labels=({0}, {2}, set())), None, id="label outside [0, labels)"),
]


class TestSidecar:
    """The sidecar <archive>.cols is used only when it is provably the text's columns."""

    @pytest.mark.parametrize("ds", SIDECAR_EQUALS_TEXT.values(), ids=SIDECAR_EQUALS_TEXT.keys())
    def test_sidecar_loads_as_the_text(self, tmp_path, ds):
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        assert _columns(path) is not None
        assert all(f.flags.writeable for f in load_dataset(path).features)
        from_sidecar = _outcome(path)
        os.remove(f"{path}.cols")
        assert from_sidecar == _outcome(path)

    @pytest.mark.parametrize("ds, mutate", SIDECAR_REJECTED)
    def test_rejected_sidecar_gives_the_text_outcome(self, tmp_path, ds, mutate):
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        assert os.path.isfile(f"{path}.cols")
        if mutate:
            mutate(path)
        assert _columns(path) is None
        with_sidecar = _outcome(path)
        os.remove(f"{path}.cols")
        assert with_sidecar == _outcome(path)

    def test_columns_are_aligned_writable_views(self, tmp_path):
        path = tmp_path / "ds.txt"
        save_dataset(generate_synthetic(CFG), path)
        ds = _columns(path)
        for column in (ds.ids, *ds.features, ds.label_offsets, ds.label_ids):
            assert column.flags.aligned and column.flags.writeable   # 8-byte items

    def test_text_past_the_first_chunk_is_hashed(self, tmp_path):
        # the text is hashed 64 KiB at a time through one buffer: a byte changed in a
        # later chunk or in the last, partial one still rejects the sidecar
        path = tmp_path / "ds.txt"
        save_dataset(generate_synthetic(SynthConfig(num_tuples=1200, input_dim=48, seed=5)),
                     path)
        text = path.read_bytes()
        assert len(text) > 2 << 20 and _columns(path) is not None
        for at in (1 << 20, (2 << 20) + 1, len(text) - 2):
            path.write_bytes(text[:at] + bytes([text[at] ^ 1]) + text[at + 1:])
            assert _columns(path) is None
        path.write_bytes(text)
        assert _columns(path) is not None

    def test_no_sidecar_for_a_label_whose_text_is_not_its_int(self, tmp_path):
        # the header's "labels=2.0" fails the text parse; an int64 count would read it as 2
        path = tmp_path / "ds.txt"
        ds = _small()
        ds.num_labels = 2.0
        save_dataset(ds, path)
        assert not os.path.exists(f"{path}.cols")
        with pytest.raises(DatasetFormatError, match=r"^line 1: header field 'labels=2.0'"):
            load_dataset(path)


def _digit_changed(text):
    """The archive text with the first digit 1-8 of its first feature field raised by one:
    the same size, another value."""
    start = text.index(b"\t", text.index(b"\t", text.index(b"\n") + 1) + 1) + 1
    at = next(i for i in range(start, len(text)) if text[i] in b"12345678")
    return text[:at] + bytes([text[at] + 1]) + text[at + 1:]


def _rewrite_in_place(path, blob):
    with open(path, "r+b") as fh:
        fh.write(blob)


WINDOW = data_module.RACY_WINDOW_NS


class TestDigestMemo:
    """load_dataset hashes a file again only when its stat changed, or had changed within
    RACY_WINDOW_NS of the clock read before it was last hashed (git's racy-clean rule).
    No test waits: each sets the module's clock, and some the files' stamps."""

    @pytest.fixture()
    def memo(self, monkeypatch):
        """(hashes, clock): a fresh memo, the module's clock reading ``clock[0]``, and
        "file" or "payload" logged in ``hashes`` for each SHA-256 that data begins."""
        hashes, clock = [], [time.time_ns()]
        monkeypatch.setattr(data_module, "_DIGESTS", {})
        monkeypatch.setattr(data_module, "_clock", lambda: clock[0])

        def sha256(*args):
            hashes.append("payload" if args else "file")
            return hashlib.sha256(*args)
        monkeypatch.setattr(data_module, "hashlib", types.SimpleNamespace(sha256=sha256))
        return hashes, clock

    @pytest.fixture()
    def stamps(self, monkeypatch):
        """``stamp``: every os.fstat reports ``stamp[0]`` as its file's mtime and ctime, as
        a file system would whose timestamps are that coarse."""
        fstat, stamp = os.fstat, [10**18]

        def coarse(fd):
            st = fstat(fd)
            return types.SimpleNamespace(st_dev=st.st_dev, st_ino=st.st_ino, st_size=st.st_size,
                                         st_mtime_ns=stamp[0], st_ctime_ns=stamp[0])
        monkeypatch.setattr(os, "fstat", coarse)
        return stamp

    @staticmethod
    def _archive(tmp_path, memo):
        """An archive with its sidecar, and the outcome of its text with one digit changed."""
        path, other = tmp_path / "ds.txt", tmp_path / "changed.txt"
        save_dataset(generate_synthetic(CFG), path)
        other.write_bytes(_digit_changed(path.read_bytes()))
        changed = _outcome(other)
        assert changed != _outcome(path)
        memo[0].clear()
        data_module._DIGESTS.clear()
        return path, changed

    def test_loads_of_an_unchanged_archive_hash_each_file_once(self, tmp_path, memo):
        hashes, clock = memo
        path, _ = self._archive(tmp_path, memo)
        ctimes = sorted(os.stat(p).st_ctime_ns for p in (path, f"{path}.cols"))
        # at one window after the older ctime each load hashes both files again; past the
        # newer one's window, the first load's digests serve the rest, and the last load
        # proves the text's digest
        clock[0] = ctimes[0] + WINDOW
        loaded = _outcome(path)
        assert _outcome(path) == loaded and hashes == ["file", "payload"] * 2
        hashes.clear()
        clock[0] = ctimes[1] + WINDOW + 1
        for _ in range(5):
            assert _outcome(path) == loaded
        assert hashes == ["file", "payload"]
        assert load_dataset(path).sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert hashes == ["file", "payload"]

    def test_a_sidecar_holds_its_payload_digest_apart_from_its_file_digest(self, tmp_path,
                                                                            memo):
        _, clock = memo
        path, _ = self._archive(tmp_path, memo)
        cols = f"{path}.cols"
        clock[0] = os.stat(cols).st_ctime_ns + WINDOW + 1
        for _ in range(2):   # the second time from the memo
            assert _columns(path) is not None
            assert data_module.file_sha256(cols) == hashlib.sha256(
                open(cols, "rb").read()).hexdigest()

    def test_rewrite_in_place_with_its_mtime_restored_is_hashed_again(self, tmp_path, memo):
        # size and mtime are those the memo holds: only the ctime tells
        hashes, clock = memo
        path, changed = self._archive(tmp_path, memo)
        before = os.stat(path)
        clock[0] = os.stat(f"{path}.cols").st_ctime_ns + WINDOW + 1
        assert _columns(path) is not None
        blob, deadline = _digit_changed(path.read_bytes()), time.monotonic() + 1
        # rewritten until the kernel's coarse clock has moved off the ctime the memo holds
        while os.stat(path).st_ctime_ns == before.st_ctime_ns and time.monotonic() < deadline:
            _rewrite_in_place(path, blob)
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert after.st_ctime_ns != before.st_ctime_ns
        clock[0] = after.st_ctime_ns + WINDOW + 1   # the window has passed since the rewrite
        hashes.clear()
        assert _columns(path) is None and "file" in hashes
        assert _outcome(path) == changed   # the stale sidecar refused, as without a memo

    def test_rewrite_inside_the_window_is_caught(self, tmp_path, memo, stamps):
        # a rewrite of the same size within one timestamp tick leaves the stat as it was
        _, clock = memo
        path, changed = self._archive(tmp_path, memo)
        clock[0] = stamps[0] + WINDOW   # the stamp is not older than the clock by a window
        assert _columns(path) is not None
        _rewrite_in_place(path, _digit_changed(path.read_bytes()))
        assert _columns(path) is None
        assert _outcome(path) == changed

    def test_file_replaced_by_rename_is_hashed_again(self, tmp_path, memo, stamps):
        # a new inode of the same size and stamps, past the window
        hashes, clock = memo
        path, changed = self._archive(tmp_path, memo)
        clock[0] = stamps[0] + WINDOW + 1
        assert _columns(path) is not None
        (tmp_path / "new.txt").write_bytes(_digit_changed(path.read_bytes()))
        os.replace(tmp_path / "new.txt", path)
        hashes.clear()
        assert _columns(path) is None and hashes == ["file"]
        assert _outcome(path) == changed

    def test_file_rewritten_many_times_leaves_one_entry(self, tmp_path, memo, stamps):
        # one entry per file: the text's, and the sidecar payload's
        _, clock = memo
        path, changed = self._archive(tmp_path, memo)
        text, sidecar = path.read_bytes(), _outcome(path)
        clock[0] = stamps[0] + 100 * WINDOW
        for k in range(6):
            stamps[0] += 1   # each rewrite on its own tick, each trusted past the window
            _rewrite_in_place(path, _digit_changed(text) if k % 2 else text)
            assert _outcome(path) == (changed if k % 2 else sidecar)
        assert len(data_module._DIGESTS) == 2


# save_dataset must write the bytes of the per-row writer: its text and its sidecar
ARCHIVE_GRID = {
    **{f"{m} modalities, dim {dim}": generate_synthetic(SynthConfig(
        num_tuples=150, num_modalities=m, input_dim=dim, seed=dim + m))
       for m in (2, 3) for dim in (1, 7, 32)},
    "noiseless": generate_synthetic(SynthConfig(num_tuples=60, noise_sigma=0.0, seed=2)),
    "multi-label, the benchmark's generator": generate_synthetic(SynthConfig(
        num_tuples=300, multi_label=True, noise_sigma=0.5, num_classes=32, seed=5)),
    **SIDECAR_EQUALS_TEXT,
    "zero dim": TupleDataset([0, 1], [np.empty((2, 0))] * 2, [0, 0, 0], [], 1),
    "NaN feature": _small(value=np.nan),
    # columns that disagree in length: zip() pairs them, and no sidecar is written
    "fewer ids than rows": TupleDataset([0, 1], _small().features, *label_layout([{0}] * 3), 2),
    "fewer label offsets than rows": TupleDataset([0, 1, 2], _small().features,
                                                  *label_layout([{0}, {1}]), 2),
}


class TestArchiveText:
    @pytest.mark.parametrize("ds", ARCHIVE_GRID.values(), ids=ARCHIVE_GRID.keys())
    def test_bytes_of_the_per_row_writer(self, tmp_path, ds):
        save_dataset(ds, tmp_path / "ds.txt")
        save_dataset_per_row(ds, tmp_path / "per_row.txt")
        assert (tmp_path / "ds.txt").read_bytes() == (tmp_path / "per_row.txt").read_bytes()
        sidecar, per_row = tmp_path / "ds.txt.cols", tmp_path / "per_row.txt.cols"
        assert sidecar.exists() == per_row.exists()
        if sidecar.exists():
            assert sidecar.read_bytes() == per_row.read_bytes()

    def test_peak_memory_is_under_half_the_per_row_writer(self, tmp_path):
        # the per-row writer's peak is its .tolist() of every feature; the blocks of
        # format_rows and the sidecar's columns written in place take far less
        ds = generate_synthetic(SynthConfig(num_tuples=2000, multi_label=True, noise_sigma=0.5,
                                            num_classes=32, seed=5))
        peaks = []
        for writer in (save_dataset, save_dataset_per_row):
            tracemalloc.start()
            try:
                writer(ds, tmp_path / f"{writer.__name__}.txt")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1] / 2


class TestContainer:
    @pytest.mark.parametrize("pad", range(8))
    def test_payload_is_an_aligned_writable_view(self, tmp_path, pad):
        # headers of every length modulo 8
        path, payload = tmp_path / "c.bin", np.arange(5, dtype="<f8").tobytes()
        write_container(path, b"XTEST1", {"pad": "x" * pad}, [payload])
        header, got, _ = read_container(path, b"XTEST1")
        assert header == {"pad": "x" * pad} and got.tobytes() == payload
        assert got.flags.writeable and got.__array_interface__["data"][0] % 8 == 0

    def test_buffer_is_sized_by_the_file_not_the_header(self, tmp_path):
        # 200 bytes whose header length claims 4 GiB
        path = tmp_path / "c.bin"
        path.write_bytes(struct.pack("<6sII", b"XTEST1", 1, 2**32 - 1) + bytes(186))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^truncated header$"):
                read_container(path, b"XTEST1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDeferredLabels:
    """A sidecar's labels are its offsets and label ids, as the text parse lays them out."""

    def test_sidecar_labels_equal_the_text_parse(self, tmp_path):
        ds = generate_synthetic(SynthConfig(num_tuples=30, multi_label=True, num_classes=6,
                                            seed=6))
        ds = with_labels(ds, [(), *label_sets(ds)[1:]])
        assert {len(labels) for labels in label_sets(ds)} >= {0, 2, 3}
        path = tmp_path / "ds.txt"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert _columns(path) is not None and _layout(loaded) == _layout(ds)
        os.remove(f"{path}.cols")
        assert _layout(load_dataset(path)) == _layout(loaded)
        assert _layout(split(loaded, (0.5, 0.25, 0.25), 1)[2]) == \
            _layout(split(ds, (0.5, 0.25, 0.25), 1)[2])

    def test_forged_label_id_falls_back_to_the_text_at_load(self, tmp_path, monkeypatch):
        path = tmp_path / "ds.txt"
        save_dataset(_small(), path)
        _forge(_set_words(24, 2))(path)
        parsed, parse = [], data_module._parse
        monkeypatch.setattr(data_module, "_parse",
                            lambda *args: parsed.append(parse(*args)) or parsed[-1])
        loaded = load_dataset(path)
        assert parsed == [loaded]
        assert _layout(loaded) == _layout(_small())


class TestSynthConfig:
    def test_from_file_with_overrides(self, tmp_path):
        cfg_file = tmp_path / "synth.cfg"
        cfg_file.write_text("# comment\nnum_classes = 6\nnum_tuples = 40\nseed = 2\n")
        cfg = typed_config(SynthConfig, read_kv(cfg_file, ["seed=5"]))
        assert cfg.num_classes == 6 and cfg.num_tuples == 40 and cfg.seed == 5

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "synth.cfg"
        cfg_file.write_text("numclasses=6\n")
        with pytest.raises(ContractError, match="numclasses"):
            typed_config(SynthConfig, read_kv(cfg_file, None))

    def test_validation(self):
        with pytest.raises(ContractError):
            SynthConfig(num_classes=1)
        with pytest.raises(ContractError):
            SynthConfig(num_tuples=5)
        with pytest.raises(ContractError):
            SynthConfig(noise_sigma=-0.1)
        for bad in ({"input_dim": 0}, {"latent_dim": 0}, {"labels_per_tuple": (1, 2, 3)},
                    {"labels_per_tuple": (1.0, 2)},
                    {"multi_label": True, "labels_per_tuple": (3, 1)},
                    {"multi_label": True, "labels_per_tuple": (0, 2)},
                    {"multi_label": True, "labels_per_tuple": (1, 40)}):
            with pytest.raises(ContractError):
                SynthConfig(**bad)
        # the label range only bounds multi-label draws
        assert SynthConfig(num_classes=2).labels_per_tuple == (1, 3)

    def test_labels_per_tuple_list_is_kept_as_a_tuple(self):
        # a frozen config built from a list hashes and compares as one built from a tuple
        cfg = SynthConfig(labels_per_tuple=[2, 4])
        assert cfg.labels_per_tuple == (2, 4)
        assert {cfg: 1}[SynthConfig(labels_per_tuple=(2, 4))] == 1
