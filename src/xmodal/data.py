"""Synthetic paired-modality datasets, file I/O, splits and batch iteration.

Each tuple holds one record per modality over a shared semantic latent:
the label set picks class prototype vectors, their sum (plus jitter) is
pushed through a frozen per-modality linear map and tanh, then Gaussian
noise is added. Labels belong to the tuple and are used only by evaluation.
A dataset is held column-wise, and a batch is an array of its row indices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DatasetFormatError

FORMAT_HEADER = "#xmodal-dataset v1"
LATENT_JITTER = 0.1
_CHUNK = 256    # lines whose feature fields load_dataset parses in one call
_SEPARATORS = "\x1c\x1d\x1e\x1f"   # whitespace to np.loadtxt, not to float()


class TupleDataset:
    """Tuples column-wise: ``ids`` an ascending int64 array, ``features[m]`` one
    C-contiguous (N, dim) float64 matrix per modality, ``labels`` a frozenset per
    tuple, ``num_labels`` the size of the label id range."""

    def __init__(self, ids, features, labels, num_labels):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.features = [np.ascontiguousarray(f, dtype=np.float64) for f in features]
        self.labels = list(labels)
        self.num_labels = num_labels

    def __len__(self):
        return len(self.ids)

    @property
    def num_modalities(self):
        return len(self.features)

    @property
    def input_dim(self):
        return self.features[0].shape[-1]


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 8
    multi_label: bool = False
    labels_per_tuple: tuple = (1, 3)
    latent_dim: int = 16
    input_dim: int = 32
    noise_sigma: float = 0.1
    num_tuples: int = 2000
    num_modalities: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ContractError("num_classes must be >= 2")
        if self.num_tuples < 10:
            raise ContractError("num_tuples must be >= 10")
        if self.noise_sigma < 0:
            raise ContractError("noise_sigma must be >= 0")
        if self.num_modalities < 2:
            raise ContractError("num_modalities must be >= 2")
        for name in ("input_dim", "latent_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        object.__setattr__(self, "labels_per_tuple", tuple(self.labels_per_tuple))
        if len(self.labels_per_tuple) != 2 or not all(
                isinstance(n, int) for n in self.labels_per_tuple):
            raise ContractError(f"labels_per_tuple must be two ints, "
                                f"got {self.labels_per_tuple}")
        lo, hi = self.labels_per_tuple
        # generate_synthetic draws lo..hi distinct labels only under multi_label
        if self.multi_label and not 1 <= lo <= hi <= self.num_classes:
            raise ContractError(f"multi_label needs 1 <= labels_per_tuple {lo},{hi} "
                                f"<= num_classes {self.num_classes}")


def generate_synthetic(config: SynthConfig) -> TupleDataset:
    """Deterministic latent-factor dataset; a pure function of the config."""
    rng = np.random.default_rng(config.seed)
    prototypes = rng.normal(size=(config.num_classes, config.latent_dim))
    # frozen "sensor" maps, one per modality, so modalities genuinely differ
    maps = [rng.normal(size=(config.input_dim, config.latent_dim)) / np.sqrt(config.latent_dim)
            for _ in range(config.num_modalities)]
    lo, hi = config.labels_per_tuple
    features = [np.empty((config.num_tuples, config.input_dim))
                for _ in range(config.num_modalities)]
    labels = []
    for tid in range(config.num_tuples):
        k = int(rng.integers(lo, hi + 1)) if config.multi_label else 1
        labels.append(frozenset(int(c) for c in
                                rng.choice(config.num_classes, size=k, replace=False)))
        latent = prototypes[sorted(labels[-1])].sum(axis=0)
        latent = latent + LATENT_JITTER * rng.normal(size=config.latent_dim)
        for m in range(config.num_modalities):
            features[m][tid] = np.tanh(maps[m] @ latent)
            if config.noise_sigma > 0:
                features[m][tid] += config.noise_sigma * rng.normal(size=config.input_dim)
    return TupleDataset(np.arange(config.num_tuples), features, labels, config.num_classes)


def split(ds: TupleDataset, fractions, seed):
    """Deterministic tuple-level split; floor-rounded sizes, remainder to train."""
    if len(fractions) != 3:
        raise ContractError("split: need (train, val, test) fractions")
    if any(f <= 0 for f in fractions):
        raise ContractError("split: all fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractError(f"split: fractions sum to {sum(fractions)}, expected 1")
    m = len(ds)
    n_val = int(m * fractions[1])
    n_test = int(m * fractions[2])
    n_train = m - n_val - n_test
    if min(n_train, n_val, n_test) == 0:
        raise ContractError("split: a part would be empty")
    order = np.random.default_rng(seed).permutation(m)
    parts = (order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:])
    return tuple(TupleDataset(ds.ids[rows], [f[rows] for f in ds.features],
                              [ds.labels[i] for i in rows], ds.num_labels)
                 for rows in map(np.sort, parts))


def batch_iter(ds: TupleDataset, batch_size, seed, epoch):
    """Row-index arrays of tuple batches with an epoch-keyed reshuffle; a trailing
    batch of fewer than 2 rows is dropped."""
    if batch_size < 2:
        raise ContractError("batch_iter: batch size must be >= 2 (losses need a negative)")
    order = np.random.default_rng((seed, epoch)).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start:start + batch_size]
        if len(idx) < 2:
            break
        yield idx


def stack_features(ds: TupleDataset, rows, modality):
    """Features of one modality for the given rows, gathered as a (T, dim) array."""
    return ds.features[modality][rows]


def save_dataset(ds: TupleDataset, path):
    """Line-delimited text format; floats carry 17 significant digits."""
    row_format = ",".join(["%.17g"] * ds.input_dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FORMAT_HEADER} N={ds.num_modalities} dim={ds.input_dim} "
                 f"labels={ds.num_labels}\n")
        for tid, labels, *rows in zip(ds.ids.tolist(), ds.labels,
                                      *(f.tolist() for f in ds.features)):
            label_text = ",".join(str(l) for l in sorted(labels))
            fh.writelines(f"{tid}\t{m}\t{row_format % tuple(row)}\t{label_text}\n"
                          for m, row in enumerate(rows))


def load_dataset(path) -> TupleDataset:
    """Strict parse of the line format; errors name the offending line.

    The line loop makes every check and parses the feature fields in bulk,
    _CHUNK lines per ``np.loadtxt`` call, which reads a number as float()
    does or rejects it (but for _SEPARATORS). If anything fails, the loop
    runs again parsing each line's features in place, so the error raised is
    the first one a line-by-line parse meets.
    """
    try:
        return _load(path, bulk=True)
    except (DatasetFormatError, ValueError):
        return _load(path, bulk=False)


def _parse_chunk(fields, dim):
    block = np.loadtxt(fields, delimiter=",", comments=None, ndmin=2)
    text = "".join(fields)
    if (block.shape != (len(fields), dim) or not np.isfinite(block).all()
            or any(c in text for c in _SEPARATORS)):
        raise ValueError("a chunk of feature fields needs a line-by-line parse")
    return block


def _load(path, bulk):
    # a byte that is not UTF-8 reads as a lone surrogate, which no field's parse
    # accepts, so it is reported as a format error on its line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(FORMAT_HEADER):
            raise DatasetFormatError(f"bad header {header!r}", line_number=1)
        meta = {}
        for tokenfield in header[len(FORMAT_HEADER):].split():
            key, _, value = tokenfield.partition("=")
            try:
                meta[key] = int(value)
            except ValueError:
                raise DatasetFormatError(f"header field {tokenfield!r} is not key=integer",
                                         line_number=1) from None
        for key in ("N", "dim", "labels"):
            if key not in meta:
                raise DatasetFormatError(f"header missing {key}=", line_number=1)
        for key in ("N", "dim"):
            if meta[key] < 1:
                raise DatasetFormatError(f"header field {key}={meta[key]} must be >= 1",
                                         line_number=1)
        n, dim = meta["N"], meta["dim"]
        slots = {}     # tuple id -> position of its line of each modality, or -1
        line_labels, blocks, pending = [], [], []   # pending: fields of the next chunk
        last_good = 1
        for lineno, raw in enumerate(fh, 2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DatasetFormatError(
                    f"expected 4 tab-separated fields, got {len(parts)} "
                    f"(last good line {last_good})", line_number=lineno)
            try:
                tid = int(parts[0])
                modality = int(parts[1])
                feats = None if bulk else np.array([float(v) for v in parts[2].split(",")])
                labels = frozenset(int(v) for v in parts[3].split(",")) if parts[3] else frozenset()
            except ValueError as exc:
                raise DatasetFormatError(
                    f"{exc} (last good line {last_good})", line_number=lineno) from None
            if not 0 <= modality < n:
                raise DatasetFormatError(f"modality {modality} " + (
                    f">= N={n}" if modality >= 0 else "< 0"), line_number=lineno)
            length = parts[2].count(",") + 1 if bulk else len(feats)
            if length != dim or not parts[2]:  # np.loadtxt skips an empty field; float() fails
                raise DatasetFormatError(f"feature length {length} != dim={dim}",
                                         line_number=lineno)
            if any(not 0 <= l < meta["labels"] for l in labels):
                raise DatasetFormatError("label id outside vocabulary", line_number=lineno)
            slot = slots.setdefault(tid, [-1] * n)
            if slot[modality] >= 0:
                raise DatasetFormatError(f"tuple {tid} modality {modality} given twice",
                                         line_number=lineno)
            if not bulk and not np.isfinite(feats).all():
                raise ContractError(f"tuple {tid}: non-finite features")
            slot[modality] = len(line_labels)
            line_labels.append(labels)
            last_good = lineno
            if bulk:
                pending.append(parts[2])
                if len(pending) == _CHUNK:
                    blocks.append(_parse_chunk(pending, dim))
                    pending.clear()
            else:
                blocks.append(feats[None])
        if pending:
            blocks.append(_parse_chunk(pending, dim))
    ids = sorted(slots)
    for tid in ids:
        if -1 in slots[tid]:
            raise DatasetFormatError(
                f"tuple {tid} has {n - slots[tid].count(-1)} of {n} modalities")
        if len({line_labels[p] for p in slots[tid]}) > 1:
            raise DatasetFormatError(f"tuple {tid} has mismatched label sets")
    order = np.array([slots[t] for t in ids], dtype=np.intp).reshape(len(ids), n)
    rows = np.concatenate(blocks) if blocks else np.empty((0, dim))
    return TupleDataset(ids, [rows[order[:, m]] for m in range(n)],
                        [line_labels[p] for p in order[:, 0]], meta["labels"])
