"""Synthetic paired-modality datasets, file I/O, splits and batch iteration.

Each tuple holds one record per modality over a shared semantic latent:
the label set picks class prototype vectors, their sum (plus jitter) is
pushed through a frozen per-modality linear map and tanh, then Gaussian
noise is added. Labels belong to the tuple and are used only by evaluation.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DatasetFormatError

FORMAT_HEADER = "#xmodal-dataset v1"
LATENT_JITTER = 0.1


@dataclass(frozen=True)
class SampleRecord:
    tuple_id: int
    modality: int
    features: np.ndarray
    labels: frozenset

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", frozenset(int(x) for x in self.labels))
        if not np.all(np.isfinite(self.features)):
            raise ContractError(f"tuple {self.tuple_id}: non-finite features")


@dataclass
class TupleDataset:
    num_modalities: int
    tuples: list                # list of [SampleRecord, ...] ordered by modality
    label_vocabulary: list

    def __post_init__(self):
        self.validate()

    def validate(self):
        for group in self.tuples:
            if len(group) != self.num_modalities:
                raise ContractError(
                    f"tuple {group[0].tuple_id}: expected {self.num_modalities} records, "
                    f"got {len(group)}")
            tid, labels = group[0].tuple_id, group[0].labels
            for m, rec in enumerate(group):
                if rec.modality != m or rec.tuple_id != tid or rec.labels != labels:
                    raise ContractError(f"tuple {tid}: misaligned records")

    def __len__(self):
        return len(self.tuples)

    @property
    def input_dim(self):
        return int(self.tuples[0][0].features.shape[0]) if self.tuples else 0

    def tuple_ids(self):
        return [g[0].tuple_id for g in self.tuples]


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
    tuples = []
    for tid in range(config.num_tuples):
        if config.multi_label:
            k = int(rng.integers(lo, hi + 1))
        else:
            k = 1
        labels = frozenset(int(c) for c in
                           rng.choice(config.num_classes, size=k, replace=False))
        latent = prototypes[sorted(labels)].sum(axis=0)
        latent = latent + LATENT_JITTER * rng.normal(size=config.latent_dim)
        group = []
        for m in range(config.num_modalities):
            feats = np.tanh(maps[m] @ latent)
            if config.noise_sigma > 0:
                feats = feats + config.noise_sigma * rng.normal(size=config.input_dim)
            group.append(SampleRecord(tid, m, feats, labels))
        tuples.append(group)
    vocab = [f"class_{c}" for c in range(config.num_classes)]
    return TupleDataset(config.num_modalities, tuples, vocab)


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
    return tuple(TupleDataset(ds.num_modalities, [ds.tuples[i] for i in sorted(p)],
                              list(ds.label_vocabulary))
                 for p in parts)


def batch_iter(ds: TupleDataset, batch_size, seed, epoch):
    """Tuple batches with an epoch-keyed reshuffle; trailing batch < 2 is dropped."""
    if batch_size < 2:
        raise ContractError("batch_iter: batch size must be >= 2 (losses need a negative)")
    order = np.random.default_rng((seed, epoch)).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start:start + batch_size]
        if len(idx) < 2:
            break
        yield [ds.tuples[i] for i in idx]


def stack_features(batch, modality):
    """Batch features of one modality as a (T, dim) array."""
    return np.stack([group[modality].features for group in batch])


def save_dataset(ds: TupleDataset, path):
    """Line-delimited text format; floats carry 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FORMAT_HEADER} N={ds.num_modalities} dim={ds.input_dim} "
                 f"labels={len(ds.label_vocabulary)}\n")
        for group in ds.tuples:
            for rec in group:
                feats = ",".join(f"{v:.17g}" for v in rec.features)
                labels = ",".join(str(l) for l in sorted(rec.labels))
                fh.write(f"{rec.tuple_id}\t{rec.modality}\t{feats}\t{labels}\n")


def load_dataset(path) -> TupleDataset:
    """Strict parse of the line format; errors name the offending line."""
    with open(path, encoding="utf-8") as fh:
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
        records = {}
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
                feats = np.array([float(v) for v in parts[2].split(",")])
                labels = frozenset(int(v) for v in parts[3].split(",")) if parts[3] else frozenset()
            except ValueError as exc:
                raise DatasetFormatError(
                    f"{exc} (last good line {last_good})", line_number=lineno) from None
            if modality >= meta["N"]:
                raise DatasetFormatError(f"modality {modality} >= N={meta['N']}",
                                         line_number=lineno)
            if feats.shape[0] != meta["dim"]:
                raise DatasetFormatError(
                    f"feature length {feats.shape[0]} != dim={meta['dim']}",
                    line_number=lineno)
            if any(l >= meta["labels"] for l in labels):
                raise DatasetFormatError("label id outside vocabulary", line_number=lineno)
            records.setdefault(tid, {})[modality] = SampleRecord(tid, modality, feats, labels)
            last_good = lineno
    tuples = []
    for tid in sorted(records):
        group = records[tid]
        if len(group) != meta["N"]:
            raise DatasetFormatError(
                f"tuple {tid} has {len(group)} of {meta['N']} modalities")
        labels = group[0].labels
        if any(group[m].labels != labels for m in range(meta["N"])):
            raise DatasetFormatError(f"tuple {tid} has mismatched label sets")
        tuples.append([group[m] for m in range(meta["N"])])
    vocab = [f"class_{c}" for c in range(meta["labels"])]
    return TupleDataset(meta["N"], tuples, vocab)
