"""Synthetic paired-modality datasets, file I/O, splits and batch iteration.

Each tuple holds one record per modality over a shared semantic latent:
the label set picks class prototype vectors, their sum (plus jitter) is
pushed through a frozen per-modality linear map and tanh, then Gaussian
noise is added. Labels belong to the tuple and are used only by evaluation.
A dataset is held column-wise, its features one (M, N, dim) array of every
modality, and a batch is an array of its row indices.
"""

import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ContractError, DatasetFormatError, DegenerateInputError, check_fields

FORMAT_HEADER = "#xmodal-dataset v1"
LATENT_JITTER = 0.1
COLUMNS_MAGIC = b"XMCOL1"
CONTAINER_VERSION = 1
CONTAINER_PREFIX = struct.Struct("<6sII")   # magic, version, header length
# git's "racy clean" rule: a digest is reused only for a file whose ctime was older,
# by more than this window, than the clock read before it was hashed. A write inside
# the window may leave size, mtime and ctime as they were: FAT stamps mtime in 2 s
# steps, and ext4, xfs and tmpfs stamp from the kernel's coarse clock, one jiffy
# (<= 10 ms) behind the clock read here. A later write moves the ctime.
RACY_WINDOW_NS = 2 * 10**9
_clock = time.time_ns
# (what was hashed: "file" or "payload", st_dev, st_ino) ->
# (st_size, st_mtime_ns, st_ctime_ns, SHA-256 hex digest)
_DIGESTS = {}


class TupleDataset:
    """Tuples column-wise: ``ids`` an ascending int64 array, ``features`` one C-contiguous
    (M, N, dim) float64 array whose slice ``features[m]`` is modality m's rows (a list of
    M (N, dim) matrices is stacked into it), and the label layout:
    tuple i's label ids, ascending and distinct, are
    ``label_ids[label_offsets[i]:label_offsets[i + 1]]`` (int64 arrays, N + 1
    offsets from 0), each in ``[0, num_labels)``. ``sha256`` is the SHA-256 hex digest
    of the archive text a loaded dataset was read from (None for one built in memory or
    taken from another)."""

    def __init__(self, ids, features, label_offsets, label_ids, num_labels, sha256=None):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.features = np.ascontiguousarray(features, dtype=np.float64)
        self.label_offsets = np.asarray(label_offsets, dtype=np.int64)
        self.label_ids = np.asarray(label_ids, dtype=np.int64)
        self.num_labels = num_labels
        self.sha256 = sha256

    def take(self, rows):
        """The dataset of these rows, in this order; the label layout is gathered
        from the offsets, not read tuple by tuple."""
        starts, sizes = self.label_offsets[rows], np.diff(self.label_offsets)[rows]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        gather = np.repeat(starts - offsets[:-1], sizes) + np.arange(offsets[-1])
        return TupleDataset(self.ids[rows], np.take(self.features, rows, axis=1),
                            offsets, self.label_ids[gather], self.num_labels)

    def __len__(self):
        return len(self.ids)

    @property
    def num_modalities(self):
        return len(self.features)

    @property
    def input_dim(self):
        return self.features.shape[-1]


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
        check_fields(self)
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
    """Deterministic latent-factor dataset; a pure function of the config.

    The draw order is the archive's contract: the prototypes, each modality's map,
    then per tuple its label count (multi_label only), its labels, its latent
    jitter and each modality's noise (noise_sigma > 0 only). The loop makes only
    the draws; the arithmetic runs once over whole columns, each element through
    the float operations of the per-tuple formula."""
    rng = np.random.default_rng(config.seed)
    prototypes = rng.normal(size=(config.num_classes, config.latent_dim))
    # frozen "sensor" maps, one per modality, so modalities genuinely differ
    maps = [rng.normal(size=(config.input_dim, config.latent_dim)) / np.sqrt(config.latent_dim)
            for _ in range(config.num_modalities)]
    lo, hi = config.labels_per_tuple
    n, latent_dim, dim = config.num_tuples, config.latent_dim, config.input_dim
    sizes, chosen = [1] * n, []
    # a tuple's normals, one call: a Generator carries no state between normal draws,
    # so these are the values of its jitter and noise drawn one call each
    draws = np.empty((n, latent_dim + (config.num_modalities * dim
                                       if config.noise_sigma > 0 else 0)))
    for tid in range(n):
        if config.multi_label:   # a Python int: choice takes twice as long with a NumPy one
            sizes[tid] = int(rng.integers(lo, hi + 1))
        chosen.append(rng.choice(config.num_classes, size=sizes[tid], replace=False))
        draws[tid] = rng.normal(size=draws.shape[1])
    counts, offsets = np.array(sizes), np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    label_ids, latents = np.concatenate(chosen), np.empty((n, latent_dim))
    for k in set(sizes):
        # the tuples of k labels: an (rows, k, latent_dim) sum over axis 1 adds each
        # tuple's prototype rows as prototypes[labels].sum(axis=0) does, pairwise at
        # latent_dim 1 too
        rows = np.flatnonzero(counts == k)
        at = offsets[rows, None] + np.arange(k)
        label_ids[at] = np.sort(label_ids[at], axis=1)
        latents[rows] = prototypes[label_ids[at]].sum(axis=1)
    # each product in place: the same operation as into a new array, one less array
    jitter, noise = draws[:, :latent_dim], draws[:, latent_dim:]
    jitter *= LATENT_JITTER
    latents += jitter
    noise *= config.noise_sigma
    features = np.empty((config.num_modalities, n, dim))
    for m, f in enumerate(features):
        # one gemv per tuple, as maps[m] @ latent is; a gemm may round otherwise
        np.matmul(maps[m], latents[:, :, None], out=f[:, :, None])
        np.tanh(f, out=f)
        if config.noise_sigma > 0:
            f += noise[:, m * dim:(m + 1) * dim]
    return TupleDataset(np.arange(n), features, offsets, label_ids, config.num_classes)


def _label_layout(labels):
    """(label_offsets, label_ids) of a list of ascending, distinct label id sequences."""
    offsets = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum([len(l) for l in labels], out=offsets[1:])
    return offsets, np.fromiter(chain.from_iterable(labels), np.int64, count=offsets[-1])


def split(ds: TupleDataset, fractions, seed):
    """Deterministic tuple-level split; floor-rounded sizes, remainder to train."""
    if len(fractions) != 3:
        raise ContractError("split: need (train, val, test) fractions")
    if not all(f > 0 for f in fractions):   # a NaN is not > 0 either
        raise ContractError("split: all fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ContractError(f"split: fractions sum to {sum(fractions)}, expected 1")
    m = len(ds)
    n_val = int(m * fractions[1])
    n_test = int(m * fractions[2])
    n_train = m - n_val - n_test
    if min(n_train, n_val, n_test) == 0:
        raise ContractError("split: a part would be empty")
    if seed < 0:
        raise ContractError(f"split: seed={seed} must be >= 0")
    order = np.random.default_rng(seed).permutation(m)
    parts = (order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:])
    return tuple(ds.take(rows) for rows in map(np.sort, parts))


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


def stack_features(ds: TupleDataset, rows):
    """Features of every modality for the given rows, gathered as one (M, T, dim) array."""
    return np.take(ds.features, rows, axis=1)


def write_atomic(path, chunks):
    """Writes ``chunks`` (bytes, or str as UTF-8) to ``<path>.tmp`` and renames it onto
    ``path``, which so holds its old bytes or all the new ones; a failure removes the tmp."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):   # the write failed
            os.remove(tmp)


def write_container(path, magic, header, chunks):
    """The binary container: 6-byte magic, u32 version, u32 header length, the
    sorted-key JSON header, then the payload ``chunks``; committed by write_atomic."""
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    write_atomic(path, [CONTAINER_PREFIX.pack(magic, CONTAINER_VERSION, len(raw)), raw, *chunks])


def read_container(path, magic):
    """(header, payload, stat) of a container with this magic, the payload a writable
    uint8 view, starting on an 8-byte boundary, of the one buffer the file is read into,
    and stat the ``os.fstat`` of the descriptor it is read from; else a ValueError
    naming the fault."""
    with open(path, "rb") as fh:
        prefix = fh.read(CONTAINER_PREFIX.size)
        if len(prefix) < CONTAINER_PREFIX.size or not prefix.startswith(magic):
            raise ValueError(f"does not start with {magic.decode()}")
        _, version, header_len = CONTAINER_PREFIX.unpack(prefix)
        if version != CONTAINER_VERSION:
            raise ValueError(f"unsupported version {version}")
        stat = os.fstat(fh.fileno())
        end, size = CONTAINER_PREFIX.size + header_len, stat.st_size
        # sized by the file alone; a uint64 array starts on an 8-byte boundary, so
        # file byte i at buffer byte i + (-end % 8) puts the payload on one too
        blob = np.empty((size + 15) // 8, np.uint64).view(np.uint8)[-end % 8:][:size]
        fh.seek(0)
        blob = blob[:fh.readinto(blob)]
    if len(blob) < end:
        raise ValueError("truncated header")
    try:
        header = json.loads(blob[CONTAINER_PREFIX.size:end].tobytes().decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"corrupt header: {exc}") from None
    return header, blob[end:], stat


FIELD_WIDTH = 24   # the longest "%.17g" text, e.g. "-2.2250738585072014e-308"
BLOCK_VALUES = 4096   # values formatted at once: the temporaries stay in cache
# each number 0..9999 as its 4 ASCII digits in one 4-byte item, and its count of
# trailing zero digits (4 for 0). Built from the 100 digit pairs in int64, as the
# rest of the program computes: 10000 Python ints or a (10000, 4) temporary at import,
# or NumPy loops of other types, kept up to 1 MB more of the process resident
_DIGIT_PAIRS = np.frombuffer(("%02d" * 100 % tuple(range(100))).encode(), "<u2").astype(np.int64)
_DIGIT_QUADS = (_DIGIT_PAIRS[:, None] + _DIGIT_PAIRS * 65536).astype("<u4").ravel()
_PAIR_ZEROS = np.array([2] + [int(i % 10 == 0) for i in range(1, 100)])
_QUAD_ZEROS = np.where(np.arange(100) == 0, _PAIR_ZEROS[:, None] + 2, _PAIR_ZEROS).ravel()
# per exponent e in -4..15, the fixed-notation field without its sign and digits
# ("0.", "0.0", ... or the point after e + 1 digits), and its length by trailing zeros
_TEMPLATES = np.frombuffer(b"".join(
    (b"\0" + (b"0." + b"0" * (-e - 1) if e < 0 else b"\0" * (e + 1) + b".")).ljust(
        FIELD_WIDTH, b"\0") for e in range(-4, 16)), np.uint8).reshape(20, FIELD_WIDTH)
_LENGTHS = np.array([19 - min(e, 0) - zeros if zeros < 16 - e else e + 2   # with the sign byte
                     for e in range(-4, 16) for zeros in range(17)])
# _KEEP[n]: the 3 int64 words of a field whose first n bytes are kept
_KEEP = np.frombuffer(b"".join(b"\xff" * n + b"\0" * (FIELD_WIDTH - n)
                               for n in range(FIELD_WIDTH + 1)), np.int64).reshape(
                                   FIELD_WIDTH + 1, -1)


def _split(a):
    """Veltkamp's split: a == hi + lo, each with at most 26 significant bits."""
    t = a * 134217729.0   # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(21)])   # exact doubles
_POW10_HI, _POW10_LO = _split(_POW10)


def _g17_fields(x):
    """(len(x), FIELD_WIDTH) uint8: each float64 of x as the bytes of ``"%.17g" % v``,
    NUL-padded (a positive value's sign byte is NUL too).

    1e-4 <= |v| < 1e16 is in fixed notation. With e = floor(log10|v|) and k = 16 - e
    <= 20, 10**k is an exact double and Dekker's product p + err == |v| * 10**k
    exactly. Where that sum is at least 1e16, p >= 2**53 is an even integer, so
    D = p + rint(err) is the sum rounded half to even; where D < 1e17 too, D holds
    the 17 significant digits, and the text is laid out per exponent. The range is
    decided on the exact sum, so a log10 off by one only sends v to the slow path:
    Python's % formats it, as every other value (0, tiny, huge, non-finite)."""
    x = np.asarray(x, np.float64).ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 15)
    k = (16 - e).astype(np.intp)
    ah, al = _split(a)
    p = a * _POW10.take(k)
    bh, bl = _POW10_HI.take(k), _POW10_LO.take(k)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    fast &= (p > 1e16) | ((p == 1e16) & (err >= 0))
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    fast &= d < 10**17
    # the fast values sorted by exponent (group e + 4), the slow ones last (group 20)
    group = np.where(fast, e + 4, 20).astype(np.int8)
    order = np.argsort(group, kind="stable")
    group = group.take(order)
    ends = np.searchsorted(group, np.arange(21), "right").tolist()
    n_fast = ends[19]
    rows = order[:n_fast]
    d, group = d.take(rows), group[:n_fast].astype(np.intp)
    quads = np.empty((n_fast, 5), np.int32)   # (000 d0)(d1..d4)(d5..d8)(d9..d12)(d13..d16)
    hi = d // 10**8
    lo = d - hi * 10**8
    quads[:, 0] = hi // 10**8
    hi -= quads[:, 0] * 10**8
    quads[:, 1] = hi // 10**4
    quads[:, 2] = hi - quads[:, 1] * 10**4
    quads[:, 3] = lo // 10**4
    quads[:, 4] = lo - quads[:, 3] * 10**4
    zeros = _QUAD_ZEROS.take(quads[:, 4])   # trailing zero digits of D
    for j in (3, 2, 1):
        zeros += (zeros == 4 * (4 - j)) * _QUAD_ZEROS.take(quads[:, j])
    digits = _DIGIT_QUADS.take(quads).view(np.uint8)[:, 3:]   # d0..d16
    out = np.empty((len(x), FIELD_WIDTH), np.uint8)
    for e in range(-4, 16):
        start, end = ends[e + 3] if e > -4 else 0, ends[e + 4]
        if start == end:
            continue
        out[start:end] = _TEMPLATES[e + 4]
        if e >= 0:
            out[start:end, 1:e + 2] = digits[start:end, :e + 1]
            out[start:end, e + 3:19] = digits[start:end, e + 1:]
        else:
            out[start:end, 2 - e:19 - e] = digits[start:end]
    out[:n_fast, 0] = np.where(x.take(rows) < 0, ord("-"), 0)
    # the trailing zeros of the fraction stripped, and its point if nothing is left
    words = out[:n_fast].view(np.int64)
    words &= _KEEP.take(_LENGTHS.take(group * 17 + zeros), axis=0)
    out[n_fast:] = 0
    for i, v in enumerate(x.take(order[n_fast:]).tolist(), n_fast):
        text = ("%.17g" % v).encode()
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    back = np.empty_like(order)
    back[order] = np.arange(len(x))
    return out.take(back, axis=0)


def _padded(texts):
    """(len(texts), width) uint8: each str's UTF-8 bytes, NUL-padded; a uint8 matrix of
    such rows is taken as it is."""
    if isinstance(texts, np.ndarray):
        return texts
    column = np.array([text.encode() for text in texts], "S")
    return column.view(np.uint8).reshape(len(texts), column.itemsize)


def format_rows(prefixes, values, suffixes):
    """The bytes of the rows ``prefixes[r] + ",".join("%.17g" % v for v in values[r])
    + suffixes[r]`` of an (R, C) float64 array, the prefixes and suffixes str
    without NUL, or (R, width) uint8 matrices of their bytes, NUL-padded; byte for
    byte, without a Python % per value (_g17_fields)."""
    rows, cols = values.shape
    slots = np.zeros((rows, cols, FIELD_WIDTH + 1), np.uint8)   # each field and its comma
    slots[:, :, :FIELD_WIDTH] = _g17_fields(values).reshape(rows, cols, FIELD_WIDTH)
    slots[:, :-1, FIELD_WIDTH] = ord(",")
    lines = slots.reshape(rows, cols * (FIELD_WIDTH + 1))
    padded = np.concatenate([_padded(prefixes), lines, _padded(suffixes)], axis=1)
    return padded.tobytes().translate(None, b"\0")   # the padding dropped


def save_dataset(ds: TupleDataset, path):
    """Line-delimited text format, floats as ``"%.17g"`` text (format_rows, in blocks
    of about BLOCK_VALUES values); then, if the text parse would return these very
    columns, the sidecar ``<path>.cols``."""
    m, dim = ds.num_modalities, ds.input_dim
    text_digest = hashlib.sha256()   # of the text, taken as it is written
    ids, bounds, flat = ds.ids.tolist(), ds.label_offsets.tolist(), ds.label_ids.tolist()
    # a tuple per id, label offset pair and feature row, as zip() pairs them
    count = min(len(ids), len(bounds) - 1, *map(len, ds.features)) if m else 0
    step = max(1, BLOCK_VALUES // max(1, m * dim))
    def text():
        yield f"{FORMAT_HEADER} N={m} dim={dim} labels={ds.num_labels}\n".encode()
        for start in range(0, count, step):
            end = min(start + step, count)
            labels = [",".join(map(str, flat[bounds[t]:bounds[t + 1]])) for t in range(start, end)]
            yield format_rows([f"{tid}\t{j}\t" for tid in ids[start:end] for j in range(m)],
                              ds.features[:, start:end].transpose(1, 0, 2).reshape(
                                  (end - start) * m, dim),
                              [f"\t{label_text}\n" for label_text in labels for _ in range(m)])
    write_atomic(path, (text_digest.update(blob) or blob for blob in text()))
    if (type(ds.num_labels) is not int or not 0 <= ds.num_labels < 2**63
            or any(len(c) != len(ds) for c in (bounds[1:], *ds.features))):
        return   # the header's labels= would not be the int() of its text, or zip() cut it short
    counts = [ds.num_modalities, ds.input_dim, ds.num_labels, len(ds), len(flat)]
    # the payload's columns, hashed and written in place: no joined copy of them
    columns = [(ds.ids, "<i8"), (ds.features, "<f8"), (ds.label_offsets, "<i8"),
               (ds.label_ids, "<i8")]
    payload = [np.array(counts, "<i8"), *(np.ascontiguousarray(c, dtype) for c, dtype in columns)]
    payload_digest = hashlib.sha256()
    for column in payload:
        payload_digest.update(column)
    write_container(f"{path}.cols", COLUMNS_MAGIC,
                    {"payload_sha256": payload_digest.hexdigest(),
                     "text_sha256": text_digest.hexdigest()}, payload)


def load_dataset(path) -> TupleDataset:
    """The sidecar's columns if they are provably the text's, else a strict
    parse of the text, whose errors name the offending line; either way ``sha256``
    holds the text's digest, hashed once. A record whose features are all zero has no
    direction: DegenerateInputError."""
    # a byte that is not UTF-8 reads as a lone surrogate, which no field's parse
    # accepts, so it is reported as a format error on its line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text_digest = _open_file_sha256(fh.buffer)
        ds = _load_columns(os.fspath(path), text_digest)
        if ds is None:
            fh.seek(0)
            ds = _parse(fh, text_digest)
    dead = ~ds.features.any(axis=-1)   # (M, N)
    if dead.any():
        row, m = np.argwhere(dead.T)[0]   # the first by tuple, then by modality
        raise DegenerateInputError(f"tuple {ds.ids[row]} modality {m}: zero-norm features")
    return ds


def _memo_sha256(part, stat, clock, digest):
    """The SHA-256 hex digest of ``part`` of the file whose ``os.fstat`` is ``stat``:
    the memo's, while it holds one under the file's (st_dev, st_ino) and equal
    (st_size, st_mtime_ns, st_ctime_ns), else ``digest()``. That is kept only if the
    ctime is more than RACY_WINDOW_NS older than ``clock``, read before the hash."""
    key = part, stat.st_dev, stat.st_ino
    stamp = stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns
    held = _DIGESTS.get(key)
    if held is not None and held[:3] == stamp:
        return held[3]
    hexdigest = digest()
    if stat.st_ctime_ns < clock - RACY_WINDOW_NS:
        _DIGESTS[key] = (*stamp, hexdigest)
    return hexdigest


def _open_file_sha256(fh):
    """The SHA-256 hex digest of the open binary file ``fh`` (_memo_sha256 under the
    fstat of its descriptor), read from its start in 64 KiB chunks into one reused
    buffer."""
    def digest():
        hasher, chunk = hashlib.sha256(), bytearray(1 << 16)
        while size := fh.readinto(chunk):
            hasher.update(memoryview(chunk)[:size])
        return hasher.hexdigest()
    clock = _clock()
    return _memo_sha256("file", os.fstat(fh.fileno()), clock, digest)


def file_sha256(path):
    """The SHA-256 hex digest of the file at ``path`` (_open_file_sha256)."""
    with open(path, "rb") as fh:
        return _open_file_sha256(fh)


def _load_columns(path, text_digest):
    """The columns in the sidecar ``<path>.cols``, or None unless they are what
    the text parse of ``path``, of SHA-256 ``text_digest``, returns. A container
    whose header holds the SHA-256 of the text and of the payload, and whose
    little-endian payload is:
    int64 counts (N, dim, labels, rows, label ids), the int64 ids, the (N, rows, dim)
    float64 features, modality-major, int64 label offsets and label ids. The features
    are a view of the buffer the file is read into.

    Both digests come through ``_memo_sha256``, so an archive loaded again in one
    process is hashed again only if a file's stat changed, or if it had changed
    within RACY_WINDOW_NS of the last hash; every other check runs on every load.
    A sidecar of another text is refused before its payload is hashed."""
    clock = _clock()
    try:
        header, payload, stat = read_container(path + ".cols", COLUMNS_MAGIC)
        digests = header["text_sha256"], header["payload_sha256"]
        body = np.frombuffer(payload, "<i8")
        n, dim, labels, rows, count = body[:5].tolist()
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if (min(n, dim, rows) < 1 or count < 0
            or len(body) != 5 + rows * (2 + n * dim) + 1 + count
            or digests[0] != text_digest
            or digests[1] != _memo_sha256(
                "payload", stat, clock, lambda: hashlib.sha256(body).hexdigest())):
        return None
    # save_dataset also writes columns that the text parse rejects; each fails a check
    _, ids, features, offsets, label_ids = np.split(
        body, np.cumsum([5, rows, n * rows * dim, rows + 1]))
    features = features.view("<f8").reshape(n, rows, dim)
    sizes = np.diff(offsets)
    if not ((np.diff(ids) > 0).all() and np.isfinite(features).all()
            and offsets[0] == 0 and offsets[-1] == count and (sizes >= 0).all()
            and ((label_ids >= 0) & (label_ids < labels)).all()
            # each tuple's label ids strictly ascending, as the text parse gives them
            and ((np.diff(label_ids) > 0)
                 | (np.diff(np.repeat(np.arange(rows), sizes)) > 0)).all()):
        return None
    return TupleDataset(ids, features, offsets, label_ids, labels, text_digest)


def _parse(fh, text_digest):
    """The dataset in the archive text open as ``fh``, of SHA-256 ``text_digest``."""
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
    positions, counts = {}, {}   # (tuple id, modality) -> line position; tuple id -> lines
    line_labels, line_features = [], []
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
            labels = tuple(sorted({int(v) for v in parts[3].split(",")})) if parts[3] else ()
        except ValueError as exc:
            raise DatasetFormatError(
                f"{exc} (last good line {last_good})", line_number=lineno) from None
        if not 0 <= modality < n:
            raise DatasetFormatError(f"modality {modality} " + (
                f">= N={n}" if modality >= 0 else "< 0"), line_number=lineno)
        if len(feats) != dim:
            raise DatasetFormatError(f"feature length {len(feats)} != dim={dim}",
                                     line_number=lineno)
        if any(not 0 <= l < meta["labels"] for l in labels):
            raise DatasetFormatError("label id outside vocabulary", line_number=lineno)
        if (tid, modality) in positions:
            raise DatasetFormatError(f"tuple {tid} modality {modality} given twice",
                                     line_number=lineno)
        if not np.isfinite(feats).all():
            raise ContractError(f"tuple {tid}: non-finite features")
        positions[tid, modality] = len(line_labels)
        counts[tid] = counts.get(tid, 0) + 1
        line_labels.append(labels)
        last_good = lineno
        line_features.append(feats)
    if not counts:
        raise DatasetFormatError("no tuple lines after the header")
    ids = sorted(counts)
    for tid in ids:
        if counts[tid] < n:
            raise DatasetFormatError(f"tuple {tid} has {counts[tid]} of {n} modalities")
        if len({line_labels[positions[tid, m]] for m in range(n)}) > 1:
            raise DatasetFormatError(f"tuple {tid} has mismatched label sets")
    order = np.array([[positions[t, m] for m in range(n)] for t in ids], np.intp).reshape(-1, n)
    rows = np.array(line_features).reshape(len(line_features), dim)
    return TupleDataset(ids, rows[order.T],
                        *_label_layout([line_labels[p] for p in order[:, 0]]), meta["labels"],
                        text_digest)
