"""Independent checks of a workload run's outputs.

The oracles read the archive and the checkpoint with their own parsers,
re-embed with plain NumPy (tanh MLP backbone + shared affine encoder), rank by
brute-force cosine with the ascending-tuple_id tie rule and the self tuple
excluded, and recompute Dice F1@K, Jaccard gains and NDCG@K. They compare
every evaluate CSV row and every `retrieve` line. Property checks cover the
training CSV, the analytic random-ranking F1@K baseline, bit-exact
load/save round trips and byte-identical reruns.
"""

import importlib
import json
import math
import os
import struct
import tempfile

import numpy as np

TOL = 1e-9
# loss_mde is the negative mean softplus of a cosine in [-1, 1]
MDE_RANGE = (-math.log1p(math.e), -math.log1p(1 / math.e))
# checkpoint layout: magic, <II version and header length, JSON header, float64 payloads
CHECKPOINT_MAGIC = b"XMSSL1"


def read_archive(path):
    """(tuple ids ascending, per-modality feature matrices, per-tuple label sets, label count)."""
    records = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        meta = dict(field.split("=") for field in header[2:])
        for line in fh:
            tid, modality, feats, labels = line.rstrip("\n").split("\t")
            records.setdefault(int(tid), {})[int(modality)] = (
                np.array([float(v) for v in feats.split(",")]),
                frozenset(int(v) for v in labels.split(",") if v))
    ids = np.array(sorted(records))
    feats = [np.stack([records[t][m][0] for t in ids]) for m in range(int(meta["N"]))]
    labels = [records[t][0][1] for t in ids]
    return ids, feats, labels, int(meta["labels"])


def read_checkpoint(path):
    """(model config dict, {parameter name: array}) from the binary checkpoint."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a checkpoint")
    off = len(CHECKPOINT_MAGIC)
    _version, header_len = struct.unpack_from("<II", blob, off)
    off += 8
    header = json.loads(blob[off:off + header_len])
    off += header_len
    params = {}
    for entry in header["tensors"]:
        count = int(np.prod(entry["shape"]))
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(entry["shape"])
        off += 8 * count
        if entry["kind"] == "param":
            params[entry["name"]] = arr.astype(np.float64)
    return header["model_config"], params


def embed(config, params, modality, x):
    act = np.tanh if config["activation"] == "tanh" else (lambda h: np.maximum(h, 0.0))
    n_layers = len(config["backbone_hidden_dims"]) + 1
    h = x
    for li in range(n_layers):
        h = h @ params[f"backbone{modality}.layer{li}.W"] + params[f"backbone{modality}.layer{li}.b"]
        if li < n_layers - 1:
            h = act(h)
    return h @ params["encoder.W"] + params["encoder.b"]


def top_k(queries, query_ids, items, item_ids, k):
    """Per query: [(item id, cosine)] best first, ties by ascending id, self excluded."""
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    inn = items / np.linalg.norm(items, axis=1, keepdims=True)
    scores = qn @ inn.T
    out = []
    for qid, row in zip(query_ids, scores):
        keep = item_ids != qid
        ids, s = item_ids[keep], row[keep]
        order = np.lexsort((ids, -s))[:k]
        out.append([(int(ids[j]), float(s[j])) for j in order])
    return out


def dice(a, b):
    return 2.0 * len(a & b) / (len(a) + len(b)) if b else 0.0


def jaccard(a, b):
    return len(a & b) / len(a | b) if a | b else 0.0


def ndcg(gains, k):
    """DCG of the ranked gains over the DCG of the same gains sorted (xmodal's definition)."""
    dcg = sum(g / math.log2(p + 1) for p, g in enumerate(gains[:k], 1))
    idcg = sum(g / math.log2(p + 1) for p, g in enumerate(sorted(gains, reverse=True)[:k], 1))
    return dcg / idcg if idcg > 0 else 0.0


def random_ranking_f1(query_labels, index_labels, n_classes):
    """Expected F1@K under a uniformly random ranking: mean Dice over all (query, item) pairs."""
    def indicator(label_sets):
        m = np.zeros((len(label_sets), n_classes))
        for i, labels in enumerate(label_sets):
            m[i, sorted(labels)] = 1.0
        return m
    q, it = indicator(query_labels), indicator(index_labels)
    sizes = q.sum(axis=1)[:, None] + it.sum(axis=1)[None, :]
    return float(np.mean(2.0 * (q @ it.T) / sizes))


def split_indices(n, split, seed):
    """Positions (into the id-sorted tuples) of the train/val/test parts of `--split`."""
    fractions = [float(f) for f in split.split(",")]
    n_val, n_test = int(n * fractions[1]), int(n * fractions[2])
    n_train = n - n_val - n_test
    order = np.random.default_rng(seed).permutation(n)
    return (np.sort(order[:n_train]), np.sort(order[n_train:n_train + n_val]),
            np.sort(order[n_train + n_val:]))


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def summary_average(path):
    """(F1@K, NDCG@K) of the `summary,average` row of an evaluate CSV; 0 when absent."""
    if os.path.exists(path):
        for row in read_csv(path):
            if row[:2] == ["summary", "average"]:
                return float(row[2]), float(row[3])
    return 0.0, 0.0


def _rows_match(got, want):
    """Same length; equal text fields; numeric fields within TOL."""
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w):
            return f"row {i}: {g} vs {w}"
        for gv, wv in zip(g, w):
            if isinstance(wv, float):
                if not abs(float(gv) - wv) <= TOL:
                    return f"row {i}: {g} vs {w}"
            elif gv != str(wv):
                return f"row {i}: {g} vs {w}"
    return None


def check_evaluate(csv_path, ids, feats, labels, config, params, parts, k):
    train_idx, _, test_idx = parts
    by_id = {int(ids[p]): labels[p] for p in test_idx}
    expected, summaries = [], []
    for src, tgt in ((0, 1), (1, 0)):
        zq = embed(config, params, src, feats[src][train_idx])
        zi = embed(config, params, tgt, feats[tgt][test_idx])
        f1s, ndcgs = [], []
        for qpos, top in zip(train_idx, top_k(zq, ids[train_idx], zi, ids[test_idx], k)):
            q_labels = labels[qpos]
            f1 = float(np.mean([dice(q_labels, by_id[t]) for t, _ in top]))
            nd = ndcg([jaccard(q_labels, by_id[t]) for t, _ in top], k)
            f1s.append(f1)
            ndcgs.append(nd)
            expected.append([int(ids[qpos]), f"{src}->{tgt}", f1, nd])
        summaries.append(["summary", f"{src}->{tgt}", float(np.mean(f1s)), float(np.mean(ndcgs))])
    average = ["summary", "average", (summaries[0][2] + summaries[1][2]) / 2,
               (summaries[0][3] + summaries[1][3]) / 2]
    want = [["query_id", "direction", "f1_at_k", "ndcg_at_k"], *expected, *summaries, average]
    return _rows_match(read_csv(csv_path), want)


def check_retrieve(stdout, query, ids, feats, config, params, k):
    q, src, tgt = query
    qpos = int(np.searchsorted(ids, q))
    zq = embed(config, params, src, feats[src][[qpos]])
    zi = embed(config, params, tgt, feats[tgt])
    top = top_k(zq, ids[[qpos]], zi, ids, k)[0]
    want = [[q, rank, tid, score] for rank, (tid, score) in enumerate(top, 1)]
    got = [line.split(",") for line in (stdout or "").splitlines()]
    return _rows_match(got, want)


def check_train_csv(path, epochs):
    rows = read_csv(path)
    if rows[0][:8] != ["epoch", "mim", "mde", "msp", "total", "alpha", "beta", "val_total"]:
        return f"header {rows[0]}"
    if len(rows) - 1 != epochs:
        return f"{len(rows) - 1} epoch rows, expected {epochs}"
    for row in rows[1:]:
        mim, mde, msp, total, alpha, beta, val_total = (float(v) for v in row[1:8])
        if not all(math.isfinite(v) for v in (mim, mde, msp, total, alpha, beta, val_total)):
            return f"non-finite value in {row}"
        if abs(total - (mim + alpha * mde + beta * msp)) > TOL * max(1.0, abs(total)):
            return f"total != mim + alpha*mde + beta*msp in {row}"
        if not MDE_RANGE[0] - TOL <= mde <= MDE_RANGE[1] + TOL:
            return f"mde {mde} outside {MDE_RANGE}"
        if not -1 - TOL <= msp <= 1 + TOL:
            return f"msp {msp} outside [-1, 1]"
    return None


def check_round_trips(archive, ckpt):
    """The program's own load/save reproduce the archive and the checkpoint bit for bit."""
    data = importlib.import_module("xmodal.data")
    trainer = importlib.import_module("xmodal.trainer")
    with tempfile.TemporaryDirectory(dir=os.path.dirname(archive)) as tmp:
        ds_copy, ckpt_copy = os.path.join(tmp, "archive.txt"), os.path.join(tmp, "copy.ckpt")
        data.save_dataset(data.load_dataset(archive), ds_copy)
        params, adam, epoch, _ = trainer.load_checkpoint(ckpt)
        trainer.save_checkpoint(params, adam, epoch, ckpt_copy)
        problems = []
        for name, a, b in (("archive", archive, ds_copy), ("checkpoint", ckpt, ckpt_copy)):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{name} bytes differ after load/save")
    return problems


def _guard(fn, *args):
    """An oracle that raises reports the exception as its failure."""
    try:
        return fn(*args)
    except Exception as exc:  # a crashed check is a failed check, never a crashed run
        return f"{type(exc).__name__}: {exc}"


def check_run(run, rounds, archive_digests, split, k):
    """[(check name, passed, detail)] over one run's outputs."""
    checks = []

    def add(name, problem):
        checks.append((name, not problem, problem or ""))

    add("setup.archives_identical",
        None if len(set(archive_digests)) == 1 and archive_digests[0] else
        f"archive digests {archive_digests}")
    for i, r in enumerate(rounds[1:], 2):
        add(f"rounds.identical_outputs[{i}]",
            None if r["digest"] == rounds[0]["digest"] else "outputs differ from round 1")

    first = rounds[0]
    if not first["ok"]:
        add("outputs.present", "train or evaluate failed; nothing to check")
        return checks
    ids, feats, labels, n_classes = read_archive(run.archive)
    config, params = read_checkpoint(run.ckpt)
    parts = split_indices(len(ids), split, run.seed)
    add("evaluate.oracle", _guard(check_evaluate, run.metrics_csv, ids, feats, labels,
                                  config, params, parts, k))
    for query, stdout in zip(run.queries, first["retrieve_out"]):
        add(f"retrieve.oracle[{query[0]}]",
            _guard(check_retrieve, stdout, query, ids, feats, config, params, k))

    baseline = random_ranking_f1([labels[p] for p in parts[0]],
                                 [labels[p] for p in parts[2]], n_classes)
    f1, _ = summary_average(run.metrics_csv)
    add("evaluate.beats_random_f1",
        None if f1 > baseline else f"F1@{k} {f1:.4f} <= random ranking {baseline:.4f}")
    add("train.csv_properties", _guard(check_train_csv,
                                       os.path.join(run.run_dir, "train_report.csv"),
                                       run.w.epochs))
    problems = _guard(check_round_trips, run.archive, run.ckpt)
    add("io.round_trips", "; ".join(problems) if isinstance(problems, list) else problems)
    return checks
