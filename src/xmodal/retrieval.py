"""Exact cross-modal retrieval over frozen embeddings, plus F1@K and NDCG@K.

Scores are cosine similarities (dot products of unit vectors). Search is a
full scan: archives here are small and exactness keeps runs reproducible.
Each modality of the index is one contiguous (N, D) matrix of unit-norm rows
beside one int64 id array, the flat inner-product layout of FAISS (Johnson,
Douze, Jegou, arXiv:1702.08734), built once from whole arrays. Rows come back
by descending score, then ascending tuple_id: the order of a full-row
``np.lexsort`` on (-score, tuple_id). Each row keeps width = min(k + 1, N)
places, one spare for an excluded id.

A float32 BLAS matrix product chooses the candidates; ``np.vecdot`` gives
every score and every order. ``np.vecdot`` rounds each score exactly as the
one-row dot product ``row @ q`` does, whatever the block, so identical rows tie
exactly; a BLAS product does not (its rounding depends on the block and the
thread count), and would move near-ties. Queries are taken in blocks of _BLOCK
rows, and each block is first scored by one product
``g = Q.astype(float32) @ M32.T``, M32 being the index rows rounded to float32
once per ``_top_k`` call. Let v be the float64 vecdot score of a pair (q, m),
and u = 2**-24, tiny = 2**-126 (the least normal float32), Q >= |q| and
M >= |m|. g and v differ by at most delta, the sum of three terms:

- conversion: rounding to float32 moves each component by at most u times it
  plus tiny (a component below tiny may be flushed to 0), so the rounded rows
  have norms at most Q' = (1 + u) Q + sqrt(D) tiny and M' = (1 + u) M + sqrt(D)
  tiny, and their exact dot product is within (Q' - Q) M' + Q (M' - M) of q . m;
- the float32 product: for any evaluation order, FMA and BLAS blocking
  included, |g - q32 . m32| <= gamma_D Q' M' + 2 D tiny, with
  gamma_D = D u / (1 - D u) (Higham, Accuracy and Stability of Numerical
  Algorithms, section 3.1; the last term covers an underflow, or a flush to
  zero, in each of the D products and D sums);
- the float64 vecdot: |v - q . m| <= gamma'_D Q M + D 2**-1074, gamma'_D at
  u = 2**-53.

delta takes Q and M at the largest measured query and row norms, plus 1% for
the rounding of the norms and of delta itself. At D = 128 and unit rows,
delta ~ 7.8e-6.

The proof. Let c be a row's width-th best g. At least width columns have
v >= c - delta, so the width-th best v is at least c - delta, and every column
that can place (ties at the cut included) has g >= v - delta >= c - 2 * delta.
That threshold is taken in float64 and rounded down to float32, so no column
that can place falls below it. At least width columns can place, so a row with
exactly width columns at or above the threshold holds just the ones that can:
those columns are gathered, rescored with ``np.vecdot``, and ranked. Any other
row is scored whole with ``np.vecdot`` and ranked, as without the filter: a
near-tie within 2 * delta of the cut, an exact tie (duplicated rows), and a NaN
anywhere (it makes delta NaN). On 2-epoch checkpoints of 300 to 2000
multi-label tuples, 0 to 0.3% of the queries were such rows. No product is
taken when width == N, or for a single query, whose row of products costs what
its row of vecdot scores does.

Ranking is one full-row ``np.lexsort`` on (-score, tuple_id), cut to width
places. A k-selection would save little: every gathered candidate block is
width columns wide already, and a row ranked whole is a single query or a rare
near-tie. Sorting a single query's whole row of a 1200-row index costs a
``retrieve`` at most 21 us more than selecting from it.

Pair-level F1 is the Dice overlap of label sets; NDCG gain is the Jaccard
overlap. ``evaluate_cross_modal`` scores a block of queries at once from bool
label-membership matrices, with the float64 operations, in the same order,
of the per-item metrics that the tests keep as its reference, in
``tests/reference_metrics.py``.
A query left fewer than k candidates averages F1 over them; its places past
them have gain 0, which leaves both NDCG sums unchanged.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import format_rows, write_atomic
from .errors import ContractError, DegenerateInputError
from .model import check_dataset, embed
from .tensor import NORM_EPS

# Queries scored per vectorized pass: the (block, N) score matrix stays small.
_BLOCK = 128


def _norms(rows):
    """Euclidean norm of each row, bit-identical to ``np.linalg.norm`` of that row."""
    return np.sqrt(np.vecdot(rows, rows))


class EmbeddingIndex:
    """One int64 id array and one label layout (see ``data.TupleDataset``) shared by
    every modality, and per embedded modality an (N, D) matrix of unit-norm rows."""

    def __init__(self, embedding_dim, ids, label_offsets, label_ids, embeddings):
        """``embeddings[m]`` holds modality m's rows, one per id, or None where m is
        not embedded. Like the ids and labels, a float64 C-contiguous matrix is kept by
        reference: the index owns it, and divides each row by its norm in place."""
        self.embedding_dim = embedding_dim
        self.num_modalities = len(embeddings)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.label_offsets = np.asarray(label_offsets, dtype=np.int64)
        self.label_ids = np.asarray(label_ids, dtype=np.int64)
        if len(self.label_offsets) != len(self.ids) + 1:
            raise ContractError(f"{len(self.ids)} tuple ids and "
                                f"{len(self.label_offsets) - 1} label sets")
        if not (np.diff(self.ids) > 0).all():   # not ascending: look for a repeated id
            ordered = np.sort(self.ids)
            repeated = ordered[1:][ordered[1:] == ordered[:-1]]
            if len(repeated):
                raise ContractError(f"duplicate tuple_id {repeated[0]}")
        self._vectors = [None if rows is None else self._unit_rows(rows) for rows in embeddings]

    def _unit_rows(self, rows):
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.shape != (len(self.ids), self.embedding_dim):
            raise ContractError(f"embedding shape {rows.shape} != "
                                f"({len(self.ids)}, {self.embedding_dim})")
        norms = _norms(rows)
        zero = np.flatnonzero(norms <= NORM_EPS)
        if len(zero):
            raise DegenerateInputError(f"zero-norm embedding for tuple {self.ids[zero[0]]}")
        rows /= norms[:, None]
        return rows

    def size(self, modality):
        return 0 if self._vectors[modality] is None else len(self.ids)


@dataclass
class MetricsReport:
    """One direction's mean F1@K / NDCG@K, and per query (one array each, in query
    order) its tuple id and its F1@K and NDCG@K."""
    src_modality: int
    tgt_modality: int
    mean_f1: float
    mean_ndcg: float
    query_ids: np.ndarray
    f1: np.ndarray
    ndcg: np.ndarray

    @property
    def direction(self):
        return f"{self.src_modality}->{self.tgt_modality}"


def build_index(params, ds, modalities=None) -> EmbeddingIndex:
    """The index of the dataset's ids and labels and of its modalities (all of them by
    default), each embedded by one ``embed`` call and normalised in the array it returns."""
    check_dataset(params.config, ds)
    embedded = range(ds.num_modalities) if modalities is None else modalities
    return EmbeddingIndex(params.config.embedding_dim, ds.ids, ds.label_offsets, ds.label_ids,
                          [embed(params, m, ds.features[m]) if m in embedded else None
                           for m in range(ds.num_modalities)])


def _unit_queries(queries, dim):
    """(Q, dim) query rows divided by their norms; a zero-norm row is an error. Like
    ``EmbeddingIndex``, it divides a float64 C-contiguous array in place: the caller
    hands it over."""
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1:] != (dim,):
        raise ContractError(f"query embedding shape {queries.shape[1:]} != ({dim},)")
    norms = _norms(queries)
    if (norms <= NORM_EPS).any():
        raise DegenerateInputError("zero-norm query embedding")
    queries /= norms[:, None]
    return queries


def _rank_block(scores, ids, width):
    """Positions of each row's ``width`` best scores, best first (see the module notes);
    ``ids`` is broadcast to the shape of ``scores``."""
    return np.lexsort((np.broadcast_to(ids, scores.shape), -scores), axis=-1)[:, :width]


def _gamma(dim, u):
    return dim * u / (1 - dim * u)


def _product_error_bound(queries, vectors):
    """delta >= |g - v| for any query-row pair, g its float32 product as
    ``_score_block`` takes it and v its float64 ``np.vecdot`` score: the sum of
    the conversion, float32 product and float64 vecdot bounds of the module notes,
    at the largest query and row norms. The 1% on top covers the rounding of the
    measured norms and of this arithmetic. A NaN anywhere makes delta NaN."""
    dim, u, tiny = vectors.shape[1], 2.0**-24, 2.0**-126
    q, m = np.max(_norms(queries)), np.max(_norms(vectors))
    # norms of the rows rounded to float32
    q32, m32 = (1 + u) * q + math.sqrt(dim) * tiny, (1 + u) * m + math.sqrt(dim) * tiny
    return 1.01 * ((q32 - q) * m32 + q * (m32 - m)
                   + _gamma(dim, u) * q32 * m32 + 2 * dim * tiny
                   + _gamma(dim, 2.0**-53) * q * m + dim * 2.0**-1074)


def _score_block(queries, vectors, ids, width, delta, vectors32):
    """Positions and ``np.vecdot`` scores, (Q, width) each, of every query's
    ``width`` best rows, best first. Unless ``delta`` is None, a float32 BLAS
    product with ``vectors32`` (``vectors`` rounded to float32) picks each row's
    candidates, the columns within 2 * delta of its ``width``-th best product,
    and a row with exactly ``width`` candidates ranks just those (this is exact:
    see the module notes); any other row ranks every column."""
    top, scores = np.empty((len(queries), width), dtype=np.intp), np.empty((len(queries), width))
    whole = slice(None)   # the rows ranked on every column: all, unless some are filtered
    if delta is not None:
        products = queries.astype(np.float32) @ vectors32.T
        cut = np.partition(products, len(ids) - width, axis=-1)[:, len(ids) - width, None]
        # cut - 2 * delta in float64, rounded down to float32
        low = cut.astype(np.float64) - 2 * delta
        threshold = low.astype(np.float32)
        np.nextafter(threshold, np.float32(-np.inf), out=threshold, where=threshold > low)
        candidates = products >= threshold
        filtered = np.count_nonzero(candidates, axis=-1) == width
        cols = (np.flatnonzero(candidates[filtered]) % len(ids)).reshape(-1, width)
        chosen, block = queries[filtered], np.empty(cols.shape)
        # the gathered candidate rows never hold more floats than ``products``
        step = max(1, products.size // (width * vectors.shape[1]))
        for rows in (slice(start, start + step) for start in range(0, len(cols), step)):
            block[rows] = np.vecdot(chosen[rows, None, :], vectors[cols[rows]])
        order = _rank_block(block, ids[cols], width)
        top[filtered] = np.take_along_axis(cols, order, axis=-1)
        scores[filtered] = np.take_along_axis(block, order, axis=-1)
        whole = ~filtered
    block = np.vecdot(queries[whole, None, :], vectors[None, :, :])
    order = _rank_block(block, ids, width)
    top[whole], scores[whole] = order, np.take_along_axis(block, order, axis=-1)
    return top, scores


def _top_k(index, unit_queries, target, k, exclude_ids):
    """Positions and scores, (Q, min(k, N)) each, of every query's k best rows of
    one modality, best first, and how many places each row fills. ``exclude_ids[i]``
    (None: no exclusion) is left out of query i's ranking."""
    if k < 1:
        raise ContractError("k must be >= 1")
    k = min(k, len(index.ids))   # k >= N ranks every row, and a k past int64 fits
    if not 0 <= target < index.num_modalities or not index.size(target):
        raise ContractError(f"target modality {target} is unknown or empty")
    vectors, ids = index._vectors[target], index.ids
    width = min(k + 1, len(ids))   # one spare place per row, for the excluded id
    # no candidate filter when k + 1 places take the whole index, or for a single
    # query, whose one row of products costs what its row of vecdot scores does
    delta = vectors32 = None
    if width < len(ids) and len(unit_queries) > 1:
        delta, vectors32 = _product_error_bound(unit_queries, vectors), vectors.astype(np.float32)
    positions, scores = map(np.concatenate, zip(*(
        _score_block(unit_queries[start:start + _BLOCK], vectors, ids, width, delta, vectors32)
        for start in range(0, len(unit_queries), _BLOCK))))
    excluded = (np.zeros(positions.shape, dtype=bool) if exclude_ids is None
                else ids[positions] == np.asarray(exclude_ids, dtype=np.int64)[:, None])
    # a stable sort moves the excluded place, if any, behind the others
    keep = np.argsort(excluded, axis=-1, kind="stable")[:, :k]
    filled = np.minimum(width - np.count_nonzero(excluded, axis=-1), k)
    return (np.take_along_axis(positions, keep, axis=-1),
            np.take_along_axis(scores, keep, axis=-1), filled)


def retrieve(index: EmbeddingIndex, query_embedding, target_modality, k,
             exclude_tuple_id=None):
    """Exact top-k by cosine score, as [(tuple_id, score), ...]: scores non-increasing,
    ties ordered by ascending tuple_id."""
    query = np.array(query_embedding, dtype=np.float64)[None]   # a copy: the caller's array
    positions, scores, filled = _top_k(
        index, _unit_queries(query, index.embedding_dim), target_modality, k,
        None if exclude_tuple_id is None else [exclude_tuple_id])
    n = filled[0]
    return list(zip(index.ids[positions[0, :n]].tolist(), scores[0, :n].tolist()))


def _label_bits(holder, held):
    """(N, ceil(len(held) / 64)) uint64 bitsets of the label layout of ``holder`` (a
    dataset or an index): row i has bit j set if tuple i holds ``held[j]``, of the
    ascending label ids ``held``."""
    offsets, label_ids = holder.label_offsets, holder.label_ids
    cols = np.searchsorted(held, label_ids)
    found = cols < len(held)
    found[found] = held[cols[found]] == label_ids[found]
    members = np.zeros((len(offsets) - 1, -(-len(held) // 64) * 64), dtype=bool)
    members[np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))[found], cols[found]] = True
    return np.packbits(members, axis=-1, bitorder="little").view(np.uint64)


def _score_rows(top, filled, queries, index):
    """F1@k and NDCG@k of (Q, w) rankings whose row i fills its first ``filled[i]``
    places, _BLOCK queries at a time (see the module notes). Only the labels the
    index holds get a bit. No Jaccard union is empty: a query's label set is not."""
    ordered = np.sort(index.label_ids)   # not np.unique, which would import numpy.ma
    held = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
    items, query_bits = _label_bits(index, held), _label_bits(queries, held)
    item_sizes, query_sizes = np.diff(index.label_offsets), np.diff(queries.label_offsets)
    discounts = [math.log2(p + 1) for p in range(1, top.shape[1] + 1)]
    f1, ndcg = np.empty(len(top)), np.empty(len(top))
    for start in range(0, len(top), _BLOCK):
        block = slice(start, start + _BLOCK)
        inter = np.bitwise_count(items[top[block]] & query_bits[block, None, :]).sum(
            axis=-1, dtype=np.intp)
        sizes = query_sizes[block, None] + item_sizes[top[block]]
        dice = 2.0 * inter / sizes
        # a set, not np.unique, which would import numpy.ma on first use
        for width in set(filled[block].tolist()):
            rows = np.flatnonzero(filled[block] == width)
            f1[start + rows] = np.mean(dice[rows, :width], axis=-1)
        gains = inter / (sizes - inter)
        gains[np.arange(gains.shape[1]) >= filled[block, None]] = 0.0
        dcg, idcg = np.zeros(len(gains)), np.zeros(len(gains))
        for col, ideal, d in zip(gains.T, np.sort(gains, axis=-1)[:, ::-1].T, discounts):
            dcg += col / d
            idcg += ideal / d
        ndcg[block] = np.divide(dcg, idcg, out=np.zeros_like(dcg), where=idcg > 0)
    return f1, ndcg


def _check_modality(index, m):
    if not 0 <= m < index.num_modalities:
        raise ContractError(f"modality {m} outside [0, {index.num_modalities})")


def unit_query_rows(params, index: EmbeddingIndex, query_split, src_modality):
    """The query split's src-modality rows as ``evaluate_cross_modal`` ranks them: one
    ``embed`` call, each row divided by its norm in the array it returns. The split
    must hold a query, and every query a label; a zero-norm row is an error."""
    _check_modality(index, src_modality)
    if not len(query_split):
        raise ContractError("empty query set")
    unlabelled = np.flatnonzero(np.diff(query_split.label_offsets) == 0)
    if len(unlabelled):
        raise ContractError(f"query tuple {query_split.ids[unlabelled[0]]} has no labels")
    return _unit_queries(embed(params, src_modality, query_split.features[src_modality]),
                         index.embedding_dim)


def evaluate_cross_modal(params, index: EmbeddingIndex, query_split,
                         src_modality, tgt_modality, k=8, queries=None) -> MetricsReport:
    """Mean F1@K / NDCG@K over all queries of one retrieval direction.

    Queries are embedded from their src-modality features and ranked together,
    block by block; candidates come from the prebuilt index (normally a
    different split). A query left with fewer than k candidates (an index of
    k rows or fewer) is scored over the candidates it has; a query left with
    none is an error. ``queries``, the rows ``unit_query_rows`` returns for this
    split and source, lets a caller that runs several directions from one
    source embed them once; by default they are embedded here.
    """
    for m in (src_modality, tgt_modality):
        _check_modality(index, m)
    if src_modality == tgt_modality:
        raise ContractError("cross-modal evaluation needs distinct modalities")
    if queries is None:
        queries = unit_query_rows(params, index, query_split, src_modality)
    ids = query_split.ids
    top, _, filled = _top_k(index, queries, tgt_modality, k, ids)
    if not filled.all():
        raise ContractError(f"query tuple {ids[np.argmin(filled)]} has no candidate in "
                            f"the index of modality {tgt_modality}")
    f1, ndcg = _score_rows(top, filled, query_split, index)
    return MetricsReport(src_modality=src_modality, tgt_modality=tgt_modality,
                         mean_f1=float(np.mean(f1)), mean_ndcg=float(np.mean(ndcg)),
                         query_ids=ids, f1=f1, ndcg=ndcg)


def _summaries(reports):
    """(direction, mean F1, mean NDCG) of each report, then their average if several."""
    rows = [(rep.direction, rep.mean_f1, rep.mean_ndcg) for rep in reports]
    if len(reports) > 1:
        rows.append(("average", sum(r.mean_f1 for r in reports) / len(reports),
                     sum(r.mean_ndcg for r in reports) / len(reports)))
    return rows


def metrics_to_csv(reports, path):
    """Per-query rows for each direction, their scores formatted by data.format_rows
    behind one byte matrix of their ``query_id,direction,`` prefixes, then one summary
    row per direction (``f"{x:.17g}"``, the text of ``"%.17g" % x``),
    each written as it is formed."""
    def text():
        yield b"query_id,direction,f1_at_k,ndcg_at_k\n"
        for rep in reports:
            ids = rep.query_ids.astype("S")   # each id's str(), NUL-padded
            tail = np.frombuffer(f",{rep.direction},".encode(), np.uint8)
            prefixes = np.empty((len(ids), ids.itemsize + len(tail)), np.uint8)
            prefixes[:, :ids.itemsize] = ids.view(np.uint8).reshape(len(ids), ids.itemsize)
            prefixes[:, ids.itemsize:] = tail
            yield format_rows(prefixes, np.stack([rep.f1, rep.ndcg], axis=1),
                              np.full((len(ids), 1), ord("\n"), np.uint8))
        yield "".join(f"summary,{name},{f1:.17g},{ndcg:.17g}\n"
                      for name, f1, ndcg in _summaries(reports))
    write_atomic(path, text())


def summary_table(reports):
    """Small aligned table: one row per direction plus the average."""
    return "\n".join([f"{'direction':<12}{'F1@K':>10}{'NDCG@K':>10}"] + [
        f"{name:<12}{f1:>10.4f}{ndcg:>10.4f}" for name, f1, ndcg in _summaries(reports)])
