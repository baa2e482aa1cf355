"""Index building, exact search vs a brute-force oracle, and ranking metrics."""

import math
import os
import re

import numpy as np
import pytest

from xmodal import retrieval
from xmodal.data import SynthConfig, TupleDataset, generate_synthetic, split
from xmodal.errors import ContractError, DegenerateInputError
from xmodal.model import ModelConfig, init_params
from xmodal.model import embed
from xmodal.retrieval import (_BLOCK, EmbeddingIndex, MetricsReport, _product_error_bound,
                              _top_k, _unit_queries, build_index, evaluate_cross_modal,
                              metrics_to_csv, retrieve, summary_table)

from index_rows import entries, label_layout, label_sets, with_labels
from reference_archive import metrics_to_csv_per_row
from reference_metrics import jaccard, ndcg_at_k, pair_f1

MODEL = ModelConfig(input_dim=12, backbone_hidden_dims=(8,), feature_dim=6,
                    embedding_dim=6, seed=0)


def random_index(rng, n, dim=6, modalities=2, num_labels=4):
    rows, sets = np.empty((modalities, n, dim)), []
    for m in range(modalities):
        for tid in range(n):
            rows[m, tid] = rng.normal(size=dim)
            sets.append({int(rng.integers(num_labels))})
    return EmbeddingIndex(dim, np.arange(n), *label_layout(sets[:n]), list(rows))


def one_label_index(ids, rows):
    """A one-modality index of these rows, every tuple labelled {0}."""
    return EmbeddingIndex(rows.shape[1], ids, *label_layout([{0}] * len(ids)), [rows])


@pytest.fixture(scope="module")
def small_ds():
    return generate_synthetic(SynthConfig(num_classes=4, num_tuples=40, input_dim=12,
                                          latent_dim=6, noise_sigma=0.05, seed=1))


class TestBuildIndex:
    def test_size_per_modality(self, small_ds):
        index = build_index(init_params(MODEL), small_ds)
        assert index.size(0) == len(small_ds)
        assert index.size(1) == len(small_ds)

    def test_rebuild_identical(self, small_ds):
        params = init_params(MODEL)
        i1, i2 = build_index(params, small_ds), build_index(params, small_ds)
        for m in range(2):
            for e1, e2 in zip(entries(i1, m), entries(i2, m)):
                assert e1.tuple_id == e2.tuple_id
                np.testing.assert_array_equal(e1.embedding, e2.embedding)

    def test_all_unit_norm(self, small_ds):
        index = build_index(init_params(MODEL), small_ds)
        for m in range(2):
            for e in entries(index, m):
                assert abs(np.linalg.norm(e.embedding) - 1.0) < 1e-12

    def test_float64_rows_are_normalised_in_place_others_copied(self):
        rows = np.random.default_rng(5).normal(size=(4, 3))
        expected = (rows / [[np.linalg.norm(row)] for row in rows]).tobytes()
        assert one_label_index([1, 2, 3, 4], rows)._vectors[0] is rows
        assert rows.tobytes() == expected
        single = rows.astype(np.float32)
        before = single.tobytes()
        stored = one_label_index([1, 2, 3, 4], single)._vectors[0]
        assert single.tobytes() == before and stored.dtype == np.float64
        np.testing.assert_allclose(np.linalg.norm(stored, axis=1), 1.0)

    def test_duplicate_id_rejected(self):
        with pytest.raises(ContractError, match="duplicate tuple_id 1"):
            EmbeddingIndex(3, [1, 1], *label_layout([{0}] * 2), [np.ones((2, 3)), None])

    def test_add_rejects_id_repeated_within_batch(self):
        with pytest.raises(ContractError, match="^duplicate tuple_id 4$"):
            one_label_index([2, 4, 6, 4], np.ones((4, 3)))

    def test_add_rejects_zero_norm_row_naming_it(self):
        z = np.ones((3, 3))
        z[1] = 0.0
        with pytest.raises(DegenerateInputError, match="zero-norm embedding for tuple 8"):
            one_label_index([5, 8, 9], z)

    def test_ids_labels_and_rows_must_agree(self):
        with pytest.raises(ContractError, match="^3 tuple ids and 2 label sets$"):
            EmbeddingIndex(3, [1, 2, 3], *label_layout([{0}] * 2), [np.ones((3, 3))])
        with pytest.raises(ContractError, match=r"embedding shape \(2, 3\) != \(3, 3\)"):
            one_label_index([1, 2, 3], np.ones((2, 3)))


class TestRetrieve:
    @pytest.mark.parametrize("shape", [(5,), (7,), (2, 6)])
    def test_query_of_another_shape_rejected(self, shape):
        index = random_index(np.random.default_rng(3), 10)   # embedding_dim 6
        with pytest.raises(ContractError, match=rf"^query embedding shape "
                                                rf"{re.escape(str(shape))} != \(6,\)$"):
            retrieve(index, np.ones(shape), 1, 3)

    def test_stored_embedding_ranks_first(self):
        rng = np.random.default_rng(2)
        index = random_index(rng, 20)
        target = entries(index, 1)[7]
        items = retrieve(index, target.embedding, 1, 3)
        assert items[0][0] == target.tuple_id
        assert items[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_top1(self):
        q = np.array([1.0, 0.0])
        index = one_label_index([0, 1, 2], np.array([[math.cos(angle), math.sin(angle)]
                                                     for angle in (0.45, 1.05, 1.47)]))
        items = retrieve(index, q, 0, 1)
        assert len(items) == 1
        assert items[0][0] == 0
        assert items[0][1] == pytest.approx(math.cos(0.45), abs=1e-12)

    def test_short_result_flagged(self):
        rng = np.random.default_rng(3)
        index = random_index(rng, 5)
        items = retrieve(index, rng.normal(size=6), 0, 10)
        assert len(items) < 10 and len(items) == 5

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        index = random_index(rng, 50)
        stored = entries(index, 1)
        for _ in range(200):
            q = rng.normal(size=6)
            qn = q / np.linalg.norm(q)
            oracle = sorted(((float(e.embedding @ qn), e.tuple_id) for e in stored),
                            key=lambda t: (-t[0], t[1]))[:8]
            items = retrieve(index, q, 1, 8)
            assert [(tid, s) for s, tid in oracle] == items

    def test_tie_order_by_ascending_id(self):
        v = np.array([1.0, 0.0])
        index = one_label_index([9, 3, 7], np.stack([v] * 3))
        items = retrieve(index, v, 0, 3)
        assert [tid for tid, _ in items] == [3, 7, 9]

    def test_self_tuple_exclusion(self):
        rng = np.random.default_rng(5)
        index = random_index(rng, 10)
        target = entries(index, 0)[4]
        items = retrieve(index, target.embedding, 0, 10,
                         exclude_tuple_id=target.tuple_id)
        assert target.tuple_id not in [tid for tid, _ in items]

    def test_empty_target_modality_rejected(self):
        index = EmbeddingIndex(3, [1], *label_layout([{0}]), [np.ones((1, 3)), None])
        with pytest.raises(ContractError, match="target modality 1 is unknown or empty"):
            retrieve(index, np.ones(3), 1, 4)

    def test_bad_k(self):
        index = random_index(np.random.default_rng(6), 5)
        with pytest.raises(ContractError):
            retrieve(index, np.ones(6), 0, 0)


def lexsort_top_k(index, unit_queries, target, k, exclude_ids):
    """Reference ranking: every row sorted whole by (-score, tuple_id), then cut to k."""
    vectors, ids = index._vectors[target], index.ids
    scores = np.vecdot(unit_queries[:, None, :], vectors[None, :, :])
    ranked = []
    for row, exclude in zip(scores, exclude_ids):
        order = [p for p in np.lexsort((ids, -row)) if ids[p] != exclude][:k]
        ranked.append((ids[order].tolist(), row[order].tolist()))
    return ranked


class TestTopK:
    @pytest.mark.parametrize("n,k", [(40, 1), (40, 5), (40, 8), (9, 8), (8, 8), (5, 8)])
    @pytest.mark.parametrize("nan_rows", [0, 1, 30])
    def test_equals_full_row_lexsort(self, n, k, nan_rows):
        # duplicated index rows put exact ties across the cut of many rows;
        # a NaN score is ranked as a full-row lexsort ranks it
        rng = np.random.default_rng(n * 100 + k + nan_rows)
        distinct = rng.normal(size=(n // 3 + 1, 3))
        index = one_label_index(rng.permutation(4 * n)[:n],
                                distinct[rng.integers(len(distinct), size=n)])
        index._vectors[0][:min(nan_rows, n)] = np.nan
        queries = _unit_queries(np.concatenate([rng.normal(size=(2 * _BLOCK, 3)), distinct]), 3)
        exclude = rng.choice(index.ids, size=len(queries))
        exclude[::2] = -1   # not in the index
        positions, scores, filled = _top_k(index, queries, 0, k, exclude)
        for i, (ids, row) in enumerate(lexsort_top_k(index, queries, 0, k, exclude)):
            assert filled[i] == len(ids)
            assert index.ids[positions[i, :filled[i]]].tolist() == ids
            np.testing.assert_array_equal(scores[i, :filled[i]], row)
        # one query at a time, as ``retrieve`` ranks it: an excluded id outside the
        # index, one inside it, and a query equal to rows the index holds repeated
        for i in (0, 1, len(queries) - 1):
            assert_top_k_equals_lexsort(index, queries[i:i + 1], k, exclude[i:i + 1])


def spy_paths(monkeypatch):
    """Counts of query rows ranked on their BLAS candidates (``filtered``) and on the
    whole row (``whole``), tallied from ``_rank_block``'s calls: a candidate set
    comes with a (rows, width) id matrix, a whole row with the index's id array."""
    counts = {"filtered": 0, "whole": 0}
    rank_block = retrieval._rank_block

    def spy(scores, ids, width):
        counts["filtered" if np.ndim(ids) == 2 else "whole"] += len(scores)
        return rank_block(scores, ids, width)
    monkeypatch.setattr(retrieval, "_rank_block", spy)
    return counts


def assert_top_k_equals_lexsort(index, queries, k, exclude):
    positions, scores, filled = _top_k(index, queries, 0, k, exclude)
    reference = lexsort_top_k(index, queries, 0, k,
                              [None] * len(queries) if exclude is None else exclude)
    for i, (ids, row) in enumerate(reference):
        assert filled[i] == len(ids)
        assert index.ids[positions[i, :filled[i]]].tolist() == ids
        np.testing.assert_array_equal(scores[i, :filled[i]], row)


def near_copies(rng, base, n, scale):
    """n rows, each ``base`` plus ``scale`` times a standard normal vector."""
    return base + scale * rng.normal(size=(n, len(base)))


class TestCandidateFilter:
    """The BLAS candidate filter of ``_top_k`` ranks as the full-row lexsort does,
    and takes the filter on the rows it should."""

    @pytest.mark.parametrize("k, scale", [(3, 2e-16), (8, 2e-16), (30, 2e-16), (8, 1e-9)],
                             ids=["3", "8", "30", "8-1e-9"])
    def test_last_ulp_rows_across_the_cut(self, monkeypatch, k, scale):
        # 60 rows a few ulps apart, which BLAS products and vecdot can order
        # differently, or 1e-9 apart, which float32 products cannot separate and
        # vecdot can: all lie within the bound of the cut, so every query ranks
        # whole rows (with no bound, the products alone would pick the candidates)
        rng = np.random.default_rng(k)
        base = rng.normal(size=128)
        base /= np.linalg.norm(base)
        index = one_label_index(rng.permutation(200)[:60], near_copies(rng, base, 60, scale))
        queries = _unit_queries(near_copies(rng, base, 40, 1e-3), 128)
        counts = spy_paths(monkeypatch)
        assert_top_k_equals_lexsort(index, queries, k, None)
        assert counts == {"filtered": 0, "whole": 40}

    def test_last_ulp_rows_inside_the_cut_take_the_filter(self, monkeypatch):
        # the 9 candidates of each query are a few ulps apart and far above the rest:
        # vecdot, not the BLAS product, orders them
        rng = np.random.default_rng(1)
        base = rng.normal(size=128)
        base /= np.linalg.norm(base)
        rows = np.concatenate([near_copies(rng, base, 9, 2e-16), rng.normal(size=(50, 128))])
        index = one_label_index(rng.permutation(100)[:59], rows)
        queries = _unit_queries(near_copies(rng, base, 40, 1e-3), 128)
        counts = spy_paths(monkeypatch)
        assert_top_k_equals_lexsort(index, queries, 8, None)
        assert counts == {"filtered": 40, "whole": 0}

    def test_one_block_mixes_filtered_and_whole_rows(self, monkeypatch):
        # even queries sit on a cluster of 20 rows within the bound of each other
        # (more than k + 1 candidates: whole row); odd queries are well-separated
        # index rows facing away from the cluster (exactly k + 1 candidates: filtered)
        rng = np.random.default_rng(2)
        base = rng.normal(size=16)
        base /= np.linalg.norm(base)
        spread = rng.normal(size=(80, 16))
        spread *= -np.sign(spread @ base)[:, None]
        index = one_label_index(rng.permutation(300)[:100],
                                np.concatenate([near_copies(rng, base, 20, 1e-17), spread]))
        queries = np.empty((_BLOCK, 16))
        queries[0::2] = near_copies(rng, base, _BLOCK // 2, 1e-4)
        queries[1::2] = spread[:_BLOCK // 2]
        queries = _unit_queries(queries, 16)
        exclude = index.ids[rng.integers(100, size=_BLOCK)]
        counts = spy_paths(monkeypatch)
        assert_top_k_equals_lexsort(index, queries, 8, exclude)
        assert counts == {"filtered": _BLOCK // 2, "whole": _BLOCK // 2}

    @pytest.mark.parametrize("dim", [1, 2, 128])
    @pytest.mark.parametrize("exclusion", [False, True])
    def test_dimensions_and_exclusion(self, dim, exclusion):
        # at D = 1 every score is +-1: each row is a tie at its cut and ranked whole
        rng = np.random.default_rng(dim)
        index = one_label_index(rng.permutation(400)[:150], rng.normal(size=(150, dim)))
        queries = _unit_queries(rng.normal(size=(300, dim)), dim)
        exclude = rng.choice(index.ids, size=300) if exclusion else None
        for k in (1, 8, 40):
            assert_top_k_equals_lexsort(index, queries, k, exclude)

    def test_row_norms_a_few_ulps_off_one(self, monkeypatch):
        rng = np.random.default_rng(3)
        index = one_label_index(np.arange(200), rng.normal(size=(200, 128)))
        index._vectors[0] *= 1 + rng.integers(-4, 5, size=(200, 1)) * 2.0**-52
        queries = _unit_queries(rng.normal(size=(150, 128)), 128)
        queries *= 1 + rng.integers(-4, 5, size=(150, 1)) * 2.0**-52
        counts = spy_paths(monkeypatch)
        assert_top_k_equals_lexsort(index, queries, 8, index.ids[:150])
        assert counts == {"filtered": 149, "whole": 1}

    @pytest.mark.parametrize("k", [8, 9, 20, 10**20])
    def test_width_is_the_whole_index(self, monkeypatch, k):
        # 9 rows: k + 1 places reach every row, which is ranked whole; a k of N or
        # more, even one past int64, ranks as k = N does
        rng = np.random.default_rng(k % 2**32)
        index = one_label_index(rng.permutation(20)[:9], rng.normal(size=(9, 5)))
        queries = _unit_queries(rng.normal(size=(30, 5)), 5)
        exclude = rng.choice(index.ids, size=30)
        counts = spy_paths(monkeypatch)
        assert_top_k_equals_lexsort(index, queries, k, exclude)
        assert counts["filtered"] == 0
        for got, want in zip(_top_k(index, queries, 0, k, exclude),
                             _top_k(index, queries, 0, min(k, 9), exclude)):
            np.testing.assert_array_equal(got, want)

    def test_single_query_ranks_the_whole_row(self, monkeypatch):
        # one query's row of products would cost what its row of vecdot scores does
        rng = np.random.default_rng(5)
        index = one_label_index(np.arange(200), rng.normal(size=(200, 128)))
        counts = spy_paths(monkeypatch)
        assert_top_k_equals_lexsort(index, _unit_queries(rng.normal(size=(1, 128)), 128), 8, [3])
        assert counts == {"filtered": 0, "whole": 1}

    def test_random_differential_at_the_eval_scan_shape(self, monkeypatch):
        # 1040 queries against 480 rows at D = 128 and k = 8, as in evaluate
        rng = np.random.default_rng(4)
        index = one_label_index(rng.permutation(2000)[:480], rng.normal(size=(480, 128)))
        queries = _unit_queries(rng.normal(size=(1040, 128)), 128)
        counts = spy_paths(monkeypatch)
        assert_top_k_equals_lexsort(index, queries, 8, rng.choice(2000, size=1040))
        assert counts == {"filtered": 1035, "whole": 5}


def bound_rows(rng, n, dim):
    """n unit rows, a few ulps off unit norm, a quarter of each kind: random ones;
    ones whose components run from 1 down to 1e-45 and 0 (subnormal or flushed to
    0 in float32); ones of a single sign, whose float32 partial sums grow large
    and lose the most; and near-duplicates of one of those."""
    quarter = n // 4
    rows = rng.normal(size=(n, dim))
    small = np.array([10.0 ** -e for e in range(46)] + [0.0])
    rows[quarter:2 * quarter] = (rng.choice(small, size=(quarter, dim))
                                 * rng.choice([-1, 1], size=(1, dim)))
    rows[quarter:2 * quarter, rng.integers(dim)] = 1.0
    rows[2 * quarter:] = np.abs(rows[2 * quarter:])
    rows[3 * quarter:] = near_copies(rng, rows[2 * quarter], n - 3 * quarter, 1e-12)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows * (1 + rng.integers(-4, 5, size=(n, 1)) * 2.0**-52)


class TestProductErrorBound:
    """delta bounds |g - v| over every pair: g the float32 product as ``_score_block``
    takes it, v the float64 ``np.vecdot`` score."""

    @pytest.mark.parametrize("dim", [1, 2, 16, 128, 1024])
    def test_bound_holds_on_every_pair(self, dim):
        rng = np.random.default_rng(dim)
        queries, vectors = bound_rows(rng, 96, dim), bound_rows(rng, 120, dim)
        g = queries.astype(np.float32) @ vectors.astype(np.float32).T
        v = np.vecdot(queries[:, None, :], vectors[None, :, :])
        assert np.max(np.abs(g.astype(np.float64) - v)) <= _product_error_bound(queries, vectors)

    def test_value_at_unit_rows(self):
        unit = np.eye(128)
        assert _product_error_bound(unit, unit) == pytest.approx(7.8e-6, rel=0.01)

    def test_nan_makes_delta_nan(self):
        rows = np.eye(4)
        rows[2, 1] = np.nan
        assert np.isnan(_product_error_bound(rows, np.eye(4)))
        assert np.isnan(_product_error_bound(np.eye(4), rows))


class TestPairF1:
    def test_identical_sets(self):
        assert pair_f1({1, 2}, {1, 2}) == 1.0

    def test_disjoint_sets(self):
        assert pair_f1({1}, {2}) == 0.0

    def test_closed_form(self):
        assert pair_f1({1, 2, 3}, {2, 3, 4}) == pytest.approx(2 / 3)

    def test_empty_item_scores_zero(self):
        assert pair_f1({1}, set()) == 0.0

    def test_empty_query_rejected(self):
        with pytest.raises(ContractError):
            pair_f1(set(), {1})


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        assert ndcg_at_k([3.0, 2.0, 1.0, 0.5], 4) == pytest.approx(1.0)

    def test_all_zero_is_zero(self):
        assert ndcg_at_k([0.0, 0.0, 0.0], 3) == 0.0

    def test_closed_form(self):
        assert ndcg_at_k([0.0, 1.0], 2) == pytest.approx(1 / math.log2(3), abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            ndcg_at_k([1.0, -0.5], 2)

    def test_equal_relevance_permutation_invariant(self):
        # swapping equally relevant items cannot change the score, while
        # moving a less relevant item earlier does
        base = ndcg_at_k([0.5, 0.2, 0.5, 0.5], 4)
        assert ndcg_at_k([0.5, 0.2, 0.5, 0.5], 4) == base
        assert ndcg_at_k([0.2, 0.5, 0.5, 0.5], 4) < base

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rels = rng.uniform(0, 2, size=6)
            assert 0.0 <= ndcg_at_k(list(rels), 4) <= 1.0 + 1e-12


class TestEvaluateCrossModal:
    def test_saturated_relevance_gives_ones(self, small_ds):
        # every candidate shares the query's exact label set
        params = init_params(MODEL)
        uniform = generate_synthetic(SynthConfig(num_classes=2, num_tuples=30,
                                                 input_dim=12, latent_dim=6, seed=8))
        uniform = with_labels(uniform, [{0}] * len(uniform))
        tr, _, te = split(uniform, (0.5, 0.25, 0.25), seed=0)
        index = build_index(params, te)
        rep = evaluate_cross_modal(params, index, tr, 0, 1, k=4)
        assert rep.mean_f1 == pytest.approx(1.0)
        assert rep.mean_ndcg == pytest.approx(1.0)

    def test_chance_baseline_random_embeddings(self):
        # untrained params on single-label classes: F1@K concentrates near 1/C
        num_classes = 4
        ds = generate_synthetic(SynthConfig(num_classes=num_classes, num_tuples=700,
                                            input_dim=12, latent_dim=6,
                                            noise_sigma=2.0, seed=9))
        params = init_params(MODEL)
        tr, _, te = split(ds, (0.76, 0.12, 0.12), seed=0)
        index = build_index(params, te)
        rep = evaluate_cross_modal(params, index, tr, 0, 1, k=8)
        assert len(rep.query_ids) >= 500
        assert rep.mean_f1 == pytest.approx(1 / num_classes, abs=0.05)

    def test_direction_asymmetry_evaluated_independently(self, small_ds):
        params = init_params(MODEL)
        tr, _, te = split(small_ds, (0.5, 0.25, 0.25), seed=0)
        index = build_index(params, te)
        a = evaluate_cross_modal(params, index, tr, 0, 1, k=4)
        b = evaluate_cross_modal(params, index, tr, 1, 0, k=4)
        assert a.direction == "0->1" and b.direction == "1->0"

    @staticmethod
    def tied_dataset():
        # multi-label tuples with runs of exactly equal features, whose tie
        # order changes F1 and NDCG
        ds = generate_synthetic(SynthConfig(num_classes=6, num_tuples=2 * _BLOCK + 30,
                                            input_dim=12, latent_dim=6, noise_sigma=0.3,
                                            multi_label=True, seed=12))
        features = [f.copy() for f in ds.features]
        for i in range(1, len(ds), 3):
            for f in features:
                f[i] = f[i - 1]
        return TupleDataset(ds.ids, features, ds.label_offsets, ds.label_ids, ds.num_labels)

    @staticmethod
    def assert_rows_equal_retrieve_loop(params, index, ds, k):
        """Every evaluate row equals the per-item functions over its own retrieve call."""
        for src, tgt in ((0, 1), (1, 0)):
            rep = evaluate_cross_modal(params, index, ds, src, tgt, k=k)
            labels = {e.tuple_id: e.labels for e in entries(index, tgt)}
            queries = embed(params, src, ds.features[src])
            f1, ndcg = [], []
            for tuple_id, query_labels, q in zip(ds.ids.tolist(), label_sets(ds), queries):
                items = retrieve(index, q, tgt, k, exclude_tuple_id=tuple_id)
                assert tuple_id not in [tid for tid, _ in items]
                f1.append(float(np.mean([pair_f1(query_labels, labels[tid])
                                         for tid, _ in items])))
                ndcg.append(ndcg_at_k([jaccard(query_labels, labels[tid]) for tid, _ in items], k))
            # bit for bit, per query
            assert rep.query_ids.tolist() == ds.ids.tolist()
            assert rep.f1.tobytes() == np.array(f1).tobytes()
            assert rep.ndcg.tobytes() == np.array(ndcg).tobytes()
            assert rep.mean_f1 == float(np.mean(f1))
            assert rep.mean_ndcg == float(np.mean(ndcg))

    # NumPy's pairwise mean changes its summation order at 8 items
    @pytest.mark.parametrize("k", [1, 5, 8, 9, 16])
    def test_rows_equal_per_query_retrieve_loop(self, k):
        # more queries than one block, the query tuples themselves in the index
        # (self-exclusion matters)
        ds = self.tied_dataset()
        params = init_params(MODEL)
        assert len(ds) > _BLOCK
        self.assert_rows_equal_retrieve_loop(params, build_index(params, ds), ds, k)

    def test_short_rows_equal_per_query_retrieve_loop(self):
        # an index of exactly k rows: the queries it holds keep k - 1 candidates
        # (scored item by item), the others all k, in the same block
        ds, k = self.tied_dataset(), 5
        params = init_params(MODEL)
        held, queries = ds.take(np.arange(k)), ds.take(np.arange(3 * k))
        index = build_index(params, held)
        assert len(retrieve(index, embed(params, 0, ds.features[0][:1])[0], 1, k,
                            exclude_tuple_id=int(ds.ids[0]))) < k
        self.assert_rows_equal_retrieve_loop(params, index, queries, k)

    def test_empty_item_and_unheld_query_label_equal_retrieve_loop(self):
        # an index item with no labels, and query labels (class 5) that no index
        # item holds, so that they get no scoring column
        ds, k = self.tied_dataset(), 8
        params = init_params(MODEL)
        sets = label_sets(ds)
        held = with_labels(ds.take(np.arange(60)),
                           [frozenset(), *(labels - {5} for labels in sets[1:60])])
        queries = ds.take(np.arange(60, 160))
        assert any(5 in s for s in label_sets(queries))
        index = build_index(params, held)
        assert 5 not in index.label_ids and index.label_offsets[1] == 0
        self.assert_rows_equal_retrieve_loop(params, index, queries, k)

    @pytest.mark.parametrize("k", [1, 8, 200])
    def test_wide_vocabulary_equals_retrieve_loop(self, k):
        # more than 64 labels held, so each tuple's label bitset takes two words or
        # more; query labels the index never holds; and k = 200 above the index's 90 rows
        ds = generate_synthetic(SynthConfig(num_classes=150, num_tuples=250, input_dim=12,
                                            latent_dim=6, noise_sigma=0.3, multi_label=True,
                                            seed=13))
        params = init_params(MODEL)
        held, queries = ds.take(np.arange(90)), ds.take(np.arange(90, 250))
        index = build_index(params, held)
        assert len(set(index.label_ids.tolist())) > 64
        assert set(queries.label_ids.tolist()) - set(index.label_ids.tolist())
        self.assert_rows_equal_retrieve_loop(params, index, queries, k)

    def test_modality_out_of_range_rejected(self, small_ds):
        params = init_params(MODEL)
        index = build_index(params, small_ds)
        for src, tgt in ((0, 5), (5, 0), (-1, 1)):
            with pytest.raises(ContractError, match="outside"):
                evaluate_cross_modal(params, index, small_ds, src, tgt)

    def test_same_modality_rejected(self, small_ds):
        params = init_params(MODEL)
        index = build_index(params, small_ds)
        with pytest.raises(ContractError):
            evaluate_cross_modal(params, index, small_ds, 0, 0)

    def test_f1_monotone_under_label_upgrade(self):
        # giving a retrieved item the query's full label set never hurts F1@K
        rng = np.random.default_rng(10)
        query_labels = {1, 2}
        items = [frozenset({int(rng.integers(4))}) for _ in range(8)]
        f1_before = np.mean([pair_f1(query_labels, s) for s in items])
        for upgrade_pos in range(8):
            upgraded = list(items)
            upgraded[upgrade_pos] = frozenset(query_labels)
            f1_after = np.mean([pair_f1(query_labels, s) for s in upgraded])
            assert f1_after >= f1_before - 1e-12

    def test_ndcg_can_drop_when_late_item_upgraded(self):
        # upgrading a late-ranked item raises the ideal ordering's gain more
        # than the achieved gain, so NDCG is not monotone under upgrades
        before = ndcg_at_k([1.0] + [0.0] * 7, 8)
        after = ndcg_at_k([1.0] + [0.0] * 6 + [1.0], 8)
        assert before == pytest.approx(1.0)
        assert after < before

    def test_ndcg_monotone_when_top_item_upgraded(self):
        rels = [0.3, 0.6, 0.1, 0.4]
        assert ndcg_at_k([1.0] + rels[1:], 4) >= ndcg_at_k(rels, 4)

    def test_csv_write_that_fails_leaves_no_partial_file(self, small_ds, tmp_path):
        params = init_params(MODEL)
        tr, _, te = split(small_ds, (0.5, 0.25, 0.25), seed=0)
        good = evaluate_cross_modal(params, build_index(params, te), tr, 0, 1, k=4)
        # a direction that UTF-8 cannot encode fails inside write_atomic, after the
        # tmp file is opened
        bad = MetricsReport("\ud800", 0, mean_f1=0.5, mean_ndcg=0.5, query_ids=np.array([0, 1]),
                            f1=np.array([0.5, 0.5]), ndcg=np.array([0.5, 0.5]))
        path = tmp_path / "metrics.csv"
        with pytest.raises(ValueError):
            metrics_to_csv([good, bad], path)
        assert os.listdir(tmp_path) == []
        metrics_to_csv([good], path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            metrics_to_csv([good, bad], path)
        assert path.read_bytes() == before and os.listdir(tmp_path) == ["metrics.csv"]

    def test_csv_and_table(self, small_ds, tmp_path):
        params = init_params(MODEL)
        tr, _, te = split(small_ds, (0.5, 0.25, 0.25), seed=0)
        index = build_index(params, te)
        reps = [evaluate_cross_modal(params, index, tr, 0, 1, k=4),
                evaluate_cross_modal(params, index, tr, 1, 0, k=4)]
        path = tmp_path / "metrics.csv"
        metrics_to_csv(reps, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,direction,f1_at_k,ndcg_at_k"
        assert sum(1 for l in lines if l.startswith("summary,")) == 3
        table = summary_table(reps)
        assert "average" in table and "0->1" in table

    def test_csv_bytes_of_the_per_row_writer(self, small_ds, tmp_path):
        params = init_params(MODEL)
        tr, _, te = split(small_ds, (0.5, 0.25, 0.25), seed=0)
        index = build_index(params, te)
        reps = [evaluate_cross_modal(params, index, tr, 0, 1, k=4),
                evaluate_cross_modal(params, index, tr, 1, 0, k=4),
                # scores that Python's % writes itself: zeros, tiny, huge, non-finite
                MetricsReport(1, 1, mean_f1=0.5, mean_ndcg=0.5, query_ids=np.arange(4) - 2,
                              f1=np.array([0.0, -0.0, 1e-300, np.nan]),
                              ndcg=np.array([1.0, 1e20, np.inf, 1 / 3])),
                # ids of every width, the int64 extremes among them
                MetricsReport(0, 2, mean_f1=0.5, mean_ndcg=0.5, query_ids=np.array(
                    [-2**63, 2**63 - 1, -10**18, 10**18, -7, 0, 123456789]),
                              f1=np.linspace(0, 1, 7), ndcg=np.linspace(1, 0, 7))]
        metrics_to_csv(reps, tmp_path / "metrics.csv")
        metrics_to_csv_per_row(reps, retrieval._summaries(reps), tmp_path / "per_row.csv")
        assert (tmp_path / "metrics.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()
