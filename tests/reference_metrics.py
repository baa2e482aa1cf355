"""Per-item retrieval metrics, for tests: ``pair_f1`` (Dice overlap of label sets),
``jaccard`` and ``ndcg_at_k``. ``retrieval.evaluate_cross_modal`` scores a block of
queries at once with the float64 operations, in the same order, of these."""

import math

from xmodal.errors import ContractError


def pair_f1(query_labels, item_labels):
    """Dice overlap of two label sets: 2|A & B| / (|A| + |B|)."""
    query_labels = frozenset(query_labels)
    if not query_labels:
        raise ContractError("pair_f1: empty query label set")
    item_labels = frozenset(item_labels)
    if not item_labels:
        return 0.0
    return 2.0 * len(query_labels & item_labels) / (len(query_labels) + len(item_labels))


def jaccard(a, b):
    a, b = frozenset(a), frozenset(b)
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def ndcg_at_k(relevances, k):
    """DCG over the first k positions, normalized by the ideal ordering; 0 if all zero."""
    relevances = list(relevances)
    if not relevances:
        raise ContractError("ndcg_at_k: empty relevance list")
    if any(r < 0 for r in relevances):
        raise ContractError("ndcg_at_k: negative relevance")
    dcg = idcg = 0.0   # plain additions in rank order: sum() compensates on Python 3.12+
    for p, (r, ideal) in enumerate(zip(relevances[:k], sorted(relevances, reverse=True)), 1):
        dcg += r / math.log2(p + 1)
        idcg += ideal / math.log2(p + 1)
    return dcg / idcg if idcg > 0 else 0.0
