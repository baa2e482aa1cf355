"""Row-at-a-time access to an EmbeddingIndex, for tests that build or read one
row by row; every row goes through ``EmbeddingIndex.add``."""

from typing import NamedTuple

import numpy as np


class IndexEntry(NamedTuple):
    """One row of the index, as ``entries`` returns it."""
    tuple_id: int
    embedding: np.ndarray
    labels: frozenset


def insert(index, modality, tuple_id, embedding, labels):
    """Append one row; see ``EmbeddingIndex.add``."""
    index.add(modality, [tuple_id], np.asarray(embedding, dtype=np.float64)[None],
              [frozenset(labels)])


def entries(index, modality):
    """The rows of one modality as (tuple_id, embedding, labels) records."""
    return [IndexEntry(int(tid), row, labels) for tid, row, labels
            in zip(index._ids[modality], index._vectors[modality], index.labels(modality))]
