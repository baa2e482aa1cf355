"""Row-at-a-time views of label layouts and of an EmbeddingIndex, for tests that
build or read them tuple by tuple."""

from typing import NamedTuple

import numpy as np

from xmodal.data import TupleDataset


def label_layout(sets):
    """(label_offsets, label_ids) of a list of label sets, each set's ids ascending."""
    ordered = [sorted(labels) for labels in sets]
    return (np.cumsum([0, *map(len, ordered)]),
            np.array([label for labels in ordered for label in labels], dtype=np.int64))


def label_sets(holder):
    """The label set of each tuple of a dataset or an index, as frozensets."""
    bounds, flat = holder.label_offsets.tolist(), holder.label_ids.tolist()
    return [frozenset(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def with_labels(ds, sets):
    """``ds`` with these label sets."""
    return TupleDataset(ds.ids, ds.features, *label_layout(sets), ds.num_labels)


class IndexEntry(NamedTuple):
    """One row of the index, as ``entries`` returns it."""
    tuple_id: int
    embedding: np.ndarray
    labels: frozenset


def entries(index, modality):
    """The rows of one modality as (tuple_id, embedding, labels) records."""
    return [IndexEntry(int(tid), row, labels) for tid, row, labels
            in zip(index.ids, index._vectors[modality], label_sets(index))]
