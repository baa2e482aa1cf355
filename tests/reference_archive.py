"""The archive and metrics writers with one Python ``%`` per row, for tests:
``data.save_dataset`` and ``retrieval.metrics_to_csv`` must write their bytes."""

import hashlib

import numpy as np

from xmodal.data import COLUMNS_MAGIC, FORMAT_HEADER, write_atomic, write_container


def save_dataset_per_row(ds, path):
    """The text, each row through ``"%.17g"`` formats, then the sidecar ``<path>.cols``
    when the text parse would return these very columns."""
    row_format = ",".join(["%.17g"] * ds.input_dim)
    text_digest = hashlib.sha256()
    bounds, flat = ds.label_offsets.tolist(), ds.label_ids.tolist()
    def text():
        yield f"{FORMAT_HEADER} N={ds.num_modalities} dim={ds.input_dim} labels={ds.num_labels}\n"
        for tid, start, end, *rows in zip(ds.ids.tolist(), bounds, bounds[1:],
                                          *(f.tolist() for f in ds.features)):
            label_text = ",".join(map(str, flat[start:end]))
            yield "".join(f"{tid}\t{m}\t{row_format % tuple(row)}\t{label_text}\n"
                          for m, row in enumerate(rows))
    write_atomic(path, (text_digest.update(blob) or blob for blob in map(str.encode, text())))
    if (type(ds.num_labels) is not int or not 0 <= ds.num_labels < 2**63
            or any(len(c) != len(ds) for c in (bounds[1:], *ds.features))):
        return
    counts = [ds.num_modalities, ds.input_dim, ds.num_labels, len(ds), len(flat)]
    payload = b"".join([np.array(counts, "<i8").tobytes(), ds.ids.astype("<i8").tobytes(),
                        ds.features.astype("<f8").tobytes(),
                        ds.label_offsets.astype("<i8").tobytes(),
                        ds.label_ids.astype("<i8").tobytes()])
    write_container(f"{path}.cols", COLUMNS_MAGIC,
                    {"payload_sha256": hashlib.sha256(payload).hexdigest(),
                     "text_sha256": text_digest.hexdigest()}, [payload])


def metrics_to_csv_per_row(reports, summaries, path):
    """Each report's per-query rows, one ``%`` per row, then the ``summaries`` rows
    (direction, F1, NDCG)."""
    lines = ["query_id,direction,f1_at_k,ndcg_at_k\n"]
    for rep in reports:
        line = f"%d,{rep.direction},%.17g,%.17g\n"
        lines += [line % row for row in
                  zip(rep.query_ids.tolist(), rep.f1.tolist(), rep.ndcg.tolist())]
    lines += [f"summary,{name},{f1:.17g},{ndcg:.17g}\n" for name, f1, ndcg in summaries]
    write_atomic(path, ["".join(lines)])
