"""Render a corpus as JSON Lines and read back the records of either corpus
format, for tests that edit a corpus file by hand."""

import json

import numpy as np

from checkpoint_edit import rewrite_checkpoint
from doclink.archive import is_zip
from doclink.corpus import load_corpus


def record(doc) -> dict:
    """One document as a JSON Lines record: id, sentences, images, and
    gold_edges (sorted) unless the document has none."""
    out = {
        "id": doc.id,
        "sentences": [{"tokens": [int(t) for t in s]} for s in doc.sentences],
        "images": [
            {
                "objects": np.asarray(img.objects, np.float64).tolist(),
                "concepts": [[int(t) for t in c] for c in img.concepts],
            }
            for img in doc.images
        ],
    }
    if doc.gold_edges is not None:
        out["gold_edges"] = [[int(m), int(n)] for m, n in sorted(doc.gold_edges)]
    return out


def jsonl_bytes(records) -> bytes:
    """One JSON object per line, UTF-8; each item is a record or a Document."""
    return "".join(
        json.dumps(r if isinstance(r, dict) else record(r), ensure_ascii=False) + "\n"
        for r in records
    ).encode("utf-8")


def read_records(path) -> list:
    """The records of the corpus file at ``path``: a doclink-corpus-v2 zip
    (loaded and validated) or JSON Lines (parsed line by line)."""
    if is_zip(path):
        return [record(doc) for doc in load_corpus(path).documents]
    with open(path, "rb") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def rewrite_corpus(src, dst, edit=None) -> list:
    """Write the corpus ``src`` to ``dst`` as JSON Lines, after ``edit``
    changed its list of records in place; returns the records written."""
    records = read_records(src)
    if edit is not None:
        edit(records)
    with open(dst, "wb") as fh:
        fh.write(jsonl_bytes(records))
    return records


# A corpus zip and a checkpoint share one container (doclink.archive), so
# one rewriter edits both: it copies a zip with its header edited or its
# ``.npy`` members replaced.
rewrite_zip = rewrite_checkpoint
