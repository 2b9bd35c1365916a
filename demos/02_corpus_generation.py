"""Synthetic document corpora with known sentence-image links.

A document is a bag of sentences plus a bag of images; which sentence
goes with which image is hidden at train time and used only for
evaluation.  The generator plants a latent cluster behind every matched
pair: the image's object features sit near the cluster prototype and the
sentence borrows the cluster's tokens, including one of the image's
concept tokens.  Token overlap therefore separates matched from
unmatched pairs, which gives a model-free sanity oracle.
"""

import os
import tempfile

import numpy as np

from doclink.corpus import (
    SynthConfig,
    generate_synthetic,
    load_corpus,
    save_corpus,
    save_split_manifest,
    token_overlap_scores,
)
from doclink.rng import RngStream

config = SynthConfig(
    train_docs=4,
    val_docs=1,
    test_docs=1,
    sentences_per_doc=4,
    images_per_doc=4,
    density=0.25,
    vocab_size=120,
    obj_dim=6,
    objects_per_image=2,
    sentence_len=5,
    concept_len=2,
    tokens_per_cluster=4,
    sigma=0.1,
)
corpus = generate_synthetic(config, RngStream(3))

doc = corpus.documents[0]
print(f"document {doc.id}: {len(doc.sentences)} sentences, {len(doc.images)} images")
print(f"gold edges (sentence, image): {sorted(doc.gold_edges)}")
print(f"sentence 0 tokens: {doc.sentences[0]}")
print(f"image 0 concept tokens: {doc.images[0].concepts}")
print(f"image 0 object features shape: {doc.images[0].objects.shape}")

print("\ntoken overlap per (sentence, image) cell:")
print(token_overlap_scores(doc).astype(int))
print("rows x cols above: overlap is positive exactly on the gold cells")

def corpora_equal(a, b):
    if [d.id for d in a.documents] != [d.id for d in b.documents]:
        return False
    for da, db in zip(a.documents, b.documents):
        if da.sentences != db.sentences:
            return False
        if sorted(da.gold_edges) != sorted(db.gold_edges):
            return False
        for ia, ib in zip(da.images, db.images):
            if ia.concepts != ib.concepts:
                return False
            if not np.array_equal(ia.objects, ib.objects):
                return False
    return True


with tempfile.TemporaryDirectory() as tmp:
    corpus_path = os.path.join(tmp, "corpus.jsonl")
    save_corpus(corpus, corpus_path)
    save_split_manifest(corpus.splits, os.path.join(tmp, "splits.json"))
    size = os.path.getsize(corpus_path)
    reloaded = load_corpus(corpus_path, splits=corpus.splits)
    print(f"\nround trip through a {size}-byte doclink-corpus-v2 zip: "
          f"equal={corpora_equal(reloaded, corpus)}")

centers = generate_synthetic(
    SynthConfig(
        train_docs=4, val_docs=1, test_docs=1,
        sentences_per_doc=4, images_per_doc=4, density=0.25,
        vocab_size=120, obj_dim=6, objects_per_image=2,
        sentence_len=5, concept_len=2, tokens_per_cluster=4,
        sigma=0.1, doc_center_scale=3.0,
    ),
    RngStream(3),
)


def mean_image_distance(c, same_document):
    means = [
        (d.id, img.objects.mean(axis=0))
        for d in c.documents for img in d.images
    ]
    gaps = [
        np.linalg.norm(fa - fb)
        for i, (da, fa) in enumerate(means)
        for db, fb in means[i + 1:]
        if (da == db) == same_document
    ]
    return float(np.mean(gaps))


for name, c in (("unclustered", corpus), ("clustered", centers)):
    within = mean_image_distance(c, same_document=True)
    across = mean_image_distance(c, same_document=False)
    print(f"{name}: within-document image distance {within:.2f}, "
          f"across documents {across:.2f}")
print("a per-document center stretches across-document gaps only (see demo 05)")
