"""Document corpus model, on-disk formats, and a synthetic generator.

A document pairs a set of tokenized sentences with a set of images; each
image carries object feature rows plus one concept token sequence per
object.  Gold edges (sentence index, image index) are optional at training
time and required for evaluation.

On-disk formats (all UTF-8, LF endings):
  corpus     JSON Lines, one document per line
  embeddings JSON Lines {"id": int, "vec": [float, ...]}
  splits     JSON object {"train": [ids], "val": [ids], "test": [ids]}
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CorpusFormatError, CorpusValidationError, check_settings, setting
from .rng import RngStream

SPLITS = ("train", "val", "test")


@dataclass(eq=False)
class ImageRecord:
    """Object feature rows plus one concept token list per object."""

    objects: np.ndarray  # (mu, obj_dim) float64
    concepts: list  # mu entries, each a non-empty list of token ids

    def __eq__(self, other):
        return (
            isinstance(other, ImageRecord)
            and np.array_equal(self.objects, other.objects)
            and self.concepts == other.concepts
        )


@dataclass
class Document:
    id: str
    sentences: list  # list of token-id lists
    images: list  # list of ImageRecord
    gold_edges: set | None = None  # {(sentence_idx, image_idx)}


@dataclass
class Corpus:
    documents: list
    vocab_size: int
    obj_dim: int
    splits: dict = field(default_factory=dict)  # {"train": [ids], ...}

    def split_documents(self, split: str) -> list:
        ids = set(self.splits.get(split, []))
        return [d for d in self.documents if d.id in ids]


def _first_problem(doc: Document, vocab_size: int, obj_dim: int, max_sentence_len) -> str | None:
    """The first invariant ``doc`` breaks, or None."""

    def stray(tokens):  # the first token outside the vocabulary, or None
        for t in tokens:
            if not 0 <= int(t) < vocab_size:
                return t
        return None

    outside = f"outside vocabulary of size {vocab_size}"

    if len(doc.sentences) < 1:
        return "needs at least one sentence"
    if len(doc.images) < 1:
        return "needs at least one image"
    for s, tokens in enumerate(doc.sentences):
        if len(tokens) < 1:
            return f"sentence {s} is empty"
        if (t := stray(tokens)) is not None:
            return f"sentence {s} token {t} {outside}"
    for j, img in enumerate(doc.images):
        rows = img.objects.shape[0] if img.objects.ndim == 2 else 0
        if rows < 1:
            return f"image {j} needs at least one object row"
        width = img.objects.shape[1]
        if width < 1:
            return f"image {j} has empty object rows"
        if width != obj_dim:
            return f"image {j} object width {width} != object dimension {obj_dim}"
        if not np.isfinite(img.objects).all():
            return f"image {j} has non-finite object features"
        if len(img.concepts) != rows:
            return f"image {j} has {rows} objects but {len(img.concepts)} concept entries"
        for c, concept in enumerate(img.concepts):
            if len(concept) < 1:
                return f"image {j} concept {c} is empty"
            if (t := stray(concept)) is not None:
                return f"image {j} concept token {t} {outside}"
    for m, n in doc.gold_edges or ():
        if not (0 <= m < len(doc.sentences) and 0 <= n < len(doc.images)):
            return f"gold edge ({m},{n}) out of range"
    if max_sentence_len is not None:
        longest = max(len(tokens) for tokens in doc.sentences)
        if longest > max_sentence_len:
            return f"sentence length {longest} exceeds model max_sentence_len={max_sentence_len}"
    return None


def validate_document(doc: Document, vocab_size: int, obj_dim: int, max_sentence_len=None) -> None:
    """Enforce every structural invariant, and with ``max_sentence_len`` a
    bound on sentence length; raises CorpusValidationError naming the document."""
    if (problem := _first_problem(doc, vocab_size, obj_dim, max_sentence_len)) is not None:
        raise CorpusValidationError(f"document {doc.id!r}: {problem}")


def validate_corpus(corpus: Corpus) -> None:
    seen = set()
    for doc in corpus.documents:
        if doc.id in seen:
            raise CorpusValidationError(f"duplicate document id {doc.id!r}")
        seen.add(doc.id)
        validate_document(doc, corpus.vocab_size, corpus.obj_dim)
    if corpus.splits:
        claimed = []
        for name in corpus.splits:
            claimed.extend(corpus.splits[name])
        if len(claimed) != len(set(claimed)):
            raise CorpusValidationError("splits are not disjoint")
        if set(claimed) != seen:
            raise CorpusValidationError("splits do not cover all documents exactly")


# ---- serialization ---------------------------------------------------------


def _doc_to_record(doc: Document) -> dict:
    record = {
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
        record["gold_edges"] = [[int(m), int(n)] for m, n in sorted(doc.gold_edges)]
    return record


def _int_ids(values, what: str) -> list:
    """``values`` as a list, each a JSON integer: 3.7, true and "2" fail."""
    values = list(values)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} {v!r} is not an integer")
    return values


def _doc_from_record(record: dict, line_no: int) -> Document:
    doc_id = record.get("id") if isinstance(record, dict) else None
    try:
        sentences = [
            _int_ids(s["tokens"], f"sentence {i} token") for i, s in enumerate(record["sentences"])
        ]
        images = [
            ImageRecord(
                objects=np.array(img["objects"], dtype=np.float64),
                concepts=[_int_ids(c, f"image {j} concept token") for c in img["concepts"]],
            )
            for j, img in enumerate(record["images"])
        ]
        gold = record.get("gold_edges")
        edges = None
        if gold is not None:
            edges = {(m, n) for m, n in (_int_ids(e, "gold edge index") for e in gold)}
        return Document(id=str(record["id"]), sentences=sentences, images=images, gold_edges=edges)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorpusFormatError(
            f"malformed record of document {doc_id!r}: {exc}", line=line_no
        ) from exc


def _jsonl_values(path):
    """(line number, parsed value) for each non-blank line of a JSON Lines
    file; an undecodable line raises CorpusFormatError naming it."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # a UnicodeDecodeError is a ValueError
                raise CorpusFormatError(f"invalid UTF-8 JSON: {exc}", line=line_no) from exc
            yield line_no, value


def save_corpus(corpus: Corpus, path) -> None:
    """One JSON document per line, deterministic field ordering."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in corpus.documents:
            fh.write(json.dumps(_doc_to_record(doc), ensure_ascii=False))
            fh.write("\n")


def load_corpus(path, vocab_size: int | None = None, splits: dict | None = None) -> Corpus:
    """Parse and fully validate a JSONL corpus file.

    ``vocab_size`` defaults to (max token id + 1) over the whole file; the
    object dimension is inferred from the first object row and must be
    constant.  ``splits`` defaults to everything in "train".
    """
    documents = [_doc_from_record(record, line_no) for line_no, record in _jsonl_values(path)]
    if not documents:
        raise CorpusValidationError("no documents")

    if vocab_size is None:
        top = 0
        for doc in documents:
            for s in doc.sentences:
                top = max(top, max(s, default=-1))
            for img in doc.images:
                for c in img.concepts:
                    top = max(top, max(c, default=-1))
        vocab_size = top + 1
    # Validation rejects a first document without images or object rows.
    images = documents[0].images
    obj_dim = int(images[0].objects.shape[1]) if images and images[0].objects.ndim == 2 else 0

    if splits is None:
        splits = {"train": [d.id for d in documents], "val": [], "test": []}
    corpus = Corpus(documents=documents, vocab_size=vocab_size, obj_dim=obj_dim, splits=splits)
    validate_corpus(corpus)
    if any(doc.gold_edges is None for doc in documents):
        warnings.warn("corpus has documents without gold edges; evaluation will reject them")
    return corpus


def save_split_manifest(splits: dict, path) -> None:
    ordered = {name: list(splits.get(name, [])) for name in SPLITS}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ordered, fh, ensure_ascii=False)
        fh.write("\n")


def load_split_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise CorpusFormatError(f"split manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not all(isinstance(raw.get(n, []), list) for n in SPLITS):
        raise CorpusFormatError(
            f"split manifest {path} must be a JSON object of id lists per split"
        )
    return {name: [str(i) for i in raw.get(name, [])] for name in SPLITS}


def load_pretrained_embeddings(path) -> dict:
    """{token_id: vector}; every row must hold an integer id and a vector
    of the first row's width."""
    rows = {}
    width = None
    for line_no, record in _jsonl_values(path):
        try:
            token_id = _int_ids([record["id"]], "id")[0]
            vec = np.array(record["vec"], dtype=np.float64)
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(f"'vec' must be a non-empty flat list, got shape {vec.shape}")
            if width is not None and vec.size != width:
                raise ValueError(f"vector width {vec.size}, but the first row has {width}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorpusFormatError(f"malformed embedding row: {exc}", line=line_no) from exc
        width = vec.size
        rows[token_id] = vec
    if not rows:
        raise CorpusValidationError(f"embedding file {path} has no rows")
    return rows


# ---- synthetic generation ---------------------------------------------------


@dataclass
class SynthConfig:
    """Knobs for the cluster-based synthetic corpus.

    Every matched (sentence, image) group shares one latent cluster: the
    sentence samples tokens from the cluster's token subset, the image's
    object rows are the cluster prototype plus Gaussian noise, and its
    concept entries sample the same subset.  Each matched sentence also has
    one concept token per matched image implanted (capped by sentence
    length), so token overlap separates matched from unmatched pairs
    whenever the edge count stays within max(sentences, images), the regime
    where every match group is a star.

    doc_center_scale biases all clusters of one document toward a shared
    center, which makes image features cluster by document; token_noise
    replaces sentence tokens with uniform vocabulary draws.
    """

    train_docs: int = setting(8, low=0)
    val_docs: int = setting(2, low=0)
    test_docs: int = setting(2, low=0)
    sentences_per_doc: int = setting(5, low=1)
    images_per_doc: int = setting(5, low=1)
    density: float = setting(0.2, above=0, high=1)
    vocab_size: int = setting(400, low=1)
    obj_dim: int = setting(2048, low=1)
    objects_per_image: int = setting(36, low=1)
    sentence_len: int = setting(8, low=1)
    concept_len: int = setting(2, low=1)
    tokens_per_cluster: int = setting(6, low=1)
    sigma: float = setting(0.1, low=0)
    token_noise: float = setting(0.0, low=0, high=1)
    doc_center_scale: float = setting(0.0, low=0)

    def __post_init__(self):
        check_settings(self)
        total = self.train_docs + self.val_docs + self.test_docs
        if total < 1:
            raise ConfigError(f"train_docs + val_docs + test_docs must be >= 1, got {total}")


def _edge_cells(n: int, m: int, count: int) -> list:
    """First ``count`` cells of an (n x m) grid in star-friendly order.

    The cover stripe (t % n, t % m) for t < max(n, m) comes first: the
    diagonal, then the leftover rows or columns round-robin, so every group
    stays a star while count <= max(n, m).  The diagonal stripes
    (i, (i + offset) % m) for offset 1..m-1, each over i = 0..n-1, fill
    the remainder.
    """
    cover = [(t % n, t % m) for t in range(max(n, m))]
    stripes = [(i, (i + offset) % m) for offset in range(1, m) for i in range(n)]
    return list(dict.fromkeys(cover + stripes))[:count]


def _generate_document(doc_id: str, config: SynthConfig, rng: RngStream) -> Document:
    n, m = config.sentences_per_doc, config.images_per_doc
    edge_count = int(round(config.density * n * m))
    edge_count = max(1, min(edge_count, n * m))

    base = _edge_cells(n, m, edge_count)
    row_perm = rng.permutation(n)
    col_perm = rng.permutation(m)
    edges = {(int(row_perm[i]), int(col_perm[j])) for i, j in base}

    # Cluster assignment: one cluster per connected match group, one per
    # unmatched sentence/image so distractors never match each other.
    # Match groups are numbered first, in order of their lowest node (the
    # group's root: the larger root always goes under the smaller), then
    # unmatched sentences, then unmatched images.
    parent = list(range(n + m))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ra, rb = root(i), root(n + j)
        parent[max(ra, rb)] = min(ra, rb)
    matched = {i for i, _ in edges} | {n + j for _, j in edges}
    keys = [(node not in matched, root(node)) for node in range(n + m)]
    number = {key: c for c, key in enumerate(sorted(set(keys)))}
    cluster = [number[key] for key in keys]

    clusters = len(number)
    if clusters * config.tokens_per_cluster > config.vocab_size:
        raise ConfigError(
            f"vocab_size={config.vocab_size} cannot hold {clusters} disjoint "
            f"token subsets of {config.tokens_per_cluster}"
        )

    pool = rng.choice(config.vocab_size, size=clusters * config.tokens_per_cluster, replace=False)
    subsets = pool.reshape(clusters, config.tokens_per_cluster)
    center = rng.normal(size=config.obj_dim) * config.doc_center_scale
    prototypes = center[None, :] + rng.normal(size=(clusters, config.obj_dim))

    def draw(subset, size: int) -> list:
        # The same draws as rng.choice(subset, size), from the same stream use.
        return subset[rng.integers(0, len(subset), size)].tolist()

    sentences = []
    for i in range(n):
        tokens = draw(subsets[cluster[i]], config.sentence_len)
        if config.token_noise > 0.0:
            flips = rng.uniform(size=config.sentence_len) < config.token_noise
            for pos in np.flatnonzero(flips):
                tokens[pos] = int(rng.integers(0, config.vocab_size))
        sentences.append(tokens)

    images = []
    for j in range(m):
        proto = prototypes[cluster[n + j]]
        noise = rng.normal(size=(config.objects_per_image, config.obj_dim)) * config.sigma
        concepts = [
            draw(subsets[cluster[n + j]], config.concept_len)
            for _ in range(config.objects_per_image)
        ]
        images.append(ImageRecord(objects=proto[None, :] + noise, concepts=concepts))

    # Implant the first concept token of every matched image into its
    # sentence (one position per image, capped by sentence length), so token
    # overlap is guaranteed on gold edges of star-shaped match groups.
    match_lists = {}
    for i, j in sorted(edges):
        match_lists.setdefault(i, []).append(j)
    for i, js in match_lists.items():
        for pos, j in enumerate(js[: config.sentence_len]):
            sentences[i][pos] = int(images[j].concepts[0][0])

    return Document(id=doc_id, sentences=sentences, images=images, gold_edges=edges)


def generate_synthetic(config: SynthConfig, rng: RngStream) -> Corpus:
    """Deterministic synthetic corpus with known gold edges."""
    documents = []
    splits = {}
    for split, count in (
        ("train", config.train_docs),
        ("val", config.val_docs),
        ("test", config.test_docs),
    ):
        ids = []
        for i in range(count):
            doc_id = f"{split}-{i:04d}"
            documents.append(_generate_document(doc_id, config, rng))
            ids.append(doc_id)
        splits[split] = ids
    corpus = Corpus(
        documents=documents,
        vocab_size=config.vocab_size,
        obj_dim=config.obj_dim,
        splits=splits,
    )
    validate_corpus(corpus)
    return corpus


# ---- feature views -----------------------------------------------------------


def raw_feature_views(doc: Document, word_table: np.ndarray):
    """Mean token embedding per sentence, mean object row per image.

    Used only by the bias diagnostics; ``word_table`` is any (vocab, dim)
    embedding array (model table or pretrained file).
    """
    sent = np.stack([word_table[np.asarray(s, dtype=int)].mean(axis=0) for s in doc.sentences])
    img = np.stack([img_rec.objects.mean(axis=0) for img_rec in doc.images])
    return sent, img


def token_overlap_scores(doc: Document) -> np.ndarray:
    """Model-free affinity: |sentence tokens ∩ image concept tokens|."""
    scores = np.zeros((len(doc.sentences), len(doc.images)))
    image_tokens = [
        set(t for concept in img.concepts for t in concept) for img in doc.images
    ]
    for i, sent in enumerate(doc.sentences):
        s = set(sent)
        for j, toks in enumerate(image_tokens):
            scores[i, j] = len(s & toks)
    return scores
