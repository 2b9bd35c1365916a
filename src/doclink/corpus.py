"""Document corpus model, on-disk formats, and a synthetic generator.

A document pairs a set of tokenized sentences with a set of images; each
image carries object feature rows plus one concept token sequence per
object.  Gold edges (sentence index, image index) are optional at training
time and required for evaluation.

On-disk formats:
  corpus     a ``doclink-corpus-v2`` zip (save_corpus; doclink.archive reads
             it): a ``header.json`` with the format tag and the document ids,
             and flat ``.npy`` arrays of counts, tokens, object rows and gold
             edges.  load_corpus also reads JSON Lines, one document per
             line, for corpora written by hand:
             {"id": str, "sentences": [{"tokens": [int, ...]}, ...],
              "images": [{"objects": [[float, ...], ...],
                          "concepts": [[int, ...], ...]}, ...],
              "gold_edges": [[sentence, image], ...]}  (gold_edges optional)
  embeddings JSON Lines {"id": int, "vec": [float, ...]}
  splits     JSON object {"train": [ids], "val": [ids], "test": [ids]}
JSON files are UTF-8 with LF endings.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .archive import is_zip, load_zip, save_zip
from .errors import (ConfigError, CorpusFormatError, CorpusValidationError, MissingGoldEdgesError,
                     check_settings, setting)
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

    def split_documents(self, split: str, nonempty: bool = False) -> list:
        """The split's documents; none raises CorpusValidationError if ``nonempty``."""
        ids = set(self.splits.get(split, []))
        docs = [d for d in self.documents if d.id in ids]
        if nonempty and not docs:
            raise CorpusValidationError(f"split {split!r} has no documents")
        return docs

    def gold_documents(self, split: str) -> list:
        """The split's documents, for a reader of gold edges: an empty split
        raises CorpusValidationError and a document without gold edges
        MissingGoldEdgesError."""
        docs = self.split_documents(split, nonempty=True)
        for doc in docs:
            if doc.gold_edges is None:
                raise MissingGoldEdgesError(f"document {doc.id!r} has no gold edges")
        return docs


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
    """Raise CorpusValidationError naming the document and its first broken
    invariant; with ``max_sentence_len``, against a model's three limits."""
    if (problem := _first_problem(doc, vocab_size, obj_dim, max_sentence_len)) is not None:
        if max_sentence_len is not None:
            problem += f" (model vocab_size={vocab_size}, obj_dim={obj_dim})"
        raise CorpusValidationError(f"document {doc.id!r}: {problem}")


def validate_corpus(corpus: Corpus) -> None:
    seen = set()
    for doc in corpus.documents:
        if doc.id in seen:
            raise CorpusValidationError(f"duplicate document id {doc.id!r}")
        seen.add(doc.id)
        validate_document(doc, corpus.vocab_size, corpus.obj_dim)
    if corpus.splits:
        listed = {}  # document id -> the splits listing it, once per listing
        for name, ids in corpus.splits.items():
            for doc_id in ids:
                listed.setdefault(doc_id, []).append(name)
        uncovered = "splits do not cover all documents exactly"
        for doc_id, names in listed.items():
            if len(names) > 1:
                raise CorpusValidationError(
                    f"splits are not disjoint: document {doc_id!r} is listed in {names}"
                )
            if doc_id not in seen:
                raise CorpusValidationError(
                    f"{uncovered}: split {names[0]!r} lists unknown document {doc_id!r}"
                )
        for doc in corpus.documents:
            if doc.id not in listed:
                raise CorpusValidationError(f"{uncovered}: document {doc.id!r} is in no split")


# ---- serialization ---------------------------------------------------------

CORPUS_FORMAT = "doclink-corpus-v2"
# The zip's array members, in order: name -> (dtype, ndim).  The counts hold
# one entry per document, sentence, image or object; they cut the tokens,
# concept tokens, gold edges and object rows into their owners' pieces.
MEMBERS = {
    "sentences_per_doc": ("<i8", 1),
    "images_per_doc": ("<i8", 1),
    "edges_per_doc": ("<i8", 1),  # -1: no gold edges (None)
    "sentence_lengths": ("<i8", 1),
    "tokens": ("<i8", 1),
    "objects_per_image": ("<i8", 1),
    "concept_lengths": ("<i8", 1),
    "concept_tokens": ("<i8", 1),
    "edges": ("<i8", 2),  # (E, 2) (sentence, image) pairs, sorted per document
    "objects": ("<f8", 2),  # (rows, obj_dim)
}
PER_DOC = ("sentences_per_doc", "images_per_doc", "edges_per_doc")
# (counts, counted): the counts sum to the number of rows of ``counted``.
COUNTED = (
    ("sentences_per_doc", "sentence_lengths"),
    ("sentence_lengths", "tokens"),
    ("images_per_doc", "objects_per_image"),
    ("objects_per_image", "concept_lengths"),
    ("objects_per_image", "objects"),
    ("concept_lengths", "concept_tokens"),
    ("edges_per_doc", "edges"),
)


def save_corpus(corpus: Corpus, path) -> None:
    """Write a ``doclink-corpus-v2`` zip with :func:`save_zip`: the document
    ids in the header, then the flat arrays of MEMBERS."""
    docs = corpus.documents
    sentences = [s for doc in docs for s in doc.sentences]
    images = [img for doc in docs for img in doc.images]
    concepts = [c for img in images for c in img.concepts]
    golds = [None if doc.gold_edges is None else sorted(doc.gold_edges) for doc in docs]
    columns = {
        "sentences_per_doc": [len(doc.sentences) for doc in docs],
        "images_per_doc": [len(doc.images) for doc in docs],
        "edges_per_doc": [-1 if gold is None else len(gold) for gold in golds],
        "sentence_lengths": [len(s) for s in sentences],
        "tokens": [t for s in sentences for t in s],
        "objects_per_image": [len(img.objects) for img in images],
        "concept_lengths": [len(c) for c in concepts],
        "concept_tokens": [t for c in concepts for t in c],
        "edges": [edge for gold in golds for edge in gold or ()],
    }
    arrays = {name: np.array(values, dtype="<i8") for name, values in columns.items()}
    arrays["edges"] = arrays["edges"].reshape(-1, 2)
    rows = [img.objects for img in images] or [np.empty((0, corpus.obj_dim))]
    arrays["objects"] = np.concatenate(rows, dtype="<f8")
    save_zip(path, {"format": CORPUS_FORMAT, "ids": [doc.id for doc in docs]}, arrays.items())


def _split(flat, counts) -> list:
    """``flat`` cut into consecutive pieces of the given lengths."""
    pieces, start = [], 0
    for count in counts:
        pieces.append(flat[start : start + count])
        start += count
    return pieces


def _read_zip(path) -> tuple:
    """The documents of a ``doclink-corpus-v2`` zip and its largest token
    id (at least 0), from the flat token arrays.  Beside :func:`load_zip`'s
    faults, ids that are not unique strings, one per document, a negative
    count and counts that do not sum to the rows they index raise
    CorpusFormatError naming the file and the member."""

    def fail(member, problem):
        return CorpusFormatError(f"corpus {path} member {member!r} {problem}")

    header, members = load_zip(path, CORPUS_FORMAT, MEMBERS, CorpusFormatError, "corpus")
    ids = header.get("ids")
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids) \
            or len(set(ids)) != len(ids):
        raise fail("header.json", "ids must be a list of unique strings")
    if members["edges"].shape[1] != 2:
        raise fail("edges", f"has shape {members['edges'].shape}, expected (edges, 2)")

    values = {name: members[name].tolist() for name in MEMBERS if name != "objects"}
    for name in PER_DOC:
        if len(values[name]) != len(ids):
            raise fail(name, f"has {len(values[name])} entries for {len(ids)} documents")
    for counts, counted in COUNTED:
        low = -1 if counts == "edges_per_doc" else 0
        if min(values[counts], default=low) < low:
            raise fail(counts, f"holds a count below {low}")
        total = sum(max(count, 0) for count in values[counts])
        if total != len(members[counted]):
            raise fail(counted, f"has {len(members[counted])} rows, but {counts} sums to {total}")

    sentences = _split(_split(values["tokens"], values["sentence_lengths"]),
                       values["sentences_per_doc"])
    concepts = _split(values["concept_tokens"], values["concept_lengths"])
    images = [
        ImageRecord(objects=rows, concepts=entries)
        for rows, entries in zip(
            _split(members["objects"], values["objects_per_image"]),
            _split(concepts, values["objects_per_image"]),
        )
    ]
    edges = _split([tuple(e) for e in values["edges"]],
                   [max(count, 0) for count in values["edges_per_doc"]])
    documents = [
        Document(id=doc_id, sentences=sents, images=imgs,
                 gold_edges=None if count < 0 else set(pairs))
        for doc_id, sents, imgs, pairs, count in zip(
            ids, sentences, _split(images, values["images_per_doc"]), edges,
            values["edges_per_doc"],
        )
    ]
    top = max(int(members[name].max(initial=0)) for name in ("tokens", "concept_tokens"))
    return documents, top


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


def load_corpus(path, vocab_size: int | None = None, splits: dict | None = None) -> Corpus:
    """Parse and fully validate a corpus file: a ``doclink-corpus-v2`` zip,
    recognised by its magic whatever its name, or else JSON Lines.

    ``vocab_size`` defaults to (max token id + 1) over the whole file; the
    object dimension is inferred from the first object row and must be
    constant.  ``splits`` defaults to everything in "train".
    """
    if is_zip(path):
        documents, top = _read_zip(path)
    else:
        documents = [_doc_from_record(record, line_no) for line_no, record in _jsonl_values(path)]
        top = max(
            (t for doc in documents
             for tokens in doc.sentences + [c for img in doc.images for c in img.concepts]
             for t in tokens),
            default=0,
        )
    if not documents:
        raise CorpusValidationError("no documents")

    if vocab_size is None:
        vocab_size = max(top, 0) + 1
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


# Largest synthetic corpus, in bytes as SynthConfig.corpus_bytes estimates them.
MAX_CORPUS_BYTES = 2**30


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

    A config whose corpus_bytes exceed MAX_CORPUS_BYTES is refused before
    anything is drawn.
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
        if (size := self.corpus_bytes()) > MAX_CORPUS_BYTES:
            raise ConfigError(f"cannot allocate the corpus: {self.size_settings()}: "
                              f"about {size} bytes, more than {MAX_CORPUS_BYTES}")

    def size_settings(self) -> str:
        """The settings that size the corpus, for the messages that refuse it."""
        return (f"synth obj_dim={self.obj_dim}, objects_per_image={self.objects_per_image}, "
                f"sentence_len={self.sentence_len}, concept_len={self.concept_len}, "
                f"sentences_per_doc={self.sentences_per_doc}, images_per_doc={self.images_per_doc}, "
                f"tokens_per_cluster={self.tokens_per_cluster}, train_docs={self.train_docs}, "
                f"val_docs={self.val_docs}, test_docs={self.test_docs}")

    def corpus_bytes(self) -> int:
        """Peak memory of generating and saving this corpus, estimated in
        Python ints from per-item costs measured and rounded up: 2 KiB a
        document, 512 B a sentence or image, 64 B a sentence token, 256 B a
        cell of a document's n x m grid, and per object 160 B, 64 B a
        concept token and 32 B a feature value; plus one document's cluster
        prototypes (32 B a value) and token pool (512 B a token)."""
        n, m, k = self.sentences_per_doc, self.images_per_doc, self.objects_per_image
        docs = self.train_docs + self.val_docs + self.test_docs
        each = (2048 + 512 * (n + m) + 64 * n * self.sentence_len + 256 * n * m
                + m * k * (160 + 64 * self.concept_len + 32 * self.obj_dim))
        drawn = (n + m + 1) * 32 * self.obj_dim + (n + m) * 512 * self.tokens_per_cluster
        return docs * each + drawn


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


# Huge sigma or doc_center_scale overflow the object rows; generate_synthetic rejects them.
@np.errstate(over="ignore", invalid="ignore")
def _generate_document(doc_id: str, config: SynthConfig, rng: RngStream) -> Document:
    """One document, drawn from ``rng`` in a fixed order.

    The pinned corpus bytes rest on this order: the row and column
    permutations, the token pool, the document center and the prototypes;
    per sentence one ``integers`` block of tokens and, when token_noise > 0,
    one ``uniform`` block of flip tests and one ``integers`` block of
    replacements; per image one ``normal`` block of object rows, then one
    ``integers`` block of (objects_per_image, concept_len) concepts.
    numpy's bounded integers come out the same, and leave the stream in
    the same place, whether drawn one at a time or in a block.
    """
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

    def draw(subset, size):
        # The same draws as rng.choice(subset, size), from the same stream use.
        return subset[rng.integers(0, len(subset), size)]

    sentences = []
    for i in range(n):
        tokens = draw(subsets[cluster[i]], config.sentence_len)
        if config.token_noise > 0.0:
            flips = np.flatnonzero(rng.uniform(size=config.sentence_len) < config.token_noise)
            tokens[flips] = rng.integers(0, config.vocab_size, flips.size)
        sentences.append(tokens.tolist())

    images = []
    for j in range(m):
        noise = rng.normal(size=(config.objects_per_image, config.obj_dim)) * config.sigma
        concepts = draw(subsets[cluster[n + j]], (config.objects_per_image, config.concept_len))
        objects = prototypes[cluster[n + j]][None, :] + noise
        images.append(ImageRecord(objects=objects, concepts=concepts.tolist()))

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
    """Deterministic synthetic corpus with known gold edges.

    Its draws keep every invariant :func:`validate_corpus` checks but one:
    ``sigma`` or ``doc_center_scale`` can overflow the object rows, which
    raises ConfigError naming both."""
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
    if not all(np.isfinite(img.objects).all() for doc in documents for img in doc.images):
        raise ConfigError(f"sigma={config.sigma} and doc_center_scale={config.doc_center_scale} "
                          f"overflow the object features to non-finite values")
    return Corpus(
        documents=documents,
        vocab_size=config.vocab_size,
        obj_dim=config.obj_dim,
        splits=splits,
    )


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
