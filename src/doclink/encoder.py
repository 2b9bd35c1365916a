"""Sentence and image encoders sharing one word-embedding table.

Sentence path: word + position embeddings, layer norm, projection into the
joint width, a stack of transformer layers, then mean pooling over real
tokens.

Image path: each object contributes two tokens — a projected feature token
and a concept token built from the mean word embedding of the concept's
token ids.  Both are averaged with their segment embedding (each component
passing through its own layer norm) by one ``segment_tokens`` node, which
writes the object tokens, then the concept tokens, into the one input of
the cross-modality transformer stack; its output is mean-pooled.

The concept projection reuses the sentence projection weights, and concept
token ids index the same word-embedding table as sentences, which is what
lets gradients bridge the two modalities.

Documents are encoded one way, by :func:`batch_representations`: one pass
per modality over several documents, padded by :func:`~doclink.tensor.pad`,
returned flat as :class:`Representations` with each document's row offsets.
Training hands that value to the objective whole; evaluation and diagnostics
call :func:`split_representations`, its graph-free form over a split, whose
passes run in order, and read each document's rows by offset.  The
transformer ops of ``doclink.tensor`` split a large pass's per-image work
across the CPUs; a split's encoding and ``train`` run numpy's OpenBLAS on
one thread meanwhile.  That form and ``train`` run
:func:`check_fit`, the one fit check; encoders check only what their counts
and padded arrays show, and a failing batch is walked to name its document.

:class:`ModelParams` names its tensors by attribute (``nn.Params``), so
its constructor's assignment order is the checkpoint layout.  It holds
shapes only; :func:`draw_parameters` is the one init policy, which
:func:`init_params` runs and a checkpoint load skips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, validate_document
from .errors import (
    ConfigError,
    CorpusValidationError,
    DegenerateEmbeddingError,
    DoclinkError,
    NonFiniteError,
    SequenceLengthError,
    ShapeMismatchError,
    VocabularyError,
    check_settings,
    setting,
)
from .nn import LayerNormParams, Params, TransformerLayerParams, transformer_layer, zeros
from .rng import RngStream
from .tensor import (
    MAX_WORD_TABLE_BYTES,
    Tensor,
    _make,
    _wrap,
    concat,
    embedding,
    layernorm,
    linear,
    masked_mean,
    no_grad,
    one_blas_thread,
    pad,
    segment_tokens,
)

# Documents per graph-free pass: a default training batch, so each pass holds
# no more activations than one training step's forward pass.
DOCS_PER_PASS = 11


def word_table(vocab_size: int, width: int, fill) -> np.ndarray:
    """``fill((vocab_size, width))``; a table over MAX_WORD_TABLE_BYTES, or one
    memory refuses, raises ConfigError naming it."""
    problem = f"cannot allocate the word table: vocab_size={vocab_size}, word_dim={width}"
    if vocab_size * width * 8 > MAX_WORD_TABLE_BYTES:
        raise ConfigError(f"{problem}: more than {MAX_WORD_TABLE_BYTES} bytes")
    try:
        return fill((vocab_size, width))
    except MemoryError as exc:
        raise ConfigError(f"{problem}: {exc}") from exc


def copy_rows(table: np.ndarray, pretrained: dict | None) -> np.ndarray:
    """``table`` with the ``pretrained`` rows whose ids fall inside it copied
    in verbatim; a row of another width raises ConfigError."""
    width = table.shape[1]
    for token_id, vec in (pretrained or {}).items():
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (width,):
            raise ConfigError(
                f"pretrained vector for id {token_id} has width {vec.shape}, expected ({width},)"
            )
        if 0 <= token_id < len(table):
            table[token_id] = vec
    return table


@dataclass
class ModelConfig:
    vocab_size: int = setting(low=1)
    obj_dim: int = setting(low=1)
    # A layer norm one value wide maps every row to its bias, so every
    # representation would be the same.
    embed_dim: int = setting(1024, low=2)
    sentence_layers: int = setting(3, low=1)
    image_layers: int = setting(3, low=1)
    heads: int = setting(8, low=1)
    word_dim: int = setting(300, low=2)
    max_sentence_len: int = setting(64, low=1)

    def __post_init__(self):
        check_settings(self)
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} must be divisible by heads {self.heads}"
            )

    def parameter_count(self) -> int:
        """The number of values in :class:`ModelParams` of this config, from its
        shapes alone, in Python ints, so no layer count overflows."""
        v, length, w, e, o = (self.vocab_size, self.max_sentence_len, self.word_dim,
                              self.embed_dim, self.obj_dim)
        layers = self.sentence_layers + self.image_layers
        return (v + length) * w + 2 * w + e * (w + o + 2) + 10 * e + layers * (12 * e * e + 13 * e)


class ModelParams(Params):
    """All learnable tensors of ``config``'s shapes, named by their attributes
    for checkpoints: zeros, with unit layer-norm gains, until
    :func:`init_params` draws them or a checkpoint's arrays are adopted.  A
    model of more than MAX_WORD_TABLE_BYTES is refused from its shapes, before
    anything is allocated, by a ConfigError naming the settings that size it."""

    def __init__(self, config: ModelConfig):
        c = config
        if 8 * c.parameter_count() > MAX_WORD_TABLE_BYTES:
            raise ConfigError(
                f"cannot allocate the model: max_sentence_len={c.max_sentence_len}, "
                f"embed_dim={c.embed_dim}, sentence_layers={c.sentence_layers}, "
                f"image_layers={c.image_layers}, obj_dim={c.obj_dim}, "
                f"vocab_size={c.vocab_size}, word_dim={c.word_dim}: "
                f"more than {MAX_WORD_TABLE_BYTES} bytes"
            )
        self.config = c
        self.word_embed = zeros(c.vocab_size, c.word_dim)
        self.pos_embed = zeros(c.max_sentence_len, c.word_dim)

        # text_proj is shared by the sentence path and the concept path.
        self.text_proj_w = zeros(c.embed_dim, c.word_dim)
        self.text_proj_b = zeros(c.embed_dim)
        self.obj_proj_w = zeros(c.embed_dim, c.obj_dim)
        self.obj_proj_b = zeros(c.embed_dim)

        self.seg_embed = zeros(2, c.embed_dim)
        self.ln_token = LayerNormParams(c.word_dim)
        self.ln_obj_feat = LayerNormParams(c.embed_dim)
        self.ln_obj_seg = LayerNormParams(c.embed_dim)
        self.ln_concept_feat = LayerNormParams(c.embed_dim)
        self.ln_concept_seg = LayerNormParams(c.embed_dim)

        self.sent_layers = [TransformerLayerParams(c.embed_dim) for _ in range(c.sentence_layers)]
        self.img_layers = [TransformerLayerParams(c.embed_dim) for _ in range(c.image_layers)]


def draw_parameters(params: Params, rng: RngStream) -> None:
    """The init policy: fresh values from ``rng`` for every matrix of
    ``params``, in ``named_parameters`` (checkpoint) order.  ``*_embed``
    tables are Uniform(-0.02, 0.02), every other (out, in) matrix is
    Glorot-uniform; vectors keep their constructed zeros and ones."""
    for name, t in params.named_parameters().items():
        if t.data.ndim != 2:
            continue
        fan_out, fan_in = t.data.shape
        limit = 0.02 if name.endswith("_embed") else np.sqrt(6.0 / (fan_in + fan_out))
        t.data = rng.uniform(-limit, limit, size=t.data.shape)


def init_params(config: ModelConfig, rng: RngStream, pretrained: dict | None = None) -> ModelParams:
    """Fresh parameters: ``config``'s shapes, :func:`draw_parameters` from
    ``rng``, then the pretrained rows whose ids fall inside the vocabulary,
    copied verbatim.  A pretrained row of the wrong width is rejected before
    anything is drawn."""
    params = ModelParams(config)
    copy_rows(params.word_embed.data, pretrained)  # checks the widths; the draw overwrites
    draw_parameters(params, rng)
    copy_rows(params.word_embed.data, pretrained)
    return params


# ---- sentence path ----------------------------------------------------------


def _check_vocab(ids: np.ndarray, mask: np.ndarray, config: ModelConfig, what: str) -> None:
    """Every real (masked-in) id must index the word-embedding table."""
    bad = mask & ((ids < 0) | (ids >= config.vocab_size))
    if bad.any():
        raise VocabularyError(
            f"{what} id {ids[bad][0]} outside vocabulary of size {config.vocab_size}"
        )


def encode_sentences(sentences: list, params: ModelParams, config: ModelConfig) -> Tensor:
    """Encode a batch of token-id sequences into (batch, embed_dim)."""
    lengths = np.array([len(tokens) for tokens in sentences])
    if lengths.min() < 1:
        raise SequenceLengthError("sentence has no tokens")
    if lengths.max() > config.max_sentence_len:
        raise SequenceLengthError(
            f"sentence length {lengths.max()} exceeds max_sentence_len {config.max_sentence_len}"
        )
    ids, mask = pad(sentences, np.int64)
    _check_vocab(ids, mask, config, "token")

    words = embedding(params.word_embed, ids)
    positions = embedding(params.pos_embed, np.arange(ids.shape[1])[None, :])
    hidden = layernorm(words + positions, params.ln_token.gain, params.ln_token.bias)
    x = linear(hidden, params.text_proj_w, params.text_proj_b)
    for layer in params.sent_layers:
        x = transformer_layer(x, layer, config.heads, mask=mask)
    return masked_mean(x, mask)


# ---- image path --------------------------------------------------------------


def encode_images(images: list, params: ModelParams, config: ModelConfig) -> Tensor:
    """Encode a batch of ImageRecords, as :func:`check_fit` passes them, into (batch, embed_dim)."""
    counts = np.array([img.objects.shape[0] for img in images])
    concept_counts = np.array([len(img.concepts) for img in images])
    if (bad := np.flatnonzero((counts < 1) | (concept_counts != counts))).size:
        i = bad[0]
        raise CorpusValidationError(
            f"image {i} of the batch has {counts[i]} object rows and {concept_counts[i]} "
            f"concept entries; it needs at least one row and one entry per row"
        )
    feats, obj_mask = pad([img.objects for img in images])
    # Concept ids per object of the batch, placed at its row: (images, objects, tokens).
    ids, mask = pad([c for img in images for c in img.concepts], np.int64)
    if not mask.any(axis=-1).all():
        raise CorpusValidationError("empty concept token list")
    _check_vocab(ids, mask, config, "concept token")
    concept_ids = np.zeros(obj_mask.shape + ids.shape[1:], dtype=np.int64)
    concept_mask = np.zeros(concept_ids.shape, dtype=bool)
    concept_ids[obj_mask], concept_mask[obj_mask] = ids, mask

    p = params
    objects = linear(Tensor(feats), p.obj_proj_w, p.obj_proj_b)
    # Mean word embedding per concept entry.
    mean_words = masked_mean(embedding(p.word_embed, concept_ids), concept_mask)
    concepts = linear(mean_words, p.text_proj_w, p.text_proj_b)
    x = segment_tokens([
        (objects, p.ln_obj_feat.gain, p.ln_obj_feat.bias, p.ln_obj_seg.gain, p.ln_obj_seg.bias),
        (concepts, p.ln_concept_feat.gain, p.ln_concept_feat.bias,
         p.ln_concept_seg.gain, p.ln_concept_seg.bias),
    ], p.seg_embed)
    full_mask = np.concatenate([obj_mask, obj_mask], axis=1)
    for layer in params.img_layers:
        x = transformer_layer(x, layer, config.heads, mask=full_mask)
    return masked_mean(x, full_mask)


# ---- similarity ---------------------------------------------------------------


def similarity_matrix(sentence_reps, image_reps) -> Tensor:
    """Cosine of every (n, d) sentence row with every (m, d) image row: (n, m),
    one node.  Evaluation calls it per document, the objective once per batch.
    A non-finite or zero-norm representation has no cosine and is rejected."""
    s, v = _wrap(sentence_reps), _wrap(image_reps)
    if s.ndim != 2 or v.ndim != 2 or s.shape[1] != v.shape[1]:
        raise ShapeMismatchError(f"cosine needs (n, d) and (m, d), got {s.shape} and {v.shape}")
    units = []
    for name, reps in (("sentence", s), ("image", v)):
        if not np.isfinite(reps.data).all():
            raise NonFiniteError(f"non-finite {name} representation")
        norms = (reps.data**2.0).sum(axis=-1, keepdims=True) ** 0.5
        if (norms == 0.0).any():
            raise DegenerateEmbeddingError(f"zero-norm {name} representation")
        inv = norms**-1.0
        units.append((reps.data * inv, inv))
    (unit_s, inv_s), (unit_v, inv_v) = units

    def off_unit(g, unit, inv):  # the gradient projected off each unit row, over its norm
        return inv * (g - unit * (g * unit).sum(axis=-1, keepdims=True))

    def backward_fn(g):
        # The image side transposes the (d, m) product of a composed matmul: same bits.
        return off_unit(g @ unit_v, unit_s, inv_s), off_unit((unit_s.T @ g).T, unit_v, inv_v)

    return _make(unit_s @ unit_v.T, (s, v), backward_fn, "cosine")


@dataclass(eq=False)
class Representations:
    """A batch's pooled representations, flat as the encoder made them:
    document i owns rows ``sentence_offsets[i]:sentence_offsets[i + 1]`` of
    ``sentences`` and ``image_offsets[i]:image_offsets[i + 1]`` of
    ``images``.  ``len`` is the number of documents; ``reps[i]`` slices
    document i's (sentences, images) pair only when it is asked for."""

    sentences: Tensor
    images: Tensor
    sentence_offsets: np.ndarray
    image_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.sentence_offsets) - 1

    def __getitem__(self, i: int) -> tuple:
        if not 0 <= i < len(self):
            raise IndexError(f"document {i} of a batch of {len(self)}")
        s, v = self.sentence_offsets, self.image_offsets
        return self.sentences[s[i] : s[i + 1]], self.images[v[i] : v[i + 1]]

    @classmethod
    def of(cls, docs: list, sentences: Tensor, images: Tensor) -> Representations:
        """The rows of ``docs``' sentences and images, in document order."""
        return cls(sentences, images,
                   np.cumsum([0] + [len(doc.sentences) for doc in docs]),
                   np.cumsum([0] + [len(doc.images) for doc in docs]))


def batch_representations(docs: list, params: ModelParams, config: ModelConfig) -> Representations:
    """Encode every sentence and image of several documents in two pooled
    padded batches, kept flat with each document's offsets.
    If encoding fails, the first document the model cannot encode is named
    by :func:`validate_document`'s CorpusValidationError, or, when encoding
    overflows, by a NonFiniteError from encoding each document alone.
    Overflow warns nowhere: a layer norm raises on the rows it reaches."""
    all_sents = [s for doc in docs for s in doc.sentences]
    all_imgs = [img for doc in docs for img in doc.images]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            sent_reps = encode_sentences(all_sents, params, config)
            img_reps = encode_images(all_imgs, params, config)
        except (DoclinkError, ValueError) as exc:
            # Name the first document of the batch the model cannot encode.
            for doc in docs:
                validate_document(doc, config.vocab_size, config.obj_dim, config.max_sentence_len)
                if isinstance(exc, NonFiniteError):
                    side, error = first_overflow([doc], params, config)
                    if side is not None:
                        raise NonFiniteError(
                            f"non-finite {side} representation of document {doc.id!r}: {error}"
                        ) from None
            raise
    return Representations.of(docs, sent_reps, img_reps)


def first_overflow(docs: list, params: ModelParams, config: ModelConfig) -> tuple:
    """Encode the sentences, then the images, of ``docs`` without a graph:
    the first tower, ``"sentence"`` or ``"image"``, whose encoding raises
    NonFiniteError, with that error, or (None, None) when both encode."""
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for side, encode, items in (
            ("sentence", encode_sentences, [s for doc in docs for s in doc.sentences]),
            ("image", encode_images, [img for doc in docs for img in doc.images]),
        ):
            try:
                encode(items, params, config)
            except NonFiniteError as exc:
                return side, exc
    return None, None


def check_fit(corpus: Corpus, docs: list, config: ModelConfig,
              docs_per_pass: int = DOCS_PER_PASS) -> None:
    """Raise CorpusValidationError naming the first of ``docs`` the model cannot
    encode.  Load validated ``corpus`` against its own vocab_size and obj_dim:
    if the model covers both and the longest sentence fits, none is walked.

    Then bound, per tower, the largest attention score array that one pass of
    up to ``docs_per_pass`` of ``docs`` can form: 8 bytes x rows x heads x
    tokens**2, where rows are the sentences (images) of the documents with
    the most and tokens are the longest sentence (twice the most object rows
    of an image).  Above MAX_WORD_TABLE_BYTES it raises ConfigError naming
    the document that sets the tokens, before anything is encoded."""
    longest = max((len(tokens) for doc in docs for tokens in doc.sentences), default=0)
    if (config.vocab_size < corpus.vocab_size or config.obj_dim != corpus.obj_dim
            or longest > config.max_sentence_len):
        for doc in docs:
            validate_document(doc, config.vocab_size, config.obj_dim, config.max_sentence_len)
    if not docs:
        return
    for what, lengths in (
        ("sentence", [[len(tokens) for tokens in doc.sentences] for doc in docs]),
        ("image", [[2 * len(img.objects) for img in doc.images] for doc in docs]),
    ):
        rows = sum(sorted(map(len, lengths), reverse=True)[:docs_per_pass])
        tokens = [max(doc_lengths, default=0) for doc_lengths in lengths]
        i = int(np.argmax(tokens))
        size = 8 * rows * config.heads * tokens[i] ** 2
        if size > MAX_WORD_TABLE_BYTES:
            raise ConfigError(
                f"document {docs[i].id!r}: its longest {what} ({tokens[i]} tokens) makes a pass "
                f"of up to {docs_per_pass} documents form {size} bytes of attention scores "
                f"at heads={config.heads}, more than {MAX_WORD_TABLE_BYTES} bytes"
            )


@one_blas_thread()
def split_representations(corpus: Corpus, split: str, params: ModelParams, config: ModelConfig):
    """Graph-free :func:`batch_representations` of a split's documents once
    :func:`check_fit` passes them, DOCS_PER_PASS documents per pass, joined
    in document order into one flat :class:`Representations` of the split.
    A split with no documents raises CorpusValidationError naming it.

    The passes run in order, with numpy's OpenBLAS on one thread
    (:func:`~doclink.tensor.one_blas_thread`); each transformer op of a pass
    splits its per-image work across the CPUs itself."""
    docs = corpus.split_documents(split, nonempty=True)
    check_fit(corpus, docs, config)
    with no_grad():
        passes = [batch_representations(docs[start : start + DOCS_PER_PASS], params, config)
                  for start in range(0, len(docs), DOCS_PER_PASS)]
        return Representations.of(docs, concat([r.sentences for r in passes]),
                                  concat([r.images for r in passes]))
