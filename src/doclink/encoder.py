"""Sentence and image encoders sharing one word-embedding table.

Sentence path: word + position embeddings, layer norm, projection into the
joint width, a stack of transformer layers, then mean pooling over real
tokens.

Image path: each object contributes two tokens — a projected feature token
and a concept token built from the mean word embedding of the concept's
token ids.  Both are averaged with their segment embedding (each component
passing through its own layer norm), run through the cross-modality
transformer stack, and mean-pooled.

The concept projection reuses the sentence projection weights, and concept
token ids index the same word-embedding table as sentences, which is what
lets gradients bridge the two modalities.

Documents are encoded one way, by :func:`batch_representations`: one padded
pass per modality over several documents.  Training calls it per batch;
evaluation and diagnostics call :func:`split_representations`, its
graph-free form over a split.  That form and ``train`` run :func:`check_fit`,
the one fit check; encoders check only what their counts and padded arrays
show, and a batch that fails to encode is walked to name its document.

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
from .tensor import Tensor, _make, _wrap, concat, embedding, linear, masked_mean, no_grad

# Documents per graph-free pass: a default training batch, so evaluation never
# holds more activations than one training step's forward pass.
DOCS_PER_PASS = 11
# Largest word table, in bytes; training holds four (parameters, m, v, gradient).
MAX_WORD_TABLE_BYTES = 2**30


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
    embed_dim: int = setting(1024, low=1)
    sentence_layers: int = setting(3, low=1)
    image_layers: int = setting(3, low=1)
    heads: int = setting(8, low=1)
    word_dim: int = setting(300, low=1)
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
    :func:`init_params` draws them or a checkpoint's arrays are adopted.  The
    word table passes :func:`word_table`'s bound first."""

    def __init__(self, config: ModelConfig):
        c = config
        self.config = c
        self.word_embed = Tensor(word_table(c.vocab_size, c.word_dim, np.zeros), requires_grad=True)
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
    length = lengths.max()
    mask = np.arange(length) < lengths[:, None]
    ids = np.zeros(mask.shape, dtype=np.int64)
    ids[mask] = np.concatenate(sentences)
    _check_vocab(ids, mask, config, "token")

    words = embedding(params.word_embed, ids)
    positions = embedding(params.pos_embed, np.arange(length)[None, :])
    hidden = params.ln_token(words + positions)
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
    obj_mask = np.arange(counts.max()) < counts[:, None]
    feats = np.zeros(obj_mask.shape + images[0].objects.shape[1:])
    feats[obj_mask] = np.concatenate([img.objects for img in images])
    concepts = [c for img in images for c in img.concepts]
    concept_lens = np.zeros(obj_mask.shape, dtype=np.int64)
    concept_lens[obj_mask] = [len(c) for c in concepts]
    concept_mask = np.arange(concept_lens.max()) < concept_lens[..., None]
    if not concept_mask[obj_mask].any(axis=-1).all():
        raise CorpusValidationError("empty concept token list")
    concept_ids = np.zeros(concept_mask.shape, dtype=np.int64)
    concept_ids[concept_mask] = np.concatenate(concepts)
    _check_vocab(concept_ids, concept_mask, config, "concept token")

    obj_tokens = linear(Tensor(feats), params.obj_proj_w, params.obj_proj_b)
    seg_obj = params.ln_obj_seg(params.seg_embed[0])
    obj_tokens = (params.ln_obj_feat(obj_tokens) + seg_obj) * 0.5

    # Mean word embedding per concept entry.
    mean_words = masked_mean(embedding(params.word_embed, concept_ids), concept_mask)
    con_tokens = linear(mean_words, params.text_proj_w, params.text_proj_b)
    seg_con = params.ln_concept_seg(params.seg_embed[1])
    con_tokens = (params.ln_concept_feat(con_tokens) + seg_con) * 0.5

    x = concat([obj_tokens, con_tokens], axis=1)
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


def batch_representations(docs: list, params: ModelParams, config: ModelConfig) -> list:
    """Encode every sentence and image of several documents in two pooled
    padded batches, then slice per document: [(sent_reps, img_reps), ...].
    If encoding fails, the first document the model cannot encode is named
    by :func:`validate_document`'s CorpusValidationError, or, when encoding
    overflows, by a NonFiniteError from encoding each document alone."""
    all_sents = [s for doc in docs for s in doc.sentences]
    all_imgs = [img for doc in docs for img in doc.images]
    try:
        sent_reps = encode_sentences(all_sents, params, config)
        img_reps = encode_images(all_imgs, params, config)
    except (DoclinkError, ValueError) as exc:
        # Name the first document of the batch the model cannot encode.
        for doc in docs:
            validate_document(doc, config.vocab_size, config.obj_dim, config.max_sentence_len)
            if isinstance(exc, NonFiniteError):
                _encode_alone(doc, params, config)
        raise
    out = []
    s_off = v_off = 0
    for doc in docs:
        n, m = len(doc.sentences), len(doc.images)
        out.append((sent_reps[s_off : s_off + n], img_reps[v_off : v_off + m]))
        s_off += n
        v_off += m
    return out


def _encode_alone(doc, params: ModelParams, config: ModelConfig) -> None:
    """Encode ``doc`` alone, without a graph; a NonFiniteError names it."""
    for side, encode, items in (("sentence", encode_sentences, doc.sentences),
                                ("image", encode_images, doc.images)):
        try:
            with no_grad():
                encode(items, params, config)
        except NonFiniteError as exc:
            raise NonFiniteError(
                f"non-finite {side} representation of document {doc.id!r}: {exc}"
            ) from None


def check_fit(corpus: Corpus, docs: list, config: ModelConfig) -> None:
    """Raise CorpusValidationError naming the first of ``docs`` the model cannot
    encode.  Load validated ``corpus`` against its own vocab_size and obj_dim:
    if the model covers both and the longest sentence fits, none is walked."""
    longest = max((len(tokens) for doc in docs for tokens in doc.sentences), default=0)
    if (config.vocab_size < corpus.vocab_size or config.obj_dim != corpus.obj_dim
            or longest > config.max_sentence_len):
        for doc in docs:
            validate_document(doc, config.vocab_size, config.obj_dim, config.max_sentence_len)


def split_representations(corpus: Corpus, split: str, params: ModelParams, config: ModelConfig):
    """Graph-free :func:`batch_representations` of a split's documents once
    :func:`check_fit` passes them, DOCS_PER_PASS documents per pass."""
    docs = corpus.split_documents(split)
    check_fit(corpus, docs, config)
    out = []
    with no_grad():
        for start in range(0, len(docs), DOCS_PER_PASS):
            out.extend(batch_representations(docs[start : start + DOCS_PER_PASS], params, config))
    return out
