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
graph-free form over a split.  Input is checked on the padded arrays.

:class:`ModelParams` names its tensors by attribute (``nn.Params``), so
its constructor's assignment order is the checkpoint layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    CorpusValidationError,
    DegenerateEmbeddingError,
    NonFiniteError,
    SequenceLengthError,
    ShapeMismatchError,
    VocabularyError,
    check_settings,
    setting,
)
from .nn import LayerNormParams, Params, TransformerLayerParams
from .nn import linear, transformer_layer, xavier_uniform
from .rng import RngStream
from .tensor import Tensor, concat, embedding, matmul, no_grad, normalize_rows, transpose

# Documents per graph-free pass: a default training batch, so evaluation never
# holds more activations than one training step's forward pass.
DOCS_PER_PASS = 11


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


class ModelParams(Params):
    """All learnable tensors, named by their attributes for checkpoints."""

    def __init__(self, config: ModelConfig, rng: RngStream, pretrained: dict | None = None):
        c = config
        self.config = c
        try:
            table = rng.uniform(-0.02, 0.02, size=(c.vocab_size, c.word_dim))
        except (ValueError, MemoryError) as exc:  # numpy refuses the shape
            raise ConfigError(
                f"cannot allocate the word table: vocab_size={c.vocab_size}, "
                f"word_dim={c.word_dim}: {exc}"
            ) from exc
        self.word_embed = Tensor(table, requires_grad=True)
        if pretrained:
            for token_id, vec in pretrained.items():
                vec = np.asarray(vec, dtype=np.float64)
                if vec.shape != (c.word_dim,):
                    raise ConfigError(
                        f"pretrained vector for id {token_id} has width {vec.shape}, "
                        f"expected ({c.word_dim},)"
                    )
                if 0 <= token_id < c.vocab_size:
                    self.word_embed.data[token_id] = vec
        self.pos_embed = Tensor(
            rng.uniform(-0.02, 0.02, size=(c.max_sentence_len, c.word_dim)), requires_grad=True
        )

        # text_proj is shared by the sentence path and the concept path.
        self.text_proj_w = xavier_uniform(rng, c.embed_dim, c.word_dim)
        self.text_proj_b = Tensor(np.zeros(c.embed_dim), requires_grad=True)
        self.obj_proj_w = xavier_uniform(rng, c.embed_dim, c.obj_dim)
        self.obj_proj_b = Tensor(np.zeros(c.embed_dim), requires_grad=True)

        self.seg_embed = Tensor(rng.uniform(-0.02, 0.02, size=(2, c.embed_dim)), requires_grad=True)
        self.ln_token = LayerNormParams(c.word_dim)
        self.ln_obj_feat = LayerNormParams(c.embed_dim)
        self.ln_obj_seg = LayerNormParams(c.embed_dim)
        self.ln_concept_feat = LayerNormParams(c.embed_dim)
        self.ln_concept_seg = LayerNormParams(c.embed_dim)

        self.sent_layers = [TransformerLayerParams(c.embed_dim, rng) for _ in range(c.sentence_layers)]
        self.img_layers = [TransformerLayerParams(c.embed_dim, rng) for _ in range(c.image_layers)]


def init_params(config: ModelConfig, rng: RngStream, pretrained: dict | None = None) -> ModelParams:
    """Fresh parameters; embedding tables Uniform(-0.02, 0.02), projections
    and transformer weights scaled-uniform (Glorot).  Pretrained rows whose
    ids fall inside the vocabulary are copied verbatim."""
    return ModelParams(config, rng, pretrained=pretrained)


# ---- sentence path ----------------------------------------------------------


def _check_vocab(ids: np.ndarray, mask: np.ndarray, config: ModelConfig, what: str) -> None:
    """Every real (masked-in) id must index the word-embedding table."""
    bad = mask & ((ids < 0) | (ids >= config.vocab_size))
    if bad.any():
        raise VocabularyError(
            f"{what} id {ids[bad][0]} outside vocabulary of size {config.vocab_size}"
        )


def _masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of ``x`` over the mask's last axis; fully masked slots divide by one."""
    weights = mask.astype(np.float64)[..., None]
    counts = np.maximum(mask.sum(axis=-1), 1).astype(np.float64)
    summed = (x * Tensor(weights)).sum(axis=mask.ndim - 1)
    return summed * Tensor((1.0 / counts)[..., None])


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
    return _masked_mean(x, mask)


# ---- image path --------------------------------------------------------------


def encode_images(images: list, params: ModelParams, config: ModelConfig) -> Tensor:
    """Encode a batch of ImageRecords into (batch, embed_dim)."""
    for image in images:
        if image.objects.ndim != 2 or image.objects.shape[0] < 1:
            raise ShapeMismatchError("image needs at least one object feature row")
        if image.objects.shape[1] != config.obj_dim:
            raise ShapeMismatchError(
                f"object feature width {image.objects.shape[1]} != configured obj_dim "
                f"{config.obj_dim}"
            )
        if len(image.concepts) != image.objects.shape[0]:
            raise CorpusValidationError(
                f"image has {image.objects.shape[0]} objects but {len(image.concepts)} concepts"
            )
    counts = np.array([img.objects.shape[0] for img in images])
    obj_mask = np.arange(counts.max()) < counts[:, None]
    feats = np.zeros(obj_mask.shape + (config.obj_dim,))
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
    mean_words = _masked_mean(embedding(params.word_embed, concept_ids), concept_mask)
    con_tokens = linear(mean_words, params.text_proj_w, params.text_proj_b)
    seg_con = params.ln_concept_seg(params.seg_embed[1])
    con_tokens = (params.ln_concept_feat(con_tokens) + seg_con) * 0.5

    x = concat([obj_tokens, con_tokens], axis=1)
    full_mask = np.concatenate([obj_mask, obj_mask], axis=1)
    for layer in params.img_layers:
        x = transformer_layer(x, layer, config.heads, mask=full_mask)
    return _masked_mean(x, full_mask)


# ---- similarity ---------------------------------------------------------------


def similarity_matrix(sentence_reps: Tensor, image_reps: Tensor) -> Tensor:
    """Cosine similarity of every (sentence, image) pair: (n, m).

    Evaluation calls it per document; the objective calls it once per
    batch, on all the batch's sentences against all its images.  A
    non-finite or zero-norm representation has no cosine and is rejected."""
    for name, reps in (("sentence", sentence_reps), ("image", image_reps)):
        if not np.isfinite(reps.data).all():
            raise NonFiniteError(f"non-finite {name} representation")
        norms = np.sqrt((reps.data**2).sum(axis=-1))
        if (norms == 0.0).any():
            raise DegenerateEmbeddingError(f"zero-norm {name} representation")
    return matmul(normalize_rows(sentence_reps), transpose(normalize_rows(image_reps)))


def batch_representations(docs: list, params: ModelParams, config: ModelConfig) -> list:
    """Encode every sentence and image of several documents in two pooled
    padded batches, then slice per document: [(sent_reps, img_reps), ...]."""
    all_sents = [s for doc in docs for s in doc.sentences]
    all_imgs = [img for doc in docs for img in doc.images]
    sent_reps = encode_sentences(all_sents, params, config)
    img_reps = encode_images(all_imgs, params, config)
    out = []
    s_off = v_off = 0
    for doc in docs:
        n, m = len(doc.sentences), len(doc.images)
        out.append((sent_reps[s_off : s_off + n], img_reps[v_off : v_off + m]))
        s_off += n
        v_off += m
    return out


def split_representations(docs: list, params: ModelParams, config: ModelConfig) -> list:
    """Graph-free :func:`batch_representations` of any number of documents,
    DOCS_PER_PASS documents per pass: [(sent_reps, img_reps), ...]."""
    out = []
    with no_grad():
        for start in range(0, len(docs), DOCS_PER_PASS):
            out.extend(batch_representations(docs[start : start + DOCS_PER_PASS], params, config))
    return out
