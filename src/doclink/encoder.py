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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Document, ImageRecord
from .errors import (
    ConfigError,
    CorpusValidationError,
    DegenerateEmbeddingError,
    SequenceLengthError,
    ShapeMismatchError,
    VocabularyError,
)
from .nn import LayerNormParams, TransformerLayerParams, linear, transformer_layer, xavier_uniform
from .rng import RngStream
from .tensor import Tensor, concat, embedding, matmul, normalize_rows, transpose


@dataclass
class ModelConfig:
    vocab_size: int
    obj_dim: int
    embed_dim: int = 1024
    sentence_layers: int = 3
    image_layers: int = 3
    heads: int = 8
    word_dim: int = 300
    max_sentence_len: int = 64

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} must be divisible by heads {self.heads}"
            )
        if self.sentence_layers < 1 or self.image_layers < 1:
            raise ConfigError("transformer depths must be at least 1")
        if min(self.vocab_size, self.obj_dim, self.word_dim, self.max_sentence_len) < 1:
            raise ConfigError("vocab_size, obj_dim, word_dim, max_sentence_len must be >= 1")


class ModelParams:
    """All learnable tensors, addressable by stable names for checkpoints."""

    def __init__(self, config: ModelConfig, rng: RngStream, pretrained: dict | None = None):
        c = config
        self.config = c
        self.word_embed = Tensor(
            rng.uniform(-0.02, 0.02, size=(c.vocab_size, c.word_dim)), requires_grad=True
        )
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
        self.ln_token = LayerNormParams(c.word_dim)

        # text_proj is shared by the sentence path and the concept path.
        self.text_proj_w = xavier_uniform(rng, c.embed_dim, c.word_dim)
        self.text_proj_b = Tensor(np.zeros(c.embed_dim), requires_grad=True)
        self.obj_proj_w = xavier_uniform(rng, c.embed_dim, c.obj_dim)
        self.obj_proj_b = Tensor(np.zeros(c.embed_dim), requires_grad=True)

        self.seg_embed = Tensor(rng.uniform(-0.02, 0.02, size=(2, c.embed_dim)), requires_grad=True)
        self.ln_obj_feat = LayerNormParams(c.embed_dim)
        self.ln_obj_seg = LayerNormParams(c.embed_dim)
        self.ln_concept_feat = LayerNormParams(c.embed_dim)
        self.ln_concept_seg = LayerNormParams(c.embed_dim)

        self.sent_layers = [TransformerLayerParams(c.embed_dim, rng) for _ in range(c.sentence_layers)]
        self.img_layers = [TransformerLayerParams(c.embed_dim, rng) for _ in range(c.image_layers)]

    def named_parameters(self) -> dict:
        out = {
            "word_embed": self.word_embed,
            "pos_embed": self.pos_embed,
            "text_proj_w": self.text_proj_w,
            "text_proj_b": self.text_proj_b,
            "obj_proj_w": self.obj_proj_w,
            "obj_proj_b": self.obj_proj_b,
            "seg_embed": self.seg_embed,
        }
        for prefix, ln in (
            ("ln_token", self.ln_token),
            ("ln_obj_feat", self.ln_obj_feat),
            ("ln_obj_seg", self.ln_obj_seg),
            ("ln_concept_feat", self.ln_concept_feat),
            ("ln_concept_seg", self.ln_concept_seg),
        ):
            for name, t in ln.named(prefix):
                out[name] = t
        for i, layer in enumerate(self.sent_layers):
            for name, t in layer.named(f"sent_layers.{i}"):
                out[name] = t
        for i, layer in enumerate(self.img_layers):
            for name, t in layer.named(f"img_layers.{i}"):
                out[name] = t
        return out

    def zero_grads(self) -> None:
        for t in self.named_parameters().values():
            t.grad = None


def init_params(config: ModelConfig, rng: RngStream, pretrained: dict | None = None) -> ModelParams:
    """Fresh parameters; embedding tables Uniform(-0.02, 0.02), projections
    and transformer weights scaled-uniform (Glorot).  Pretrained rows whose
    ids fall inside the vocabulary are copied verbatim."""
    return ModelParams(config, rng, pretrained=pretrained)


# ---- sentence path ----------------------------------------------------------


def _validate_sentence(tokens, config: ModelConfig) -> None:
    if len(tokens) < 1:
        raise SequenceLengthError("sentence has no tokens")
    if len(tokens) > config.max_sentence_len:
        raise SequenceLengthError(
            f"sentence length {len(tokens)} exceeds max_sentence_len {config.max_sentence_len}"
        )
    for t in tokens:
        if not (0 <= int(t) < config.vocab_size):
            raise VocabularyError(f"token id {t} outside vocabulary of size {config.vocab_size}")


def encode_sentences(sentences: list, params: ModelParams, config: ModelConfig) -> Tensor:
    """Encode a batch of token-id sequences into (batch, embed_dim)."""
    for tokens in sentences:
        _validate_sentence(tokens, config)
    batch = len(sentences)
    length = max(len(s) for s in sentences)
    ids = np.zeros((batch, length), dtype=np.int64)
    mask = np.zeros((batch, length), dtype=bool)
    for b, tokens in enumerate(sentences):
        ids[b, : len(tokens)] = tokens
        mask[b, : len(tokens)] = True

    words = embedding(params.word_embed, ids)
    positions = embedding(params.pos_embed, np.arange(length)[None, :])
    hidden = params.ln_token(words + positions)
    x = linear(hidden, params.text_proj_w, params.text_proj_b)
    for layer in params.sent_layers:
        x = transformer_layer(x, layer, config.heads, mask=mask)
    return _masked_mean(x, mask)


def encode_sentence(tokens, params: ModelParams, config: ModelConfig) -> Tensor:
    return encode_sentences([tokens], params, config)[0]


def _masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    weights = mask.astype(np.float64)[:, :, None]
    counts = mask.sum(axis=1).astype(np.float64)
    summed = (x * Tensor(weights)).sum(axis=1)
    return summed * Tensor((1.0 / counts)[:, None])


# ---- image path --------------------------------------------------------------


def _validate_image(image: ImageRecord, config: ModelConfig) -> None:
    if image.objects.ndim != 2 or image.objects.shape[0] < 1:
        raise ShapeMismatchError("image needs at least one object feature row")
    if image.objects.shape[1] != config.obj_dim:
        raise ShapeMismatchError(
            f"object feature width {image.objects.shape[1]} != configured obj_dim {config.obj_dim}"
        )
    if len(image.concepts) != image.objects.shape[0]:
        raise CorpusValidationError(
            f"image has {image.objects.shape[0]} objects but {len(image.concepts)} concepts"
        )
    for concept in image.concepts:
        if len(concept) < 1:
            raise CorpusValidationError("empty concept token list")
        for t in concept:
            if not (0 <= int(t) < config.vocab_size):
                raise VocabularyError(
                    f"concept token id {t} outside vocabulary of size {config.vocab_size}"
                )


def encode_images(images: list, params: ModelParams, config: ModelConfig) -> Tensor:
    """Encode a batch of ImageRecords into (batch, embed_dim)."""
    for image in images:
        _validate_image(image, config)
    batch = len(images)
    mu = max(img.objects.shape[0] for img in images)
    feats = np.zeros((batch, mu, config.obj_dim))
    obj_mask = np.zeros((batch, mu), dtype=bool)
    concept_len = max(len(c) for img in images for c in img.concepts)
    concept_ids = np.zeros((batch, mu, concept_len), dtype=np.int64)
    concept_mask = np.zeros((batch, mu, concept_len), dtype=bool)
    for b, img in enumerate(images):
        count = img.objects.shape[0]
        feats[b, :count] = img.objects
        obj_mask[b, :count] = True
        for o, concept in enumerate(img.concepts):
            concept_ids[b, o, : len(concept)] = concept
            concept_mask[b, o, : len(concept)] = True

    obj_tokens = linear(Tensor(feats), params.obj_proj_w, params.obj_proj_b)
    seg_obj = params.ln_obj_seg(params.seg_embed[0])
    obj_tokens = (params.ln_obj_feat(obj_tokens) + seg_obj) * 0.5

    # Mean word embedding per concept entry; padded slots divide by one.
    word_vecs = embedding(params.word_embed, concept_ids)
    cmask = concept_mask.astype(np.float64)[..., None]
    counts = np.maximum(concept_mask.sum(axis=2), 1).astype(np.float64)
    mean_words = (word_vecs * Tensor(cmask)).sum(axis=2) * Tensor((1.0 / counts)[..., None])
    con_tokens = linear(mean_words, params.text_proj_w, params.text_proj_b)
    seg_con = params.ln_concept_seg(params.seg_embed[1])
    con_tokens = (params.ln_concept_feat(con_tokens) + seg_con) * 0.5

    x = concat([obj_tokens, con_tokens], axis=1)
    full_mask = np.concatenate([obj_mask, obj_mask], axis=1)
    for layer in params.img_layers:
        x = transformer_layer(x, layer, config.heads, mask=full_mask)
    return _masked_mean(x, full_mask)


def encode_image(image: ImageRecord, params: ModelParams, config: ModelConfig) -> Tensor:
    return encode_images([image], params, config)[0]


# ---- similarity ---------------------------------------------------------------


def similarity_matrix(sentence_reps: Tensor, image_reps: Tensor) -> Tensor:
    """Cosine similarity of every (sentence, image) pair: (n, m).

    Evaluation calls it per document; the objective calls it once per
    batch, on all the batch's sentences against all its images."""
    for name, reps in (("sentence", sentence_reps), ("image", image_reps)):
        norms = np.sqrt((reps.data**2).sum(axis=-1))
        if (norms == 0.0).any():
            raise DegenerateEmbeddingError(f"zero-norm {name} representation")
    return matmul(normalize_rows(sentence_reps), transpose(normalize_rows(image_reps)))


def document_similarity_matrix(doc: Document, params: ModelParams, config: ModelConfig) -> Tensor:
    sent = encode_sentences(doc.sentences, params, config)
    img = encode_images(doc.images, params, config)
    return similarity_matrix(sent, img)


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
