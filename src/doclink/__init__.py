"""Unsupervised document-level image-sentence linking.

A document pairs a set of sentences with a set of images; only the
pairing of whole documents is known, never which sentence matches which
image.  This package trains sentence and image encoders so that cosine
similarity over their outputs recovers the hidden sentence-image edges,
using three document-level ranking objectives (cross-document,
intra-document, and dropout sub-document), and ships the evaluation and
bias diagnostics used to study the approach.

Everything runs on a small numpy reverse-mode autodiff core (`tensor`),
so there are no framework dependencies.
"""

from .corpus import (
    Corpus,
    Document,
    ImageRecord,
    SynthConfig,
    generate_synthetic,
    load_corpus,
    load_split_manifest,
    save_corpus,
    save_split_manifest,
    token_overlap_scores,
)
from .diagnostics import (
    BiasReport,
    SpreadReport,
    bias_report,
    distance_samples,
    document_spreads,
    ks_two_sample,
    spread_regression,
)
from .encoder import (
    ModelConfig,
    ModelParams,
    batch_representations,
    encode_images,
    encode_sentences,
    init_params,
    similarity_matrix,
    split_representations,
)
from .errors import DoclinkError
from .evalmetrics import (
    EvalReport,
    document_auc,
    document_precision_at_k,
    evaluate,
    evaluate_matrices,
)
from .objective import (
    ObjectiveConfig,
    cross_document_loss,
    dropout_subdoc_loss,
    hinge,
    intra_document_loss,
    neg_tk,
    tk,
    total_loss,
)
from .rng import RngStream
from .tensor import Tensor, backward, no_grad
from .trainer import (
    TrainConfig,
    TrainResult,
    TrainState,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)

__all__ = [
    "BiasReport",
    "Corpus",
    "Document",
    "DoclinkError",
    "EvalReport",
    "ImageRecord",
    "ModelConfig",
    "ModelParams",
    "ObjectiveConfig",
    "RngStream",
    "SpreadReport",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "TrainState",
    "backward",
    "batch_representations",
    "bias_report",
    "cross_document_loss",
    "distance_samples",
    "document_auc",
    "document_precision_at_k",
    "document_spreads",
    "dropout_subdoc_loss",
    "encode_images",
    "encode_sentences",
    "evaluate",
    "evaluate_matrices",
    "generate_synthetic",
    "hinge",
    "init_params",
    "intra_document_loss",
    "ks_two_sample",
    "load_checkpoint",
    "load_corpus",
    "load_split_manifest",
    "lr_at",
    "neg_tk",
    "no_grad",
    "save_checkpoint",
    "save_corpus",
    "save_split_manifest",
    "similarity_matrix",
    "split_representations",
    "spread_regression",
    "tk",
    "token_overlap_scores",
    "total_loss",
    "train",
]
