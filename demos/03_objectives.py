"""The three document-level ranking objectives.

All supervision lives at document granularity, so losses are built from
document-level similarities.  tk(M, k) averages the k strongest
per-sentence and k strongest per-image cosines of a similarity matrix M;
neg_tk is its mirror over the weakest cells.  On top of these:

* cross-document: own-document tk must beat every other document's tk
  by a margin, in both pairing directions, using the hardest offender.
* intra-document: within one document, tk must beat neg_tk by half the
  margin, separating true pairs from co-occurring distractors.
* sub-document dropout: a random subset of sentences and images forms a
  weaker positive that must still beat the cross-document negatives.
"""

import numpy as np

from doclink import tensor
from doclink.corpus import SynthConfig, generate_synthetic
from doclink.encoder import ModelConfig, batch_representations, init_params, similarity_matrix
from doclink.objective import ObjectiveConfig, neg_tk, tk, total_loss
from doclink.rng import RngStream
from doclink.tensor import Tensor

m = Tensor(np.array([
    [0.9, 0.1, 0.0],
    [0.2, 0.8, 0.3],
    [0.1, 0.0, 0.7],
]), requires_grad=True)
print("similarity matrix:\n", m.data)
print(f"tk(M, 1)     = {tk(m, 1).data:.4f}   (mean of strongest row+col cells)")
print(f"tk(M, 2)     = {tk(m, 2).data:.4f}")
print(f"neg_tk(M, 1) = {neg_tk(m, 1).data:.4f}   (mean of weakest row+col cells)")

tensor.backward(tk(m, 1))
print("tk gradient lands only on the selected cells and sums to 1:\n", m.grad)

corpus = generate_synthetic(
    SynthConfig(
        train_docs=3, val_docs=0, test_docs=0,
        sentences_per_doc=4, images_per_doc=4, density=0.25,
        vocab_size=120, obj_dim=6, objects_per_image=2,
        sentence_len=5, concept_len=2, tokens_per_cluster=4, sigma=0.1,
    ),
    RngStream(4),
)
config = ModelConfig(
    vocab_size=120, obj_dim=6, embed_dim=8, sentence_layers=1,
    image_layers=1, heads=2, word_dim=8, max_sentence_len=8,
)
params = init_params(config, RngStream(5))
batch = batch_representations(corpus.documents, params, config)
objective = ObjectiveConfig(alpha=0.2, p_sub=0.6)

# total_loss computes all three terms at once from one B x B table of tk
# values; each document's terms come back as plain arrays in ``parts``.
loss, parts = total_loss(batch, objective, RngStream(6).child("dropout"))
print(f"\nbatch loss (mean of per-document totals) = {loss.data:.4f}")
for i in range(len(batch)):
    own = similarity_matrix(*batch[i])  # document i's sentences x its images
    k = min(own.shape)  # the default k of total_loss
    print(
        f"  doc {i}: cross={parts['l_cross'][i]:.4f} intra={parts['l_intra'][i]:.4f} "
        f"sub={parts['l_sub'][i]:.4f} total={parts['total'][i]:.4f} "
        f"(own tk={tk(own, k).data:.4f}, own neg_tk={neg_tk(own, k).data:.4f})"
    )

print("\nswitching objectives off zeroes their terms:")
loss_c, parts_c = total_loss(
    batch, objective, RngStream(6).child("dropout"),
    use_cross=True, use_intra=False, use_sub=False,
)
print(f"cross-only batch loss = {loss_c.data:.4f} "
      f"(intra now {parts_c['l_intra'][0]}, sub now {parts_c['l_sub'][0]})")
