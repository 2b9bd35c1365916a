"""The numpy autodiff core that everything else is built on.

Tensors wrap float64 arrays; operations record a graph; backward() walks
it in reverse topological order, accumulates gradients into leaves and
consumes the graph, freeing what each op kept for its backward.
The demo builds a small expression, differentiates it, and verifies one
entry against a central finite difference.
"""

import numpy as np

from doclink import tensor
from doclink.errors import ConsumedGraphError
from doclink.tensor import Tensor

rng = np.random.default_rng(0)

w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
b = Tensor(np.zeros(2), requires_grad=True)

hidden = (x @ w + b).relu()
loss = (hidden * hidden).mean()
print(f"loss = {loss.data:.6f}")

tensor.backward(loss)
print(f"dloss/dw[0,0] via reverse mode  = {w.grad[0, 0]:+.8f}")

# the same derivative by nudging the entry both ways
step = 1e-5
keep = w.data[0, 0]
w.data[0, 0] = keep + step
with tensor.no_grad():
    hi = ((x @ w + b).relu() ** 2.0).mean().item()
w.data[0, 0] = keep - step
with tensor.no_grad():
    lo = ((x @ w + b).relu() ** 2.0).mean().item()
w.data[0, 0] = keep
print(f"dloss/dw[0,0] via central diff  = {(hi - lo) / (2 * step):+.8f}")

# backward consumed the graph: a second pass through it is refused
try:
    tensor.backward(loss)
except ConsumedGraphError as exc:
    print(f"second backward: {exc}")

# gradients accumulate across backward calls, on fresh graphs, until cleared
before = w.grad.copy()
tensor.backward((x @ w + b).relu().sum())
print(f"accumulation: grad changed by {np.abs(w.grad - before).max():.4f} (not reset)")
w.zero_grad()

# no_grad turns graph recording off: useful for evaluation loops
with tensor.no_grad():
    silent = (x @ w).sum()
print(f"built under no_grad -> node is {silent.node}, requires_grad={silent.requires_grad}")

# softmax and layer norm are first-class ops with exact backward rules
logits = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
probs = tensor.softmax(logits, axis=-1)
print(f"softmax rows sum to {probs.data.sum(axis=-1)}")

gain = Tensor(np.ones(5), requires_grad=True)
bias = Tensor(np.zeros(5), requires_grad=True)
normed = tensor.layernorm(logits, gain, bias)
print(f"layernorm row means ~ {normed.data.mean(axis=-1)} (zero)")
