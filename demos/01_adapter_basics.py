"""
Adapter basics: a frozen weight, a low-rank update, and a routed mixture
========================================================================

Everything here runs on plain float64 numpy. The three layers on display:

  * LoraAdapter      -- one rank-r update  delta(x) = (alpha/r) * B A x; it is
                        the expert bank with one expert and no router
  * Router           -- two-layer MLP ending in a softmax over experts
  * MolreLayer       -- frozen W0 plus K low-rank experts blended by the router;
                        the K experts are stacked into one A (K*r x d_in) and
                        one B (d_out x K*r)
"""

import numpy as np

from molre.adapters import (
    ExpertBank,
    LoraAdapter,
    MolreLayer,
    Router,
    count_molre_params,
)
from molre.rng import RngStream
from molre.tensor import Tensor

rng = np.random.default_rng(0)
d_in, d_out, rank, experts, hidden = 64, 32, 8, 6, 256

# a stand-in for some pretrained projection we are not allowed to touch
w0 = Tensor(rng.normal(size=(d_out, d_in)) / np.sqrt(d_in))
x = rng.normal(size=(5, d_in))

# ---------------------------------------------------------------------------
# 1) the mixture is perfectly transparent at init
# ---------------------------------------------------------------------------
# Expert B matrices start at zero, so every expert contributes exactly
# nothing and the layer reproduces the frozen projection bit for bit.

layer = MolreLayer(w0, ExpertBank(experts, d_in, d_out, rank), Router(d_in, experts, hidden))
layer.init(RngStream(1))

frozen_out = x @ w0.data.T
print("transparent at init:", np.array_equal(layer.forward(x).data, frozen_out))

# ---------------------------------------------------------------------------
# 2) with K=1 the mixture IS the plain low-rank adapter
# ---------------------------------------------------------------------------
adapter = LoraAdapter(d_in, d_out, rank)
adapter.init(RngStream(2))
adapter.B.data[...] = rng.normal(size=adapter.B.shape)  # pretend it trained

solo = MolreLayer(w0, ExpertBank(1, d_in, d_out, rank), Router(d_in, 1, hidden))
solo.init(RngStream(3))
# the bank stacks its experts: expert 0 is rows 0:rank of A, columns 0:rank of B
solo.bank.A.data[:rank] = adapter.A.data
solo.bank.B.data[:, :rank] = adapter.B.data

# the plain adapter in closed form: x W0^T + (alpha/r) (x A^T) B^T
lora_out = x @ w0.data.T + adapter.scaling * ((x @ adapter.A.data.T) @ adapter.B.data.T)
diff = np.abs(solo.forward(x).data - lora_out).max()
print(f"K=1 vs plain adapter, max |diff|: {diff:.2e}")

# ---------------------------------------------------------------------------
# 3) gates are a proper distribution over experts, per input row
# ---------------------------------------------------------------------------
for t in layer.router.parameters().values():
    t.data[...] = rng.normal(size=t.data.shape) * 0.2
gates = layer.router.forward(x).data
print("gate rows:", np.round(gates, 3))
print("row sums:", gates.sum(axis=1))

# ---------------------------------------------------------------------------
# 4) the whole bank costs a fraction of what it adapts
# ---------------------------------------------------------------------------
# At the dimensions of common vision backbones, the experts-plus-router
# budget stays in the hundreds of thousands of parameters.
for d in (768, 1024, 1152):
    n = count_molre_params(d, d, num_experts=6, rank=8, router_hidden=256)
    print(f"d={d:4d}: {n:,} trainable ({n / 86.6e6:.3%} of an 86.6M backbone)")
