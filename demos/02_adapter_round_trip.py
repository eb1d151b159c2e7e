"""Low-rank adapters: attach, train, merge.

Adapters let the unlearning loop touch a ~20x smaller parameter vector
while the base network stays frozen.  Two guarantees matter and both
are checked here:

  1. attaching is a no-op: the adapted model's logits are bit-identical
     to the base model's until the adapter moves
  2. merging is faithful: folding B@A into the base weights reproduces
     the adapted model's logits to float precision

The training batches are ``data.Dataset`` rows, as everywhere else.

Run:  python3 demos/02_adapter_round_trip.py
"""

import numpy as np

from orthograd.data import Dataset
from orthograd.lora import attach_lora
from orthograd.net import NetworkSpec, init_params

spec = NetworkSpec((20, 128, 128, 10), "relu")
base = init_params(spec, seed=4)
probe = np.random.default_rng(44).normal(size=(20, 20))

model = attach_lora(base, rank=8, scale=32.0, seed=0)
d_full = spec.param_dim
d_adapter = model.adapters.param_dim
print(f"base parameters:    {d_full}")
print(f"adapter parameters: {d_adapter}  ({d_full / d_adapter:.1f}x smaller)")
print(f"update multiplier:  scale/rank = {model.adapters.multiplier}")

same = np.array_equal(base.forward(probe), model.forward(probe))
print(f"\nlogits bit-identical at attach: {same}")

# a few descent steps on random data move the adapter off zero
rng = np.random.default_rng(45)
for _ in range(5):
    batch = Dataset(rng.normal(size=(8, 20)), rng.integers(0, 10, size=8), 10)
    _, g = model.mean_loss_and_grad(batch)
    model = model.apply_update(g, 0.05)

merged = model.merged()
gap = np.max(np.abs(merged.forward(probe) - model.forward(probe)))
print(f"after 5 updates, |merged logits - adapted logits| max = {gap:.2e}")
