"""Low-rank adapters over the feed-forward classifier's weight matrices.

Every weight layer is adapted: its weight becomes ``W + (scale/rank) * (B A)^T``
where ``A`` has shape ``(rank, n_in)`` and ``B`` has shape ``(n_out, rank)``
(the transpose appears because weights are stored input-major).  ``B`` starts at
zero, so attaching adapters does not change the function; ``A`` is random so
the first update to ``B`` already moves the effective weight.  Biases are
never adapted.

Adapter parameters live in their own flat vector (dimension
``sum_l rank * (n_in + n_out)``).  ``AdaptedModel`` is a ``net.Model``: it
supplies its merged full vector, which every pass runs on, and its one chain-rule
map to factor blocks, and inherits every gradient operation, so the unlearning
steps treat the adapter vector exactly like the full-model parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .net import Model, NetworkSpec, ParamVector

__all__ = [
    "LoraAdapterSet",
    "AdaptedModel",
    "attach_lora",
]


@dataclass(frozen=True)
class LoraAdapterSet:
    """Adapter shapes for one architecture, on every weight layer. ``layout`` holds, per weight
    layer, (A offset, A shape, B offset, B shape); ``param_dim``, the length of the adapter
    vector, is where it ends; ``multiplier`` is the low-rank update's factor scale/rank."""

    spec: NetworkSpec
    rank: int
    scale: float

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        slots = []
        off = 0
        for l, (n_in, n_out) in enumerate(zip(self.spec.layer_sizes, self.spec.layer_sizes[1:])):
            if self.rank > min(n_in, n_out):
                raise ValueError(
                    f"rank {self.rank} exceeds min(n_in, n_out)={min(n_in, n_out)} at layer {l}")
            slots.append((off, (self.rank, n_in), off + self.rank * n_in, (n_out, self.rank)))
            off += self.rank * (n_in + n_out)
        object.__setattr__(self, "layout", tuple(slots))   # not fields: eq/hash/repr skip them
        object.__setattr__(self, "param_dim", off)
        object.__setattr__(self, "multiplier", self.scale / self.rank)


class AdaptedModel(Model):
    """Base parameters plus a flat adapter vector ``theta``, the model's coordinates.

    Differentiates with respect to the adapter coordinates only.
    ``apply_update`` returns a new model; the base parameters are shared,
    never copied or mutated.  The merged parameter vector is built once, on first
    use, and the forward and gradient passes and ``merged`` read that one vector.
    """

    def __init__(self, base: ParamVector, adapters: LoraAdapterSet, theta: np.ndarray):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (adapters.param_dim,):
            raise ValueError(f"adapter vector has shape {theta.shape}, "
                             f"expected ({adapters.param_dim},)")
        if base.spec != adapters.spec:
            raise ValueError("base parameters and adapters disagree on the architecture")
        self.base = base
        self.adapters = adapters
        self.theta = theta

    @property
    def spec(self) -> NetworkSpec:
        return self.base.spec

    @property
    def coords(self) -> np.ndarray:
        return self.theta

    def a_matrix(self, layer: int) -> np.ndarray:
        a_off, a_shape, _, _ = self.adapters.layout[layer]
        return self.theta[a_off:a_off + a_shape[0] * a_shape[1]].reshape(a_shape)

    def b_matrix(self, layer: int) -> np.ndarray:
        _, _, b_off, b_shape = self.adapters.layout[layer]
        return self.theta[b_off:b_off + b_shape[0] * b_shape[1]].reshape(b_shape)

    @cached_property
    def _merged(self) -> ParamVector:
        merged = ParamVector(self.base.flat.copy(), self.spec)
        for l in range(self.spec.n_layers):   # (scale/rank) B A is output-major (n_out, n_in)
            w = merged.weights(l)
            w += (self.adapters.multiplier * (self.b_matrix(l) @ self.a_matrix(l))).T
        return merged

    def _blocks(self, acts, deltas):
        # per layer, with m the multiplier: the A block (m delta_i B) (x) a_i
        # and the B block delta_i (x) (m A a_i)
        mult = self.adapters.multiplier
        blocks = []
        for l, (a_off, _, b_off, _) in enumerate(self.adapters.layout):
            blocks.append((a_off, mult * (deltas[l] @ self.b_matrix(l)), acts[l]))
            blocks.append((b_off, deltas[l], mult * (acts[l] @ self.a_matrix(l).T)))
        return blocks

    def _at(self, theta: np.ndarray) -> "AdaptedModel":
        return AdaptedModel(self.base, self.adapters, theta)

    def merged(self) -> ParamVector:
        """The adapted weights as one full vector per model, shared: treat it as immutable."""
        return self._merged


def attach_lora(base: ParamVector, rank: int, scale: float, seed: int = 0) -> AdaptedModel:
    """Attach freshly initialized adapters to every weight layer of a model.

    ``A`` entries are zero-mean normal with variance 1/n_in, ``B`` starts at
    zero, so the adapted model computes exactly the base function until the
    first update.
    """
    adapters = LoraAdapterSet(spec=base.spec, rank=rank, scale=float(scale))
    rng = np.random.default_rng(seed)
    theta = np.zeros(adapters.param_dim)
    for a_off, (_, n_in), _, _ in adapters.layout:   # the B blocks stay zero
        size = adapters.rank * n_in
        theta[a_off:a_off + size] = rng.normal(0.0, np.sqrt(1.0 / n_in), size=size)
    return AdaptedModel(base, adapters, theta)

