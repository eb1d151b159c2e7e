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

from .data import check_integer, check_positive
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
        check_integer("rank", self.rank, 1)
        check_positive("scale", self.scale)
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


@dataclass(frozen=True, eq=False)
class AdaptedModel(Model):
    """Base parameters plus a flat adapter vector ``theta``, the model's coordinates.

    Differentiates with respect to ``theta`` only; ``coords`` is ``theta`` itself, and ``a[l]``
    and ``b[l]``, layer l's A and B, are views into it.  ``apply_update`` returns a new model
    sharing the base parameters, never copied or mutated.  The merge happens on first use:
    the merged vector is built then, once, and every pass and ``merged`` read that one vector.
    """

    base: ParamVector
    adapters: LoraAdapterSet
    theta: np.ndarray

    def __post_init__(self):
        theta, adapters = np.asarray(self.theta, dtype=np.float64), self.adapters
        if theta.shape != (adapters.param_dim,):
            raise ValueError(f"adapter vector has shape {theta.shape}, "
                             f"expected ({adapters.param_dim},)")
        if self.base.spec != adapters.spec:
            raise ValueError("base parameters and adapters disagree on the architecture")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "spec", self.base.spec)
        object.__setattr__(self, "coords", theta)   # the same array: frozen, so they cannot drift
        object.__setattr__(self, "dim", theta.shape[0])
        layout = adapters.layout
        object.__setattr__(self, "a", tuple(theta[o:o + s[0] * s[1]].reshape(s) for o, s, _, _ in layout))
        object.__setattr__(self, "b", tuple(theta[o:o + s[0] * s[1]].reshape(s) for _, _, o, s in layout))

    @cached_property
    def _merged(self) -> ParamVector:
        merged = ParamVector(self.base.flat.copy(), self.spec)
        for block, a, b in zip(merged.layers, self.a, self.b):   # (scale/rank) B A: (n_out, n_in)
            block[:-1] += (self.adapters.multiplier * (b @ a)).T
        return merged

    def _blocks(self, acts, deltas):
        # per layer, with m the multiplier: the A block (m delta_i B) (x) a_i
        # and the B block delta_i (x) (m A a_i)
        mult = self.adapters.multiplier
        blocks = []
        for l, (a_off, _, b_off, _) in enumerate(self.adapters.layout):
            blocks.append((a_off, mult * (deltas[l] @ self.b[l]), acts[l]))
            blocks.append((b_off, deltas[l], mult * (acts[l] @ self.a[l].T)))
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

