"""Low-rank adapters over the feed-forward classifier's weight matrices.

An adapted layer replaces its weight by ``W + (scale/rank) * (B A)^T`` where
``A`` has shape ``(rank, n_in)`` and ``B`` has shape ``(n_out, rank)`` (the
transpose appears because weights are stored input-major).  ``B`` starts at
zero, so attaching adapters does not change the function; ``A`` is random so
the first update to ``B`` already moves the effective weight.  Biases are
never adapted.

Adapter parameters live in their own flat vector (dimension
``sum_l rank * (n_in + n_out)``); the unlearning steps treat that vector
exactly like the full-model parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import write_atomic
from .net import (
    Batch, NetworkSpec, ParamVector, PerSampleGrads, _check_batch, _cross_entropy_losses,
    _decode_checkpoint, _encode_checkpoint, _engine_pass, _logits,
)

__all__ = [
    "LoraAdapterSet",
    "AdaptedModel",
    "attach_lora",
    "merge_lora",
    "save_adapter_checkpoint",
    "load_adapter_checkpoint",
    "ADAPTER_HEADER",
]

ADAPTER_HEADER = "ORTHOGRAD-LORA v1"


@dataclass(frozen=True)
class LoraAdapterSet:
    """Adapter shapes and placement for one architecture."""

    spec: NetworkSpec
    rank: int
    scale: float
    layers: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(int(l) for l in self.layers))
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not (self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if len(self.layers) == 0:
            raise ValueError("at least one layer must be adapted")
        if len(set(self.layers)) != len(self.layers):
            raise ValueError(f"duplicate layer indices: {self.layers}")
        shapes = self.spec.layer_shapes()
        for l in self.layers:
            if not 0 <= l < self.spec.n_layers:
                raise ValueError(f"layer index {l} out of range for {self.spec.n_layers} layers")
            (n_in, n_out), _ = shapes[l]
            if self.rank > min(n_in, n_out):
                raise ValueError(
                    f"rank {self.rank} exceeds min(n_in, n_out)={min(n_in, n_out)} at layer {l}")
        slots = []
        off = 0
        for l in self.layers:
            (n_in, n_out), _ = shapes[l]
            a_off = off
            off += self.rank * n_in
            b_off = off
            off += n_out * self.rank
            slots.append((l, a_off, (self.rank, n_in), b_off, (n_out, self.rank)))
        object.__setattr__(self, "_layout", tuple(slots))   # not a field: eq/hash/repr skip it

    @property
    def multiplier(self) -> float:
        """Effective low-rank update multiplier scale/rank."""
        return self.scale / self.rank

    def layout(self) -> tuple[tuple[int, int, tuple[int, int], int, tuple[int, int]], ...]:
        """Per adapted layer: (layer, A offset, A shape, B offset, B shape)."""
        return self._layout

    @property
    def param_dim(self) -> int:
        shapes = self.spec.layer_shapes()
        return sum(self.rank * (shapes[l][0][0] + shapes[l][0][1]) for l in self.layers)


class AdaptedModel:
    """Base parameters plus a flat adapter vector, with gradient operations.

    Mirrors the full-model operations but differentiates with respect to the
    adapter coordinates only.  ``apply_update`` returns a new model; the base
    parameters are shared, never copied or mutated.  The effective weights
    are built once, on first use, and the forward and gradient methods read
    that one copy.
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
    def param_dim(self) -> int:
        return self.adapters.param_dim

    def a_matrix(self, slot: int) -> np.ndarray:
        _, a_off, a_shape, _, _ = self.adapters.layout()[slot]
        return self.theta[a_off:a_off + a_shape[0] * a_shape[1]].reshape(a_shape)

    def b_matrix(self, slot: int) -> np.ndarray:
        _, _, _, b_off, b_shape = self.adapters.layout()[slot]
        return self.theta[b_off:b_off + b_shape[0] * b_shape[1]].reshape(b_shape)

    def weight_delta(self, slot: int) -> np.ndarray:
        """Scaled low-rank update (scale/rank) B A, output-major (n_out, n_in)."""
        return self.adapters.multiplier * (self.b_matrix(slot) @ self.a_matrix(slot))

    def effective_weights(self) -> tuple[np.ndarray, ...]:
        """Per layer ``W + (scale/rank) (B A)^T``; shared by every call, do not modify."""
        return self._weights

    @cached_property
    def _weights(self) -> tuple[np.ndarray, ...]:
        weights = self.base.weight_list()
        for slot, (l, *_rest) in enumerate(self.adapters.layout()):
            weights[l] = weights[l] + self.weight_delta(slot).T
        return tuple(weights)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return _logits(self.effective_weights(), self.base.bias_list(), self.spec, inputs)

    def mean_loss_and_grad(self, batch: Batch) -> tuple[float, np.ndarray]:
        """Mean cross-entropy and its gradient in adapter coordinates."""
        _check_batch(batch, self.spec.in_dim, self.spec.n_classes)
        logits, acts, deltas = _engine_pass(self.effective_weights(), self.base.bias_list(),
                                            self.spec, batch, per_sample=False)
        loss = float(np.mean(_cross_entropy_losses(logits, batch.labels)))
        mult = self.adapters.multiplier
        grad = np.empty(self.param_dim)
        for slot, (l, a_off, a_shape, b_off, b_shape) in enumerate(self.adapters.layout()):
            gw = acts[l].T @ deltas[l]                       # (n_in, n_out)
            da = mult * (gw @ self.b_matrix(slot)).T          # (r, n_in)
            db = mult * gw.T @ self.a_matrix(slot).T          # (n_out, r)
            grad[a_off:a_off + da.size] = da.reshape(-1)
            grad[b_off:b_off + db.size] = db.reshape(-1)
        return loss, grad

    def per_sample_factors(self, batch: Batch) -> PerSampleGrads:
        """Per-sample adapter gradients, factored: per adapted layer, with m the
        multiplier, the A block is (m delta_i B) (x) a_i and the B block delta_i (x) (m A a_i)."""
        _check_batch(batch, self.spec.in_dim, self.spec.n_classes)
        _, acts, deltas = _engine_pass(self.effective_weights(), self.base.bias_list(),
                                       self.spec, batch, per_sample=True)
        mult = self.adapters.multiplier
        blocks = []
        for slot, (l, a_off, _, b_off, _) in enumerate(self.adapters.layout()):
            blocks.append((a_off, mult * (deltas[l] @ self.b_matrix(slot)), acts[l]))
            blocks.append((b_off, deltas[l], mult * (acts[l] @ self.a_matrix(slot).T)))
        return PerSampleGrads(self.param_dim, blocks)

    def apply_update(self, g: np.ndarray, eta: float) -> "AdaptedModel":
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.theta.shape:
            raise ValueError(f"update has shape {g.shape}, adapter vector has {self.theta.shape}")
        return AdaptedModel(self.base, self.adapters, self.theta - eta * g)

    def merged(self) -> ParamVector:
        return merge_lora(self.base, self)


def attach_lora(base: ParamVector, rank: int, scale: float,
                layers: tuple[int, ...] | None = None, seed: int = 0) -> AdaptedModel:
    """Attach freshly initialized adapters to a model.

    ``A`` entries are zero-mean normal with variance 1/n_in, ``B`` starts at
    zero, so the adapted model computes exactly the base function until the
    first update.  ``layers`` defaults to every weight layer.
    """
    if layers is None:
        layers = tuple(range(base.spec.n_layers))
    adapters = LoraAdapterSet(spec=base.spec, rank=rank, scale=float(scale), layers=tuple(layers))
    rng = np.random.default_rng(seed)
    theta = np.zeros(adapters.param_dim)
    for _, a_off, a_shape, _b_off, _b_shape in adapters.layout():
        n_in = a_shape[1]
        block = rng.normal(0.0, np.sqrt(1.0 / n_in), size=a_shape)
        theta[a_off:a_off + block.size] = block.reshape(-1)
        # B block stays zero
    return AdaptedModel(base, adapters, theta)


def merge_lora(base: ParamVector, model: AdaptedModel) -> ParamVector:
    """Fold the adapter update into a standalone parameter vector."""
    if base.spec != model.spec:
        raise ValueError("base parameters and adapted model disagree on the architecture")
    flat = base.flat.copy()
    merged = ParamVector(flat, base.spec)
    for slot, (l, *_rest) in enumerate(model.adapters.layout()):
        w = merged.weights(l)
        w += model.weight_delta(slot).T
    return merged


# ---------------------------------------------------------------------------
# adapter checkpoints: same container as model checkpoints, different header


def save_adapter_checkpoint(path, model: AdaptedModel, seed: int = 0) -> None:
    adapters = model.adapters
    sections = {
        "adapter": {
            "rank": str(adapters.rank),
            "scale": repr(float(adapters.scale)),
            "layers": ",".join(str(l) for l in adapters.layers),
            "seed": str(int(seed)),
            "d": str(model.param_dim),
        },
        "model": {
            "layer_sizes": ",".join(str(s) for s in adapters.spec.layer_sizes),
            "activation": adapters.spec.activation,
        },
    }
    write_atomic(path, _encode_checkpoint(ADAPTER_HEADER, sections, model.theta))


def load_adapter_checkpoint(path, base: ParamVector) -> AdaptedModel:
    from pathlib import Path

    blob = Path(path).read_bytes()
    sections, payload = _decode_checkpoint(blob, ADAPTER_HEADER, path)
    if "adapter" not in sections or "model" not in sections:
        raise ValueError(f"{path}: adapter checkpoint missing metadata sections")
    meta = sections["adapter"]
    sizes = tuple(int(s) for s in sections["model"]["layer_sizes"].split(","))
    spec = NetworkSpec(sizes, sections["model"]["activation"])
    if spec != base.spec:
        raise ValueError(f"{path}: adapter architecture {sizes} does not match base model")
    adapters = LoraAdapterSet(
        spec=spec,
        rank=int(meta["rank"]),
        scale=float(meta["scale"]),
        layers=tuple(int(l) for l in meta["layers"].split(",")),
    )
    if payload.shape[0] != adapters.param_dim:
        raise ValueError(f"{path}: payload has {payload.shape[0]} values, "
                         f"expected {adapters.param_dim}")
    return AdaptedModel(base, adapters, payload.copy())
