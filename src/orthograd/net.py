"""Feed-forward softmax classifier with exact mean and per-sample gradients.

Parameters live in a single flat float64 vector so the unlearning code can
treat the model as a point in R^d.  Each layer is one row-major
``(n_in + 1, n_out)`` block: its input-major weight rows, then its bias row;
layers are laid out in network order.

``Model`` holds the gradient operations of every parameter space once:
forward, mean loss and gradient, factored per-sample gradients, update and
merge.  A space supplies its coordinates, the layer blocks its forward pass runs,
one chain-rule map from the engine pass to factor blocks, and a copy of
itself at new coordinates; ``ParamVector`` is the full space and
``lora.AdaptedModel`` the adapter space.  Per-sample gradients come out
factored per layer (``PerSampleGrads``), never as a dense (d, k) matrix, and
the mean gradient is the row sum of the factors of the mean-scaled pass.
Every batch is a ``data.Dataset``; the gradient calls check it against the
network, and pretraining takes its batches as subsets of one checked set.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, _convert, format_sections, parse_sections_text, write_atomic
from .data import Dataset

__all__ = [
    "NetworkSpec",
    "Model",
    "ParamVector",
    "PerSampleGrads",
    "init_params",
    "evaluate_accuracy",
    "check_schedule",
    "pretrain",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("relu", "tanh")

CHECKPOINT_HEADER = "ORTHOGRAD-CKPT v1"


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: layer sizes from input to output plus hidden activation; ``param_dim``,
    the length of the flat parameter vector, is where ``layout()`` ends."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError(f"layer_sizes needs at least input and output, got {sizes}")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        slots = []
        off = 0
        for n_in, n_out in zip(sizes, sizes[1:]):
            slots.append((off, (n_in + 1, n_out)))
            off += (n_in + 1) * n_out
        object.__setattr__(self, "_layout", tuple(slots))   # not fields: eq/hash/repr skip them
        object.__setattr__(self, "param_dim", off)

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    def layout(self) -> tuple[tuple[int, tuple[int, int]], ...]:
        """Per layer: (offset, block shape (n_in + 1, n_out)), the weight rows then the bias row."""
        return self._layout


class Model:
    """Gradient operations shared by every parameter space, written once.

    A model supplies ``spec`` and four things: ``coords``, the vector its
    gradients live in; ``_layers()``, the layer blocks its forward pass
    runs; ``_blocks(acts, deltas)``, its one chain-rule map from the engine
    pass to ``PerSampleGrads`` blocks over ``coords``; and ``_at(coords)``, a
    copy of itself at new coordinates.
    """

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Logits for a batch of inputs, shape (k, n_classes)."""
        return _logits(self._layers(), self.spec, inputs)

    def _factors(self, batch: Dataset, per_sample: bool):
        """(logits, factored gradients) of a checked batch; see ``_engine_pass`` for the scale."""
        logits, acts, deltas = _engine_pass(self._layers(), self.spec, batch, per_sample)
        return logits, PerSampleGrads(self.dim, self._blocks(acts, deltas))

    def mean_loss_and_grad(self, batch: Dataset) -> tuple[float, np.ndarray]:
        """Mean softmax cross-entropy over the batch and its gradient over ``coords``."""
        _check_batch(batch, self.spec)
        logits, grads = self._factors(batch, per_sample=False)
        return float(np.mean(_cross_entropy_losses(logits, batch.labels))), grads.sum()

    def per_sample_factors(self, batch: Dataset) -> PerSampleGrads:
        """Each sample's own loss gradient over ``coords``, factored; ``mean()`` matches
        ``mean_loss_and_grad`` up to roundoff."""
        _check_batch(batch, self.spec)
        return self._factors(batch, per_sample=True)[1]

    def apply_update(self, g: np.ndarray, eta: float):
        """Gradient-descent step ``coords - eta * g`` as a new model."""
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.coords.shape:
            raise ValueError(f"update has shape {g.shape}, coordinates have {self.coords.shape}")
        return self._at(self.coords - eta * g)

    def merged(self) -> ParamVector:
        """The model as a full parameter vector; a full-space model is its own."""
        return self


@dataclass(frozen=True)
class ParamVector(Model):
    """Flat parameter vector bound to its architecture.

    ``layer(l)`` and its rows ``weights(l)`` / ``biases(l)`` are views into ``flat``;
    treat the vector as immutable and produce updates through ``apply_update``.
    """

    flat: np.ndarray
    spec: NetworkSpec

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.float64)
        object.__setattr__(self, "flat", flat)
        if flat.ndim != 1 or flat.shape[0] != self.spec.param_dim:
            raise ValueError(
                f"flat vector has shape {flat.shape}, spec needs ({self.spec.param_dim},)")

    @property
    def coords(self) -> np.ndarray:
        return self.flat

    def layer(self, l: int) -> np.ndarray:
        off, shape = self.spec.layout()[l]
        return self.flat[off:off + shape[0] * shape[1]].reshape(shape)

    def weights(self, l: int) -> np.ndarray:
        return self.layer(l)[:-1]

    def biases(self, l: int) -> np.ndarray:
        return self.layer(l)[-1]

    def _layers(self):
        return [self.layer(l) for l in range(self.spec.n_layers)]

    def _blocks(self, acts, deltas):
        # per layer block, sample i's gradient is [a_i, 1] (x) delta_i
        ones = np.ones((deltas[0].shape[0], 1))
        return [(off, np.concatenate((acts[l], ones), axis=1), deltas[l])
                for l, (off, _) in enumerate(self.spec.layout())]

    def _at(self, flat: np.ndarray) -> "ParamVector":
        return ParamVector(flat, self.spec)


class PerSampleGrads:
    """k per-sample gradients in R^d as per-layer outer-product factors, O(k * width).

    ``blocks`` holds ``(offset, L (k, p), R (k, q))``: sample i's entries from ``offset``
    on are the row-major ``p x q`` matrix ``outer(L[i], R[i])``; no other entry is nonzero.
    The methods act as the (d, k) matrix G without forming it (Goodfellow, arXiv:1510.01799).
    """

    def __init__(self, dim: int, blocks):
        self.dim, self.blocks, self.k = dim, blocks, blocks[0][1].shape[0]

    @classmethod
    def columns(cls, g) -> "PerSampleGrads":
        """A dense (d, k) matrix as one block: column i is ``1 (x) g[:, i]``."""
        g = np.asarray(g, dtype=np.float64)
        if g.ndim != 2:
            raise ValueError(f"columns need a (d, k) matrix, got shape {g.shape}")
        return cls(g.shape[0], [(0, np.ones((g.shape[1], 1)), np.ascontiguousarray(g.T))])

    def gram(self) -> np.ndarray:
        """G^T G, (k, k): the sum over blocks of (L L^T) * (R R^T)."""
        return sum((l @ l.T) * (r @ r.T) for _, l, r in self.blocks)

    def sq_norms(self) -> np.ndarray:
        """The diagonal of ``gram()`` without the rest of it."""
        return sum(np.einsum("ij,ij->i", l, l) * np.einsum("ij,ij->i", r, r) for _, l, r in self.blocks)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """G^T x, (k,): per block, the row sums of (L X) * R with X that block of x."""
        return sum(np.einsum("ij,ij->i", l @ x[o:o + l.shape[1] * r.shape[1]].reshape(l.shape[1], -1), r)
                   for o, l, r in self.blocks)

    def matvec(self, c: np.ndarray) -> np.ndarray:
        """G c, (d,): per block, (c * L)^T R."""
        out = np.zeros(self.dim)
        for o, l, r in self.blocks:
            np.matmul((c[:, None] * l).T, r, out=out[o:o + l.shape[1] * r.shape[1]].reshape(l.shape[1], -1))
        return out

    def mean(self) -> np.ndarray:
        return self.matvec(np.full(self.k, 1.0 / self.k))

    def sum(self, out: np.ndarray | None = None) -> np.ndarray:
        """G 1, (d,): per block L^T R, written into ``out`` when given (entries
        outside every block are then left as they are)."""
        out = np.zeros(self.dim) if out is None else out
        for o, l, r in self.blocks:
            np.matmul(l.T, r, out=out[o:o + l.shape[1] * r.shape[1]].reshape(l.shape[1], -1))
        return out

    def dense(self) -> np.ndarray:
        """The (d, k) matrix itself, for tests and demos."""
        g = np.zeros((self.dim, self.k))
        for o, l, r in self.blocks:
            g[o:o + l.shape[1] * r.shape[1]] = np.einsum("kp,kq->pqk", l, r).reshape(-1, self.k)
        return g


def _check_batch(batch: Dataset, spec: NetworkSpec) -> None:
    """What a ``Dataset`` does not check itself: rows, and its fit to the network."""
    x, y = batch.inputs, batch.labels
    n_in, n_classes = spec.in_dim, spec.n_classes
    if len(batch) < 1:
        raise ValueError("batch has no rows, needs k >= 1")
    if x.shape[1] != n_in:
        raise ValueError(f"batch inputs have {x.shape[1]} features, network expects {n_in}")
    if not np.all(np.isfinite(x)):
        raise ValueError("batch inputs contain non-finite values")
    if y.max() >= n_classes:
        raise ValueError(f"batch labels must lie in [0, {n_classes}), got range [{y.min()}, {y.max()}]")


# ---------------------------------------------------------------------------
# shared forward/backward engine (also used with LoRA effective layers)


def _activate(name: str, z: np.ndarray) -> None:
    """The hidden activation, in place."""
    if name == "relu":
        np.maximum(z, 0.0, out=z)
    else:
        np.tanh(z, out=z)


def _forward_layers(layers, activation, x):
    """Forward pass over ``(n_in + 1, n_out)`` layer blocks; returns (logits, activations).

    ``acts[0]`` is the input; ``acts[l+1]`` is layer l's output.  The final
    layer is linear (logits), hidden layers apply the activation.  Each
    layer allocates one array: the bias row and the activation apply in place.
    """
    a = np.asarray(x, dtype=np.float64)
    acts = [a]
    last = len(layers) - 1
    for l, block in enumerate(layers):
        a = a @ block[:-1]
        a += block[-1]
        if l != last:
            _activate(activation, a)
        acts.append(a)
    return acts[-1], acts


# Evaluation runs in row chunks whose widest temporary stays within 256 KiB
# (256 rows at width 128): the allocator then reuses heap pages, where
# whole-set temporaries of several MB are mapped, and page-faulted, afresh
# on every call.
_CHUNK_BYTES = 256 * 1024


def _chunk_rows(spec: NetworkSpec) -> int:
    return max(1, _CHUNK_BYTES // (8 * max(spec.layer_sizes)))


def _logits(layers, spec: NetworkSpec, inputs) -> np.ndarray:
    """Logits of every row of ``inputs``, computed in row chunks."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise ValueError(f"inputs must be (k, {spec.in_dim}), got shape {x.shape}")
    out = np.empty((x.shape[0], spec.n_classes))
    rows = _chunk_rows(spec)
    for start in range(0, x.shape[0], rows):
        out[start:start + rows] = _forward_layers(layers, spec.activation, x[start:start + rows])[0]
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy_losses(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    logp = _log_softmax(logits)
    return -logp[np.arange(logits.shape[0]), labels]


def _engine_pass(layers, spec: NetworkSpec, batch: Dataset, per_sample: bool):
    """Forward and backward pass over a checked batch; returns (logits, acts, deltas).

    ``deltas[l]`` is the loss gradient at layer l's pre-activation, one row
    per sample: each sample's own gradient when ``per_sample``, otherwise
    divided by the batch size so that row sums give the mean gradient.
    """
    logits, acts = _forward_layers(layers, spec.activation, batch.inputs)
    k = len(batch)
    delta = _softmax(logits)
    delta[np.arange(k), batch.labels] -= 1.0
    if not per_sample:
        delta /= k
    deltas = [None] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        deltas[l] = delta
        if l > 0:
            # the activation's derivative, from its stored output: relu's output is > 0
            # exactly where its input is, and the bool mask multiplies as 1.0 or 0.0
            delta = delta @ layers[l][:-1].T
            if spec.activation == "relu":
                delta *= acts[l] > 0.0
            else:
                delta *= 1.0 - acts[l] * acts[l]
    return logits, acts, deltas


# ---------------------------------------------------------------------------
# public operations


def init_params(spec: NetworkSpec, seed: int) -> ParamVector:
    """Deterministic parameter init.

    Weights are zero-mean normal with variance 2/n_in for relu and 1/n_in
    for tanh; biases start at zero.
    """
    rng = np.random.default_rng(seed)
    params = ParamVector(np.zeros(spec.param_dim), spec)
    gain = 2.0 if spec.activation == "relu" else 1.0
    for l in range(spec.n_layers):
        w = params.weights(l)
        w[...] = rng.normal(0.0, np.sqrt(gain / w.shape[0]), size=w.shape)
    return params


def evaluate_accuracy(params: Model, data) -> float:
    """Accuracy in percent of a model in any space; argmax ties resolve to the lowest class index."""
    x = np.asarray(data.inputs, dtype=np.float64)
    y = np.asarray(data.labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate accuracy on an empty dataset")
    pred = np.argmax(params.forward(x), axis=1)
    return 100.0 * float(np.count_nonzero(pred == y)) / x.shape[0]


def check_schedule(epochs: int, batch_size: int, eta: float) -> None:
    """Reject a pretraining schedule ``pretrain`` cannot run."""
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")


def pretrain(spec: NetworkSpec, dataset, epochs: int, batch_size: int,
             eta: float, seed: int) -> ParamVector:
    """Mini-batch gradient descent from a fresh init; deterministic in seed.  The dataset
    (any object with ``inputs`` and ``labels``) is checked once, and every batch is a subset
    of its rows; one copy of the init trains in place.  Training that ends with a
    non-finite parameter, as a too large ``eta`` can, is a ValueError."""
    check_schedule(epochs, batch_size, eta)
    rows = Dataset(dataset.inputs, dataset.labels, spec.n_classes)
    if len(rows) == 0:
        raise ValueError("cannot pretrain on an empty dataset")
    _check_batch(rows, spec)
    flat = init_params(spec, seed).flat.copy()
    params = ParamVector(flat, spec)
    grad = np.empty_like(flat)
    shuffle_rng = np.random.default_rng([seed, 1])
    with np.errstate(over="ignore", invalid="ignore"):   # a diverging run: reported below
        for _ in range(epochs):
            order = shuffle_rng.permutation(len(rows))
            for start in range(0, len(rows), batch_size):
                batch = rows.subset(order[start:start + batch_size])
                params._factors(batch, per_sample=False)[1].sum(out=grad)
                grad *= eta   # the bits of flat - eta * grad, without a temporary
                flat -= grad
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"training diverged to non-finite parameters at eta = {eta}")
    return params


# ---------------------------------------------------------------------------
# checkpoint format: text metadata block, blank line, raw float64 payload


def save_checkpoint(path, params: ParamVector, seed: int) -> None:
    """Write a model checkpoint atomically; round-trips bit-exactly via load_checkpoint."""
    meta = {
        "layer_sizes": ",".join(str(s) for s in params.spec.layer_sizes),
        "activation": params.spec.activation,
        "seed": str(int(seed)),
        "d": str(params.dim),
    }
    # metadata must stay free of blank lines: the first blank line is the
    # metadata/payload boundary
    text = CHECKPOINT_HEADER + "\n" + format_sections({"model": meta})
    write_atomic(path, text.encode("utf-8") + b"\n\n" + params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ParamVector, dict]:
    """Read a model checkpoint; returns (params, metadata dict).  A malformed file, or one
    whose payload holds a non-finite value, is a ValueError that names the file, and the
    line of a metadata syntax error or the key of a malformed value."""
    blob = Path(path).read_bytes()
    try:
        sep = blob.find(b"\n\n")
        if sep < 0:
            raise ValueError("malformed checkpoint (no metadata/payload separator)")
        header, _, text = blob[:sep].decode("utf-8").partition("\n")
        if header != CHECKPOINT_HEADER:
            raise ValueError(f"expected header {CHECKPOINT_HEADER!r}, got {header!r}")
        # the header line parses as a blank line, so a syntax error names the file's own line
        sections = parse_sections_text("\n" + text, source=str(path))
        raw = blob[sep + 2:]
        if len(raw) % 8:
            raise ValueError(f"payload of {len(raw)} bytes is not a whole number of float64 values")
        payload = np.frombuffer(raw, dtype="<f8")
        if "model" not in sections:
            raise ValueError("checkpoint missing [model] metadata")
        meta = sections["model"]
        missing = [key for key in ("layer_sizes", "activation", "seed", "d") if key not in meta]
        if missing:
            raise ValueError(f"checkpoint [model] metadata missing {', '.join(missing)}")
        sizes = _convert(meta["layer_sizes"], "tuple[int, ...]", "layer_sizes", str(path))
        spec = NetworkSpec(sizes, meta["activation"])
        seed, d = (_convert(meta[key], "int", key, str(path)) for key in ("seed", "d"))
        if d != spec.param_dim:
            raise ValueError(f"metadata d={d} does not match architecture ({spec.param_dim})")
        if payload.shape[0] != d:
            raise ValueError(f"payload has {payload.shape[0]} values, expected {d}")
        if not np.all(np.isfinite(payload)):
            raise ValueError("payload holds non-finite values")
    except ConfigError as exc:   # the parser's errors already name the file, and the line or key
        raise ValueError(str(exc)) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return ParamVector(payload.copy(), spec), {"seed": seed, "d": d}
