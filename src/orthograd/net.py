"""Feed-forward softmax classifier with exact mean and per-sample gradients.

Parameters live in a single flat float64 vector so the unlearning code can
treat the model as a point in R^d.  Each layer is one row-major
``(n_in + 1, n_out)`` block: its input-major weight rows, then its bias row;
layers are laid out in network order.

``Model`` holds the gradient operations of every parameter space once:
forward, mean loss and gradient, factored per-sample gradients, update and
merge.  A space supplies its coordinates, one chain-rule map from the engine
pass to factor blocks, and a copy of itself at new coordinates, and every pass
runs on the layer blocks of its merged full vector; ``ParamVector`` is the full
space and ``lora.AdaptedModel`` the adapter space.  Per-sample gradients come out
factored per layer (``PerSampleGrads``), never as a dense (d, k) matrix, and
the mean gradient is the row sum of the factors of the mean-scaled pass.
Every set of rows is a ``data.Dataset``; the gradient calls check a batch against the
network, and pretraining takes its batches as subsets of one checked set.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ConfigError, Dataset, check_integer, format_sections, parse_sections_text
from .data import read_value, write_atomic, write_value

__all__ = [
    "NetworkSpec", "Model", "ParamVector", "RowScorer", "PerSampleGrads", "init_params",
    "evaluate_accuracy", "check_schedule", "pretrain", "save_checkpoint", "load_checkpoint",
]

# hidden activation: name -> (apply in place, derivative from its output, init variance gain);
# relu's output is > 0 exactly where its input is, and the bool mask multiplies as 1.0 or 0.0
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0.0, 2.0),
    "tanh": (lambda z: np.tanh(z, out=z), lambda a: 1.0 - a * a, 1.0),
}

CHECKPOINT_HEADER = "ORTHOGRAD-CKPT v1"
# the [model] metadata keys of a checkpoint, in the order written, with their value types
CHECKPOINT_KEYS = {"layer_sizes": "tuple[int, ...]", "activation": "str", "seed": "int", "d": "int"}


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: layer sizes from input to output plus hidden activation. ``layout`` holds,
    per layer, (offset, block shape (n_in + 1, n_out)), the weight rows then the bias row;
    ``param_dim``, the length of the flat parameter vector, is where it ends. ``n_layers``,
    ``in_dim`` and ``n_classes`` are read off the sizes; like those two, they are not fields."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        given = tuple(self.layer_sizes)
        sizes = tuple(int(s) for s in given) if all(np.isfinite(float(s)) for s in given) else None
        # 20.0 and np.int64(20) pass; 20.9 would truncate; inf and NaN have no int; True == 1
        if sizes != given or any(np.asarray(s).dtype.kind == "b" for s in given):
            raise ValueError(f"layer sizes must be integers, got {given}")
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError(f"layer_sizes needs at least input and output, got {sizes}")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {tuple(ACTIVATIONS)}, got {self.activation!r}")
        slots = []
        off = 0
        for n_in, n_out in zip(sizes, sizes[1:]):
            slots.append((off, (n_in + 1, n_out)))
            off += (n_in + 1) * n_out
        object.__setattr__(self, "layout", tuple(slots))   # not fields: eq/hash/repr skip them
        object.__setattr__(self, "param_dim", off)
        object.__setattr__(self, "n_layers", len(sizes) - 1)
        object.__setattr__(self, "in_dim", sizes[0])
        object.__setattr__(self, "n_classes", sizes[-1])


class Model:
    """Gradient operations shared by every parameter space, written once.

    A model is a frozen value: ``spec``, ``coords`` (the vector its gradients live in) and
    ``dim`` are set where it is made, and every pass runs on ``merged().layers``.  A space
    supplies two hooks: ``_blocks(acts, deltas)``, its one chain-rule map from the engine pass
    to ``PerSampleGrads`` blocks over ``coords``; and ``_at(coords)``, a copy at new coordinates.
    """

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Logits for a batch of inputs, shape (k, n_classes), computed in row chunks."""
        return _forward_rows(self, inputs)

    def _factors(self, batch: Dataset, per_sample: bool):
        """(logits, factored gradients) of a checked batch; see ``_engine_pass`` for the scale."""
        logits, acts, deltas = _engine_pass(self.merged().layers, self.spec, batch, per_sample)
        return logits, PerSampleGrads(self.dim, self._blocks(acts, deltas))

    def mean_loss_and_grad(self, batch: Dataset) -> tuple[float, np.ndarray]:
        """Mean softmax cross-entropy over the batch and its gradient over ``coords``."""
        _check_batch(batch, self.spec)
        logits, grads = self._factors(batch, per_sample=False)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(np.mean(-logp[np.arange(len(batch)), batch.labels])), grads.matvec()

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


@dataclass(frozen=True, eq=False)
class ParamVector(Model):
    """Flat parameter vector bound to its architecture.

    ``layers[l]``, layer l's block, is a view into ``flat`` and ``layers[l][:-1]`` its weight
    rows; treat the vector as immutable and produce updates through ``apply_update``.  Two
    vectors are equal only when they are one object; compare ``flat`` to compare values.
    """

    flat: np.ndarray
    spec: NetworkSpec

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.float64)
        object.__setattr__(self, "flat", flat)
        if flat.ndim != 1 or flat.shape[0] != self.spec.param_dim:
            raise ValueError(
                f"flat vector has shape {flat.shape}, spec needs ({self.spec.param_dim},)")
        object.__setattr__(self, "coords", flat)   # the same array: frozen, so they cannot drift
        object.__setattr__(self, "dim", flat.shape[0])
        object.__setattr__(self, "layers", tuple(flat[off:off + shape[0] * shape[1]].reshape(shape)
                                                 for off, shape in self.spec.layout))

    def _blocks(self, acts, deltas):
        # per layer block, sample i's gradient is [a_i, 1] (x) delta_i
        ones = np.ones((deltas[0].shape[0], 1))
        return [(off, np.concatenate((acts[l], ones), axis=1), deltas[l])
                for l, (off, _) in enumerate(self.spec.layout)]

    def _at(self, flat: np.ndarray) -> "ParamVector":
        return ParamVector(flat, self.spec)


class RowScorer:
    """Accuracies of successive models on fixed labelled sets, from argmax predictions that
    re-forward only the rows whose prediction a weight-change bound cannot pin.

    A full pass over all the sets' rows is the reference: per row its prediction, top-2 logit
    margin and ``||[a_l, 1]||`` at each layer's input, a copy of the weights, and
    ``sigma_l = ||(W_l^T W_l)^4||_F^(1/8)`` >= each weight block's spectral norm.  Blocks
    ``delta_l`` away in Frobenius norm move a row's logits by at most ``bounds``' e (Neyshabur
    et al., arXiv:1707.09564, Lemma 2), and a margin above ``sqrt(2) e (1 + 1e-6) + 1e-9`` pins
    the argmax (Tsuzuku et al., arXiv:1802.04034).  Only the other rows are forwarded, and when
    they are more than half, a new full pass is the reference.  A row's logits move in their
    last bits (about 1e-15 here) with the number of rows in its pass, as BLAS picks its kernel
    by row count: a prediction is ``forward``'s on all the rows except where the top two logits
    tie within that roundoff, and ``evaluate_accuracy`` on a set and a superset differs so too.
    """

    def __init__(self, *sets: Dataset):
        if min(map(len, sets)) == 0:
            raise ValueError("cannot evaluate accuracy on an empty dataset")
        self.inputs, self._ref = np.concatenate([s.inputs for s in sets]), None
        self._labels = np.concatenate([s.labels for s in sets])
        self._starts = np.cumsum([len(s) for s in sets[:-1]])

    def __call__(self, model: Model) -> list[float]:
        """Each set's accuracy in percent, as ``evaluate_accuracy`` computes it."""
        hits = np.split(self.predict(model) == self._labels, self._starts)
        return [100.0 * float(np.count_nonzero(h)) / len(h) for h in hits]

    def bounds(self, model: Model) -> np.ndarray:
        """Per row, e >= the 2-norm of ``model``'s logits less the reference's: from e = 0,
        ``e <- e (sigma_l + delta_l) + ||[a_l, 1]|| delta_l`` by layer, as relu and tanh are
        1-Lipschitz; inf before a first pass, for another architecture, or where it overflows."""
        merged = model.merged()
        if self._ref is None or self._ref[0] != merged.spec:
            return np.full(len(self.inputs), np.inf)
        spec, flat, sigma, norms, _, _ = self._ref
        with np.errstate(all="ignore"):
            change, e = merged.flat - flat, 0.0
            for (off, (p, q)), s, norm in zip(spec.layout, sigma, norms):
                delta = np.linalg.norm(change[off:off + p * q])
                e = e * (s + delta) + norm * delta
            return np.where(e >= 0.0, e, np.inf)   # NaN, as from inf * 0, bounds nothing

    def predict(self, model: Model) -> np.ndarray:
        merged = model.merged()
        if self._ref is not None:
            margin, pred = self._ref[4:]
            pinned = margin > np.sqrt(2.0) * (1.0 + 1e-6) * self.bounds(merged) + 1e-9
            loose = np.flatnonzero(~pinned)
            if 2 * len(loose) <= len(pred):
                pred = pred.copy()
                pred[loose] = np.argmax(_forward_rows(merged, self.inputs[loose]), axis=1)
                return pred
        norms = np.empty((merged.spec.n_layers, len(self.inputs)))
        logits = _forward_rows(merged, self.inputs, norms)
        pred, margin, sigma = np.argmax(logits, axis=1), np.inf, []   # one class: nothing moves
        with np.errstate(all="ignore"):
            if logits.shape[1] > 1:
                top2 = np.partition(logits, -2, axis=1)
                margin = top2[:, -1] - top2[:, -2]
            for w in (block[:-1] for block in merged.layers):   # the smaller Gram, squared twice
                gram = np.linalg.matrix_power(w.T @ w if w.shape[0] >= w.shape[1] else w @ w.T, 4)
                sigma.append(np.linalg.norm(gram) ** 0.125)
        self._ref = merged.spec, merged.flat.copy(), sigma, norms, margin, pred
        return pred


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

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """G^T x, (k,): per block, the row sums of (L X) * R with X that block of x."""
        return sum(np.einsum("ij,ij->i",
                             np.dot(l, x[o:o + l.shape[1] * r.shape[1]].reshape(l.shape[1], -1)), r)
                   for o, l, r in self.blocks)

    def matvec(self, c: np.ndarray | None = None) -> np.ndarray:
        """G c, (d,): per block, (c * L)^T R, or L^T R for the sum G 1 when ``c`` is None."""
        out = np.zeros(self.dim)
        for o, l, r in self.blocks:
            np.dot((l if c is None else c[:, None] * l).T, r,
                   out=out[o:o + l.shape[1] * r.shape[1]].reshape(l.shape[1], -1))
        return out

    def mean(self) -> np.ndarray:
        return self.matvec(np.full(self.k, 1.0 / self.k))

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
# shared forward/backward engine over the layer blocks of a merged parameter vector


def _forward_layers(layers, activation, x):
    """Forward pass over ``(n_in + 1, n_out)`` layer blocks; returns (logits, activations).

    ``acts[0]`` is the input; ``acts[l+1]`` is layer l's output.  The final
    layer is linear (logits), hidden layers apply the activation.  Each
    layer allocates one array: the bias row and the activation apply in place.
    """
    activate = ACTIVATIONS[activation][0]
    a = np.asarray(x, dtype=np.float64)
    acts = [a]
    last = len(layers) - 1
    for l, block in enumerate(layers):
        a = a @ block[:-1]
        a += block[-1]
        if l != last:
            activate(a)
        acts.append(a)
    return acts[-1], acts


# Evaluation runs in row chunks whose widest temporary stays within 256 KiB
# (256 rows at width 128): the allocator then reuses heap pages, where
# whole-set temporaries of several MB are mapped, and page-faulted, afresh
# on every call.
_CHUNK_BYTES = 256 * 1024


def _chunk_rows(spec: NetworkSpec) -> int:
    return max(1, _CHUNK_BYTES // (8 * max(spec.layer_sizes)))


def _forward_rows(model: Model, inputs, norms: np.ndarray | None = None) -> np.ndarray:
    """``model.forward``, the one chunked pass.  Given an (n_layers, k) ``norms``, it also
    writes each row's ``||[a_l, 1]||`` at layer l's input there, as inf where that overflows."""
    spec, x = model.spec, np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.in_dim:
        raise ValueError(f"inputs must be (k, {spec.in_dim}), got shape {x.shape}")
    if not np.all(np.isfinite(x)):   # NaN logits would argmax to class 0 and score
        raise ValueError("inputs contain non-finite values")
    layers, rows, out = model.merged().layers, _chunk_rows(spec), np.empty((len(x), spec.n_classes))
    for start in range(0, x.shape[0], rows):
        out[start:start + rows], acts = _forward_layers(layers, spec.activation, x[start:start + rows])
        for l, a in enumerate(acts[:-1] if norms is not None else ()):   # overflow reads inf
            norms[l, start:start + rows] = np.sqrt(np.einsum("ij,ij->i", a, a) + 1.0)
    return out


def _engine_pass(layers, spec: NetworkSpec, batch: Dataset, per_sample: bool):
    """Forward and backward pass over a checked batch; returns (logits, acts, deltas).

    ``deltas[l]`` is the loss gradient at layer l's pre-activation, one row
    per sample: each sample's own gradient when ``per_sample``, otherwise
    divided by the batch size so that row sums give the mean gradient.
    """
    logits, acts = _forward_layers(layers, spec.activation, batch.inputs)
    k = len(batch)
    delta = np.exp(logits - logits.max(axis=1, keepdims=True))   # the softmax
    delta /= delta.sum(axis=1, keepdims=True)
    delta[np.arange(k), batch.labels] -= 1.0
    if not per_sample:
        delta /= k
    derivative = ACTIVATIONS[spec.activation][1]
    deltas = [None] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        deltas[l] = delta
        if l > 0:
            delta = delta @ layers[l][:-1].T
            delta *= derivative(acts[l])
    return logits, acts, deltas


# ---------------------------------------------------------------------------
# public operations


def init_params(spec: NetworkSpec, seed: int) -> ParamVector:
    """Deterministic parameter init.

    Weights are zero-mean normal with variance gain/n_in, the activation's
    init gain in ``ACTIVATIONS``; biases start at zero.
    """
    rng = np.random.default_rng(seed)
    params = ParamVector(np.zeros(spec.param_dim), spec)
    gain = ACTIVATIONS[spec.activation][2]
    for w in (block[:-1] for block in params.layers):
        w[...] = rng.normal(0.0, np.sqrt(gain / w.shape[0]), size=w.shape)
    return params


def evaluate_accuracy(params: Model, data: Dataset) -> float:
    """Accuracy in percent of a model in any space; argmax ties resolve to the lowest class index."""
    if len(data) == 0:
        raise ValueError("cannot evaluate accuracy on an empty dataset")
    pred = np.argmax(params.forward(data.inputs), axis=1)
    return 100.0 * float(np.count_nonzero(pred == data.labels)) / len(data)


def check_schedule(epochs: int, batch_size: int, eta: float) -> None:
    """Reject a pretraining schedule ``pretrain`` cannot run."""
    check_integer("epochs", epochs)
    check_integer("batch_size", batch_size)
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")


def pretrain(spec: NetworkSpec, dataset: Dataset, epochs: int, batch_size: int,
             eta: float, seed: int) -> ParamVector:
    """Mini-batch gradient descent from a fresh init; deterministic in seed.  The dataset is
    checked once, and every batch is a subset of its rows; one copy of the init trains in place.
    A run that ends with a non-finite parameter (too large an ``eta`` or input) is a ValueError."""
    check_schedule(epochs, batch_size, eta)
    if len(dataset) == 0:
        raise ValueError("cannot pretrain on an empty dataset")
    _check_batch(dataset, spec)
    flat = init_params(spec, seed).flat.copy()
    params = ParamVector(flat, spec)
    shuffle_rng = np.random.default_rng([seed, 1])
    with np.errstate(over="ignore", invalid="ignore"):   # a diverging run: reported below
        for _ in range(epochs):
            order = shuffle_rng.permutation(len(dataset))
            for start in range(0, len(dataset), batch_size):
                batch = dataset.subset(order[start:start + batch_size])
                grad = params._factors(batch, per_sample=False)[1].matvec()
                grad *= eta
                flat -= grad
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"training diverged to non-finite parameters at eta = {eta} "
                         f"(largest input magnitude {np.abs(dataset.inputs).max():.3g})")
    return params


# ---------------------------------------------------------------------------
# checkpoint format: text metadata block, blank line, raw float64 payload


def save_checkpoint(path, params: ParamVector, seed: int) -> None:
    """Write a model checkpoint atomically; round-trips bit-exactly via load_checkpoint."""
    values = {"layer_sizes": params.spec.layer_sizes, "activation": params.spec.activation,
              "seed": seed, "d": params.dim}
    meta = {key: write_value(values[key], type_name) for key, type_name in CHECKPOINT_KEYS.items()}
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
        missing = [key for key in CHECKPOINT_KEYS if key not in meta]
        if missing:
            raise ValueError(f"checkpoint [model] metadata missing {', '.join(missing)}")
        values = {key: read_value(meta[key], type_name, key, str(path))
                  for key, type_name in CHECKPOINT_KEYS.items()}
        spec = NetworkSpec(values["layer_sizes"], values["activation"])
        d = values["d"]
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
    return ParamVector(payload.copy(), spec), {"seed": values["seed"], "d": d}
