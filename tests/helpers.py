"""Shared probes used by the module and acceptance test suites."""

from __future__ import annotations

import math

import numpy as np

from orthograd import net
from orthograd.data import Dataset
from orthograd.linalg import project_out_span
from orthograd.net import ParamVector, init_params
from orthograd.unlearn import MethodKind


def random_batch(spec, k: int, seed: int) -> Dataset:
    """k standard-normal input rows with uniform labels for ``spec``, deterministic in seed."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(k, spec.in_dim)),
                   rng.integers(0, spec.n_classes, size=k), spec.n_classes)


def blobs_reference(n_classes: int, dim: int, per_class: int, spread: float,
                    seed: int) -> Dataset:
    """Reference for ``data.gen_gaussian_blobs`` on shapes it accepts: the per-class loop it
    replaced, one noise draw of ``(per_class, dim)`` per class added to that class's mean and
    written into preallocated inputs and labels."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n_classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    min_dist = min(
        float(np.linalg.norm(directions[i] - directions[j]))
        for i in range(n_classes) for j in range(i + 1, n_classes))
    inputs = np.empty((n_classes * per_class, dim))
    labels = np.empty(n_classes * per_class, dtype=np.int64)
    means = directions * (4.0 * spread / min_dist)
    for c in range(n_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        inputs[block] = means[c] + rng.normal(0.0, spread, size=(per_class, dim))
        labels[block] = c
    return Dataset(inputs, labels, n_classes)


def unlearn_split_reference(train: Dataset, mode: str, retain_size: int, seed: int = 0,
                            fraction: float = 0.05,
                            class_label: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Reference for the D_u and D_r rows of ``data.make_unlearn_split`` on settings it
    accepts: the two per-mode retain pools it replaced, a mask over the unsampled rows in
    random mode and a label test in class mode.  Returns the unlearn and retain indices."""
    rng = np.random.default_rng(seed)
    n = len(train)
    if mode == "random":
        unlearn_idx = np.sort(rng.choice(n, size=math.ceil(fraction * n), replace=False))
        mask = np.ones(n, dtype=bool)
        mask[unlearn_idx] = False
        pool = np.flatnonzero(mask)
    else:
        unlearn_idx = np.flatnonzero(train.labels == class_label)
        pool = np.flatnonzero(train.labels != class_label)
    return unlearn_idx, np.sort(rng.choice(pool, size=retain_size, replace=False))


def gram_schmidt_basis(g: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """Reference oracle for ``linalg.project_out_span``: modified Gram-Schmidt.

    Visits the columns left to right with two orthogonalization sweeps per
    column ("twice is enough") and drops a column whose residual norm is at
    most ``tol * max(norm(column), 1)``, the kernel's tolerance rule.  It
    works on the columns, not on their Gram matrix, so it needs no roundoff
    floor and shares no code with the kernel.  Returns the (d, r)
    orthonormal basis and the indices of the kept columns.
    """
    accepted: list[np.ndarray] = []
    kept: list[int] = []
    for j in range(g.shape[1]):
        v = g[:, j].copy()
        orig_norm = float(np.linalg.norm(v))
        for _ in range(2):
            for q in accepted:
                v -= (q @ v) * q
        res_norm = float(np.linalg.norm(v))
        if res_norm <= tol * max(orig_norm, 1.0):
            continue
        accepted.append(v / res_norm)
        kept.append(j)
    q_mat = np.column_stack(accepted) if accepted else np.zeros((g.shape[0], 0))
    return q_mat, kept


def cholesky_keep_reference(gram: np.ndarray, tol: float, dim: int) -> tuple[np.ndarray, list[int]]:
    """Reference for ``linalg._cholesky_keep``: the column-by-column loop it replaced.

    Row j of the triangle is column j's Schur row against the kept rows
    before it; the column is kept when the leading entry exceeds
    ``max((tol * max(norm, 1))^2, 64 * eps * norm^2)``, and the loop stops
    at ``dim`` kept columns.  Returns the (k, r) inverse of the kept
    triangle scattered into the kept rows, and the kept indices.
    """
    norm2 = np.diag(gram)
    floor = np.maximum((tol * np.maximum(np.sqrt(norm2), 1.0)) ** 2,
                       64.0 * np.finfo(np.float64).eps * norm2)
    r = np.zeros_like(gram)
    kept: list[int] = []
    for j in range(gram.shape[0]):
        if len(kept) == dim:
            break
        s = gram[j, j:] - r[:j, j] @ r[:j, j:]
        if s[0] > floor[j]:
            r[j, j:] = s / math.sqrt(s[0])
            kept.append(j)
    w = np.zeros((gram.shape[0], len(kept)))
    w[kept] = np.linalg.inv(r[np.ix_(kept, kept)])
    return w, kept


def pretrain_reference(spec, dataset, epochs: int, batch_size: int, eta: float,
                       seed: int) -> ParamVector:
    """Reference for ``net.pretrain``: the per-batch loop it replaced.

    Every batch goes through the public ``mean_loss_and_grad`` (which checks
    it and computes its loss) and ``apply_update`` (a fresh vector per step).
    """
    params = init_params(spec, seed)
    n = dataset.inputs.shape[0]
    shuffle_rng = np.random.default_rng([seed, 1])
    for _ in range(epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            batch = Dataset(dataset.inputs[idx], dataset.labels[idx], spec.n_classes)
            _, grad = params.mean_loss_and_grad(batch)
            params = params.apply_update(grad, eta)
    return params


class CyclicSamplerReference:
    """Reference for ``unlearn._retain_batches``: the sampler class it replaced.

    Each ``take()`` returns exactly ``batch`` int64 indices from a shuffled
    cycle over ``range(n)``; when the current permutation runs out mid-draw,
    a fresh one is drawn from ``rng`` and the draw continues.
    """

    def __init__(self, n: int, batch: int, rng: np.random.Generator):
        if n < 1 or batch < 1:
            raise ValueError("sampler needs n >= 1 and batch >= 1")
        self.n = n
        self.batch = batch
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0

    def take(self) -> np.ndarray:
        out = np.empty(self.batch, dtype=np.int64)
        filled = 0
        while filled < self.batch:
            if self.pos == self.n:
                self.order = self.rng.permutation(self.n)
                self.pos = 0
            grab = min(self.batch - filled, self.n - self.pos)
            out[filled:filled + grab] = self.order[self.pos:self.pos + grab]
            self.pos += grab
            filled += grab
        return out


def combine_update_reference(g_retain_mean: np.ndarray, g_unlearn: np.ndarray,
                             alpha: float) -> np.ndarray:
    """Reference for the blend inside ``unlearn.orthograd_step``: the function it replaced,
    alpha*g_r - (1-alpha)*g_u after a float64 conversion and a shape and alpha check."""
    g_retain_mean = np.asarray(g_retain_mean, dtype=np.float64)
    g_unlearn = np.asarray(g_unlearn, dtype=np.float64)
    if g_retain_mean.shape != g_unlearn.shape:
        raise ValueError(f"shape mismatch: {g_retain_mean.shape} vs {g_unlearn.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * g_retain_mean - (1.0 - alpha) * g_unlearn


def step_reference(model, batch_u: Dataset, batch_r: Dataset, cfg):
    """Reference for ``unlearn.orthograd_step``: the two steps it replaced, the projected one
    for the orthograd methods and ``baseline_step`` for the rest.  Returns the updated model
    and, for a projection, ``(basis rank, ||g_u||, g_u_perp)``."""
    if cfg.method in (MethodKind.ORTHOGRAD_PER_SAMPLE, MethodKind.ORTHOGRAD_MEAN):
        _, g_u = model.mean_loss_and_grad(batch_u)
        grads = model.per_sample_factors(batch_r)
        g_r_mean = grads.mean()
        span = (grads if cfg.method is MethodKind.ORTHOGRAD_PER_SAMPLE
                else net.PerSampleGrads.columns(g_r_mean[:, None]))
        g_u_perp, rank = project_out_span(g_u, span)
        g = combine_update_reference(g_r_mean, g_u_perp, cfg.alpha)
        return model.apply_update(g, cfg.eta), (rank, float(np.linalg.norm(g_u)), g_u_perp)
    if cfg.method is MethodKind.NEGGRAD:
        _, g_u = model.mean_loss_and_grad(batch_u)
        return model.apply_update(-g_u, cfg.eta), None
    if cfg.method is MethodKind.NEGGRAD_PLUS:
        _, g_u = model.mean_loss_and_grad(batch_u)
        g_r_mean = model.per_sample_factors(batch_r).mean()
        return model.apply_update(combine_update_reference(g_r_mean, g_u, cfg.alpha), cfg.eta), None
    return model.apply_update(model.per_sample_factors(batch_r).mean(), cfg.eta), None


def merge_reference(base: ParamVector, model) -> ParamVector:
    """Reference for ``AdaptedModel.merged``: a fresh fold, which adds each layer's
    ``(scale/rank) (B A)^T`` to a copy of the base weights in place."""
    if base.spec != model.spec:
        raise ValueError("base parameters and adapted model disagree on the architecture")
    flat = base.flat.copy()
    merged = ParamVector(flat, base.spec)
    for l in range(base.spec.n_layers):
        w = merged.layers[l][:-1]
        w += (model.adapters.multiplier * (model.b[l] @ model.a[l])).T
    return merged


def adapter_mean_grad_reference(model, batch: Dataset) -> np.ndarray:
    """Reference for the adapter-space mean gradient: the hand-derived chain rule
    that ``AdaptedModel.mean_loss_and_grad`` used before the shared factor route.

    Per layer, with ``gw = a^T delta`` the layer's mean weight gradient
    (input-major) and m the multiplier: ``dA = m (gw B)^T`` and ``dB = m gw^T A^T``.
    """
    merged = model.merged()
    layers = merged.layers
    _, acts, deltas = net._engine_pass(layers, model.spec, batch, per_sample=False)
    mult = model.adapters.multiplier
    grad = np.empty(model.dim)
    for l, (a_off, _, b_off, _) in enumerate(model.adapters.layout):
        gw = acts[l].T @ deltas[l]
        da = mult * (gw @ model.b[l]).T
        db = mult * gw.T @ model.a[l].T
        grad[a_off:a_off + da.size] = da.reshape(-1)
        grad[b_off:b_off + db.size] = db.reshape(-1)
    return grad


def forward_reference(layers, activation: str, x: np.ndarray) -> np.ndarray:
    """Logits of the whole batch in one unchunked pass over the ``(n_in + 1, n_out)`` layer
    blocks, a fresh array per operation."""
    a = np.asarray(x, dtype=np.float64)
    for l, block in enumerate(layers):
        a = a @ block[:-1] + block[-1]
        if l < len(layers) - 1:
            a = np.maximum(a, 0.0) if activation == "relu" else np.tanh(a)
    return a


def least_squares_residual(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Residual of the least-squares fit of ``v`` by the columns of ``g``.

    Solves the normal equations ``(g^T g + 1e-12 I) c = g^T v`` and returns
    ``v - g c``.  This is an oracle for ``project_out_span`` that shares no
    code with it: for full-rank ``g`` the two agree up to roundoff.
    """
    v = np.asarray(v, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if v.ndim != 1 or g.ndim != 2 or g.shape[1] < 1:
        raise ValueError(f"need a vector and a (d, k) matrix, got shapes {v.shape} and {g.shape}")
    if g.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: v has length {v.shape[0]}, g has {g.shape[0]} rows")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(g))):
        raise ValueError("inputs contain non-finite entries")
    gram = g.T @ g + 1e-12 * np.eye(g.shape[1])
    coef = np.linalg.solve(gram, g.T @ v)
    return v - g @ coef


def project_off(v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``v`` minus its projection onto the orthonormal columns of ``q``, subtracted twice."""
    out = v - q @ (q.T @ v)
    return out - q @ (q.T @ out)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two vectors; 0.0 if either has zero norm."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def check_factors_against_dense(grads, dense: np.ndarray, mean_grad: np.ndarray,
                                seed: int) -> None:
    """Assert that a factored per-sample matrix acts as its dense form ``dense``.

    Gram, ``G^T x``, ``G c`` and the mean must each match the
    dense computation within 1e-12 of the largest entry of the dense result.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=dense.shape[0])
    c = rng.normal(size=dense.shape[1])
    pairs = {
        "gram": (grads.gram(), dense.T @ dense),
        "rmatvec": (grads.rmatvec(x), dense.T @ x),
        "matvec": (grads.matvec(c), dense @ c),
        "mean": (grads.mean(), mean_grad),
    }
    for name, (got, want) in pairs.items():
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def sample_loss(params: ParamVector, x: np.ndarray, y: int) -> float:
    """Cross-entropy of a single sample."""
    loss, _ = params.mean_loss_and_grad(Dataset(x[None, :], [y], params.spec.n_classes))
    return loss


def loss_change_ratios(params: ParamVector, batch: Dataset, direction: np.ndarray,
                       eps: float = 1e-3) -> np.ndarray:
    """Per-sample |loss(theta + eps v) - loss(theta)| / same at eps/2.

    A ratio near 4 means the loss change along ``direction`` is second order
    (the first-order term vanished); near 2 means first order dominates.
    """
    v = direction / np.linalg.norm(direction)
    ratios = np.empty(len(batch))
    for i in range(len(batch)):
        x, y = batch.inputs[i], int(batch.labels[i])
        base = sample_loss(params, x, y)
        d_full = sample_loss(ParamVector(params.flat + eps * v, params.spec), x, y) - base
        d_half = sample_loss(ParamVector(params.flat + 0.5 * eps * v, params.spec), x, y) - base
        ratios[i] = abs(d_full) / abs(d_half)
    return ratios


def save_csv_dataset(path, data: Dataset) -> None:
    """Write the CSV form ``load_csv_dataset`` reads; %.17g keeps the float64 round trip exact."""
    lines = [",".join(f"{v:.17g}" for v in x) + f",{int(y)}" for x, y in zip(data.inputs, data.labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_metadata(path, old: bytes, new: bytes | None) -> None:
    """Rewrite a checkpoint with one exact line of its metadata block replaced, or dropped."""
    head, payload = path.read_bytes().split(b"\n\n", 1)
    lines = head.split(b"\n")
    i = lines.index(old)
    lines[i:i + 1] = [] if new is None else [new]
    path.write_bytes(b"\n".join(lines) + b"\n\n" + payload)
