"""Unlearning update rules and the epoch loop.

Every method takes one kind of step: the unlearn gradient, passed through a
projection P, is combined with the mean retain gradient,

    g = alpha * g_retain_mean - (1 - alpha) * P g_unlearn

and applied as a descent step.  The retain term descends (preserves retain
behaviour) while the unlearn term ascends.  The methods differ only in P and
alpha.  ``orthograd_per_sample`` projects out every per-sample retain
gradient, so to first order the ascent leaves every spanned retain sample's
loss unchanged; ``orthograd_mean`` projects out only their mean;
``neggrad_plus`` takes P = I; ``neggrad`` is alpha = 0 and ``finetune`` is
alpha = 1, and each skips the gradient pass it does not read.
Any method can run either on the full parameter vector or inside a low-rank
adapter space attached to a frozen base model: both are ``net.Model``s, so
the step calls the same methods in either space.  The epoch loop evaluates
the model itself and merges adapters once, for the result.  Retain means,
projections and diagnostics come from factored per-sample gradients
(``net.PerSampleGrads``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import net
from .data import Dataset, Splits, check_integer
from .evaluation import AccuracyReport
from .linalg import kept_columns, project_out_span
from .lora import attach_lora

__all__ = [
    "MethodKind",
    "StoppingRule",
    "UnlearnConfig",
    "StepDiagnostics",
    "UnlearnResult",
    "orthograd_step",
    "stopping_check",
    "run_unlearning",
]


class MethodKind(str, Enum):
    """Update rules; values double as the method tags in result files."""

    ORTHOGRAD_PER_SAMPLE = "orthograd_per_sample"
    ORTHOGRAD_MEAN = "orthograd_mean"
    NEGGRAD = "neggrad"
    NEGGRAD_PLUS = "neggrad_plus"
    FINETUNE = "finetune"


@dataclass(frozen=True)
class StoppingRule:
    """Accuracy-based early stopping.

    ``random_forget``: stop once the unlearn-set accuracy has dropped to the
    pretrained test accuracy (``target``) plus ``threshold`` points or below.
    ``class_forget``: stop once the unlearn-set accuracy falls below
    ``threshold`` percent.  A ``threshold`` of None takes the mode's default.
    """

    mode: str
    target: float = 0.0
    threshold: float | None = None
    _DEFAULT_THRESHOLDS = {"random_forget": 0.5, "class_forget": 1.0}   # not a field

    def __post_init__(self):
        if self.mode not in self._DEFAULT_THRESHOLDS:
            raise ValueError(f"mode must be {' or '.join(map(repr, self._DEFAULT_THRESHOLDS))}, "
                             f"got {self.mode!r}")
        if self.threshold is None:
            object.__setattr__(self, "threshold", self._DEFAULT_THRESHOLDS[self.mode])
        for name in ("target", "threshold"):
            if not -np.inf < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @classmethod
    def random_forget(cls, target: float, threshold: float | None = None) -> "StoppingRule":
        return cls(mode="random_forget", target=target, threshold=threshold)

    @classmethod
    def class_forget(cls, threshold: float | None = None) -> "StoppingRule":
        return cls(mode="class_forget", threshold=threshold)


@dataclass(frozen=True)
class UnlearnConfig:
    method: MethodKind   # or its value
    stopping: StoppingRule
    alpha: float = 0.9
    eta: float = 0.001
    unlearn_batch: int = 32
    retain_batch: int = 32
    max_epochs: int = 30
    use_lora: bool = False
    lora_rank: int = 8
    lora_scale: float = 32.0
    seed: int = 0

    def __post_init__(self):
        # each message starts with the field's name, so a config error names its key
        try:   # a method's value names it too; orthograd_step compares members by identity
            object.__setattr__(self, "method", MethodKind(self.method))
        except ValueError:
            raise ValueError(f"method must be one of {tuple(m.value for m in MethodKind)}, "
                             f"got {self.method!r}") from None
        for name in ("unlearn_batch", "retain_batch", "max_epochs", "lora_rank", "seed"):
            check_integer(name, getattr(self, name))
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        for name in ("unlearn_batch", "retain_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("max_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class StepDiagnostics:
    """Geometry of one projection step.

    ``basis_rank`` is the number of retain gradient columns the kernel kept,
    at most min(k, d); see ``linalg.project_out_span``.  ``max_abs_cos`` is
    taken against the per-sample retain gradients the per-sample projection
    keeps, whatever the method; a column it drops as dependent has a
    roundoff direction, which no projection can be orthogonal to.  It is
    computed on first read from the step's gradients, which eq, hash and
    repr skip; a caller that never reads it never pays for it.
    """

    basis_rank: int
    g_u_norm: float
    g_u_perp_norm: float
    grads: net.PerSampleGrads = field(repr=False, compare=False)
    g_u_perp: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def max_abs_cos(self) -> float:
        # |cos| from one G^T matvec, over the columns the per-sample projection keeps;
        # their norms are the diagonal of the Gram that settles which they are
        if self.g_u_perp_norm == 0.0:
            return 0.0
        gram = self.grads.gram()
        kept = kept_columns(gram, self.grads.dim)
        denom = np.sqrt(np.diagonal(gram)[kept]) * self.g_u_perp_norm
        cos = self.grads.rmatvec(self.g_u_perp)[kept] / denom
        return float(np.max(np.abs(cos), initial=0.0))


@dataclass(frozen=True)
class UnlearnResult:
    params: net.ParamVector          # final full-parameter model (merged if LoRA)
    trace: tuple[AccuracyReport, ...]   # one report per epoch, from epoch 0
    stopped_early: bool

    @property
    def stop_epoch(self) -> int:
        """The last epoch run: the trace's last index."""
        return len(self.trace) - 1


# ---------------------------------------------------------------------------
# update rules


def orthograd_step(model, batch_u: Dataset, batch_r: Dataset, cfg: UnlearnConfig):
    """One update of ``cfg.method``; returns (updated model, diagnostics or None).

    Diagnostics come only with a projection.  The per-sample variant's basis
    spans every per-sample retain gradient, so the projected unlearn
    direction is orthogonal to each of them; the mean variant's spans only
    the mean retain gradient, so conflicting retain samples can leak through.
    """
    method = cfg.method
    if method is not MethodKind.FINETUNE:
        _, g_u = model.mean_loss_and_grad(batch_u)
    if method is MethodKind.NEGGRAD:   # alpha = 0
        return model.apply_update(-g_u, cfg.eta), None
    grads = model.per_sample_factors(batch_r)
    g_r_mean = grads.mean()
    if method is MethodKind.FINETUNE:   # alpha = 1
        return model.apply_update(g_r_mean, cfg.eta), None

    g, diag = g_u, None   # neggrad_plus: P = I
    if method is not MethodKind.NEGGRAD_PLUS:
        span = (grads if method is MethodKind.ORTHOGRAD_PER_SAMPLE
                else net.PerSampleGrads.columns(g_r_mean[:, None]))
        g, rank = project_out_span(g_u, span)
        diag = StepDiagnostics(basis_rank=rank, g_u_norm=float(np.linalg.norm(g_u)),
                               g_u_perp_norm=float(np.linalg.norm(g)),
                               grads=grads, g_u_perp=g)
    return model.apply_update(cfg.alpha * g_r_mean - (1.0 - cfg.alpha) * g, cfg.eta), diag


def stopping_check(report: AccuracyReport, rule: StoppingRule) -> bool:
    if rule.mode == "random_forget":
        return report.A_u <= rule.target + rule.threshold
    return report.A_u < rule.threshold


# ---------------------------------------------------------------------------
# epoch loop


def _retain_batches(n: int, batch: int, rng: np.random.Generator):
    """Consecutive ``batch``-sized slices of one index stream over ``range(n)``,
    which grows by a fresh ``rng.permutation(n)`` whenever it runs short; a
    batch may span two or more passes.  Needs n >= 1 and batch >= 1."""
    stream = rng.permutation(n)
    while True:
        while len(stream) < batch:
            stream = np.concatenate([stream, rng.permutation(n)])
        yield stream[:batch]
        stream = stream[batch:]


def run_unlearning(pretrained: net.ParamVector, splits: Splits,
                   cfg: UnlearnConfig) -> UnlearnResult:
    """Run one unlearning method until its stopping rule fires or epochs cap.

    One loop runs epochs 0 to ``max_epochs``.  Each epoch after 0 is one
    shuffled pass over the unlearn set, every unlearn batch paired with the
    next slice of one retain index stream (a reshuffled pass appended
    whenever it runs short).  Every epoch, 0 included, then evaluates the
    model and stops once the rule is met, so a start that already meets it
    comes back unchanged.  Separate seed streams drive the unlearn order,
    the retain stream and the adapter init, so runs are bit-reproducible and
    methods that ignore the retain set are unaffected by its size.  A run
    that overflows, as a too large ``eta`` can, is a ValueError naming the epoch.
    """
    if len(splits.unlearn) == 0 or len(splits.retain) == 0:
        raise ValueError("unlearn and retain sets must be non-empty")

    order_rng = np.random.default_rng([cfg.seed, 0])
    retain_rng = np.random.default_rng([cfg.seed, 1])

    if cfg.use_lora:
        model = attach_lora(pretrained, rank=cfg.lora_rank, scale=cfg.lora_scale,
                            seed=[cfg.seed, 2])
    else:
        model = pretrained

    retain_batches = _retain_batches(len(splits.retain), cfg.retain_batch, retain_rng)
    n_u = len(splits.unlearn)
    score = net.RowScorer(splits.unlearn, splits.retain, splits.test)   # lives as long as the run

    trace = []
    try:
        with np.errstate(over="raise", invalid="raise"):   # no per-step scan for inf or nan
            for epoch in range(cfg.max_epochs + 1):
                order = order_rng.permutation(n_u) if epoch else []   # epoch 0 takes no steps
                for start in range(0, len(order), cfg.unlearn_batch):
                    batch_u = splits.unlearn.subset(order[start:start + cfg.unlearn_batch])
                    batch_r = splits.retain.subset(next(retain_batches))
                    model, _ = orthograd_step(model, batch_u, batch_r, cfg)
                trace.append(AccuracyReport(*score(model)))
                stopped = stopping_check(trace[-1], cfg.stopping)
                if stopped:
                    break
    except FloatingPointError:
        raise ValueError(f"unlearning diverged to non-finite values at epoch {epoch}") from None

    return UnlearnResult(params=model.merged(), trace=tuple(trace), stopped_early=stopped)
