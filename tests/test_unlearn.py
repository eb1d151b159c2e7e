"""Update rules: projection geometry, reductions, stopping, the epoch loop."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from helpers import (
    CyclicSamplerReference, cholesky_keep_reference, combine_update_reference, cosine,
    gram_schmidt_basis, loss_change_ratios, project_off, random_batch, step_reference,
)
from orthograd import net, unlearn
from orthograd.data import (
    Dataset, Splits, gen_gaussian_blobs, make_unlearn_split, partition_train_test,
)
from orthograd.evaluation import AccuracyReport, evaluate_splits
from orthograd.linalg import default_drop_tol, project_out_span
from orthograd.lora import AdaptedModel, LoraAdapterSet, attach_lora
from orthograd.net import (
    Model, NetworkSpec, PerSampleGrads, check_schedule, evaluate_accuracy, init_params,
)
from orthograd.unlearn import (
    MethodKind, StepDiagnostics, StoppingRule, UnlearnConfig, _retain_batches, orthograd_step,
    run_unlearning, stopping_check,
)

NEVER = StoppingRule.class_forget(threshold=-1.0)  # accuracy is never negative


def make_cfg(method=MethodKind.ORTHOGRAD_PER_SAMPLE, stopping=NEVER, **kw):
    return UnlearnConfig(method=method, stopping=stopping, **kw)


# ---------------------------------------------------------------------------
# step pipeline against a hand-solved case
#
# Retain gradient columns (1,0,0) and (1,1,0) orthonormalize to e1, e2 by
# Gram-Schmidt; the unlearn gradient (1,1,1) projects to (0,0,1); the mean
# retain gradient is (1, 0.5, 0); with alpha=0.9 the update direction is
# 0.9*(1, 0.5, 0) - 0.1*(0, 0, 1) = (0.9, 0.45, -0.1); a step of size 0.1
# from the origin lands at (-0.09, -0.045, 0.01).


def test_direction_pipeline_hand_oracle():
    g_r = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    g_u = np.array([1.0, 1.0, 1.0])
    perp, rank = project_out_span(g_u, PerSampleGrads.columns(g_r))
    assert rank == 2
    assert np.allclose(perp, [0.0, 0.0, 1.0], atol=1e-12)
    direction = combine_update_reference(g_r.mean(axis=1), perp, alpha=0.9)
    assert np.allclose(direction, [0.9, 0.45, -0.1], atol=1e-12)
    landed = np.zeros(3) - 0.1 * direction
    assert np.allclose(landed, [-0.09, -0.045, 0.01], atol=1e-12)


def test_orthograd_step_matches_manual_composition():
    spec = NetworkSpec((6, 9, 4), "tanh")
    params = init_params(spec, 2)
    b_u = random_batch(spec, 5, 3)
    b_r = random_batch(spec, 7, 4)
    cfg = make_cfg(alpha=0.85, eta=0.02)
    stepped, diag = orthograd_step(params, b_u, b_r, cfg)

    # bitwise against the public factored pieces
    _, g_u = params.mean_loss_and_grad(b_u)
    grads = params.per_sample_factors(b_r)
    perp, rank = project_out_span(g_u, grads)
    direction = combine_update_reference(grads.mean(), perp, 0.85)
    assert np.array_equal(stepped.flat, params.apply_update(direction, 0.02).flat)
    assert diag.basis_rank == rank

    # the update direction against the Gram-Schmidt oracle on the dense
    # columns, within a fixed tolerance
    cols = grads.dense()
    q_ref, kept = gram_schmidt_basis(cols, default_drop_tol(params.dim))
    dense = combine_update_reference(cols.mean(axis=1), project_off(g_u, q_ref), 0.85)
    assert np.abs(direction - dense).max() <= 1e-10 * np.abs(direction).max()
    assert rank == len(kept)


# ---------------------------------------------------------------------------
# orthogonality properties


def test_per_sample_projection_orthogonal_to_every_retain_gradient():
    spec = NetworkSpec((20, 64, 10), "relu")
    for seed in range(5):
        params = init_params(spec, seed)
        b_u = random_batch(spec, 32, 100 + seed)
        b_r = random_batch(spec, 16, 200 + seed)
        _, diag = orthograd_step(params, b_u, b_r, make_cfg())
        assert diag.basis_rank == 16
        assert diag.max_abs_cos <= 1e-6


def test_max_abs_cos_matches_per_column_cosine_loop():
    # the loop runs over the columns the reference keeps; scaled-up weights
    # saturate the softmax on some samples, whose per-sample gradients are then
    # exactly zero, and dropped
    spec = NetworkSpec((6, 16, 4), "relu")
    zero_columns_seen = 0
    for seed in range(6):
        params = init_params(spec, seed)
        if seed % 2:
            params = params.apply_update(-30.0 * params.flat, 1.0)
        b_u = random_batch(spec, 9, 300 + seed)
        b_r = random_batch(spec, 12, 400 + seed)
        cols = params.per_sample_factors(b_r).dense()
        zero_columns_seen += int(np.count_nonzero(~cols.any(axis=0)))
        for method in (MethodKind.ORTHOGRAD_PER_SAMPLE, MethodKind.ORTHOGRAD_MEAN):
            cfg = make_cfg(method=method)
            _, diag = orthograd_step(params, b_u, b_r, cfg)
            _, g_u = params.mean_loss_and_grad(b_u)
            span = cols if method is MethodKind.ORTHOGRAD_PER_SAMPLE else cols.mean(axis=1)[:, None]
            perp, _ = project_out_span(g_u, PerSampleGrads.columns(span))
            _, kept = cholesky_keep_reference(cols.T @ cols, default_drop_tol(spec.param_dim),
                                              spec.param_dim)
            loop = max(abs(cosine(perp, cols[:, i])) for i in kept)
            assert abs(diag.max_abs_cos - loop) <= 1e-12
    assert zero_columns_seen > 0


def test_max_abs_cos_skips_a_column_the_projection_drops():
    # six random columns and one of norm 0.5 * tol: the kernel drops the short one,
    # whose direction the projection leaves alone, so only the kept six are measured
    rng = np.random.default_rng(5)
    d = 50
    tol = default_drop_tol(d)
    short = rng.normal(size=d)
    cols = np.column_stack([rng.normal(size=(d, 6)), 0.5 * tol * short / np.linalg.norm(short)])
    grads = PerSampleGrads.columns(cols)
    v = rng.normal(size=d)
    perp, rank = project_out_span(v, grads)
    assert rank == 6
    diag = StepDiagnostics(basis_rank=rank, g_u_norm=float(np.linalg.norm(v)),
                           g_u_perp_norm=float(np.linalg.norm(perp)), grads=grads, g_u_perp=perp)
    assert abs(cosine(perp, cols[:, 6])) > 1e-3
    assert diag.max_abs_cos <= 1e-12


def test_max_abs_cos_of_a_zero_projection_is_zero():
    # v in the span: its projection is zero, and so is every cosine against it, not 0/0
    cols = np.eye(4)[:, :2]
    diag = StepDiagnostics(basis_rank=2, g_u_norm=1.0, g_u_perp_norm=0.0,
                           grads=PerSampleGrads.columns(cols), g_u_perp=np.zeros(4))
    assert diag.max_abs_cos == 0.0


def test_mean_variant_leaks_on_conflicting_retain_batch():
    # one shared input with two different labels makes the two per-sample
    # gradients conflict; the mean direction cannot represent both
    spec = NetworkSpec((6, 10, 3), "tanh")
    seed = 10
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed)
    x = rng.normal(size=6)
    b_r = Dataset(np.vstack([x, x]), np.array([0, 1]), 3)
    b_u = Dataset(rng.normal(size=(4, 6)), rng.integers(0, 3, size=4), 3)

    cols = params.per_sample_factors(b_r).dense()
    assert cosine(cols[:, 0], cols[:, 1]) < 0.0   # genuinely conflicting

    _, diag_mean = orthograd_step(params, b_u, b_r,
                                  make_cfg(method=MethodKind.ORTHOGRAD_MEAN))
    _, diag_ps = orthograd_step(params, b_u, b_r,
                                make_cfg(method=MethodKind.ORTHOGRAD_PER_SAMPLE))
    assert diag_mean.max_abs_cos > 0.1
    assert diag_ps.max_abs_cos <= 1e-6


def test_first_order_retain_invariance_of_projected_direction():
    spec = NetworkSpec((20, 64, 10), "tanh")
    params = init_params(spec, 6)
    b_u = random_batch(spec, 24, 61)
    b_r = random_batch(spec, 12, 62)
    _, g_u = params.mean_loss_and_grad(b_u)
    perp, _ = project_out_span(g_u, params.per_sample_factors(b_r))

    quad = loss_change_ratios(params, b_r, perp)
    assert np.all((quad >= 3.5) & (quad <= 4.5))   # second-order only

    lin = loss_change_ratios(params, b_r, g_u)
    assert np.any((lin >= 1.8) & (lin <= 2.2))     # first-order leak remains


# ---------------------------------------------------------------------------
# the factored route, checked from outside: g_u_perp recovered from the
# parameter change of a public step with alpha = 0 and eta = 1, against the
# dense per-sample columns


def both_spaces(spec, seed):
    """A full-parameter model and an adapter model whose B blocks are nonzero."""
    params = init_params(spec, seed)
    model = attach_lora(params, rank=2, scale=8.0, seed=seed + 1)
    model = model.apply_update(np.random.default_rng(seed + 2).normal(size=model.dim), 0.05)
    return params, model


def projected_step(model, b_u, b_r):
    """(g_u_perp from the update, diagnostics) of one step with alpha = 0, eta = 1."""
    stepped, diag = orthograd_step(model, b_u, b_r, make_cfg(alpha=0.0, eta=1.0))
    return stepped.coords - model.coords, diag


def max_live_cos(v, cols):
    """Largest |cos(v, column)| over the columns of norm > 1e-6."""
    norms = np.linalg.norm(cols, axis=0)
    live = norms > 1e-6
    return float(np.max(np.abs(v @ cols[:, live]) / (norms[live] * np.linalg.norm(v)),
                        initial=0.0))


def test_recovered_projection_orthogonal_to_dense_columns():
    zero_columns = 0
    for activation in ("relu", "tanh"):
        for seed in range(4):
            spec = NetworkSpec((8, 24, 5), activation)
            b_u = random_batch(spec, 10, 500 + seed)
            b_r = random_batch(spec, 16, 600 + seed)
            for model in both_spaces(spec, seed):
                if seed % 2:
                    model = model.apply_update(-30.0 * model.coords, 1.0)   # saturates
                cols = model.per_sample_factors(b_r).dense()
                zero_columns += int(np.count_nonzero(~cols.any(axis=0)))
                perp, diag = projected_step(model, b_u, b_r)
                assert np.linalg.norm(perp) > 0.0
                assert max_live_cos(perp, cols) <= 1e-6
                assert diag.basis_rank == len(gram_schmidt_basis(cols, default_drop_tol(len(perp)))[1])
    assert zero_columns > 0


def test_more_retain_samples_than_dimensions_projects_to_zero():
    # the span saturates; softmax deltas sum to zero, so it is smaller than
    # d and roundoff can add a column or two to the rank, but never above d
    for seed in range(6):
        full = init_params(NetworkSpec((3, 2, 2), "tanh"), seed)   # d = 14
        _, adapted = both_spaces(NetworkSpec((3, 4, 2), "relu"), seed)   # d' = 26
        for model in (full, adapted):
            b_u = random_batch(model.spec, 4, 700 + seed)
            b_r = random_batch(model.spec, 30, 800 + seed)
            stepped, diag = orthograd_step(model, b_u, b_r, make_cfg())
            assert np.all(np.isfinite(stepped.coords))
            assert diag.basis_rank <= model.dim
            assert diag.g_u_perp_norm <= 1e-10 * diag.g_u_norm


def test_duplicate_retain_samples_count_once():
    spec = NetworkSpec((8, 24, 5), "tanh")
    distinct = random_batch(spec, 5, 900)
    idx = np.array([0, 1, 0, 2, 3, 1, 4, 0, 2])
    b_r = distinct.subset(idx)
    b_u = random_batch(spec, 6, 901)
    for model in both_spaces(spec, 9):
        perp, diag = projected_step(model, b_u, b_r)
        assert diag.basis_rank == 5
        assert max_live_cos(perp, model.per_sample_factors(b_r).dense()) <= 1e-6


def test_one_sample_batches():
    spec = NetworkSpec((8, 24, 5), "relu")
    b_u = random_batch(spec, 1, 910)
    b_r = random_batch(spec, 1, 911)
    for model in both_spaces(spec, 10):
        perp, diag = projected_step(model, b_u, b_r)
        assert diag.basis_rank == 1
        assert max_live_cos(perp, model.per_sample_factors(b_r).dense()) <= 1e-6


def test_all_zero_retain_batch_leaves_unlearn_gradient_untouched():
    # weights scaled 1000x saturate the softmax exactly: a sample labelled
    # with its own prediction then has a per-sample gradient of exactly zero
    spec = NetworkSpec((6, 16, 4), "relu")
    params = init_params(spec, 11)
    params = params.apply_update(-999.0 * params.flat, 1.0)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(8, spec.in_dim))
    b_r = Dataset(x, np.argmax(params.forward(x), axis=1), spec.n_classes)
    b_u = random_batch(spec, 5, 13)
    model = attach_lora(params, rank=2, scale=8.0, seed=14)
    model = model.apply_update(rng.normal(size=model.dim), 1e-3)
    for m in (params, model):
        factors = m.per_sample_factors(b_r)
        assert not factors.dense().any()
        _, g_u = m.mean_loss_and_grad(b_u)
        assert np.any(g_u)
        perp, rank = project_out_span(g_u, factors)
        assert rank == 0
        assert np.array_equal(perp, g_u)
        stepped, diag = orthograd_step(m, b_u, b_r, make_cfg(alpha=0.0, eta=0.1))
        ascent, _ = orthograd_step(m, b_u, b_r, make_cfg(method=MethodKind.NEGGRAD, eta=0.1))
        assert diag.basis_rank == 0
        assert np.array_equal(stepped.coords, ascent.coords)


# ---------------------------------------------------------------------------
# baselines and reductions


def test_alpha_one_collapses_every_combiner_to_finetune_bitwise():
    spec = NetworkSpec((5, 8, 3), "relu")
    params = init_params(spec, 7)
    b_u = random_batch(spec, 6, 71)
    b_r = random_batch(spec, 9, 72)
    fin, _ = orthograd_step(params, b_u, b_r, make_cfg(method=MethodKind.FINETUNE, eta=0.05))
    for method in (MethodKind.ORTHOGRAD_PER_SAMPLE, MethodKind.ORTHOGRAD_MEAN):
        stepped, _ = orthograd_step(params, b_u, b_r, make_cfg(method=method, alpha=1.0, eta=0.05))
        assert np.array_equal(stepped.flat, fin.flat)
    ngp, _ = orthograd_step(params, b_u, b_r,
                            make_cfg(method=MethodKind.NEGGRAD_PLUS, alpha=1.0, eta=0.05))
    assert np.array_equal(ngp.flat, fin.flat)


def test_neggrad_is_gradient_ascent_on_unlearn_batch():
    spec = NetworkSpec((5, 8, 3), "relu")
    params = init_params(spec, 8)
    b_u = random_batch(spec, 6, 81)
    b_r = random_batch(spec, 6, 82)
    _, g_u = params.mean_loss_and_grad(b_u)
    stepped, _ = orthograd_step(params, b_u, b_r, make_cfg(method=MethodKind.NEGGRAD, eta=0.01))
    assert np.array_equal(stepped.flat, params.flat + 0.01 * g_u)
    before, _ = params.mean_loss_and_grad(b_u)
    after, _ = stepped.mean_loss_and_grad(b_u)
    assert after > before


def test_one_step_takes_the_old_steps_bitwise():
    # every method, in both spaces, over chained steps on fresh batches
    spec = NetworkSpec((6, 12, 4), "relu")
    for method in MethodKind:
        cfg = make_cfg(method=method, alpha=0.8, eta=0.05)
        for start in both_spaces(spec, 20):
            model = want = start
            for step in range(4):
                b_u = random_batch(spec, 5, 1000 + step)
                b_r = random_batch(spec, 7, 1100 + step)
                model, diag = orthograd_step(model, b_u, b_r, cfg)
                want, ref = step_reference(want, b_u, b_r, cfg)
                assert type(model) is type(want)
                assert np.array_equal(model.coords, want.coords)
                if ref is None:
                    assert diag is None
                    continue
                rank, g_u_norm, g_u_perp = ref
                assert (diag.basis_rank, diag.g_u_norm) == (rank, g_u_norm)
                assert diag.g_u_perp_norm == float(np.linalg.norm(g_u_perp))
                assert np.array_equal(diag.g_u_perp, g_u_perp)
            assert not np.array_equal(model.coords, start.coords)


def test_a_method_named_by_its_value_runs_that_method():
    # the config turns a value into its member, which the step compares by identity
    spec = NetworkSpec((5, 8, 3), "relu")
    params = init_params(spec, 9)
    b_u, b_r = random_batch(spec, 6, 91), random_batch(spec, 7, 92)
    for method in MethodKind:
        assert make_cfg(method=method.value).method is method
        by_member, diag = orthograd_step(params, b_u, b_r, make_cfg(method=method, eta=0.05))
        by_value, diag_v = orthograd_step(params, b_u, b_r, make_cfg(method=method.value, eta=0.05))
        assert np.array_equal(by_value.flat, by_member.flat)
        assert (diag_v is None) == (diag is None)
    with pytest.raises(ValueError, match=r"^method must be one of \('orthograd_per_sample', "
                                         r"'orthograd_mean', 'neggrad', 'neggrad_plus', "
                                         r"'finetune'\), got 'nonsense'$"):
        make_cfg(method="nonsense")


def test_neggrad_and_finetune_skip_the_pass_they_do_not_read(monkeypatch):
    # neggrad never reads the retain batch, finetune never the unlearn batch
    def refuse(name):
        def call(self, batch):
            raise AssertionError(f"{name} called")
        return call

    params, splits = small_world()
    spec = params.spec
    b_u, b_r = random_batch(spec, 5, 30), random_batch(spec, 7, 31)
    for method, skipped in ((MethodKind.NEGGRAD, "per_sample_factors"),
                            (MethodKind.FINETUNE, "mean_loss_and_grad")):
        with monkeypatch.context() as patch:
            patch.setattr(Model, skipped, refuse(skipped))
            for model in both_spaces(spec, 3):
                stepped, diag = orthograd_step(model, b_u, b_r, make_cfg(method=method))
                assert diag is None
                assert not np.array_equal(stepped.coords, model.coords)
            for use_lora in (False, True):
                cfg = make_cfg(method=method, max_epochs=1, eta=0.01, use_lora=use_lora,
                               lora_rank=2, lora_scale=8.0)
                assert run_unlearning(params, splits, cfg).stop_epoch == 1


# ---------------------------------------------------------------------------
# stopping rules


def test_stopping_random_forget_threshold():
    rule = StoppingRule.random_forget(target=81.06, threshold=0.5)
    report = lambda a: type("R", (), {"A_u": a})()
    assert stopping_check(report(81.3), rule)
    assert stopping_check(report(81.56), rule)    # boundary: at target + threshold
    assert not stopping_check(report(81.6), rule)


def test_stopping_class_forget_threshold():
    rule = StoppingRule.class_forget(threshold=1.0)
    report = lambda a: type("R", (), {"A_u": a})()
    assert stopping_check(report(0.9), rule)
    assert not stopping_check(report(1.0), rule)  # strict inequality


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule(mode="sometimes")


def test_stopping_rule_built_directly_takes_its_modes_default():
    assert StoppingRule(mode="random_forget", target=81.06) == StoppingRule.random_forget(81.06)
    assert StoppingRule(mode="class_forget") == StoppingRule.class_forget()
    assert StoppingRule.random_forget(81.06).threshold == 0.5
    assert StoppingRule.class_forget().threshold == 1.0


# ---------------------------------------------------------------------------
# epoch loop


def small_world(split_seed=3, mode="random"):
    full = gen_gaussian_blobs(3, 6, 70, spread=1.0, seed=1)
    train, test = partition_train_test(full, 50)
    splits = make_unlearn_split(train, test, mode=mode, retain_size=60,
                                seed=split_seed, fraction=0.1, class_label=1)
    spec = NetworkSpec((6, 16, 3), "relu")
    from orthograd.net import pretrain

    params = pretrain(spec, train, epochs=25, batch_size=16, eta=0.1, seed=0)
    return params, splits


def test_run_rejects_an_empty_unlearn_or_retain_set():
    params, splits = small_world()
    none = splits.retain.subset([])
    for hand_built in (Splits(none, splits.retain, splits.test, "random"),
                       Splits(splits.unlearn, none, splits.test, "random")):
        for method in MethodKind:
            with pytest.raises(ValueError, match="^unlearn and retain sets must be non-empty$"):
                run_unlearning(params, hand_built, make_cfg(method=method, max_epochs=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_run_rejects_a_non_finite_test_row_before_any_step(bad):
    # an inf row read as divergence at epoch 0, and a NaN row ran silently
    params, splits = small_world()
    x = splits.test.inputs.copy()
    x[0, 0] = bad
    test = Dataset(x, splits.test.labels, splits.test.n_classes)
    with pytest.raises(ValueError, match="^inputs contain non-finite values$"):
        run_unlearning(params, Splits(splits.unlearn, splits.retain, test, "random"),
                       make_cfg(max_epochs=1))


def test_run_rejects_an_empty_test_set_before_any_step(monkeypatch):
    params, splits = small_world()
    monkeypatch.setattr(unlearn, "orthograd_step", lambda *a: pytest.fail("a step ran"))
    empty = Splits(splits.unlearn, splits.retain, splits.test.subset([]), "random")
    with pytest.raises(ValueError, match="^cannot evaluate accuracy on an empty dataset$"):
        run_unlearning(params, empty, make_cfg(max_epochs=1))


@pytest.mark.parametrize("use_lora", [False, True], ids=["full", "lora"])
@pytest.mark.parametrize("mode", ["random", "class"])
@pytest.mark.parametrize("method", list(MethodKind), ids=[m.value for m in MethodKind])
def test_every_epochs_report_is_what_a_full_pass_gives(monkeypatch, method, mode, use_lora):
    # the run's scorer re-forwards only the rows its bound leaves loose; every epoch's
    # report still equals evaluate_accuracy on each set, and some epochs forward a part only
    params, splits = small_world(mode=mode)
    n_rows = len(splits.unlearn) + len(splits.retain) + len(splits.test)
    forwarded, models, full_pass = [], [], net._forward_rows

    def counting(model, rows, norms=None):
        forwarded.append(len(rows))
        return full_pass(model, rows, norms)

    class Recorded(net.RowScorer):
        def __call__(self, model):
            models.append(model)
            return super().__call__(model)

    monkeypatch.setattr(net, "_forward_rows", counting)
    monkeypatch.setattr(net, "RowScorer", Recorded)
    cfg = make_cfg(method=method, max_epochs=8, eta=0.02, use_lora=use_lora,
                   lora_rank=2, lora_scale=8.0)
    result = run_unlearning(params, splits, cfg)
    monkeypatch.undo()
    assert len(models) == len(result.trace) == 9
    for model, report in zip(models, result.trace):
        assert report == AccuracyReport(*(evaluate_accuracy(model, s)
                                          for s in (splits.unlearn, splits.retain, splits.test)))
    assert forwarded[0] == n_rows and min(forwarded) < n_rows


def test_run_returns_pretrained_when_stop_already_satisfied():
    params, splits = small_world()
    rule = StoppingRule.random_forget(target=200.0)   # always satisfied
    for use_lora in (False, True):
        cfg = make_cfg(stopping=rule, max_epochs=10, use_lora=use_lora,
                       lora_rank=2, lora_scale=8.0)
        result = run_unlearning(params, splits, cfg)
        assert result.stop_epoch == 0
        assert result.stopped_early
        assert len(result.trace) == 1
        assert np.array_equal(result.params.flat, params.flat)


def test_run_trace_covers_every_epoch_when_never_stopping():
    params, splits = small_world()
    cfg = make_cfg(stopping=NEVER, max_epochs=3, eta=0.01)
    result = run_unlearning(params, splits, cfg)
    assert result.stop_epoch == 3
    assert not result.stopped_early
    assert len(result.trace) == 4


def test_run_with_no_epochs_returns_pretrained_unstopped():
    # the loop's range bound alone decides that epoch 0 is also the last one
    params, splits = small_world()
    for use_lora in (False, True):
        cfg = make_cfg(stopping=NEVER, max_epochs=0, use_lora=use_lora,
                       lora_rank=2, lora_scale=8.0)
        result = run_unlearning(params, splits, cfg)
        assert len(result.trace) == 1
        assert result.stop_epoch == 0
        assert not result.stopped_early
        assert np.array_equal(result.params.flat, params.flat)


def test_run_deterministic_in_seed():
    params, splits = small_world()
    cfg = make_cfg(stopping=NEVER, max_epochs=2, eta=0.02, seed=5)
    a = run_unlearning(params, splits, cfg)
    b = run_unlearning(params, splits, cfg)
    assert np.array_equal(a.params.flat, b.params.flat)
    assert a.trace == b.trace
    c = run_unlearning(params, splits, make_cfg(stopping=NEVER, max_epochs=2,
                                                eta=0.02, seed=6))
    assert not np.array_equal(a.params.flat, c.params.flat)


def test_neggrad_result_independent_of_retain_set():
    params, _ = small_world()
    full = gen_gaussian_blobs(3, 6, 70, spread=1.0, seed=1)
    train, test = partition_train_test(full, 50)
    small = make_unlearn_split(train, test, mode="random", retain_size=20, seed=3)
    large = make_unlearn_split(train, test, mode="random", retain_size=120, seed=3)
    cfg = make_cfg(method=MethodKind.NEGGRAD, stopping=NEVER, max_epochs=2,
                   eta=0.005, seed=9)
    a = run_unlearning(params, small, cfg)
    b = run_unlearning(params, large, cfg)
    assert np.array_equal(a.params.flat, b.params.flat)


def test_run_with_lora_touches_only_weights():
    params, splits = small_world()
    cfg = make_cfg(stopping=NEVER, max_epochs=1, eta=0.05, use_lora=True,
                   lora_rank=2, lora_scale=8.0)
    result = run_unlearning(params, splits, cfg)
    assert result.params.spec == params.spec
    for l in range(params.spec.n_layers):
        assert np.array_equal(result.params.layers[l][-1], params.layers[l][-1])
    assert not np.array_equal(result.params.flat, params.flat)


def test_both_spaces_evaluate_as_merged_and_average_their_factors():
    # every model is evaluated as itself; that must read what its merged full
    # vector reads, and its mean gradient must be the mean of its factors
    params, splits = small_world()
    assert params.merged() is params
    for seed in range(3):
        b = random_batch(params.spec, 12, 40 + seed)
        for model in (params, *both_spaces(params.spec, seed)):
            want = evaluate_splits(model.merged(), splits)
            assert evaluate_splits(model, splits) == want
            got, mean = model.mean_loss_and_grad(b)[1], model.per_sample_factors(b).mean()
            assert np.abs(got - mean).max() <= 1e-12 * np.abs(mean).max()


def test_orthograd_step_runs_in_adapter_space():
    spec = NetworkSpec((6, 12, 3), "relu")
    params = init_params(spec, 4)
    from orthograd.lora import attach_lora

    model = attach_lora(params, rank=2, scale=8.0, seed=5)
    rng = np.random.default_rng(6)
    model = model.apply_update(rng.normal(size=model.dim), 0.05)
    b_u = random_batch(spec, 6, 7)
    b_r = random_batch(spec, 8, 8)
    stepped, diag = orthograd_step(model, b_u, b_r, make_cfg())
    assert isinstance(stepped, AdaptedModel)
    assert diag.max_abs_cos <= 1e-6
    assert diag.basis_rank == 8


def test_retain_stream_draws_the_cyclic_samplers_batches():
    # bit for bit, over batches larger than n and batches spanning two passes
    for n in (1, 3, 7, 10, 64, 500):
        for batch in (1, 4, 7, 32, 64, 65, 600):
            for seed in range(3):
                stream = _retain_batches(n, batch, np.random.default_rng(seed))
                reference = CyclicSamplerReference(n, batch, np.random.default_rng(seed))
                for _ in range(40):
                    got, want = next(stream), reference.take()
                    assert got.dtype == want.dtype and np.array_equal(got, want)
    stream = _retain_batches(10, 4, np.random.default_rng(0))
    seen = np.concatenate([next(stream) for _ in range(5)])  # 20 draws, two passes
    assert len(seen) == 20
    assert np.bincount(seen, minlength=10).tolist() == [2] * 10
    batch = next(_retain_batches(3, 7, np.random.default_rng(1)))
    assert len(batch) == 7
    assert set(batch.tolist()) == {0, 1, 2}


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(alpha=1.2)
    with pytest.raises(ValueError):
        make_cfg(eta=0.0)
    with pytest.raises(ValueError):
        make_cfg(unlearn_batch=0)
    with pytest.raises(ValueError):
        make_cfg(max_epochs=-1)
    # each message names its field, which the CLI reports as the config key
    for field, bad in (("unlearn_batch", 0), ("retain_batch", 0), ("max_epochs", -1)):
        with pytest.raises(ValueError, match=f"^{field} "):
            make_cfg(**{field: bad})


@pytest.mark.parametrize("name", ["unlearn_batch", "retain_batch", "max_epochs", "lora_rank", "seed"])
def test_integer_setting_is_rejected_at_a_float_naming_its_field(name):
    # 2.5 passes every range check, and the run then failed at its first step; True == 1
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
            make_cfg(**{name: bad})
    assert getattr(make_cfg(**{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize("build, name", [
    (lambda bad: check_schedule(epochs=bad, batch_size=1, eta=0.1), "epochs"),
    (lambda bad: check_schedule(epochs=1, batch_size=bad, eta=0.1), "batch_size"),
    (lambda bad: make_unlearn_split(*partition_train_test(gen_gaussian_blobs(3, 4, 8), 5),
                                    mode="random", retain_size=bad), "retain_size"),
], ids=["check_schedule-epochs", "check_schedule-batch_size", "make_unlearn_split-retain_size"])
def test_run_count_is_rejected_at_a_float_naming_its_field(build, name):
    # 2.5 passes every range check, and would fail later inside range() or NumPy; True == 1
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
            build(bad)
    build(np.int64(2))


@pytest.mark.parametrize("build, name", [
    (lambda: make_cfg(eta=np.inf), "eta"),
    (lambda: LoraAdapterSet(NetworkSpec((4, 8, 3)), rank=2, scale=np.inf), "scale"),
    (lambda: check_schedule(epochs=1, batch_size=1, eta=np.inf), "eta"),
    (lambda: StoppingRule.random_forget(target=np.nan), "target"),
    (lambda: StoppingRule.class_forget(threshold=np.nan), "threshold"),
], ids=["UnlearnConfig-eta", "LoraAdapterSet-scale", "check_schedule-eta",
        "random_forget-target", "class_forget-threshold"])
def test_non_finite_setting_is_rejected_naming_its_field(build, name):
    # a NaN threshold would never stop a run; an infinite rate or scale diverges at once
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build()


@pytest.mark.parametrize("use_lora", [False, True], ids=["full", "lora"])
@pytest.mark.parametrize("method", list(MethodKind), ids=[m.value for m in MethodKind])
def test_diverging_run_is_one_value_error_in_every_method(method, use_lora):
    # a step at eta = 1e200 overflows; every method stops there with one error, and
    # NumPy warns of nothing (a warning is an error here)
    params, splits = small_world()
    cfg = make_cfg(method=method, max_epochs=3, eta=1e200, use_lora=use_lora,
                   lora_rank=2, lora_scale=8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=r"^unlearning diverged to non-finite values at epoch 1$"):
            run_unlearning(params, splits, cfg)


def test_run_unlearning_never_computes_the_unread_cosine(monkeypatch):
    # max |cos| needs the kept columns; a run that never reads it must not ask for them
    def refuse(gram, dim):
        raise AssertionError("kept_columns called")

    monkeypatch.setattr(unlearn, "kept_columns", refuse)
    full = gen_gaussian_blobs(3, 5, 50, spread=1.0, seed=1)
    train, test = partition_train_test(full, 40)
    splits = make_unlearn_split(train, test, mode="random", retain_size=40, seed=2, fraction=0.1)
    params = init_params(NetworkSpec((5, 12, 3), "relu"), 0)
    for method in (MethodKind.ORTHOGRAD_PER_SAMPLE, MethodKind.ORTHOGRAD_MEAN):
        for use_lora in (False, True):
            cfg = make_cfg(method=method, max_epochs=2, unlearn_batch=4, retain_batch=8,
                           use_lora=use_lora, lora_rank=2, lora_scale=4.0)
            assert run_unlearning(params, splits, cfg).stop_epoch == 2
    _, diag = orthograd_step(params, random_batch(params.spec, 4, 1), random_batch(params.spec, 8, 2),
                             make_cfg())
    with pytest.raises(AssertionError, match="kept_columns"):
        diag.max_abs_cos


def test_step_diagnostics_compare_and_print_by_their_numbers():
    spec = NetworkSpec((4, 8, 3), "tanh")
    params = init_params(spec, 5)
    b_u, b_r = random_batch(spec, 5, 6), random_batch(spec, 7, 7)
    _, first = orthograd_step(params, b_u, b_r, make_cfg())
    _, again = orthograd_step(params, b_u, b_r, make_cfg())
    assert first.grads is not again.grads
    assert first == again and hash(first) == hash(again)
    assert "grads" not in repr(first) and "g_u_perp=" not in repr(first)
    assert first.max_abs_cos == again.max_abs_cos <= 1e-6
