"""Acceptance suite: the toolkit's headline guarantees, end to end.

Each test covers one externally promised behaviour, from closed-form
metric values through gradient geometry up to the desk-scale forgetting
experiments and byte-stable command reruns.  The desk world (blobs data
plus a pretrained classifier) is built once per module because
pretraining dominates the runtime; the random-forget sweep fixture is
shared by the experiment tests.  Every test prints a one-line summary so
a verbose run reads as a checklist.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from helpers import (
    cholesky_keep_reference, cosine, gram_schmidt_basis, least_squares_residual,
    loss_change_ratios, random_batch,
)
from orthograd import linalg, unlearn
from orthograd.cli import main
from orthograd.data import Dataset, gen_gaussian_blobs, make_unlearn_split, partition_train_test
from orthograd.evaluation import uis
from orthograd.linalg import default_drop_tol, project_out_span
from orthograd.lora import attach_lora
from orthograd.net import (
    NetworkSpec,
    ParamVector,
    PerSampleGrads,
    evaluate_accuracy,
    init_params,
    pretrain,
)
from orthograd.unlearn import (
    MethodKind,
    StoppingRule,
    UnlearnConfig,
    orthograd_step,
    run_unlearning,
)

RETAIN_SIZES = (100, 500, 2000)
SEEDS = (0, 1, 2)


# ---------------------------------------------------------------------------
# desk-scale fixtures (one pretrain, one sweep, shared below)


@pytest.fixture(scope="module")
def world():
    t0 = time.perf_counter()
    full = gen_gaussian_blobs(10, 20, 600, spread=1.0, seed=7)
    train, test = partition_train_test(full, 500)
    spec = NetworkSpec((20, 128, 128, 10), "relu")
    params = pretrain(spec, train, epochs=80, batch_size=64, eta=0.1, seed=0)
    elapsed = time.perf_counter() - t0
    a_train = evaluate_accuracy(params, train)
    a_test = evaluate_accuracy(params, test)
    assert a_train >= 95.0
    return {"train": train, "test": test, "params": params,
            "a_test": a_test, "a_train": a_train, "pretrain_s": elapsed}


@pytest.fixture(scope="module")
def random_sweep(world):
    """Both methods at every retain size, three seeds each.

    Settings mirror configs/blobs_random.cfg: the projected per-sample
    method runs in adapter space with a retain batch of 64, the ascent
    baseline runs full-parameter at its own tuned rate.
    """
    rule = StoppingRule.random_forget(target=world["a_test"])
    runs = {}
    elapsed = {}
    for n_r in RETAIN_SIZES:
        splits = make_unlearn_split(world["train"], world["test"], mode="random",
                                    retain_size=n_r, seed=1, fraction=0.05)
        for method, eta, lora, k_r in (
                (MethodKind.ORTHOGRAD_PER_SAMPLE, 0.12, True, 64),
                (MethodKind.NEGGRAD, 0.005, False, 32)):
            t0 = time.perf_counter()
            group = []
            for seed in SEEDS:
                cfg = UnlearnConfig(method=method, stopping=rule, alpha=0.9,
                                    eta=eta, use_lora=lora, lora_rank=8,
                                    lora_scale=32.0, retain_batch=k_r,
                                    seed=seed, max_epochs=30)
                res = run_unlearning(world["params"], splits, cfg)
                final = res.trace[-1]
                group.append({
                    "uis": uis(world["a_test"], final.A_test, final.A_u),
                    "stopped": res.stopped_early,
                    "stop_epoch": res.stop_epoch,
                    "final": final,
                })
            runs[(method, n_r)] = group
            elapsed[(method, n_r)] = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed}


def median_uis(group) -> float:
    return float(np.median([r["uis"] for r in group]))


# ---------------------------------------------------------------------------
# 1: the impact score reproduces its reference values


def test_01_impact_score_reference_values():
    cases = [((81.06, 78.22, 81.04), 0.018),
             ((81.06, 75.47, 80.41), 0.038)]
    for args, expected in cases:
        got = uis(*args)
        assert abs(got - expected) <= 5e-4, (args, got)
    print("PASS impact score: "
          + ", ".join(f"uis{a} = {uis(*a):.6f}" for a, _ in cases))


# ---------------------------------------------------------------------------
# 2: projected direction is orthogonal to every retained sample gradient


def test_02_per_sample_orthogonality_many_trials():
    spec = NetworkSpec((20, 64, 10), "relu")
    rule = StoppingRule.class_forget()
    cfg = UnlearnConfig(method=MethodKind.ORTHOGRAD_PER_SAMPLE, stopping=rule)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        params = init_params(spec, seed=1000 + trial)
        b_u = random_batch(spec, 32, 2000 + trial)
        b_r = random_batch(spec, 16, 3000 + trial)
        _, diag = orthograd_step(params, b_u, b_r, cfg)
        worst = max(worst, diag.max_abs_cos)
        assert diag.max_abs_cos <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS orthogonality: 100 trials, max |cos| = {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3: retain losses move only at second order along the projected direction


def test_03_second_order_retain_invariance():
    spec = NetworkSpec((20, 64, 10), "tanh")
    params = init_params(spec, 6)
    b_u = random_batch(spec, 24, 61)
    b_r = random_batch(spec, 12, 62)
    _, g_u = params.mean_loss_and_grad(b_u)
    perp, _ = project_out_span(g_u, params.per_sample_factors(b_r))

    quad = loss_change_ratios(params, b_r, perp)
    assert np.all((quad >= 3.5) & (quad <= 4.5))

    lin = loss_change_ratios(params, b_r, g_u)
    assert np.any((lin >= 1.8) & (lin <= 2.2))
    print(f"PASS second order: projected ratios in [{quad.min():.2f}, {quad.max():.2f}], "
          f"unprojected min {lin.min():.2f}")


# ---------------------------------------------------------------------------
# 4: mean-only projection leaks where the per-sample variant does not


def test_04_mean_projection_leaks_per_sample_does_not():
    # one input with two labels: the two sample gradients conflict, so
    # their mean spans neither
    spec = NetworkSpec((6, 10, 3), "tanh")
    rng = np.random.default_rng(10)
    params = init_params(spec, 10)
    x = rng.normal(size=6)
    b_r = Dataset(np.vstack([x, x]), np.array([0, 1]), 3)
    b_u = Dataset(rng.normal(size=(4, 6)), rng.integers(0, 3, size=4), 3)

    cols = params.per_sample_factors(b_r).dense()
    assert cosine(cols[:, 0], cols[:, 1]) < 0.0

    rule = StoppingRule.class_forget()
    base = dict(stopping=rule, alpha=0.9, eta=0.001, seed=0)
    _, diag_mean = orthograd_step(params, b_u, b_r,
                                  UnlearnConfig(method=MethodKind.ORTHOGRAD_MEAN, **base))
    _, diag_ps = orthograd_step(params, b_u, b_r,
                                UnlearnConfig(method=MethodKind.ORTHOGRAD_PER_SAMPLE, **base))
    assert diag_mean.max_abs_cos > 0.1
    assert diag_ps.max_abs_cos <= 1e-6
    print(f"PASS mean-vs-per-sample: mean leak {diag_mean.max_abs_cos:.3f}, "
          f"per-sample {diag_ps.max_abs_cos:.2e}")


# ---------------------------------------------------------------------------
# 5: the gradient engine is numerically faithful


def test_05_gradient_engine_fidelity():
    spec = NetworkSpec((3, 4, 2), "tanh")
    params = init_params(spec, 3)
    batch = random_batch(spec, 6, 33)
    _, grad = params.mean_loss_and_grad(batch)

    # central finite differences, every coordinate
    h = 1e-6
    scale = max(1.0, float(np.max(np.abs(grad))))
    for i in range(params.spec.param_dim):
        shift = np.zeros(params.spec.param_dim)
        shift[i] = h
        lo, _ = ParamVector(params.flat - shift, spec).mean_loss_and_grad(batch)
        hi, _ = ParamVector(params.flat + shift, spec).mean_loss_and_grad(batch)
        fd = (hi - lo) / (2 * h)
        assert abs(fd - grad[i]) <= 1e-5 * scale, i

    # per-sample columns average to the batch gradient
    cols = params.per_sample_factors(batch).dense()
    mean_cols = cols.mean(axis=1)
    denom = max(np.linalg.norm(grad), 1e-30)
    assert np.linalg.norm(mean_cols - grad) <= 1e-12 * denom

    # zero parameters: uniform softmax, loss exactly ln(C)
    zero = ParamVector(np.zeros(spec.param_dim), spec)
    for k in (1, 2, 4, 8):
        loss, _ = zero.mean_loss_and_grad(random_batch(spec, k, 50 + k))
        assert loss == math.log(2)
    print("PASS gradient engine: finite differences, per-sample mean, ln(C) all hold")


# ---------------------------------------------------------------------------
# 6: the projection kernel agrees with a least-squares oracle


def test_06_projection_matches_least_squares_oracle():
    # besides the residual, the result is orthogonal to the Gram-Schmidt
    # oracle's orthonormal basis of the span, and every column is kept
    rng = np.random.default_rng(123)
    worst_resid = 0.0
    worst_ortho = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 501))
        k = int(rng.integers(1, min(33, d + 1)))
        g = rng.normal(size=(d, k))
        v = rng.normal(size=d)
        perp, rank = project_out_span(v, PerSampleGrads.columns(g))
        oracle = least_squares_residual(v, g)
        scale = max(np.linalg.norm(v), 1e-30)
        worst_resid = max(worst_resid, np.linalg.norm(perp - oracle) / scale)
        q_ref, kept = gram_schmidt_basis(g, default_drop_tol(d))
        assert rank == len(kept)
        worst_ortho = max(worst_ortho, float(np.max(np.abs(q_ref.T @ perp))) / scale)
    assert worst_resid <= 1e-7
    assert worst_ortho <= 1e-10
    print(f"PASS projection oracle: 1000 cases, max residual err {worst_resid:.2e}, "
          f"max |Q'v_perp| / |v| {worst_ortho:.2e}")


# ---------------------------------------------------------------------------
# 7: adapters attach with zero effect and merge faithfully


def test_07_adapter_attach_and_merge_fidelity():
    spec = NetworkSpec((16, 32, 10), "relu")
    params = init_params(spec, 4)
    inputs = np.random.default_rng(44).normal(size=(20, 16))

    model = attach_lora(params, rank=8, scale=32.0, seed=0)
    assert model.adapters.multiplier == 4.0

    base_logits = params.forward(inputs)
    assert np.array_equal(model.merged().forward(inputs), base_logits)

    # push the adapter away from zero, then merge and compare logits
    rng = np.random.default_rng(45)
    for _ in range(5):
        batch = Dataset(rng.normal(size=(8, 16)), rng.integers(0, 10, size=8), 10)
        _, g = model.mean_loss_and_grad(batch)
        model = model.apply_update(g, 0.05)
    merged = model.merged()
    got = merged.forward(inputs)
    want = model.forward(inputs)
    denom = max(float(np.max(np.abs(want))), 1e-30)
    assert np.max(np.abs(got - want)) <= 1e-10 * denom
    print("PASS adapters: multiplier 4.0, bitwise zero delta at attach, merge <= 1e-10")


# ---------------------------------------------------------------------------
# 8: desk-scale random forgetting stops in time and beats pure ascent


def test_08_random_forget_desk_experiment(world, random_sweep):
    og = random_sweep["runs"][(MethodKind.ORTHOGRAD_PER_SAMPLE, 500)]
    ng = random_sweep["runs"][(MethodKind.NEGGRAD, 500)]
    for run in og:
        assert run["stopped"] and run["stop_epoch"] <= 30, run
    og_med, ng_med = median_uis(og), median_uis(ng)
    assert og_med < ng_med, (og_med, ng_med)
    budget = (world["pretrain_s"]
              + random_sweep["elapsed"][(MethodKind.ORTHOGRAD_PER_SAMPLE, 500)]
              + random_sweep["elapsed"][(MethodKind.NEGGRAD, 500)])
    assert budget < 300.0
    stops = [r["stop_epoch"] for r in og]
    print(f"PASS random forget: stops at epochs {stops}, median impact "
          f"{og_med:.4f} (projected) < {ng_med:.4f} (ascent), {budget:.0f}s")


# ---------------------------------------------------------------------------
# 9: desk-scale class forgetting erases the class, spares the rest


def test_09_class_forget_desk_experiment(world):
    splits = make_unlearn_split(world["train"], world["test"], mode="class",
                                retain_size=500, seed=1, class_label=3)
    base_rest = evaluate_accuracy(world["params"], splits.test)
    cfg = UnlearnConfig(method=MethodKind.ORTHOGRAD_PER_SAMPLE,
                        stopping=StoppingRule.class_forget(),
                        alpha=0.95, eta=0.05, use_lora=False,
                        seed=0, max_epochs=30)
    res = run_unlearning(world["params"], splits, cfg)
    final = res.trace[-1]
    assert res.stopped_early and res.stop_epoch <= 30
    assert final.A_u < 1.0
    assert final.A_test >= base_rest - 5.0
    print(f"PASS class forget: epoch {res.stop_epoch}, removed-class acc {final.A_u:.2f}%, "
          f"remaining-class test {final.A_test:.2f}% (was {base_rest:.2f}%)")


# ---------------------------------------------------------------------------
# 10: robustness across retain-set sizes


def test_10_retain_size_robustness(random_sweep):
    lines = []
    for n_r in RETAIN_SIZES:
        og_med = median_uis(random_sweep["runs"][(MethodKind.ORTHOGRAD_PER_SAMPLE, n_r)])
        ng_med = median_uis(random_sweep["runs"][(MethodKind.NEGGRAD, n_r)])
        assert og_med <= ng_med, (n_r, og_med, ng_med)
        lines.append(f"N_r={n_r}: {og_med:.4f} <= {ng_med:.4f}")

    # the ascent baseline never touches the retain set, so its runs must
    # be bit-identical across retain sizes
    per_seed = [[r["uis"] for r in random_sweep["runs"][(MethodKind.NEGGRAD, n_r)]]
                for n_r in RETAIN_SIZES]
    for other in per_seed[1:]:
        assert other == per_seed[0]
    print("PASS retain sweep: " + "; ".join(lines) + "; ascent baseline invariant")


# ---------------------------------------------------------------------------
# 12: factored steps on the desk model, checked against the dense columns


def test_12_factored_steps_orthogonal_to_dense_retain_columns(world):
    # g_u_perp is recovered from each step's update,
    # alpha * mean - (1 - alpha) * g_u_perp, using the dense columns' mean
    splits = make_unlearn_split(world["train"], world["test"], mode="random",
                                retain_size=500, seed=1, fraction=0.05)
    rule = StoppingRule.random_forget(target=world["a_test"])
    rng = np.random.default_rng(12)
    steps = 20
    lines = []
    for model, k_r, eta in ((attach_lora(world["params"], rank=8, scale=32.0, seed=0), 64, 0.12),
                            (world["params"], 32, 0.05)):
        cfg = UnlearnConfig(method=MethodKind.ORTHOGRAD_PER_SAMPLE, stopping=rule,
                            alpha=0.9, eta=eta, retain_batch=k_r)
        worst, same_rank = 0.0, 0
        for _ in range(steps):
            iu = rng.choice(len(splits.unlearn), 32, replace=False)
            ir = rng.choice(len(splits.retain), k_r, replace=False)
            b_u, b_r = splits.unlearn.subset(iu), splits.retain.subset(ir)
            cols = model.per_sample_factors(b_r).dense()
            stepped, diag = orthograd_step(model, b_u, b_r, cfg)
            perp = (0.9 * cols.mean(axis=1) - (model.coords - stepped.coords) / eta) / 0.1
            norms = np.linalg.norm(cols, axis=0)
            live = norms > 1e-6
            cos = np.abs(perp @ cols[:, live]) / (norms[live] * np.linalg.norm(perp))
            assert cos.max(initial=0.0) <= 1e-6
            worst = max(worst, float(cos.max(initial=0.0)))
            same_rank += diag.basis_rank == len(gram_schmidt_basis(cols, default_drop_tol(len(cols)))[1])
            model = stepped
        assert same_rank >= 0.95 * steps
        lines.append(f"{type(model).__name__} (d={model.dim}, k={k_r}): "
                     f"max |cos| {worst:.1e}, rank agrees on {same_rank}/{steps}")
    print("PASS factored steps: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 13: the blocked kernel keeps the reference loop's columns on desk Grams


def test_13_kernel_keeps_reference_columns_on_desk_grams(world, monkeypatch):
    # every Gram the projected steps factor is refactored by the column loop
    # the kernel replaced; the kept columns, and so basis_rank, must agree
    splits = make_unlearn_split(world["train"], world["test"], mode="random",
                                retain_size=500, seed=1, fraction=0.05)
    rule = StoppingRule.random_forget(target=world["a_test"])
    seen = []
    kernel = linalg._cholesky_keep

    def spy(gram, dim):
        seen.append((gram, dim, kernel(gram, dim)))
        return seen[-1][2]

    monkeypatch.setattr(linalg, "_cholesky_keep", spy)
    rng = np.random.default_rng(13)
    lines = []
    for model, k_r, eta in ((attach_lora(world["params"], rank=8, scale=32.0, seed=0), 64, 0.12),
                            (attach_lora(world["params"], rank=8, scale=32.0, seed=1), 256, 0.12),
                            (world["params"], 32, 0.05)):
        cfg = UnlearnConfig(method=MethodKind.ORTHOGRAD_PER_SAMPLE, stopping=rule,
                            alpha=0.9, eta=eta, retain_batch=k_r)
        kept_total, dropped = 0, 0
        for _ in range(12):
            iu = rng.choice(len(splits.unlearn), 32, replace=False)
            ir = rng.choice(len(splits.retain), k_r, replace=False)
            b_u, b_r = splits.unlearn.subset(iu), splits.retain.subset(ir)
            model, diag = orthograd_step(model, b_u, b_r, cfg)
            gram, dim, w = seen[-1]
            _, kept_ref = cholesky_keep_reference(gram, default_drop_tol(dim), dim)
            assert np.flatnonzero(w.any(axis=1)).tolist() == kept_ref
            assert diag.basis_rank == len(kept_ref)
            kept_total += len(kept_ref)
            dropped += k_r - len(kept_ref)
        assert dropped > 0
        lines.append(f"k={k_r}: kept {kept_total}, dropped {dropped}")
    print("PASS kernel vs reference loop on 36 desk Grams: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 14: on desk steps the projection leaves only roundoff in the retain span


def test_14_projection_leaves_roundoff_in_the_span_on_desk_steps(world, monkeypatch):
    # both sweeps reuse one W, which bounds the in-span remainder only while
    # eps * cond(G)^2 << 1; desk spans lie past that, so every projected step of one
    # epoch in each desk setting is checked against an SVD of its dense kept columns
    seen = []

    def spy(v, grads):
        v_perp, rank = project_out_span(v, grads)
        cols = grads.dense()[:, linalg.kept_columns(grads.gram(), grads.dim)]
        u, sv, _ = np.linalg.svd(cols, full_matrices=False)
        seen.append((np.linalg.norm(u.T @ v_perp) / np.linalg.norm(v), sv[0] / sv[-1]))
        return v_perp, rank

    monkeypatch.setattr(unlearn, "project_out_span", spy)
    lines = []
    for mode, lora, eta, alpha, k_r in (("random", True, 0.12, 0.9, 64),
                                        ("class", False, 0.05, 0.95, 32)):
        splits = make_unlearn_split(world["train"], world["test"], mode=mode, retain_size=500,
                                    seed=1, fraction=0.05, class_label=3)
        cfg = UnlearnConfig(method=MethodKind.ORTHOGRAD_PER_SAMPLE,
                            stopping=StoppingRule.class_forget(threshold=-1.0), alpha=alpha,
                            eta=eta, use_lora=lora, lora_rank=8, lora_scale=32.0,
                            retain_batch=k_r, max_epochs=1)
        seen.clear()
        run_unlearning(world["params"], splits, cfg)
        ratios, conds = np.array(seen).T
        assert ratios.size == -(-len(splits.unlearn) // cfg.unlearn_batch)
        assert ratios.max() <= 1e-14
        lines.append(f"{mode} ({'adapter' if lora else 'full'}): {ratios.size} steps, "
                     f"max |U^T v_perp|/|v| {ratios.max():.1e}, max cond(G) {conds.max():.1e}")
    print("PASS in-span remainder at roundoff: " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 11: commands are byte-stable under reruns


SMALL_CONFIG = """\
[dataset]
kind = blobs
classes = 3
dim = 5
per_class = 40
test_per_class = 12
spread = 1.0
seed = 3

[network]
layer_sizes = 5,16,3
activation = relu

[pretrain]
epochs = 20
batch_size = 16
eta = 0.1
seed = 0

[splits]
mode = random
fraction = 0.1
retain_size = 40
seed = 1

[unlearn]
alpha = 0.9
eta = 0.05
unlearn_batch = 8
retain_batch = 8
max_epochs = 2
seed = 0

[unlearn.orthograd_per_sample]
use_lora = true
lora_rank = 2
lora_scale = 8

[paths]
checkpoint = out/pretrained.ckpt
results = out/results.txt
runs_dir = out/runs
"""


def _snapshot(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_11_command_reruns_byte_identical(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_CONFIG, encoding="utf-8")
    out = tmp_path / "out"

    assert main(["pretrain", str(cfg_path)]) == 0
    first = _snapshot(out)
    assert main(["pretrain", str(cfg_path)]) == 0
    assert _snapshot(out) == first

    args = ["unlearn", str(cfg_path), "--method", "all", "--seed-list", "0,1"]
    assert main(args) == 0
    first = _snapshot(out)
    assert main(args) == 0
    assert _snapshot(out) == first

    capsys.readouterr()
    assert main(["compare", str(out / "results.txt")]) == 0
    table_a = capsys.readouterr().out
    assert main(["compare", str(out / "results.txt")]) == 0
    table_b = capsys.readouterr().out
    assert table_a == table_b
    assert _snapshot(out) == first
    print(f"PASS determinism: {len(first)} artifact files byte-stable across reruns")
