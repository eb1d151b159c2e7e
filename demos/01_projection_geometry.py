"""Why per-sample projection, not mean projection.

Builds a small random classifier, takes an unlearn batch and a retain
batch, and compares three directions:

  * the raw unlearn gradient
  * the unlearn gradient projected against the MEAN retain gradient
  * the unlearn gradient projected against EVERY per-sample retain gradient

The punchline is the conflicting-batch demo at the end: when two retain
samples pull in opposing directions, the mean direction represents
neither, and projecting against it still lets the update damage
individual samples.  Projecting against the full per-sample span cannot.
Each batch is a ``data.Dataset`` of rows, the one row type the gradient
calls take.

Run:  python3 demos/01_projection_geometry.py
"""

import numpy as np

from orthograd.data import Dataset
from orthograd.linalg import project_out_span
from orthograd.net import (
    NetworkSpec,
    ParamVector,
    PerSampleGrads,
    init_params,
)


def random_batch(spec, k, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(k, spec.in_dim)),
                   rng.integers(0, spec.n_classes, size=k), spec.n_classes)


def max_abs_cos(direction, columns):
    cos = direction @ columns / (np.linalg.norm(direction) * np.linalg.norm(columns, axis=0))
    return float(np.max(np.abs(cos)))


def project_off_mean(g_u, grads):
    """g_u projected against the mean retain gradient alone, one column."""
    return project_out_span(g_u, PerSampleGrads.columns(grads.mean()[:, None]))[0]


def sample_loss(params, x, y):
    loss, _ = params.mean_loss_and_grad(Dataset(x[None, :], np.array([y]), params.spec.n_classes))
    return loss


def main():
    spec = NetworkSpec((20, 64, 10), "relu")
    params = init_params(spec, seed=0)
    batch_u = random_batch(spec, 32, seed=1)
    batch_r = random_batch(spec, 16, seed=2)

    _, g_u = params.mean_loss_and_grad(batch_u)
    grads = params.per_sample_factors(batch_r)        # factored, 16 samples
    cols = grads.dense()                              # (param_dim, 16), for the cosines

    print("== alignment with the 16 per-sample retain gradients ==")
    print(f"raw unlearn gradient:        max |cos| = {max_abs_cos(g_u, cols):.4f}")

    vs_mean = project_off_mean(g_u, grads)
    print(f"projected vs mean only:      max |cos| = {max_abs_cos(vs_mean, cols):.4f}")

    vs_all, rank = project_out_span(g_u, grads)
    print(f"projected vs all samples:    max |cos| = {max_abs_cos(vs_all, cols):.2e}")
    print(f"(basis rank {rank}, kept {np.linalg.norm(vs_all) / np.linalg.norm(g_u):.1%} "
          "of the gradient's length)")

    # first-order invariance: walk along each direction and watch each
    # retain sample's loss; along the projected direction the change is
    # second order, so halving the step should quarter it
    print("\n== per-sample loss change at eps = 1e-3 vs eps = 5e-4 ==")
    for name, direction in (("raw g_u", g_u), ("projected", vs_all)):
        v = direction / np.linalg.norm(direction)
        ratios = []
        for i in range(len(batch_r)):
            x, y = batch_r.inputs[i], int(batch_r.labels[i])
            base = sample_loss(params, x, y)
            d1 = sample_loss(ParamVector(params.flat + 1e-3 * v, spec), x, y) - base
            d2 = sample_loss(ParamVector(params.flat + 5e-4 * v, spec), x, y) - base
            ratios.append(abs(d1) / abs(d2))
        ratios = np.array(ratios)
        print(f"{name:>10}: change ratios in [{ratios.min():.2f}, {ratios.max():.2f}] "
              f"({'~4 = second order' if ratios.min() > 3 else '~2 = first order'})")

    # the conflicting batch: same input, two different labels
    print("\n== conflicting retain batch (one input, two labels) ==")
    spec3 = NetworkSpec((6, 10, 3), "tanh")
    params3 = init_params(spec3, seed=10)
    rng = np.random.default_rng(10)
    x = rng.normal(size=6)
    batch_conflict = Dataset(np.vstack([x, x]), np.array([0, 1]), 3)
    batch_u3 = Dataset(rng.normal(size=(4, 6)), rng.integers(0, 3, size=4), 3)

    grads3 = params3.per_sample_factors(batch_conflict)
    cols3 = grads3.dense()
    pair = cols3[:, 0] @ cols3[:, 1] / (np.linalg.norm(cols3[:, 0]) * np.linalg.norm(cols3[:, 1]))
    print(f"cos(sample 0 grad, sample 1 grad) = {pair:.3f}")

    _, g_u3 = params3.mean_loss_and_grad(batch_u3)
    leak = project_off_mean(g_u3, grads3)
    clean, _ = project_out_span(g_u3, grads3)
    print(f"projected vs mean only:   max |cos| = {max_abs_cos(leak, cols3):.3f}   <- leaks")
    print(f"projected vs both:        max |cos| = {max_abs_cos(clean, cols3):.2e}")


if __name__ == "__main__":
    main()
