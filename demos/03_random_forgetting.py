"""Random forgetting on the desk-scale blobs world, end to end.

Drives the command-line workflow against configs/blobs_random.cfg:

    orthograd pretrain configs/blobs_random.cfg
    orthograd unlearn  configs/blobs_random.cfg --method orthograd_per_sample --seed-list 0,1,2
    orthograd unlearn  configs/blobs_random.cfg --method neggrad --seed-list 0,1,2
    orthograd compare  configs/runs-random/results.txt

The world: 10 Gaussian classes in 20 dimensions, 5000 training points, a
two-hidden-layer MLP pretrained to 100% train / 96.2% test accuracy.
5% of the training set (250 points) is then unlearned with a 500-point
retain set.  Unlearning stops the first epoch the unlearn-set accuracy
falls back to the pretrained test accuracy (+0.5): at that point the
model treats the forgotten points like data it never saw.

Expected outcome: both methods trigger the stop, the projected method
with a modestly lower impact score, and the A_r column makes the
mechanism visible: per-sample projection leaves the 500-point retain
set at exactly 100% while plain ascent chips it.  The gap gets dramatic
in the class-forgetting demo, where the ascent signal is stronger.

Takes about 6 seconds on a 2-core Xeon.  Artifacts land in configs/runs-random/.
"""

import sys
from pathlib import Path

from orthograd.cli import main

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "blobs_random.cfg"


def run(argv):
    print(f"\n$ orthograd {' '.join(argv)}")
    rc = main(argv)
    if rc != 0:
        sys.exit(rc)


run(["pretrain", str(CONFIG)])
run(["unlearn", str(CONFIG), "--method", "orthograd_per_sample", "--seed-list", "0,1,2"])
run(["unlearn", str(CONFIG), "--method", "neggrad", "--seed-list", "0,1,2"])
run(["compare", str(CONFIG.parent / "runs-random" / "results.txt")])
