"""Forget an entire class, keep the other nine intact.

Drives configs/blobs_class.cfg: all 500 training points of class 3 form
the unlearn set, and test accuracy is scored on the nine remaining
classes only (class 3's test points are held out separately).  The stop
fires once class-3 accuracy drops below 1%.

This is where the projection earns its keep.  Ascent on a whole
coherent class is a strong, self-consistent signal; without the
per-sample shield it bulldozes the neighbouring classes:

    orthograd_per_sample   ->  class erased, remaining test acc ~96% (unchanged)
    neggrad                ->  class erased, remaining test acc collapses

One reading note: the impact score measures deviation of BOTH accuracies
from the pretrained test accuracy, so fully erasing a class pins its
score near 0.5 for every method; in class mode the A_r and A_test
columns are the ones that separate the methods.

Takes about 5 seconds on a 2-core Xeon.  Artifacts land in configs/runs-class/.
"""

import sys
from pathlib import Path

from orthograd.cli import main

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "blobs_class.cfg"


def run(argv):
    print(f"\n$ orthograd {' '.join(argv)}")
    rc = main(argv)
    if rc != 0:
        sys.exit(rc)


run(["pretrain", str(CONFIG)])
run(["unlearn", str(CONFIG), "--method", "orthograd_per_sample"])
run(["unlearn", str(CONFIG), "--method", "neggrad"])
run(["compare", str(CONFIG.parent / "runs-class" / "results.txt")])
