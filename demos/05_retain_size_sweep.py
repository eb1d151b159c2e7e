"""How much retain data does each method actually need?

Reruns the random-forget experiment at three retain-set sizes
(100, 500, 2000) and three seeds each, then prints the sweep table:

    orthograd unlearn configs/blobs_random.cfg --method orthograd_per_sample \
        --seed-list 0,1,2 --retain-sizes 100,500,2000
    orthograd unlearn configs/blobs_random.cfg --method neggrad \
        --seed-list 0,1,2 --retain-sizes 100,500,2000
    orthograd compare configs/runs-random/results.txt --sweep

Two things to look for in the table:

  * the projected method's impact score stays at or below the ascent
    baseline's at every size: even 100 retain points give the per-step
    projection enough directions to shield
  * the ascent baseline's rows are IDENTICAL across sizes, because it
    never reads the retain set; the run seeds the retain stream
    separately so this holds bit-for-bit, not just approximately

Takes about 10 seconds on a 2-core Xeon.  Artifacts land in configs/runs-random/.
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
for method in ("orthograd_per_sample", "neggrad"):
    run(["unlearn", str(CONFIG), "--method", method,
         "--seed-list", "0,1,2", "--retain-sizes", "100,500,2000"])
run(["compare", str(CONFIG.parent / "runs-random" / "results.txt"), "--sweep"])
