"""The self-contained demos run to completion.

Demos 01 and 02 call the public gradient, update, attach and merge names;
each runs as its own process, from a scratch directory, with warnings as
errors.
Demos 03-05 write run directories under ``configs/`` and stay out.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_projection_geometry.py", "02_adapter_round_trip.py"])
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
