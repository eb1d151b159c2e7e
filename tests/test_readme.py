"""The README's library examples run, and agree with each other."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_start_and_config_example_give_the_same_run(monkeypatch):
    quick_start, from_config = re.findall(r"```python\n(.*?)```",
                                          (ROOT / "README.md").read_text(encoding="utf-8"),
                                          flags=re.DOTALL)
    monkeypatch.chdir(ROOT)   # the config example names its file from the repository root
    namespace = {}
    exec(quick_start, namespace)
    cfg, splits = namespace["cfg"], namespace["splits"]
    exec(from_config, namespace)   # reuses the quick start's imports and a_test
    assert namespace["cfg"] == cfg
    for part in ("unlearn", "retain", "test"):
        ours, theirs = getattr(splits, part), getattr(namespace["splits"], part)
        for name in ("inputs", "labels"):
            a, b = getattr(ours, name), getattr(theirs, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert namespace["splits"].mode == splits.mode
