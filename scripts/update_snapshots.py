#!/usr/bin/env python3
"""Regenerate tests/snapshots/ from the current tree.

Usage: PYTHONPATH=src python scripts/update_snapshots.py

The cases are those of tests/test_snapshots.py.  Files of cases that no
longer exist are removed.  Run this only for an intended output change, and
say why in CHANGES.md: JSON v1 may gain keys but may not change existing
ones.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_snapshots import SNAPSHOTS, render_snapshots  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = render_snapshots(Path(tmp))
    SNAPSHOTS.mkdir(exist_ok=True)
    for path in SNAPSHOTS.iterdir():
        if path.name not in outputs:
            path.unlink()
    changed = 0
    for name, data in outputs.items():
        path = SNAPSHOTS / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            changed += 1
    total = sum(map(len, outputs.values()))
    print(f"{len(outputs)} snapshots, {total} bytes, {changed} written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
