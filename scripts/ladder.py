#!/usr/bin/env python3
"""Time the scale ladder: each entry is one `nielsen_forge.cli.main` run.

Usage: python scripts/ladder.py

Every entry runs in its own Python process, so peak RSS belongs to that run
alone, and the report it prints is captured and dropped.  One JSON line per
entry goes to standard output: the command, the wall seconds of `cli.main`,
the seconds spent inside the four group and chain constructors that `cli`
imports (set-up), the exit code and the peak RSS in MB.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

LADDER = [
    ["report", "--group", "D(243)", "--classes", "2:4", "--prime", "3"],
    ["report", "--group", "A(7)", "--classes", "(1 2 3)(4 5 6):2,(1 2 3):2",
     "--prime", "2"],
    ["report", "--group", "D(625)", "--classes", "2:4", "--prime", "5"],
    ["tower", "--chain", "D(5),D(25),D(125),D(625)", "--classes", "2:4",
     "--prime", "5"],
    ["tower", "--chain", "V2xPM(3),V2xPM(9),V2xPM(27)", "--classes", "2:4",
     "--prime", "3"],
    ["report", "--group", "V2xPM(27)", "--classes", "2:4", "--prime", "3"],
]

SETUP_NAMES = (
    "chain_from_specs",
    "direct_product_with_cyclic",
    "extension_from_string",
    "group_from_string",
)


def run_entry(argv: list[str]) -> dict:
    """Run cli.main(argv) in this process and measure it."""
    from nielsen_forge import cli

    setup = [0.0]

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setup[0] += perf_counter() - t0

        return wrapper

    for name in SETUP_NAMES:
        setattr(cli, name, timed(getattr(cli, name)))
    t0 = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "command": shlex.join(argv),
        "wall_s": round(wall, 4),
        "setup_s": round(setup[0], 4),
        "exit": code,
        "peak_rss_mb": round(peak_kb / 1024, 1),
    }


CHILD = (
    "import json, sys\n"
    "import ladder\n"
    "print(json.dumps(ladder.run_entry(sys.argv[1:])))\n"
)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "scripts"), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failed = 0
    for argv in LADDER:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, *argv],
            env=env, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            failed += 1
            record = {"command": shlex.join(argv), "error": proc.stderr.strip()}
            print(json.dumps(record))
            continue
        line = proc.stdout.strip().splitlines()[-1]
        failed += json.loads(line)["exit"] != 0
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
