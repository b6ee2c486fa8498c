"""Byte-exact snapshots of the command line outputs.

Each case runs `cli.main` on one argv, in process, and its standard output
(and, for a tower, the DOT file it writes) must equal the file of the same
name in tests/snapshots/, byte for byte.  The reports are the small-sweep
benchmark jobs, two r = 3 inputs with several H3 orbits and one empty level,
in every format; the focused commands run on one input.

After an intended output change, regenerate the files with
`PYTHONPATH=src python scripts/update_snapshots.py` and say why in
CHANGES.md: JSON v1 may gain keys but may not change existing ones.
"""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

from nielsen_forge import cli

SNAPSHOTS = Path(__file__).parent / "snapshots"

A4_SL23 = "--group A(4) --classes 3+:2,3-:2 --prime 2 --extension SL23"
A5_R3 = "--group A(5) --classes 5+:1,5-:1,3:1 --prime 2 --extension SL25 --r3"

# snapshot name -> report argument string
REPORTS = {
    "a4-sl23": A4_SL23,
    "v2xz3-2": "--group V2xZ3(2) --classes 3+:2,3-:2 --prime 2",
    "a5-3x4-sl25": "--group A(5) --classes 3:4 --prime 2 --extension SL25",
    "a5-r3-sl25": A5_R3,
    "s4": "--group S(4) --classes '(1 2):2,(1 2 3):2' --prime 2",
    "d9": "--group D(9) --classes 2:4 --prime 3",
    "d15": "--group D(15) --classes 2:4 --prime 3",
    "v2xpm-3": "--group V2xPM(3) --classes 2:4 --prime 3",
    "v2xpm-5": "--group V2xPM(5) --classes 2:4 --prime 5",
    "v2xz3-5": "--group V2xZ3(5) --classes 3+:2,3-:2 --prime 5",
    "a6-5x4": "--group A(6) --classes '(1 2 3 4 5):4' --prime 2",
    # r = 3 inputs with several H3 orbits, so that their order shows
    "a6-r3-633": "--group A(6) --classes '(2 3 4 5 6):1,(1 2)(3 4 5 6):2' --prime 2",
    "a6-r3-6666": (
        "--group A(6) --classes '(2 3 4 5 6):1,(2 3 4 6 5):1,(1 2)(3 4 5 6):1' --prime 2"
    ),
    # no Nielsen class: the involutions of A(4) generate V4
    "a4-empty": "--group A(4) --classes 2:4 --prime 2",
}

TOWERS = {
    "d3-d9-d27": "--chain D(3),D(9),D(27) --classes 2:4 --prime 3",
    "a4-sl23": "--chain A(4),SL23 --classes 3+:2,3-:2 --prime 2",
}

# (command, snapshot name, argument string), Markdown only
FOCUSED = [
    *((command, "a4-sl23", A4_SL23) for command in ("cusps", "shinc", "genus", "lift", "screen")),
    ("orbits", "a5-r3-sl25", A5_R3),
]


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {shlex.join(argv)}")
    return out.getvalue().encode()


def render_snapshots(dot_dir: Path) -> dict[str, bytes]:
    """Snapshot file name -> bytes, from the current tree.

    Towers write their DOT files into dot_dir.
    """
    outputs = {}
    for name, args in REPORTS.items():
        for fmt in ("md", "json", "csv"):
            argv = ["report", *shlex.split(args), "--format", fmt]
            outputs[f"report-{name}.{fmt}"] = _stdout(argv)
    for name, args in TOWERS.items():
        dot = dot_dir / f"{name}.dot"
        for fmt in ("md", "json"):
            argv = ["tower", *shlex.split(args), "--format", fmt, "--dot", str(dot)]
            outputs[f"tower-{name}.{fmt}"] = _stdout(argv)
        outputs[f"tower-{name}.dot"] = dot.read_bytes()
    for command, name, args in FOCUSED:
        outputs[f"{command}-{name}.md"] = _stdout([command, *shlex.split(args)])
    return outputs


def test_outputs_match_snapshots_byte_for_byte(tmp_path):
    got = render_snapshots(tmp_path)
    stored = {path.name: path.read_bytes() for path in SNAPSHOTS.iterdir()}
    assert sorted(stored) == sorted(got)
    assert [name for name in sorted(got) if got[name] != stored[name]] == []
