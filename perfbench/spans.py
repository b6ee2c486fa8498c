"""In-memory spans and counters around the program's layer entry points.

``instrument(recorder)`` swaps each entry point, in every module that
imported it by name, for a wrapper that opens a span (name, start, end,
parent) and adds the stage's counts; leaving the ``with`` block puts the
originals back.  Nothing here changes what the program computes.

Counts that do not come from a span's result:

- ``nielsen.generation_tests``: calls to ``nielsen.generates``;
- ``<layer>.canon_calls``: calls to ``CanonicalContext.canon``, charged to
  the layer of the innermost open span.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from nielsen_forge import cli, config, groups, lifting, nielsen, presets, report, tower


class Recorder:
    """Spans as [name, start, end, parent index] plus named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self.canon_key = "none.canon_calls"

    def _charge_canon_to_innermost(self) -> None:
        layer = self.spans[self._open[-1]][0].split(".", 1)[0] if self._open else "none"
        self.canon_key = layer + ".canon_calls"

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(idx)
        self._charge_canon_to_innermost()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()
        self._charge_canon_to_innermost()

    def self_times(self) -> Counter:
        """Per span name: total duration minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name + "_s"] += end - start - child[i]
        return out


def _spanned(rec: Recorder, name: str, fn, tally=None):
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if tally is not None:
            tally(rec.counts, out)
        return out

    return wrapper


def _add(key: str, measure):
    def tally(counts, out):
        counts[key] += measure(out)

    return tally


# span name -> ((module or class, attribute), ...), tally of the result
ENTRY_POINTS = (
    (
        "presets.build",
        (
            (presets, "alternating"),
            (presets, "symmetric"),
            (presets, "group_from_string"),
            (presets, "extension_from_string"),
            (presets, "chain_from_specs"),
            (cli, "group_from_string"),
            (cli, "extension_from_string"),
            (cli, "chain_from_specs"),
        ),
        None,
    ),
    ("config.classes", ((config, "parse_class_selector"), (cli, "parse_class_selector")), None),
    # The first mul on a fresh group builds its table when |G| <= MUL_TABLE_MAX.
    # The span sits on the table-building method: a per-instance hook on mul
    # would change the instances' attribute layout and slow every product.
    (
        "groups.table",
        ((groups.FiniteGroup, "_build_mul_table"),),
        _add("groups.tabled", lambda _: 1),
    ),
    (
        "nielsen.enumerate",
        (
            (nielsen, "nielsen_inner_classes"),
            (report, "nielsen_inner_classes"),
            (tower, "nielsen_inner_classes"),
        ),
        _add("nielsen.inner_classes", len),
    ),
    (
        "braid.reduce",
        ((report, "reduced_classes"), (tower, "reduced_classes")),
        _add("braid.reduced_classes", len),
    ),
    (
        "braid.orbits",
        ((report, "braid_orbits"), (report, "braid_orbits_r3"), (tower, "braid_orbits")),
        _add("braid.components", len),
    ),
    (
        "cusps.dossier",
        ((report, "component_dossier"), (tower, "component_dossier")),
        _add("cusps.cusps", lambda d: len(d.cusps)),
    ),
    (
        "lifting.invariant",
        ((lifting, "lifting_invariant"), (report, "lifting_invariant")),
        _add("lifting.invariants", lambda _: 1),
    ),
    (
        "tower.self",
        ((tower, "build_graph"), (cli, "build_graph")),
        _add("tower.edges", lambda g: len(g.component_edges) + len(g.cusp_edges)),
    ),
    (
        "report.render",
        (
            (report, "render"),
            (cli, "render"),
            (tower, "export_json"),
            (cli, "export_json"),
            (tower.TowerGraph, "to_dot"),
        ),
        _add("report.bytes", lambda text: len(text.encode())),
    ),
    ("cli.self", ((cli, "main"),), None),
)


@contextmanager
def patched(pairs):
    """Set (owner, attribute, value) triples; restore the old values on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in pairs]
    try:
        for owner, attr, value in pairs:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


@contextmanager
def instrument(rec: Recorder):
    """Trace every layer entry point into ``rec`` for the duration."""
    pairs = []
    for name, targets, tally in ENTRY_POINTS:
        for owner, attr in targets:
            pairs.append((owner, attr, _spanned(rec, name, getattr(owner, attr), tally)))

    generates = nielsen.generates

    def counted_generates(*args, **kwargs):
        rec.counts["nielsen.generation_tests"] += 1
        return generates(*args, **kwargs)

    canon = nielsen.CanonicalContext.canon

    def counted_canon(ctx, ids):
        rec.counts[rec.canon_key] += 1
        return canon(ctx, ids)

    pairs += [
        (nielsen, "generates", counted_generates),
        (nielsen.CanonicalContext, "canon", counted_canon),
    ]
    with patched(pairs):
        yield rec
