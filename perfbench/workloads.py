"""The benchmark's workloads: fixed inputs, set-up and solve, and checks.

Each item rebuilds its inputs afresh on every call (fresh groups,
extensions, chains and class multisets) through the program's public
entry points, then solves and renders.  ``Item.run`` returns the two
timings and a *summary* of plain data read off the results; the checks in
``oracles`` run on the summary, outside both timings.
"""

from __future__ import annotations

import gc
import io
import random
import shlex
import statistics
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import oracles
from nielsen_forge import cli, config, presets, report, tower
from spans import patched


@dataclass
class Outcome:
    setup_s: float
    solve_s: float
    summary: dict
    groups: list  # (name, order, tabled) of every group built


@dataclass
class Item:
    name: str
    # run(repeat_setup) -> Outcome; see timed_setup for repeat_setup
    run: Callable[[bool], Outcome]
    check: Callable[[dict], list]
    # value compared after the timed rounds against Workload.oracle()
    deferred: Callable[[dict], object] | None = None


@dataclass
class Workload:
    items: list[Item]
    oracle: Callable[[], object] | None = None
    run_context: Callable = nullcontext


def group_state(g) -> tuple:
    return (g.name, g.order, getattr(g, "_mul", None) is not None)


def build_table(g) -> None:
    """The lazy multiplication table is part of set-up."""
    g.mul(g.identity_id, g.identity_id)


SETUP_MIN_S = 0.25


def timed_setup(build, repeat: bool):
    """Inputs from ``build()`` and the median time of building them.

    With ``repeat``, a set-up shorter than SETUP_MIN_S is run again, from
    the start, until that much set-up time is measured, so that its median is
    steady; only the last inputs are kept.  Traced rounds build once, so
    that their spans and counts describe one set-up.
    """
    samples = []
    while True:
        t0 = perf_counter()
        inputs = build()
        samples.append(perf_counter() - t0)
        if not repeat or sum(samples) >= SETUP_MIN_S:
            return inputs, statistics.median(samples)
        del inputs
        gc.collect()


# -- summaries --------------------------------------------------------


def component_summary(d) -> dict:
    orb = d.orbit
    return {
        "degree": d.degree,
        "genus": d.genus,
        "lift": None if d.lift is None else str(d.lift),
        "widths": [c.width for c in d.cusps],
        "sh": [list(row) for row in d.sh_matrix.matrix],
        "gammas": [list(orb.gamma_0), list(orb.gamma_1), list(orb.gamma_inf)],
        "classes": [(len(c.inner_canonicals), c.size) for c in orb.classes],
    }


def pipeline_summary(res, texts: dict) -> dict:
    return {
        "inner": res.inner_count,
        "reduced": res.reduced_count,
        "components": [component_summary(d) for d in res.dossiers],
        "h3": None
        if res.h3_orbits is None
        else [[c.orbit_size for c in o.classes] for o in res.h3_orbits],
        "texts": texts,
    }


def tower_summary(graph, texts: dict) -> dict:
    return {
        "levels": [
            {"components": [component_summary(d) for d in lv.dossiers]}
            for lv in graph.levels
        ],
        "component_edges": list(graph.component_edges),
        "obstructed": [tuple(o) for o in graph.obstructed],
        "width_growth": [c.ok for c in graph.width_growth_checks],
        "persistence": [c.covered for c in graph.persistence_checks],
        "texts": texts,
    }


def check_pipeline(summary, where: str) -> list:
    return (
        oracles.check_components(summary["components"], where)
        + oracles.check_inner_partition(summary, where)
        + oracles.check_report_texts(summary, summary["texts"], where)
    )


def check_tower(summary, where: str) -> list:
    return oracles.check_tower(summary, summary["texts"], where)


FORMATS = ("md", "json", "csv")


def render_all(res) -> dict:
    return {fmt: report.render(res, fmt) for fmt in FORMATS}


# -- alternating-a7 ---------------------------------------------------

A7_CLASSES = "(1 2 3)(4 5 6):2,(1 2 3):2"
A7_CYCLE_TYPES = [((3, 3), 2), ((3,), 2)]


def _a7_inputs():
    G = presets.alternating(7)
    C = config.parse_class_selector(G, A7_CLASSES)
    build_table(G)
    return G, C


def _a7_run(repeat_setup: bool) -> Outcome:
    (G, C), setup_s = timed_setup(_a7_inputs, repeat_setup)
    t0 = perf_counter()
    res = report.run_pipeline(G, C, 2)
    texts = render_all(res)
    solve_s = perf_counter() - t0
    return Outcome(setup_s, solve_s, pipeline_summary(res, texts), [group_state(G)])


def _a7_oracle() -> int:
    """Sum of orbit sizes over ni(A7, C), counted on the oracle's own A7."""
    from itertools import permutations

    from nielsen_forge.groups import FiniteGroup

    evens = sorted(
        p for p in permutations(range(7)) if sum(c - 1 for c in oracles.cycle_lengths(p)) % 2 == 0
    )
    gens = [(1, 2, 0, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]  # (1 2 3), (1 2 3 4 5 6 7)
    group = FiniteGroup(gens, evens, name="A7 (oracle)")
    return oracles.generating_tuple_total(group, 7, A7_CYCLE_TYPES)


# -- untabled-s7 ------------------------------------------------------

S7_CLASSES = "(1 2 3 4 5 6 7):1,(1 2):1,(1 2 3 4 5 6):1"
S7_CYCLE_TYPES = [((7,), 1), ((2,), 1), ((6,), 1)]


def _s7_inputs():
    G = presets.symmetric(7)
    C = config.parse_class_selector(G, S7_CLASSES)
    build_table(G)
    return G, C


def _s7_run(repeat_setup: bool) -> Outcome:
    (G, C), setup_s = timed_setup(_s7_inputs, repeat_setup)
    t0 = perf_counter()
    res = report.run_pipeline(G, C, 2, r3=True)
    texts = render_all(res)
    solve_s = perf_counter() - t0
    return Outcome(setup_s, solve_s, pipeline_summary(res, texts), [group_state(G)])


def _s7_oracle() -> int:
    # A product-one triple here holds a 7-cycle (so it is transitive of prime
    # degree) and a transposition, so by Jordan's theorem it generates S7:
    # the plain product-one count is the sum of the orbit sizes.
    return oracles.product_one_total(7, S7_CYCLE_TYPES)


# -- dihedral-tower ---------------------------------------------------

DIHEDRAL_P = 5
DIHEDRAL_MS = [5, 25, 125]


def _dihedral_inputs():
    base, homs = presets.chain_from_specs([f"D({m})" for m in DIHEDRAL_MS])
    C = config.parse_class_selector(base, "2:4")
    chain = [tower.LevelMap(h, DIHEDRAL_P) for h in homs]
    levels = [base] + [h.source for h in homs]
    for g in levels:
        build_table(g)
    return chain, C, levels


def _dihedral_run(repeat_setup: bool) -> Outcome:
    (chain, C, levels), setup_s = timed_setup(_dihedral_inputs, repeat_setup)
    t0 = perf_counter()
    graph = tower.build_graph(chain, C, DIHEDRAL_P)
    texts = {"json": tower.export_json(graph), "dot": graph.to_dot()}
    solve_s = perf_counter() - t0
    return Outcome(
        setup_s, solve_s, tower_summary(graph, texts), [group_state(g) for g in levels]
    )


def _dihedral_check(summary) -> list:
    where = "dihedral-tower"
    return check_tower(summary, where) + oracles.check_dihedral_tower(
        summary, DIHEDRAL_MS, DIHEDRAL_P, where
    )


# -- small-sweep ------------------------------------------------------


def _a4(lifts):
    return lambda s, w: oracles.check_a4_values(s, w, lifts=lifts)


def _reduced(n):
    return lambda s, w: oracles.check_reduced_count(s, n, w)


def _components(n):
    return lambda s, w: oracles.check_component_count(s, n, w)


# (argv without --format, extra check); the format of item j is FORMATS[j % 3]
SWEEP_JOBS = [
    ("report --group A(4) --classes 3+:2,3-:2 --prime 2 --extension SL23", _a4(True)),
    ("report --group V2xZ3(2) --classes 3+:2,3-:2 --prime 2", _a4(False)),
    (
        "report --group A(5) --classes 3:4 --prime 2 --extension SL25",
        lambda s, w: oracles.check_reduced_count(s, 18, w) + oracles.check_component_count(s, 1, w),
    ),
    ("report --group A(5) --classes 5+:1,5-:1,3:1 --prime 2 --extension SL25 --r3", None),
    ("report --group S(4) --classes '(1 2):2,(1 2 3):2' --prime 2", None),
    ("report --group D(9) --classes 2:4 --prime 3", _reduced(oracles.dihedral_reduced_count(9, 3))),
    ("report --group D(15) --classes 2:4 --prime 3", None),
    ("report --group V2xPM(3) --classes 2:4 --prime 3", _components(oracles.euler_phi(3))),
    ("report --group V2xPM(5) --classes 2:4 --prime 5", _components(oracles.euler_phi(5))),
    ("report --group V2xZ3(5) --classes 3+:2,3-:2 --prime 5", None),
    ("report --group A(6) --classes '(1 2 3 4 5):4' --prime 2", None),
    (
        "tower --chain D(3),D(9),D(27) --classes 2:4 --prime 3",
        lambda s, w: oracles.check_dihedral_tower(s, [3, 9, 27], 3, w),
    ),
    ("tower --chain A(4),SL23 --classes 3+:2,3-:2 --prime 2", oracles.check_a4_tower),
]


class CliProbe:
    """Times the set-up calls cli.main makes and keeps the results it builds.

    Installed on the names the cli module imported, for the whole run;
    each wrapper adds two clock reads, or one list append, per call.
    """

    SETUP = ("group_from_string", "extension_from_string", "chain_from_specs", "parse_class_selector")
    RESULTS = ("run_pipeline", "build_graph")

    def __init__(self):
        self.setup_s = 0.0
        self.results: list = []

    def _timed(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += perf_counter() - t0

        return wrapper

    def _kept(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.results.append(out)
            return out

        return wrapper

    def run_context(self):
        pairs = [(cli, a, self._timed(getattr(cli, a))) for a in self.SETUP]
        pairs += [(cli, a, self._kept(getattr(cli, a))) for a in self.RESULTS]
        return patched(pairs)


class CliFailed(Exception):
    pass


def _sweep_item(probe: CliProbe, index: int, command: str, extra) -> Item:
    fmt = FORMATS[index % len(FORMATS)]
    argv = shlex.split(command) + ["--format", fmt]
    where = f"small-sweep[{command} --format {fmt}]"

    def run(repeat_setup: bool) -> Outcome:
        # set-up happens inside cli.main, once per call
        probe.setup_s = 0.0
        probe.results.clear()
        out = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out):
            code = cli.main(argv)
        total = perf_counter() - t0
        if code != 0:
            raise CliFailed(f"{where}: exit code {code}")
        (result,) = probe.results
        texts = {fmt: out.getvalue()}
        if argv[0] == "tower":
            summary = tower_summary(result, texts)
            groups = [lv.group for lv in result.levels]
        else:
            summary = pipeline_summary(result, texts)
            groups = [result.group]
        return Outcome(
            probe.setup_s, total - probe.setup_s, summary, [group_state(g) for g in groups]
        )

    def check(summary) -> list:
        errors = check_tower(summary, where) if argv[0] == "tower" else check_pipeline(summary, where)
        return errors + (extra(summary, where) if extra else [])

    return Item(where, run, check)


def small_sweep(seed: int) -> Workload:
    probe = CliProbe()
    items = [_sweep_item(probe, j, cmd, extra) for j, (cmd, extra) in enumerate(SWEEP_JOBS)]
    random.Random(seed).shuffle(items)
    return Workload(items, run_context=probe.run_context)


def make(name: str, seed: int) -> Workload:
    """The workload by name; the seed only orders the small-sweep items."""
    if name == "dihedral-tower":
        return Workload([Item(name, _dihedral_run, _dihedral_check)])
    if name == "alternating-a7":
        item = Item(
            name,
            _a7_run,
            lambda s: check_pipeline(s, name),
            oracles.orbit_total,
        )
        return Workload([item], _a7_oracle)
    if name == "untabled-s7":
        item = Item(name, _s7_run, lambda s: check_pipeline(s, name), oracles.orbit_total)
        return Workload([item], _s7_oracle)
    if name == "small-sweep":
        return small_sweep(seed)
    raise KeyError(name)


WORKLOADS = ("dihedral-tower", "alternating-a7", "untabled-s7", "small-sweep")
