"""Finite tower truncations: push Nielsen data through chains of covers.

A chain of level maps (each a surjection with p-group kernel) lifts the
base branch classes level by level via Schur-Zassenhaus class matching;
components and cusps upstairs are connected to their images downstairs,
with the width-growth and g-p' persistence checks evaluated on every edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd
from typing import Sequence

# braid_orbits, reduced_classes, component_dossier and nielsen_inner_classes
# are not called here: perfbench/spans.py still wraps them on this module
from .braid import BraidOrbit, braid_orbits, cusp_of, cusp_orbits, reduced_classes
from .cusps import component_dossier
from .errors import ClassListEscape, ConfigError, MultiplePrimeClasses, NotPGroupKernel
from .groups import FiniteGroup, GroupHom, is_p_power
from .lifting import CentralExtension, is_frattini_cover
from .nielsen import ClassMultiset, canonical_context, nielsen_inner_classes
from .report import PipelineResult, cusp_json, run_pipeline


@dataclass(frozen=True)
class LevelMap:
    """Surjection with p-group kernel, one tower step."""

    psi: GroupHom
    p: int

    def __post_init__(self):
        if not self.psi.is_surjective:
            raise ConfigError("level maps must be surjective")
        if not is_p_power(len(self.psi.kernel_ids), self.p):
            raise NotPGroupKernel(
                f"kernel order {len(self.psi.kernel_ids)} is not a power of {self.p}"
            )

    @property
    def upstairs(self) -> FiniteGroup:
        return self.psi.source

    @property
    def downstairs(self) -> FiniteGroup:
        return self.psi.target


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Identity or identical element tables (IDs then interchangeable)."""
    return a is b or a.elements == b.elements


def transfer_classes(C: ClassMultiset, group: FiniteGroup) -> ClassMultiset:
    """Re-anchor a class multiset onto a structurally identical group."""
    if C.group is group:
        return C
    if not same_group(C.group, group):
        raise ConfigError("cannot transfer classes between different groups")
    return ClassMultiset(
        [(group.class_of(cls.member_ids[0]), m) for cls, m in C.entries]
    )


def match_classes(level: LevelMap, C: ClassMultiset) -> ClassMultiset:
    """Lift each p' class to the unique p' class above it.

    The p' elements of the preimage of a p' class form a single class of
    the covering group (Schur-Zassenhaus); if that ever failed the input
    would falsify the premise, so it is verified and reported.
    """
    up, down, p = level.upstairs, level.downstairs, level.p
    C = transfer_classes(C, down)
    orders, fibers = up.element_orders, level.psi.fibers
    lifted = []
    for cls, mult in C.entries:
        if cls.element_order % p == 0:
            raise ConfigError(f"class {cls.label()} is not a p' class for p={p}")
        prime_preimage = {
            x for y in cls.member_ids for x in fibers[y] if orders[x] % p != 0
        }
        if not prime_preimage:
            raise MultiplePrimeClasses(
                f"no p' elements above class {cls.label()}"
            )
        up_cls = up.class_of(min(prime_preimage))
        if set(up_cls.member_ids) != prime_preimage:
            raise MultiplePrimeClasses(
                f"p' preimage of class {cls.label()} splits into several classes"
            )
        lifted.append((up_cls, mult))
    return ClassMultiset(lifted)


def _projector(level: LevelMap, orbits: Sequence[BraidOrbit]):
    """The map from an upstairs inner canonical to (orbit, position in it)
    of the downstairs reduced class that holds its image."""
    at = {
        t: (i, j)
        for i, orb in enumerate(orbits)
        for j, r in enumerate(orb.positions)
        for t in orb.level.inner_canonicals(r)
    }
    image, ctx = level.psi.full_map, canonical_context(level.downstairs)

    def project(canonical: tuple[int, ...]) -> tuple[int, int]:
        found = at.get(ctx.canon(tuple(map(image.__getitem__, canonical))))
        if found is None:
            raise ClassListEscape(
                f"a projected class is not a class of {level.downstairs.name}"
            )
        return found

    return project


@dataclass(frozen=True)
class WidthGrowthCheck:
    """Width-growth bookkeeping on one cusp edge."""

    level: int
    up_cusp: tuple[int, int]
    down_cusp: tuple[int, int]
    down_mp: int
    up_mp: int
    applicable: bool
    ok: bool


@dataclass(frozen=True)
class CuspPersistenceCheck:
    """g-p' persistence: the downstairs cusp must be covered."""

    level: int
    down_cusp: tuple[int, int]
    covered: bool


@dataclass
class TowerGraph:
    """Level-to-level component and cusp graphs of a finite tower."""

    p: int
    levels: list[PipelineResult]
    component_edges: list[tuple[int, int, int]] = field(default_factory=list)
    cusp_edges: list[tuple[int, tuple[int, int], tuple[int, int]]] = field(
        default_factory=list
    )
    obstructed: list[tuple[int, int]] = field(default_factory=list)
    width_growth_checks: list[WidthGrowthCheck] = field(default_factory=list)
    persistence_checks: list[CuspPersistenceCheck] = field(default_factory=list)

    def to_json(self) -> dict:
        levels = []
        for k, lv in enumerate(self.levels):
            comps = []
            for i, d in enumerate(lv.dossiers):
                comps.append(
                    {
                        "index": i,
                        "degree": d.degree,
                        "genus": d.genus,
                        "widths": d.widths,
                        "lifting_invariant": str(d.lift) if d.lift else None,
                        "cusps": [cusp_json(c) for c in d.cusps],
                    }
                )
            levels.append(
                {
                    "level": k,
                    "group": lv.group.name,
                    "order": lv.group.order,
                    "classes": lv.classes.label(),
                    "components": comps,
                }
            )
        return {
            "schema": "v1",
            "p": self.p,
            "levels": levels,
            "component_edges": [
                {"level": k, "up": u, "down": d} for k, u, d in self.component_edges
            ],
            "cusp_edges": [
                {"level": k, "up": list(u), "down": list(d)}
                for k, u, d in self.cusp_edges
            ],
            "obstructed": [
                {"level": k, "component": i} for k, i in self.obstructed
            ],
            "width_growth": [
                {
                    "level": c.level,
                    "up": list(c.up_cusp),
                    "down": list(c.down_cusp),
                    "down_mp": c.down_mp,
                    "up_mp": c.up_mp,
                    "applicable": c.applicable,
                    "ok": c.ok,
                }
                for c in self.width_growth_checks
            ],
            "cusp_persistence": [
                {"level": c.level, "down": list(c.down_cusp), "covered": c.covered}
                for c in self.persistence_checks
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph tower {", "  rankdir=BT;"]
        for k, lv in enumerate(self.levels):
            lines.append(f"  subgraph cluster_level{k} {{")
            lines.append(f'    label="level {k}: {lv.group.name}";')
            for i, d in enumerate(lv.dossiers):
                shape = "doubleoctagon" if (k, i) in self.obstructed else "box"
                lines.append(
                    f'    comp_{k}_{i} [shape={shape},label="{d.degree}/{d.genus}"];'
                )
                for j, c in enumerate(d.cusps):
                    lines.append(
                        f'    cusp_{k}_{i}_{j} [shape=ellipse,label="{c.width}/{c.ctype.kind}"];'
                    )
                    lines.append(f"    cusp_{k}_{i}_{j} -> comp_{k}_{i} [style=dotted];")
            lines.append("  }")
        for k, up, down in self.component_edges:
            lines.append(f"  comp_{k + 1}_{up} -> comp_{k}_{down};")
        for k, (uo, uc), (do, dc) in self.cusp_edges:
            lines.append(f"  cusp_{k + 1}_{uo}_{uc} -> cusp_{k}_{do}_{dc};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_graph(
    chain: Sequence[LevelMap],
    base_classes: ClassMultiset,
    p: int,
    extensions: Sequence[CentralExtension | None] | None = None,
) -> TowerGraph:
    """Assemble the level-to-level graph over a composable chain of covers.

    chain[k] must map the level k+1 group onto the level k group; the
    classes are matched upward from the base, and a level over a Frattini
    link is lifted from the level below.  FP1 (p-cusp width growth) and
    FP2 (g-p' cusp persistence) are evaluated on every computed edge.
    """
    if base_classes.r != 4:
        raise ConfigError("tower graphs need r = 4 branch classes")
    groups = [base_classes.group]
    for k, lm in enumerate(chain):
        if lm.p != p:
            raise ConfigError("level map prime disagrees with the tower prime")
        if not same_group(lm.downstairs, groups[-1]):
            raise ConfigError(f"chain link {k} does not sit on the previous level")
        groups[-1] = lm.downstairs
        groups.append(lm.upstairs)
    base_classes = transfer_classes(base_classes, groups[0])
    exts: list[CentralExtension | None] = (
        list(extensions) if extensions else [None] * len(groups)
    )
    if len(exts) != len(groups):
        raise ConfigError("need one (possibly null) extension per level")

    levels = [run_pipeline(groups[0], base_classes, p, exts[0])]
    for k, lm in enumerate(chain):
        C = transfer_classes(match_classes(lm, levels[k].classes), groups[k + 1])
        # a level's orbits hold all of its classes: lift every inner canonical
        orbits = levels[k].orbits
        lower = orbits[0].level.inner if orbits else ()
        below = (lm.psi, lower) if is_frattini_cover(lm.psi) else None
        levels.append(run_pipeline(groups[k + 1], C, p, exts[k + 1], below=below))
    graph = TowerGraph(p, levels)

    for k, lm in enumerate(chain):
        down, up = levels[k], levels[k + 1]
        project = _projector(lm, down.orbits)
        down_cusp_of = [cusp_of(orb) for orb in down.orbits]
        covered_components = set()
        covered_cusps = set()
        for ui, uorb in enumerate(up.orbits):
            di, _ = project(uorb.members[0])
            graph.component_edges.append((k, ui, di))
            covered_components.add(di)
            for uj, ucusp in enumerate(cusp_orbits(uorb)):
                i, j = project(ucusp.member_canonicals[0])
                dcusp = (i, down_cusp_of[i][j])
                graph.cusp_edges.append((k, (ui, uj), dcusp))
                covered_cusps.add(dcusp)
                # classify_cusp checked that mp is one value on each cusp
                down_mp = down.dossiers[i].cusps[dcusp[1]].ctype.mp
                up_mp = up.dossiers[ui].cusps[uj].ctype.mp
                applicable = down_mp % p == 0
                # p^(u+1) divides up_mp where p^u exactly divides down_mp
                ok = not applicable or (up_mp // gcd(up_mp, down_mp)) % p == 0
                graph.width_growth_checks.append(
                    WidthGrowthCheck(k, (ui, uj), dcusp, down_mp, up_mp, applicable, ok)
                )
        for i, orb in enumerate(down.orbits):
            if i not in covered_components:
                graph.obstructed.append((k, i))
        for i, dossier in enumerate(down.dossiers):
            for j, summary in enumerate(dossier.cusps):
                if summary.ctype.kind == "g-p'":
                    graph.persistence_checks.append(
                        CuspPersistenceCheck(k, (i, j), (i, j) in covered_cusps)
                    )
    return graph


def export_json(graph: TowerGraph) -> str:
    return json.dumps(graph.to_json(), indent=1, sort_keys=True) + "\n"
