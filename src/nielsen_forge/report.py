"""Pipeline driver and report rendering (markdown, JSON v1, CSV)."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import perm as P
from .braid import BraidOrbit, braid_orbits, braid_orbits_r3, reduced_classes
from .cusps import ComponentDossier, CuspSummary, component_dossier
from .errors import ConfigError, RankNotFour
from .groups import FiniteGroup
from .lifting import CentralExtension, lifting_invariant
from .nielsen import ClassMultiset, NielsenTuple, canonical_context, nielsen_inner_classes

JSON_SCHEMA = "v1"


@dataclass
class PipelineResult:
    """One level of a tower, or the whole of a report."""

    group: FiniteGroup
    classes: ClassMultiset
    prime: int
    inner_count: int
    reduced_count: int
    dossiers: list[ComponentDossier]
    h3_orbits: list[BraidOrbit] | None = None
    h3_lifts: list[str] | None = None

    @property
    def orbits(self) -> list[BraidOrbit]:
        if self.h3_orbits is not None:
            return self.h3_orbits
        return [d.orbit for d in self.dossiers]


def run_pipeline(
    group: FiniteGroup,
    C: ClassMultiset,
    p: int,
    extension: CentralExtension | None = None,
    *,
    r3: bool = False,
    below: tuple | None = None,
) -> PipelineResult:
    """enumerate -> reduce -> orbits -> cusps -> genus -> classify -> screen.

    r = 3 classes give H3 orbits instead; r3=True only checks that r = 3.
    ``below = (psi, lower canonicals)`` lifts the inner classes from the
    level below, as in ``nielsen_inner_classes``.
    """
    if r3 and C.r != 3:
        raise ConfigError(f"--r3 needs r = 3 classes, got r = {C.r}")
    if C.r not in (3, 4):
        raise RankNotFour(f"pipelines run on r = 3 or r = 4 classes, got r = {C.r}")
    if extension is not None and extension.p != p:
        raise ConfigError(f"the extension has p = {extension.p}, not p = {p}")
    inner = nielsen_inner_classes(group, C, below)
    if C.r == 3:
        orbits = braid_orbits_r3(inner)
        lifts = None
        if extension is not None:
            lifts = [
                str(
                    lifting_invariant(
                        extension, NielsenTuple(group, o.members[0]).perms
                    )
                )
                for o in orbits
            ]
        return PipelineResult(
            group, C, p, len(inner), len(inner), [], orbits, lifts
        )
    reduced = reduced_classes(inner)
    orbits = braid_orbits(reduced)
    dossiers = [
        component_dossier(orb, i + 1, p, extension) for i, orb in enumerate(orbits)
    ]
    return PipelineResult(group, C, p, len(inner), len(reduced), dossiers)


def _tuple_str(group: FiniteGroup, ids) -> str:
    return "(" + ", ".join(P.format_cycles(group.perm(i)) for i in ids) + ")"


def _class_pattern(group: FiniteGroup, ids) -> str:
    """Class-assignment pattern of a tuple, by class representatives."""
    ctx = canonical_context(group)
    return ", ".join(
        P.format_cycles(group.perm(ctx.class_min(x))) for x in ids
    )


def render_markdown(result: PipelineResult) -> str:
    g = result.group
    lines = [
        f"# {g.name or 'group'}: classes {result.classes.label()}, p = {result.prime}",
        "",
        f"- group order {g.order}, degree {g.degree}",
        f"- inner classes: {result.inner_count}",
    ]
    if result.h3_orbits is not None:
        lines.append(f"- H3 orbits (r=3): {len(result.h3_orbits)}")
        lines.append("")
        lines.append("| orbit | size | representative | lifting invariant |")
        lines.append("|---|---|---|---|")
        for i, o in enumerate(result.h3_orbits):
            lift = result.h3_lifts[i] if result.h3_lifts else "-"
            lines.append(
                f"| {i + 1} | {o.size} | {_tuple_str(g, o.members[0])} | {lift} |"
            )
        return "\n".join(lines) + "\n"
    lines.append(f"- reduced classes: {result.reduced_count}")
    lines.append(f"- components: {len(result.dossiers)}")
    for d in result.dossiers:
        gd = d.genus_data
        lines += [
            "",
            f"## component {d.orbit_number}: degree {d.degree}, genus {d.genus}",
            "",
            f"- representative: {_tuple_str(g, d.orbit.members[0])}",
            f"- class pattern: [{_class_pattern(g, d.orbit.members[0])}]",
            f"- ind(gamma_0) = {gd.ind_gamma_0}, ind(gamma_1) = {gd.ind_gamma_1}, "
            f"ind(gamma_inf) = {gd.ind_gamma_inf}",
            f"- Q'' orbit lengths: {sorted(set(d.orbit.q2_lengths()))}",
            f"- fine moduli: Q''-length-4 {gd.fine_moduli_q2}, "
            f"gamma fixed-point-free {gd.fine_moduli_fixed_point_free}",
        ]
        if d.lift is not None:
            lines.append(f"- lifting invariant: {d.lift}")
        s = d.screen
        match = f" [{', '.join(s.matches)}]" if s.matches else ""
        lines.append(
            f"- congruence screen (N = {s.level}): {s.verdict}{match} -- {s.reason}"
        )
        lines += ["", "| cusp | width | type |", "|---|---|---|"]
        for c in d.cusps:
            lines.append(f"| {c.label} | {c.width} | {c.ctype.label()} |")
        lines += ["", "sh-incidence (rows/cols " + ", ".join(d.sh_matrix.labels) + "):", ""]
        for row in d.sh_matrix.matrix:
            lines.append("    " + "  ".join(f"{v:2d}" for v in row))
    return "\n".join(lines) + "\n"


def cusp_json(c: CuspSummary) -> dict:
    """The cusp keys that report and tower JSON share."""
    return {
        "label": c.label,
        "width": c.width,
        "kind": c.ctype.kind,
        "mp": c.ctype.mp,
        "hm": c.ctype.is_hm,
        "shift_of_hm": c.ctype.is_shift_of_hm,
    }


def render_json(result: PipelineResult) -> str:
    g = result.group
    doc: dict = {
        "schema": JSON_SCHEMA,
        "group": {"name": g.name, "order": g.order, "degree": g.degree},
        "classes": result.classes.label(),
        "prime": result.prime,
        "inner_classes": result.inner_count,
    }
    if result.h3_orbits is not None:
        doc["h3_orbits"] = [
            {
                "index": i + 1,
                "size": o.size,
                "representative": _tuple_str(g, o.members[0]),
                "lifting_invariant": result.h3_lifts[i]
                if result.h3_lifts
                else None,
                "provenance": {"orbit_mode": "H3 on inner classes (r=3)"},
            }
            for i, o in enumerate(result.h3_orbits)
        ]
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"
    doc["reduced_classes"] = result.reduced_count
    comps = []
    for d in result.dossiers:
        gd = d.genus_data
        comps.append(
            {
                "index": d.orbit_number,
                "degree": d.degree,
                "representative": _tuple_str(g, d.orbit.members[0]),
                "class_pattern": _class_pattern(g, d.orbit.members[0]),
                "genus": {
                    "value": d.genus,
                    "provenance": {
                        "formula": "2(deg+g-1) = ind(g0)+ind(g1)+ind(ginf)",
                        "indices": [
                            gd.ind_gamma_0,
                            gd.ind_gamma_1,
                            gd.ind_gamma_inf,
                        ],
                    },
                },
                "q2_orbit_lengths": sorted(set(d.orbit.q2_lengths())),
                "fine_moduli": {
                    "q2_length_4": gd.fine_moduli_q2,
                    "gamma_fixed_point_free": gd.fine_moduli_fixed_point_free,
                },
                "lifting_invariant": str(d.lift) if d.lift else None,
                "cusps": [
                    {
                        **cusp_json(c),
                        "weigel_candidate": c.ctype.weigel_candidate,
                        "provenance": {
                            "width": "gamma_inf orbit size on reduced classes",
                            "kind": "middle product order and <g2,g3>/<g1,g4> orders",
                            **(
                                {
                                    "weigel_candidate": "pair invariants "
                                    "approximated in the preimages of the pair "
                                    "subgroups inside the ambient cover"
                                }
                                if c.ctype.weigel_candidate is not None
                                else {}
                            ),
                        },
                    }
                    for c in d.cusps
                ],
                "sh_incidence": {
                    "labels": list(d.sh_matrix.labels),
                    "matrix": [list(r) for r in d.sh_matrix.matrix],
                },
                "screen": {
                    "level": d.screen.level,
                    "verdict": d.screen.verdict,
                    "matches": list(d.screen.matches),
                    "reason": d.screen.reason,
                    "monodromy_order": d.screen.monodromy_order,
                },
            }
        )
    doc["components"] = comps
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def render_csv(result: PipelineResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if result.h3_orbits is not None:
        writer.writerow(["orbit", "size", "lifting_invariant"])
        for i, o in enumerate(result.h3_orbits):
            writer.writerow(
                [i + 1, o.size, result.h3_lifts[i] if result.h3_lifts else ""]
            )
        return buf.getvalue()
    writer.writerow(
        ["component", "degree", "genus", "cusp", "width", "kind", "mp", "hm", "shift_of_hm"]
    )
    for d in result.dossiers:
        for c in d.cusps:
            writer.writerow(
                [
                    d.orbit_number,
                    d.degree,
                    d.genus,
                    c.label,
                    c.width,
                    c.ctype.kind,
                    c.ctype.mp,
                    int(c.ctype.is_hm),
                    int(c.ctype.is_shift_of_hm),
                ]
            )
    return buf.getvalue()


RENDERERS = {"md": render_markdown, "json": render_json, "csv": render_csv}


def render(result: PipelineResult, fmt: str) -> str:
    if fmt not in RENDERERS:
        raise ConfigError(f"unknown format {fmt!r} (choose md, json, csv)")
    return RENDERERS[fmt](result)
