"""Correctness checks that do not reuse the program's own algorithms.

Every check takes a *summary*: plain lists and numbers read off the
program's result objects and rendered texts (see ``workloads.py``), and
returns a list of error strings (empty when the output is right).  The
counts the checks compare against come from closed formulas, literature
values, or enumerations written here on raw permutation tuples.  The one
program method used is ``FiniteGroup.subgroup_closure``, as the generation
test of the orbit-stabilizer count.

Permutations here are image tuples on ``0..n-1``, multiplied left to right:
``compose(p, q)[x] == q[p[x]]``, the same convention as the program.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import permutations
from math import gcd


# -- raw permutations -------------------------------------------------


def compose(p, q):
    return tuple(q[x] for x in p)


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycle_lengths(p) -> list[int]:
    """Lengths of all cycles of ``p``, fixed points included."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            n += 1
        out.append(n)
    return out


def is_permutation(p, n: int) -> bool:
    return len(p) == n and sorted(p) == list(range(n))


def perms_of_cycle_type(degree: int, lengths: tuple[int, ...]) -> list[tuple]:
    """All permutations whose nontrivial cycles have these lengths, sorted."""
    want = sorted(lengths)
    return sorted(
        p
        for p in permutations(range(degree))
        if sorted(c for c in cycle_lengths(p) if c > 1) == want
    )


def splits_in_alternating(degree: int, lengths: tuple[int, ...]) -> bool:
    """True iff the S_n class of this type splits into two A_n classes."""
    full = list(lengths) + [1] * (degree - sum(lengths))
    return len(set(full)) == len(full) and all(c % 2 for c in full)


def distinct_orderings(labels: list) -> list[tuple]:
    return sorted(set(permutations(labels)))


def euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


# -- independent counts -----------------------------------------------


def generating_tuple_total(group, degree: int, classes) -> int:
    """Number of generating product-one tuples, by orbit-stabilizer.

    ``classes`` lists (cycle type, multiplicity).  For each distinct
    ordering of the classes, count the generating product-one tuples
    whose first entry is the least element of its class, then multiply by
    that class's size: conjugation permutes the tuples with a given first
    entry bijectively onto those with any other entry of the same class.
    The total equals the sum of the conjugation-orbit sizes of the inner
    classes.  The last entry is forced by the product-one condition;
    generation is tested through ``group.subgroup_closure``.
    """
    members = {}
    for lengths, _ in classes:
        if splits_in_alternating(degree, lengths):
            raise ValueError(f"cycle type {lengths} is not one class of A_{degree}")
        members[lengths] = perms_of_cycle_type(degree, lengths)
    labels = [lengths for lengths, mult in classes for _ in range(mult)]
    generated: dict[frozenset, bool] = {}
    total = 0
    for order in distinct_orderings(labels):
        first = members[order[0]]
        x = first[0]
        middle = [members[c] for c in order[1:-1]]
        last = set(members[order[-1]])
        count = 0
        stack = [((x,), x)]
        while stack:
            prefix, prod = stack.pop()
            depth = len(prefix)
            if depth == len(order) - 1:
                d = inverse(prod)
                if d in last:
                    key = frozenset(group.id_of(g) for g in prefix + (d,))
                    ok = generated.get(key)
                    if ok is None:
                        ok = len(group.subgroup_closure(key)) == group.order
                        generated[key] = ok
                    count += ok
                continue
            for g in middle[depth - 1]:
                stack.append((prefix + (g,), compose(prod, g)))
        total += len(first) * count
    return total


def product_one_total(degree: int, classes) -> int:
    """Number of product-one tuples in the classes of S_n (no generation test).

    Same orbit-stabilizer bookkeeping as ``generating_tuple_total``.
    """
    members = {lengths: perms_of_cycle_type(degree, lengths) for lengths, _ in classes}
    labels = [lengths for lengths, mult in classes for _ in range(mult)]
    total = 0
    for order in distinct_orderings(labels):
        if len(order) != 3:
            raise ValueError("product_one_total counts triples")
        first = members[order[0]]
        x = first[0]
        last = set(members[order[2]])
        count = sum(1 for b in members[order[1]] if inverse(compose(x, b)) in last)
        total += len(first) * count
    return total


def dihedral_reduced_count(m: int, p: int) -> int:
    """Reduced classes of ni(D_m, C2^4) for m a power of the odd prime p."""
    return (m + m // p) * euler_phi(m) // 2


# -- checks on summaries ----------------------------------------------


def check_component(c, where: str) -> list[str]:
    """Braid-group relations, genus, widths and sh-incidence of one component."""
    errors = []
    n = c["degree"]
    g0, g1, ginf = (tuple(x) for x in c["gammas"])
    if not all(is_permutation(g, n) for g in (g0, g1, ginf)):
        return [f"{where}: gamma maps are not permutations of {n} points"]
    ident = tuple(range(n))
    if compose(compose(g0, g0), g0) != ident:
        errors.append(f"{where}: gamma_0^3 != 1")
    if compose(g1, g1) != ident:
        errors.append(f"{where}: gamma_1^2 != 1")
    if compose(compose(g0, g1), ginf) != ident:
        errors.append(f"{where}: gamma_0 gamma_1 gamma_inf != 1")
    ind = sum(n - len(cycle_lengths(g)) for g in (g0, g1, ginf))
    twice = ind - 2 * (n - 1)
    if twice % 2 or twice < 0 or twice // 2 != c["genus"]:
        errors.append(
            f"{where}: genus {c['genus']} disagrees with index sum {ind} at degree {n}"
        )
    widths = c["widths"]
    if sum(widths) != n:
        errors.append(f"{where}: widths {widths} do not sum to degree {n}")
    if sorted(widths) != sorted(cycle_lengths(ginf)):
        errors.append(f"{where}: widths {sorted(widths)} are not the gamma_inf cycles")
    sh = c["sh"]
    rows = [sum(r) for r in sh]
    cols = [sum(r[j] for r in sh) for j in range(len(sh))]
    if rows != widths or cols != widths:
        errors.append(f"{where}: sh-incidence sums {rows}/{cols} != widths {widths}")
    if len(c["classes"]) != n:
        errors.append(f"{where}: {len(c['classes'])} reduced classes at degree {n}")
    return errors


def check_components(components, where: str) -> list[str]:
    errors = []
    for i, c in enumerate(components):
        errors += check_component(c, f"{where} component {i + 1}")
    return errors


def orbit_total(summary) -> int:
    """Sum of the conjugation-orbit sizes of all inner classes in a report."""
    if summary["h3"] is not None:
        return sum(sum(o) for o in summary["h3"])
    return sum(size for c in summary["components"] for _, size in c["classes"])


def check_inner_partition(summary, where: str) -> list[str]:
    """Components (or H3 orbits) partition the inner classes exactly."""
    if summary["h3"] is not None:
        held = sum(len(o) for o in summary["h3"])
    else:
        held = sum(n for c in summary["components"] for n, _ in c["classes"])
        reduced = sum(c["degree"] for c in summary["components"])
        if reduced != summary["reduced"]:
            return [f"{where}: component degrees sum to {reduced}, not {summary['reduced']}"]
    if held != summary["inner"]:
        return [f"{where}: orbits hold {held} inner classes, report says {summary['inner']}"]
    return []


def check_report_texts(summary, texts: dict[str, str], where: str) -> list[str]:
    """The rendered md/json/csv reports carry the numbers of the result."""
    errors = []
    h3 = summary["h3"]
    comps = summary["components"]
    for fmt, text in texts.items():
        if fmt == "json":
            doc = json.loads(text)
            got = [doc["inner_classes"]]
            want = [summary["inner"]]
            if h3 is not None:
                got.append([o["size"] for o in doc["h3_orbits"]])
                want.append([len(o) for o in h3])
            else:
                got.append(doc["reduced_classes"])
                want.append(summary["reduced"])
                got.append(
                    [
                        (d["degree"], d["genus"]["value"], [c["width"] for c in d["cusps"]])
                        for d in doc["components"]
                    ]
                )
                want.append([(c["degree"], c["genus"], c["widths"]) for c in comps])
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if h3 is not None:
                got = [[int(r[1]) for r in rows[1:]]]
                want = [[len(o) for o in h3]]
            else:
                got = [[(int(r[0]), int(r[1]), int(r[2]), int(r[4])) for r in rows[1:]]]
                want = [
                    [
                        (i + 1, c["degree"], c["genus"], w)
                        for i, c in enumerate(comps)
                        for w in c["widths"]
                    ]
                ]
        else:
            lines = set(text.splitlines())
            want_lines = [f"- inner classes: {summary['inner']}"]
            if h3 is not None:
                want_lines.append(f"- H3 orbits (r=3): {len(h3)}")
            else:
                want_lines.append(f"- reduced classes: {summary['reduced']}")
                want_lines.append(f"- components: {len(comps)}")
                for i, c in enumerate(comps):
                    want_lines.append(
                        f"## component {i + 1}: degree {c['degree']}, genus {c['genus']}"
                    )
                    if c["lift"] is not None:
                        want_lines.append(f"- lifting invariant: {c['lift']}")
            missing = [w for w in want_lines if w not in lines]
            got, want = missing, []
        if got != want:
            errors.append(f"{where}: {fmt} report disagrees with the result: {got} != {want}")
    return errors


def check_tower(summary, texts: dict[str, str], where: str) -> list[str]:
    """Edges, obstruction marks, FP1/FP2 checks and the rendered tower."""
    errors = []
    levels = summary["levels"]
    for k, lv in enumerate(levels):
        errors += check_components(lv["components"], f"{where} level {k}")
    if not all(summary["width_growth"]):
        errors.append(f"{where}: a width-growth check is violated")
    if not all(summary["persistence"]):
        errors.append(f"{where}: a g-p' cusp is not covered upstairs")
    for k in range(len(levels) - 1):
        ups = [u for kk, u, _ in summary["component_edges"] if kk == k]
        if sorted(ups) != list(range(len(levels[k + 1]["components"]))):
            errors.append(f"{where}: level {k + 1} components lack exactly one downward edge")
        hit = {d for kk, _, d in summary["component_edges"] if kk == k}
        unhit = [(k, i) for i in range(len(levels[k]["components"])) if i not in hit]
        if unhit != [o for o in summary["obstructed"] if o[0] == k]:
            errors.append(f"{where}: obstructed marks at level {k} disagree with the edges")
    for fmt, text in texts.items():
        if fmt == "json":
            doc = json.loads(text)
            got = [
                [(c["degree"], c["genus"], c["widths"]) for c in lv["components"]]
                for lv in doc["levels"]
            ]
            want = [
                [(c["degree"], c["genus"], sorted(c["widths"])) for c in lv["components"]]
                for lv in levels
            ]
            got = [got, len(doc["component_edges"]), [(o["level"], o["component"]) for o in doc["obstructed"]]]
            want = [want, len(summary["component_edges"]), [tuple(o) for o in summary["obstructed"]]]
        elif fmt == "dot":
            nodes = sum(1 for line in text.splitlines() if line.lstrip().startswith("comp_") and "[" in line)
            got, want = nodes, sum(len(lv["components"]) for lv in levels)
        else:
            lines = text.splitlines()
            got = [
                sum(1 for line in lines if line.startswith(f"- level {k} ("))
                for k in range(len(levels))
            ] + [sum(1 for line in lines if line.startswith("- obstructed:"))]
            want = [1] * len(levels) + [len(summary["obstructed"])]
        if got != want:
            errors.append(f"{where}: {fmt} tower output disagrees with the graph: {got} != {want}")
    return errors


def check_dihedral_tower(summary, ms: list[int], p: int, where: str) -> list[str]:
    """(m + m/p) phi(m) / 2 reduced classes in one component on every level."""
    errors = []
    for k, (lv, m) in enumerate(zip(summary["levels"], ms)):
        degrees = [c["degree"] for c in lv["components"]]
        want = dihedral_reduced_count(m, p)
        if degrees != [want]:
            errors.append(f"{where}: D({m}) has components {degrees}, expected one of degree {want}")
    return errors


# Literature values for ni(A4, C(3+,3-,x2)) at p = 2 with the SL(2,3) cover.
A4_LITERATURE = {
    "inner": 30,
    "reduced": 15,
    "degrees": [9, 6],
    "widths": [[2, 3, 4], [1, 1, 4]],
    "genera": [0, 0],
    "lifts": ["+1", "-1"],
}


def check_a4_values(summary, where: str, *, lifts: bool) -> list[str]:
    comps = summary["components"]
    got = {
        "inner": summary["inner"],
        "reduced": summary["reduced"],
        "degrees": [c["degree"] for c in comps],
        "widths": [sorted(c["widths"]) for c in comps],
        "genera": [c["genus"] for c in comps],
    }
    want = {k: v for k, v in A4_LITERATURE.items() if k != "lifts"}
    if lifts:
        got["lifts"] = [c["lift"] for c in comps]
        want["lifts"] = A4_LITERATURE["lifts"]
    if got != want:
        return [f"{where}: {got} != literature {want}"]
    return []


def check_a4_tower(summary, where: str) -> list[str]:
    """The A4 components with lifting invariant -1 are exactly the obstructed ones."""
    base = [c["degree"] for c in summary["levels"][0]["components"]]
    if base != A4_LITERATURE["degrees"]:
        return [f"{where}: base components {base} != {A4_LITERATURE['degrees']}"]
    minus = [(0, i) for i, s in enumerate(A4_LITERATURE["lifts"]) if s == "-1"]
    got = [tuple(o) for o in summary["obstructed"]]
    if got != minus:
        return [f"{where}: obstructed {got}, lifting invariants say {minus}"]
    return []


def check_component_count(summary, want: int, where: str) -> list[str]:
    got = len(summary["components"])
    return [] if got == want else [f"{where}: {got} components, expected {want}"]


def check_reduced_count(summary, want: int, where: str) -> list[str]:
    got = summary["reduced"]
    return [] if got == want else [f"{where}: {got} reduced classes, expected {want}"]
