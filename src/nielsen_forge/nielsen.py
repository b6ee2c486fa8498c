"""Nielsen classes: enumeration, inner/absolute quotients, rationality.

Tuples live on element IDs of the parent group.  Canonical forms are
lexicographic minima over simultaneous conjugation, computed stage-wise
through per-class transporter tables: the first entry is forced to its
class minimum, after which only the (usually tiny) centralizer of that
minimum remains to scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Iterable, Sequence

from .errors import ClassNotPreserved, ConfigError, NotAnAutomorphism
from .groups import (
    ConjClass,
    FiniteGroup,
    GroupHom,
    greedy_generators,
    orbit_of,
    partition_orbits,
)
from .perm import Perm

MAX_RANK = 8


class ClassMultiset:
    """Conjugacy classes with multiplicities; the branch-class datum C."""

    def __init__(self, entries: Sequence[tuple[ConjClass, int]]):
        if not entries:
            raise ConfigError("empty class multiset")
        group = entries[0][0].group
        for cls, mult in entries:
            if cls.group is not group:
                raise ConfigError("classes from different groups")
            if mult < 1:
                raise ConfigError("multiplicities must be positive")
            if cls.element_order == 1:
                raise ConfigError("identity class not allowed in C")
        self.group = group
        self.entries = tuple(entries)
        self.r = sum(m for _, m in entries)
        if self.r > MAX_RANK:
            raise ConfigError(f"r={self.r} exceeds the hard stop {MAX_RANK}")

    @property
    def classes_with_repeats(self) -> list[ConjClass]:
        out = []
        for cls, mult in self.entries:
            out.extend([cls] * mult)
        return out

    def label(self) -> str:
        return ",".join(f"{c.label()}:{m}" for c, m in self.entries)


@dataclass(frozen=True)
class NielsenTuple:
    """An r-tuple in C with product one whose entries generate the group."""

    group: FiniteGroup
    ids: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.ids)

    @property
    def perms(self) -> tuple[Perm, ...]:
        return tuple(self.group.perm(i) for i in self.ids)

    def __str__(self) -> str:
        from .perm import format_cycles

        return "(" + ", ".join(format_cycles(p) for p in self.perms) + ")"


class CanonicalContext:
    """Per-group transporter tables driving tuple canonicalization."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self._class_min: dict[int, int] = {}
        self._transporter: dict[int, int] = {}
        self._cent_of_min: dict[int, list[int]] = {}
        self._conjugators: dict[int, list[int]] = {}
        self._cent_orbits: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._pair_order: dict[tuple[int, ...], int] = {}

    def _prepare_class(self, x: int) -> None:
        g = self.group
        cls = g.class_of(x)
        m = cls.member_ids[0]
        trans = {m: g.identity_id}
        frontier = [m]
        while frontier:
            new = []
            for y in frontier:
                ty = trans[y]
                for gid in g.generator_ids:
                    z = g.conj(y, gid)
                    if z not in trans:
                        # conj(t_y * g^-1) carries z back to the minimum
                        trans[z] = g.mul(ty, g.inv[gid])
                        new.append(z)
            frontier = new
        for y, t in trans.items():
            self._class_min[y] = m
            self._transporter[y] = t
        self._cent_of_min[m] = [
            h for h in range(g.order) if g.conj(m, h) == m
        ]

    def class_min(self, x: int) -> int:
        if x not in self._class_min:
            self._prepare_class(x)
        return self._class_min[x]

    def conjugators_to_min(self, x: int) -> list[int]:
        """All h with h x h^-1 = class_min(x), as Cent(min) * transporter."""
        hs = self._conjugators.get(x)
        if hs is None:
            g, m = self.group, self.class_min(x)
            t = self._transporter[x]
            hs = self._conjugators[x] = [g.mul(z, t) for z in self._cent_of_min[m]]
        return hs

    def centralizer_orbits(self, m: int, cls: ConjClass) -> list[tuple[int, int]]:
        """(least member, stabilizer order) of each Cent(m)-orbit on cls,
        for a class minimum m; the orbits come from a greedy generating set
        of Cent(m), not from a scan of Cent(m) per member."""
        key = (m, cls.member_ids[0])
        out = self._cent_orbits.get(key)
        if out is None:
            g = self.group
            cent = self._cent_of_min[self.class_min(m)]
            gens = greedy_generators(g, cent)
            orbits = partition_orbits(
                cls.member_ids, lambda x: [g.conj(x, h) for h in gens]
            )
            out = self._cent_orbits[key] = [
                (o[0], len(cent) // len(o)) for o in orbits
            ]
        return out

    def pair_order(self, x: int, y: int) -> int:
        """|<x, y>|, one closure per conjugacy class of the sorted pair."""
        key = self.canon((x, y) if x <= y else (y, x))
        n = self._pair_order.get(key)
        if n is None:
            n = self._pair_order[key] = len(self.group.subgroup_closure(key))
        return n

    def canon(self, ids: Sequence[int]) -> tuple[int, ...]:
        """Lexicographic minimum of h * ids * h^-1 over all h in the group."""
        g = self.group
        cands = self.conjugators_to_min(ids[0])
        out = [self.class_min(ids[0])]
        for x in ids[1:]:
            best = None
            keep: list[int] = []
            for h in cands:
                v = g.conj(x, h)
                if best is None or v < best:
                    best = v
                    keep = [h]
                elif v == best:
                    keep.append(h)
            out.append(best)
            cands = keep
        return tuple(out)


def canonical_context(group: FiniteGroup) -> CanonicalContext:
    ctx = getattr(group, "_canon_ctx", None)
    if ctx is None:
        ctx = CanonicalContext(group)
        group._canon_ctx = ctx
    return ctx


@dataclass(slots=True)
class InnerClass:
    """Conjugation class of Nielsen tuples, held by its canonical tuple."""

    group: FiniteGroup
    canonical: tuple[int, ...]
    orbit_size: int


def _patterns(C: ClassMultiset) -> list[tuple[ConjClass, ...]]:
    """Distinct orderings of the class multiset."""
    from itertools import permutations

    classes = C.classes_with_repeats
    seen = set()
    out = []
    for pat in permutations(range(len(classes))):
        key = tuple(classes[i].member_ids[0] for i in pat)
        if key not in seen:
            seen.add(key)
            out.append(tuple(classes[i] for i in pat))
    return out


def generates(group: FiniteGroup, ids: Iterable[int]) -> bool:
    """Closure test with the Lagrange early exit (> |G|/2 means all of G)."""
    gens = sorted(set(ids))
    half = group.order // 2
    seen = {group.identity_id}
    frontier = [group.identity_id]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > half:
                        return True
                    new.append(y)
        frontier = new
    return len(seen) == group.order


def _product_one_candidates(
    group: FiniteGroup,
    pattern: Sequence[ConjClass],
    first_choices: Sequence[int],
    second_choices: Sequence[int] | None = None,
) -> list[tuple[int, ...]]:
    """Tuples in the given class order with product one (generation
    unchecked); the second entry runs over second_choices, by default all
    of its class."""
    r = len(pattern)
    inv = group.inv
    out: list[tuple[int, ...]] = []
    last_set = pattern[-1].member_set
    seconds = pattern[1].member_ids if second_choices is None else second_choices
    if r == 3:
        for a in first_choices:
            for b in seconds:
                c = inv[group.mul(a, b)]
                if c in last_set:
                    out.append((a, b, c))
    elif r == 4:
        for a in first_choices:
            row_a = group.mul_row(a)
            for b in seconds:
                row_ab = group.mul_row(row_a[b])
                for c in pattern[2].member_ids:
                    d = inv[row_ab[c]]
                    if d in last_set:
                        out.append((a, b, c, d))
    else:
        choices = [seconds] + [cls.member_ids for cls in pattern[2:]]

        def rec(prefix: tuple[int, ...], prod: int, depth: int) -> None:
            if depth == r - 1:
                last = inv[prod]
                if last in last_set:
                    out.append(prefix + (last,))
                return
            row = group.mul_row(prod)
            for x in choices[depth - 1]:
                rec(prefix + (x,), row[x], depth + 1)

        for a in first_choices:
            rec((a,), a, 1)
    return out


def enumerate_nielsen(group: FiniteGroup, C: ClassMultiset) -> list[NielsenTuple]:
    """All tuples in C with product one generating the group.

    Generation is conjugation-invariant, so it is checked once per
    conjugation orbit and the verdict applied to the whole orbit.
    """
    if C.group is not group:
        raise ConfigError("class multiset belongs to a different group")
    if C.r < 3:
        raise ConfigError("Nielsen classes need r >= 3")
    keep: list[tuple[int, ...]] = []
    verdict: dict[tuple[int, ...], bool] = {}
    for pattern in _patterns(C):
        for ids in _product_one_candidates(group, pattern, pattern[0].member_ids):
            if ids in verdict:
                if verdict[ids]:
                    keep.append(ids)
                continue
            ok = generates(group, ids)
            orbit = _conjugation_orbit(group, ids)
            for t in orbit:
                verdict[t] = ok
            if ok:
                keep.append(ids)
    keep.sort()
    return [NielsenTuple(group, ids) for ids in keep]


def _conjugation_orbit(
    group: FiniteGroup, ids: tuple[int, ...]
) -> set[tuple[int, ...]]:
    return orbit_of(
        ids,
        lambda t: (tuple(group.conj(x, g) for x in t) for g in group.generator_ids),
    )


def inner_classes(tuples: Sequence[NielsenTuple]) -> list[InnerClass]:
    """Group tuples from one (G, C) into conjugation classes."""
    if not tuples:
        return []
    group = tuples[0].group
    seen: set[tuple[int, ...]] = set()
    out = []
    for t in tuples:
        if t.ids in seen:
            continue
        orbit = _conjugation_orbit(group, t.ids)
        seen |= orbit
        out.append(InnerClass(group, min(orbit), len(orbit)))
    out.sort(key=lambda c: c.canonical)
    return out


def nielsen_inner_classes(
    group: FiniteGroup,
    C: ClassMultiset,
    below: tuple[GroupHom, Iterable[tuple[int, ...]]] | None = None,
) -> list[InnerClass]:
    """Inner classes of ni(G, C) without materializing every raw tuple.

    Every conjugation orbit contains tuples whose first entry is the class
    minimum m of its slot, and two such tuples are conjugate exactly under
    Cent(m).  So the second entry b runs only over the least member of each
    Cent(m)-orbit on its class, and the tuples left are conjugate exactly
    under Stab(b) = Cent(m) & Cent(b).  When |Stab(b)| = |Cent(m)| / |orbit|
    equals |Z(G)|, Stab(b) is the center, which fixes every tuple, so each
    tuple is its own lexicographic minimum and is not canonicalized; the
    other candidates are.  Deduplicating by canonical form gives the same
    classes as ``inner_classes(enumerate_nielsen(...))``, and generation is
    tested once per form.  A generating tuple is fixed under conjugation
    exactly by the center, so every class has orbit size |G| / |Z(G)|.

    ``below = (psi, lower canonicals)`` lifts them instead through psi, a
    Frattini cover with C the matched p' classes (``_frattini_lifts``).
    """
    if C.group is not group:
        raise ConfigError("class multiset belongs to a different group")
    if C.r < 3:
        raise ConfigError("Nielsen classes need r >= 3")
    ctx = canonical_context(group)
    z = len(group.center_ids())
    orbit_size = group.order // z
    if below is not None:
        lifts = _frattini_lifts(group, C, *below)
        return [InnerClass(group, canon, orbit_size) for canon in sorted(lifts)]
    verdict: dict[tuple[int, ...], bool] = {}
    gen_cache: dict[frozenset[int], bool] = {}

    def cached_generates(ids: tuple[int, ...]) -> bool:
        key = frozenset(ids)
        ok = gen_cache.get(key)
        if ok is None:
            ok = gen_cache[key] = generates(group, ids)
        return ok

    for pattern in _patterns(C):
        m = pattern[0].member_ids[0]
        reps = ctx.centralizer_orbits(m, pattern[1])
        free = {b for b, stab in reps if stab == z}
        seconds = [b for b, _ in reps]
        for ids in _product_one_candidates(group, pattern, (m,), seconds):
            canon = ids if ids[1] in free else ctx.canon(ids)
            if canon not in verdict:
                # a tuple generates if one pair (m, x) does; the pair
                # closures are few and shared, so the full test is last
                verdict[canon] = any(
                    cached_generates((m, x)) for x in ids[1:]
                ) or cached_generates(ids)
    return [
        InnerClass(group, canon, orbit_size)
        for canon, ok in sorted(verdict.items())
        if ok
    ]


def _frattini_lifts(group: FiniteGroup, C: ClassMultiset, psi: GroupHom, lower) -> set:
    """Canonical forms of the product-one tuples T in C with psi(T) lower.

    Every class has such a T, and a lift of a generating tuple through a
    Frattini cover generates, so nothing is tested.  The p' lifts of t1 in
    its class are conjugate under ker psi (Schur-Zassenhaus), which fixes
    psi(T), so T1 is one fixed lift; the last entry is forced.
    """
    ctx = canonical_context(group)
    members = {x for cls, _ in C.entries for x in cls.member_ids}
    fiber: dict[int, list[int]] = {}
    for x in sorted(members):
        fiber.setdefault(psi.full_map[x], []).append(x)
    out = set()
    for t in lower:
        first = fiber[t[0]][0]
        for mid in product(*(fiber[x] for x in t[1:-1])):
            last = group.inv[group.word((first, *mid))]
            # psi(last) = t[-1], so last is in the matched class iff in C
            if last in members:
                out.add(ctx.canon((first, *mid, last)))
    return out


def absolute_classes(
    classes: Sequence[InnerClass], autos: Sequence[GroupHom]
) -> list[list[InnerClass]]:
    """Merge inner classes under the entrywise action of <autos>.

    Returns the partition: one bucket (sorted by canonical) per absolute
    class.  Each map must be an automorphism preserving every class that
    occurs in the tuples.
    """
    if not classes:
        return []
    group = classes[0].group
    for a in autos:
        if a.source is not group or a.target is not group:
            raise NotAnAutomorphism("automorphisms must map the group to itself")
        if not (a.is_surjective and a.is_injective):
            raise NotAnAutomorphism("map is not bijective")
    ctx = canonical_context(group)
    # each map must fix the class multiset of every tuple (it may permute
    # the classes among themselves)
    for a in autos:
        for cls in classes:
            before = sorted(ctx.class_min(x) for x in cls.canonical)
            after = sorted(
                ctx.class_min(a.apply_id(x)) for x in cls.canonical
            )
            if before != after:
                raise ClassNotPreserved(
                    "automorphism does not preserve the class multiset"
                )
    by_canon = {cls.canonical: cls for cls in classes}
    return [
        [by_canon[t] for t in members]
        for members in partition_orbits(
            by_canon,
            lambda t: (ctx.canon(tuple(a.apply_id(x) for x in t)) for a in autos),
            ClassNotPreserved("automorphism leads outside the class list"),
        )
    ]


def check_rationality(C: ClassMultiset, n: int) -> bool:
    """True iff raising classes to the n-th power permutes C to itself.

    n must be invertible modulo every class element order, so powering
    permutes the classes of each order.
    """
    for cls, _ in C.entries:
        if gcd(n, cls.element_order) != 1:
            raise ConfigError(
                f"n = {n} is not coprime to the class order {cls.element_order}"
            )
    before = sorted(
        (c.member_ids[0], m) for c, m in _collect_multiplicities(C).items()
    )
    after_counts: dict[int, int] = {}
    for cls, mult in _collect_multiplicities(C).items():
        target = cls.power(n)
        after_counts[target.member_ids[0]] = (
            after_counts.get(target.member_ids[0], 0) + mult
        )
    after = sorted(after_counts.items())
    return before == after


def _collect_multiplicities(C: ClassMultiset) -> dict[ConjClass, int]:
    out: dict[ConjClass, int] = {}
    for cls, mult in C.entries:
        out[cls] = out.get(cls, 0) + mult
    return out
