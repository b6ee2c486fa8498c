"""Nielsen classes: enumeration, inner/absolute quotients, rationality.

Tuples live on element IDs of the parent group.  Canonical forms are
lexicographic minima over simultaneous conjugation, computed stage-wise:
the first entry is forced to its class minimum m, after which only the
(usually tiny) centralizer of m remains to scan.  One scan of h m h^-1
over the group gives each class both its transporters to m and Cent(m).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import ClassNotPreserved, ConfigError, NotAnAutomorphism
from .groups import (
    ConjClass,
    FiniteGroup,
    GroupHom,
    greedy_generators,
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
    """Per-group transporter tables driving tuple canonicalization.

    A class is prepared on first use by one scan of h m h^-1 over the
    group, m its minimum: the first h reaching y gives y the transporter
    h^-1 back to m, and the h fixing m make up Cent(m).
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self._class_min: dict[int, int] = {}
        self._transporter: dict[int, int] = {}
        self._cent_of_min: dict[int, list[int]] = {}
        self._cent_orbits: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._pair_order: dict[tuple[int, ...], int] = {}
        self._raw_pair_order: dict[tuple[int, int], int] = {}
        self._heads: dict[int, tuple[int, list[tuple]]] = {}
        # tuples canonicalized so far, by canon and canon_many alike
        self.canonicalized = 0

    def _prepare_class(self, x: int) -> None:
        g = self.group
        tab = g.mul_table
        m = g.class_of(x).member_ids[0]
        cent, trans = [], {m: g.identity_id}
        for h, hi in enumerate(g.inv):
            y = tab[tab[h][m]][hi]
            if y == m:
                cent.append(h)
            elif y not in trans:
                trans[y] = hi
        self._cent_of_min[m] = cent
        self._transporter.update(trans)
        self._class_min.update(dict.fromkeys(trans, m))

    def class_min(self, x: int) -> int:
        if x not in self._class_min:
            self._prepare_class(x)
        return self._class_min[x]

    def centralizer_orbits(self, m: int, cls: ConjClass) -> list[tuple[int, int]]:
        """(least member, stabilizer order) of each Cent(m)-orbit on cls,
        for a class minimum m; the orbits come from a greedy generating set
        of Cent(m), not from a scan of Cent(m) per member."""
        key = (m, cls.member_ids[0])
        out = self._cent_orbits.get(key)
        if out is None:
            g = self.group
            cent = self._cent_of_min[self.class_min(m)]
            ids = cls.member_ids
            pos = {x: i for i, x in enumerate(ids)}
            orbits = partition_orbits(
                range(len(ids)),
                [[pos[g.conj(x, h)] for x in ids] for h in greedy_generators(g, cent)],
            )
            out = self._cent_orbits[key] = [
                (ids[o[0]], len(cent) // len(o)) for o in orbits
            ]
        return out

    def pair_order(self, x: int, y: int) -> int:
        """|<x, y>|, one closure per conjugacy class of the sorted pair and
        one canonicalization per sorted pair."""
        raw = (x, y) if x <= y else (y, x)
        n = self._raw_pair_order.get(raw)
        if n is None:
            key = self.canon(raw)
            n = self._pair_order.get(key)
            if n is None:
                n = self._pair_order[key] = len(self.group.subgroup_closure(key))
            self._raw_pair_order[raw] = n
        return n

    @cached_property
    def center(self) -> list[int]:
        return self.group.center_ids()

    def _head(self, x: int) -> tuple[int, list[tuple]]:
        """class_min(x) and the conjugators h to it, Cent(min) * transporter,
        one per coset of the center (h and hz conjugate alike), as pairs
        (row, h^-1): row is the table row of h, so h y h^-1 is
        tab[row[y]][h^-1]."""
        g = self.group
        tab, inv, mul = g.mul_table, g.inv, g.mul
        m = self.class_min(x)
        t = self._transporter[x]
        hs = [mul(z, t) for z in self._cent_of_min[m]]
        central = [z for z in self.center if z != g.identity_id]
        head = self._heads[x] = (
            m,
            [(tab[h], inv[h]) for h in hs if all(h <= mul(h, z) for z in central)],
        )
        return head

    def canon(self, ids: Sequence[int]) -> tuple[int, ...]:
        """Lexicographic minimum of h * ids * h^-1 over all h in the group."""
        return next(self.canon_many((ids,)))

    def canon_many(
        self, tuples: Iterable[Sequence[int]]
    ) -> Iterator[tuple[int, ...]]:
        """canon of each tuple, in one loop, yielded as the tuples are read,
        so that neither the inputs nor the forms need be held at once.

        The first entry x leaves h free in the conjugators to class_min(x).
        The second entry picks the h giving its least image, and the rest
        are conjugated by that h.  Only when several h tie there is the
        stagewise minimum carried on to the next entry.
        """
        g = self.group
        tab = g.mul_table
        heads, top = self._heads, g.order
        for ids in tuples:
            self.canonicalized += 1
            m, keep = heads.get(ids[0]) or self._head(ids[0])
            t = [m]
            chosen = keep[0]
            k = 1
            for y in ids[1:]:
                k += 1
                best = top
                tied = False
                for pair in keep:
                    row, hi = pair
                    v = tab[row[y]][hi]
                    if v < best:
                        best = v
                        chosen = pair
                        tied = False
                    elif v == best:
                        tied = True
                t.append(best)
                if not tied:
                    break
                keep = [
                    (row, hi)
                    for row, hi in keep
                    if best == tab[row[y]][hi]
                ]
            row, hi = chosen
            for y in ids[k:]:
                t.append(tab[row[y]][hi])
            yield tuple(t)


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


class ClassColumns(SequenceABC):
    """The classes of one level held as columns.  A class record is a view
    built on access, a slice is a list of views, and two levels compare
    equal by their columns, the slots not named with an underscore."""

    __slots__ = ()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._view, range(len(self))[i]))
        return self._view(range(len(self))[i])

    def __add__(self, other):
        return list(self) + list(other)

    def __eq__(self, other):
        columns = [a for a in self.__slots__ if a[0] != "_"]
        return type(other) is type(self) and all(
            getattr(self, a) == getattr(other, a) for a in columns
        )


class InnerClasses(ClassColumns):
    """The inner classes of one level: their canonicals, sorted, and the one
    conjugation orbit size |G| / |Z(G)| of a generating tuple."""

    __slots__ = ("group", "canonicals", "orbit_size")

    def __init__(self, group: FiniteGroup, canonicals: list, orbit_size: int):
        self.group, self.canonicals, self.orbit_size = group, canonicals, orbit_size

    @classmethod
    def of(cls, classes: Sequence[InnerClass]) -> InnerClasses:
        """The columns of InnerClass records of one level, in any order."""
        sizes = {c.orbit_size for c in classes}
        if len(sizes) != 1:
            raise ConfigError("the inner classes of one level share one orbit size")
        return cls(classes[0].group, sorted(c.canonical for c in classes), sizes.pop())

    def __len__(self) -> int:
        return len(self.canonicals)

    def _view(self, i: int) -> InnerClass:
        return InnerClass(self.group, self.canonicals[i], self.orbit_size)


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
    gens, tab = sorted(set(ids)), group.mul_table
    half = group.order // 2
    seen = {group.identity_id}
    frontier = [group.identity_id]
    while frontier:
        new = []
        for x in frontier:
            row = tab[x]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    if len(seen) > half:
                        return True
                    new.append(y)
        frontier = new
    return len(seen) == group.order


def _product_one(
    group: FiniteGroup,
    first: Iterable[int],
    middles: Sequence[Sequence[int]],
    last_set: frozenset[int] | set[int],
) -> list[tuple[int, ...]]:
    """Tuples (a, y_1, ..., y_k, z) with product one, a in first, y_i in
    middles[i - 1] and z in last_set, in lexicographic order of the choices.

    Prefixes and their products grow one level at a time over table rows;
    the last middle level and the forced last entry share the final loop.
    """
    tab, inv = group.mul_table, group.inv
    prefixes = [((a,), a) for a in first]
    for choices in middles[:-1]:
        longer = []
        for pre, p in prefixes:
            row = tab[p]
            longer += [(pre + (y,), row[y]) for y in choices]
        prefixes = longer
    out = []
    for pre, p in prefixes:
        row = tab[p]
        for y in middles[-1]:
            z = inv[row[y]]
            if z in last_set:
                out.append(pre + (y, z))
    return out


def _product_one_candidates(
    group: FiniteGroup,
    pattern: Sequence[ConjClass],
    first_choices: Sequence[int],
    second_choices: Sequence[int] | None = None,
) -> list[tuple[int, ...]]:
    """Tuples in the given class order with product one (generation
    unchecked); the second entry runs over second_choices, by default all
    of its class."""
    seconds = pattern[1].member_ids if second_choices is None else second_choices
    middles = [seconds] + [cls.member_ids for cls in pattern[2:-1]]
    return _product_one(group, first_choices, middles, pattern[-1].member_set)


def _generating_orbits(group: FiniteGroup, C: ClassMultiset) -> list[list[tuple]]:
    """Conjugation orbits of the product-one tuples in C that generate the
    group, each sorted, in order of least member.

    The candidates are listed once, sorted; each generator of the group
    moves them as one index array for one partition_orbits, and generation
    is tested once per orbit, as it is conjugation-invariant.  No canonical
    form is taken, so this stays a reference independent of canon.
    """
    if C.group is not group:
        raise ConfigError("class multiset belongs to a different group")
    if C.r < 3:
        raise ConfigError("Nielsen classes need r >= 3")
    cands = sorted(
        chain.from_iterable(
            _product_one_candidates(group, pattern, pattern[0].member_ids)
            for pattern in _patterns(C)
        )
    )
    pos = {t: i for i, t in enumerate(cands)}
    moves = []
    for h in group.generator_ids:
        conj = [group.conj(x, h) for x in range(group.order)]
        moves.append([pos[tuple(map(conj.__getitem__, t))] for t in cands])
    return [
        [cands[i] for i in orbit]
        for orbit in partition_orbits(range(len(cands)), moves)
        if generates(group, cands[orbit[0]])
    ]


def enumerate_nielsen(group: FiniteGroup, C: ClassMultiset) -> list[NielsenTuple]:
    """All tuples in C with product one generating the group, sorted."""
    tuples = sorted(chain.from_iterable(_generating_orbits(group, C)))
    return [NielsenTuple(group, ids) for ids in tuples]


def inner_classes(group: FiniteGroup, C: ClassMultiset) -> list[InnerClass]:
    """Conjugation classes of ni(G, C), each held by its least tuple, from
    the raw tuples: the reference for nielsen_inner_classes."""
    return [
        InnerClass(group, orbit[0], len(orbit))
        for orbit in _generating_orbits(group, C)
    ]


def nielsen_inner_classes(
    group: FiniteGroup,
    C: ClassMultiset,
    below: tuple[GroupHom, Iterable[tuple[int, ...]]] | None = None,
) -> InnerClasses:
    """Inner classes of ni(G, C) without materializing every raw tuple.

    Every conjugation orbit contains tuples whose first entry is the class
    minimum m of its slot, and two such tuples are conjugate exactly under
    Cent(m).  So the second entry b runs only over the least member of each
    Cent(m)-orbit on its class, and the tuples left are conjugate exactly
    under Stab(b) = Cent(m) & Cent(b).  When |Stab(b)| = |Cent(m)| / |orbit|
    equals |Z(G)|, Stab(b) is the center, which fixes every tuple, so each
    tuple is its own lexicographic minimum and is not canonicalized; the
    other candidates of a pattern go through one canon_many pass.
    Deduplicating by canonical form gives the same classes as
    ``inner_classes(group, C)``, and generation is tested once per form.
    A generating tuple is fixed under conjugation exactly by the center,
    so every class has orbit size |G| / |Z(G)|.

    ``below = (psi, lower canonicals)`` lifts them instead through psi, a
    Frattini cover with C the matched p' classes (``_frattini_lifts``).
    """
    if C.group is not group:
        raise ConfigError("class multiset belongs to a different group")
    if C.r < 3:
        raise ConfigError("Nielsen classes need r >= 3")
    ctx = canonical_context(group)
    z = len(ctx.center)
    orbit_size = group.order // z
    if below is not None:
        lifts = _frattini_lifts(group, C, *below)
        return InnerClasses(group, sorted(lifts), orbit_size)
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
        cands = _product_one_candidates(group, pattern, (m,), seconds)
        fixed = [ids for ids in cands if ids[1] in free]
        moved = [ids for ids in cands if ids[1] not in free]
        # a form keeps its candidate's second entry, the least of its
        # Cent(m)-orbit, so no form comes from both lists and each form
        # still meets first the same raw tuple as in one pass
        forms = chain(zip(fixed, fixed), zip(moved, ctx.canon_many(moved)))
        for ids, canon in forms:
            if canon not in verdict:
                # a tuple generates if one pair (m, x) does; the pair
                # closures are few and shared, so the full test is last
                verdict[canon] = any(
                    cached_generates((m, x)) for x in ids[1:]
                ) or cached_generates(ids)
    return InnerClasses(
        group, [canon for canon, ok in sorted(verdict.items()) if ok], orbit_size
    )


def _frattini_lifts(group: FiniteGroup, C: ClassMultiset, psi: GroupHom, lower) -> set:
    """Canonical forms of the product-one tuples T in C with psi(T) lower.

    Every class has such a T, and a lift of a generating tuple through a
    Frattini cover generates, so nothing is tested.  The p' lifts of t1 in
    its class are conjugate under ker psi (Schur-Zassenhaus), which fixes
    psi(T), so T1 is one fixed lift; the last entry is forced.
    """
    ctx = canonical_context(group)
    members = {x for cls, _ in C.entries for x in cls.member_ids}
    fiber = [[x for x in f if x in members] for f in psi.fibers]

    # psi(last) = t[-1], so the last entry is in the matched class iff in C
    lifts = (
        _product_one(group, fiber[t[0]][:1], [fiber[x] for x in t[1:-1]], members)
        for t in lower
    )
    return set(ctx.canon_many(chain.from_iterable(lifts)))


def check_automorphisms(
    group: FiniteGroup, autos: Sequence[GroupHom], tuples: Iterable[tuple[int, ...]]
) -> None:
    """Raise unless each map is an automorphism of group that fixes the class
    multiset of every tuple (it may permute the classes among themselves)."""
    for a in autos:
        if a.source is not group or a.target is not group:
            raise NotAnAutomorphism("automorphisms must map the group to itself")
        if not (a.is_surjective and a.is_injective):
            raise NotAnAutomorphism("map is not bijective")
    ctx = canonical_context(group)
    for t in tuples:
        before = sorted(map(ctx.class_min, t))
        for a in autos:
            if sorted(ctx.class_min(a.apply_id(x)) for x in t) != before:
                raise ClassNotPreserved(
                    "automorphism does not preserve the class multiset"
                )


def automorphism_orbits(
    classes: Sequence,
    position: dict[tuple[int, ...], int],
    autos: Sequence[GroupHom],
    escape: Exception,
) -> list[list]:
    """Merge classes, sorted by canonical, under the entrywise action of
    <autos>: one bucket per orbit, in order of least canonical.

    The maps pass check_automorphisms, the images of every canonical go
    through one canon_many call, and position gives the place in classes
    of each image; an image it lacks raises escape.
    """
    if not classes:
        return []
    group = classes[0].group
    keys = [c.canonical for c in classes]
    check_automorphisms(group, autos, keys)
    images = canonical_context(group).canon_many(
        tuple(map(a.apply_id, t)) for a in autos for t in keys
    )
    try:
        moved = list(map(position.__getitem__, images))
    except KeyError:
        raise escape from None
    n = len(keys)
    arrays = [moved[k : k + n] for k in range(0, len(moved), n)]
    return [[classes[i] for i in m] for m in partition_orbits(range(n), arrays)]


def absolute_classes(
    classes: Sequence[InnerClass], autos: Sequence[GroupHom]
) -> list[list[InnerClass]]:
    """Merge inner classes under the entrywise action of <autos>.

    Returns the partition: one bucket (sorted by canonical) per absolute
    class.  Each map must be an automorphism preserving every class that
    occurs in the tuples.
    """
    by_canon = {cls.canonical: cls for cls in classes}
    keys = sorted(by_canon)
    return automorphism_orbits(
        [by_canon[t] for t in keys],
        {t: i for i, t in enumerate(keys)},
        autos,
        ClassNotPreserved("automorphism leads outside the class list"),
    )


def check_rationality(C: ClassMultiset, n: int) -> bool:
    """True iff raising classes to the n-th power permutes C to itself.

    n must be invertible modulo every class element order, so powering
    permutes the classes of each order.
    """
    before, after = Counter(), Counter()
    for cls, mult in C.entries:
        if gcd(n, cls.element_order) != 1:
            raise ConfigError(
                f"n = {n} is not coprime to the class order {cls.element_order}"
            )
        before[cls.member_ids[0]] += mult
        after[cls.power(n).member_ids[0]] += mult
    return before == after
