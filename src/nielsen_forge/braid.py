"""The Hurwitz braid action, r=4 reduced classes, braid and cusp orbits.

Generators q_i twist adjacent entries; the reduced quotient additionally
mods out Q'' = <(q1 q2 q3)^2, q1 q3^-1>, which acts on inner classes as a
Klein 4-group.  Components are orbits of <gamma_inf, gamma_1> on reduced
classes, with gamma_inf = q2 and gamma_1 = sh; gamma_0 is derived from the
product-one relation gamma_0 gamma_1 gamma_inf = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import perm as P
from .errors import BraidInvariantBroken, ClassListEscape, RankNotFour
from .groups import FiniteGroup, orbit_of, partition_orbits
from .nielsen import (
    CanonicalContext,
    InnerClass,
    NielsenTuple,
    canonical_context,
)
from .perm import Perm

# A braid word is a sequence of (i, sign) pairs, i the 1-based twist index.
BraidWord = Sequence[tuple[int, int]]


def _twist(group: FiniteGroup, ids: tuple[int, ...], i: int, sign: int) -> tuple[int, ...]:
    """q_i (sign=+1) or its inverse on 0-based position i."""
    a, b = ids[i], ids[i + 1]
    if sign >= 0:
        pair = (group.conj(b, a), a)
    else:
        pair = (b, group.conj(a, group.inv[b]))
    return ids[:i] + pair + ids[i + 2 :]


def apply_braid_ids(
    group: FiniteGroup, ids: tuple[int, ...], word: BraidWord
) -> tuple[int, ...]:
    out = ids
    for i, sign in word:
        if not 1 <= i <= len(ids) - 1:
            raise ValueError(f"braid index q{i} out of range for r={len(ids)}")
        out = _twist(group, out, i - 1, sign)
    return out


def apply_braid(bg: NielsenTuple, word: BraidWord) -> NielsenTuple:
    """Twist the tuple by the word; product and class multiset are preserved."""
    group = bg.group
    out = apply_braid_ids(group, bg.ids, word)
    if group.word(out) != group.word(bg.ids):
        raise BraidInvariantBroken("braid broke the product")
    ctx = canonical_context(group)
    if sorted(ctx.class_min(x) for x in out) != sorted(
        ctx.class_min(x) for x in bg.ids
    ):
        raise BraidInvariantBroken("braid broke the class multiset")
    return NielsenTuple(group, out)


def _shift_ids(ids: tuple[int, ...]) -> tuple[int, ...]:
    """sh on inner classes: the cyclic shift (g2,...,gr,g1)."""
    return ids[1:] + ids[:1]


def _q13inv_ids(group: FiniteGroup, ids: tuple[int, ...]) -> tuple[int, ...]:
    return _twist(group, _twist(group, ids, 0, +1), 2, -1)


def _q2_moves(group: FiniteGroup, ctx: CanonicalContext):
    """Generators of Q'' on inner canonicals: sh^2 and q1 q3^-1."""
    return lambda t: (
        ctx.canon(_shift_ids(_shift_ids(t))),
        ctx.canon(_q13inv_ids(group, t)),
    )


def q2_variants(
    group: FiniteGroup, ctx: CanonicalContext, canon: tuple[int, ...]
) -> frozenset[tuple[int, ...]]:
    """Inner canonicals of the Q''-orbit through the given inner class."""
    return frozenset(orbit_of(canon, _q2_moves(group, ctx)))


@dataclass(slots=True)
class ReducedClass:
    """Class under conjugation together with Q'' (r=4 only), with the inner
    canonicals of q2 and sh applied to its canonical tuple and the positions,
    in the sorted list reduced_classes returns, of the classes holding them."""

    group: FiniteGroup
    canonical: tuple[int, ...]
    inner_canonicals: tuple[tuple[int, ...], ...]
    size: int
    q2_orbit_length: int
    q2_image: tuple[int, ...]
    sh_image: tuple[int, ...]
    q2_target: int
    sh_target: int

    @property
    def tuple(self) -> NielsenTuple:
        return NielsenTuple(self.group, self.canonical)


def _braid_table(
    group: FiniteGroup, keys: Sequence[tuple[int, ...]]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """sh and q2 on the sorted inner canonicals, one canon call per move, and
    the Q'' generators sh^2 and q1 q3^-1 = sh^-1 q2 sh sh q2^-1 sh^-1 (left
    to right; q1 = sh^-1 q2 sh and q3 = sh q2 sh^-1 hold on raw tuples)."""
    ctx = canonical_context(group)
    index = {t: i for i, t in enumerate(keys)}

    def target(ids: tuple[int, ...]) -> int:
        i = index.get(ctx.canon(ids))
        if i is None:
            raise ClassListEscape("braid action left the supplied inner class list")
        return i

    sh = [target(_shift_ids(t)) for t in keys]
    q2 = [target(_twist(group, t, 1, +1)) for t in keys]
    sh_inv, q2_inv = [0] * len(keys), [0] * len(keys)
    for i in range(len(keys)):
        sh_inv[sh[i]] = i
        q2_inv[q2[i]] = i
    sh2 = [sh[j] for j in sh]
    q13inv = [sh_inv[q2_inv[sh[sh[q2[j]]]]] for j in sh_inv]
    return sh, q2, sh2, q13inv


def reduced_classes(inner: Sequence[InnerClass]) -> list[ReducedClass]:
    """Merge inner classes, a list closed under sh and q2, under Q''."""
    if not inner:
        return []
    group = inner[0].group
    if len(inner[0].canonical) != 4:
        raise RankNotFour("reduced classes are defined for r = 4 only")
    inner = sorted(inner, key=lambda c: c.canonical)
    keys = [c.canonical for c in inner]
    sh, q2, sh2, q13inv = _braid_table(group, keys)
    orbits = partition_orbits(range(len(keys)), lambda i: (sh2[i], q13inv[i]))
    sizes = [c.orbit_size for c in inner]
    reduced_of = [0] * len(keys)
    for r, m in enumerate(orbits):
        for j in m:
            reduced_of[j] = r
    out = []
    for m in orbits:
        a = m[0]
        out.append(
            ReducedClass(
                group,
                keys[a],
                tuple(map(keys.__getitem__, m)),
                sum(map(sizes.__getitem__, m)),
                len(m),
                keys[q2[a]],
                keys[sh[a]],
                reduced_of[q2[a]],
                reduced_of[sh[a]],
            )
        )
    return out


def reduced_canonical(
    group: FiniteGroup, ctx: CanonicalContext, ids: tuple[int, ...]
) -> tuple[int, ...]:
    return min(q2_variants(group, ctx, ctx.canon(ids)))


class BraidOrbit:
    """Orbit of <gamma_inf, gamma_1> on reduced classes (one component).

    The classes come sorted by canonical; gamma_inf and gamma_1 index them.
    """

    def __init__(
        self,
        group: FiniteGroup,
        classes: Sequence[ReducedClass],
        gamma_inf: Perm,
        gamma_1: Perm,
    ):
        self.group = group
        self.classes = tuple(classes)
        self.members = tuple(c.canonical for c in self.classes)
        self.gamma_inf: Perm = tuple(gamma_inf)
        self.gamma_1: Perm = tuple(gamma_1)
        self.gamma_0: Perm = P.inverse(P.compose(self.gamma_1, self.gamma_inf))
        self._cusps: tuple[CuspOrbit, ...] | None = None
        self._hm: list[bool] | None = None

    @property
    def size(self) -> int:
        return len(self.members)

    def q2_lengths(self) -> list[int]:
        return [c.q2_orbit_length for c in self.classes]


def braid_orbits(reduced: Sequence[ReducedClass]) -> list[BraidOrbit]:
    """Partition reduced classes into components; deterministic order.

    ``reduced`` is the sorted list reduced_classes returned: gamma_inf = q2
    and gamma_1 = sh are its q2_target and sh_target positions, and
    components are the orbits of the two arrays.
    """
    if not reduced:
        return []
    group = reduced[0].group
    if len(reduced[0].canonical) != 4:
        raise RankNotFour("braid orbits on reduced classes need r = 4")
    try:
        escaped = any(
            c.q2_image not in reduced[c.q2_target].inner_canonicals
            or c.sh_image not in reduced[c.sh_target].inner_canonicals
            for c in reduced
        )
    except IndexError:
        escaped = True
    if escaped:
        raise ClassListEscape("braid action left the reduced class list")
    gamma_inf = [c.q2_target for c in reduced]
    gamma_1 = [c.sh_target for c in reduced]
    local = [0] * len(reduced)
    orbits = []
    for members in partition_orbits(
        range(len(reduced)), lambda i: (gamma_inf[i], gamma_1[i])
    ):
        for j, g in enumerate(members):
            local[g] = j
        orbits.append(
            BraidOrbit(
                group,
                [reduced[g] for g in members],
                [local[gamma_inf[g]] for g in members],
                [local[gamma_1[g]] for g in members],
            )
        )
    # stable: equal sizes keep the order of their least member
    orbits.sort(key=lambda o: -o.size)
    return orbits


class H3Orbit:
    """Orbit of H_3 = <q1, q2> on inner classes (r = 3; no reduction)."""

    def __init__(self, group: FiniteGroup, classes: Sequence[InnerClass]):
        self.group = group
        self.classes = tuple(sorted(classes, key=lambda c: c.canonical))
        self.members = tuple(c.canonical for c in self.classes)

    @property
    def size(self) -> int:
        return len(self.members)


def braid_orbits_r3(inner: Sequence[InnerClass]) -> list[H3Orbit]:
    if not inner:
        return []
    group = inner[0].group
    if len(inner[0].canonical) != 3:
        raise ValueError("H3 orbit mode needs r = 3")
    ctx = canonical_context(group)
    by_canon = {c.canonical: c for c in inner}
    orbits = [
        H3Orbit(group, [by_canon[t] for t in members])
        for members in partition_orbits(
            by_canon,
            lambda t: (ctx.canon(_twist(group, t, pos, +1)) for pos in (0, 1)),
            ClassListEscape("braid action left the inner class list"),
        )
    ]
    orbits.sort(key=lambda o: -o.size)
    return orbits


def absolute_reduced_classes(
    reduced: Sequence[ReducedClass], autos
) -> list[list[ReducedClass]]:
    """Merge reduced classes under entrywise automorphisms (absolute-reduced)."""
    if not reduced:
        return []
    group = reduced[0].group
    ctx = canonical_context(group)
    by_canon = {c.canonical: c for c in reduced}
    return [
        [by_canon[t] for t in members]
        for members in partition_orbits(
            by_canon,
            lambda t: (
                reduced_canonical(group, ctx, tuple(a.apply_id(x) for x in t))
                for a in autos
            ),
            ClassListEscape("automorphism left the reduced class list"),
        )
    ]


@dataclass(slots=True)
class CuspOrbit:
    """A gamma_inf orbit inside one braid orbit; its size is the width.

    Members are held both as canonicals and as positions in the orbit, in
    the same (ascending) order.
    """

    orbit: BraidOrbit
    member_canonicals: tuple[tuple[int, ...], ...]
    member_indices: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.member_indices)

    @property
    def group(self) -> FiniteGroup:
        return self.orbit.group


def cusp_orbits(orbit: BraidOrbit) -> tuple[CuspOrbit, ...]:
    """gamma_inf cycles, each one cusp; ordered by least member.

    The members are sorted by canonical, so position order is canonical
    order.  Computed once per orbit and kept on it.
    """
    if orbit._cusps is None:
        members = orbit.members
        orbit._cusps = tuple(
            CuspOrbit(orbit, tuple(members[i] for i in idx), idx)
            # P.cycles lists the cycles by least point
            for idx in (tuple(sorted(c)) for c in P.cycles(orbit.gamma_inf))
        )
    return orbit._cusps


def cusp_of(orbit: BraidOrbit) -> list[int]:
    """Position in cusp_orbits(orbit) of the cusp through each member."""
    out = [0] * orbit.size
    for j, cusp in enumerate(cusp_orbits(orbit)):
        for i in cusp.member_indices:
            out[i] = j
    return out
