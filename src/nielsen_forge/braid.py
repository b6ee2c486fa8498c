"""The Hurwitz braid action, r=4 reduced classes, braid and cusp orbits.

Generators q_i twist adjacent entries; the reduced quotient additionally
mods out Q'' = <(q1 q2 q3)^2, q1 q3^-1>, which acts on inner classes as a
Klein 4-group.  Components are orbits of <gamma_inf, gamma_1> on reduced
classes, with gamma_inf = q2 and gamma_1 = sh; gamma_0 is derived from the
product-one relation gamma_0 gamma_1 gamma_inf = 1.  Every braid action is
read off one table of sh and q2 on a level's sorted inner canonicals.  For
r = 3 there is no reduction, and the H3 = <q1, q2> orbits on inner classes
are BraidOrbits of the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterator, Sequence

from . import perm as P
from .errors import BraidInvariantBroken, ClassListEscape, ConfigError, RankNotFour
from .groups import FiniteGroup, partition_orbits
from .nielsen import (
    ClassColumns,
    InnerClass,
    InnerClasses,
    NielsenTuple,
    automorphism_orbits,
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


@dataclass(slots=True)
class ReducedClass:
    """Class under conjugation together with Q'' (r=4 only), with its own
    position and the positions of the classes holding q2 and sh of its
    canonical tuple, all in the record reduced_classes returns."""

    group: FiniteGroup
    inner_canonicals: tuple[tuple[int, ...], ...]
    size: int
    position: int
    q2_target: int
    sh_target: int

    @property
    def canonical(self) -> tuple[int, ...]:
        return self.inner_canonicals[0]


class ReducedClasses(ClassColumns):
    """The reduced classes of one level as flat columns.

    ``inner`` holds the level's inner canonicals, sorted when reduced_classes
    built the record; class r holds those at positions members[starts[r] :
    starts[r + 1]], ascending, and ``reduced_of`` maps an inner position back
    to its class.  q2[r] and sh[r] are the classes holding q2 and sh of the
    canonical of class r, its least inner canonical.
    """

    __slots__ = (
        "group", "inner", "orbit_size", "members", "starts", "reduced_of",
        "canonicals", "q2", "sh", "_hm",
    )

    def __init__(self, group, inner, orbit_size, members, starts, reduced_of, q2, sh):
        self.group, self.inner, self.orbit_size = group, inner, orbit_size
        self.members, self.starts, self.reduced_of = members, starts, reduced_of
        self.canonicals = [inner[members[s]] for s in starts[:-1]]
        self.q2, self.sh = q2, sh
        self._hm: list[bool] | None = None

    def __len__(self) -> int:
        return len(self.canonicals)

    def inner_canonicals(self, r: int) -> tuple[tuple[int, ...], ...]:
        members = self.members[self.starts[r] : self.starts[r + 1]]
        return tuple(map(self.inner.__getitem__, members))

    def _view(self, r: int) -> ReducedClass:
        ts = self.inner_canonicals(r)
        return ReducedClass(
            self.group, ts, self.orbit_size * len(ts), r, self.q2[r], self.sh[r]
        )


def _braid_table(
    group: FiniteGroup, keys: Sequence[tuple[int, ...]]
) -> tuple[list[int], list[int]]:
    """sh and q2 on the sorted inner canonicals of any rank r >= 3, as
    position arrays, all images canonicalized in one canon_many call."""
    tab, inv = group.mul_table, group.inv
    images = canonical_context(group).canon_many(
        chain(
            (t[1:] + t[:1] for t in keys),
            # q2 = (t1, t2 t3 t2^-1, t2, ...)
            ((t[0], tab[tab[t[1]][t[2]]][inv[t[1]]], t[1]) + t[3:] for t in keys),
        )
    )
    index = {t: i for i, t in enumerate(keys)}
    try:
        moved = list(map(index.__getitem__, images))
    except KeyError:
        raise ClassListEscape(
            "braid action left the supplied inner class list"
        ) from None
    n = len(keys)
    return moved[:n], moved[n:]


def _q2_generators(sh: list[int], q2: list[int]) -> tuple[list[int], list[int]]:
    """The Q'' generators sh^2 and q1 q3^-1 = sh^-1 q2 sh sh q2^-1 sh^-1 (left
    to right; q1 = sh^-1 q2 sh and q3 = sh q2 sh^-1 hold on raw tuples) from
    the r = 4 sh/q2 table."""
    n = len(sh)
    sh_inv, q2_inv = [0] * n, [0] * n
    for i in range(n):
        sh_inv[sh[i]] = i
        q2_inv[q2[i]] = i
    return [sh[j] for j in sh], [sh_inv[q2_inv[sh[sh[q2[j]]]]] for j in sh_inv]


def reduced_classes(inner: InnerClasses) -> ReducedClasses:
    """Merge inner classes, a level closed under sh and q2, under Q''; the
    classes come sorted by canonical, as one ReducedClasses record."""
    keys = inner.canonicals
    if keys and len(keys[0]) != 4:
        raise RankNotFour("reduced classes are defined for r = 4 only")
    sh, q2 = _braid_table(inner.group, keys)
    orbits = partition_orbits(range(len(keys)), _q2_generators(sh, q2))
    reduced_of = [0] * len(keys)
    for r, m in enumerate(orbits):
        for j in m:
            reduced_of[j] = r
    firsts = [m[0] for m in orbits]
    return ReducedClasses(
        inner.group,
        keys,
        inner.orbit_size,
        list(chain.from_iterable(orbits)),
        list(accumulate(map(len, orbits), initial=0)),
        reduced_of,
        [reduced_of[q2[a]] for a in firsts],
        [reduced_of[sh[a]] for a in firsts],
    )


class BraidOrbit:
    """Orbit of <gamma_inf, gamma_1> on reduced classes (one component).

    The orbit holds the ascending positions of its classes in the level
    record; members are their canonicals, and gamma_inf and gamma_1 index
    them.  For r = 3 the level is the inner classes, with gamma_inf = q2
    and gamma_1 = sh, and the orbit is one of H3 = <q1, q2>.
    """

    def __init__(
        self,
        level: ReducedClasses | InnerClasses,
        positions: Sequence[int],
        gamma_inf: Perm,
        gamma_1: Perm,
    ):
        self.group = level.group
        self.level = level
        self.positions = tuple(positions)
        self.members = tuple(map(level.canonicals.__getitem__, positions))
        self.gamma_inf: Perm = tuple(gamma_inf)
        self.gamma_1: Perm = tuple(gamma_1)
        self.gamma_0: Perm = P.inverse(P.compose(self.gamma_1, self.gamma_inf))
        self._cusps: tuple[CuspOrbit, ...] | None = None

    @property
    def classes(self) -> Iterator[ReducedClass | InnerClass]:
        """The views of the orbit's classes, built one at a time as they
        are read."""
        return map(self.level._view, self.positions)

    @property
    def size(self) -> int:
        return len(self.members)

    def q2_lengths(self) -> list[int]:
        starts = self.level.starts
        return [starts[r + 1] - starts[r] for r in self.positions]


def _orbits(level, q2, sh, escape=None) -> list[BraidOrbit]:
    """Orbits of the position arrays q2 = gamma_inf and sh = gamma_1 on the
    level's sorted classes, re-indexed locally; larger first, ties by least
    member."""
    local = [0] * len(level)
    orbits = []
    for members in partition_orbits(range(len(level)), (q2, sh), escape):
        for j, g in enumerate(members):
            local[g] = j
        orbits.append(
            BraidOrbit(
                level,
                members,
                [local[q2[g]] for g in members],
                [local[sh[g]] for g in members],
            )
        )
    orbits.sort(key=lambda o: -o.size)  # stable
    return orbits


def braid_orbits(reduced: ReducedClasses) -> list[BraidOrbit]:
    """Partition reduced classes into components; deterministic order.

    ``reduced`` is the record reduced_classes returned: gamma_inf = q2 and
    gamma_1 = sh are its q2 and sh target positions, and components are
    the orbits of the two arrays.
    """
    escape = ClassListEscape("braid action left the reduced class list")
    return _orbits(reduced, reduced.q2, reduced.sh, escape)


def braid_orbits_r3(inner: InnerClasses) -> list[BraidOrbit]:
    """H3 orbits, the orbits of the sh/q2 table: for r = 3, sh = q1 q2 on
    inner classes, so <sh, q2> = <q1, q2>."""
    keys = inner.canonicals
    if keys and len(keys[0]) != 3:
        raise ConfigError("H3 orbit mode needs r = 3")
    sh, q2 = _braid_table(inner.group, keys)
    return _orbits(inner, q2, sh)


def absolute_reduced_classes(
    reduced: Sequence[ReducedClass], autos
) -> list[list[ReducedClass]]:
    """Merge reduced classes under entrywise automorphisms (absolute-reduced).

    Each map must be an automorphism preserving the class multiset of the
    tuples, as for absolute_classes; the image of each class is found by
    its canonical inner class.  A repeated class is kept once.
    """
    by_canon = {c.canonical: c for c in reduced}
    reduced = [by_canon[t] for t in sorted(by_canon)]
    return automorphism_orbits(
        reduced,
        {t: r for r, c in enumerate(reduced) for t in c.inner_canonicals},
        autos,
        ClassListEscape("automorphism left the reduced class list"),
    )


@dataclass(slots=True)
class CuspOrbit:
    """A gamma_inf orbit inside one braid orbit; its size is the width.

    Members are held as ascending positions in the orbit.
    """

    orbit: BraidOrbit
    member_indices: tuple[int, ...]

    @property
    def member_canonicals(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.orbit.members.__getitem__, self.member_indices))

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
        orbit._cusps = tuple(
            # P.cycles lists the cycles by least point
            CuspOrbit(orbit, tuple(sorted(c)))
            for c in P.cycles(orbit.gamma_inf)
        )
    return orbit._cusps


def cusp_of(orbit: BraidOrbit) -> list[int]:
    """Position in cusp_orbits(orbit) of the cusp through each member."""
    out = [0] * orbit.size
    for j, cusp in enumerate(cusp_orbits(orbit)):
        for i in cusp.member_indices:
            out[i] = j
    return out
