"""Finite permutation groups stored as enumerated element tables.

Groups at desk scale (a few hundred elements for the orbit pipelines, up to
the closure cap for membership-style queries) are kept as the full sorted
element list; element IDs are positions in that list, so orbit and
canonical-form code works on small integers via a cached multiplication
table instead of image tuples.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import perm as P
from .errors import ClosureExceedsCap, NotAHomomorphism, NotNormal, NotPPerfect
from .perm import Perm

DEFAULT_CAP = 200_000
# Full |G| x |G| tables only below this order; larger groups fall back to
# composing image tuples on demand.
MUL_TABLE_MAX = 4096


def closure_cap() -> int:
    env = os.environ.get("NIELSEN_FORGE_CAP")
    return int(env) if env else DEFAULT_CAP


def close_under_product(
    gens: Sequence[Perm], cap: int | None = None, *, context: str = "generate"
) -> list[Perm]:
    """BFS closure of the generators; raises once the cap is exceeded."""
    if not gens:
        raise ValueError("need at least one generator")
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators must share one degree")
    limit = cap if cap is not None else closure_cap()
    seen = {P.identity(degree)}
    frontier = [P.identity(degree)]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = P.compose(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > limit:
                        raise ClosureExceedsCap(
                            f"{context}: closure exceeds cap {limit}"
                        )
        frontier = new
    return sorted(seen)


def orbit_of(start, moves, keys=None, escape: Exception | None = None) -> set:
    """Closure of {start} under moves(t); an image outside keys raises escape."""
    orbit = {start}
    frontier = [start]
    while frontier:
        new = []
        for t in frontier:
            for u in moves(t):
                if u not in orbit:
                    if keys is not None and u not in keys:
                        raise escape
                    orbit.add(u)
                    new.append(u)
        frontier = new
    return orbit


def partition_orbits(keys, moves, escape: Exception | None = None) -> list[list]:
    """Orbits of moves on keys, each sorted, in order of least member.

    The sorted keys are visited once; members of earlier orbits are skipped.
    """
    seen: set = set()
    out = []
    for start in sorted(keys):
        if start not in seen:
            orbit = orbit_of(start, moves, keys, escape)
            seen |= orbit
            out.append(sorted(orbit))
    return out


class FiniteGroup:
    """Generators plus the full, lexicographically sorted element table."""

    def __init__(self, generators: Sequence[Perm], elements: Sequence[Perm], name: str = ""):
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.degree = len(self.elements[0])
        self.order = len(self.elements)
        self.name = name
        self._index: dict[Perm, int] = {p: i for i, p in enumerate(self.elements)}
        self.identity_id = self._index[P.identity(self.degree)]
        self.generator_ids = tuple(self._index[g] for g in self.generators)
        self._inv: list[int] | None = None
        self._orders: list[int] | None = None
        self._mul: list[list[int]] | None = None
        self._mul_attempted = False
        self._classes: list[ConjClass] | None = None

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"<{label}: order {self.order}, degree {self.degree}>"

    def __contains__(self, p: Perm) -> bool:
        return p in self._index

    def id_of(self, p: Perm) -> int:
        return self._index[p]

    def perm(self, i: int) -> Perm:
        return self.elements[i]

    # -- multiplication -------------------------------------------------

    def _build_mul_table(self) -> None:
        n = self.order
        idx = self._index
        els = self.elements
        # Column for each generator: col[a] = id of els[a] * gen.
        cols = {
            gid: [idx[P.compose(x, els[gid])] for x in els]
            for gid in set(self.generator_ids)
        }
        table = [[-1] * n for _ in range(n)]
        e = self.identity_id
        for a in range(n):
            table[a][e] = a
        # BFS over right-multiplication words so each new column is one
        # generator-column application away from a finished column.
        done = {e}
        frontier = [e]
        while frontier:
            new = []
            for c in frontier:
                for gid, col in cols.items():
                    b = col[c]
                    if b not in done:
                        done.add(b)
                        new.append(b)
                        for a in range(n):
                            table[a][b] = col[table[a][c]]
            frontier = new
        self._mul = table

    def mul(self, a: int, b: int) -> int:
        if self._mul is None and not self._mul_attempted:
            self._mul_attempted = True
            if self.order <= MUL_TABLE_MAX:
                self._build_mul_table()
        if self._mul is not None:
            return self._mul[a][b]
        return self._index[P.compose(self.elements[a], self.elements[b])]

    def mul_row(self, a: int) -> Sequence[int]:
        """Row of the multiplication table (a*x for every x), if tabled."""
        self.mul(a, self.identity_id)
        if self._mul is not None:
            return self._mul[a]
        return [self.mul(a, b) for b in range(self.order)]

    @property
    def inv(self) -> list[int]:
        if self._inv is None:
            self._inv = [self._index[P.inverse(p)] for p in self.elements]
        return self._inv

    @property
    def element_orders(self) -> list[int]:
        if self._orders is None:
            self._orders = [P.order(p) for p in self.elements]
        return self._orders

    def conj(self, x: int, h: int) -> int:
        """ID of the word h * x * h^-1."""
        return self.mul(self.mul(h, x), self.inv[h])

    def word(self, ids: Iterable[int]) -> int:
        out = self.identity_id
        for i in ids:
            out = self.mul(out, i)
        return out

    # -- structure queries ----------------------------------------------

    def conjugacy_classes(self) -> list["ConjClass"]:
        if self._classes is None:
            seen = [False] * self.order
            classes = []
            for x in range(self.order):
                if seen[x]:
                    continue
                orbit = {x}
                frontier = [x]
                while frontier:
                    new = []
                    for y in frontier:
                        for gid in self.generator_ids:
                            z = self.conj(y, gid)
                            if z not in orbit:
                                orbit.add(z)
                                new.append(z)
                    frontier = new
                for y in orbit:
                    seen[y] = True
                classes.append(tuple(sorted(orbit)))
            classes.sort(key=lambda ids: (len(ids), ids[0]))
            self._classes = [ConjClass(self, ids) for ids in classes]
        return self._classes

    def class_of(self, x: int) -> "ConjClass":
        for cls in self.conjugacy_classes():
            if x in cls.member_set:
                return cls
        raise KeyError(x)

    def center_ids(self) -> list[int]:
        gens = self.generator_ids
        return [
            x
            for x in range(self.order)
            if all(self.mul(x, g) == self.mul(g, x) for g in gens)
        ]

    def subgroup_closure(self, ids: Iterable[int], cap: int | None = None) -> frozenset[int]:
        limit = cap if cap is not None else closure_cap()
        gens = sorted(set(ids))
        seen = {self.identity_id}
        frontier = [self.identity_id]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
                        if len(seen) > limit:
                            raise ClosureExceedsCap(
                                f"subgroup closure exceeds cap {limit}"
                            )
            frontier = new
        return frozenset(seen)

    def normal_closure(self, ids: Iterable[int]) -> frozenset[int]:
        seed = set(ids)
        while True:
            sub = self.subgroup_closure(seed)
            conj = {self.conj(x, g) for x in sub for g in self.generator_ids}
            if conj <= sub:
                return sub
            seed = sub | conj

    def derived_subgroup_ids(self) -> frozenset[int]:
        comms = {
            self.word([a, b, self.inv[a], self.inv[b]])
            for a in self.generator_ids
            for b in self.generator_ids
        }
        return self.normal_closure(comms)


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class: sorted member IDs inside the parent group."""

    group: FiniteGroup
    member_ids: tuple[int, ...]
    member_set: frozenset[int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "member_set", frozenset(self.member_ids))

    @property
    def representative(self) -> Perm:
        return self.group.perm(self.member_ids[0])

    @property
    def size(self) -> int:
        return len(self.member_ids)

    @property
    def members(self) -> list[Perm]:
        return [self.group.perm(i) for i in self.member_ids]

    @property
    def element_order(self) -> int:
        return self.group.element_orders[self.member_ids[0]]

    def power(self, n: int) -> "ConjClass":
        g = self.group
        x = self.member_ids[0]
        y = g.identity_id
        for _ in range(n % g.element_orders[x] if g.element_orders[x] else 0):
            y = g.mul(y, x)
        return g.class_of(y)

    def label(self) -> str:
        return P.format_cycles(self.representative)


def generate(gens: Sequence[Perm], cap: int | None = None, name: str = "") -> FiniteGroup:
    """Enumerate the closure of the generators into a FiniteGroup."""
    elements = close_under_product(gens, cap)
    return FiniteGroup(gens, elements, name=name)


def conjugacy_classes(G: FiniteGroup) -> list[ConjClass]:
    return G.conjugacy_classes()


def is_p_perfect(G: FiniteGroup, p: int) -> bool:
    """True iff G has no Z/p quotient, i.e. p does not divide |G/(G,G)|."""
    derived = G.derived_subgroup_ids()
    ab_order = G.order // len(derived)
    return ab_order % p != 0


class SubgroupView:
    """Closure of a subset of G with the predicates the pipelines need."""

    def __init__(self, group: FiniteGroup, ids: frozenset[int]):
        self.group = group
        self.ids = ids
        self.order = len(ids)

    def is_p_group(self, p: int) -> bool:
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def is_p_prime(self, p: int) -> bool:
        return self.order % p != 0

    @property
    def center(self) -> list[Perm]:
        g = self.group
        ids = sorted(self.ids)
        out = [x for x in ids if all(g.mul(x, y) == g.mul(y, x) for y in ids)]
        return [g.perm(x) for x in out]

    def centralizer_of(self, element: Perm) -> "SubgroupView":
        g = self.group
        e = g.id_of(element)
        ids = frozenset(x for x in self.ids if g.mul(x, e) == g.mul(e, x))
        return SubgroupView(g, ids)

    @property
    def elements(self) -> list[Perm]:
        return [self.group.perm(i) for i in sorted(self.ids)]


def subgroup_query(
    G: FiniteGroup, elems: Sequence[Perm], cap: int | None = None
) -> SubgroupView:
    ids = G.subgroup_closure((G.id_of(p) for p in elems), cap)
    return SubgroupView(G, ids)


class GroupHom:
    """Homomorphism given on generators, extended and verified on the table."""

    def __init__(
        self,
        source: FiniteGroup,
        target: FiniteGroup,
        generator_images: Sequence[Perm],
        *,
        verify: bool = True,
    ):
        if len(generator_images) != len(source.generators):
            raise NotAHomomorphism(
                "need exactly one image per source generator "
                f"({len(source.generators)} generators, {len(generator_images)} images)"
            )
        self.source = source
        self.target = target
        self.generator_images = tuple(generator_images)
        self.full_map = self._extend()
        if verify:
            self._verify()
        img = sorted(set(self.full_map))
        self.image_ids = tuple(img)
        self.kernel_ids = tuple(
            x for x in range(source.order) if self.full_map[x] == target.identity_id
        )

    def _extend(self) -> tuple[int, ...]:
        src, tgt = self.source, self.target
        gen_img: dict[int, int] = {}
        for g, im in zip(src.generator_ids, self.generator_images):
            imid = tgt.id_of(im)
            if gen_img.get(g, imid) != imid:
                raise NotAHomomorphism("repeated generator with conflicting images")
            gen_img[g] = imid
        fmap = [-1] * src.order
        fmap[src.identity_id] = tgt.identity_id
        frontier = [src.identity_id]
        while frontier:
            new = []
            for x in frontier:
                for g, img in gen_img.items():
                    y = src.mul(x, g)
                    fy = tgt.mul(fmap[x], img)
                    if fmap[y] == -1:
                        fmap[y] = fy
                        new.append(y)
                    elif fmap[y] != fy:
                        raise NotAHomomorphism(
                            "inconsistent extension: generator images satisfy no "
                            "homomorphism"
                        )
            frontier = new
        if any(v == -1 for v in fmap):
            raise NotAHomomorphism("generators do not generate the source group")
        return tuple(fmap)

    def _verify(self) -> None:
        src, tgt, fmap = self.source, self.target, self.full_map
        for a in range(src.order):
            fa = fmap[a]
            row = src.mul_row(a)
            for b in range(src.order):
                if fmap[row[b]] != tgt.mul(fa, fmap[b]):
                    raise NotAHomomorphism(
                        f"f(xy) != f(x)f(y) at ids ({a}, {b})"
                    )

    @property
    def is_surjective(self) -> bool:
        return len(self.image_ids) == self.target.order

    @property
    def is_injective(self) -> bool:
        return len(self.kernel_ids) == 1

    def apply(self, p: Perm) -> Perm:
        return self.target.perm(self.full_map[self.source.id_of(p)])

    def apply_id(self, x: int) -> int:
        return self.full_map[x]

    def kernel_view(self) -> SubgroupView:
        return SubgroupView(self.source, frozenset(self.kernel_ids))

    def then(self, other: "GroupHom") -> "GroupHom":
        if other.source is not self.target:
            raise NotAHomomorphism("composition endpoints disagree")
        images = [other.apply(self.apply(g)) for g in self.source.generators]
        return GroupHom(self.source, other.target, images, verify=False)


def hom(
    source: FiniteGroup,
    target: FiniteGroup,
    generator_images: Sequence[Perm],
) -> GroupHom:
    return GroupHom(source, target, generator_images)


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(G, G, list(G.generators), verify=False)


def is_normal(G: FiniteGroup, ids: frozenset[int]) -> bool:
    return all(G.conj(x, g) in ids for x in ids for g in G.generator_ids)


def quotient(G: FiniteGroup, normal_ids: Iterable[int]) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, realized on its coset space."""
    N = frozenset(normal_ids)
    if G.identity_id not in N or not is_normal(G, N):
        raise NotNormal("subgroup is not normal in G")
    # Right cosets Nx, keyed by least member; right multiplication acts.
    coset_of = [-1] * G.order
    reps: list[int] = []
    for x in range(G.order):
        if coset_of[x] != -1:
            continue
        members = sorted(G.mul(n, x) for n in N)
        cid = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = cid
    images = []
    for gid in G.generator_ids:
        images.append(tuple(coset_of[G.mul(reps[c], gid)] for c in range(len(reps))))
    Q = generate(images, name=f"{G.name or 'G'}/N")
    proj = GroupHom(G, Q, [Q.perm(Q.id_of(img)) for img in images], verify=False)
    return Q, proj


def maximal_normal_p_subgroup(G: FiniteGroup, p: int) -> frozenset[int]:
    """The p-core: product of all normal p-subgroups."""
    orders = G.element_orders
    seeds = []
    for cls in G.conjugacy_classes():
        o = orders[cls.member_ids[0]]
        n = o
        while n % p == 0:
            n //= p
        if o > 1 and n == 1:
            closure = G.normal_closure([cls.member_ids[0]])
            m = len(closure)
            while m % p == 0:
                m //= p
            if m == 1:
                seeds.extend(cls.member_ids)
    if not seeds:
        return frozenset({G.identity_id})
    return G.normal_closure(seeds)


def frattini_of_p_group(G: FiniteGroup, ids: frozenset[int], p: int) -> frozenset[int]:
    """Subgroup generated by commutators and p-th powers of a p-subgroup."""
    members = sorted(ids)
    gens = set()
    for a in members:
        x = a
        for _ in range(p - 1):
            x = G.mul(x, a)
        gens.add(x)
    for a in members:
        for b in members:
            gens.add(G.word([a, b, G.inv[a], G.inv[b]]))
    return G.subgroup_closure(gens)


def p_part_of_center(G: FiniteGroup, p: int) -> list[int]:
    orders = G.element_orders
    out = []
    for x in G.center_ids():
        n = orders[x]
        while n % p == 0:
            n //= p
        if n == 1 and orders[x] > 1:
            out.append(x)
    return out


def reduce_p_center(
    G: FiniteGroup, p: int
) -> list[tuple[FiniteGroup, GroupHom]]:
    """Iterate G -> G/Phi(U_p) until the p-part of the center is trivial.

    U_p is the maximal normal p-subgroup; each step is a p-Frattini cover,
    so the chain ends in a p-perfect group with trivial p-center.  The
    returned list holds (quotient, projection-from-previous) per step; an
    empty list means the input already had trivial p-center.
    """
    if not is_p_perfect(G, p):
        raise NotPPerfect(f"group has a Z/{p} quotient")
    chain: list[tuple[FiniteGroup, GroupHom]] = []
    current = G
    while p_part_of_center(current, p):
        u_p = maximal_normal_p_subgroup(current, p)
        phi = frattini_of_p_group(current, u_p, p)
        quot, proj = quotient(current, phi)
        chain.append((quot, proj))
        current = quot
        if len(chain) > 64:
            raise RuntimeError("p-center reduction failed to terminate")
    return chain
