"""Finite permutation groups stored as enumerated element tables.

Groups at desk scale (a few hundred elements for the orbit pipelines, up to
the closure cap for membership-style queries) are kept as the full sorted
element list; element IDs are positions in that list, so orbit and
canonical-form code works on small integers.  Up to MUL_TABLE_MAX (4096)
elements, products are read from a multiplication table built on first
use; larger groups have no table and compose image tuples on every product.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import gcd, prod
from operator import itemgetter
from typing import Iterable, Sequence

from . import perm as P
from .errors import (
    ClosureExceedsCap,
    NotAHomomorphism,
    NotNormal,
    NotPPerfect,
    PCenterNotReduced,
)
from .perm import Perm

DEFAULT_CAP = 200_000
# Full |G| x |G| tables only below this order; larger groups fall back to
# composing image tuples on demand.
MUL_TABLE_MAX = 4096


def closure_cap() -> int:
    env = os.environ.get("NIELSEN_FORGE_CAP")
    return int(env) if env else DEFAULT_CAP


def close_under_product(gens: Sequence[Perm], cap: int | None = None) -> set[Perm]:
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
                            f"generate: closure exceeds cap {limit}"
                        )
        frontier = new
    return seen


def perm_group_order(gens: Sequence[Perm], cap: int) -> int | None:
    """|<gens>| by deterministic Schreier-Sims, or None once it passes cap.

    Level i holds a base point b_i, strong generators S_i that fix
    b_0..b_{i-1}, and a transversal: for each point x in the orbit of b_i
    under <S_i>, some u_x in <S_i> with u_x[b_i] = x.  A Schreier generator
    u_x s u_{s[x]}^-1 (x in the orbit, s in S_i) fixes b_i; one that does
    not sift to the identity through the levels below leaves a residue that
    becomes a new strong generator there.  Once every Schreier generator
    sifts, the order is the product of the orbit lengths.  That product
    never exceeds the order and only grows, so passing the cap ends the run.
    Levels are worked deepest first, and a Schreier generator that sifted
    stays sifted, because the levels below only gain generators; so each
    (point, generator) pair is settled once, and the pairs that built the
    transversal are trivial and never formed.  Every product goes through
    P.compose and every inverse through P.inverse.
    """
    if not gens:
        raise ValueError("need at least one generator")
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators must share one degree")
    ident = P.identity(degree)
    # per level: the base point, S_i, x -> (u_x, u_x^-1), the orbit in the
    # order reached, and the settled (point, generator index) pairs
    base: list[int] = []
    strong: list[list[Perm]] = []
    trans: list[dict[int, tuple[Perm, Perm]]] = []
    points: list[list[int]] = []
    settled: list[set[tuple[int, int]]] = []

    def sift(h: Perm, start: int) -> tuple[Perm, int]:
        for k in range(start, len(base)):
            u = trans[k].get(h[base[k]])
            if u is None:
                return h, k
            h = P.compose(h, u[1])
        return h, len(base)

    def add(h: Perm, top: int, last: int) -> None:
        """h fixes b_0..b_{top-1}: a strong generator on levels top..last."""
        if last == len(base):
            b = next(x for x in range(degree) if h[x] != x)
            base.append(b)
            strong.append([])
            trans.append({b: (ident, ident)})
            points.append([b])
            settled.append(set())
        for k in range(top, last + 1):
            strong[k].append(h)
            orbit = trans[k]
            for x in points[k]:  # grows as the orbit does
                for j, s in enumerate(strong[k]):
                    y = s[x]
                    if y not in orbit:
                        u = P.compose(orbit[x][0], s)
                        orbit[y] = (u, P.inverse(u))
                        points[k].append(y)
                        settled[k].add((x, j))

    for g in gens:
        h, last = sift(g, 0)
        if h != ident:
            add(h, 0, last)
    i = len(base) - 1
    while i >= 0:
        if prod(map(len, points)) > cap:
            return None
        orbit, restart = trans[i], None
        for x in points[i]:
            for j, s in enumerate(strong[i]):
                if (x, j) in settled[i]:
                    continue
                y = s[x]
                g = P.compose(orbit[x][0], s)
                if g != orbit[y][0]:
                    h, last = sift(P.compose(g, orbit[y][1]), i + 1)
                    if h != ident:
                        add(h, i + 1, last)
                        restart = last
                        break
                settled[i].add((x, j))
            if restart is not None:
                break
        i = i - 1 if restart is None else restart
    order = prod(map(len, points))
    return order if order <= cap else None


def is_p_power(n: int, p: int) -> bool:
    """True iff n = p^k for some k >= 0."""
    if p < 2:
        raise ValueError(f"is_p_power needs p >= 2, got {p}")
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


def _grow(orbit: list, seen: set, moves, keys, escape) -> list:
    """Append to orbit, whose points are in seen, every new point moves reach."""
    for t in orbit:
        for u in moves(t):
            if u not in seen:
                if keys is not None and u not in keys:
                    raise escape
                seen.add(u)
                orbit.append(u)
    return orbit


def orbit_of(start, moves, keys=None, escape: Exception | None = None) -> set:
    """Closure of {start} under moves(t); an image outside keys raises escape."""
    orbit = {start}
    _grow([start], orbit, moves, keys, escape)
    return orbit


def partition_orbits(keys, moves, escape: Exception | None = None) -> list[list]:
    """Orbits of moves on keys, each sorted, in order of least member.

    The moves must act by permutations, so that orbits are disjoint: the
    sorted keys are visited once and one set marks every point reached.
    """
    seen: set = set()
    out = []
    for start in sorted(keys):
        if start not in seen:
            seen.add(start)
            out.append(sorted(_grow([start], seen, moves, keys, escape)))
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
        self._mul: list[tuple[int, ...]] | None = None
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
        # Rows as tuples, from left multiplication: row(g*c) = L_g o row(c)
        # with L_g[x] the id of g * x, filled in BFS order from the identity
        # row, so each new row is one itemgetter over a row built before it.
        # A one-element group derives no row, so no itemgetter gets a single
        # index (which would return a scalar).  Inverses follow the same
        # tree, (g*c)^-1 = c^-1 * g^-1, so only the generators are inverted
        # as permutations.
        idx = self._index
        els = self.elements
        gids = sorted(set(self.generator_ids))
        lefts = [[idx[P.compose(els[gid], x)] for x in els] for gid in gids]
        gen_invs = [idx[P.inverse(els[gid])] for gid in gids]
        e = self.identity_id
        rows: list[tuple[int, ...] | None] = [None] * self.order
        rows[e] = tuple(range(self.order))
        parent = [(e, 0)] * self.order
        reached = [e]
        for c in reached:
            for k, left in enumerate(lefts):
                gc = left[c]
                if rows[gc] is None:
                    rows[gc] = itemgetter(*rows[c])(left)
                    parent[gc] = (c, k)
                    reached.append(gc)
        inv = [e] * self.order
        for x in reached[1:]:
            c, k = parent[x]
            inv[x] = rows[inv[c]][gen_invs[k]]
        self._mul = rows
        self._inv = inv  # conj reads _inv whenever the table exists

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
        """Orders from the power map: one walk x, x^2, ... per cyclic
        subgroup not yet seen, and x^k has order n / gcd(n, k)."""
        if self._orders is None:
            e = self.identity_id
            orders = [0] * self.order
            orders[e] = 1
            for x in range(self.order):
                if orders[x]:
                    continue
                powers = [x]
                y = self.mul(x, x)
                while y != e:
                    powers.append(y)
                    y = self.mul(y, x)
                n = len(powers) + 1
                for k, y in enumerate(powers, 1):
                    orders[y] = n // gcd(n, k)
            self._orders = orders
        return self._orders

    def conj(self, x: int, h: int) -> int:
        """ID of the word h * x * h^-1."""
        tab = self._mul
        if tab is not None:
            return tab[tab[h][x]][self._inv[h]]
        return self.mul(self.mul(h, x), self.inv[h])

    def word(self, ids: Iterable[int]) -> int:
        out = self.identity_id
        for i in ids:
            out = self.mul(out, i)
        return out

    # -- structure queries ----------------------------------------------

    def conjugacy_classes(self) -> list["ConjClass"]:
        """Classes sorted by (size, least member id), the order reports print."""
        if self._classes is None:
            gens, conj = self.generator_ids, self.conj
            orbits = partition_orbits(
                range(self.order), lambda x: [conj(x, g) for g in gens]
            )
            orbits.sort(key=lambda ids: (len(ids), ids[0]))
            self._classes = [ConjClass(self, tuple(ids)) for ids in orbits]
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

    def subgroup_closure(self, ids: Iterable[int]) -> frozenset[int]:
        gens, mul = set(ids), self.mul
        return frozenset(orbit_of(self.identity_id, lambda x: [mul(x, g) for g in gens]))

    def normal_closure(self, ids: Iterable[int]) -> frozenset[int]:
        """Closure of {1} under x -> x*s (s in ids) and conjugation by the
        generators.  That set is also closed under x -> x * h s h^-1, since
        x * h s h^-1 = h (h^-1 x h * s) h^-1, so it is the subgroup the
        conjugates of ids generate."""
        seed, gens, mul, conj = set(ids), self.generator_ids, self.mul, self.conj
        return frozenset(
            orbit_of(
                self.identity_id,
                lambda x: [mul(x, s) for s in seed] + [conj(x, g) for g in gens],
            )
        )

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
        for _ in range(n % g.element_orders[x]):
            y = g.mul(y, x)
        return g.class_of(y)

    def label(self) -> str:
        return P.format_cycles(self.representative)


def generate(gens: Sequence[Perm], cap: int | None = None, name: str = "") -> FiniteGroup:
    """Enumerate the closure of the generators into a FiniteGroup."""
    elements = sorted(close_under_product(gens, cap))
    return FiniteGroup(gens, elements, name=name)


def conjugacy_classes(G: FiniteGroup) -> list[ConjClass]:
    return G.conjugacy_classes()


def is_p_perfect(G: FiniteGroup, p: int) -> bool:
    """True iff G has no Z/p quotient, i.e. p does not divide |G/(G,G)|."""
    derived = G.derived_subgroup_ids()
    ab_order = G.order // len(derived)
    return ab_order % p != 0


class GroupHom:
    """Homomorphism given on generators, extended along a BFS of the source.

    `_extend` is the whole check.  Its BFS visits every source element x
    once, and for every distinct generator g it either sets
    f(x*g) = f(x)*f(g) or raises NotAHomomorphism when the value already set
    disagrees.  So f(x*g) = f(x)f(g) for every x and every generator g, and
    f(1) = 1.  In a finite group every element is a positive word in the
    generators, and induction on the length of y gives f(xy) = f(x)f(y) for
    all x and y: f(x*(y*g)) = f((x*y)*g) = f(x*y)f(g) = f(x)f(y)f(g) =
    f(x)f(y*g).  The BFS costs |G| * |gens| products; no pass over the
    |G|^2 pairs is needed.
    """

    def __init__(
        self,
        source: FiniteGroup,
        target: FiniteGroup,
        generator_images: Sequence[Perm],
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
        img = sorted(set(self.full_map))
        self.image_ids = tuple(img)
        self.kernel_ids = tuple(
            x for x in range(source.order) if self.full_map[x] == target.identity_id
        )

    def _extend(self) -> tuple[int, ...]:
        src, tgt = self.source, self.target
        gen_img: dict[int, int] = {}
        for g, im in zip(src.generator_ids, self.generator_images):
            if im not in tgt:
                raise NotAHomomorphism(
                    f"generator image {P.format_cycles(im)} is not in the target group"
                )
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

    @property
    def is_surjective(self) -> bool:
        return len(self.image_ids) == self.target.order

    @property
    def is_injective(self) -> bool:
        return len(self.kernel_ids) == 1

    def apply_id(self, x: int) -> int:
        return self.full_map[x]


def hom(
    source: FiniteGroup,
    target: FiniteGroup,
    generator_images: Sequence[Perm],
) -> GroupHom:
    return GroupHom(source, target, generator_images)


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
    Q = generate(images, G.order, name=f"{G.name or 'G'}/N")
    proj = GroupHom(G, Q, [Q.perm(Q.id_of(img)) for img in images])
    return Q, proj


def maximal_normal_p_subgroup(G: FiniteGroup, p: int) -> frozenset[int]:
    """The p-core O_p(G): the union of the classes whose normal closure is a
    p-group.  A class already inside the core built so far is skipped."""
    orders = G.element_orders
    reps: list[int] = []
    core = frozenset([G.identity_id])
    for cls in G.conjugacy_classes():
        x = cls.member_ids[0]
        if x in core or not is_p_power(orders[x], p):
            continue
        if is_p_power(len(G.normal_closure([x])), p):
            reps.append(x)
            core = G.normal_closure(reps)
    return core


def greedy_generators(G: FiniteGroup, ids) -> list[int]:
    """Generators of the subgroup ids, taken in id order: each is the least
    element outside the closure of those before it, so there are at most
    log2 |ids| of them, at one closure each."""
    gens: list[int] = []
    have = frozenset([G.identity_id])
    for a in sorted(ids):
        if len(have) == len(ids):
            break
        if a not in have:
            gens.append(a)
            have = G.subgroup_closure(gens)
    return gens


def frattini_of_p_group(G: FiniteGroup, ids: frozenset[int], p: int) -> frozenset[int]:
    """Phi(P) = P^p [P, P] of a normal p-subgroup P = ids of G.

    S = greedy_generators(G, P) has at most log_p |P| elements.  The
    normal closure N in G of {a^p, [a, b] : a, b in S} is Phi(P).  Phi(P) is characteristic in P, so normal in G, and it
    holds the seeds, so N <= Phi(P).  P/N is generated by the images of S,
    which commute and have order dividing p, so P/N is elementary abelian
    and Phi(P) <= N.
    """
    gens = greedy_generators(G, ids)
    seeds = {G.word([a] * p) for a in gens}
    seeds.update(G.word([a, b, G.inv[a], G.inv[b]]) for a in gens for b in gens)
    return G.normal_closure(seeds)


def p_part_of_center(G: FiniteGroup, p: int) -> list[int]:
    orders = G.element_orders
    return [x for x in G.center_ids() if orders[x] > 1 and is_p_power(orders[x], p)]


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
            raise PCenterNotReduced("p-center reduction failed to terminate")
    return chain
