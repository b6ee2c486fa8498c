"""Cusp widths and types, sh-incidence, genera, and the congruence screen.

Everything here is a pure function of a braid orbit: widths come from the
gamma_inf cycles, types from the middle product and the two edge
subgroups, the genus from Riemann-Hurwitz on the three gamma actions, and
the congruence screen compares (degree, width multiset, monodromy order)
against tabled modular-curve data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import lcm

from . import lifting, perm as P
from .braid import BraidOrbit, CuspOrbit, ReducedClass, cusp_of, cusp_orbits
from .errors import (
    FormulaMismatch,
    InconsistentType,
    NegativeGenus,
    NonIntegralGenus,
    RankNotFour,
)
from .groups import orbit_of, perm_group_order
from .lifting import (
    CentralExtension,
    LiftInvariant,
    factor_through_pairs,
)
from .nielsen import NielsenTuple, canonical_context
from .perm import Perm

P_CUSP = "p"
G_PRIME = "g-p'"
O_PRIME = "o-p'"


@dataclass(frozen=True)
class MiddleTwistOrbit:
    """Orbit data of (a,b) -> (a b a^-1, a): gamma^2 length o, gamma length o'."""

    o: int
    o_prime: int


def middle_twist_orbit(a: Perm, b: Perm) -> MiddleTwistOrbit:
    """Iterate the middle twist and cross-check the closed orbit formulas."""
    if len(a) != len(b):
        raise ValueError("degree mismatch")
    if P.is_identity(a) or P.is_identity(b):
        raise ValueError("middle twist entries must be nonidentity")

    def twist(pair):
        x, y = pair
        return (P.compose(P.compose(x, y), P.inverse(x)), x)

    start = (a, b)
    o_prime_iter = 1
    cur = twist(start)
    while cur != start:
        cur = twist(cur)
        o_prime_iter += 1
    o_iter = 1
    cur = twist(twist(start))
    while cur != start:
        cur = twist(twist(cur))
        o_iter += 1
    # Closed form cross-checks.  o = ord(ab)/|<ab> int Z(a,b)| holds
    # outright; o' is 2o whenever o is even, and o' = o forces o odd with
    # ((ba)^((o-1)/2)) b of order 2.  The converse of the last clause is
    # not reliable (commuting involution pairs defeat it), so it is only
    # enforced in the necessary direction.
    if a == b:
        if (o_iter, o_prime_iter) != (1, 1):
            raise FormulaMismatch("equal pair must have o = o' = 1")
        return MiddleTwistOrbit(1, 1)
    g3 = P.compose(a, b)
    n = P.order(g3)
    powers = []
    x = P.identity(len(a))
    for _ in range(n):
        x = P.compose(x, g3)
        powers.append(x)
    central = sum(
        1
        for z in powers
        if P.compose(z, a) == P.compose(a, z) and P.compose(z, b) == P.compose(b, z)
    )
    o_formula = n // central
    mismatch = o_iter != o_formula or o_prime_iter not in (o_iter, 2 * o_iter)
    if o_iter % 2 == 0 and o_prime_iter != 2 * o_iter:
        mismatch = True
    if o_prime_iter == o_iter:
        g3p = P.compose(b, a)
        y = P.identity(len(a))
        for _ in range((o_iter - 1) // 2):
            y = P.compose(y, g3p)
        if o_iter % 2 == 0 or P.order(P.compose(y, b)) != 2:
            mismatch = True
    if mismatch:
        raise FormulaMismatch(
            f"middle twist: iteration gives (o,o')=({o_iter},{o_prime_iter}), "
            f"formula gives o={o_formula}"
        )
    return MiddleTwistOrbit(o_iter, o_prime_iter)


@dataclass(frozen=True)
class CuspType:
    """Type of one cusp: middle-product order, kind, and shape flags."""

    mp: int
    kind: str
    is_hm: bool
    is_shift_of_hm: bool
    weigel_candidate: bool | None = None

    def label(self) -> str:
        flags = []
        if self.is_hm:
            flags.append("HM")
        if self.is_shift_of_hm:
            flags.append("sh(HM)")
        if self.weigel_candidate:
            flags.append("weigel?")
        tail = f" [{','.join(flags)}]" if flags else ""
        return f"{self.kind} (mp={self.mp}){tail}"


def _is_hm(group, cls: ReducedClass) -> bool:
    """Some inner class in the reduced class has the H-M shape (g, g^-1, h, h^-1)."""
    inv = group.inv
    return any(
        t[1] == inv[t[0]] and t[3] == inv[t[2]] for t in cls.inner_canonicals
    )


def _hm_flags(orbit: BraidOrbit) -> list[bool]:
    """_is_hm of each class of the orbit, computed once and kept on it."""
    if orbit._hm is None:
        orbit._hm = [_is_hm(orbit.group, c) for c in orbit.classes]
    return orbit._hm


def classify_cusp(
    cusp: CuspOrbit, p: int, extension: CentralExtension | None = None
) -> CuspType:
    """Type a cusp, evaluating every member; members must agree on the kind."""
    group = cusp.group
    if len(cusp.member_canonicals[0]) != 4:
        raise RankNotFour("cusp types are defined for r = 4")
    ctx = canonical_context(group)
    orders = group.element_orders
    orbit = cusp.orbit
    hm = _hm_flags(orbit)
    kinds = set()
    mps = set()
    is_hm = False
    is_shift = False
    for i, ids in zip(cusp.member_indices, cusp.member_canonicals):
        g1, g2, g3, g4 = ids
        mp = orders[group.mul(g2, g3)]
        mps.add(mp)
        if mp % p == 0:
            kinds.add(P_CUSP)
        elif (
            ctx.pair_order(g2, g3) % p != 0
            and ctx.pair_order(g1, g4) % p != 0
        ):
            kinds.add(G_PRIME)
        else:
            kinds.add(O_PRIME)
        is_hm = is_hm or hm[i]
        is_shift = is_shift or hm[orbit.gamma_1[i]]
    if len(kinds) != 1:
        raise InconsistentType(
            f"cusp members disagree on the type: {sorted(kinds)}"
        )
    kind = kinds.pop()
    # the middle product order is conjugation/Q''/gamma_inf invariant
    if len(mps) != 1:
        raise InconsistentType(
            f"cusp members disagree on the middle product order: {sorted(mps)}"
        )
    mp = mps.pop()
    weigel: bool | None = None
    if extension is not None and kind == O_PRIME:
        rep = cusp.member_canonicals[0]
        factorization = factor_through_pairs(
            extension, tuple(group.perm(i) for i in rep), p
        )
        weigel = factorization.s23.is_trivial and factorization.s14.is_trivial
    return CuspType(mp, kind, is_hm, is_shift, weigel)


@dataclass(frozen=True)
class ShIncidence:
    """Pairing |O_a  intersect  (O_b) sh| over the cusps of one braid orbit."""

    labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    @property
    def is_symmetric(self) -> bool:
        n = len(self.matrix)
        return all(
            self.matrix[i][j] == self.matrix[j][i]
            for i in range(n)
            for j in range(n)
        )

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.matrix)


def sh_incidence(
    orbit: BraidOrbit, orbit_number: int = 1, *, use_gamma_0: bool = False
) -> ShIncidence:
    """Cusp-pairing matrix; identical whether sh or gamma_0 drives it.

    Entry (a, b) counts the members i of cusp b with action(i) in cusp a,
    in one pass over the action.
    """
    cusps = cusp_orbits(orbit)
    action = orbit.gamma_0 if use_gamma_0 else orbit.gamma_1
    where = cusp_of(orbit)
    counts = [[0] * len(cusps) for _ in cusps]
    for i, b in enumerate(where):
        counts[where[action[i]]][b] += 1
    matrix = tuple(map(tuple, counts))
    labels = tuple(f"O_{{{orbit_number},{j + 1}}}" for j in range(len(cusps)))
    return ShIncidence(labels, matrix)


def matrices_match_up_to_relabeling(
    m1: tuple[tuple[int, ...], ...], m2: tuple[tuple[int, ...], ...]
) -> bool:
    """Equality up to one simultaneous row/column permutation (small sizes)."""
    import itertools

    if len(m1) != len(m2):
        return False
    n = len(m1)
    for sigma in itertools.permutations(range(n)):
        if all(
            m1[i][j] == m2[sigma[i]][sigma[j]] for i in range(n) for j in range(n)
        ):
            return True
    return False


@dataclass(frozen=True)
class GenusData:
    degree: int
    ind_gamma_0: int
    ind_gamma_1: int
    ind_gamma_inf: int
    genus: int
    fine_moduli_q2: bool
    fine_moduli_fixed_point_free: bool


def genus(orbit: BraidOrbit) -> GenusData:
    """Riemann-Hurwitz over the j-line from the three gamma actions."""
    deg = orbit.size
    ind0 = P.index(orbit.gamma_0)
    ind1 = P.index(orbit.gamma_1)
    indi = P.index(orbit.gamma_inf)
    total = ind0 + ind1 + indi
    num = total - 2 * (deg - 1)
    if num % 2:
        raise NonIntegralGenus(f"2(deg+g-1) = {total} has no integer solution")
    g = num // 2
    if g < 0:
        raise NegativeGenus(f"computed genus {g} < 0")
    fixed_free = all(orbit.gamma_0[i] != i for i in range(deg)) and all(
        orbit.gamma_1[i] != i for i in range(deg)
    )
    return GenusData(
        deg,
        ind0,
        ind1,
        indi,
        g,
        all(length == 4 for length in orbit.q2_lengths()),
        fixed_free,
    )


def cover_genus(n: int, entries) -> int:
    """Riemann-Hurwitz genus of the degree-n cover with these branch cycles."""
    perms = entries.perms if isinstance(entries, NielsenTuple) else tuple(entries)
    if any(len(g) != n for g in perms):
        raise ValueError("entries must act on n points")
    if len(orbit_of(0, lambda x: (g[x] for g in perms))) != n:
        raise ValueError("branch cycles are not transitive")
    total = sum(P.index(g) for g in perms)
    num = total - 2 * (n - 1)
    if num % 2:
        raise NonIntegralGenus(f"index sum {total} has no integer genus")
    return num // 2


# -- congruence screen -------------------------------------------------

MONODROMY_MAX_DEGREE = 100


@dataclass(frozen=True)
class CurveEntry:
    family: str
    level: int
    degree: int
    widths: tuple[int, ...]
    monodromy_order: int

    def label(self) -> str:
        return f"{self.family}({self.level})"


_table_cache: list[CurveEntry] | None = None


def modular_curve_table() -> list[CurveEntry]:
    global _table_cache
    if _table_cache is None:
        text = (
            resources.files("nielsen_forge.data")
            .joinpath("modular_cusp_data_v1.json")
            .read_text()
        )
        raw = json.loads(text)
        _table_cache = [
            CurveEntry(
                e["family"],
                e["level"],
                e["degree"],
                tuple(e["widths"]),
                e["monodromy_order"],
            )
            for e in raw["entries"]
        ]
    return _table_cache


@dataclass(frozen=True)
class ScreenResult:
    level: int
    verdict: str
    matches: tuple[str, ...]
    reason: str
    monodromy_order: int | None
    obstructed: bool = False


def monodromy_order(orbit: BraidOrbit, cap: int) -> int | None:
    """Order of <gamma_0, gamma_1, gamma_inf>, or None once past the cap.

    gamma_0 = (gamma_1 gamma_inf)^-1, so <gamma_1, gamma_inf> is the same
    group.  Only its order is needed, and Schreier-Sims finds it from a
    stabilizer chain without listing the elements.
    """
    return perm_group_order([orbit.gamma_1, orbit.gamma_inf], cap)


def congruence_screen(
    orbit: BraidOrbit, lift: LiftInvariant | None = None
) -> ScreenResult:
    """Necessary-condition screen against the tabled X/X0/X1 cusp data.

    Three conditions, each necessary for the component to sit in a tower
    the way a modular curve of level N does:

    1. some tabled curve at a level m | N matches the component's degree
       and cusp-width multiset (N = lcm of the widths);
    2. for small components, the monodromy group of the j-line cover has
       that curve's monodromy order;
    3. when a lifting invariant is supplied, it is trivial: an obstructed
       component has an empty fiber at the next level, while modular-curve
       components head infinite towers.

    This is a screen, not a decision procedure: passing it never proves
    the component is a modular curve.
    """
    widths = sorted(c.width for c in cusp_orbits(orbit))
    level = lcm(*widths)
    table = modular_curve_table()
    candidates = [
        e
        for e in table
        if level % e.level == 0
        and e.degree == orbit.size
        and list(e.widths) == widths
    ]
    if not candidates:
        return ScreenResult(
            level,
            "fails",
            (),
            f"no X/X0/X1 at a level dividing {level} has degree {orbit.size} "
            f"with widths {widths}",
            None,
        )
    order = None
    checked = False
    if orbit.size <= MONODROMY_MAX_DEGREE:
        checked = True
        cap = 2 * max(e.monodromy_order for e in candidates)
        order = monodromy_order(orbit, cap)
        surviving = [
            e for e in candidates if order is not None and e.monodromy_order == order
        ]
        if not surviving:
            shown = order if order is not None else f"> {cap}"
            return ScreenResult(
                level,
                "fails",
                (),
                f"monodromy order {shown} matches no width-compatible curve "
                f"({', '.join(e.label() for e in candidates)})",
                order,
            )
        candidates = surviving
    if lift is not None and not lift.is_trivial:
        return ScreenResult(
            level,
            "fails",
            (),
            f"component is obstructed (lifting invariant {lift}), so nothing "
            "lies above it at the next level; width-compatible curves "
            f"({', '.join(e.label() for e in candidates)}) are excluded",
            order,
            obstructed=True,
        )
    note = (
        "degree, widths and monodromy order all match"
        if checked
        else "degree and widths match (monodromy check skipped: degree above "
        f"{MONODROMY_MAX_DEGREE})"
    )
    return ScreenResult(
        level,
        "consistent-with",
        tuple(e.label() for e in candidates),
        note,
        order,
    )


@dataclass(frozen=True)
class CuspSummary:
    label: str
    width: int
    ctype: CuspType


@dataclass(frozen=True)
class ComponentDossier:
    """Everything the reports print about one component."""

    orbit: BraidOrbit
    orbit_number: int
    degree: int
    genus_data: GenusData
    cusps: tuple[CuspSummary, ...]
    sh_matrix: ShIncidence
    lift: LiftInvariant | None
    screen: ScreenResult

    @property
    def widths(self) -> list[int]:
        return sorted(c.width for c in self.cusps)

    @property
    def genus(self) -> int:
        return self.genus_data.genus


def component_dossier(
    orbit: BraidOrbit,
    orbit_number: int,
    p: int,
    extension: CentralExtension | None = None,
) -> ComponentDossier:
    gdata = genus(orbit)
    shinc = sh_incidence(orbit, orbit_number)
    cusps = []
    for j, cusp in enumerate(cusp_orbits(orbit)):
        ctype = classify_cusp(cusp, p, extension)
        cusps.append(
            CuspSummary(f"O_{{{orbit_number},{j + 1}}}", cusp.width, ctype)
        )
    lift = None
    if extension is not None:
        rep = NielsenTuple(orbit.group, orbit.members[0])
        lift = lifting.lifting_invariant(extension, rep.perms)
    screen = congruence_screen(orbit, lift)
    return ComponentDossier(
        orbit, orbit_number, orbit.size, gdata, tuple(cusps), shinc, lift, screen
    )

