"""Constructors for the group families the pipelines run on.

Everything is realized as a permutation group: dihedral groups on m points,
semidirect products (Z/m)^2 x| J on the m^2 lattice points, the Heisenberg
group and the SL(2,q) double covers by right-regular action on their own
elements.  The double-cover projections use frozen generator-image tables,
extended to homomorphisms (and so checked) at construction time.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import gcd

from . import perm as P
from .config import require_prime
from .errors import ConfigError, PresetOrderMismatch
from .groups import FiniteGroup, GroupHom, generate, hom, orbit_of
from .lifting import CentralExtension
from .perm import Perm


@dataclass(frozen=True)
class GroupSpec:
    """Parsed group descriptor: a family tag plus its parameter."""

    kind: str
    param: int = 0
    custom_gens: tuple[str, ...] = ()


_SPEC_RE = re.compile(r"^([A-Za-z0-9]+)\((\d+)\)$")


def parse_group_spec(text: str) -> GroupSpec:
    s = text.strip()
    if s in ("SL23", "SL25"):
        return GroupSpec(s)
    if s.startswith("custom[") and s.endswith("]"):
        body = s[len("custom[") : -1]
        gens = tuple(t.strip() for t in re.findall(r"\([^()]*\)(?:\([^()]*\))*", body))
        if not gens:
            raise ConfigError(f"no generators in {text!r}")
        return GroupSpec("custom", custom_gens=gens)
    m = _SPEC_RE.match(s)
    if not m:
        raise ConfigError(f"unrecognized group spec {text!r}")
    kind, param = m.group(1), int(m.group(2))
    if kind not in _FAMILIES:
        raise ConfigError(f"unknown group family {kind!r} in {text!r}")
    if param < _FAMILIES[kind][0]:
        raise ConfigError(f"{kind}({param}): parameter too small")
    return GroupSpec(kind, param)


def alternating(n: int, cap: int | None = None) -> FiniteGroup:
    if n < 3:
        raise ConfigError("alternating groups need n >= 3")
    three = P.from_cycles([(0, 1, 2)], n)
    if n == 3:
        gens = [three]
    elif n % 2:
        gens = [three, P.from_cycles([tuple(range(n))], n)]
    else:
        gens = [three, P.from_cycles([tuple(range(1, n))], n)]
    return generate(gens, cap, name=f"A{n}")


def symmetric(n: int, cap: int | None = None) -> FiniteGroup:
    if n < 2:
        raise ConfigError("symmetric groups need n >= 2")
    gens = [P.from_cycles([(0, 1)], n), P.from_cycles([tuple(range(n))], n)]
    return generate(gens, cap, name=f"S{n}")


def dihedral(m: int, cap: int | None = None) -> FiniteGroup:
    """D_m of order 2m on m points: rotation i -> i+1 and reflection i -> -i."""
    if m < 3:
        raise ConfigError("dihedral groups need m >= 3")
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((-i) % m for i in range(m))
    return generate([rot, ref], cap, name=f"D{m}")


def _lattice_index(m: int, a: int, b: int) -> int:
    return (a % m) * m + (b % m)


def _lattice_perm(m: int, f) -> Perm:
    out = [0] * (m * m)
    for a in range(m):
        for b in range(m):
            out[_lattice_index(m, a, b)] = _lattice_index(m, *f(a, b))
    return tuple(out)


def translation(m: int, v: tuple[int, int]) -> Perm:
    return _lattice_perm(m, lambda a, b: (a + v[0], b + v[1]))


def v2_pm(m: int, cap: int | None = None) -> FiniteGroup:
    """(Z/m)^2 x| {+-1} on the m^2 lattice points (m odd)."""
    if m < 3 or m % 2 == 0:
        raise ConfigError("V2xPM needs odd m >= 3")
    neg = _lattice_perm(m, lambda a, b: (-a, -b))
    gens = [translation(m, (1, 0)), translation(m, (0, 1)), neg]
    return generate(gens, cap, name=f"(Z/{m})^2x|pm")


# Order-3 lattice action with characteristic polynomial x^2 + x + 1.
_ALPHA = ((0, -1), (1, -1))


def v2_z3(m: int, cap: int | None = None) -> FiniteGroup:
    if m < 2:
        raise ConfigError("V2xZ3 needs m >= 2")
    alpha = _lattice_perm(
        m,
        lambda a, b: (
            _ALPHA[0][0] * a + _ALPHA[0][1] * b,
            _ALPHA[1][0] * a + _ALPHA[1][1] * b,
        ),
    )
    gens = [translation(m, (1, 0)), translation(m, (0, 1)), alpha]
    return generate(gens, cap, name=f"(Z/{m})^2x|Z3")


def elementary_squared(p: int) -> FiniteGroup:
    """(Z/p)^2 as its translation action on p^2 points."""
    return generate(
        [translation(p, (1, 0)), translation(p, (0, 1))], name=f"(Z/{p})^2"
    )


def _regular_perms(elements: list, mul, gens: list) -> list[Perm]:
    """Right-regular action of each g in gens: x -> x*g on sorted elements."""
    index = {x: i for i, x in enumerate(elements)}
    return [tuple(index[mul(x, g)] for x in elements) for g in gens]


def heisenberg(p: int, cap: int | None = None) -> tuple[FiniteGroup, CentralExtension]:
    """H_{Z/p,3} by right-regular action, with its central Z/p quotient map."""
    require_prime(p, "Heis(p)")
    els = sorted(itertools.product(range(p), repeat=3))

    def mul(u, v):
        x1, y1, z1 = u
        x2, y2, z2 = v
        return ((x1 + x2) % p, (y1 + y2) % p, (z1 + z2 + x1 * y2) % p)

    x_gen, y_gen, z_gen = _regular_perms(els, mul, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    R = generate([x_gen, y_gen], cap, name=f"Heis({p})")
    if R.order != p**3:
        raise PresetOrderMismatch("Heisenberg closure has wrong order")
    quot = elementary_squared(p)
    proj = hom(R, quot, [translation(p, (1, 0)), translation(p, (0, 1))])
    ext = CentralExtension(R, quot, proj, kernel_gen=z_gen, p=p)
    return R, ext


# Frozen projection tables for the double covers, S = [[0,-1],[1,0]] and
# T = [[1,1],[0,1]] generating SL(2,q); kernel is the regular perm of -I.
_SL2_IMAGE_TABLE = {
    3: ("(1 2)(3 4)", "(2 3 4)"),
    5: ("(2 3)(4 5)", "(1 2 3 4 5)"),
}


def sl2_cover(q: int, cap: int | None = None) -> tuple[FiniteGroup, CentralExtension]:
    """SL(2,q) (q in {3,5}) with its projection onto A_4 resp. A_5."""
    if q not in _SL2_IMAGE_TABLE:
        raise ConfigError(f"no frozen double-cover table for q={q}")
    els = sorted(
        m
        for m in itertools.product(range(q), repeat=4)
        if (m[0] * m[3] - m[1] * m[2]) % q == 1
    )

    def mul(m1, m2):
        a, b, c, d = m1
        e, f, g, h = m2
        return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)

    s_gen, t_gen, minus_i = _regular_perms(
        els, mul, [(0, q - 1, 1, 0), (1, 1, 0, 1), (q - 1, 0, 0, q - 1)]
    )
    R = generate([s_gen, t_gen], cap, name=f"SL(2,{q})")
    if R.order != q * (q * q - 1):
        raise PresetOrderMismatch("SL(2,q) closure has wrong order")
    n = 4 if q == 3 else 5
    A = alternating(n, cap)
    s_img, t_img = (P.parse(txt, n) for txt in _SL2_IMAGE_TABLE[q])
    proj = hom(R, A, [s_img, t_img])
    ext = CentralExtension(R, A, proj, kernel_gen=minus_i, p=2)
    return R, ext


# kind -> (least parameter, constructor); a constructor that returns a
# (group, extension) pair names a cover of the extension's target, and
# _COVERS lists those kinds
_FAMILIES = {
    "A": (3, alternating),
    "S": (2, symmetric),
    "D": (3, dihedral),
    "V2xPM": (3, v2_pm),
    "V2xZ3": (2, v2_z3),
    "Heis": (2, heisenberg),
}
_COVERS = frozenset({"Heis", "SL23", "SL25"})


def make_group(
    spec: GroupSpec, cap: int | None = None
) -> tuple[FiniteGroup, CentralExtension | None]:
    """Realize a GroupSpec; a cover comes with its extension."""
    if spec.kind == "custom":
        degree = max(len(P.parse(s)) for s in spec.custom_gens)
        gens = [P.parse(s, degree) for s in spec.custom_gens]
        return generate(gens, cap, name="custom"), None
    if spec.kind in ("SL23", "SL25"):
        return sl2_cover(int(spec.kind[3:]), cap)
    built = _FAMILIES[spec.kind][1](spec.param, cap)
    return built if isinstance(built, tuple) else (built, None)


def group_from_string(
    text: str, cap: int | None = None
) -> tuple[FiniteGroup, CentralExtension | None]:
    return make_group(parse_group_spec(text), cap)


def dihedral_chain(p: int, k_max: int) -> tuple[list[FiniteGroup], list[GroupHom]]:
    """Shared-instance chain D_{p^{k+1}} -> D_{p^k} for k = 0..k_max-1."""
    return _family_chain([GroupSpec("D", p ** (k + 1)) for k in range(k_max + 1)])


def _unit_generators(m: int) -> list[int]:
    """Generators of (Z/m)*, greedily (desk-scale m)."""
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    gens: list[int] = []
    have = {1}
    for u in units:
        if u in have:
            continue
        gens.append(u)
        have = orbit_of(1, lambda v: [(v * g) % m for g in gens])
        if len(have) == len(units):
            break
    return gens


def gl2_automorphisms(m: int, group: FiniteGroup | None = None) -> list[GroupHom]:
    """GL_2(Z/m) generators acting on (Z/m)^2 x| {+-1} as automorphisms."""
    G = group if group is not None else v2_pm(m)
    if G.degree != m * m:
        raise ConfigError("group is not the m^2-point lattice realization")
    mats = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    mats += [((u, 0), (0, 1)) for u in _unit_generators(m)]
    homs = []
    neg = _lattice_perm(m, lambda a, b: (-a, -b))
    for mat in mats:
        images = [
            translation(m, (mat[0][0], mat[1][0])),
            translation(m, (mat[0][1], mat[1][1])),
            neg,
        ]
        homs.append(hom(G, G, images))
    return homs


def _family_chain(
    parsed: list[GroupSpec], cap: int | None = None
) -> tuple[list[FiniteGroup], list[GroupHom]]:
    """Groups and level maps of a base-first chain in one family, shared
    instances; a level map sends the generators of a level to the
    generators of the level below."""
    make = _FAMILIES[parsed[0].kind][1]
    groups = [make(s.param, cap) for s in parsed]
    homs = []
    for small, big, g_small, g_big in zip(parsed, parsed[1:], groups, groups[1:]):
        if big.param % small.param:
            raise ConfigError(f"{small.kind} chain needs m_k | m_{{k+1}}")
        homs.append(hom(g_big, g_small, g_small.generators))
    return groups, homs


def chain_from_specs(
    specs: list[str], cap: int | None = None
) -> tuple[FiniteGroup, list[GroupHom]]:
    """Level maps for a base-first chain of group specs.

    Supported: dihedral chains D(m0),D(m1),... with m_k | m_{k+1};
    lattice chains V2xPM(...); and the two-level double covers A(n),SL2q
    where SL(2,q) covers A(n).
    """
    parsed = [parse_group_spec(s) for s in specs]
    if len(parsed) < 2:
        raise ConfigError("a tower chain needs at least two levels")
    if len({s.kind for s in parsed}) == 1 and parsed[0].kind in ("D", "V2xPM"):
        groups, homs = _family_chain(parsed, cap)
        return groups[0], homs
    if len(parsed) == 2 and parsed[1].kind in ("SL23", "SL25"):
        _, ext = make_group(parsed[1], cap)
        if parsed[0] == GroupSpec("A", ext.G.degree):
            return ext.G, [ext.proj]
    raise ConfigError(
        "unsupported chain; use a dihedral or V2xPM family, or A(4),SL23 / A(5),SL25"
    )


def extension_from_string(
    text: str, target: FiniteGroup | None = None, cap: int | None = None
) -> CentralExtension:
    """A named cover, or a custom one as "R=<spec>; images=<perm>,...;
    kernel=<perm>; p=<prime>" with images/kernel in cycle notation.

    Custom extensions need the target group (the pipeline group); the
    projection is extended from the generator images, and that extension
    is the homomorphism check (see GroupHom).
    """
    body = text.strip()
    if "=" in body:
        if target is None:
            raise ConfigError("a custom extension needs the target group")
        fields = {}
        for part in body.split(";"):
            key, _, value = part.partition("=")
            fields[key.strip()] = value.strip()
        missing = {"R", "images", "kernel", "p"} - set(fields)
        if missing:
            raise ConfigError(f"extension spec missing {sorted(missing)}")
        p = require_prime(fields["p"], "the extension's p")
        R, _ = group_from_string(fields["R"], cap)
        images = [
            P.parse(s.strip(), target.degree)
            for s in re.findall(r"(?:\([^()]*\))+", fields["images"])
        ]
        proj = hom(R, target, images)
        kernel_gen = P.parse(fields["kernel"], R.degree)
        return CentralExtension(R, target, proj, kernel_gen, p)
    spec = parse_group_spec(body)
    if spec.kind not in _COVERS:
        raise ConfigError(f"no central extension named {text!r}")
    return make_group(spec, cap)[1]


def direct_product_with_cyclic(
    G: FiniteGroup, p: int, cap: int | None = None
) -> GroupHom:
    """Projection G x Z/p -> G on disjoint points (split-cover counterexample)."""
    n = G.degree
    wide = [tuple(g) + tuple(range(n, n + p)) for g in G.generators]
    cyc = tuple(range(n)) + tuple(n + ((i + 1) % p) for i in range(p))
    big = generate(wide + [cyc], cap, name=f"{G.name}xZ/{p}")
    images = list(G.generators) + [P.identity(n)]
    return hom(big, G, images)
