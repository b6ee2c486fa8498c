"""Built-in golden verification suites behind `nielsen-forge verify`.

Each criterion function returns named checks; the pytest acceptance module
asserts the same checks, so the CLI table and the test suite cannot drift
apart.  A few sub-checks assert literature values that the computation
demonstrably contradicts (see README, "Known discrepancies"); they are
reported as failures on purpose, next to the computed-truth companions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import perm as P
from .braid import (
    absolute_reduced_classes,
    apply_braid,
    braid_orbits,
    braid_orbits_r3,
    cusp_orbits,
    reduced_classes,
)
from .config import parse_class_selector
from .cusps import (
    classify_cusp,
    cover_genus,
    matrices_match_up_to_relabeling,
    middle_twist_orbit,
    sh_incidence,
)
from .errors import ConfigError, GenusHypothesisFails
from .groups import generate
from .lifting import (
    factor_through_pairs,
    is_frattini_cover,
    jennings_dims,
    lifting_invariant,
    spin_parity,
)
from .nielsen import (
    NielsenTuple,
    generates,
    canonical_context,
    enumerate_nielsen,
    inner_classes,
    nielsen_inner_classes,
)
from .presets import (
    alternating,
    dihedral_chain,
    direct_product_with_cyclic,
    gl2_automorphisms,
    heisenberg,
    sl2_cover,
    v2_pm,
    v2_z3,
)
from .report import run_pipeline
from .tower import LevelMap, build_graph, level_fiber, match_classes


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, got, expect) -> Check:
    return Check(name, got == expect, f"got {got}, expect {expect}")


@lru_cache(maxsize=None)
def _a4_data():
    """A4, C+-3^2, the SL(2,3) extension and its level-0 pipeline at p = 2."""
    A4 = alternating(4)
    C = parse_class_selector(A4, "3+:2,3-:2")
    _, ext = sl2_cover(3)
    return A4, C, ext, run_pipeline(A4, C, 2, ext)


@lru_cache(maxsize=None)
def _a5_c34_data():
    """A5, C3^4 through the pipeline at p = 2 with the SL(2,5) extension."""
    A5 = alternating(5)
    C = parse_class_selector(A5, "3:4")
    _, ext = sl2_cover(5)
    return run_pipeline(A5, C, 2, ext)


@lru_cache(maxsize=None)
def _a5_c53_data():
    """A5, C+-5,3 (r = 3), the tuples of ni(A5, C), and the SL(2,5) extension."""
    A5 = alternating(5)
    C = parse_class_selector(A5, "5+:1,5-:1,3:1")
    _, ext = sl2_cover(5)
    return A5, C, tuple(enumerate_nielsen(A5, C)), ext


def criterion_1() -> list[Check]:
    """A4 level 0: orbit sizes, widths, genera, invariants, Q'' lengths."""
    res = _a4_data()[3]
    orbits, dossiers = res.orbits, res.dossiers
    out = [
        _check("c1.inner-classes", res.inner_count, 30),
        _check("c1.reduced-classes", res.reduced_count, 15),
        _check("c1.orbit-sizes", [o.size for o in orbits], [9, 6]),
        _check("c1.widths", [d.widths for d in dossiers], [[2, 3, 4], [1, 1, 4]]),
        _check("c1.genera", [d.genus for d in dossiers], [0, 0]),
        _check("c1.lifts", [str(d.lift) for d in dossiers], ["+1", "-1"]),
        _check(
            "c1.q2-lengths",
            sorted({length for o in orbits for length in o.q2_lengths()}),
            [2],
        ),
    ]
    return out


TABLE_PLUS = ((1, 1, 2), (1, 0, 1), (2, 1, 0))
TABLE_MINUS = ((2, 1, 1), (1, 0, 0), (1, 0, 0))


def criterion_2() -> list[Check]:
    """sh-incidence equals the printed tables up to simultaneous relabeling."""
    out = []
    for d, table, tag in zip(_a4_data()[3].dossiers, (TABLE_PLUS, TABLE_MINUS), "+-"):
        m = d.sh_matrix
        out.append(
            Check(
                f"c2.table{tag}",
                matrices_match_up_to_relabeling(m.matrix, table),
                f"matrix {m.matrix}",
            )
        )
        out.append(Check(f"c2.symmetric{tag}", m.is_symmetric))
        widths = tuple(c.width for c in d.cusps)
        out.append(_check(f"c2.row-sums{tag}", m.row_sums, widths))
        m0 = sh_incidence(d.orbit, d.orbit_number, use_gamma_0=True)
        out.append(_check(f"c2.gamma0-same{tag}", m0.matrix, m.matrix))
    return out


def criterion_3() -> list[Check]:
    """Fixed points of gamma_1 / gamma_0 on the two A4 orbits."""
    plus, minus = _a4_data()[3].orbits

    def fixed(perm):
        return sum(1 for i, x in enumerate(perm) if x == i)

    return [
        _check("c3.gamma1-plus", fixed(plus.gamma_1), 1),
        _check("c3.gamma1-minus", fixed(minus.gamma_1), 0),
        _check("c3.gamma0-plus", fixed(plus.gamma_0), 0),
        _check("c3.gamma0-minus", fixed(minus.gamma_0), 0),
    ]


def criterion_4() -> list[Check]:
    """A5, C3^4: counts as stated; the stated width list is contradicted.

    The computed gamma_inf cycle type is (2,3,3,5,5): the two shift-of-H-M
    classes are swapped by q2 (conjugate only through an odd permutation),
    forming one width-2 g-2' cusp.  Widths {1,1,3,3,5,5} on 18 classes in
    one orbit are Riemann-Hurwitz-impossible (README, "Known discrepancies").
    """
    res = _a5_c34_data()
    out = [
        _check("c4.one-orbit", len(res.orbits), 1),
        _check("c4.reduced-classes", res.reduced_count, 18),
    ]
    cusps, widths = res.dossiers[0].cusps, res.dossiers[0].widths
    out.append(_check("c4.widths-as-stated", widths, [1, 1, 3, 3, 5, 5]))
    width1_shift_hm = [c for c in cusps if c.width == 1 and c.ctype.is_shift_of_hm]
    out.append(_check("c4.two-width-1-shift-of-hm-as-stated", len(width1_shift_hm), 2))
    out.append(_check("c4.computed-widths", widths, [2, 3, 3, 5, 5]))
    shift_hm = [(c.width, c.ctype.kind) for c in cusps if c.ctype.is_shift_of_hm]
    out.append(_check("c4.shift-of-hm-cusp", shift_hm, [(2, "g-p'")]))
    out.append(
        _check("c4.no-2-cusps", [c.ctype.kind for c in cusps if c.ctype.kind == "p"], [])
    )
    out.append(
        _check(
            "c4.hm-widths",
            sorted(c.width for c in cusps if c.ctype.is_hm),
            [5, 5],
        )
    )
    return out


def criterion_5() -> list[Check]:
    """A5, C+-5,3 in H3 mode: one orbit, invariant +1, member genus 1."""
    A5, C, tuples, ext = _a5_c53_data()
    inner = inner_classes(A5, C)
    h3 = braid_orbits_r3(inner)
    out = [_check("c5.one-h3-orbit", len(h3), 1)]
    lifts = {
        str(lifting_invariant(ext, NielsenTuple(A5, cls.canonical).perms))
        for cls in inner
    }
    out.append(_check("c5.invariant", lifts, {"+1"}))
    genera = {cover_genus(5, t.perms) for t in tuples}
    out.append(_check("c5.cover-genus", genera, {1}))
    return out


def criterion_6() -> list[Check]:
    """Dihedral towers p in {3,5}, k <= 2: counts, widths, FP1 growth."""
    out = []
    for p in (3, 5):
        groups, homs = dihedral_chain(p, 2)
        C = parse_class_selector(groups[0], "2:4")
        chain = [LevelMap(h, p) for h in homs]
        graph = build_graph(chain, C, p)
        for k, lv in enumerate(graph.levels):
            m = p ** (k + 1)
            phi = m - m // p
            expect = (m + m // p) * phi // 2
            got = sum(o.size for o in lv.orbits)
            out.append(_check(f"c6.p{p}.k{k}.inner-count", got, expect))
            out.append(_check(f"c6.p{p}.k{k}.one-orbit", len(lv.orbits), 1))
            d = lv.dossiers[0]
            hm = sorted(c.width for c in d.cusps if c.ctype.is_hm)
            out.append(_check(f"c6.p{p}.k{k}.hm-width", hm, [m] * len(hm)))
            out.append(
                Check(
                    f"c6.p{p}.k{k}.hm-present",
                    bool(hm),
                    f"H-M widths {hm}",
                )
            )
            shift = sorted(c.width for c in d.cusps if c.ctype.is_shift_of_hm)
            out.append(
                _check(f"c6.p{p}.k{k}.shift-width", shift, [1] * len(shift))
            )
        out.append(
            Check(
                f"c6.p{p}.width-growth",
                all(c.ok for c in graph.width_growth_checks),
                f"{sum(1 for c in graph.width_growth_checks if c.applicable)} applicable edges",
            )
        )
        out.append(
            Check(
                f"c6.p{p}.persistence",
                all(c.covered for c in graph.persistence_checks),
                f"{len(graph.persistence_checks)} g-p' cusps checked",
            )
        )
    return out


def criterion_7() -> list[Check]:
    """Lattice family: the stated phi/2 component count is contradicted.

    Computed: phi(p^{u+1}) components, indexed by the braid-invariant
    pairing value; the GL2 merge to a single absolute-reduced class holds
    (README, "Known discrepancies").
    """
    out = []
    for (p, u), half, full in (
        ((3, 0), 1, 2),
        ((3, 1), 3, 6),
        ((5, 0), 2, 4),
    ):
        m = p ** (u + 1)
        G = v2_pm(m)
        C = parse_class_selector(G, "2:4")
        reduced = reduced_classes(nielsen_inner_classes(G, C))
        orbits = braid_orbits(reduced)
        out.append(
            _check(f"c7.p{p}u{u}.components-as-stated", len(orbits), half)
        )
        out.append(_check(f"c7.p{p}u{u}.computed-components", len(orbits), full))
        if (p, u) == (3, 0):
            autos = gl2_automorphisms(m, G)
            buckets = absolute_reduced_classes(reduced, autos)
            out.append(_check("c7.absolute-reduced", len(buckets), 1))
    return out


def criterion_8() -> list[Check]:
    """H-M reps exist in ni((Z/p)^2 x| Z/3, C+-3^2) for p in {2,5,7}."""
    out = []
    for p in (2, 5, 7):
        G = v2_z3(p)
        c3 = [cls for cls, _ in parse_class_selector(G, "3+:1,3-:1").entries]
        ctx = canonical_context(G)
        target = sorted(
            [c3[0].member_ids[0]] * 2 + [c3[1].member_ids[0]] * 2
        )
        inv = G.inv
        found = False
        for a in c3[0].member_ids:
            for b in range(G.order):
                if G.element_orders[b] != 3:
                    continue
                t = (a, inv[a], b, inv[b])
                if sorted(ctx.class_min(x) for x in t) != target:
                    continue
                if generates(G, t):
                    found = True
                    break
            if found:
                break
        out.append(Check(f"c8.p{p}.hm-exists", found))
    # p = 2: the group is A4 in disguise; the level-0 numbers must agree.
    G2 = v2_z3(2)
    res = run_pipeline(G2, parse_class_selector(G2, "3+:2,3-:2"), 2)
    out.append(_check("c8.p2.orbit-sizes", [o.size for o in res.orbits], [9, 6]))
    out.append(
        _check("c8.p2.widths", [d.widths for d in res.dossiers], [[2, 3, 4], [1, 1, 4]])
    )
    return out


def criterion_9() -> list[Check]:
    """SL(2,3) braid orbits project onto exactly the s=+1 orbit of A4."""
    _, C, ext, down = _a4_data()
    lm = LevelMap(ext.proj, 2)
    orbits_up = run_pipeline(ext.R, match_classes(lm, C), 2).orbits
    out = [_check("c9.upstairs-orbit-count", len(orbits_up), 1)]
    fibers = [len(level_fiber(lm, orbits_up, od)) for od in down.orbits]
    out.append(_check("c9.fiber-over-plus", fibers[0] > 0, True))
    out.append(_check("c9.fiber-over-minus", fibers[1], 0))
    out.append(
        _check(
            "c9.matches-invariants",
            [str(d.lift) for d in down.dossiers],
            ["+1", "-1"],
        )
    )
    return out


def criterion_10() -> list[Check]:
    """Spin closed form vs extension invariant; FP3 everywhere applicable."""
    A4, C, ext, _ = _a4_data()
    tuples = enumerate_nielsen(A4, C)
    out = []
    # Degree-4 tuples all have cover genus 1, so the closed form must
    # refuse; where a genus-0 contraction exists (equal middle pair) the
    # two routes must agree.
    hypothesis_failures = 0
    agreements = 0
    contraction_checked = 0
    ok = True
    for t in tuples:
        perms = t.perms
        try:
            s = spin_parity(perms, 4)
            ok = ok and s == lifting_invariant(ext, perms).sign
            agreements += 1
        except GenusHypothesisFails:
            hypothesis_failures += 1
        g1, g2, g3, g4 = perms
        if g2 == g3:
            contracted = (g1, P.compose(g2, g3), g4)
            s3 = spin_parity(contracted, 4)
            ok = ok and s3 == lifting_invariant(ext, perms).sign
            contraction_checked += 1
    out.append(
        Check(
            "c10.a4-spin-agreement",
            ok,
            f"{agreements} direct, {hypothesis_failures} genus-blocked, "
            f"{contraction_checked} contractions",
        )
    )
    out.append(
        Check(
            "c10.a4-contractions-nonvacuous",
            contraction_checked > 0,
            f"{contraction_checked} tuples with equal middle pair",
        )
    )
    # r=3 class of three plus-3-cycles: genus 0 holds outright.
    C3 = parse_class_selector(A4, "3+:3")
    triples = enumerate_nielsen(A4, C3)
    spin_ok = all(
        spin_parity(t.perms, 4) == lifting_invariant(ext, t.perms).sign
        for t in triples
    )
    out.append(
        Check(
            "c10.a4-r3-spin-agreement",
            bool(triples) and spin_ok,
            f"{len(triples)} tuples in ni(A4, C+3^3)",
        )
    )
    # A5, C+-5,3 in the degree-5 representation: genus 1 everywhere.
    _, _, tuples5, ext5 = _a5_c53_data()
    blocked = 0
    ok5 = True
    for t in tuples5:
        try:
            s = spin_parity(t.perms, 5)
            ok5 = ok5 and s == lifting_invariant(ext5, t.perms).sign
        except GenusHypothesisFails:
            blocked += 1
    out.append(
        Check("c10.a5-spin-agreement", ok5, f"{blocked} genus-blocked tuples")
    )
    # FP3 on every applicable 4-tuple of ni(A4, C+-3^2).
    factorization_ok = True
    applicable = 0
    example_seen = False
    for t in tuples:
        perms = t.perms
        mid = P.compose(perms[1], perms[2])
        if P.order(mid) % 2 == 0:
            continue
        r = factor_through_pairs(ext, perms, 2)
        factorization_ok = factorization_ok and r.ok
        applicable += 1
        if perms == tuple(
            P.parse(s, 4) for s in ("(1 2 4)", "(1 2 3)", "(1 3 4)", "(1 2 4)")
        ):
            example_seen = (
                r.s23.sign == -1 and r.s14.sign == 1 and r.s.sign == -1
            )
    out.append(
        Check("c10.factorization-everywhere", factorization_ok, f"{applicable} applicable tuples")
    )
    out.append(Check("c10.factorization-worked-example", example_seen, "(-1)=(+1)(-1)"))
    return out


def criterion_11() -> list[Check]:
    """Frattini cover checks."""
    out = []
    for p in (3, 5):
        _, ext = heisenberg(p)
        out.append(
            Check(f"c11.heis{p}", is_frattini_cover(ext.proj) is True)
        )
    _, ext3 = sl2_cover(3)
    out.append(Check("c11.sl23", is_frattini_cover(ext3.proj) is True))
    A4 = alternating(4)
    proj = direct_product_with_cyclic(A4, 3)
    out.append(Check("c11.split-product", is_frattini_cover(proj) is False))
    return out


def criterion_12() -> list[Check]:
    """Jennings dimensions."""
    out = [
        _check("c12.p3n2", list(jennings_dims(3, 2).dims), [1, 2, 3, 2, 1]),
        _check("c12.p3n2-sum", jennings_dims(3, 2).total, 9),
    ]
    all_pal = True
    cases = 0
    for p in (2, 3, 5, 7, 11, 13):
        n = 1
        while p**n <= 3125:
            prof = jennings_dims(p, n)
            all_pal = all_pal and prof.is_palindromic and prof.total == p**n
            cases += 1
            n += 1
    out.append(Check("c12.palindromic", all_pal, f"{cases} (p,n) cases"))
    return out


def criterion_13() -> list[Check]:
    """Both A4 components fail the congruence screen."""
    out = []
    for d, tag, level in zip(_a4_data()[3].dossiers, ("plus", "minus"), (12, 4)):
        s = d.screen
        out.append(_check(f"c13.{tag}-level", s.level, level))
        out.append(_check(f"c13.{tag}-verdict", s.verdict, "fails"))
    return out


def criterion_14() -> list[Check]:
    """Property suites: relations, invariance, constancy, formulas."""
    out = []
    A4, C, ext, res = _a4_data()
    tuples = enumerate_nielsen(A4, C)
    # braid relation q1 q2 q1 = q2 q1 q2 on every tuple
    rel_ok = all(
        apply_braid(t, [(1, 1), (2, 1), (1, 1)]).ids
        == apply_braid(t, [(2, 1), (1, 1), (2, 1)]).ids
        for t in tuples
    )
    out.append(Check("c14.braid-relation", rel_ok, f"{len(tuples)} tuples"))
    # gamma relations per orbit (A4 plus A5 C3^4)
    orbits = res.orbits + _a5_c34_data().orbits
    gamma_ok = True
    for o in orbits:
        n = o.size
        ident = tuple(range(n))
        g0, g1, gi = o.gamma_0, o.gamma_1, o.gamma_inf
        gamma_ok = gamma_ok and P.compose(P.compose(g0, g0), g0) == ident
        gamma_ok = gamma_ok and P.compose(g1, g1) == ident
        gamma_ok = gamma_ok and P.compose(P.compose(g0, g1), gi) == ident
    out.append(Check("c14.gamma-relations", gamma_ok))
    # braid invariance of lifting invariants, exhaustively on the goldens
    inv_ok = True
    for t in tuples:
        base = lifting_invariant(ext, t.perms).exponent
        for i in (1, 2, 3):
            for s in (1, -1):
                moved = apply_braid(t, [(i, s)])
                inv_ok = inv_ok and (
                    lifting_invariant(ext, moved.perms).exponent == base
                )
    out.append(Check("c14.lift-braid-invariance-a4", inv_ok))
    _, _, tuples5, ext5 = _a5_c53_data()
    inv5_ok = True
    for t in tuples5:
        base = lifting_invariant(ext5, t.perms).exponent
        for i in (1, 2):
            moved = apply_braid(t, [(i, 1)])
            inv5_ok = inv5_ok and (
                lifting_invariant(ext5, moved.perms).exponent == base
            )
    out.append(Check("c14.lift-braid-invariance-a5", inv5_ok))
    # cusp-type constancy over cusp orbits (classify_cusp raises otherwise)
    constancy = True
    try:
        for o in orbits:
            for c in cusp_orbits(o):
                classify_cusp(c, 2)
    except Exception:
        constancy = False
    out.append(Check("c14.cusp-type-constancy", constancy))
    # middle twist formula vs iteration on all pairs from golden groups
    # (middle_twist_orbit raises FormulaMismatch internally on any defect)
    from .presets import dihedral

    pairs = 0
    formula_ok = True
    try:
        for G in (A4, dihedral(9)):
            for a in G.elements:
                for b in G.elements:
                    if P.is_identity(a) or P.is_identity(b):
                        continue
                    middle_twist_orbit(a, b)
                    pairs += 1
    except Exception:
        formula_ok = False
    out.append(Check("c14.middle-twist-formula", formula_ok, f"{pairs} pairs"))
    # non-p-perfect emptiness (Z/6, p=2, order-3 classes)
    Z6 = generate([P.from_cycles([tuple(range(6))], 6)], name="Z6")
    C6 = parse_class_selector(Z6, "3+:2,3-:2")
    out.append(
        _check("c14.perfnongen-empty", len(enumerate_nielsen(Z6, C6)), 0)
    )
    # the worked Q'' identities on the A4 H-M representative:
    # (bg)sh^2 = (1 3)(2 4) bg (1 3)(2 4) and (bg)q1q3^-1 = (1 3) bg (1 3)
    bg11 = tuple(
        P.parse(s, 4) for s in ("(1 2 3)", "(1 3 2)", "(1 3 4)", "(1 4 3)")
    )

    def literal(word, entries):
        t = NielsenTuple(A4, tuple(A4.id_of(g) for g in entries))
        return apply_braid(t, word).perms

    sh_word = [(1, 1), (2, 1), (3, 1)]
    sh2 = literal(sh_word + sh_word, bg11)
    conj_a = tuple(P.conjugate(g, P.parse("(1 3)(2 4)", 4)) for g in bg11)
    out.append(_check("c14.q2-check-sh2", sh2, conj_a))
    q13 = literal([(1, 1), (3, -1)], bg11)
    conj_b = tuple(P.conjugate(g, P.parse("(1 3)", 4)) for g in bg11)
    out.append(_check("c14.q2-check-q1q3inv", q13, conj_b))
    return out


CRITERIA = {
    "c1": criterion_1,
    "c2": criterion_2,
    "c3": criterion_3,
    "c4": criterion_4,
    "c5": criterion_5,
    "c6": criterion_6,
    "c7": criterion_7,
    "c8": criterion_8,
    "c9": criterion_9,
    "c10": criterion_10,
    "c11": criterion_11,
    "c12": criterion_12,
    "c13": criterion_13,
    "c14": criterion_14,
}

SUITES = {
    "a4-level0": ("c1", "c2", "c3", "c13"),
    "a5": ("c4", "c5"),
    "dihedral-towers": ("c6",),
    "appendix-families": ("c7", "c8"),
    "obstruction": ("c9",),
    "spin-factorization": ("c10",),
    "frattini": ("c11",),
    "jennings": ("c12",),
    "properties": ("c14",),
    "all": tuple(CRITERIA),
}

# Sub-checks asserting literature values the computation refutes; they
# stay red by design (README, "Known discrepancies").
KNOWN_DISCREPANCIES = {
    "c4.widths-as-stated",
    "c4.two-width-1-shift-of-hm-as-stated",
    "c7.p3u0.components-as-stated",
    "c7.p3u1.components-as-stated",
    "c7.p5u0.components-as-stated",
}


def run_suite(name: str) -> list[Check]:
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    checks: list[Check] = []
    for crit in SUITES[name]:
        checks.extend(CRITERIA[crit]())
    return checks
