from functools import reduce

import pytest

from nielsen_forge import perm as P
from nielsen_forge.braid import braid_orbits, cusp_orbits, reduced_classes
from nielsen_forge.cusps import (
    G_PRIME,
    O_PRIME,
    P_CUSP,
    classify_cusp,
    component_dossier,
    congruence_screen,
    cover_genus,
    genus,
    matrices_match_up_to_relabeling,
    middle_twist_orbit,
    modular_curve_table,
    monodromy_order,
    sh_incidence,
)
from nielsen_forge.nielsen import ClassMultiset, enumerate_nielsen, nielsen_inner_classes
from nielsen_forge.presets import alternating, dihedral, sl2_cover


def _a4_orbits():
    A4 = alternating(4)
    cls3 = sorted(
        (c for c in A4.conjugacy_classes() if c.element_order == 3),
        key=lambda c: c.member_ids[0],
    )
    C = ClassMultiset([(cls3[0], 2), (cls3[1], 2)])
    return A4, C, braid_orbits(reduced_classes(nielsen_inner_classes(A4, C)))


def test_middle_twist_worked_values():
    a, b = P.parse("(1 3 2)", 4), P.parse("(1 3 4)", 4)
    assert P.compose(a, b) == P.parse("(1 4)(2 3)", 4)
    mt = middle_twist_orbit(a, b)
    assert mt.o == 2
    c = P.parse("(1 2 4)", 4)
    assert middle_twist_orbit(c, c).o_prime == 1
    assert middle_twist_orbit(c, c).o == 1


def test_middle_twist_identity_rejected():
    with pytest.raises(ValueError):
        middle_twist_orbit(P.identity(4), P.parse("(1 2 3)", 4))


def test_classify_cusp_kinds_a4():
    A4, C, orbits = _a4_orbits()
    _, ext = sl2_cover(3)
    plus, minus = orbits
    kinds_plus = {
        c.width: classify_cusp(c, 2, ext).kind for c in cusp_orbits(plus)
    }
    assert kinds_plus == {3: O_PRIME, 4: P_CUSP, 2: G_PRIME}
    kinds_minus = [classify_cusp(c, 2, ext) for c in cusp_orbits(minus)]
    assert sorted(t.kind for t in kinds_minus) == [O_PRIME, O_PRIME, P_CUSP]
    # the o-2' cusps of the minus orbit are not weigel candidates (s23 = -1)
    for t in kinds_minus:
        if t.kind == O_PRIME:
            assert t.weigel_candidate is False


def test_dihedral_hm_cusp_types():
    D9 = dihedral(9)
    inv = [c for c in D9.conjugacy_classes() if c.element_order == 2][0]
    C = ClassMultiset([(inv, 4)])
    orbit = braid_orbits(reduced_classes(nielsen_inner_classes(D9, C)))[0]
    by_width = {}
    for c in cusp_orbits(orbit):
        by_width.setdefault(c.width, []).append(classify_cusp(c, 3))
    assert all(t.kind == P_CUSP and t.is_hm for t in by_width[9])
    assert all(t.kind == G_PRIME and t.is_shift_of_hm for t in by_width[1])


def test_sh_incidence_tables():
    _, _, orbits = _a4_orbits()
    m_plus = sh_incidence(orbits[0], 1)
    m_minus = sh_incidence(orbits[1], 2)
    assert matrices_match_up_to_relabeling(
        m_plus.matrix, ((1, 1, 2), (1, 0, 1), (2, 1, 0))
    )
    assert matrices_match_up_to_relabeling(
        m_minus.matrix, ((2, 1, 1), (1, 0, 0), (1, 0, 0))
    )
    for orbit, m in zip(orbits, (m_plus, m_minus)):
        assert m.is_symmetric
        widths = tuple(c.width for c in cusp_orbits(orbit))
        assert m.row_sums == widths
        assert sh_incidence(orbit, 1, use_gamma_0=True).matrix == m.matrix


def test_singleton_orbit_matrix():
    assert matrices_match_up_to_relabeling(((3,),), ((3,),))
    assert not matrices_match_up_to_relabeling(((1, 0), (0, 1)), ((1, 1), (0, 1)))


def test_genus_values():
    _, _, orbits = _a4_orbits()
    g_plus = genus(orbits[0])
    assert (g_plus.degree, g_plus.genus) == (9, 0)
    assert (
        g_plus.ind_gamma_0 + g_plus.ind_gamma_1 + g_plus.ind_gamma_inf
    ) == 16
    g_minus = genus(orbits[1])
    assert (g_minus.degree, g_minus.genus) == (6, 0)
    # width-minus-one sums to ind(gamma_inf)
    for orbit, g in zip(orbits, (g_plus, g_minus)):
        assert (
            sum(c.width - 1 for c in cusp_orbits(orbit)) == g.ind_gamma_inf
        )


def test_cover_genus():
    A4, C, _ = _a4_orbits()
    t = enumerate_nielsen(A4, C)[0]
    assert cover_genus(4, t.perms) == 1
    with pytest.raises(ValueError):
        cover_genus(4, [P.parse("(1 2)", 4)] * 2)  # not transitive


def test_cover_genus_regular_a5():
    A5 = alternating(5)
    els = A5.elements
    idx = {e: i for i, e in enumerate(els)}

    def reg(p):
        return tuple(idx[P.compose(e, p)] for e in els)

    g1 = P.parse("(5 4 3 2 1)", 5)
    g2 = P.parse("(2 4 3 5 1)", 5)
    g3 = P.parse("(4 3 5)", 5)
    assert reduce(P.compose, [g1, g2, g3]) == P.identity(5)
    assert cover_genus(60, [reg(g1), reg(g2), reg(g3)]) == 9


def test_screen_verdicts():
    A4, _, orbits = _a4_orbits()
    _, ext = sl2_cover(3)
    dossiers = [
        component_dossier(o, i + 1, 2, ext) for i, o in enumerate(orbits)
    ]
    assert dossiers[0].screen.level == 12
    assert dossiers[0].screen.verdict == "fails"
    assert dossiers[1].screen.level == 4
    assert dossiers[1].screen.verdict == "fails"
    assert dossiers[1].screen.obstructed
    # without the lifting-invariant ingredient the minus orbit is
    # cover-isomorphic to X0(4), and the screen must report that honestly
    bare = congruence_screen(orbits[1])
    assert bare.verdict == "consistent-with"
    assert set(bare.matches) == {"X0(4)", "X1(4)"}
    assert bare.monodromy_order == 24


def test_screen_dihedral_consistent():
    D9 = dihedral(9)
    inv = [c for c in D9.conjugacy_classes() if c.element_order == 2][0]
    C = ClassMultiset([(inv, 4)])
    orbit = braid_orbits(reduced_classes(nielsen_inner_classes(D9, C)))[0]
    s = congruence_screen(orbit)
    assert s.verdict == "consistent-with"
    assert "X1(9)" in s.matches


def test_weigel_candidate_positive_case():
    # the width-1 o-2' cusp of ((3 4 5),(5 4 3 2 1),(2 4 3 5 1),(3 4 5))
    # factors with s23 = s14 = +1, so it is flagged as a Weigel candidate
    from per_move import reduced_canonical
    from nielsen_forge.lifting import factor_through_pairs
    from nielsen_forge.nielsen import canonical_context, nielsen_inner_classes
    from nielsen_forge.presets import sl2_cover as _sl2

    A5 = alternating(5)
    _, ext5 = _sl2(5)
    bg = tuple(
        P.parse(s, 5)
        for s in ("(3 4 5)", "(5 4 3 2 1)", "(2 4 3 5 1)", "(3 4 5)")
    )
    r = factor_through_pairs(ext5, bg, 2)
    assert (r.s23.sign, r.s14.sign, r.s.sign, r.ok) == (1, 1, 1, True)
    c5 = sorted(
        (c for c in A5.conjugacy_classes() if c.element_order == 5),
        key=lambda c: c.member_ids[0],
    )
    c3 = [c for c in A5.conjugacy_classes() if c.element_order == 3][0]
    C = ClassMultiset([(c5[0], 1), (c5[1], 1), (c3, 2)])
    orbits = braid_orbits(reduced_classes(nielsen_inner_classes(A5, C)))
    ctx = canonical_context(A5)
    target = reduced_canonical(A5, ctx, tuple(A5.id_of(g) for g in bg))
    hits = [
        classify_cusp(c, 2, ext5)
        for o in orbits
        for c in cusp_orbits(o)
        if target in c.member_canonicals
    ]
    assert len(hits) == 1
    assert hits[0].kind == O_PRIME and hits[0].weigel_candidate is True


def test_gamma_fixed_points_sit_on_nonzero_diagonal():
    # fixed points of gamma_1 or gamma_0 only occur in cusps whose
    # diagonal sh-incidence entry is nonzero
    _, _, orbits = _a4_orbits()
    for orbit in orbits:
        cusps = cusp_orbits(orbit)
        m = sh_incidence(orbit, 1)
        position = {t: i for i, t in enumerate(orbit.members)}
        index_of = {}
        for j, c in enumerate(cusps):
            for t in c.member_canonicals:
                index_of[position[t]] = j
        for action in (orbit.gamma_1, orbit.gamma_0):
            for i, img in enumerate(action):
                if img == i:
                    j = index_of[i]
                    assert m.matrix[j][j] != 0


def test_custom_extension_grammar():
    from nielsen_forge.lifting import lifting_invariant
    from nielsen_forge.presets import extension_from_string, sl2_cover

    A4, _, _ = _a4_orbits()
    R, ext = sl2_cover(3)
    kernel = P.format_cycles(R.perm(ext.kernel_gen_id))
    spec = f"R=SL23; images=(1 2)(3 4),(2 3 4); kernel={kernel}; p=2"
    ext2 = extension_from_string(spec, A4)
    bg14 = tuple(
        P.parse(s, 4) for s in ("(1 2 3)", "(1 2 4)", "(1 2 4)", "(4 3 2)")
    )
    assert lifting_invariant(ext2, bg14).sign == -1


def test_modular_table_invariants():
    table = modular_curve_table()
    assert any(e.family == "X1" and e.level == 27 for e in table)
    for e in table:
        assert sum(e.widths) == e.degree
        assert all(e.level % 1 == 0 for _ in (e,))
    x2 = [e for e in table if e.family == "X" and e.level == 2][0]
    assert x2.degree == 6 and list(x2.widths) == [2, 2, 2]


SH_CASES = [
    ("A(4)", "3+:2,3-:2"),
    ("A(5)", "3:4"),
    ("D(9)", "2:4"),
    ("D(25)", "2:4"),
    ("V2xPM(5)", "2:4"),
    ("SL23", "3+:2,3-:2"),
]


def _sh_incidence_by_definition(orbit, use_gamma_0):
    """|O_a intersect (O_b)sh| as frozenset intersections of member positions."""
    cusps = cusp_orbits(orbit)
    action = orbit.gamma_0 if use_gamma_0 else orbit.gamma_1
    position = {t: i for i, t in enumerate(orbit.members)}
    index_sets = [
        frozenset(position[t] for t in c.member_canonicals) for c in cusps
    ]
    images = [frozenset(action[i] for i in s) for s in index_sets]
    return tuple(
        tuple(len(index_sets[a] & images[b]) for b in range(len(cusps)))
        for a in range(len(cusps))
    )


@pytest.mark.parametrize("use_gamma_0", [False, True])
@pytest.mark.parametrize("spec, classes", SH_CASES)
def test_sh_incidence_matches_frozenset_definition(spec, classes, use_gamma_0):
    from nielsen_forge.config import parse_class_selector
    from nielsen_forge.presets import group_from_string

    G, _ = group_from_string(spec)
    inner = nielsen_inner_classes(G, parse_class_selector(G, classes))
    for orbit in braid_orbits(reduced_classes(inner)):
        m = sh_incidence(orbit, 1, use_gamma_0=use_gamma_0)
        assert m.matrix == _sh_incidence_by_definition(orbit, use_gamma_0)
        # sh is an involution, so the pairing is symmetric
        assert m.is_symmetric


_MONODROMY_CASES = [
    ("D(9)", "2:4"),
    ("D(15)", "2:4"),
    ("V2xPM(5)", "2:4"),
    ("A(4)", "3+:2,3-:2"),
]


def _components(spec, classes):
    from nielsen_forge.config import parse_class_selector
    from nielsen_forge.presets import group_from_string

    G, _ = group_from_string(spec)
    C = parse_class_selector(G, classes)
    return braid_orbits(reduced_classes(nielsen_inner_classes(G, C)))


@pytest.mark.parametrize("spec,classes", _MONODROMY_CASES)
def test_monodromy_order_matches_three_generator_group(spec, classes):
    from nielsen_forge.groups import generate

    for o in _components(spec, classes):
        order = generate([o.gamma_0, o.gamma_1, o.gamma_inf]).order
        assert monodromy_order(o, order) == order
        assert monodromy_order(o, 10 * order) == order
        # None exactly when the order passes the cap
        assert monodromy_order(o, order - 1) is None


def test_monodromy_order_composition_budget(monkeypatch):
    # the D(15) component has degree 96 and monodromy order 1440; listing
    # the group costs one product per element and generator (2880), while a
    # stabilizer chain needs far fewer
    import nielsen_forge.perm as perm_module

    (orbit,) = _components("D(15)", "2:4")
    assert orbit.size == 96
    calls = 0
    compose = perm_module.compose

    def counting(p, q):
        nonlocal calls
        calls += 1
        return compose(p, q)

    monkeypatch.setattr(perm_module, "compose", counting)
    assert monodromy_order(orbit, 2880) == 1440
    assert 0 < calls <= 1000


@pytest.mark.parametrize(
    "spec, classes, p",
    [("D(15)", "2:4", 3), ("V2xPM(3)", "2:4", 3), ("A(5)", "3:4", 2), ("D(25)", "2:4", 5)],
)
def test_cusp_typing_budgets(monkeypatch, spec, classes, p):
    # one H-M scan per class of each component, and one pair closure per
    # conjugacy class of sorted pairs <g2, g3>, <g1, g4> over all cusps
    import nielsen_forge.cusps as cusps_module
    from nielsen_forge.groups import FiniteGroup
    from nielsen_forge.nielsen import canonical_context

    orbits = _components(spec, classes)
    group = orbits[0].group
    ctx = canonical_context(group)
    pairs = set()
    for o in orbits:
        for cusp in cusp_orbits(o):
            for g1, g2, g3, g4 in cusp.member_canonicals:
                for x, y in ((g2, g3), (g1, g4)):
                    pairs.add(ctx.canon((x, y) if x <= y else (y, x)))
    scans, closures = [], []
    is_hm, closure = cusps_module._is_hm, FiniteGroup.subgroup_closure

    def counted_is_hm(g, cls):
        scans.append(cls.canonical)
        return is_hm(g, cls)

    def counted_closure(self, ids):
        closures.append(tuple(ids))
        return closure(self, ids)

    monkeypatch.setattr(cusps_module, "_is_hm", counted_is_hm)
    monkeypatch.setattr(FiniteGroup, "subgroup_closure", counted_closure)
    for o in orbits:
        for cusp in cusp_orbits(o):
            classify_cusp(cusp, p)
    assert sorted(scans) == sorted(c.canonical for o in orbits for c in o.classes)
    assert len(closures) == len(set(closures)) <= len(pairs)
