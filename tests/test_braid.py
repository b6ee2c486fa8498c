import pytest

from nielsen_forge import perm as P
from nielsen_forge.braid import (
    apply_braid,
    braid_orbits,
    braid_orbits_r3,
    cusp_orbits,
    reduced_classes,
)
from nielsen_forge.errors import RankNotFour
from nielsen_forge.nielsen import (
    ClassMultiset,
    NielsenTuple,
    enumerate_nielsen,
    inner_classes,
    nielsen_inner_classes,
)
from nielsen_forge.presets import alternating, dihedral


def _a4_setup():
    A4 = alternating(4)
    cls3 = sorted(
        (c for c in A4.conjugacy_classes() if c.element_order == 3),
        key=lambda c: c.member_ids[0],
    )
    C = ClassMultiset([(cls3[0], 2), (cls3[1], 2)])
    inner = nielsen_inner_classes(A4, C)
    return A4, C, inner


def test_q2_twist_matches_worked_example():
    # bg_{3,1} under q2 equals conjugating the middle two by (2 4 3)
    A4, _, _ = _a4_setup()
    bg = NielsenTuple(
        A4,
        tuple(
            A4.id_of(P.parse(s, 4))
            for s in ("(1 2 3)", "(1 3 2)", "(1 4 3)", "(1 3 4)")
        ),
    )
    out = apply_braid(bg, [(2, 1)])
    expect = tuple(
        P.parse(s, 4) for s in ("(1 2 3)", "(1 2 4)", "(1 3 2)", "(1 3 4)")
    )
    assert out.perms == expect


def test_gamma_inf_worked_chains_element_level():
    # literal q2 images of the two worked representatives:
    # ((123),(132),(134),(143)) -> ((123),(142),(132),(143))
    # ((123),(124),(142),(132)) -> ((123),(142),(124),(132))
    A4, _, _ = _a4_setup()

    def lift(*texts):
        return NielsenTuple(
            A4, tuple(A4.id_of(P.parse(s, 4)) for s in texts)
        )

    bg11 = lift("(1 2 3)", "(1 3 2)", "(1 3 4)", "(1 4 3)")
    assert apply_braid(bg11, [(2, 1)]).perms == tuple(
        P.parse(s, 4) for s in ("(1 2 3)", "(1 4 2)", "(1 3 2)", "(1 4 3)")
    )
    bg13 = lift("(1 2 3)", "(1 2 4)", "(1 4 2)", "(1 3 2)")
    assert apply_braid(bg13, [(2, 1)]).perms == tuple(
        P.parse(s, 4) for s in ("(1 2 3)", "(1 4 2)", "(1 2 4)", "(1 3 2)")
    )
    # the squared middle twist conjugates the middle pair by the middle
    # product (check on the first representative: by (1 4)(2 3))
    twice = apply_braid(bg11, [(2, 1), (2, 1)]).perms
    c = P.parse("(1 4)(2 3)", 4)
    assert twice == (
        bg11.perms[0],
        P.conjugate(bg11.perms[1], c),
        P.conjugate(bg11.perms[2], c),
        bg11.perms[3],
    )


def test_braid_word_inverses_cancel():
    A4, C, _ = _a4_setup()
    for t in enumerate_nielsen(A4, C)[:40]:
        assert apply_braid(t, []).ids == t.ids
        assert apply_braid(t, [(2, 1), (2, -1)]).ids == t.ids
        assert apply_braid(t, [(1, -1), (1, 1)]).ids == t.ids


def test_braid_index_range_checked():
    A4, C, _ = _a4_setup()
    t = enumerate_nielsen(A4, C)[0]
    with pytest.raises(ValueError):
        apply_braid(t, [(4, 1)])


def test_reduced_classes_a4():
    _, _, inner = _a4_setup()
    red = reduced_classes(inner)
    assert len(red) == 15
    assert all(r.q2_orbit_length == 2 for r in red)
    assert sum(r.size for r in red) == sum(c.orbit_size for c in inner)


def test_reduced_requires_rank_four():
    A4 = alternating(4)
    cls3 = [c for c in A4.conjugacy_classes() if c.element_order == 3]
    C3 = ClassMultiset([(cls3[0], 3)])
    inner3 = inner_classes(enumerate_nielsen(A4, C3))
    with pytest.raises(RankNotFour):
        reduced_classes(inner3)


def test_braid_orbit_sizes_and_widths_a4():
    _, _, inner = _a4_setup()
    orbits = braid_orbits(reduced_classes(inner))
    assert [o.size for o in orbits] == [9, 6]
    widths = [sorted(c.width for c in cusp_orbits(o)) for o in orbits]
    assert widths == [[2, 3, 4], [1, 1, 4]]
    for o in orbits:
        assert sum(c.width for c in cusp_orbits(o)) == o.size


def test_a5_c34_orbit():
    A5 = alternating(5)
    c3 = [c for c in A5.conjugacy_classes() if c.element_order == 3][0]
    C = ClassMultiset([(c3, 4)])
    red = reduced_classes(nielsen_inner_classes(A5, C))
    assert len(red) == 18
    orbits = braid_orbits(red)
    assert len(orbits) == 1


def test_dihedral_q2_acts_trivially_on_classes():
    D9 = dihedral(9)
    inv = [c for c in D9.conjugacy_classes() if c.element_order == 2][0]
    C = ClassMultiset([(inv, 4)])
    red = reduced_classes(nielsen_inner_classes(D9, C))
    assert all(r.q2_orbit_length == 1 for r in red)


def test_h3_orbits_a5():
    A5 = alternating(5)
    c5 = sorted(
        (c for c in A5.conjugacy_classes() if c.element_order == 5),
        key=lambda c: c.member_ids[0],
    )
    c3 = [c for c in A5.conjugacy_classes() if c.element_order == 3][0]
    C = ClassMultiset([(c5[0], 1), (c5[1], 1), (c3, 1)])
    inner = inner_classes(enumerate_nielsen(A5, C))
    orbits = braid_orbits_r3(inner)
    assert len(orbits) == 1
    assert orbits[0].size == len(inner)


def test_singleton_orbit_degenerate_case():
    # Z/2 with four involution entries: one tuple, one reduced class,
    # a singleton braid orbit fixed by every generator
    from nielsen_forge.cusps import genus
    from nielsen_forge.groups import generate
    from nielsen_forge.nielsen import nielsen_inner_classes

    z2 = generate([P.parse("(1 2)", 2)], name="Z2")
    inv = [c for c in z2.conjugacy_classes() if c.element_order == 2][0]
    C = ClassMultiset([(inv, 4)])
    orbits = braid_orbits(reduced_classes(nielsen_inner_classes(z2, C)))
    assert [o.size for o in orbits] == [1]
    cusps = cusp_orbits(orbits[0])
    assert [c.width for c in cusps] == [1]
    assert genus(orbits[0]).genus == 0


def test_gamma_maps_are_permutations_of_members():
    _, _, inner = _a4_setup()
    for o in braid_orbits(reduced_classes(inner)):
        for g in (o.gamma_0, o.gamma_1, o.gamma_inf):
            assert sorted(g) == list(range(o.size))


def test_braid_commutes_with_conjugation():
    A4, C, _ = _a4_setup()
    from nielsen_forge.nielsen import canonical_context

    ctx = canonical_context(A4)
    tuples = enumerate_nielsen(A4, C)
    for t in tuples[:30]:
        base = ctx.canon(apply_braid(t, [(2, 1)]).ids)
        for h in range(A4.order):
            conj = NielsenTuple(A4, tuple(A4.conj(x, h) for x in t.ids))
            assert ctx.canon(apply_braid(conj, [(2, 1)]).ids) == base


TABLE_CASES = [
    ("A(4)", "3+:2,3-:2", 2),
    ("A(5)", "3:4", 2),
    ("D(9)", "2:4", 3),
    ("V2xPM(5)", "2:4", 5),
    ("S(4)", "(1 2):2,(1 2 3):2", 2),
]


def _case_orbits(spec, classes):
    from nielsen_forge.config import parse_class_selector
    from nielsen_forge.presets import group_from_string

    G, _ = group_from_string(spec)
    inner = nielsen_inner_classes(G, parse_class_selector(G, classes))
    return G, braid_orbits(reduced_classes(inner))


@pytest.mark.parametrize("spec, classes, p", TABLE_CASES)
def test_braid_table_matches_per_move_canonicals(spec, classes, p):
    from nielsen_forge.braid import _shift_ids, _twist, reduced_canonical
    from nielsen_forge.nielsen import canonical_context

    G, orbits = _case_orbits(spec, classes)
    ctx = canonical_context(G)
    for o in orbits:
        for i, t in enumerate(o.members):
            assert o.members[o.gamma_inf[i]] == reduced_canonical(
                G, ctx, _twist(G, t, 1, +1)
            )
            assert o.members[o.gamma_1[i]] == reduced_canonical(
                G, ctx, _shift_ids(t)
            )


@pytest.mark.parametrize("spec, classes, p", TABLE_CASES)
def test_cusp_hm_flags_match_q2_definition(spec, classes, p):
    from nielsen_forge.braid import q2_variants
    from nielsen_forge.cusps import classify_cusp
    from nielsen_forge.nielsen import canonical_context

    G, orbits = _case_orbits(spec, classes)
    ctx = canonical_context(G)

    def is_hm(canon):
        return any(
            t[1] == G.inv[t[0]] and t[3] == G.inv[t[2]]
            for t in q2_variants(G, ctx, canon)
        )

    for o in orbits:
        for cusp in cusp_orbits(o):
            ctype = classify_cusp(cusp, p)
            members = cusp.member_canonicals
            assert ctype.is_hm == any(is_hm(t) for t in members)
            assert ctype.is_shift_of_hm == any(
                is_hm(min(q2_variants(G, ctx, ctx.canon(t[1:] + t[:1]))))
                for t in members
            )


def test_reduction_and_orbits_canonicalize_a_bounded_number_of_times(monkeypatch):
    # one Q'' closure per inner class and one canonicalization per braid
    # move: at most 8 canon calls per inner class, whatever the level
    from nielsen_forge.nielsen import CanonicalContext

    D25 = dihedral(25)
    inv = [c for c in D25.conjugacy_classes() if c.element_order == 2][0]
    inner = nielsen_inner_classes(D25, ClassMultiset([(inv, 4)]))
    calls = []
    canon = CanonicalContext.canon

    def counted(ctx, ids):
        calls.append(1)
        return canon(ctx, ids)

    monkeypatch.setattr(CanonicalContext, "canon", counted)
    orbits = braid_orbits(reduced_classes(inner))
    assert [o.size for o in orbits] == [len(inner)]
    assert len(calls) <= 8 * len(inner)


def test_q2_escape_raises_typed_error():
    from nielsen_forge.errors import ClassListEscape

    _, _, inner = _a4_setup()  # every Q''-orbit has length 2 here
    with pytest.raises(ClassListEscape) as err:
        reduced_classes(inner[:1])
    assert err.value.code == 25


def test_braid_invariant_check_survives_optimize():
    # a braid that breaks the product raises even under python -O, which
    # strips assert statements
    import os
    import subprocess
    import sys

    code = """
import nielsen_forge.braid as B
from nielsen_forge.errors import BraidInvariantBroken
from nielsen_forge.nielsen import NielsenTuple
from nielsen_forge.presets import alternating
A4 = alternating(4)
x = A4.conjugacy_classes()[1].member_ids[0]
B.apply_braid_ids = lambda group, ids, word: (group.identity_id,) + ids[1:]
try:
    B.apply_braid(NielsenTuple(A4, (x, A4.inv[x], x, A4.inv[x])), [(2, 1)])
except BraidInvariantBroken as exc:
    print("raised", exc.code)
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised 26"
