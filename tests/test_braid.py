import pytest

from nielsen_forge import perm as P
from nielsen_forge.braid import (
    ReducedClasses,
    apply_braid,
    braid_orbits,
    braid_orbits_r3,
    cusp_orbits,
    reduced_classes,
)
from nielsen_forge.errors import RankNotFour
from nielsen_forge.nielsen import (
    ClassMultiset,
    InnerClasses,
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
    assert all(len(r.inner_canonicals) == 2 for r in red)
    assert sum(r.size for r in red) == sum(c.orbit_size for c in inner)


def test_reduced_requires_rank_four():
    A4 = alternating(4)
    cls3 = [c for c in A4.conjugacy_classes() if c.element_order == 3]
    C3 = ClassMultiset([(cls3[0], 3)])
    inner3 = inner_classes(A4, C3)
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


def test_cusp_orbits_are_computed_once_per_orbit():
    _, _, inner = _a4_setup()
    for o in braid_orbits(reduced_classes(inner)):
        assert cusp_orbits(o) is cusp_orbits(o)


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
    assert all(len(r.inner_canonicals) == 1 for r in red)


def test_h3_orbits_a5():
    A5 = alternating(5)
    c5 = sorted(
        (c for c in A5.conjugacy_classes() if c.element_order == 5),
        key=lambda c: c.member_ids[0],
    )
    c3 = [c for c in A5.conjugacy_classes() if c.element_order == 3][0]
    C = ClassMultiset([(c5[0], 1), (c5[1], 1), (c3, 1)])
    inner = inner_classes(A5, C)
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


def test_an_empty_level_is_an_empty_record():
    # the involutions of A(4) generate V4, so no tuple in 2:4 or 2:3 is in
    # a Nielsen class: each stage takes and returns an empty record
    from nielsen_forge.config import parse_class_selector

    A4 = alternating(4)
    C = parse_class_selector(A4, "2:4")
    inner = nielsen_inner_classes(A4, C)
    assert inner == inner_classes(A4, C) and len(inner) == 0
    reduced = reduced_classes(inner)
    assert type(reduced) is ReducedClasses and len(reduced) == 0
    assert braid_orbits(reduced) == []
    inner3 = nielsen_inner_classes(A4, parse_class_selector(A4, "2:3"))
    assert type(inner3) is InnerClasses and len(inner3) == 0
    assert braid_orbits_r3(inner3) == []


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
    ("SL23", "3+:2,3-:2", 2),
]


def _case_inner(spec, classes):
    from nielsen_forge.config import parse_class_selector
    from nielsen_forge.presets import group_from_string

    G, _ = group_from_string(spec)
    return G, nielsen_inner_classes(G, parse_class_selector(G, classes))


def _case_orbits(spec, classes):
    G, inner = _case_inner(spec, classes)
    return G, braid_orbits(reduced_classes(inner))


@pytest.mark.parametrize("spec, classes, p", TABLE_CASES)
def test_braid_table_matches_per_move_canonicals(spec, classes, p):
    from nielsen_forge.braid import _twist
    from per_move import reduced_canonical, shift_ids
    from nielsen_forge.nielsen import canonical_context

    G, orbits = _case_orbits(spec, classes)
    ctx = canonical_context(G)
    for o in orbits:
        for i, t in enumerate(o.members):
            assert o.members[o.gamma_inf[i]] == reduced_canonical(
                G, ctx, _twist(G, t, 1, +1)
            )
            assert o.members[o.gamma_1[i]] == reduced_canonical(
                G, ctx, shift_ids(t)
            )


@pytest.mark.parametrize(
    "spec, classes", [("A(4)", "3+:2,3-:2"), ("D(25)", "2:4"), ("V2xPM(9)", "2:4")]
)
def test_reduced_class_views_match_a_record_built_without_the_table(spec, classes):
    # inner classes from the raw tuples, Q'' orbits closed move by move and
    # each target canonicalized on its own, against every view of the level
    from nielsen_forge.braid import _twist
    from nielsen_forge.config import parse_class_selector
    from nielsen_forge.nielsen import canonical_context
    from nielsen_forge.presets import group_from_string
    from per_move import q2_variants, shift_ids

    G, _ = group_from_string(spec)
    C = parse_class_selector(G, classes)
    ctx = canonical_context(G)
    size = {c.canonical: c.orbit_size for c in inner_classes(G, C)}
    orbits = sorted({tuple(sorted(q2_variants(G, ctx, t))) for t in size})
    at = {t: r for r, ts in enumerate(orbits) for t in ts}
    expect = [
        (
            ts,
            sum(map(size.__getitem__, ts)),
            r,
            at[ctx.canon(_twist(G, ts[0], 1, +1))],
            at[ctx.canon(shift_ids(ts[0]))],
        )
        for r, ts in enumerate(orbits)
    ]
    reduced = reduced_classes(nielsen_inner_classes(G, C))
    got = [
        (c.inner_canonicals, c.size, c.position, c.q2_target, c.sh_target)
        for c in reduced
    ]
    assert got == expect
    if spec == "A(4)":
        assert (len(size), len(reduced)) == (30, 15)


# the r = 3 snapshot inputs
R3_CASES = [
    ("A(5)", "5+:1,5-:1,3:1"),
    ("A(6)", "(2 3 4 5 6):1,(1 2)(3 4 5 6):2"),
    ("A(6)", "(2 3 4 5 6):1,(2 3 4 6 5):1,(1 2)(3 4 5 6):1"),
]


@pytest.mark.parametrize("spec, classes", R3_CASES)
def test_h3_orbits_carry_the_braid_action(spec, classes):
    # the r = 3 twin of the test above: gamma_inf = q2 and gamma_1 = sh on
    # inner classes, against each move applied and canonicalized alone
    from nielsen_forge.braid import _twist
    from per_move import shift_ids
    from nielsen_forge.nielsen import canonical_context

    G, inner = _case_inner(spec, classes)
    ctx = canonical_context(G)
    orbits = braid_orbits_r3(inner)
    assert sum(o.size for o in orbits) == len(inner)
    for o in orbits:
        for i, t in enumerate(o.members):
            assert o.members[o.gamma_inf[i]] == ctx.canon(_twist(G, t, 1, +1))
            assert o.members[o.gamma_1[i]] == ctx.canon(shift_ids(t))


@pytest.mark.parametrize("spec, classes, p", TABLE_CASES)
def test_q2_generators_read_off_the_sh_q2_table_match_direct_moves(spec, classes, p):
    from nielsen_forge.braid import _braid_table, _q2_generators
    from nielsen_forge.nielsen import canonical_context
    from per_move import q2_moves

    G, inner = _case_inner(spec, classes)
    keys = [c.canonical for c in inner]
    sh2, q13inv = _q2_generators(*_braid_table(G, keys))
    moves = q2_moves(G, canonical_context(G))
    for i, t in enumerate(keys):
        assert (keys[sh2[i]], keys[q13inv[i]]) == moves(t)


@pytest.mark.parametrize("spec, classes, p", TABLE_CASES)
def test_cusp_hm_flags_match_q2_definition(spec, classes, p):
    from nielsen_forge.cusps import classify_cusp
    from per_move import q2_variants
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


@pytest.mark.parametrize("spec, classes, p", TABLE_CASES)
def test_pair_orders_canonicalize_each_raw_pair_once(monkeypatch, spec, classes, p):
    # the memo on the raw sorted pair sits in front of the canonical one, so
    # typing every cusp canonicalizes one pair per distinct raw pair
    from nielsen_forge.cusps import classify_cusp
    from nielsen_forge.nielsen import CanonicalContext, canonical_context

    G, orbits = _case_orbits(spec, classes)
    ctx = canonical_context(G)
    asked = []
    pair_order = CanonicalContext.pair_order

    def recorded(self, x, y):
        asked.append((min(x, y), max(x, y)))
        return pair_order(self, x, y)

    monkeypatch.setattr(CanonicalContext, "pair_order", recorded)
    before = ctx.canonicalized
    for o in orbits:
        for cusp in cusp_orbits(o):
            classify_cusp(cusp, p)
    assert ctx.canonicalized - before == len(set(asked))


def test_reduction_and_orbits_canonicalize_a_bounded_number_of_times():
    # one Q'' closure per inner class and one canonicalization per braid
    # move: at most 8 canonicalized tuples per inner class, whatever the level
    from nielsen_forge.nielsen import canonical_context

    D25 = dihedral(25)
    inv = [c for c in D25.conjugacy_classes() if c.element_order == 2][0]
    inner = nielsen_inner_classes(D25, ClassMultiset([(inv, 4)]))
    ctx = canonical_context(D25)
    before = ctx.canonicalized
    orbits = braid_orbits(reduced_classes(inner))
    assert [o.size for o in orbits] == [len(inner)]
    assert ctx.canonicalized - before <= 8 * len(inner)


def test_reduction_and_orbits_canonicalize_once_per_inner_class_and_tied_pair():
    # sh is tabled with one canonicalization per inner class; q3 keeps the
    # first two entries, so its image is canonicalized only where they are a
    # tied pair, fixed by more of the group than the center.  Q'' and the
    # gamma arrays are read off that table
    from nielsen_forge.nielsen import canonical_context

    D25 = dihedral(25)
    inv = [c for c in D25.conjugacy_classes() if c.element_order == 2][0]
    inner = nielsen_inner_classes(D25, ClassMultiset([(inv, 4)]))
    z = len(D25.center_ids())
    tied = sum(
        sum(D25.conj(t[0], h) == t[0] and D25.conj(t[1], h) == t[1] for h in range(D25.order))
        > z
        for t in inner.canonicals
    )
    ctx = canonical_context(D25)
    before = ctx.canonicalized
    braid_orbits(reduced_classes(inner))
    assert ctx.canonicalized - before == len(inner) + tied == 310


# one input of each rank r = 3..6; for r >= 5, q2 is read off q_{r-1}
# through sh^(r-3)
TABLE_RANK_CASES = [
    ("A(5)", "5+:1,5-:1,3:1"),
    ("A(4)", "3+:2,3-:2"),
    ("D(25)", "2:4"),
    ("A(5)", "3:5"),
    ("S(4)", "(1 2):4,(1 2 3):1"),
    ("A(4)", "3+:3,3-:3"),
    ("D(9)", "2:6"),
]


@pytest.mark.parametrize("spec, classes", TABLE_RANK_CASES)
def test_braid_table_matches_each_move_canonicalized_alone(spec, classes):
    from nielsen_forge.braid import _braid_table, _twist
    from nielsen_forge.nielsen import canonical_context
    from per_move import shift_ids

    G, inner = _case_inner(spec, classes)
    keys = inner.canonicals
    ctx = canonical_context(G)
    sh, q2 = _braid_table(G, keys)
    assert len(sh) == len(q2) == len(keys)
    for i, t in enumerate(keys):
        assert keys[sh[i]] == ctx.canon(shift_ids(t))
        assert keys[q2[i]] == ctx.canon(_twist(G, t, 1, +1))


def test_braid_table_escape_raises_typed_error():
    # a Q''-orbit is closed under Q'' but its sh or q2 image leaves it
    from nielsen_forge.errors import ClassListEscape

    A4, _, inner = _a4_setup()
    leaving = [
        r
        for r in reduced_classes(inner)
        if {r.q2_target, r.sh_target} != {r.position}
    ]
    assert leaving
    with pytest.raises(ClassListEscape) as err:
        reduced_classes(
            InnerClasses(A4, list(leaving[0].inner_canonicals), inner.orbit_size)
        )
    assert err.value.code == 25


def _reduced_record(reduced, kept, q2, sh):
    """A ReducedClasses record of the A(4) classes reduced[r], r in kept, in
    that order, with q2 and sh as its target columns; every A(4) class
    holds two inner classes."""
    inner = [t for r in kept for t in reduced.inner_canonicals(r)]
    n = len(inner)
    return ReducedClasses(
        reduced.group,
        inner,
        reduced.orbit_size,
        list(range(n)),
        list(range(0, n + 1, 2)),
        [i // 2 for i in range(n)],
        q2,
        sh,
    )


def test_braid_orbits_escape_when_a_class_is_removed_from_the_middle():
    # the targets are positions in the record reduced_classes returned: with
    # a class taken out and the targets left as they were, the last
    # position is gone, and a target that reads it leaves the record
    from nielsen_forge.errors import ClassListEscape

    _, _, inner = _a4_setup()
    reduced = reduced_classes(inner)
    n = len(reduced)
    for j in range(1, n - 1):
        kept = [r for r in range(n) if r != j]
        dropped = _reduced_record(
            reduced, kept, [reduced.q2[r] for r in kept], [reduced.sh[r] for r in kept]
        )
        with pytest.raises(ClassListEscape) as err:
            braid_orbits(dropped)
        assert err.value.code == 25


def test_q2_escape_raises_typed_error():
    from nielsen_forge.errors import ClassListEscape

    A4, _, inner = _a4_setup()  # every Q''-orbit has length 2 here
    with pytest.raises(ClassListEscape) as err:
        reduced_classes(InnerClasses(A4, inner.canonicals[:1], inner.orbit_size))
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


def test_braid_orbits_reject_a_list_reduced_classes_did_not_return():
    # gamma_inf and gamma_1 are read off the target columns of the record.
    # Class 0 fixed by q2 and sh, which swap classes 1 and 2: without
    # class 2, class 1's targets still read 2, outside the record
    from nielsen_forge.errors import ClassListEscape

    _, _, inner = _a4_setup()
    red = reduced_classes(inner)
    rewired = _reduced_record(red, [0, 1, 2], [0, 2, 1], [0, 2, 1])
    assert [o.size for o in braid_orbits(rewired)] == [2, 1]
    last = len(red) - 1
    for wrong in (
        _reduced_record(red, [0, 1], [0, 2], [0, 2]),
        _reduced_record(red, range(last), red.q2[:last], red.sh[:last]),
    ):
        with pytest.raises(ClassListEscape) as err:
            braid_orbits(wrong)
        assert err.value.code == 25


@pytest.mark.parametrize("spec, classes, p", TABLE_CASES)
def test_cusp_member_positions_match_canonicals(spec, classes, p):
    G, orbits = _case_orbits(spec, classes)
    for o in orbits:
        cusps = cusp_orbits(o)
        assert sorted(i for c in cusps for i in c.member_indices) == list(range(o.size))
        for c in cusps:
            assert list(c.member_indices) == sorted(c.member_indices)
            assert c.member_canonicals == tuple(o.members[i] for i in c.member_indices)
            assert c.width == len(c.member_canonicals)


def test_class_records_are_slotted_values():
    A4, C, inner = _a4_setup()
    red = reduced_classes(inner)
    orbit = braid_orbits(red)[0]
    for record in (inner[0], red[0], cusp_orbits(orbit)[0]):
        assert not hasattr(record, "__dict__")
    # equality compares the fields, not the objects
    assert nielsen_inner_classes(A4, C) == inner
    assert reduced_classes(inner) == red


def _outer_swap(G, degree):
    # conjugation by (1 2): an automorphism of A(n) outside Inn
    from nielsen_forge.groups import hom

    return hom(G, G, [P.conjugate(g, P.parse("(1 2)", degree)) for g in G.generators])


def test_absolute_reduced_classes_match_the_per_move_images():
    # on A(5) C(5+^2, 5-^2) the outer swap keeps the class multiset: each
    # bucket is closed under the image the per-move Q'' walk gives
    from nielsen_forge.braid import absolute_reduced_classes
    from nielsen_forge.config import parse_class_selector
    from nielsen_forge.nielsen import canonical_context
    from per_move import reduced_canonical

    A5 = alternating(5)
    swap = _outer_swap(A5, 5)
    reduced = reduced_classes(
        nielsen_inner_classes(A5, parse_class_selector(A5, "5+:2,5-:2"))
    )
    buckets = absolute_reduced_classes(reduced, [swap])
    assert (len(reduced), len(buckets)) == (21, 18)
    ctx = canonical_context(A5)
    for bucket in buckets:
        members = {c.canonical for c in bucket}
        images = {
            reduced_canonical(A5, ctx, tuple(map(swap.apply_id, t))) for t in members
        }
        assert images == members


def test_absolute_reduced_classes_keep_a_repeated_class_once():
    # as absolute_classes does with a repeated inner class
    from nielsen_forge.braid import absolute_reduced_classes
    from nielsen_forge.config import parse_class_selector

    A5 = alternating(5)
    swap = _outer_swap(A5, 5)
    reduced = reduced_classes(
        nielsen_inner_classes(A5, parse_class_selector(A5, "5+:2,5-:2"))
    )
    once = absolute_reduced_classes(reduced, [swap])
    twice = absolute_reduced_classes(list(reduced) + [reduced[0]], [swap])
    assert [[c.canonical for c in b] for b in twice] == [
        [c.canonical for c in b] for b in once
    ]


def test_absolute_reduced_classes_escape_a_list_not_closed_under_the_map():
    # A(5) C(5+^2, 5-^2) with one partner of a swapped pair dropped: the
    # class multiset is kept, the other partner's image is not listed
    from nielsen_forge.braid import absolute_reduced_classes
    from nielsen_forge.config import parse_class_selector
    from nielsen_forge.errors import ClassListEscape

    A5 = alternating(5)
    swap = _outer_swap(A5, 5)
    reduced = reduced_classes(
        nielsen_inner_classes(A5, parse_class_selector(A5, "5+:2,5-:2"))
    )
    pair = next(b for b in absolute_reduced_classes(reduced, [swap]) if len(b) == 2)
    with pytest.raises(ClassListEscape) as err:
        absolute_reduced_classes([c for c in reduced if c != pair[1]], [swap])
    assert err.value.code == 25


def test_absolute_reduced_classes_validate_the_maps():
    # the checks absolute_classes makes: a foreign or non-bijective map is
    # not an automorphism, and a map that moves the class multiset is refused
    from nielsen_forge.braid import absolute_reduced_classes
    from nielsen_forge.config import parse_class_selector
    from nielsen_forge.errors import ClassNotPreserved, NotAnAutomorphism
    from nielsen_forge.groups import hom

    A4, _, inner = _a4_setup()
    reduced = reduced_classes(inner)
    D6 = dihedral(6)
    foreign = hom(D6, D6, list(D6.generators))
    trivial = hom(A4, A4, [P.identity(4)] * len(A4.generators))
    for bad in (foreign, trivial):
        with pytest.raises(NotAnAutomorphism) as err:
            absolute_reduced_classes(reduced, [bad])
        assert err.value.code == 15
    A5 = alternating(5)
    movers = reduced_classes(
        nielsen_inner_classes(A5, parse_class_selector(A5, "5+:2,3:2"))
    )
    with pytest.raises(ClassNotPreserved) as err:
        absolute_reduced_classes(movers, [_outer_swap(A5, 5)])
    assert err.value.code == 16


def test_h3_mode_with_r_other_than_3_is_a_config_error():
    from nielsen_forge.errors import ConfigError
    from nielsen_forge.report import run_pipeline

    A4, C, _ = _a4_setup()
    with pytest.raises(ConfigError) as err:
        run_pipeline(A4, C, 2, r3=True)
    assert err.value.code == 2
    assert str(err.value) == "--r3 needs r = 3 classes, got r = 4"
