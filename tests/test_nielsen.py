import pytest

from nielsen_forge import perm as P
from nielsen_forge.errors import ClassNotPreserved, ConfigError
from nielsen_forge.groups import generate, hom
from nielsen_forge.nielsen import (
    ClassMultiset,
    absolute_classes,
    canonical_context,
    check_rationality,
    enumerate_nielsen,
    inner_classes,
    nielsen_inner_classes,
)
from nielsen_forge.config import parse_class_selector
from nielsen_forge.presets import (
    alternating,
    dihedral,
    gl2_automorphisms,
    group_from_string,
    v2_pm,
)


def _a4_classes():
    A4 = alternating(4)
    cls3 = sorted(
        (c for c in A4.conjugacy_classes() if c.element_order == 3),
        key=lambda c: c.member_ids[0],
    )
    return A4, ClassMultiset([(cls3[0], 2), (cls3[1], 2)])


def test_a3_nielsen_class_has_six_elements():
    z3 = generate([P.parse("(1 2 3)", 3)], name="A3")
    cls = sorted(
        (c for c in z3.conjugacy_classes() if c.element_order == 3),
        key=lambda c: c.member_ids[0],
    )
    C = ClassMultiset([(cls[0], 2), (cls[1], 2)])
    tuples = enumerate_nielsen(z3, C)
    assert len(tuples) == 6
    assert len(inner_classes(z3, C)) == 6  # abelian: inner = raw


def test_dihedral_inner_count_formula():
    # |ni(D_{p^{k+1}}, C_2^4)^inn| = (p^{k+1} + p^k) phi(p^{k+1}) / 2
    for m, expect in ((3, 4), (9, 36)):
        D = dihedral(m)
        inv = [c for c in D.conjugacy_classes() if c.element_order == 2][0]
        C = ClassMultiset([(inv, 4)])
        assert len(nielsen_inner_classes(D, C)) == expect


def test_four_equal_involutions_do_not_generate():
    D9 = dihedral(9)
    inv = [c for c in D9.conjugacy_classes() if c.element_order == 2][0]
    x = inv.member_ids[0]
    from nielsen_forge.nielsen import generates

    assert not generates(D9, (x, x, x, x))


def test_enumerate_matches_fast_inner_path():
    A4, C = _a4_classes()
    slow = inner_classes(A4, C)
    fast = nielsen_inner_classes(A4, C)
    assert [c.canonical for c in slow] == [c.canonical for c in fast]
    assert [c.orbit_size for c in slow] == [c.orbit_size for c in fast]
    D9 = dihedral(9)
    inv = [c for c in D9.conjugacy_classes() if c.element_order == 2][0]
    C9 = ClassMultiset([(inv, 4)])
    slow9 = inner_classes(D9, C9)
    fast9 = nielsen_inner_classes(D9, C9)
    assert [c.canonical for c in slow9] == [c.canonical for c in fast9]
    # r = 3 multi-pattern case
    A5 = alternating(5)
    c5 = sorted(
        (c for c in A5.conjugacy_classes() if c.element_order == 5),
        key=lambda c: c.member_ids[0],
    )
    c3 = [c for c in A5.conjugacy_classes() if c.element_order == 3][0]
    C53 = ClassMultiset([(c5[0], 1), (c5[1], 1), (c3, 1)])
    slow53 = inner_classes(A5, C53)
    fast53 = nielsen_inner_classes(A5, C53)
    assert [c.canonical for c in slow53] == [c.canonical for c in fast53]
    assert [c.orbit_size for c in slow53] == [c.orbit_size for c in fast53]


@pytest.mark.parametrize(
    "spec, classes, fallback_generates",
    [
        ("D(25)", "2:4", False),
        # two involutions generate a dihedral group, never all of V2xPM(3)
        ("V2xPM(3)", "2:4", True),
        ("S(4)", "(1 2):2,(1 2 3):2", False),
    ],
)
def test_pair_closure_shortcut_matches_full_enumeration(
    monkeypatch, spec, classes, fallback_generates
):
    import nielsen_forge.nielsen as N

    G, _ = group_from_string(spec)
    C = parse_class_selector(G, classes)
    calls = []
    full = N.generates

    def recorded(group, ids):
        ok = full(group, ids)
        calls.append((len(set(ids)), ok))
        return ok

    monkeypatch.setattr(N, "generates", recorded)
    fast = nielsen_inner_classes(G, C)
    monkeypatch.undo()
    slow = inner_classes(G, C)
    assert [c.canonical for c in fast] == [c.canonical for c in slow]
    assert [c.orbit_size for c in fast] == [c.orbit_size for c in slow]
    # the full test ran on tuples that no pair (m, x) generates
    fallbacks = [ok for size, ok in calls if size > 2]
    assert fallbacks
    assert any(fallbacks) == fallback_generates


def test_nielsen_tuple_invariants_hold():
    A4, C = _a4_classes()
    ctx = canonical_context(A4)
    want = sorted(cls.member_ids[0] for cls in C.classes_with_repeats)
    for t in enumerate_nielsen(A4, C):
        assert A4.word(t.ids) == A4.identity_id
        assert sorted(ctx.class_min(x) for x in t.ids) == want
        assert len(A4.subgroup_closure(t.ids)) == A4.order


def test_canonicalization_idempotent_and_invariant():
    A4, C = _a4_classes()
    ctx = canonical_context(A4)
    for t in enumerate_nielsen(A4, C)[:50]:
        canon = ctx.canon(t.ids)
        assert ctx.canon(canon) == canon
        for h in range(A4.order):
            conj = tuple(A4.conj(x, h) for x in t.ids)
            assert ctx.canon(conj) == canon


def test_inner_class_count_a4():
    A4, C = _a4_classes()
    assert len(nielsen_inner_classes(A4, C)) == 30


def test_rank_five_enumeration():
    A4, _ = _a4_classes()
    cls3 = sorted(
        (c for c in A4.conjugacy_classes() if c.element_order == 3),
        key=lambda c: c.member_ids[0],
    )
    # abelianization obstruction: 3 + 2*2 = 7 != 0 mod 3, so empty
    empty = ClassMultiset([(cls3[0], 3), (cls3[1], 2)])
    assert enumerate_nielsen(A4, empty) == []
    # 4 + 2*1 = 6 = 0 mod 3: nonempty, generic r=5 recursion path
    C5 = ClassMultiset([(cls3[0], 4), (cls3[1], 1)])
    tuples = enumerate_nielsen(A4, C5)
    assert tuples
    for t in tuples[:20]:
        assert A4.word(t.ids) == A4.identity_id


def test_non_p_perfect_is_empty():
    z6 = generate([P.parse("(1 2 3 4 5 6)", 6)], name="Z6")
    cls = sorted(
        (c for c in z6.conjugacy_classes() if c.element_order == 3),
        key=lambda c: c.member_ids[0],
    )
    C = ClassMultiset([(cls[0], 2), (cls[1], 2)])
    assert enumerate_nielsen(z6, C) == []


def test_absolute_classes_merge_and_guards():
    G = v2_pm(3)
    inv = [c for c in G.conjugacy_classes() if c.element_order == 2][0]
    C = ClassMultiset([(inv, 4)])
    inner = nielsen_inner_classes(G, C)
    autos = gl2_automorphisms(3, G)
    buckets = absolute_classes(inner, autos)
    assert len(buckets) == 1
    assert sum(len(b) for b in buckets) == len(inner)
    A4, C4 = _a4_classes()
    ident = hom(A4, A4, list(A4.generators))
    assert len(absolute_classes(nielsen_inner_classes(A4, C4), [ident])) == 30


def test_absolute_classes_allows_multiset_preserving_swaps():
    # the S4-outer automorphism swaps the two 3-classes but preserves the
    # multiset C(+2,-2), so it is a legal absolute merge: 30 -> 15
    A4, C = _a4_classes()
    inner = nielsen_inner_classes(A4, C)
    swap = [P.conjugate(g, P.parse("(1 2)", 4)) for g in A4.generators]
    outer = hom(A4, A4, swap)
    buckets = absolute_classes(inner, [outer])
    assert len(buckets) == 15
    assert all(len(b) == 2 for b in buckets)


def test_absolute_classes_rejects_class_movers():
    # on C(+,+,+) the same outer automorphism moves tuples off the class
    A4, _ = _a4_classes()
    cls3 = sorted(
        (c for c in A4.conjugacy_classes() if c.element_order == 3),
        key=lambda c: c.member_ids[0],
    )
    C3 = ClassMultiset([(cls3[0], 3)])
    inner = inner_classes(A4, C3)
    swap = [P.conjugate(g, P.parse("(1 2)", 4)) for g in A4.generators]
    outer = hom(A4, A4, swap)
    with pytest.raises(ClassNotPreserved):
        absolute_classes(inner, [outer])


def test_absolute_classes_escape_a_list_not_closed_under_the_map():
    # dropping one partner of a swapped pair keeps the class multiset of
    # every tuple, but the kept partner's image is no longer listed
    A4, C = _a4_classes()
    inner = nielsen_inner_classes(A4, C)
    swap = [P.conjugate(g, P.parse("(1 2)", 4)) for g in A4.generators]
    outer = hom(A4, A4, swap)
    dropped = absolute_classes(inner, [outer])[0][1]
    with pytest.raises(ClassNotPreserved, match="outside the class list") as err:
        absolute_classes([c for c in inner if c != dropped], [outer])
    assert err.value.code == 16


def test_check_rationality():
    A4, C = _a4_classes()
    assert check_rationality(C, 2)  # the two 3-classes swap, multiset kept
    A5 = alternating(5)
    c5 = sorted(
        (c for c in A5.conjugacy_classes() if c.element_order == 5),
        key=lambda c: c.member_ids[0],
    )
    single = ClassMultiset([(c5[0], 1)])
    assert not check_rationality(single, 2)  # C5+^2 = C5-
    assert check_rationality(single, 1)
    with pytest.raises(ConfigError):
        check_rationality(C, 3)  # not invertible mod the class order


def test_class_multiset_guards():
    A4 = alternating(4)
    triv = A4.class_of(A4.identity_id)
    with pytest.raises(ConfigError):
        ClassMultiset([(triv, 4)])
    cls3 = [c for c in A4.conjugacy_classes() if c.element_order == 3][0]
    with pytest.raises(ConfigError):
        ClassMultiset([(cls3, 9)])  # r > 8 hard stop
    with pytest.raises(ConfigError):
        enumerate_nielsen(A4, ClassMultiset([(cls3, 2)]))  # r < 3


def test_orbit_sizes_on_a_group_with_center():
    # |Z(SL(2,3))| = 2: a generating tuple is fixed by the center alone, so
    # every inner class has orbit size 24 / 2 = 12
    G, _ = group_from_string("SL23")
    assert len(G.center_ids()) == 2
    C = parse_class_selector(G, "3+:2,3-:2")
    fast = nielsen_inner_classes(G, C)
    slow = inner_classes(G, C)
    assert [(c.canonical, c.orbit_size) for c in fast] == [
        (c.canonical, c.orbit_size) for c in slow
    ]
    assert len(fast) == 18
    assert {c.orbit_size for c in fast} == {12}


HEIS3_AB = (
    "(1 4 7)(2 5 8)(3 6 9)(10 14 18)(11 15 16)(12 13 17)(19 24 26)(20 22 27)(21 23 25):1,"
    "(1 7 4)(2 8 5)(3 9 6)(10 18 14)(11 16 15)(12 17 13)(19 26 24)(20 27 22)(21 25 23):1,"
    "(1 10 19)(2 11 20)(3 12 21)(4 13 22)(5 14 23)(6 15 24)(7 16 25)(8 17 26)(9 18 27):1,"
    "(1 19 10)(2 20 11)(3 21 12)(4 22 13)(5 23 14)(6 24 15)(7 25 16)(8 26 17)(9 27 18):1"
)


@pytest.mark.parametrize(
    "spec, classes",
    [
        ("SL23", "3+:2,3-:2"),  # center of order 2
        ("Heis(3)", HEIS3_AB),  # center of order 3
        ("D(9)", "2:4"),  # some Cent(m)-orbits have a stabilizer past the center
        ("A(5)", "5+:1,5-:1,3:1"),  # r = 3
        ("A(5)", "3:5"),  # r = 5
        # the untabled S(7) input: 5040 elements, no multiplication table
        ("S(7)", "(1 2 3 4 5 6 7):1,(1 2):1,(1 2 3 4 5 6):1"),
    ],
)
def test_centralizer_orbit_enumeration_matches_raw_tuples(spec, classes):
    from nielsen_forge.nielsen import _patterns, _product_one_candidates

    G, _ = group_from_string(spec)
    C = parse_class_selector(G, classes)
    fast = nielsen_inner_classes(G, C)
    slow = inner_classes(G, C)
    assert fast
    assert [(c.canonical, c.orbit_size) for c in fast] == [
        (c.canonical, c.orbit_size) for c in slow
    ]
    # a candidate whose second entry has the center as its stabilizer in
    # Cent(m) is already canonical, which is why it is not canonicalized
    ctx, z = canonical_context(G), len(G.center_ids())
    for pattern in _patterns(C):
        m = pattern[0].member_ids[0]
        free = [b for b, stab in ctx.centralizer_orbits(m, pattern[1]) if stab == z]
        for ids in _product_one_candidates(G, pattern, (m,), free):
            assert ctx.canon(ids) == ids


def test_untabled_conj_and_canon_agree_with_tabled(monkeypatch):
    import nielsen_forge.groups as groups

    monkeypatch.setattr(groups, "MUL_TABLE_MAX", 0)
    untabled = alternating(5)
    untabled.mul(0, 0)
    monkeypatch.undo()
    tabled = alternating(5)
    tabled.mul(0, 0)
    assert untabled._mul is None and tabled._mul is not None
    n = tabled.order
    assert all(
        untabled.conj(x, h) == tabled.conj(x, h) for x in range(n) for h in range(n)
    )
    C_u = parse_class_selector(untabled, "3:4")
    C_t = parse_class_selector(tabled, "3:4")
    inner = nielsen_inner_classes(tabled, C_t)
    assert [(c.canonical, c.orbit_size) for c in inner] == [
        (c.canonical, c.orbit_size) for c in nielsen_inner_classes(untabled, C_u)
    ]
    ctx_u, ctx_t = canonical_context(untabled), canonical_context(tabled)
    for cls in inner:
        for h in range(n):
            moved = tuple(tabled.conj(x, h) for x in cls.canonical[::-1])
            assert ctx_u.canon(moved) == ctx_t.canon(moved)


@pytest.mark.parametrize(
    "spec, classes", [("A(5)", "3:4"), ("S(4)", "(1 2):2,(1 2 3):2")]
)
def test_full_generation_test_runs_once_per_canonical_form(
    monkeypatch, spec, classes
):
    import nielsen_forge.nielsen as N

    G, _ = group_from_string(spec)
    C = parse_class_selector(G, classes)
    ctx = canonical_context(G)
    tested = []
    full = N.generates

    def recorded(group, ids):
        if len(ids) == C.r:
            tested.append(ctx.canon(tuple(ids)))
        return full(group, ids)

    monkeypatch.setattr(N, "generates", recorded)
    nielsen_inner_classes(G, C)
    assert tested
    assert len(tested) == len(set(tested))


CLASS_ALGEBRA_CASES = [
    ("A(4)", "3+:2,3-:2"),
    ("A(4)", "3+:3"),
    ("A(4)", "3+:4,3-:1"),
    ("A(5)", "3:4"),
    ("A(5)", "5+:1,5-:1,3:1"),
    ("S(4)", "(1 2):2,(1 2 3):2"),
    ("D(9)", "2:4"),
    ("D(15)", "2:4"),
    ("V2xPM(3)", "2:4"),
    ("V2xPM(5)", "2:4"),
    ("V2xZ3(2)", "3+:2,3-:2"),
    ("V2xZ3(5)", "3+:2,3-:2"),
    ("SL23", "3+:2,3-:2"),
]


def _class_algebra_count(G, pattern):
    """Product-one tuples in C_1 x ... x C_r: the identity coefficient of
    the product of the class indicator vectors in the group algebra."""
    v = [0] * G.order
    for x in pattern[0].member_ids:
        v[x] += 1
    for cls in pattern[1:]:
        w = [0] * G.order
        for g, c in enumerate(v):
            if c:
                for h in cls.member_ids:
                    w[G.mul(g, h)] += c
        v = w
    return v[G.identity_id]


@pytest.mark.parametrize("spec, classes", CLASS_ALGEBRA_CASES)
def test_product_one_candidates_match_class_algebra(spec, classes):
    from nielsen_forge.nielsen import _patterns, _product_one_candidates

    G, _ = group_from_string(spec)
    C = parse_class_selector(G, classes)
    for pattern in _patterns(C):
        found = _product_one_candidates(G, pattern, pattern[0].member_ids)
        assert len(set(found)) == len(found) == _class_algebra_count(G, pattern)


def _kernel_oracle_inputs(G, entries, seed):
    """All product-one 4-tuples over the given entries, plus random pairs and
    3-tuples over the whole group."""
    import random

    members = set(entries)
    out = [
        (a, b, c, G.inv[G.word((a, b, c))])
        for a in entries
        for b in entries
        for c in entries
        if G.inv[G.word((a, b, c))] in members
    ]
    rnd = random.Random(seed)
    for r in (2, 3):
        out += [tuple(rnd.randrange(G.order) for _ in range(r)) for _ in range(300)]
    return out


def _brute_force_canon(G, tuples):
    maps = [[G.conj(x, h) for x in range(G.order)] for h in range(G.order)]
    return [min(tuple(map(m.__getitem__, t)) for m in maps) for t in tuples]


# entries of the 4-tuples: D and V2xPM their involutions, A(5) its 3-cycles,
# SL23 and Heis(3) (centers of order 2 and 3) every non-central element
KERNEL_CASES = [
    ("D(9)", lambda G, o: o == 2),
    ("D(25)", lambda G, o: o == 2),
    ("A(5)", lambda G, o: o == 3),
    ("SL23", lambda G, o: o > 2),
    ("V2xPM(5)", lambda G, o: o == 2),
    ("Heis(3)", lambda G, o: True),
]


@pytest.mark.parametrize("spec, pick", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_canon_many_matches_brute_force_minimum(spec, pick):
    # the kernel picks h by the second entry and carries the stagewise
    # minimum on only when several h tie there; the oracle conjugates by
    # every h in G and takes the lexicographic minimum
    G, _ = group_from_string(spec)
    center = set(G.center_ids())
    orders = G.element_orders
    entries = [x for x in range(G.order) if x not in center and pick(G, orders[x])]
    tuples = _kernel_oracle_inputs(G, entries, seed=len(spec))
    ctx = canonical_context(G)
    before = ctx.canonicalized
    assert list(ctx.canon_many(tuples)) == _brute_force_canon(G, tuples)
    assert ctx.canonicalized - before == len(tuples)
    assert [ctx.canon(t) for t in tuples[::97]] == _brute_force_canon(G, tuples[::97])


def test_canon_many_matches_brute_force_minimum_without_the_table(monkeypatch):
    import nielsen_forge.groups as groups

    monkeypatch.setattr(groups, "MUL_TABLE_MAX", 0)
    untabled = dihedral(25)
    assert untabled.mul_table and untabled._mul is None
    monkeypatch.undo()
    tabled = dihedral(25)
    assert tabled.elements == untabled.elements
    entries = [x for x in range(tabled.order) if tabled.element_orders[x] == 2]
    tuples = _kernel_oracle_inputs(tabled, entries, seed=25)
    assert list(canonical_context(untabled).canon_many(tuples)) == _brute_force_canon(
        tabled, tuples
    )
