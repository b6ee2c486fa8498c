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
    assert len(inner_classes(tuples)) == 6  # abelian: inner = raw


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
    slow = inner_classes(enumerate_nielsen(A4, C))
    fast = nielsen_inner_classes(A4, C)
    assert [c.canonical for c in slow] == [c.canonical for c in fast]
    assert [c.orbit_size for c in slow] == [c.orbit_size for c in fast]
    D9 = dihedral(9)
    inv = [c for c in D9.conjugacy_classes() if c.element_order == 2][0]
    C9 = ClassMultiset([(inv, 4)])
    slow9 = inner_classes(enumerate_nielsen(D9, C9))
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
    slow53 = inner_classes(enumerate_nielsen(A5, C53))
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
    slow = inner_classes(enumerate_nielsen(G, C))
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
    inner = inner_classes(enumerate_nielsen(A4, C3))
    swap = [P.conjugate(g, P.parse("(1 2)", 4)) for g in A4.generators]
    outer = hom(A4, A4, swap)
    with pytest.raises(ClassNotPreserved):
        absolute_classes(inner, [outer])


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
