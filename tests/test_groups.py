import pytest

from nielsen_forge import perm as P
from nielsen_forge.errors import (
    ClosureExceedsCap,
    NotAHomomorphism,
    NotNormal,
    NotPPerfect,
)
from nielsen_forge.groups import (
    generate,
    hom,
    is_p_perfect,
    quotient,
    reduce_p_center,
    subgroup_query,
)
from nielsen_forge.presets import alternating, dihedral, sl2_cover, v2_z3


def test_generate_a4_and_d9():
    assert alternating(4).order == 12
    assert dihedral(9).order == 18
    single = generate([P.parse("(1 2)", 2)])
    assert single.order == 2


def test_generate_cap():
    gens = [P.parse("(1 2)", 5), P.parse("(1 2 3 4 5)", 5)]
    with pytest.raises(ClosureExceedsCap):
        generate(gens, cap=30)


def test_conjugacy_classes_a4_a5():
    A4 = alternating(4)
    assert sorted(c.size for c in A4.conjugacy_classes()) == [1, 3, 4, 4]
    assert sum(c.size for c in A4.conjugacy_classes()) == 12
    A5 = alternating(5)
    fives = [c for c in A5.conjugacy_classes() if c.element_order == 5]
    assert [c.size for c in fives] == [12, 12]
    z3 = generate([P.parse("(1 2 3)", 3)])
    assert [c.size for c in z3.conjugacy_classes()] == [1, 1, 1]


def test_class_sizes_divide_group_order():
    for G in (alternating(4), dihedral(9), alternating(5)):
        for c in G.conjugacy_classes():
            assert G.order % c.size == 0


def test_is_p_perfect():
    A4 = alternating(4)
    assert is_p_perfect(A4, 2)
    assert not is_p_perfect(A4, 3)
    z2 = generate([P.parse("(1 2)", 2)])
    assert not is_p_perfect(z2, 2)


def test_subgroup_query():
    A4 = alternating(4)
    full = subgroup_query(A4, [P.parse("(1 2 3)", 4), P.parse("(1 3 4)", 4)])
    assert full.order == 12
    assert not full.is_p_prime(2)
    v = subgroup_query(A4, [P.parse("(1 2)(3 4)", 4)])
    assert v.order == 2 and v.is_p_group(2)
    center = subgroup_query(A4, list(A4.generators)).center
    assert center == [P.identity(4)]
    cent = full.centralizer_of(P.parse("(1 2 3)", 4))
    assert cent.order == 3  # <(1 2 3)> centralizes itself in A4


def test_hom_verification_and_kernel():
    R, ext = sl2_cover(3)
    assert ext.proj.is_surjective
    assert len(ext.proj.kernel_ids) == 2
    A4 = alternating(4)
    ident = hom(A4, A4, list(A4.generators))
    assert ident.is_injective and ident.is_surjective


def test_hom_rejects_non_homomorphism():
    A4 = alternating(4)
    bad = [P.parse("(1 2 3)", 4), P.parse("(1 2 3)", 4)]
    with pytest.raises(NotAHomomorphism):
        hom(A4, A4, bad)


def test_abelianization_hom_kernel_is_v4():
    A4 = alternating(4)
    z3 = generate([P.parse("(1 2 3)", 3)])
    g3 = P.parse("(1 2 3)", 3)
    # (2 3 4) = (1 2 3)^2 modulo V4, so it maps to the square
    f = hom(A4, z3, [g3, P.compose(g3, g3)])
    assert f.is_surjective
    assert len(f.kernel_ids) == 4


def test_quotient():
    A4 = alternating(4)
    v4 = A4.normal_closure([A4.id_of(P.parse("(1 2)(3 4)", 4))])
    Q, proj = quotient(A4, v4)
    assert Q.order == 3
    assert proj.is_surjective
    trivial, proj2 = quotient(A4, [A4.identity_id])
    assert trivial.order == 12
    R, _ = sl2_cover(3)
    center = R.normal_closure(R.center_ids())
    Q2, _ = quotient(R, center)
    assert Q2.order == 12
    with pytest.raises(NotNormal):
        quotient(A4, A4.subgroup_closure([A4.id_of(P.parse("(1 2 3)", 4))]))


def test_reduce_p_center():
    A4 = alternating(4)
    assert reduce_p_center(A4, 2) == []
    R, _ = sl2_cover(3)
    chain = reduce_p_center(R, 2)
    assert len(chain) == 1
    quot, proj = chain[0]
    assert quot.order == 12
    assert proj.is_surjective
    kernel_order = len(proj.kernel_ids)
    assert kernel_order == 2  # a 2-group kernel
    v43 = v2_z3(4)  # (Z/4)^2 x| Z/3 has trivial center already
    assert reduce_p_center(v43, 2) == []
    z9 = generate([P.parse("(1 2 3 4 5 6 7 8 9)", 9)])
    with pytest.raises(NotPPerfect):
        reduce_p_center(z9, 3)


def test_mul_table_consistency():
    D9 = dihedral(9)
    for a in range(0, D9.order, 5):
        for b in range(0, D9.order, 7):
            assert D9.perm(D9.mul(a, b)) == P.compose(D9.perm(a), D9.perm(b))


def test_inverse_table():
    A4 = alternating(4)
    for x in range(A4.order):
        assert A4.mul(x, A4.inv[x]) == A4.identity_id


@pytest.mark.parametrize("spec", ["D(125)", "A(6)", "SL25", "V2xPM(5)", "S(4)"])
def test_element_orders_match_cycle_orders(spec):
    from nielsen_forge.presets import group_from_string

    G, _ = group_from_string(spec)
    assert G.element_orders == [P.order(p) for p in G.elements]


def test_element_orders_without_the_table(monkeypatch):
    import nielsen_forge.groups as groups

    monkeypatch.setattr(groups, "MUL_TABLE_MAX", 0)
    A5 = alternating(5)
    A5.mul(0, 0)
    monkeypatch.undo()
    assert A5._mul is None
    assert A5.element_orders == [P.order(p) for p in A5.elements]
