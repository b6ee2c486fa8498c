"""Invariant and property checks, randomized where enumeration is too big."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nielsen_forge import perm as P
from nielsen_forge.braid import (
    apply_braid,
    braid_orbits,
    cusp_orbits,
    reduced_classes,
)
from nielsen_forge.lifting import jennings_dims
from nielsen_forge.nielsen import (
    ClassMultiset,
    canonical_context,
    enumerate_nielsen,
    nielsen_inner_classes,
)
from nielsen_forge.presets import alternating, dihedral, sl2_cover, v2_z3


def cycle_type(p):
    """Cycle lengths in decreasing order, fixed points included."""
    return tuple(sorted((len(c) for c in P.cycles(p)), reverse=True))


perms5 = st.permutations(range(5)).map(tuple)


@given(perms5, perms5, perms5)
def test_compose_associative(a, b, c):
    assert P.compose(P.compose(a, b), c) == P.compose(a, P.compose(b, c))


@given(perms5)
def test_inverse_left_and_right(p):
    assert P.compose(p, P.inverse(p)) == P.identity(5)
    assert P.compose(P.inverse(p), p) == P.identity(5)


@given(perms5, perms5)
def test_conjugate_is_word_and_keeps_type(g, c):
    word = P.compose(P.compose(c, g), P.inverse(c))
    assert P.conjugate(g, c) == word
    assert cycle_type(P.conjugate(g, c)) == cycle_type(g)


@given(perms5)
def test_cycle_roundtrip(p):
    assert P.parse(P.format_cycles(p), 5) == p


@given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=1, max_value=4))
def test_jennings_palindromic(p, n):
    prof = jennings_dims(p, n)
    assert prof.is_palindromic
    assert prof.total == p**n


def test_compose_associativity_exhaustive_small_group():
    A4 = alternating(4)
    els = A4.elements
    for a in els:
        for b in els:
            ab = P.compose(a, b)
            for c in els:
                assert P.compose(ab, c) == P.compose(a, P.compose(b, c))


def test_inverse_exhaustive_on_order_60():
    A5 = alternating(5)
    for g in A5.elements:
        assert P.compose(P.inverse(g), g) == P.identity(5)


def test_conjugate_cycle_type_on_preset_elements():
    for G in (alternating(4), dihedral(9)):
        for g in G.elements:
            t = cycle_type(g)
            for c in G.elements:
                assert cycle_type(P.conjugate(g, c)) == t


def test_canonical_spot_check_above_order_60():
    # conjugation-invariance spot check on a group larger than order 60
    from nielsen_forge.presets import v2_pm

    G = v2_pm(5)
    inv = [c for c in G.conjugacy_classes() if c.element_order == 2][0]
    C = ClassMultiset([(inv, 4)])
    classes = nielsen_inner_classes(G, C)
    ctx = canonical_context(G)
    for cls in classes[:8]:
        for h in range(0, G.order, 7):
            conj = tuple(G.conj(x, h) for x in cls.canonical)
            assert ctx.canon(conj) == cls.canonical


@pytest.fixture(scope="module")
def a4_golden():
    A4 = alternating(4)
    cls3 = sorted(
        (c for c in A4.conjugacy_classes() if c.element_order == 3),
        key=lambda c: c.member_ids[0],
    )
    C = ClassMultiset([(cls3[0], 2), (cls3[1], 2)])
    return A4, C, enumerate_nielsen(A4, C)


def test_braid_relation_exhaustive(a4_golden):
    _, _, tuples = a4_golden
    for t in tuples:
        left = apply_braid(t, [(1, 1), (2, 1), (1, 1)])
        right = apply_braid(t, [(2, 1), (1, 1), (2, 1)])
        assert left.ids == right.ids


def test_braid_preserves_product_and_classes(a4_golden):
    A4, _, tuples = a4_golden
    ctx = canonical_context(A4)
    for t in tuples[:60]:
        out = apply_braid(t, [(1, 1), (3, -1), (2, 1)])
        assert A4.word(out.ids) == A4.identity_id
        assert sorted(ctx.class_min(x) for x in out.ids) == sorted(
            ctx.class_min(x) for x in t.ids
        )


def test_gamma_relations_per_orbit(a4_golden):
    A4, C, _ = a4_golden
    orbits = braid_orbits(reduced_classes(nielsen_inner_classes(A4, C)))
    for o in orbits:
        ident = tuple(range(o.size))
        assert P.compose(P.compose(o.gamma_0, o.gamma_0), o.gamma_0) == ident
        assert P.compose(o.gamma_1, o.gamma_1) == ident
        assert (
            P.compose(P.compose(o.gamma_0, o.gamma_1), o.gamma_inf) == ident
        )


def test_gamma0_matches_literal_braid_word(a4_golden):
    # gamma_0 derived from the product-one relation equals the q1 q2 word
    A4, C, _ = a4_golden
    from per_move import reduced_canonical
    from nielsen_forge.nielsen import NielsenTuple

    ctx = canonical_context(A4)
    orbits = braid_orbits(reduced_classes(nielsen_inner_classes(A4, C)))
    for o in orbits:
        for i, t in enumerate(o.members):
            word = apply_braid(NielsenTuple(A4, t), [(1, 1), (2, 1)])
            image = reduced_canonical(A4, ctx, word.ids)
            assert o.members[o.gamma_0[i]] == image


def test_gamma1_matches_literal_shift_word(a4_golden):
    A4, C, _ = a4_golden
    from per_move import reduced_canonical
    from nielsen_forge.nielsen import NielsenTuple

    ctx = canonical_context(A4)
    orbits = braid_orbits(reduced_classes(nielsen_inner_classes(A4, C)))
    for o in orbits:
        for i, t in enumerate(o.members):
            word = apply_braid(NielsenTuple(A4, t), [(1, 1), (2, 1), (3, 1)])
            image = reduced_canonical(A4, ctx, word.ids)
            assert o.members[o.gamma_1[i]] == image


def test_width_partition_same_for_q2_inverse(a4_golden):
    # the open-question check: q2 and q2^-1 give identical cusp partitions
    A4, C, _ = a4_golden
    from nielsen_forge.braid import _twist
    from per_move import reduced_canonical

    ctx = canonical_context(A4)
    orbits = braid_orbits(reduced_classes(nielsen_inner_classes(A4, C)))
    for o in orbits:
        forward = {
            frozenset(c.member_canonicals) for c in cusp_orbits(o)
        }
        succ = {
            t: reduced_canonical(A4, ctx, _twist(A4, t, 1, -1))
            for t in o.members
        }
        backward = set()
        unseen = set(o.members)
        while unseen:
            start = min(unseen)
            cyc = [start]
            cur = succ[start]
            while cur != start:
                cyc.append(cur)
                cur = succ[cur]
            unseen -= set(cyc)
            backward.add(frozenset(cyc))
        assert forward == backward


def test_widths_sum_to_orbit_size_on_goldens():
    for group, order_filter, mult in (
        (dihedral(9), 2, 4),
        (v2_z3(2), 3, None),
    ):
        classes = sorted(
            (
                c
                for c in group.conjugacy_classes()
                if c.element_order == order_filter
            ),
            key=lambda c: c.member_ids[0],
        )
        if mult:
            C = ClassMultiset([(classes[0], mult)])
        else:
            C = ClassMultiset([(classes[0], 2), (classes[1], 2)])
        orbits = braid_orbits(reduced_classes(nielsen_inner_classes(group, C)))
        for o in orbits:
            assert sum(c.width for c in cusp_orbits(o)) == o.size


def test_hom_multiplicativity_exhaustive():
    _, ext = sl2_cover(3)
    f = ext.proj
    R, A = f.source, f.target
    for a in range(R.order):
        fa = f.full_map[a]
        for b in range(R.order):
            assert f.full_map[R.mul(a, b)] == A.mul(fa, f.full_map[b])


def test_reduce_p_center_chain_properties():
    from nielsen_forge.groups import p_part_of_center, reduce_p_center

    R, _ = sl2_cover(3)
    chain = reduce_p_center(R, 2)
    assert chain
    for quot, proj in chain:
        assert proj.is_surjective
        k = len(proj.kernel_ids)
        while k % 2 == 0:
            k //= 2
        assert k == 1
    assert p_part_of_center(chain[-1][0], 2) == []
