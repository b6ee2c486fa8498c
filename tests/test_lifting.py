from functools import reduce

import pytest

from nielsen_forge import perm as P
from nielsen_forge.errors import (
    GenusHypothesisFails,
    MiddleProductNotPrime,
    OrderNotPrime,
)
from nielsen_forge.lifting import (
    factor_through_pairs,
    is_frattini_cover,
    jennings_dims,
    lifting_invariant,
    p_prime_lift,
    spin_parity,
)
from nielsen_forge.presets import (
    alternating,
    direct_product_with_cyclic,
    heisenberg,
    sl2_cover,
)


def _bg14():
    return tuple(
        P.parse(s, 4) for s in ("(1 2 3)", "(1 2 4)", "(1 2 4)", "(4 3 2)")
    )


def test_p_prime_lift_order():
    _, ext = sl2_cover(3)
    lift = p_prime_lift(ext, P.parse("(1 2 3)", 4))
    assert P.order(lift) == 3
    assert ext.G.perm(ext.proj.apply_id(ext.R.id_of(lift))) == P.parse("(1 2 3)", 4)
    # uniqueness: scanning both preimages finds exactly one of odd order
    gid = ext.G.id_of(P.parse("(1 2 3)", 4))
    odd = [
        r
        for r in range(ext.R.order)
        if ext.proj.full_map[r] == gid and ext.R.element_orders[r] % 2 == 1
    ]
    assert len(odd) == 1 and ext.R.perm(odd[0]) == lift


def test_p_prime_lift_identity_and_rejection():
    _, ext = sl2_cover(3)
    assert p_prime_lift(ext, P.identity(4)) == P.identity(24)
    with pytest.raises(OrderNotPrime):
        p_prime_lift(ext, P.parse("(1 2)(3 4)", 4))


def test_lifting_invariant_values():
    _, ext = sl2_cover(3)
    hm = tuple(
        P.parse(s, 4) for s in ("(1 2 3)", "(1 3 2)", "(1 3 4)", "(1 4 3)")
    )
    assert lifting_invariant(ext, hm).sign == 1
    assert lifting_invariant(ext, _bg14()).sign == -1


def test_lifting_invariant_needs_product_one():
    _, ext = sl2_cover(3)
    with pytest.raises(ValueError):
        lifting_invariant(ext, (P.parse("(1 2 3)", 4),) * 2)


def test_spin_parity_values():
    # w((1 2 3)) = 1, three 3-cycles with product one and genus 0 give -1
    contracted = (
        P.parse("(1 2 3)", 4),
        P.parse("(1 4 2)", 4),
        P.parse("(4 3 2)", 4),
    )
    assert reduce(P.compose, contracted) == P.identity(4)
    assert spin_parity(contracted, 4) == -1
    with pytest.raises(GenusHypothesisFails):
        spin_parity(_bg14(), 4)  # genus 1 for four 3-cycles on 4 points
    with pytest.raises(OrderNotPrime):
        spin_parity((P.parse("(1 2)", 2), P.parse("(1 2)", 2)), 2)


def test_spin_parity_trivial_for_pm1_mod8_lengths():
    # a 7-cycle and its inverse and a fixed partner: lengths 7 = -1 mod 8
    a = P.parse("(1 2 3 4 5 6 7)", 7)
    assert spin_parity((a, P.inverse(a)), 7) == 1


def test_pair_factorization_worked_example():
    _, ext = sl2_cover(3)
    bg = tuple(
        P.parse(s, 4) for s in ("(1 2 4)", "(1 2 3)", "(1 3 4)", "(1 2 4)")
    )
    r = factor_through_pairs(ext, bg, 2)
    assert (r.s23.sign, r.s14.sign, r.s.sign) == (-1, 1, -1)
    assert r.ok


def test_pair_factorization_rejects_p_middle_product():
    _, ext = sl2_cover(3)
    hm = tuple(
        P.parse(s, 4) for s in ("(1 2 3)", "(1 3 2)", "(1 3 4)", "(1 4 3)")
    )
    # middle product (1 3 2)(1 3 4) has order 2
    with pytest.raises(MiddleProductNotPrime):
        factor_through_pairs(ext, hm, 2)


def test_is_frattini_cover():
    for p in (3, 5):
        _, ext = heisenberg(p)
        assert is_frattini_cover(ext.proj)
    _, ext3 = sl2_cover(3)
    assert is_frattini_cover(ext3.proj)
    A4 = alternating(4)
    assert not is_frattini_cover(direct_product_with_cyclic(A4, 3))
    bad = direct_product_with_cyclic(A4, 2)
    assert not is_frattini_cover(bad)


def test_jennings():
    assert list(jennings_dims(3, 2).dims) == [1, 2, 3, 2, 1]
    assert list(jennings_dims(5, 1).dims) == [1, 1, 1, 1, 1]
    assert list(jennings_dims(2, 2).dims) == [1, 2, 1]
    prof = jennings_dims(5, 5)
    assert prof.total == 5**5 and prof.is_palindromic
    with pytest.raises(ValueError):
        jennings_dims(3, 0)


def _exhaustive_frattini(phi):
    """Every product of generator fibers generates: the definition."""
    import itertools

    src, tgt = phi.source, phi.target
    fibers = [
        [r for r in range(src.order) if phi.full_map[r] == tgt.id_of(g)]
        for g in tgt.generators
    ]
    return all(
        len(src.subgroup_closure(combo)) == src.order
        for combo in itertools.product(*fibers)
    )


def _chain_link(*specs):
    from nielsen_forge.presets import chain_from_specs

    return chain_from_specs(list(specs))[1][-1]


FRATTINI_CASES = {
    "heisenberg(3)": lambda: heisenberg(3)[1].proj,
    "heisenberg(5)": lambda: heisenberg(5)[1].proj,
    "SL23->A4": lambda: sl2_cover(3)[1].proj,
    "A4xZ3->A4": lambda: direct_product_with_cyclic(alternating(4), 3),
    "A4xZ2->A4": lambda: direct_product_with_cyclic(alternating(4), 2),
    # the kernel <r^3> is central and complemented: two kernel orbits over
    # the rotation, one generating and one not
    "D(6)->D(3)": lambda: _chain_link("D(3)", "D(6)"),
    "D(25)->D(5)": lambda: _chain_link("D(5)", "D(25)"),
    "D(125)->D(25)": lambda: _chain_link("D(25)", "D(125)"),
    "V2xPM(9)->V2xPM(3)": lambda: _chain_link("V2xPM(3)", "V2xPM(9)"),
}


@pytest.mark.parametrize("name", FRATTINI_CASES)
def test_is_frattini_cover_matches_exhaustive_product(name):
    phi = FRATTINI_CASES[name]()
    assert is_frattini_cover(phi) == _exhaustive_frattini(phi)
