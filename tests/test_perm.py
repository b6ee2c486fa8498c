import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nielsen_forge import perm as P


def cycle_type(p):
    """Cycle lengths in decreasing order, fixed points included."""
    return tuple(sorted((len(c) for c in P.cycles(p)), reverse=True))


def test_product_convention_pins_left_to_right():
    # the fixed worked product: (5 4 3 2 1)(2 4 3 5 1) = (5 3 4)
    lhs = P.compose(P.parse("(5 4 3 2 1)"), P.parse("(2 4 3 5 1)"))
    assert lhs == P.parse("(5 3 4)", 5)


def test_identity_and_involution():
    g = P.parse("(1 2 3)", 4)
    assert P.compose(P.identity(4), g) == g
    t = P.parse("(1 2)", 2)
    assert P.compose(t, t) == P.identity(2)


def test_conjugate_examples():
    assert P.conjugate(P.parse("(1 2 3)"), P.parse("(1 3)", 3)) == P.parse(
        "(1 3 2)", 3
    )
    g = P.parse("(1 2 3)", 4)
    assert P.conjugate(g, P.identity(4)) == g
    assert P.conjugate(g, g) == g


def test_conjugate_preserves_cycle_type():
    g = P.parse("(1 2 3)(4 5)", 6)
    for c in (P.parse("(1 4)(2 5)", 6), P.parse("(1 2 3 4 5 6)", 6)):
        assert cycle_type(P.conjugate(g, c)) == cycle_type(g)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        P.compose(P.identity(3), P.identity(4))
    with pytest.raises(ValueError):
        P.conjugate(P.identity(3), P.identity(4))


def test_parse_and_format_roundtrip():
    for text in ("(1 2 3)(4 5)", "(2 4 3 5 1)", "()"):
        p = P.parse(text, 5)
        assert P.parse(P.format_cycles(p), 5) == p
    assert P.format_cycles(P.identity(4)) == "()"


def test_parse_is_whitespace_and_comma_insensitive():
    assert P.parse("(1,2,3)( 4 5 )", 5) == P.parse("(1 2 3)(4 5)", 5)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        P.parse("(1 2) extra", 3)
    with pytest.raises(ValueError):
        P.parse("(0 1)", 3)
    with pytest.raises(ValueError):
        P.parse("(1 2 9)", 3)
    with pytest.raises(ValueError):
        P.parse("(1 2 x)", 3)


def test_cycles_index_order():
    g = P.parse("(1 2 3)(4 5)", 6)
    assert cycle_type(g) == (3, 2, 1)
    assert P.index(g) == 3
    assert P.order(g) == 6
    assert P.order(P.identity(5)) == 1


def test_inverse():
    g = P.parse("(1 2 3 4)", 4)
    assert P.compose(g, P.inverse(g)) == P.identity(4)


def test_convention_self_check_raises_a_typed_error(monkeypatch):
    from nielsen_forge.errors import ConventionBroken

    monkeypatch.setattr(P, "compose", lambda p, q: tuple(p[x] for x in q))
    with pytest.raises(ConventionBroken):
        P._convention_self_test()


perm_pairs = st.integers(1, 130).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)).map(tuple), st.permutations(range(n)).map(tuple)
    )
)


@given(perm_pairs)
def test_compose_matches_reference(pair):
    p, q = pair
    assert P.compose(p, q) == tuple(q[x] for x in p)
    assert type(P.compose(p, q)) is tuple


def test_compose_rejects_degree_mismatch():
    for p, q in (((0,), (0, 1)), ((1, 0), (0,)), ((), (0,)), ((0, 1, 2), (1, 0))):
        with pytest.raises(ValueError, match="degree mismatch"):
            P.compose(p, q)
    assert P.compose((), ()) == ()
    assert P.compose((0,), (0,)) == (0,)


def test_index_counts_cycles():
    rng = random.Random(7)
    for n in [1, 2, 3, 5, 8, 64, 200, 1000]:
        for _ in range(5):
            p = list(range(n))
            rng.shuffle(p)
            p = tuple(p)
            assert P.index(p) == n - len(P.cycles(p))
    assert P.index(P.identity(7)) == 0
    assert P.index(P.parse("(1 2 3 4 5 6 7)")) == 6
