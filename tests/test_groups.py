import functools
import itertools

import pytest

from nielsen_forge import perm as P
from nielsen_forge.errors import (
    ClosureExceedsCap,
    NotAHomomorphism,
    NotNormal,
    NotPPerfect,
    PCenterNotReduced,
)
from nielsen_forge.groups import (
    FiniteGroup,
    GroupHom,
    close_under_product,
    frattini_of_p_group,
    generate,
    hom,
    is_p_perfect,
    is_p_power,
    maximal_normal_p_subgroup,
    partition_orbits,
    perm_group_order,
    quotient,
    reduce_p_center,
)
from nielsen_forge.presets import (
    alternating,
    dihedral,
    group_from_string,
    sl2_cover,
    symmetric,
    v2_z3,
)


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


@pytest.mark.parametrize("spec", ["A(5)", "S(4)", "D(9)", "SL23", "V2xPM(3)"])
def test_conjugacy_classes_match_brute_force(spec):
    # each class is {h x h^-1 : h in G} on permutations, and the classes come
    # sorted by (size, least member id), the order reports print
    G, _ = group_from_string(spec)
    seen: set = set()
    expect = []
    for x in G.elements:
        if x not in seen:
            cls = {P.conjugate(x, h) for h in G.elements}
            seen |= cls
            expect.append(sorted(G.id_of(y) for y in cls))
    expect.sort(key=lambda ids: (len(ids), ids[0]))
    assert [list(c.member_ids) for c in G.conjugacy_classes()] == expect


@pytest.mark.parametrize("spec", ["A(5)", "D(25)", "V2xPM(3)"])
def test_closures_match_permutation_closure(spec):
    G, _ = group_from_string(spec)
    classes = G.conjugacy_classes()
    mins = [c.member_ids[0] for c in classes]
    for a in mins:
        for b in mins:
            closed = close_under_product([G.perm(a), G.perm(b)])
            assert G.subgroup_closure([a, b]) == {G.id_of(p) for p in closed}
    # the normal closure of x is generated by the class of x
    for c in classes:
        closed = close_under_product(c.members)
        assert G.normal_closure([c.member_ids[0]]) == {G.id_of(p) for p in closed}


def test_is_p_power():
    for p in (2, 3, 5):
        other = 3 if p == 2 else 2
        assert is_p_power(1, p)
        assert not is_p_power(other, p)
        for k in range(1, 6):
            assert is_p_power(p**k, p)
            assert not is_p_power(other * p**k, p)
    # p = 1 or 0 would never shrink n; it is refused, not looped on
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            is_p_power(4, p)


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

    def closure(*texts):
        return A4.subgroup_closure(A4.id_of(P.parse(t, 4)) for t in texts)

    full = closure("(1 2 3)", "(1 3 4)")
    assert len(full) == 12 and len(full) % 2 == 0
    v = closure("(1 2)(3 4)")
    assert len(v) == 2 and is_p_power(len(v), 2)
    center = [x for x in full if all(A4.mul(x, y) == A4.mul(y, x) for y in full)]
    assert [A4.perm(x) for x in center] == [P.identity(4)]
    e = A4.id_of(P.parse("(1 2 3)", 4))
    cent = [x for x in full if A4.mul(x, e) == A4.mul(e, x)]
    assert len(cent) == 3  # <(1 2 3)> centralizes itself in A4


def test_hom_verification_and_kernel():
    R, ext = sl2_cover(3)
    assert ext.proj.is_surjective
    assert len(ext.proj.kernel_ids) == 2
    A4 = alternating(4)
    ident = hom(A4, A4, list(A4.generators))
    assert ident.is_injective and ident.is_surjective


def test_hom_fibers_list_the_preimages_of_each_target_id():
    R, ext = sl2_cover(3)
    proj = ext.proj
    assert proj.fibers is proj.fibers  # computed once per hom
    assert len(proj.fibers) == proj.target.order
    assert sorted(x for f in proj.fibers for x in f) == list(range(R.order))
    for y, f in enumerate(proj.fibers):
        assert f == sorted(f) and len(f) == 2
        assert all(proj.full_map[x] == y for x in f)


def test_hom_rejects_non_homomorphism():
    A4 = alternating(4)
    bad = [P.parse("(1 2 3)", 4), P.parse("(1 2 3)", 4)]
    with pytest.raises(NotAHomomorphism):
        hom(A4, A4, bad)


def _candidate_map(G, images):
    """The map that sends each element along the first word found for it by
    left multiplication, or None unless it sends the generators to images and
    f(xy) = f(x)f(y) on every pair of permutations."""
    gens = list(zip(G.generators, images))
    one = P.identity(G.degree)
    f = {one: P.identity(len(images[0]))}
    reached = [one]
    for w in reached:
        for g, im in gens:
            y = P.compose(g, w)
            if y not in f:
                f[y] = P.compose(im, f[w])
                reached.append(y)
    if any(f[g] != im for g, im in gens):
        return None
    if any(f[P.compose(x, y)] != P.compose(f[x], f[y]) for x in f for y in f):
        return None
    return f


@pytest.mark.parametrize(
    "source,target",
    [("A4", "A4"), ("A4", "Z3"), ("S4", "S3"), ("D6", "D3"), ("V2xZ3(2)", "A4")],
)
def test_hom_accepts_exactly_the_homomorphisms(source, target):
    # every choice of generator images: GroupHom succeeds, with the oracle's
    # map, exactly when the all-pairs check on permutations accepts
    make = {
        "A4": lambda: alternating(4),
        "Z3": lambda: generate([P.parse("(1 2 3)", 3)]),
        "S4": lambda: symmetric(4),
        "S3": lambda: symmetric(3),
        "D6": lambda: dihedral(6),
        "D3": lambda: dihedral(3),
        "V2xZ3(2)": lambda: v2_z3(2),
    }
    G, T = make[source](), make[target]()
    accepted = rejected = 0
    for images in itertools.product(T.elements, repeat=len(G.generators)):
        f = _candidate_map(G, images)
        if f is None:
            rejected += 1
            with pytest.raises(NotAHomomorphism):
                GroupHom(G, T, images)
        else:
            accepted += 1
            expect = tuple(T.id_of(f[x]) for x in G.elements)
            assert GroupHom(G, T, images).full_map == expect
    assert accepted and rejected


def test_level_map_costs_linear_products(monkeypatch):
    # the BFS is the only check: one source and one target product per
    # (element, generator), not a pass over the |G|^2 pairs
    big, small = dihedral(125), dihedral(25)
    big.mul(0, 0)
    small.mul(0, 0)
    calls = 0
    real = FiniteGroup.mul

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return real(self, a, b)

    monkeypatch.setattr(FiniteGroup, "mul", counting)
    f = GroupHom(big, small, small.generators)
    monkeypatch.undo()
    assert f.is_surjective and len(f.kernel_ids) == 5
    assert calls <= 2 * big.order * len(big.generators) == 1000


@pytest.mark.parametrize(
    "spec,p",
    [
        ("D(27)", 3), ("D(125)", 5), ("V2xPM(9)", 3), ("Heis(3)", 3),
        ("SL23", 2), ("S(4)", 2), ("D(12)", 2), ("D(12)", 3),
    ],
)
def test_p_core_and_frattini_match_all_pairs(spec, p):
    # O_p(G) is the union of the normal closures that are p-groups, and
    # Phi(P) is generated by every p-th power and every commutator in P;
    # both are worked out here on permutations
    G, _ = group_from_string(spec)
    els = G.elements
    one = P.identity(G.degree)
    core = {one}
    for x in els:
        if is_p_power(P.order(x), p):
            closed = close_under_product(sorted({P.conjugate(x, h) for h in els}))
            if is_p_power(len(closed), p):
                core |= closed
    phi_seeds = {one}
    for a in core:
        phi_seeds.add(functools.reduce(P.compose, [a] * p))
        inv_a = P.inverse(a)
        for b in core:
            phi_seeds.add(
                P.compose(P.compose(a, b), P.compose(inv_a, P.inverse(b)))
            )
    phi = close_under_product(sorted(phi_seeds))
    o_p = maximal_normal_p_subgroup(G, p)
    assert o_p == {G.id_of(x) for x in core}
    assert frattini_of_p_group(G, o_p, p) == {G.id_of(x) for x in phi}


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


def test_reduce_p_center_guard_is_a_typed_error(monkeypatch):
    # a quotient that returns its input never shrinks the p-center, so the
    # step bound must end the loop with a stable exit code
    import nielsen_forge.groups as groups

    monkeypatch.setattr(groups, "quotient", lambda G, N: (G, None))
    R, _ = sl2_cover(3)
    with pytest.raises(PCenterNotReduced) as info:
        reduce_p_center(R, 2)
    assert info.value.code == 17
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


@pytest.mark.parametrize("name", ["A5", "D25", "trivial"])
def test_mul_table_matches_compose(name):
    G = {
        "A5": lambda: alternating(5),
        "D25": lambda: dihedral(25),
        # one element: a one-index itemgetter would return a scalar
        "trivial": lambda: generate([P.identity(3)]),
    }[name]()
    G.mul(G.identity_id, G.identity_id)
    assert G._mul is not None and len(G._mul) == G.order
    els = G.elements
    for a in range(G.order):
        row = G.mul_table[a]
        assert isinstance(row, tuple) and len(row) == G.order
        assert [els[x] for x in row] == [P.compose(els[a], y) for y in els]


def test_composed_rows_on_an_untabled_group(monkeypatch):
    # S(7) has 5040 > MUL_TABLE_MAX elements, so its rows compose on lookup
    import random

    import nielsen_forge.groups as groups

    built = []
    build = FiniteGroup._build_mul_table

    def counted(G):
        built.append(G)
        build(G)

    monkeypatch.setattr(FiniteGroup, "_build_mul_table", counted)
    S7 = symmetric(7)
    assert S7.order > groups.MUL_TABLE_MAX
    els, rng = S7.elements, random.Random(7)
    for _ in range(2000):
        a, b = rng.randrange(S7.order), rng.randrange(S7.order)
        assert els[S7.mul_table[a][b]] == P.compose(els[a], els[b])
        assert els[S7.mul(a, b)] == P.compose(els[a], els[b])
        assert els[S7.conj(a, b)] == P.conjugate(els[a], els[b])
    assert S7._mul is None and built == []


# one spec per preset family; V2xPM(27) and A(7) are the largest tabled groups
PRESET_SPECS = [
    "A(4)", "A(5)", "A(7)", "S(4)", "S(6)", "D(9)", "D(125)", "V2xPM(3)",
    "V2xPM(27)", "V2xZ3(5)", "Heis(3)", "SL23", "SL25",
]


@pytest.mark.parametrize("spec", PRESET_SPECS)
def test_table_inverses_match_permutation_inverses(spec):
    G, _ = group_from_string(spec)
    G.mul(G.identity_id, G.identity_id)
    assert G._mul is not None
    assert G.inv == [G.id_of(P.inverse(p)) for p in G.elements]


ORDER_SPECS = [
    "A(4)", "A(5)", "A(6)", "A(7)", "S(4)", "S(5)", "S(6)", "D(9)", "D(125)",
    "V2xZ3(5)", "SL23", "SL25", "Heis(3)",
]


@pytest.mark.parametrize("spec", ORDER_SPECS)
def test_perm_group_order_matches_closure(spec):
    import random

    G, _ = group_from_string(spec)
    rng = random.Random(spec)
    for _ in range(12):
        gens = [G.perm(rng.randrange(G.order)) for _ in range(rng.randint(1, 3))]
        n = len(close_under_product(gens, G.order))
        assert perm_group_order(gens, n) == n
        # None exactly when the order passes the cap
        assert perm_group_order(gens, n - 1) is None


def test_partition_orbits_on_index_arrays():
    # keys range(n) take index arrays; an entry outside range(n) raises the
    # given escape, or ValueError without one, and other keys are refused
    sw, cyc = [1, 0, 2, 4, 3], [0, 1, 3, 2, 4]
    assert partition_orbits(range(5), (sw, cyc)) == [[0, 1], [2, 3, 4]]
    assert partition_orbits(range(0), ()) == []
    assert partition_orbits(range(0), ([],)) == []
    with pytest.raises(LookupError):
        partition_orbits(range(5), (sw, [0, 1, 5, 2, 4]), LookupError("escaped"))
    for bad in ([0, 1, 5, 2, 4], [0, 1, -1, 2, 4], [0, 1, 3, 2]):
        with pytest.raises(ValueError):
            partition_orbits(range(5), (sw, bad))
    for keys in (range(1, 6), [0, 1, 2, 3, 4]):
        with pytest.raises(ValueError):
            partition_orbits(keys, ([1, 0, 2, 4, 3],))
