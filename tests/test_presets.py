import pytest

from nielsen_forge import presets
from nielsen_forge.errors import ConfigError
from nielsen_forge.presets import (
    GroupSpec,
    alternating,
    chain_from_specs,
    dihedral,
    dihedral_chain,
    extension_from_string,
    gl2_automorphisms,
    group_from_string,
    heisenberg,
    parse_group_spec,
    sl2_cover,
    symmetric,
    v2_pm,
    v2_z3,
)


@pytest.mark.parametrize(
    "spec,order",
    [
        ("A(4)", 12),
        ("A(5)", 60),
        ("S(4)", 24),
        ("D(9)", 18),
        ("V2xPM(3)", 18),
        ("V2xZ3(2)", 12),
        ("V2xZ3(5)", 75),
        ("Heis(3)", 27),
        ("SL23", 24),
        ("SL25", 120),
        ("custom[(1 2 3),(2 3 4)]", 12),
    ],
)
def test_spec_orders(spec, order):
    group, _ = group_from_string(spec)
    assert group.order == order


def test_spec_errors():
    for bad in ("Q(3)", "A(2)", "custom[]", "A4"):
        with pytest.raises(ConfigError):
            parse_group_spec(bad)


@pytest.mark.parametrize("kind", sorted(presets._FAMILIES))
def test_every_family_starts_at_its_least_parameter(kind):
    least = presets._FAMILIES[kind][0]
    assert parse_group_spec(f"{kind}({least})") == GroupSpec(kind, least)
    assert group_from_string(f"{kind}({least})")[0].order > 1
    with pytest.raises(ConfigError, match="parameter too small"):
        parse_group_spec(f"{kind}({least - 1})")


def test_dihedral_involutions_odd_m():
    for m in (3, 9):
        D = dihedral(m)
        invs = [c for c in D.conjugacy_classes() if c.element_order == 2]
        assert len(invs) == 1 and invs[0].size == m


def test_v2_pm_all_outside_are_involutions():
    for m in (3, 9):
        G = v2_pm(m)
        flips = [
            i
            for i in range(G.order)
            if G.element_orders[i] == 2
        ]
        assert len(flips) == m * m  # every (v, -1) element


def test_v2_z3_action_has_order_three_char_poly():
    G = v2_z3(5)
    # the order-3 generator acts with x^2+x+1 = 0: alpha^2 + alpha + 1 = 0
    alpha = G.generators[2]
    m = 5

    def act(j, a, b):
        pt = a * m + b
        p = alpha
        for _ in range(j - 1):
            pt = p[pt]
        return divmod(p[pt] if j else pt, m)

    for a in range(m):
        for b in range(m):
            pt = a * m + b
            one = alpha[pt]
            two = alpha[one]
            a1, b1 = divmod(one, m)
            a2, b2 = divmod(two, m)
            assert ((a2 + a1 + a) % m, (b2 + b1 + b) % m) == (0, 0)


def test_v2_z3_2_matches_a4_class_profile():
    G = v2_z3(2)
    assert sorted(c.size for c in G.conjugacy_classes()) == [1, 3, 4, 4]


def test_sl2_covers():
    for q, order, target in ((3, 24, 12), (5, 120, 60)):
        R, ext = sl2_cover(q)
        assert R.order == order
        assert ext.kernel_order == 2
        assert ext.proj.is_surjective
        assert ext.G.order == target


def test_heisenberg_extension():
    R, ext = heisenberg(3)
    assert R.order == 27
    assert ext.kernel_order == 3
    assert ext.G.order == 9


def test_gl2_automorphisms_are_automorphisms():
    G = v2_pm(3)
    for a in gl2_automorphisms(3, G):
        assert a.is_surjective and a.is_injective


def test_dihedral_chain_shares_instances():
    groups, homs = dihedral_chain(3, 2)
    assert [g.order for g in groups] == [6, 18, 54]
    assert homs[0].target is groups[0]
    assert homs[1].source is groups[2]
    for h in homs:
        assert h.is_surjective


def test_chain_from_specs():
    base, homs = chain_from_specs(["D(3)", "D(9)", "D(27)"])
    assert base.order == 6 and len(homs) == 2
    base2, homs2 = chain_from_specs(["A(4)", "SL23"])
    assert base2.order == 12 and homs2[0].source.order == 24
    with pytest.raises(ConfigError):
        chain_from_specs(["D(3)", "A(4)"])
    with pytest.raises(ConfigError):
        chain_from_specs(["D(9)", "D(3)"])


def test_extension_from_string():
    assert extension_from_string("SL23").kernel_order == 2
    assert extension_from_string("Heis(5)").kernel_order == 5
    with pytest.raises(ConfigError):
        extension_from_string("A(4)")


def test_covers_are_the_kinds_built_with_an_extension():
    # extension_from_string refuses a kind outside _COVERS before building
    kinds = [(kind, least) for kind, (least, _) in presets._FAMILIES.items()]
    for kind, param in kinds + [("SL23", 0), ("SL25", 0)]:
        _, ext = presets.make_group(GroupSpec(kind, param))
        assert (ext is not None) == (kind in presets._COVERS), kind


def test_a_group_that_is_no_cover_is_not_built(monkeypatch):
    def build(*args):
        raise AssertionError("A(8) was built")

    monkeypatch.setitem(presets._FAMILIES, "A", (3, build))
    with pytest.raises(ConfigError, match=r"no central extension named 'A\(8\)'"):
        extension_from_string("A(8)")


def test_symmetric():
    assert symmetric(4).order == 24
    assert alternating(6).order == 360


@pytest.mark.parametrize("build", [lambda: heisenberg(3), lambda: sl2_cover(3)])
def test_preset_order_checks_raise_a_typed_error(monkeypatch, build):
    import nielsen_forge.presets as presets
    from nielsen_forge.errors import PresetOrderMismatch

    real = presets.generate
    monkeypatch.setattr(
        presets, "generate", lambda gens, cap=None, name="": real(gens[:1], cap, name)
    )
    with pytest.raises(PresetOrderMismatch):
        build()
