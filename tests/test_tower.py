import json

import pytest

from nielsen_forge import report, tower
from nielsen_forge.config import parse_class_selector
from nielsen_forge.cli import main
from nielsen_forge.errors import ClassListEscape, ConfigError, NotPGroupKernel
from nielsen_forge.lifting import is_frattini_cover
from nielsen_forge.nielsen import ClassMultiset, canonical_context, nielsen_inner_classes
from nielsen_forge.presets import (
    alternating,
    chain_from_specs,
    dihedral_chain,
    direct_product_with_cyclic,
    sl2_cover,
)
from nielsen_forge.tower import LevelMap, build_graph, export_json, match_classes


def _dihedral_graph(p, k_max):
    groups, homs = dihedral_chain(p, k_max)
    base = groups[0]
    inv = [c for c in base.conjugacy_classes() if c.element_order == 2][0]
    C = ClassMultiset([(inv, 4)])
    chain = [LevelMap(h, p) for h in homs]
    return build_graph(chain, C, p)


def test_level_map_requires_p_group_kernel():
    _, ext = sl2_cover(3)
    LevelMap(ext.proj, 2)
    with pytest.raises(NotPGroupKernel):
        LevelMap(ext.proj, 3)


def test_match_classes_dihedral():
    groups, homs = dihedral_chain(3, 1)
    base = groups[0]
    inv = [c for c in base.conjugacy_classes() if c.element_order == 2][0]
    C = ClassMultiset([(inv, 4)])
    up = match_classes(LevelMap(homs[0], 3), C)
    assert up.group.order == 18
    assert up.entries[0][0].size == 9  # the 9 involutions of D9
    assert up.entries[0][1] == 4


def test_match_classes_rejects_p_classes():
    groups, homs = dihedral_chain(3, 1)
    base = groups[0]
    rot = [c for c in base.conjugacy_classes() if c.element_order == 3][0]
    C = ClassMultiset([(rot, 4)])
    with pytest.raises(ConfigError):
        match_classes(LevelMap(homs[0], 3), C)


def test_dihedral_graph_shape():
    g = _dihedral_graph(3, 2)
    assert [sum(o.size for o in lv.orbits) for lv in g.levels] == [4, 36, 324]
    assert all(len(lv.orbits) == 1 for lv in g.levels)
    assert g.component_edges == [(0, 0, 0), (1, 0, 0)]
    assert g.obstructed == []
    assert all(c.ok for c in g.width_growth_checks)
    assert any(c.applicable for c in g.width_growth_checks)
    assert all(c.covered for c in g.persistence_checks)
    # classical corroboration: these levels are the genus-0, 0, 13 curves
    assert [lv.dossiers[0].genus for lv in g.levels] == [0, 0, 13]
    top = g.levels[2].dossiers[0]
    assert top.screen.verdict == "consistent-with"
    assert "X1(27)" in top.screen.matches


def test_sl23_fiber_obstruction():
    _, ext = sl2_cover(3)
    A4 = ext.G
    lm = LevelMap(ext.proj, 2)
    cls3 = sorted(
        (c for c in A4.conjugacy_classes() if c.element_order == 3),
        key=lambda c: c.member_ids[0],
    )
    C = ClassMultiset([(cls3[0], 2), (cls3[1], 2)])
    g = build_graph([lm], C, 2)
    # the one SL(2,3) orbit lies over the first A4 orbit, none over the second
    assert [len(lv.orbits) for lv in g.levels] == [2, 1]
    assert g.component_edges == [(0, 0, 0)]


def test_a_projection_outside_the_lower_level_is_a_class_list_escape(monkeypatch):
    # level 1 is lifted from both A4 orbits; the orbit it lies over is then
    # dropped from level 0, so its image is no class of the level below
    results = []

    def dropping(*args, **kwargs):
        results.append(report.run_pipeline(*args, **kwargs))
        if len(results) == 2:
            del results[0].dossiers[0]
        return results[-1]

    monkeypatch.setattr(tower, "run_pipeline", dropping)
    _, ext = sl2_cover(3)
    C = parse_class_selector(ext.G, "3+:2,3-:2")
    with pytest.raises(ClassListEscape) as exc:
        build_graph([LevelMap(ext.proj, 2)], C, 2)
    assert exc.value.code == 25


def test_sl23_graph_marks_obstruction():
    _, ext = sl2_cover(3)
    A4 = ext.G
    cls3 = sorted(
        (c for c in A4.conjugacy_classes() if c.element_order == 3),
        key=lambda c: c.member_ids[0],
    )
    C = ClassMultiset([(cls3[0], 2), (cls3[1], 2)])
    g = build_graph([LevelMap(ext.proj, 2)], C, 2, extensions=[ext, None])
    assert (0, 1) in g.obstructed
    assert str(g.levels[0].dossiers[1].lift) == "-1"


def test_lattice_tower_components():
    base, homs = chain_from_specs(["V2xPM(3)", "V2xPM(9)"])
    inv = [c for c in base.conjugacy_classes() if c.element_order == 2][0]
    C = ClassMultiset([(inv, 4)])
    g = build_graph([LevelMap(homs[0], 3)], C, 3)
    # computed truth: phi(3) = 2 components under phi(9) = 6 (ledger notes)
    assert [len(lv.orbits) for lv in g.levels] == [2, 6]
    down_hits = {d for (_, _, d) in g.component_edges}
    assert down_hits == {0, 1}
    assert all(c.ok for c in g.width_growth_checks)


def test_exports():
    g = _dihedral_graph(3, 1)
    doc = json.loads(export_json(g))
    assert doc["schema"] == "v1"
    assert len(doc["levels"]) == 2
    assert doc["levels"][1]["components"][0]["degree"] == 36
    dot = g.to_dot()
    assert dot.startswith("digraph tower")
    assert "comp_1_0 -> comp_0_0" in dot
    assert '"36/0"' in dot


def test_single_level_graph_has_no_edges():
    groups, homs = dihedral_chain(3, 0), []
    base = groups[0][0]
    inv = [c for c in base.conjugacy_classes() if c.element_order == 2][0]
    C = ClassMultiset([(inv, 4)])
    g = build_graph([], C, 3)
    assert g.component_edges == [] and g.cusp_edges == []
    assert len(g.levels) == 1


LIFT_CHAINS = [
    ("D(5),D(25),D(125)", "2:4", 5),
    ("V2xPM(3),V2xPM(9)", "2:4", 3),
    ("A(4),SL23", "3+:2,3-:2", 2),
    ("A(5),SL25", "3:4", 2),
]


def _matched_levels(specs, classes, p):
    base, homs = chain_from_specs(specs.split(","))
    links = [LevelMap(h, p) for h in homs]
    Cs = [parse_class_selector(base, classes)]
    for lm in links:
        Cs.append(match_classes(lm, Cs[-1]))
    return links, Cs


def _pairs(inner):
    return [(c.canonical, c.orbit_size) for c in inner]


@pytest.mark.parametrize("specs, classes, p", LIFT_CHAINS)
def test_frattini_lift_matches_direct_enumeration(specs, classes, p):
    links, Cs = _matched_levels(specs, classes, p)
    lower = nielsen_inner_classes(Cs[0].group, Cs[0])
    for lm, C in zip(links, Cs[1:]):
        assert is_frattini_cover(lm.psi)
        direct = nielsen_inner_classes(C.group, C)
        below = (lm.psi, [c.canonical for c in lower])
        assert direct and _pairs(nielsen_inner_classes(C.group, C, below)) == _pairs(direct)
        lower = direct


@pytest.mark.parametrize("classes", ["2:4", "2:2,2:2"])
def test_frattini_lift_canonicalizes_once_per_candidate(classes):
    # the candidates over t: T1 one lift of t1 (any lift gives the same
    # count, the lifts being conjugate under the kernel), T2 and T3 every
    # lift, T4 forced and kept in the class; a class repeated in C must
    # not repeat candidates
    links, Cs = _matched_levels("D(5),D(25),D(125)", classes, 5)
    lower = nielsen_inner_classes(Cs[0].group, Cs[0])
    for lm, C in zip(links, Cs[1:]):
        G, psi = C.group, lm.psi.full_map
        members = set(C.entries[0][0].member_ids)

        def lifts(x):
            return [y for y in range(G.order) if psi[y] == x and y in members]

        expect = 0
        for t in (c.canonical for c in lower):
            a = lifts(t[0])[-1]
            expect += sum(
                G.inv[G.word((a, b, c))] in members
                for b in lifts(t[1])
                for c in lifts(t[2])
            )
        ctx = canonical_context(G)
        before = ctx.canonicalized
        lifted = nielsen_inner_classes(G, C, (lm.psi, [c.canonical for c in lower]))
        assert ctx.canonicalized - before == expect
        assert len({c.canonical for c in lifted}) == len(lifted) == expect
        lower = lifted


def _spy_on_lifts(monkeypatch):
    # every level is enumerated by report.run_pipeline
    lifted = []
    enumerate_ = report.nielsen_inner_classes

    def spy(group, C, below=None):
        lifted.append(below is not None)
        return enumerate_(group, C, below)

    monkeypatch.setattr(report, "nielsen_inner_classes", spy)
    return lifted


def test_build_graph_lifts_over_frattini_links(monkeypatch):
    lifted = _spy_on_lifts(monkeypatch)
    g = _dihedral_graph(5, 2)
    assert lifted == [False, True, True]
    assert [sum(o.size for o in lv.orbits) for lv in g.levels] == [12, 300, 7500]


def test_split_cover_is_enumerated_directly(monkeypatch):
    # A4 x Z/2 -> A4 is not Frattini: the 3-cycle lifts generate A4 x 1
    # only, so the upper level is empty and both base components are
    # obstructed; lifting there would invent upper classes
    lifted = _spy_on_lifts(monkeypatch)
    A4 = alternating(4)
    C = parse_class_selector(A4, "3+:2,3-:2")
    g = build_graph([LevelMap(direct_product_with_cyclic(A4, 2), 2)], C, 2)
    assert lifted == [False, False]
    assert g.levels[1].orbits == []
    assert g.obstructed == [(0, 0), (0, 1)]


def test_an_extension_for_another_prime_is_refused_before_enumerating(monkeypatch):
    # SL(2,3) -> A4 has a kernel of order 2, so its lifts mean nothing at p = 3
    lifted = _spy_on_lifts(monkeypatch)
    _, ext = sl2_cover(3)
    C = parse_class_selector(ext.G, "3+:2,3-:2")
    with pytest.raises(ConfigError, match="the extension has p = 2, not p = 3"):
        report.run_pipeline(ext.G, C, 3, ext)
    with pytest.raises(ConfigError, match="the extension has p = 2, not p = 3"):
        build_graph([], C, 3, extensions=[ext])
    assert lifted == []


@pytest.mark.parametrize(
    "argv",
    [
        # an empty Nielsen class: no r = 4 report of nothing
        ("--group", "D(9)", "--classes", "2:5", "--prime", "3"),
        # 684 inner classes that no stage after enumeration could use
        ("--group", "A(5)", "--classes", "3:5", "--prime", "2"),
    ],
    ids=["D9-empty", "A5-r5"],
)
def test_ranks_other_than_3_and_4_are_refused_before_enumerating(
    monkeypatch, capsys, argv
):
    lifted = _spy_on_lifts(monkeypatch)
    assert main(["report", *argv]) == 20
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error[RankNotFour:20]: ")
    assert lifted == []
