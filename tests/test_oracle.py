"""An oracle for the braid pipeline that works on raw permutation tuples.

It closes raw tuples under conjugation and the braid twists q1, q2, q3,
and reduces them by Q'' = <(q1 q2 q3)^2, q1 q3^-1>.  It builds no element
table and takes no canonical forms; its permutation arithmetic is its own.
The components, degrees, cusp widths and genera it finds must match what
run_pipeline reports, and for r = 3 so must the H3 orbit sizes.
"""

from collections import Counter
from functools import cache, reduce
from itertools import permutations, product
from operator import itemgetter

import pytest

from nielsen_forge.config import parse_class_selector
from nielsen_forge.presets import group_from_string
from nielsen_forge.report import run_pipeline

# Nielsen tuples per tier-1 grid entry; V2xZ3(5), with 93600, runs only in
# the slow test below
MAX_RAW_TUPLES = 12000


def mul(p, q):
    """p acts first (degree >= 2)."""
    return itemgetter(*p)(q)


@cache
def inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


@cache
def conj(x, h):
    """The word h x h^-1."""
    return mul(mul(h, x), inv(h))


def closure(gens):
    e = tuple(range(len(gens[0])))
    seen, reached = {e}, [e]
    for x in reached:
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                reached.append(y)
    return seen


def twist(t, i, sign=1):
    """q_{i+1} on a raw tuple: (a, b) -> (a b a^-1, a); sign -1 undoes it."""
    a, b = t[i], t[i + 1]
    pair = (conj(b, a), a) if sign > 0 else (b, conj(a, inv(b)))
    return t[:i] + pair + t[i + 2 :]


def word(t, *moves):
    for i, sign in moves:
        t = twist(t, i, sign)
    return t


SH = ((0, 1), (1, 1), (2, 1))  # q1 q2 q3, the shift up to conjugation


def blocks(tuples, index, moves):
    """Block label of each tuple under the equivalence the moves generate."""
    parent = list(range(len(tuples)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, t in enumerate(tuples):
        for u in moves(t):
            a, b = find(i), find(index[u])
            if a != b:
                parent[a] = b
    return [find(i) for i in range(len(tuples))]


def cycle_lengths(perm):
    seen, out = set(), []
    for start in perm:
        n, r = 0, start
        while r not in seen:
            seen.add(r)
            n += 1
            r = perm[r]
        if n:
            out.append(n)
    return out


def conjugates(gens, t):
    return [tuple(conj(x, g) for x in t) for g in gens]


def raw_braid_orbits(gens, reps, max_tuples=MAX_RAW_TUPLES):
    """The raw product-one tuples in the classes of reps that generate <gens>,
    and the label of each one's orbit under conjugation and every twist q_i.

    reps holds (class representative, multiplicity) pairs.
    """
    elements = closure(gens)
    classes = [frozenset(conj(r, h) for h in elements) for r, _ in reps]
    labels = [k for k, (_, m) in enumerate(reps) for _ in range(m)]
    raw = set()
    for pat in set(permutations(labels)):
        for head in product(*(classes[k] for k in pat[:-1])):
            last = inv(reduce(mul, head))
            if last in classes[pat[-1]]:
                raw.add(head + (last,))
    raw = sorted(raw)
    index = {t: i for i, t in enumerate(raw)}
    # conjugation and the braid group keep the generated subgroup, so one
    # generation test per orbit decides the whole orbit
    full = blocks(
        raw,
        index,
        lambda t: conjugates(gens, t) + [twist(t, i) for i in range(len(labels) - 1)],
    )
    first = {}
    for t, b in zip(raw, full):
        first.setdefault(b, t)
    keep = {b for b, t in first.items() if len(closure(t)) == len(elements)}
    tuples = [t for t, b in zip(raw, full) if b in keep]
    assert len(tuples) <= max_tuples
    return tuples, [b for b in full if b in keep]


def raw_oracle(gens, reps, max_tuples=MAX_RAW_TUPLES):
    """(degree, genus, widths) of each component, from raw tuples (r = 4)."""
    tuples, component = raw_braid_orbits(gens, reps, max_tuples)
    index = {t: i for i, t in enumerate(tuples)}
    reduced = blocks(
        tuples,
        index,
        lambda t: conjugates(gens, t) + [word(t, *SH, *SH), word(t, (0, 1), (2, -1))],
    )

    def action(*moves):
        act = {}
        for t, r in zip(tuples, reduced):
            image = reduced[index[word(t, *moves)]]
            if act.setdefault(r, image) != image:
                raise AssertionError("braid move is not defined on reduced classes")
        return act

    g_inf, g_1 = action((1, 1)), action(*SH)
    g_0_inv = action(*SH, (1, 1))
    comp_of = dict(zip(reduced, component))
    out = []
    for c in set(component):
        def restrict(act):
            return {r: s for r, s in act.items() if comp_of[r] == c}

        widths = sorted(cycle_lengths(restrict(g_inf)))
        deg = sum(widths)
        ind = sum(deg - len(cycle_lengths(restrict(a))) for a in (g_0_inv, g_1, g_inf))
        out.append((deg, ind // 2 - deg + 1, widths))
    return sorted(out)


GRID = [
    ("A(4)", "3+:2,3-:2", 2),
    ("A(5)", "3:4", 2),
    ("S(4)", "(1 2):2,(1 2 3):2", 2),
    ("D(9)", "2:4", 3),
    ("D(15)", "2:4", 3),
    ("V2xPM(3)", "2:4", 3),
    ("V2xPM(5)", "2:4", 5),
    ("V2xZ3(2)", "3+:2,3-:2", 2),
]


def _check_against_oracle(spec, classes, p, max_tuples=MAX_RAW_TUPLES):
    G, _ = group_from_string(spec)
    C = parse_class_selector(G, classes)
    result = run_pipeline(G, C, p)
    got = sorted((d.degree, d.genus, d.widths) for d in result.dossiers)
    reps = [(cls.representative, m) for cls, m in C.entries]
    assert got == raw_oracle(list(G.generators), reps, max_tuples)


@pytest.mark.parametrize("spec,classes,p", GRID)
def test_pipeline_matches_raw_tuple_oracle(spec, classes, p):
    _check_against_oracle(spec, classes, p)


@pytest.mark.slow
def test_pipeline_matches_raw_tuple_oracle_v2xz3_5():
    """The last grid entry, opt-in: python -m pytest -m slow tests/test_oracle.py"""
    _check_against_oracle("V2xZ3(5)", "3+:2,3-:2", 5, max_tuples=93600)


def raw_h3_orbit_sizes(gens, reps):
    """Inner classes in each orbit of H3 = <q1, q2>, largest first (r = 3)."""
    tuples, orbit = raw_braid_orbits(gens, reps)
    index = {t: i for i, t in enumerate(tuples)}
    inner = blocks(tuples, index, lambda t: conjugates(gens, t))
    return sorted(Counter(o for o, _ in set(zip(orbit, inner))).values(), reverse=True)


@pytest.mark.parametrize(
    "spec,classes,sizes",
    [
        ("A(5)", "5+:1,5-:1,3:1", [6]),
        ("A(6)", "(2 3 4 5 6):1,(1 2)(3 4 5 6):2", [6, 3, 3]),
        ("A(6)", "(2 3 4 5 6):1,(2 3 4 6 5):1,(1 2)(3 4 5 6):1", [6, 6, 6, 6]),
    ],
)
def test_h3_orbits_match_raw_tuple_oracle(spec, classes, sizes):
    G, _ = group_from_string(spec)
    C = parse_class_selector(G, classes)
    got = sorted((o.size for o in run_pipeline(G, C, 2).h3_orbits), reverse=True)
    reps = [(cls.representative, m) for cls, m in C.entries]
    assert got == raw_h3_orbit_sizes(list(G.generators), reps) == sizes


def gamma1_index(n):
    """[PSL2(Z) : ±Γ1(n)] = n²/2 · ∏ (1 − 1/ℓ²) over the primes ℓ | n, n ≥ 3:
    the degree of X1(n) over the j-line."""
    num, den, m, ell = n * n, 2, n, 2
    while m > 1:
        if m % ell == 0:
            num, den = num * (ell * ell - 1), den * ell * ell
            while m % ell == 0:
                m //= ell
        ell += 1
    return num // den


def _dihedral_components(n, p):
    G, _ = group_from_string(f"D({n})")
    result = run_pipeline(G, parse_class_selector(G, "2:4"), p)
    return [o.size for o in result.orbits], result.reduced_count


def test_gamma1_index_by_hand():
    # X1(5), X1(7), X1(12) have degrees 12, 24 and 48
    assert [gamma1_index(n) for n in (5, 7, 12, 625)] == [12, 24, 48, 187500]


@pytest.mark.parametrize("n", [5, 25, 125])
def test_dihedral_component_has_the_degree_of_x1(n):
    assert _dihedral_components(n, 5) == ([gamma1_index(n)], gamma1_index(n))


@pytest.mark.slow
def test_dihedral_625_component_has_the_degree_of_x1():
    """Opt-in: python -m pytest -m slow tests/test_oracle.py"""
    assert _dihedral_components(625, 5) == ([187500], gamma1_index(625))
