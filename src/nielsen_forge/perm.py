"""Permutations of {0..n-1} as image tuples, words reading left to right.

A permutation is a tuple ``p`` with ``p[x]`` the image of ``x``.  Products
follow the right-action convention used throughout: in ``compose(p, q)`` the
left factor acts first, so ``compose(p, q)[x] == q[p[x]]`` and a word like
``c g c^-1`` is evaluated by folding ``compose`` left to right.  Cycle
notation is 1-based on input/output, with "()" for the identity.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Sequence

from .errors import BadPermutation, ConventionBroken

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_identity(p: Perm) -> bool:
    return all(p[i] == i for i in range(len(p)))


def compose(p: Perm, q: Perm) -> Perm:
    """Product p*q mapping x to q[p[x]] (p acts first)."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    if len(p) < 2:
        # itemgetter with a single index returns a scalar, not a tuple
        return tuple(q[x] for x in p)
    return itemgetter(*p)(q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def conjugate(g: Perm, c: Perm) -> Perm:
    """The word c*g*c^-1 under compose (left-to-right evaluation)."""
    if len(g) != len(c):
        raise ValueError(f"degree mismatch: {len(g)} vs {len(c)}")
    # c g c^-1 sends c^-1(x) |-> c^-1(g(x)), i.e. relabels g by c^-1.
    inv_c = inverse(c)
    out = [0] * len(g)
    for x in range(len(g)):
        out[inv_c[x]] = inv_c[g[x]]
    return tuple(out)


def order(p: Perm) -> int:
    from math import lcm

    return lcm(*(len(c) for c in cycles(p))) if p else 1


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles (including fixed points), least point first."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        c = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            c.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(c))
    return out


def index(p: Perm) -> int:
    """ind(p) = degree - number of cycles (Riemann-Hurwitz contribution)."""
    seen = [False] * len(p)
    count = 0
    for i in range(len(p)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return len(p) - count


def from_cycles(cyc: Sequence[Sequence[int]], degree: int) -> Perm:
    """Build a permutation from 0-based cycles."""
    images = list(range(degree))
    for c in cyc:
        for a in c:
            if not 0 <= a < degree:
                raise BadPermutation(f"point {a} out of range for degree {degree}")
        for i, a in enumerate(c):
            images[a] = c[(i + 1) % len(c)]
    p = tuple(images)
    if sorted(p) != list(range(degree)):
        raise BadPermutation(f"cycles overlap: {cyc}")
    return p


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse(text: str, degree: int | None = None) -> Perm:
    """Parse 1-based cycle notation like "(1 2 3)(4 5)"; "()" is the identity.

    Whitespace or commas separate points.  With no explicit degree the
    largest point present sets it.
    """
    stripped = text.strip()
    if not stripped:
        raise BadPermutation("empty permutation string")
    body = stripped.replace(",", " ")
    consumed = _CYCLE_RE.sub("", body).strip()
    if consumed:
        raise BadPermutation(f"unparsed text {consumed!r} in permutation {text!r}")
    cycs = []
    max_pt = 0
    for grp in _CYCLE_RE.findall(body):
        try:
            pts = [int(tok) for tok in grp.split()]
        except ValueError as exc:
            raise BadPermutation(f"non-integer point in {text!r}") from exc
        if not pts:
            continue
        if any(pt < 1 for pt in pts):
            raise BadPermutation(f"points are 1-based in {text!r}")
        max_pt = max(max_pt, *pts)
        cycs.append([pt - 1 for pt in pts])
    if degree is None:
        degree = max_pt
    elif max_pt > degree:
        raise BadPermutation(f"point {max_pt} exceeds degree {degree} in {text!r}")
    return from_cycles(cycs, degree)


def format_cycles(p: Perm) -> str:
    """1-based cycle notation, fixed points omitted; identity is "()"."""
    parts = [
        "(" + " ".join(str(a + 1) for a in c) + ")" for c in cycles(p) if len(c) > 1
    ]
    return "".join(parts) if parts else "()"


def _convention_self_test() -> None:
    # Left-to-right product convention, pinned by (5 4 3 2 1)(2 4 3 5 1) = (5 3 4).
    lhs = compose(parse("(5 4 3 2 1)", 5), parse("(2 4 3 5 1)", 5))
    if lhs != parse("(5 3 4)", 5):
        raise ConventionBroken("composition convention violated: expected (5 3 4)")


_convention_self_test()
