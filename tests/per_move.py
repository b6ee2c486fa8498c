"""The per-move Q'' walk, a reference for the sh/q2 braid table.

The library reads every braid action off one table of sh and q2 on a
level's sorted inner canonicals.  These helpers instead apply each braid
move to one tuple and canonicalize the result on its own, and close Q''
orbits move by move, so that tests can compare the table against them.
"""

from __future__ import annotations

from nielsen_forge.braid import _twist
from nielsen_forge.groups import FiniteGroup, orbit_of
from nielsen_forge.nielsen import CanonicalContext


def shift_ids(ids: tuple[int, ...]) -> tuple[int, ...]:
    """sh on inner classes: the cyclic shift (g2,...,gr,g1)."""
    return ids[1:] + ids[:1]


def q13inv_ids(group: FiniteGroup, ids: tuple[int, ...]) -> tuple[int, ...]:
    return _twist(group, _twist(group, ids, 0, +1), 2, -1)


def q2_moves(group: FiniteGroup, ctx: CanonicalContext):
    """Generators of Q'' on inner canonicals: sh^2 and q1 q3^-1."""
    return lambda t: (
        ctx.canon(shift_ids(shift_ids(t))),
        ctx.canon(q13inv_ids(group, t)),
    )


def q2_variants(
    group: FiniteGroup, ctx: CanonicalContext, canon: tuple[int, ...]
) -> frozenset[tuple[int, ...]]:
    """Inner canonicals of the Q''-orbit through the given inner class."""
    return frozenset(orbit_of(canon, q2_moves(group, ctx)))


def reduced_canonical(
    group: FiniteGroup, ctx: CanonicalContext, ids: tuple[int, ...]
) -> tuple[int, ...]:
    """Least inner canonical of the Q''-orbit through the class of ids."""
    return min(q2_variants(group, ctx, ctx.canon(ids)))
