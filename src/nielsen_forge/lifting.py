"""Lifting invariants through central extensions, and Frattini-cover checks.

The small lifting invariant of a product-one tuple is the kernel element
obtained by multiplying the unique prime-to-p lifts of its entries; with a
cyclic p-power kernel it is recorded as the exponent of a fixed kernel
generator, rendered +-1 when the kernel has order 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import perm as P
from .errors import (
    ConfigError,
    GenusHypothesisFails,
    MiddleProductNotPrime,
    NotPGroupKernel,
    NotSurjective,
    OrderNotPrime,
)
from .groups import FiniteGroup, GroupHom, is_p_power, orbit_of, partition_orbits
from .perm import Perm


class CentralExtension:
    """R -> G with central cyclic kernel <kernel_gen> of p-power order."""

    def __init__(
        self,
        R: FiniteGroup,
        G: FiniteGroup,
        proj: GroupHom,
        kernel_gen: Perm,
        p: int,
    ):
        if proj.source is not R or proj.target is not G:
            raise ConfigError("projection endpoints disagree with R, G")
        if not proj.is_surjective:
            raise NotSurjective("central extension projection must be onto")
        self.R = R
        self.G = G
        self.proj = proj
        self.p = p
        if kernel_gen not in R:
            raise ConfigError(
                f"kernel generator {P.format_cycles(kernel_gen)} is not in R"
            )
        self.kernel_gen_id = R.id_of(kernel_gen)
        powers = [R.identity_id]
        x = self.kernel_gen_id
        while x != R.identity_id:
            powers.append(x)
            x = R.mul(x, self.kernel_gen_id)
        self.kernel_power_ids = powers
        self.kernel_order = len(powers)
        if self.kernel_order == 1 or not is_p_power(self.kernel_order, p):
            raise NotPGroupKernel(
                f"kernel order {self.kernel_order} is not a nontrivial power of {p}"
            )
        if set(powers) != set(proj.kernel_ids):
            raise ConfigError("kernel generator does not generate ker(proj)")
        if any(
            R.mul(self.kernel_gen_id, g) != R.mul(g, self.kernel_gen_id)
            for g in R.generator_ids
        ):
            raise ConfigError("kernel generator is not central")
        self._exponent = {z: e for e, z in enumerate(powers)}

    def kernel_exponent(self, rid: int) -> int:
        return self._exponent[rid]

    def p_prime_lift_id(self, gid: int) -> int:
        """ID of the unique preimage with order prime to p."""
        G, R = self.G, self.R
        n = G.element_orders[gid]
        if n % self.p == 0:
            raise OrderNotPrime(
                f"element order {n} is divisible by p={self.p}"
            )
        h = self.proj.fibers[gid][0]
        hn = R.identity_id
        for _ in range(n):
            hn = R.mul(hn, h)
        k = self._exponent[hn]
        a = (-k * pow(n, -1, self.kernel_order)) % self.kernel_order
        return R.mul(h, self.kernel_power_ids[a])


@dataclass(frozen=True)
class LiftInvariant:
    """Kernel exponent of the lifted product; braid-orbit invariant."""

    exponent: int
    kernel_order: int
    p: int

    @property
    def is_trivial(self) -> bool:
        return self.exponent == 0

    @property
    def sign(self) -> int:
        """+-1 rendering; only meaningful for kernel order 2."""
        if self.kernel_order != 2:
            raise ValueError("sign rendering needs kernel order 2")
        return 1 if self.exponent == 0 else -1

    def __str__(self) -> str:
        if self.kernel_order == 2:
            return "+1" if self.exponent == 0 else "-1"
        return f"z^{self.exponent} (mod {self.kernel_order})"


def p_prime_lift(ext: CentralExtension, g: Perm) -> Perm:
    return ext.R.perm(ext.p_prime_lift_id(ext.G.id_of(g)))


def lifting_invariant(ext: CentralExtension, entries: Sequence[Perm]) -> LiftInvariant:
    """Product of the unique p'-lifts, as a kernel-generator exponent."""
    G = ext.G
    ids = [G.id_of(g) for g in entries]
    prod = G.identity_id
    for x in ids:
        prod = G.mul(prod, x)
    if prod != G.identity_id:
        raise ValueError("lifting invariant needs a product-one tuple")
    R = ext.R
    lifted = R.identity_id
    for x in ids:
        lifted = R.mul(lifted, ext.p_prime_lift_id(x))
    return LiftInvariant(ext.kernel_exponent(lifted), ext.kernel_order, ext.p)


def cycle_spin_weight(g: Perm) -> int:
    """w(g) = sum of (l^2-1)/8 mod 2 over cycle lengths (odd-order g)."""
    w = 0
    for c in P.cycles(g):
        l = len(c)
        if l % 2 == 0:
            raise OrderNotPrime("spin weight needs odd cycle lengths")
        w += ((l * l - 1) // 8) % 2
    return w % 2


def spin_parity(entries: Sequence[Perm], n: int) -> int:
    """Closed-form spin invariant (-1)^sum(w), under the genus-0 hypothesis."""
    if any(len(g) != n for g in entries):
        raise ValueError("entries must act on n points")
    if any(P.order(g) % 2 == 0 for g in entries):
        raise OrderNotPrime("spin parity needs odd-order entries")
    if len(orbit_of(0, lambda x: [g[x] for g in entries])) != n:
        raise GenusHypothesisFails("tuple is not transitive on the n points")
    ind_sum = sum(P.index(g) for g in entries)
    if ind_sum != 2 * (n - 1):
        raise GenusHypothesisFails(
            f"degree-{n} cover has genus {(ind_sum - 2 * (n - 1)) // 2}, not 0"
        )
    total = sum(cycle_spin_weight(g) for g in entries) % 2
    return -1 if total else 1


@dataclass(frozen=True)
class PairFactorization:
    s23: LiftInvariant
    s14: LiftInvariant
    s: LiftInvariant
    ok: bool


def factor_through_pairs(
    ext: CentralExtension, entries: Sequence[Perm], p: int
) -> PairFactorization:
    """Factor the invariant through the middle and outer pair subgroups.

    The two 3-tuple invariants are computed in the preimages of
    H_{2,3} = <g2,g3> and H_{1,4} = <g1,g4> inside R; the check is
    s = s23 * s14 on kernel exponents.
    """
    if len(entries) != 4:
        raise ValueError("FP3 factorization needs a 4-tuple")
    if p != ext.p:
        raise ValueError("prime disagrees with the extension")
    g1, g2, g3, g4 = entries
    mid = P.compose(g2, g3)
    if P.order(mid) % p == 0:
        raise MiddleProductNotPrime(
            f"middle product has order divisible by p={p}"
        )
    s23 = lifting_invariant(ext, (g2, g3, P.inverse(mid)))
    outer = P.compose(g4, g1)
    s14 = lifting_invariant(ext, (P.inverse(outer), g4, g1))
    s = lifting_invariant(ext, entries)
    ok = (s23.exponent + s14.exponent) % ext.kernel_order == s.exponent
    return PairFactorization(s23, s14, s, ok)


def is_frattini_cover(phi: GroupHom) -> bool:
    """True iff every choice of generator preimages generates the source.

    Conjugation by ker phi maps each fiber to itself and keeps generation,
    so one generator's preimage is taken once per kernel orbit: that of
    the generator whose fiber has the fewest orbits.
    """
    if not phi.is_surjective:
        raise NotSurjective("Frattini check needs a surjective cover")
    src, tgt = phi.source, phi.target
    choices = [phi.fibers[tgt.id_of(g)] for g in tgt.generators]
    reps = []
    for f in choices:
        pos = {x: i for i, x in enumerate(f)}
        arrays = [[pos[src.conj(x, k)] for x in f] for k in phi.kernel_ids]
        reps.append([f[o[0]] for o in partition_orbits(range(len(f)), arrays)])
    i = min(range(len(reps)), key=lambda j: len(reps[j]))
    choices[i] = reps[i]
    return all(
        len(src.subgroup_closure(combo)) == src.order
        for combo in itertools.product(*choices)
    )


@dataclass(frozen=True)
class JenningsProfile:
    """Loewy-layer dimensions of Z/p[(Z/p)^n]."""

    p: int
    n: int
    dims: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.dims)

    @property
    def is_palindromic(self) -> bool:
        return self.dims == self.dims[::-1]


def jennings_dims(p: int, n: int) -> JenningsProfile:
    """Coefficients of ((1-t^p)/(1-t))^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    coeffs = [1]
    block = [1] * p
    for _ in range(n):
        out = [0] * (len(coeffs) + p - 1)
        for i, a in enumerate(coeffs):
            if a:
                for j, b in enumerate(block):
                    out[i + j] += a * b
        coeffs = out
    return JenningsProfile(p, n, tuple(coeffs))
