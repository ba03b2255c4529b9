"""Group-theoretic predicates and distinguished subgroups.

Most predicates accept either a FiniteGroup or a Subgroup of one; subgroup
arguments are evaluated inside the parent's table without re-tabling.
"""

from __future__ import annotations

import numpy as np

from .errors import NotNilpotent, PrimeDoesNotDivide
from .groups import FiniteGroup, memoized
from .subgroups import (
    Subgroup,
    centralizer_table,
    center_mask,
    commutator_values,
    conjugate_mask,
    generated_mask,
    generators,
    indices_of,
    normalizer_mask,
    subgroup_as_group,
    trivial_subgroup,
    whole_subgroup,
)

GroupLike = FiniteGroup | Subgroup


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """(prime, multiplicity) pairs with strictly increasing primes."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            out.append((d, m))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def primes_dividing(n: int) -> list[int]:
    return [p for p, _ in prime_factorization(n)]


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factorization(n) == [(n, 1)]


def _as_subgroup(x: GroupLike) -> Subgroup:
    return x if isinstance(x, Subgroup) else whole_subgroup(x)


def is_abelian(x: GroupLike) -> bool:
    """True iff all pairs commute (within the subgroup, when given one)."""
    if isinstance(x, FiniteGroup):
        return center_mask(x).bit_count() == x.order
    t = x.parent.table
    mem = x.members()
    sub = t[np.ix_(mem, mem)]
    return bool((sub == sub.T).all())


def is_cyclic(x: GroupLike) -> bool:
    """True iff some element order equals the group (or subgroup) size."""
    H = _as_subgroup(x)
    return bool((H.parent.orders[H.members()] == H.size).any())


def subgroup_exponent(x: GroupLike) -> int:
    import math
    H = _as_subgroup(x)
    return math.lcm(*(int(o) for o in np.unique(H.parent.orders[H.members()])))


def is_p_group(x: GroupLike) -> int | None:
    """The prime p when the order is a non-trivial power of p, else None.

    The trivial group determines no prime and returns None.
    """
    size = x.order if isinstance(x, FiniteGroup) else x.size
    fac = prime_factorization(size)
    if len(fac) == 1:
        return fac[0][0]
    return None


def _p_part(n: int, p: int) -> int:
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


@memoized
def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A subgroup of order the full p-part of |G|, by normalizer growth.

    Start from the span of a p-element; while below the p-part, pick a
    p-element of the normalizer outside the current subgroup and extend.
    """
    if G.order % p != 0:
        raise PrimeDoesNotDivide(f"{p} does not divide group order {G.order}")
    part = _p_part(G.order, p)
    orders = np.asarray(G.orders)
    # p-elements: order is a non-trivial power of p
    red = orders.astype(np.int64)
    while True:
        div = (red % p == 0) & (red > 1)
        if not div.any():
            break
        red[div] //= p
    is_p_elem = (red == 1) & (orders > 1)

    start = int(np.nonzero(is_p_elem)[0][0])
    mask = generated_mask(G, [start])
    while mask.bit_count() < part:
        norm = normalizer_mask(G, mask)
        cand = norm & ~mask
        mem = indices_of(cand, G.order)
        ext = mem[is_p_elem[mem]]
        if ext.size == 0:
            raise AssertionError("normalizer growth stalled below the full p-part")
        seeds = list(indices_of(mask, G.order)) + [int(ext[0])]
        mask = generated_mask(G, seeds)
    return Subgroup(G, mask)


@memoized
def p_core(G: FiniteGroup, p: int) -> Subgroup:
    """Largest normal p-subgroup: the core of a Sylow p-subgroup P.

    N <- N & N^g over the generators g of G, starting from N = P, until
    nothing changes (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, ch. 3). The core of P stays inside every N, and
    the fixed point is normalized by every generator.
    """
    if G.order % p != 0:
        return trivial_subgroup(G)
    core = sylow_subgroup(G, p).mask
    while True:
        prev = core
        for g in generators(G):
            core &= conjugate_mask(G, core, g)
        if core == prev:
            break
    return Subgroup(G, core)


def is_nilpotent(x: GroupLike) -> bool:
    """Lower central series reaches the trivial subgroup."""
    H = _as_subgroup(x)
    G = H.parent
    current = H.mask
    while current != 1:
        seeds = commutator_values(G, right_mask=current, left_mask=H.mask)
        nxt = generated_mask(G, seeds)
        if nxt == current:
            return False
        current = nxt
    return True


@memoized
def fitting_subgroup(G: FiniteGroup) -> Subgroup:
    """Largest normal nilpotent subgroup: join of the p-cores."""
    seeds: list[int] = []
    for p in primes_dividing(G.order) if G.order > 1 else []:
        seeds.extend(int(v) for v in p_core(G, p).members())
    return Subgroup(G, generated_mask(G, seeds))


def hughes_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """Subgroup generated by all elements whose order is not p."""
    if not is_prime(p):
        raise ValueError(f"prime required, got {p}")
    seeds = np.nonzero(np.asarray(G.orders) != p)[0]
    return Subgroup(G, generated_mask(G, seeds))


def is_hughes_thompson_type(G: FiniteGroup) -> int | None:
    """Least prime p with G not a p-group and H_p(G) proper, if any."""
    whole = (1 << G.order) - 1
    for p in primes_dividing(G.order):
        if is_p_group(G) == p:
            continue
        if hughes_subgroup(G, p).mask != whole:
            return p
    return None


def is_ca_group(G: FiniteGroup) -> bool:
    """Every centralizer of a non-central element is abelian."""
    if is_abelian(G):
        return True
    ct = centralizer_table(G)
    n = G.order
    return all(ab for m, ab in zip(ct.masks, ct.abelian) if m.bit_count() < n)


def decompose_p_times_abelian(x: GroupLike) -> tuple[Subgroup, Subgroup, int | None] | None:
    """Split a nilpotent group as P x A with A abelian and P of prime
    power order.

    P is the unique non-abelian Sylow subgroup when one exists (None is
    returned when two or more Sylows are non-abelian or any validation
    fails); for abelian input P is the Sylow subgroup of the largest prime
    divisor and A the product of the rest. The returned subgroups live in
    the standalone group when a Subgroup was passed. P must additionally
    have every centralizer of a non-central element abelian, commute
    elementwise with A, meet it trivially and multiply out to the whole
    group.
    """
    if isinstance(x, Subgroup) and not x.is_whole():
        g, _ = subgroup_as_group(x)
    else:
        g = x if isinstance(x, FiniteGroup) else x.parent
    if not is_nilpotent(g):
        raise NotNilpotent(f"group {g.name!r} is not nilpotent")
    primes = primes_dividing(g.order)
    if not primes:
        return trivial_subgroup(g), whole_subgroup(g), None
    sylows = {p: sylow_subgroup(g, p) for p in primes}
    nonabelian = [p for p in primes if not is_abelian(sylows[p])]
    if len(nonabelian) > 1:
        return None
    p = nonabelian[0] if nonabelian else max(primes)
    P = sylows[p]
    rest: list[int] = []
    for q in primes:
        if q != p:
            rest.extend(int(v) for v in sylows[q].members())
    A = Subgroup(g, generated_mask(g, rest))
    if P.mask & A.mask != 1:
        return None
    if P.size * A.size != g.order:
        return None
    if not is_abelian(A):
        return None
    # elementwise commuting of P with A
    t = g.table
    pm = P.members()
    am = A.members()
    if not np.array_equal(t[np.ix_(pm, am)], t[np.ix_(am, pm)].T):
        return None
    sub_p, _ = subgroup_as_group(P)
    if not is_ca_group(sub_p):
        return None
    return P, A, p
