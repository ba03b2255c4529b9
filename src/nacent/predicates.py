"""Group-theoretic predicates and distinguished subgroups.

Most predicates accept either a FiniteGroup or a Subgroup of one; subgroup
arguments are evaluated inside the parent's table without re-tabling.
"""

from __future__ import annotations

import numpy as np

from .errors import NotNilpotent
from .groups import FiniteGroup, element_orders, memoized, prime_factorization
from .subgroups import (
    Subgroup,
    _normal_closure_mask,
    center_mask,
    conjugation_rows,
    generated_mask,
    indices_of,
    mask_of,
    mask_of_bool,
    subgroup_centralizers,
    trivial_subgroup,
    whole_subgroup,
)

GroupLike = FiniteGroup | Subgroup


def primes_dividing(n: int) -> list[int]:
    return [p for p, _ in prime_factorization(n)]


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factorization(n) == [(n, 1)]


def _as_subgroup(x: GroupLike) -> Subgroup:
    return x if isinstance(x, Subgroup) else whole_subgroup(x)


def is_abelian(x: GroupLike) -> bool:
    """True iff all pairs commute (within the subgroup, when given one):
    every member's centralizer is the whole."""
    H = _as_subgroup(x)
    return len(subgroup_centralizers(H.parent, H.mask)) == 1


def is_cyclic(x: GroupLike) -> bool:
    """True iff some element order equals the group (or subgroup) size."""
    H = _as_subgroup(x)
    return bool((element_orders(H.parent)[H.members()] == H.size).any())


def is_p_group(x: GroupLike) -> int | None:
    """The prime p when the order is a non-trivial power of p, else None.

    The trivial group determines no prime and returns None.
    """
    size = x.order if isinstance(x, FiniteGroup) else x.size
    fac = prime_factorization(size)
    if len(fac) == 1:
        return fac[0][0]
    return None


def is_nilpotent(x: GroupLike) -> bool:
    """Every Sylow subgroup is normal: for each p^a exactly dividing the
    order, exactly p^a members have an order dividing p^a (the elements of
    p-power order are the union of the Sylow p-subgroups, so there are
    more of them when two Sylows differ)."""
    H = _as_subgroup(x)
    orders = element_orders(H.parent)[H.members()]
    return all(np.count_nonzero(p**a % orders == 0) == p**a
               for p, a in prime_factorization(H.size))


def fitting_subgroup(G: FiniteGroup) -> Subgroup:
    """Largest normal nilpotent subgroup."""
    return Subgroup(G, _fitting_mask(G))


@memoized
def _fitting_mask(G: FiniteGroup) -> int:
    """Bitset of the Fitting subgroup F, grown from the center Z.

    F contains every normal nilpotent subgroup of G (Fitting's theorem;
    Robinson, A Course in the Theory of Groups, 5.2.8). So for a normal
    nilpotent F0 inside F and an x outside it, the normal closure of F0 and
    x is nilpotent exactly when x lies in F; it is then the new F0. Z is
    normal and nilpotent, so the growth starts there. Each closure grows a
    copy of F0 with F0's generators, so it adds only x's conjugates. When x
    is not in F, neither is any x^g z with z in Z: x's class times Z, at
    most n elements (Z lies in C(x)), is set aside at once. F is nilpotent,
    the product of its Sylow subgroups, so it is generated by its elements
    of prime-power order: the others are set aside before the first trial.
    """
    n = G.order
    center = indices_of(center_mask(G), n)
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    gens: list[int] = []  # generate F0, which `inside` holds
    _normal_closure_mask(G, center, inside, gens)
    prime_power = np.zeros(n, dtype=bool)
    for p, a in prime_factorization(n):
        prime_power |= p**a % element_orders(G) == 0  # the orders dividing p^a
    done = inside | ~prime_power  # in F0 or set aside
    while not done.all():
        x = int(np.argmin(done))
        grown, grown_gens = inside.copy(), gens.copy()
        if is_nilpotent(Subgroup(G, _normal_closure_mask(G, [x], grown, grown_gens))):
            inside, gens = grown, grown_gens
            done |= inside
        else:
            cls = np.zeros(n, dtype=bool)
            cls[conjugation_rows(G, [x])] = True
            done[G.table[np.flatnonzero(cls)[:, None], center]] = True
    return mask_of_bool(inside)


def hughes_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """Subgroup generated by all elements whose order is not p."""
    if not is_prime(p):
        raise ValueError(f"prime required, got {p}")
    seeds = np.nonzero(element_orders(G) != p)[0]
    return Subgroup(G, generated_mask(G, seeds))


def is_ca_group(x: GroupLike) -> bool:
    """Every centralizer of a non-central element is abelian (within the
    subgroup, when given one)."""
    H = _as_subgroup(x)
    return all(ab for m, ab in subgroup_centralizers(H.parent, H.mask) if m.bit_count() < H.size)


def decompose_p_times_abelian(x: GroupLike) -> tuple[Subgroup, Subgroup, int | None] | None:
    """Split a nilpotent group as P x A with A abelian and P of prime
    power order, by its Sylow decomposition: a nilpotent group is the
    direct product of its Sylow subgroups, each the elements of order a
    power of its prime (Robinson, A Course in the Theory of Groups, 5.2.4).

    P is the unique non-abelian Sylow subgroup when one exists, else the
    largest prime's, and A, the product of the others, is abelian: the
    p'-elements. None is returned when two or more Sylows are non-abelian
    or P is not a CA group. A subgroup is split inside its parent, and P
    and A are subgroups of that parent.
    """
    H = _as_subgroup(x)
    G = H.parent
    if not is_nilpotent(H):
        name = G.name if H.is_whole() else f"{G.name}[{H.size}]"
        raise NotNilpotent(f"group {name!r} is not nilpotent")
    factors = prime_factorization(H.size)
    if not factors:
        return trivial_subgroup(G), H, None
    mem = H.members()
    orders = element_orders(G)[mem]
    sylows = {p: Subgroup(G, mask_of(mem[p**a % orders == 0])) for p, a in factors}
    nonabelian = [p for p in sylows if not is_abelian(sylows[p])]
    if len(nonabelian) > 1:
        return None
    p = nonabelian[0] if nonabelian else factors[-1][0]
    if not is_ca_group(sylows[p]):
        return None
    return sylows[p], Subgroup(G, mask_of(mem[orders % p != 0])), p
