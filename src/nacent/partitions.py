"""Partitions of a group into subgroups, and the tests run over them.

A partition is a set of non-trivial subgroups such that every non-trivial
element lies in exactly one of them. The operations here are tests over
explicitly given component lists; nothing is assumed to exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import takewhile
from operator import or_

import numpy as np

from .errors import AbelianGroup
from .groups import FiniteGroup, _ladder_power, memoized
from .predicates import is_abelian, primes_dividing
from .subgroups import (
    QuotientMap,
    Subgroup,
    _commutator_mask,
    _normal_closure_mask,
    bool_of,
    center,
    centralizer_table,
    conjugates,
    coset_leaders,
    generated_mask,
    indices_of,
    quotient,
)


@dataclass(frozen=True)
class Partition:
    """A verified partition of a group's non-trivial elements."""

    quotient: FiniteGroup
    components: tuple[Subgroup, ...]

    @cached_property
    def component_masks(self) -> frozenset[int]:
        return frozenset(c.mask for c in self.components)

    def is_trivial(self) -> bool:
        return len(self.components) == 1


def _size_then_mask(mask: int) -> tuple[int, int]:
    return mask.bit_count(), mask  # the one order of subgroup bitsets here


def center_quotient(G: FiniteGroup) -> QuotientMap:
    """The quotient of G by its center."""
    Q, projection = _center_quotient_parts(G)
    return QuotientMap(G, center(G), G if Q is None else Q, projection)


@memoized
def _center_quotient_parts(G: FiniteGroup) -> tuple[FiniteGroup | None, np.ndarray]:
    """The quotient group by the center, None when the center is trivial
    and the quotient is G itself, and the projection: G is kept out of its
    own memo, so it is freed by reference counting."""
    qm = quotient(G, center(G))
    return (None if qm.quotient is G else qm.quotient), qm.projection


def normal_closure_mask(G: FiniteGroup, mask: int) -> int:
    """Smallest normal subgroup containing the given elements."""
    return _normal_closure_mask(G, indices_of(mask, G.order))


# ---------------------------------------------------------------------------
# partition predicates


def is_partition(Q: FiniteGroup, components) -> bool:
    """True iff every non-trivial element lies in exactly one component."""
    full = (1 << Q.order) - 1
    acc = 0
    for comp in components:
        m = comp.mask & ~1
        if m == 0:
            return False  # trivial subgroups are not allowed as components
        if acc & m:
            return False
        acc |= m
    return acc == full & ~1


def centralizer_partition(G: FiniteGroup) -> Partition | None:
    """The maximal centralizer images in G/Z(G), if they partition it (see
    `_centralizer_partition_masks`); raises AbelianGroup for abelian input."""
    masks = _centralizer_partition_masks(G)
    if masks is None:
        return None
    Q = center_quotient(G).quotient
    return Partition(quotient=Q, components=tuple(Subgroup(Q, m) for m in masks))


@memoized
def _centralizer_partition_masks(G: FiniteGroup) -> tuple[int, ...] | None:
    """Bitsets over G/Z(G) of the components of the centralizer partition,
    ordered by (size, mask), or None when there is none.

    Candidate components are the distinct images C(x)/Z(G) over
    non-central x, keeping only images not contained in a larger one
    (an image nested inside another can never satisfy the uniqueness
    law, and discarding it recovers exactly the kernel-plus-outside
    component set in the two-non-abelian-centralizer situation).
    Returns None when the maximal images still overlap; raises
    AbelianGroup for abelian input.
    """
    if is_abelian(G):
        raise AbelianGroup(f"{G.name!r} is abelian; its centralizer images are trivial")
    qm = center_quotient(G)
    by_size = sorted(_centralizer_images(G, qm), key=_size_then_mask, reverse=True)
    kept: list[tuple[int, int]] = []  # (size, mask), descending size
    for m in by_size:
        size = m.bit_count()
        # kept is in descending size, so the larger images are a prefix
        if any(m & ~km == 0 for _, km in takewhile(lambda k: k[0] > size, kept)):
            continue
        kept.append((size, m))
    masks = sorted((m for _, m in kept), key=_size_then_mask)
    if not is_partition(qm.quotient, [Subgroup(qm.quotient, m) for m in masks]):
        return None
    return tuple(masks)


def _centralizer_images(G: FiniteGroup, qm: QuotientMap) -> list[int]:
    """The bitsets over G/Z of the images of the proper centralizers of G.

    Each C(x) contains Z, so it is a union of cosets of Z, and its image
    holds a coset iff C(x) holds that coset's least member: one gather of
    the packed centralizer rows at the coset leaders of Z, in ascending
    order as `quotient` labels them. On a trivial center the images are
    the centralizers themselves.
    """
    proper = centralizer_table(G).masks[1:]  # class 0 is C(z) = G for central z
    if qm.quotient is G:
        return list(proper)
    nbytes = (G.order + 7) // 8
    rows = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in proper),
                         dtype=np.uint8).reshape(len(proper), nbytes)
    leaders = np.flatnonzero(coset_leaders(G, qm.kernel.mask) == np.arange(G.order))
    packed = np.packbits(rows[:, leaders >> 3] >> (leaders & 7) & 1, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@memoized
def _component_orbits(Q: FiniteGroup, comp_masks: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """The orbits under conjugation of the given components: for the least
    component not yet reached, its conjugates by the right coset leaders of
    its normalizer, one `conjugates` gather per orbit."""
    pending, orbits = set(comp_masks), []
    while pending:
        orbit = conjugates(Q, min(pending))
        pending.difference_update(orbit)
        orbits.append(orbit)
    return tuple(orbits)


def is_normal_partition(partition: Partition) -> bool:
    """True iff conjugation permutes the component set: every orbit of a
    component lies inside it."""
    masks = partition.component_masks
    return all(masks.issuperset(orbit) for orbit in _component_orbits(partition.quotient, masks))


def _saturation(Q: FiniteGroup, comp_masks: frozenset[int], orbit: tuple[int, ...]) -> int:
    """The least normal subgroup of Q holding the first component of the
    orbit with every component inside it or meeting it trivially: close
    normally, add every component the closure meets, and repeat until
    nothing is added. A normal component (an orbit of one) meets no other
    component, so it is its own saturation."""
    if len(orbit) == 1:
        return orbit[0]
    N, grown = 0, orbit[0]
    while grown != N:
        N = normal_closure_mask(Q, grown)
        grown = reduce(or_, (c for c in comp_masks if c & N != 1), N)
    return N


def is_nonsimple_partition(partition: Partition) -> Subgroup | None:
    """The least proper normal N, by (size, mask), with every component
    inside N or meeting it trivially, if there is one.

    Such an N is the union of the components it holds, and these N are
    closed under intersection, so N holds the saturation of each of its
    components (`_saturation`), and the least N is the least saturation
    that is proper. Conjugate components have one saturation, which holds
    their whole orbit: one saturation per orbit is taken, in ascending size
    of the orbit's union, until that union outgrows the best one found.
    """
    Q, comps = partition.quotient, partition.component_masks
    full = (1 << Q.order) - 1
    best = None
    unions = [(reduce(or_, orbit), orbit) for orbit in _component_orbits(Q, comps)]
    for union, orbit in sorted(unions, key=lambda u: _size_then_mask(u[0])):
        if best is not None and union.bit_count() > best.bit_count():
            break
        N = _saturation(Q, comps, orbit)
        if N != full and (best is None or _size_then_mask(N) < _size_then_mask(best)):
            best = N
    return None if best is None else Subgroup(Q, best)


def is_elementary_partition(partition: Partition) -> tuple[Subgroup, int] | None:
    """A non-trivial normal K of prime index p, least p first, with every
    cyclic subgroup outside K of order p and itself a component, if one
    exists.

    A component of order p holding x is <x>, so this says that K holds S,
    the elements outside U_p, the union of the components of order p. Then
    K holds M = <S^Q, Q', Q^p>, since Q/K has order p; and when M != Q,
    Q/M is elementary abelian, so M grown by least elements to index p is
    such a K, normal since it holds Q'. M is S with the identity when that
    is a normal component, and Q' and Q^p join the normal closure only when
    its index is not already p. A trivial partition is never elementary.
    """
    Q, comps = partition.quotient, partition.component_masks
    n = Q.order
    unions: dict[int, int] = {}  # size -> union of the components of that size
    for c in comps:
        unions[c.bit_count()] = unions.get(c.bit_count(), 0) | c
    normal = {orbit[0] for orbit in _component_orbits(Q, comps) if len(orbit) == 1}
    for p in primes_dividing(n):
        k = n // p
        inside = (1 << n) - 1 & ~unions.get(p, 0) | 1  # S and the identity
        if k == 1 or inside.bit_count() > k:
            continue
        K = inside if inside in normal else normal_closure_mask(Q, inside)
        if K.bit_count() < k:  # Q' and Q^p join K, then least elements
            powers = _ladder_power(Q.table, Q.ladder, np.arange(n), p)  # p < 2^len(ladder)
            seeds = np.concatenate([indices_of(K | _commutator_mask(Q), n), powers])
            K = _normal_closure_mask(Q, seeds)
            while K.bit_count() < k:
                K = generated_mask(Q, [*indices_of(K, n), int(np.argmin(bool_of(K, n)))])
        if K.bit_count() == k:
            return Subgroup(Q, K), p
    return None


# ---------------------------------------------------------------------------
# Frobenius structure


def _validate_frobenius(Q: FiniteGroup, K: Subgroup, H: Subgroup) -> bool:
    full = (1 << Q.order) - 1
    if H.mask & K.mask != 1 or H.size * K.size != Q.order:
        return False
    conj_masks = conjugates(Q, H.mask)
    # H has |Q:N(H)| conjugates, so |K| = |Q:H| of them iff N(H) = H
    if len(conj_masks) != K.size:
        return False
    union = 0
    for m in conj_masks:
        if m != H.mask and m & H.mask != 1:
            return False
        union |= m & ~1
    return union == full & ~K.mask


def is_frobenius_partition(partition: Partition) -> bool:
    """The partition is a Frobenius kernel plus all complement conjugates.

    A Frobenius complement H has |H| dividing |K| - 1, so the kernel K is
    larger than every complement conjugate: in a Frobenius partition it is
    the unique largest component, normal, so an orbit of its own among the
    orbits `is_normal_partition` walks, and the other components are one
    orbit, the conjugates of a complement.
    """
    Q, masks = partition.quotient, partition.component_masks
    orbits = _component_orbits(Q, masks)
    if len(orbits) != 2:
        return False
    K = max(masks, key=int.bit_count)
    if (K,) not in orbits:
        return False
    complements = orbits[1] if orbits[0] == (K,) else orbits[0]
    return masks.issuperset(complements) and _validate_frobenius(
        Q, Subgroup(Q, K), Subgroup(Q, complements[0]))
