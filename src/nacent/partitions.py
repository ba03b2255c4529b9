"""Partitions of a group into subgroups, and Frobenius-structure detection.

A partition is a set of non-trivial subgroups such that every non-trivial
element lies in exactly one of them. The operations here are tests over
explicitly given component lists; nothing is assumed to exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .errors import AbelianGroup, NotApplicable, OrderLimitExceeded
from .groups import FiniteGroup, memoized
from .predicates import is_abelian, is_p_group, is_prime, primes_dividing
from .subgroups import (
    QuotientMap,
    Subgroup,
    _normal_closure_mask,
    center,
    centralizer_table,
    conjugacy_classes,
    conjugation_rows,
    cyclic_span_mask,
    generated_mask,
    generators,
    indices_of,
    is_normal,
    mask_of,
    quotient,
)

# Normal-subgroup enumeration works on the conjugacy-class join lattice and
# is refused above this order; callers that only need specific candidates
# pass them explicitly instead.
NORMAL_ENUM_CAP = 2000

# Complement search tries subgroups generated by one, then two, elements of
# suitable order outside the kernel; the quadratic pair phase is limited to
# this many pool elements.
PAIR_SEARCH_POOL = 128


@dataclass(frozen=True)
class Partition:
    """A verified partition of a group's non-trivial elements."""

    quotient: FiniteGroup
    components: tuple[Subgroup, ...]

    @property
    def component_masks(self) -> frozenset[int]:
        return frozenset(c.mask for c in self.components)

    def is_trivial(self) -> bool:
        return len(self.components) == 1


@dataclass(frozen=True)
class FrobeniusStructure:
    """Kernel and one complement of a Frobenius group."""

    group: FiniteGroup
    kernel: Subgroup
    complement: Subgroup


def _sorted_components(comps) -> tuple[Subgroup, ...]:
    return tuple(sorted(comps, key=lambda c: (c.size, tuple(c.members()))))


@memoized
def center_quotient(G: FiniteGroup) -> QuotientMap:
    """The quotient of G by its center (cached on G)."""
    return quotient(G, center(G))


# ---------------------------------------------------------------------------
# normal-subgroup enumeration


def normal_subgroups(G: FiniteGroup, cap: int = NORMAL_ENUM_CAP) -> tuple[Subgroup, ...]:
    """All normal subgroups, via joins of conjugacy-class closures.

    Every normal subgroup is a union of conjugacy classes and equals the
    join of the closures of the classes it contains, so closing the class
    closures under pairwise join enumerates them all. Raises
    OrderLimitExceeded above `cap`.
    """
    if G.order > cap:
        raise OrderLimitExceeded(
            f"normal-subgroup enumeration capped at order {cap}, group has {G.order}")
    return _normal_subgroups(G)


@memoized
def _normal_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    atoms = [generated_mask(G, cls) for cls in conjugacy_classes(G)]
    join_memo: dict[int, int] = {1: 1}

    def join(m1: int, m2: int) -> int:
        key = m1 | m2
        got = join_memo.get(key)
        if got is None:
            got = generated_mask(G, indices_of(key, G.order))
            join_memo[key] = got
        return got

    found = {1}
    for atom in atoms:
        new = {join(m, atom) for m in found}
        found |= new
    subs = [Subgroup(G, m) for m in found]
    return tuple(sorted(subs, key=lambda s: (s.size, s.mask)))


@memoized
def _class_lookup(G: FiniteGroup) -> dict[int, int]:
    return {x: ci for ci, cls in enumerate(conjugacy_classes(G)) for x in cls}


def normal_closure_mask(G: FiniteGroup, mask: int) -> int:
    """Smallest normal subgroup containing the given elements.

    Memoized by the set of conjugacy classes the elements touch, so the
    many conjugate subgroups arising in partition scans share one closure
    computation. A miss closes one representative per touched class with
    `subgroups._normal_closure_mask`: a normal subgroup containing an
    element contains its whole class.
    """
    class_of = _class_lookup(G)
    return _class_closure(G, frozenset(class_of[int(x)] for x in indices_of(mask, G.order)))


@memoized
def _class_closure(G: FiniteGroup, touched: frozenset[int]) -> int:
    """Normal closure of the conjugacy classes numbered in `touched`."""
    classes = conjugacy_classes(G)
    return _normal_closure_mask(G, [classes[ci][0] for ci in touched])


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


@memoized
def centralizer_partition(G: FiniteGroup) -> Partition | None:
    """The maximal centralizer images in G/Z(G), if they partition it.

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
    ct = centralizer_table(G)
    whole = (1 << G.order) - 1
    images: set[int] = set()
    for m in ct.masks:
        if m != whole:
            images.add(qm.image_mask(Subgroup(G, m)))
    by_size = sorted(images, key=lambda m: (-m.bit_count(), m))
    kept: list[tuple[int, int]] = []  # (size, mask), descending size
    for m in by_size:
        size = m.bit_count()
        # kept is in descending size, so the larger images are a prefix
        if any(m & ~km == 0 for _, km in takewhile(lambda k: k[0] > size, kept)):
            continue
        kept.append((size, m))
    comps = _sorted_components(Subgroup(qm.quotient, m) for _, m in kept)
    if not is_partition(qm.quotient, comps):
        return None
    return Partition(quotient=qm.quotient, components=comps)


def is_normal_partition(Q: FiniteGroup, partition: Partition) -> bool:
    """True iff conjugation permutes the component set."""
    masks = partition.component_masks
    return all(mask_of(row) in masks for comp in partition.components
               for row in conjugation_rows(Q, comp.members(), by=generators(Q)))


def _candidate_normals(Q: FiniteGroup, partition: Partition, extra=None) -> list[Subgroup]:
    """Proper non-trivial normal candidates, deterministically ordered."""
    return _normal_candidates(Q, partition.component_masks,
                              frozenset(s.mask for s in extra or ()))


@memoized
def _normal_candidates(Q: FiniteGroup, comp_masks: frozenset[int],
                       extra_masks: frozenset[int]) -> list[Subgroup]:
    masks = set(extra_masks)
    for m in comp_masks:
        masks.add(m)
        masks.add(normal_closure_mask(Q, m))
    if Q.order <= NORMAL_ENUM_CAP:
        masks.update(s.mask for s in normal_subgroups(Q))
    full = (1 << Q.order) - 1
    out = [Subgroup(Q, m) for m in masks if 1 < m < full]
    out = [s for s in out if is_normal(Q, s)]
    return sorted(out, key=lambda s: (s.size, tuple(s.members())))


def is_nonsimple_partition(Q: FiniteGroup, partition: Partition,
                           extra_candidates=None) -> Subgroup | None:
    """A proper normal N with every component inside N or meeting it
    trivially, if one exists among the enumerated candidates."""
    for N in _candidate_normals(Q, partition, extra_candidates):
        ok = True
        for comp in partition.components:
            inter = comp.mask & N.mask
            if inter != 1 and comp.mask & ~N.mask:
                ok = False
                break
        if ok:
            return N
    return None


def is_elementary_partition(Q: FiniteGroup, partition: Partition,
                            extra_candidates=None) -> tuple[Subgroup, int] | None:
    """A normal K of prime index p with every cyclic subgroup outside K of
    order p and itself a component, if such a witness exists.

    Trivial partitions are not elementary; None is returned for them.
    """
    if partition.is_trivial():
        return None
    masks = partition.component_masks
    orders = np.asarray(Q.orders)
    candidates = _candidate_normals(Q, partition, extra_candidates)
    for p in primes_dividing(Q.order):
        target = Q.order // p
        for K in candidates:
            if K.size != target:
                continue
            outside = np.nonzero(~K.member_bool())[0]
            if not (orders[outside] == p).all():
                continue
            if all(cyclic_span_mask(Q, int(x)) in masks for x in outside):
                return K, p
    return None


def miller_check(Q: FiniteGroup, partition: Partition) -> bool:
    """All elements of order > p lie in a single component.

    Only defined for a non-trivial partition of a non-abelian p-group;
    raises NotApplicable otherwise. (This is a theorem, so False signals
    a computation bug rather than an interesting group.)
    """
    p = is_p_group(Q)
    if p is None or is_abelian(Q) or partition.is_trivial():
        raise NotApplicable("requires a non-abelian p-group with a non-trivial partition")
    big = np.nonzero(np.asarray(Q.orders) > p)[0]
    if big.size == 0:
        return True
    homes = set()
    for comp in partition.components:
        if any(comp.contains(int(x)) for x in big):
            homes.add(comp.mask)
    return len(homes) == 1


# ---------------------------------------------------------------------------
# Frobenius structure


def _distinct_conjugate_masks(Q: FiniteGroup, mask: int) -> tuple[list[int], np.ndarray]:
    """Distinct conjugates of a subgroup bitset, plus per-element sorted rows."""
    rows = np.sort(conjugation_rows(Q, indices_of(mask, Q.order)), axis=1)
    distinct = np.unique(rows, axis=0)
    return [mask_of(row) for row in distinct], rows


def _validate_frobenius(Q: FiniteGroup, K: Subgroup, H: Subgroup) -> bool:
    full = (1 << Q.order) - 1
    if H.mask & K.mask != 1 or H.size * K.size != Q.order:
        return False
    conj_masks, rows = _distinct_conjugate_masks(Q, H.mask)
    h_row = np.sort(H.members())
    # g^-1 H g = H exactly for g in H (trivial normalizer outside H)
    if int((rows == h_row[None, :]).all(axis=1).sum()) != H.size:
        return False
    union = 0
    for m in conj_masks:
        if m != H.mask and m & H.mask != 1:
            return False
        union |= m & ~1
    return union == full & ~K.mask


def find_frobenius_structure(Q: FiniteGroup,
                             kernels=None) -> FrobeniusStructure | None:
    """Search for a Frobenius kernel/complement pair.

    Kernel candidates default to the enumerated proper non-trivial normal
    subgroups (subject to the enumeration cap); pass `kernels` to test
    specific candidates instead. A candidate kernel K must satisfy
    gcd(|K|, |Q:K|) = 1 and contain the centralizer of each of its
    non-trivial elements. The complement is searched among subgroups
    generated by at most two elements of order dividing |Q:K| outside K
    and validated definitionally, so false positives are impossible.
    """
    n = Q.order
    if n <= 1:
        return None
    if kernels is None:
        try:
            pool = normal_subgroups(Q)
        except OrderLimitExceeded:
            return None
        kernels = [s for s in pool if 1 < s.size < n]
    ct = centralizer_table(Q)
    for K in sorted(kernels, key=lambda s: (s.size, tuple(s.members()))):
        if not (1 < K.size < n) or n % K.size:
            continue
        m = n // K.size
        if math.gcd(K.size, m) != 1:
            continue
        if not is_normal(Q, K):
            continue
        if any(ct.masks[ct.elem_class[x]] & ~K.mask
               for x in indices_of(K.mask & ~1, n)):
            continue
        H = _find_complement(Q, K, m)
        if H is not None:
            return FrobeniusStructure(group=Q, kernel=K, complement=H)
    return None


def _find_complement(Q: FiniteGroup, K: Subgroup, m: int) -> Subgroup | None:
    orders = np.asarray(Q.orders)
    outside = ~K.member_bool()
    pool = np.nonzero(outside & (orders > 1) & (m % orders == 0))[0]
    seen: set[int] = set()
    for x in pool:
        span = cyclic_span_mask(Q, int(x))
        if span in seen:
            continue
        seen.add(span)
        if span.bit_count() == m and span & K.mask == 1:
            H = Subgroup(Q, span)
            if _validate_frobenius(Q, K, H):
                return H
    head = [int(x) for x in pool[:PAIR_SEARCH_POOL]]
    tried: set[int] = set()
    for i, x in enumerate(head):
        for y in head[i + 1:]:
            mask = generated_mask(Q, [x, y])
            if mask in tried:
                continue
            tried.add(mask)
            if mask.bit_count() == m and mask & K.mask == 1:
                H = Subgroup(Q, mask)
                if _validate_frobenius(Q, K, H):
                    return H
    return None


def is_frobenius_partition(Q: FiniteGroup, partition: Partition) -> bool:
    """The partition is a Frobenius kernel plus all complement conjugates."""
    normal_comps = [c for c in partition.components
                    if 1 < c.size < Q.order and is_normal(Q, c)]
    if not normal_comps:
        return False
    fs = find_frobenius_structure(Q, kernels=normal_comps)
    if fs is None:
        return False
    conj_masks, _ = _distinct_conjugate_masks(Q, fs.complement.mask)
    expected = set(conj_masks) | {fs.kernel.mask}
    return expected == set(partition.component_masks)
