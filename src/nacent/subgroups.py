"""Subgroup algebra over a fixed parent group.

Subgroups are bitsets (arbitrary-width Python ints) over the parent's
element indices, so equality, intersection and deduplication are plain
integer operations. All functions here are pure; derived structures that
are expensive to recompute (center, centralizer classes, class
representatives, the conjugates of a subgroup) are memoized on the parent
group; its generating set is found when its table is validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNormal, ParentMismatch
from .groups import (BLOCK_CELLS, FiniteGroup, _extend_closure, element_orders, memoized,
                     table_dtype)

# ---------------------------------------------------------------------------
# bitset helpers


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


def indices_of(mask: int, n: int) -> np.ndarray:
    """Ascending element indices present in the bitset."""
    return np.nonzero(bool_of(mask, n))[0]


def bool_of(mask: int, n: int) -> np.ndarray:
    """The bitset as a bool array: the unpacked bits are 0 or 1, so they are
    viewed as bool, not copied (and `np.nonzero` takes its fast bool path)."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].view(bool)


def mask_of_bool(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


@dataclass(frozen=True)
class Subgroup:
    """Membership bitset over a parent group's element indices."""

    parent: FiniteGroup
    mask: int

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> np.ndarray:
        return indices_of(self.mask, self.parent.order)

    def member_bool(self) -> np.ndarray:
        return bool_of(self.mask, self.parent.order)

    def contains(self, x: int) -> bool:
        return bool((self.mask >> int(x)) & 1)

    def is_whole(self) -> bool:
        return self.size == self.parent.order

    def is_trivial(self) -> bool:
        return self.mask == 1

    def __le__(self, other: "Subgroup") -> bool:
        _check_same_parent(self, other)
        return self.mask & ~other.mask == 0

    def __repr__(self) -> str:
        return f"Subgroup(size={self.size} of {self.parent.name!r})"


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, 1)


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (1 << G.order) - 1)


def _check_same_parent(H1: Subgroup, H2: Subgroup) -> None:
    if H1.parent is not H2.parent:
        raise ParentMismatch(
            f"subgroups of {H1.parent.name!r} and {H2.parent.name!r} cannot be combined")


# ---------------------------------------------------------------------------
# centralizers and center


@memoized
def center_mask(G: FiniteGroup) -> int:
    """Bitset of the center: the elements whose centralizer is G, read from
    `centralizer_table` (the class of the identity)."""
    return mask_of_bool(centralizer_table(G).elem_class == 0)


def center(G: FiniteGroup) -> Subgroup:
    """Elements commuting with everything."""
    return Subgroup(G, center_mask(G))


@dataclass(frozen=True)
class CentralizerTable:
    """Deduplicated element centralizers of one group.

    `elem_class[x]` is the class id of C(x); classes are numbered by first
    witness, so `witnesses` is ascending.
    """

    elem_class: np.ndarray
    masks: tuple[int, ...]
    witnesses: tuple[int, ...]
    abelian: tuple[bool, ...]


@memoized
def centralizer_table(G: FiniteGroup) -> CentralizerTable:
    """Every C(x), deduplicated in element order from packed rows.

    A table that fits in one block (n^2 <= BLOCK_CELLS) compares the whole
    commuting relation t == t.T at once, fewer numpy steps than the class
    walk's rounds, and every element is its own representative. A larger
    one reads the rows of its non-central elements off one representative
    per conjugacy class (`_conjugated_centralizers`), about k*n cells for k
    classes instead of n^2; a central element, alone in its class, has
    C(x) = G. Each block of rows is deduplicated as it arrives, so only the
    distinct rows are kept. Conjugate centralizers are isomorphic, so
    `_abelian_flags` tests only the centralizers of the identity and of the
    representatives, and every class takes the flag of its witness's
    representative.
    """
    t = G.table
    n = G.order
    if n * n <= BLOCK_CELLS:
        elems = rep = np.arange(n)
        blocks = [(elems, np.packbits(t == t.T, axis=1, bitorder="little"))]
    else:
        rep, conj = _class_walk(G)
        elems = np.flatnonzero(np.bincount(rep, minlength=n)[rep] > 1)  # the non-central ones
        blocks = _conjugated_centralizers(G, rep, conj, elems)
    nbytes = (n + 7) // 8
    class_of = {np.packbits(np.ones(n, dtype=bool), bitorder="little").tobytes(): 0}
    witnesses = [0]
    elem_class = np.zeros(n, dtype=np.int32)
    for ys, packed in blocks:
        cids = []
        for x, key in zip(ys.tolist(), packed.view(np.dtype((np.void, nbytes))).ravel().tolist()):
            cid = class_of.get(key)
            if cid is None:
                cid = class_of[key] = len(witnesses)
                witnesses.append(x)
            cids.append(cid)
        elem_class[ys] = cids
    rows = np.frombuffer(b"".join(class_of), dtype=np.uint8).reshape(len(witnesses), nbytes)
    tested = np.zeros(len(witnesses), dtype=bool)
    tested[0] = True
    tested[elem_class[elems[rep[elems] == elems]]] = True
    flags = np.zeros(len(witnesses), dtype=bool)
    flags[tested] = _abelian_flags(t, witnesses, rows, np.flatnonzero(tested))
    return CentralizerTable(
        elem_class=elem_class,
        masks=tuple(int.from_bytes(key, "little") for key in class_of),
        witnesses=tuple(witnesses),
        abelian=tuple(flags[elem_class[rep[witnesses]]].tolist()),
    )


def _conjugated_centralizers(G: FiniteGroup, rep: np.ndarray, conj: np.ndarray,
                             elems: np.ndarray):
    """Yield (ys, the packed rows of C(y) for y in ys) for consecutive
    blocks ys of the non-central elements `elems`, given the class walk's
    `rep` and `conj`.

    For the representatives x among them, C(x) is read off one comparison
    t[reps] == t[:, reps].T in blocks of rows. Any other y = g^-1 x g of
    x's class, g = conj[y], has C(y) = g^-1 C(x) g: the members of C(x)
    conjugated by g in one gather, k*n cells over all y for k classes,
    scattered into a block of bool rows and packed.
    """
    t = G.table
    n = G.order
    if not elems.size:
        return
    reps = elems[rep[elems] == elems]
    # Both passes run over blocks of rows. A row of the scatter takes n bool
    # cells and up to n/2 members, each held in about four intp index arrays
    # (32 bytes), so BLOCK_CELLS // (16 n) rows stay within BLOCK_CELLS bytes.
    block = max(1, BLOCK_CELLS // (16 * n))
    # the members of C(x) for the i-th x in reps are mem[starts[i]:starts[i] + counts[i]]
    counts = np.empty(reps.size, dtype=np.int64)
    parts = []
    for i in range(0, reps.size, block):
        x = reps[i:i + block]
        commutes = t[x] == t[:, x].T
        counts[i:i + x.size] = commutes.sum(axis=1)
        parts.append(np.nonzero(commutes)[1].astype(t.dtype))
    mem = np.concatenate(parts)
    starts = np.cumsum(counts) - counts
    rep_index = np.empty(n, dtype=np.int64)
    rep_index[reps] = np.arange(reps.size)
    inv = G.inverses
    flat = t.ravel()
    buf = np.empty((min(block, elems.size), n), dtype=bool)
    for i in range(0, elems.size, block):
        ys = elems[i:i + block]
        r = rep_index[rep[ys]]
        c = counts[r]
        first = np.cumsum(c) - c
        at = np.repeat(starts[r] - first, c) + np.arange(first[-1] + c[-1])
        # g^-1 m g = (g^-1 (g^-1 m)^-1)^-1 for g = conj[y]: both products read
        # row g^-1 of the table, not the scattered column g
        row = np.repeat(inv[conj[ys]].astype(np.int64) * n, c)
        bits = buf[:ys.size]
        bits[:] = False
        bits[np.repeat(np.arange(ys.size), c), inv[flat[row + inv[flat[row + mem[at]]]]]] = True
        yield ys, np.packbits(bits, axis=1, bitorder="little")


def _abelian_flags(t: np.ndarray, witnesses, rows: np.ndarray,
                   tested: np.ndarray) -> np.ndarray:
    """Whether each of the `tested` centralizers is abelian, from the packed
    rows and one witness of every centralizer. The centralizers are those of
    a subgroup H (H = G included) on its own members, one per distinct
    value, and the witnesses lie in H.

    C_H(x) is abelian iff it lies inside C_H(y) for each of its members y;
    members of one class share their centralizer, and y lies in C_H(x) iff
    the witness of y's class does, so the test runs over pairs of a tested
    class and a class whose witnesses commute, in blocks of packed rows.
    """
    wit = np.asarray(witnesses, dtype=np.int64)
    tw = wit[tested]
    # (c, e): the witness of class e lies in C(witness of tested class c)
    cs, es = np.nonzero(t[tw[:, None], wit] == t[wit[:, None], tw].T)
    abelian = np.ones(tested.size, dtype=bool)
    block = max(1, BLOCK_CELLS // (4 * rows.shape[1]))
    for start in range(0, cs.size, block):
        c, e = cs[start:start + block], es[start:start + block]
        beyond = np.invert(rows[e])
        beyond &= rows[tested[c]]
        abelian[c[beyond.any(axis=1)]] = False  # C(x_c) not inside C(x_e)
    return abelian


@memoized
def subgroup_centralizers(G: FiniteGroup, mask: int) -> tuple[tuple[int, bool], ...]:
    """The distinct centralizers C_H(x) = C(x) & H of the members x of the
    subgroup H with bitset `mask`, each with whether it is abelian, in
    ascending order of least witness; read from `centralizer_table(G)`
    without tabling H on its own.

    Members of one class of G share C(x), hence C_H(x), so each class
    meeting H is intersected with H once, and classes that agree on H
    merge. The abelian flags come from the same class-pair inclusion test
    as `centralizer_table`'s. The value is plain ints, so the memo holds no
    reference back to G.
    """
    ct = centralizer_table(G)
    if mask == (1 << G.order) - 1:
        return tuple(zip(ct.masks, ct.abelian))
    mem = indices_of(mask, G.order)
    _, first = np.unique(ct.elem_class[mem], return_index=True)
    witness_of: dict[int, int] = {}
    for x in mem[np.sort(first)].tolist():
        witness_of.setdefault(ct.masks[ct.elem_class[x]] & mask, x)
    masks = tuple(witness_of)
    nbytes = (G.order + 7) // 8
    rows = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks),
                         dtype=np.uint8).reshape(len(masks), nbytes)
    flags = _abelian_flags(G.table, list(witness_of.values()), rows, np.arange(len(masks)))
    return tuple(zip(masks, flags.tolist()))


# ---------------------------------------------------------------------------
# generation


def generated_mask(G: FiniteGroup, seeds) -> int:
    """Bitset of the smallest subgroup containing the seed elements: the
    closure of the identity under right multiplication by them (in a finite
    group powers supply inverses)."""
    member = np.zeros(G.order, dtype=bool)
    member[0] = True
    _extend_closure(G.table, member, (), list(seeds))
    return mask_of_bool(member)


# ---------------------------------------------------------------------------
# conjugation and normality


def conjugation_rows(G: FiniteGroup, elems, by=None) -> np.ndarray:
    """The len(by) x len(elems) array of g^-1 h g, for g in `by` (all of G
    when None) down the rows and h in `elems` across the columns."""
    t = G.table
    by = (np.arange(G.order) if by is None else np.asarray(by, dtype=np.int64))[:, None]
    return t[t[G.inverses[by], elems], by]


@memoized
def conjugates(G: FiniteGroup, mask: int) -> tuple[int, ...]:
    """The distinct conjugates g^-1 H g of a subgroup bitset, H first.

    g^-1 H g depends only on the right coset N(H) g, and distinct cosets
    give distinct conjugates (orbit-stabilizer), so the conjugates are those
    by the leaders of the right cosets of N(H), `coset_leaders`: one gather
    of |G:N(H)| |H| <= n cells. The identity leads N(H), so H comes first.
    The value is plain ints, so the memo holds no reference back to G.
    """
    normalizer = normalizer_mask(G, mask)
    if normalizer.bit_count() == G.order:
        return (mask,)
    leaders = np.flatnonzero(coset_leaders(G, normalizer) == np.arange(G.order))
    rows = conjugation_rows(G, indices_of(mask, G.order), by=leaders)
    return tuple(mask_of(row) for row in rows.tolist())


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    """True iff g^-1 H g = H for all g; decided once per subgroup of G."""
    return H.mask == 1 or H.is_whole() or _is_normal_mask(G, H.mask)


@memoized
def _is_normal_mask(G: FiniteGroup, mask: int) -> bool:
    """Whether the subgroup with bitset `mask` is normal in G.

    Checks the conjugates of H by the generators of G only, which suffices
    because the elements normalizing H form a subgroup. A conjugate has the
    size of H, so it equals H iff it lies inside H.
    """
    inside = bool_of(mask, G.order)
    rows = conjugation_rows(G, np.nonzero(inside)[0], by=G.generators)
    return bool(inside[rows].all())


def _normal_closure_mask(G: FiniteGroup, seeds, member=None, n_gens=None) -> int:
    """Bitset of the smallest normal subgroup containing the seed elements
    and `member`, a bool array of a normal subgroup generated by the list
    `n_gens` (the trivial group when None); both grow in place.

    Keeps a generating list for the closure N and adds each conjugate, by a
    generator of G, of a generator of N that N does not contain, until the
    newest generators have no such conjugate (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, ch. 3). N grows in place
    by the newest generators only.
    """
    g_gens = G.generators
    if member is None:
        member = np.zeros(G.order, dtype=bool)
        member[0] = True
        n_gens = []
    fresh = np.zeros(G.order, dtype=bool)  # the pending seeds, read in ascending order
    fresh[np.asarray(seeds, dtype=np.int64)] = True
    while fresh.any():
        added = _extend_closure(G.table, member, n_gens, np.flatnonzero(fresh))
        n_gens += added
        fresh[:] = False
        fresh[conjugation_rows(G, added, by=g_gens)] = True
        np.greater(fresh, member, out=fresh)  # outside N
    return mask_of_bool(member)


def normalizer_mask(G: FiniteGroup, mask: int) -> int:
    """Bitset of { g : g^-1 H g = H } for the subgroup H with bitset `mask`.

    g^-1 H g is generated by the conjugates of a generating set of H, which
    `_extend_closure` picks from H's members, and has the size of H, so it
    equals H iff those conjugates lie in H: one n x |gens(H)| gather.
    """
    inside = bool_of(mask, G.order)
    reached = np.zeros(G.order, dtype=bool)
    reached[0] = True
    gens = _extend_closure(G.table, reached, (), np.nonzero(inside)[0])
    return mask_of_bool(inside[conjugation_rows(G, gens)].all(axis=1))


@memoized
def _class_walk(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """For every element y, rep[y], the least member of its conjugacy class,
    and conj[y], an element g with g^-1 rep[y] g = y.

    Every element starts as its own representative. Each round, every y
    looks at w = c y c^-1 for each c on the square ladder of a generator (a
    long cycle of conjugations by one generator is then crossed in about
    log2 of its length rounds), and takes the least rep[w] below its own,
    with conj[y] = conj[w] c, since y = c^-1 w c. A round in which no
    representative falls ends the walk: each rep[y] is then no larger than
    that of any conjugate of y by a generator, so it is the same across the
    class and equals its least member. On an abelian
    group the first round ends it. The values are plain arrays, so the memo
    holds no reference back to G.
    """
    t = G.table
    every = np.arange(G.order)
    climb = int(element_orders(G).max()).bit_length()  # rungs x^(2^j) up to the largest order
    by = np.asarray(list(dict.fromkeys(G.ladder[:climb, G.generators].ravel().tolist())),
                    dtype=np.int64)
    pulled = conjugation_rows(G, every, by=G.inverses[by])  # pulled[i, y] = by[i] y by[i]^-1
    rep = every.astype(t.dtype)
    conj = np.zeros(G.order, dtype=t.dtype)
    while by.size:
        cand = rep[pulled]
        least = cand.min(axis=0)
        fell = np.flatnonzero(least < rep)
        if not fell.size:
            break
        i = cand[:, fell].argmin(axis=0)
        conj[fell] = t[conj[pulled[i, fell]], by[i]]
        rep[fell] = least[fell]
    return rep, conj


# ---------------------------------------------------------------------------
# commutators


def commutator_subgroup(G: FiniteGroup) -> Subgroup:
    """Subgroup generated by all commutators."""
    return Subgroup(G, _commutator_mask(G))


@memoized
def _commutator_mask(G: FiniteGroup) -> int:
    """Bitset of the commutator subgroup: the normal closure of the
    commutators [s, t] = s^-1 t^-1 s t of pairs of generators of G, read
    off one gather of the conjugates s^-1 t^-1 s."""
    gens = np.asarray(G.generators, dtype=np.int64)
    comms = G.table[conjugation_rows(G, G.inverses[gens], by=gens), gens]
    return _normal_closure_mask(G, comms.ravel())


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class QuotientMap:
    """A normal subgroup, the quotient group, and the projection map."""

    parent: FiniteGroup
    kernel: Subgroup
    quotient: FiniteGroup
    projection: np.ndarray  # parent index -> coset index

    def image_mask(self, H: Subgroup) -> int:
        if H.parent is not self.parent:
            raise ParentMismatch("subgroup does not live in the quotient's parent")
        if self.quotient is self.parent:  # trivial kernel: the identity map
            return H.mask
        image = np.zeros(self.quotient.order, dtype=bool)
        image[self.projection[H.member_bool()]] = True
        return mask_of_bool(image)

    def image(self, H: Subgroup) -> Subgroup:
        return Subgroup(self.quotient, self.image_mask(H))


def coset_leaders(G: FiniteGroup, mask: int) -> np.ndarray:
    """least[g], the least member of the right coset Hg of the subgroup H
    with bitset `mask`: the least z g over z in H, the column minima of H's
    rows, read in blocks of BLOCK_CELLS // (4 n) rows. g leads its coset iff
    least[g] == g. For a normal H, Hg = gH."""
    t = G.table
    n = G.order
    mem = indices_of(mask, n)
    least = np.arange(n, dtype=t.dtype)  # g = 1 g
    rows = max(1, BLOCK_CELLS // (4 * n))
    for start in range(0, mem.size, rows):
        np.minimum(least, t[mem[start:start + rows]].min(axis=0), out=least)
    return least


def quotient(G: FiniteGroup, N: Subgroup) -> QuotientMap:
    """Quotient of G by a normal subgroup, cosets labeled in ascending order
    of their least member, `coset_leaders`.

    A trivial kernel gives the identity map onto G itself; any other
    projection is checked by `_validate_quotient`. The projection is
    read-only.
    """
    if N.parent is not G:
        raise ParentMismatch("kernel is not a subgroup of the given group")
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of size {N.size} is not normal in {G.name!r}")
    n = G.order
    dt = table_dtype(n // N.size)
    if N.mask == 1:
        proj = np.arange(n, dtype=dt)
        proj.setflags(write=False)
        return QuotientMap(G, N, G, proj)
    least = coset_leaders(G, N.mask)
    reps = np.flatnonzero(least == np.arange(n))
    label = np.zeros(n, dtype=dt)
    label[reps] = np.arange(reps.size)
    proj = label[least]
    q = FiniteGroup(proj[G.table[np.ix_(reps, reps)]], name=f"{G.name}/{N.size}")
    qm = QuotientMap(G, N, q, proj)
    _validate_quotient(qm)
    proj.setflags(write=False)
    return qm


def _validate_quotient(qm: QuotientMap) -> None:
    """Check that the projection is a homomorphism onto the quotient with the
    given kernel, raising NotNormal otherwise.

    proj(x*s) = proj(x)*proj(s) is compared for every x and each generator s
    of the parent. By induction on the length of a word in the generators
    this gives proj(x*y) = proj(x)*proj(y) for all x, y, since the quotient
    table is itself a validated group.
    """
    t = qm.parent.table
    proj = qm.projection
    qt = qm.quotient.table
    n = qm.parent.order
    if qm.quotient.order * qm.kernel.size != n:
        raise NotNormal("quotient size does not multiply back to the parent order")
    gens = np.asarray(qm.parent.generators, dtype=np.int64)
    if not np.array_equal(proj[t[:, gens]], qt[proj[:, None], proj[gens]]):
        raise NotNormal("projection is not a homomorphism")
    if mask_of_bool(proj == 0) != qm.kernel.mask:
        raise NotNormal("projection kernel differs from the given subgroup")
