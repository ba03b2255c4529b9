"""Partition predicates, the Frobenius-partition test among them."""

from functools import cache

import pytest

from nacent import (
    AbelianGroup,
    build,
    builtin_catalog,
    center,
    centralizer_partition,
    commutator_subgroup,
    element_orders,
    is_abelian,
    is_elementary_partition,
    is_frobenius_partition,
    is_nonsimple_partition,
    is_normal_partition,
    is_partition,
    quotient,
)
from nacent.partitions import Partition, center_quotient
from nacent.subgroups import Subgroup, generated_mask, whole_subgroup
from oracles import (
    centralizer,
    naive_class_join_normals,
    table_of,
)
from test_fast_paths import witness_sizes


def spans_of_order(G, k):
    seen = set()
    out = []
    for x in range(G.order):
        if element_orders(G)[x] == k:
            s = Subgroup(G, generated_mask(G, [x]))
            if s.mask not in seen:
                seen.add(s.mask)
                out.append(s)
    return out


@cache
def center_quotient_normals(name):
    """The normal subgroups of G/Z, by `naive_class_join_normals`."""
    return naive_class_join_normals(table_of(center_quotient(build(name)).quotient))


def test_witnesses_of_every_center_quotient_match_oracle():
    # the non-simple and elementary witnesses of every centralizer
    # partition of a group of order <= 200 against the definitions
    got = []
    for spec in builtin_catalog(200):
        G = build(spec.name)
        if is_abelian(G) or (part := centralizer_partition(G)) is None:
            continue
        got.append(witness_sizes(part, center_quotient_normals(spec.name)))
    nonsimple = sum(w is not None for w, _ in got)
    elementary = sum(e is not None for _, e in got)
    assert (len(got), nonsimple, elementary) == (179, 178, 173)


def test_is_partition_trivial_single_component(s3):
    assert is_partition(s3, [whole_subgroup(s3)])


def test_is_partition_v4_lines():
    v4 = build("direct_product(cyclic(2),cyclic(2))")
    lines = spans_of_order(v4, 2)
    assert len(lines) == 3
    assert is_partition(v4, lines)
    # heisenberg(3) has exponent 3, so its spans, all of prime order, meet
    # trivially and partition it
    h3 = build("heisenberg(3)")
    spans = spans_of_order(h3, 3)
    assert len(spans) == 13
    assert is_partition(h3, spans)
    # D4: the rotations and the two reflection spans outside them
    d4 = build("dihedral(4)")
    rot = Subgroup(d4, generated_mask(d4, [1]))
    assert rot.size == 4
    comps = [rot] + [s for s in spans_of_order(d4, 2) if s.mask & ~rot.mask & ~1]
    assert is_partition(d4, comps)


def test_is_partition_rejects_overlap(s3):
    a3 = spans_of_order(s3, 3)[0]
    assert not is_partition(s3, [a3, whole_subgroup(s3)])


def test_is_partition_rejects_gap(s3):
    assert not is_partition(s3, spans_of_order(s3, 2))


def test_centralizer_partition_s3(s3):
    part = centralizer_partition(s3)
    assert part is not None
    assert sorted(c.size for c in part.components) == [2, 2, 2, 3]


def test_centralizer_partition_q8(q8):
    part = centralizer_partition(q8)
    assert part is not None
    assert part.quotient.order == 4
    assert sorted(c.size for c in part.components) == [2, 2, 2]


def test_centralizer_partition_s4_fails(s4):
    # the corpus witness where maximal centralizer images overlap: the
    # three size-8 images of S4 share the double transpositions
    assert centralizer_partition(s4) is None


def test_centralizer_partition_d4_z2_succeeds():
    # empirically this one does partition (three size-2 images of V4),
    # so the failing witness above really is S4
    G = build("direct_product(cyclic(2),dihedral(4))")
    part = centralizer_partition(G)
    assert part is not None
    assert sorted(c.size for c in part.components) == [2, 2, 2]


def test_centralizer_partition_abelian_raises(z6):
    with pytest.raises(AbelianGroup):
        centralizer_partition(z6)


def test_centralizer_partition_flagship(flagship):
    part = centralizer_partition(flagship)
    assert part is not None
    sizes = sorted(c.size for c in part.components)
    assert sizes == [3] * 343 + [343]


def test_normal_partition_s3(s3):
    part = centralizer_partition(s3)
    assert is_normal_partition(part)


def test_normal_partition_trivial(s3):
    triv = Partition(quotient=s3, components=(whole_subgroup(s3),))
    assert is_normal_partition(triv)


def test_normal_partition_fails_on_incomplete_conjugates(s3):
    # one transposition span plus the rotation subgroup: not a partition at
    # all, but conjugation also moves the 2-element component away
    a3 = spans_of_order(s3, 3)[0]
    t = spans_of_order(s3, 2)[0]
    broken = Partition(quotient=s3, components=(a3, t))
    assert not is_normal_partition(broken)


def test_nonsimple_s3(s3):
    part = centralizer_partition(s3)
    witness = is_nonsimple_partition(part)
    assert witness is not None and witness.size == 3


def test_nonsimple_trivial_partition_none(s3):
    triv = Partition(quotient=s3, components=(whole_subgroup(s3),))
    assert is_nonsimple_partition(triv) is None


def test_nonsimple_v4_lines():
    v4 = build("direct_product(cyclic(2),cyclic(2))")
    part = Partition(quotient=v4, components=tuple(spans_of_order(v4, 2)))
    witness = is_nonsimple_partition(part)
    assert witness is not None and witness.size == 2


def test_elementary_s3(s3):
    part = centralizer_partition(s3)
    out = is_elementary_partition(part)
    assert out is not None
    K, p = out
    assert K.size == 3 and p == 2


def test_elementary_trivial_none(s3):
    triv = Partition(quotient=s3, components=(whole_subgroup(s3),))
    assert is_elementary_partition(triv) is None


def test_elementary_q8_quotient(q8):
    part = centralizer_partition(q8)
    out = is_elementary_partition(part)
    assert out is not None
    K, p = out
    assert K.size == 2 and p == 2


def frobenius_kernel_and_complements(part):
    """Kernel and complement components of a partition that must pass the
    Frobenius-partition test."""
    assert is_frobenius_partition(part)
    *complements, kernel = sorted(part.components, key=lambda c: c.size)
    return kernel, complements


def test_frobenius_s3(s3):
    kernel, complements = frobenius_kernel_and_complements(centralizer_partition(s3))
    assert kernel.size == 3 and {c.size for c in complements} == {2}
    assert len(complements) == 3


def test_frobenius_a4_from_sl23_quotient():
    # A4 = SL(2,3)/Z: its normal Klein four-group and its cyclic subgroups of
    # order 3 (the centralizer images of SL(2,3) cut the four-group apart)
    sl = build("sl23")
    a4 = quotient(sl, center(sl)).quotient
    v4 = [commutator_subgroup(a4)]  # A4' is the Klein four-group
    part = Partition(quotient=a4, components=tuple(v4 + spans_of_order(a4, 3)))
    kernel, complements = frobenius_kernel_and_complements(part)
    assert kernel.size == 4 and {c.size for c in complements} == {3}
    assert len(complements) == 4


def test_frobenius_agl1():
    kernel, complements = frobenius_kernel_and_complements(centralizer_partition(build("agl1(7)")))
    assert kernel.size == 7 and {c.size for c in complements} == {6}
    assert len(complements) == 7


def test_frobenius_partition_s3(s3):
    part = centralizer_partition(s3)
    assert is_frobenius_partition(part)


def test_frobenius_partition_v4_false(q8):
    part = centralizer_partition(q8)
    assert not is_frobenius_partition(part)


def test_frobenius_partition_trivial_false(s3):
    triv = Partition(quotient=s3, components=(whole_subgroup(s3),))
    assert not is_frobenius_partition(triv)


def test_frobenius_implies_normal_nonsimple(s3, flagship):
    for G in (s3, flagship):
        part = centralizer_partition(G)
        if part is None or not is_frobenius_partition(part):
            continue
        assert is_normal_partition(part)
        assert is_nonsimple_partition(part) is not None


def test_partition_dichotomy_corpus():
    """Normal non-simple non-Frobenius partitions must be elementary with an
    index-p witness."""
    from nacent import builtin_catalog, is_abelian
    checked = 0
    for spec in builtin_catalog(64):
        G = build(spec.name)
        if is_abelian(G):
            continue
        part = centralizer_partition(G)
        if part is None:
            continue
        Q = part.quotient
        if part.is_trivial() or not is_normal_partition(part):
            continue
        if is_frobenius_partition(part):
            continue
        if is_nonsimple_partition(part) is None:
            continue
        out = is_elementary_partition(part)
        assert out is not None, spec.name
        K, p = out
        assert Q.order == p * K.size, spec.name
        checked += 1
    assert checked >= 3  # Q8, D4 x Z2, dihedral(8) quotients at least


def test_elementary_for_exponent_gt_p_quotients():
    """p-group quotients of exponent > p with a normal non-trivial
    centralizer partition have elementary partitions."""
    from nacent import exponent, is_p_group, builtin_catalog, is_abelian
    hits = 0
    for spec in builtin_catalog(64):
        G = build(spec.name)
        if is_abelian(G):
            continue
        part = centralizer_partition(G)
        if part is None or part.is_trivial():
            continue
        Q = part.quotient
        p = is_p_group(Q)
        if p is None or exponent(Q) <= p or not is_normal_partition(part):
            continue
        assert is_elementary_partition(part) is not None, spec.name
        hits += 1
    assert hits >= 1


def test_frobenius_definitional_properties(s3):
    # C(k) lies in the kernel for every non-trivial kernel element k
    for G in (s3, build("agl1(7)")):
        K, _ = frobenius_kernel_and_complements(centralizer_partition(G))
        for k in K.members():
            if k == 0:
                continue
            assert centralizer(G, int(k)).mask & ~K.mask == 0
