"""Centralizers, generated subgroups, normality, quotients."""

import numpy as np
import pytest

from nacent import (
    NotNormal,
    ParentMismatch,
    Subgroup,
    center,
    commutator_subgroup,
    is_abelian,
    is_normal,
    quotient,
    trivial_subgroup,
    whole_subgroup,
)
from nacent.subgroups import (
    QuotientMap,
    _validate_quotient,
    centralizer_table,
    conjugates,
    generated_mask,
    mask_of,
)
from oracles import (
    naive_center,
    naive_centralizer,
    naive_closure,
    naive_conjugate,
    naive_inverses,
    naive_normal_subgroups,
    naive_normalizer,
    subgroup_as_group,
    table_of,
)


def generated_subgroup(G, seeds):
    return Subgroup(G, generated_mask(G, seeds))


def centralizer(G, x):
    """C(x) as the package reads it: the mask of x's centralizer class."""
    ct = centralizer_table(G)
    return Subgroup(G, ct.masks[ct.elem_class[x]])


def transpositions(G):
    return [x for x in range(G.order) if G.orders[x] == 2]


def three_cycles(G):
    return [x for x in range(G.order) if G.orders[x] == 3]


def test_centralizer_identity_is_whole(s3):
    assert centralizer(s3, 0).is_whole()


def test_centralizer_abelian_whole(z6):
    for x in range(6):
        assert centralizer(z6, x).is_whole()


def test_centralizer_transposition(s3):
    t = transpositions(s3)[0]
    c = centralizer(s3, t)
    assert c.size == 2
    assert c.contains(t) and c.contains(0)


def test_centralizer_matches_naive(s4):
    table = table_of(s4)
    for x in range(s4.order):
        assert set(centralizer(s4, x).members().tolist()) == naive_centralizer(table, x)


def test_center_s3(s3):
    assert center(s3).size == 1


def test_center_q8(q8):
    assert center(q8).size == 2


def test_center_z6(z6):
    assert center(z6).is_whole()


def test_center_is_intersection_of_centralizers(s4):
    inter = whole_subgroup(s4).mask
    for x in range(s4.order):
        inter &= centralizer(s4, x).mask
    assert inter == center(s4).mask
    assert set(center(s4).members().tolist()) == naive_center(table_of(s4))


def test_center_in_every_centralizer(s4):
    z = center(s4)
    for x in range(s4.order):
        c = centralizer(s4, x)
        assert z.mask & ~c.mask == 0
        assert c.contains(x)
        assert (c.is_whole()) == z.contains(x)


def test_generated_empty(s3):
    assert generated_subgroup(s3, []).size == 1
    assert generated_subgroup(s3, [0]).size == 1


def test_generated_whole_s3(s3):
    seed = [three_cycles(s3)[0], transpositions(s3)[0]]
    assert generated_subgroup(s3, seed).is_whole()


def test_generated_matches_naive(s4):
    table = table_of(s4)
    rng = np.random.default_rng(7)
    for _ in range(10):
        seed = rng.integers(0, 24, 2).tolist()
        got = set(generated_subgroup(s4, seed).members().tolist())
        assert got == naive_closure(table, seed)


def test_is_normal_basics(s3):
    assert is_normal(s3, trivial_subgroup(s3))
    assert is_normal(s3, whole_subgroup(s3))
    a3 = generated_subgroup(s3, [three_cycles(s3)[0]])
    assert a3.size == 3 and is_normal(s3, a3)
    t2 = generated_subgroup(s3, [transpositions(s3)[0]])
    assert t2.size == 2 and not is_normal(s3, t2)


def test_is_normal_exhaustive_agrees(s4):
    # conjugating by the generators against the definition: H is normal iff
    # every element normalizes it
    table = table_of(s4)
    for members in naive_normal_subgroups(table):
        assert is_normal(s4, Subgroup(s4, mask_of(members)))
    t2 = generated_subgroup(s4, [transpositions(s4)[0]])
    assert len(naive_normalizer(table, t2.members().tolist())) < s4.order
    assert not is_normal(s4, t2)


def test_generators_generate(s4, q8, flagship):
    for G in (s4, q8, flagship):
        gens = G.generators
        assert generated_mask(G, gens) == (1 << G.order) - 1
        assert len(gens) <= max(1, G.order.bit_length())


def test_commutator_abelian(z6):
    assert commutator_subgroup(z6).is_trivial()


def test_commutator_s3(s3):
    d = commutator_subgroup(s3)
    assert d.size == 3
    assert sorted(s3.orders[d.members()].tolist()) == [1, 3, 3]


def test_commutator_q8_is_center(q8):
    assert commutator_subgroup(q8).mask == center(q8).mask


def test_commutator_normal_and_abelianizes(s4):
    d = commutator_subgroup(s4)
    assert len(naive_normalizer(table_of(s4), d.members().tolist())) == s4.order
    qm = quotient(s4, d)
    assert is_abelian(qm.quotient)


def test_conjugate_by_identity(s3):
    h = generated_subgroup(s3, [transpositions(s3)[0]])
    assert conjugates(s3, h.mask)[0] == h.mask


def test_conjugate_normal_fixed(s3):
    a3 = generated_subgroup(s3, [three_cycles(s3)[0]])
    assert conjugates(s3, a3.mask) == (a3.mask,)


def test_conjugate_moves_transposition_span(s3):
    h = generated_subgroup(s3, [transpositions(s3)[0]])
    moved = conjugates(s3, h.mask)
    assert len(moved) == 3 and all(m.bit_count() == 2 for m in moved)
    table = table_of(s3)
    inv = naive_inverses(table)
    expect = {naive_conjugate(table, inv, h.members().tolist(), g) for g in range(6)}
    assert {frozenset(Subgroup(s3, m).members().tolist()) for m in moved} == expect


def test_quotient_by_trivial(s3):
    qm = quotient(s3, trivial_subgroup(s3))
    assert qm.quotient is s3
    assert qm.projection.tolist() == list(range(6))
    assert not qm.projection.flags.writeable


def test_quotient_by_whole(s3):
    qm = quotient(s3, whole_subgroup(s3))
    assert qm.quotient.order == 1


def test_quotient_q8_by_center(q8):
    qm = quotient(q8, center(q8))
    assert qm.quotient.order == 4
    assert sorted(qm.quotient.orders.tolist()) == [1, 2, 2, 2]


def test_quotient_rejects_non_normal(s3):
    h = generated_subgroup(s3, [transpositions(s3)[0]])
    with pytest.raises(NotNormal):
        quotient(s3, h)


def test_quotient_homomorphism(s4):
    d = commutator_subgroup(s4)
    qm = quotient(s4, d)
    t, proj, qt = s4.table, qm.projection, qm.quotient.table
    assert np.array_equal(proj[t], qt[proj[:, None], proj[None, :]])


def test_validate_quotient_rejects_tampered_projection(s4):
    # the Klein four-group S4'' = A4', read back from A4 = S4' as a group
    a4, into_s4 = subgroup_as_group(commutator_subgroup(s4))
    v4 = Subgroup(s4, mask_of(into_s4[commutator_subgroup(a4).members()]))
    assert v4.size == 4
    qm = quotient(s4, v4)
    proj = qm.projection.copy()
    x = next(g for g in range(s4.order) if proj[g] != 0)
    proj[x] = next(c for c in range(1, qm.quotient.order) if c != proj[x])
    with pytest.raises(NotNormal, match="not a homomorphism"):
        _validate_quotient(QuotientMap(s4, v4, qm.quotient, proj))


def test_intersection_examples(s3):
    ts = transpositions(s3)
    h1 = generated_subgroup(s3, [ts[0]])
    h2 = generated_subgroup(s3, [ts[1]])
    assert h1.mask & trivial_subgroup(s3).mask == 1
    assert h1.mask & h2.mask == 1


def test_parent_mismatch(s3, q8):
    assert trivial_subgroup(s3) <= whole_subgroup(s3)
    with pytest.raises(ParentMismatch):
        whole_subgroup(s3) <= whole_subgroup(q8)


def test_subgroup_as_group(q8):
    c = centralizer(q8, [x for x in range(8) if q8.orders[x] == 4][0])
    sub, embed = subgroup_as_group(c)
    assert sub.order == c.size == 4
    assert embed.tolist() == sorted(c.members().tolist())
    from nacent import is_cyclic
    assert is_cyclic(sub)
