"""Property-based invariants over randomly generated small groups, and
partition verdicts under shuffled components."""

from functools import cache

import numpy as np
from hypothesis import given, settings, strategies as st

from nacent import (
    Subgroup,
    center,
    element_orders,
    exponent,
    from_permutations,
    is_elementary_partition,
    is_frobenius_partition,
    is_nonsimple_partition,
    is_normal_partition,
)
from nacent.partitions import Partition
from nacent.subgroups import conjugates, generated_mask
from oracles import centralizer, naive_normalizer, table_of
from test_fast_paths import catalog_partitions


def permutations_of(n):
    return st.permutations(range(n)).map(tuple)


small_perm_groups = st.builds(
    lambda gens: from_permutations(gens, max_order=200),
    st.lists(permutations_of(4), min_size=0, max_size=2),
)


@settings(max_examples=40, deadline=None)
@given(small_perm_groups)
def test_group_axioms_hold(G):
    n = G.order
    assert G.table[0].tolist() == list(range(n))
    assert np.array_equal(np.sort(G.table, axis=1),
                          np.tile(np.arange(n), (n, 1)))
    for x in range(n):
        assert G.table[x, G.inverses[x]] == 0
        assert n % element_orders(G)[x] == 0


@settings(max_examples=40, deadline=None)
@given(small_perm_groups)
def test_order_of_inverse(G):
    for x in range(G.order):
        assert element_orders(G)[x] == element_orders(G)[G.inverses[x]]


@settings(max_examples=40, deadline=None)
@given(small_perm_groups)
def test_exponent_divides_order(G):
    assert G.order % exponent(G) == 0


@settings(max_examples=30, deadline=None)
@given(small_perm_groups, st.data())
def test_centralizer_contains_center_and_self(G, data):
    x = data.draw(st.integers(0, G.order - 1))
    c = centralizer(G, x)
    assert c.contains(x)
    assert center(G).mask & ~c.mask == 0
    assert c.is_whole() == center(G).contains(x)


@settings(max_examples=30, deadline=None)
@given(small_perm_groups, st.data())
def test_conjugate_preserves_size(G, data):
    x = data.draw(st.integers(0, G.order - 1))
    h = Subgroup(G, generated_mask(G, [x]))
    assert all(m.bit_count() == h.size for m in conjugates(G, h.mask))


@settings(max_examples=30, deadline=None)
@given(small_perm_groups, st.data())
def test_generated_subgroup_lagrange(G, data):
    seeds = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    h = Subgroup(G, generated_mask(G, seeds))
    assert G.order % h.size == 0
    assert h.contains(0)
    # closed under multiplication
    mem = h.members()
    sub = G.table[np.ix_(mem, mem)]
    assert h.member_bool()[sub].all()
    assert h.member_bool()[G.inverses[mem]].all()


@settings(max_examples=30, deadline=None)
@given(small_perm_groups)
def test_center_is_normal(G):
    assert len(naive_normalizer(table_of(G), center(G).members().tolist())) == G.order


@settings(max_examples=20, deadline=None)
@given(small_perm_groups, st.data())
def test_intersection_is_subgroup(G, data):
    x = data.draw(st.integers(0, G.order - 1))
    y = data.draw(st.integers(0, G.order - 1))
    inter = Subgroup(G, centralizer(G, x).mask & centralizer(G, y).mask)
    assert G.order % inter.size == 0
    mem = inter.members()
    assert inter.member_bool()[G.table[np.ix_(mem, mem)]].all()


@cache
def partitions(flagship):
    return catalog_partitions(flagship)


def verdicts(part):
    witness = is_nonsimple_partition(part)
    elem = is_elementary_partition(part)
    return (is_normal_partition(part), witness and witness.mask,
            elem and (elem[0].mask, elem[1]), is_frobenius_partition(part))


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_partition_verdicts_ignore_component_order(flagship, rnd):
    # every catalog and hand-built partition, its components shuffled; in
    # most draws S3's kernel is not listed last
    for spec, part in partitions(flagship):
        comps = list(part.components)
        rnd.shuffle(comps)
        shuffled = Partition(quotient=part.quotient, components=tuple(comps))
        assert verdicts(shuffled) == verdicts(part), spec
