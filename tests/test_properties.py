"""Property-based invariants over randomly generated small groups."""

import numpy as np
from hypothesis import given, settings, strategies as st

from nacent import (
    Subgroup,
    build,
    center,
    exponent,
    from_permutations,
    is_normal,
)
from nacent.partitions import _sorted_components
from nacent.subgroups import conjugates, generated_mask
from oracles import centralizer


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
        assert n % G.orders[x] == 0


@settings(max_examples=40, deadline=None)
@given(small_perm_groups)
def test_order_of_inverse(G):
    for x in range(G.order):
        assert G.orders[x] == G.orders[G.inverses[x]]


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
    assert is_normal(G, center(G), exhaustive=True)


@settings(max_examples=20, deadline=None)
@given(small_perm_groups, st.data())
def test_intersection_is_subgroup(G, data):
    x = data.draw(st.integers(0, G.order - 1))
    y = data.draw(st.integers(0, G.order - 1))
    inter = Subgroup(G, centralizer(G, x).mask & centralizer(G, y).mask)
    assert G.order % inter.size == 0
    mem = inter.members()
    assert inter.member_bool()[G.table[np.ix_(mem, mem)]].all()


def masks_of_width(n):
    """Bitsets over n elements, some of them all of one size, so that the
    order among equal sizes is exercised."""
    half = st.sets(st.integers(0, n - 1), min_size=n // 2, max_size=n // 2)
    return st.lists(st.integers(1, 2**n - 1) | half.map(lambda s: sum(1 << i for i in s) | 1),
                    max_size=12)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 70).flatmap(lambda n: st.tuples(st.just(n), masks_of_width(n))))
def test_component_order_is_size_then_members(case):
    # widths that are not a multiple of 8 leave padding bits in the last byte
    n, masks = case
    G = build(f"cyclic({n})")
    comps = [Subgroup(G, m) for m in masks]
    want = sorted(comps, key=lambda c: (c.size, tuple(c.members())))
    assert list(_sorted_components(comps)) == want
