"""Property-based invariants over randomly generated small groups,
partition verdicts under shuffled components, the generating set of any
small table with an identity, and the outcome of parsing any string made of
spec fragments."""

import ast
import re
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
from nacent.corpus import parse_spec_string
from nacent.errors import ParseError
from nacent.groups import _loop_generators
from nacent.partitions import Partition
from nacent.subgroups import conjugates, generated_mask
from oracles import centralizer, naive_generators, naive_normalizer, table_of
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


@st.composite
def tables_with_identity(draw):
    """An n x n table, 2 <= n <= 11, whose row and column 0 are the identity
    and whose other entries are arbitrary: a magma with identity, most often
    not a group."""
    n = draw(st.integers(2, 11))
    rest = draw(st.lists(st.integers(0, n - 1), min_size=(n - 1)**2, max_size=(n - 1)**2))
    table = np.empty((n, n), dtype=np.int16)
    table[0] = table[:, 0] = np.arange(n)
    table[1:, 1:] = np.reshape(rest, (n - 1, n - 1))
    return table


@settings(max_examples=300, deadline=None)
@given(tables_with_identity())
def test_generators_match_oracle_on_any_table(table):
    """The generating set reaches by right multiplication alone, as the
    oracle does, whatever the other entries of the table."""
    assert _loop_generators(table) == naive_generators(table.tolist())


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


# names known and unknown, argument lists, ASCII digits and digits int()
# reads or refuses, whitespace, and a run past int()'s limit on digits
SPEC_FRAGMENTS = ("cyclic", "direct_product", "sl23", "heisenberg_frobenius", "wat", "x", "(",
                  ")", ",", " ", "\t", "\u3000", "cyclic(", "direct_product(", "),", "0", "7",
                  "13", "\u00b2", "\u0663", "9" * 5000)
# whole specs, nested, for the fragments to extend or cut
NESTED_SPECS = st.recursive(
    st.sampled_from(["sl23", "cyclic(7)", " dihedral( 04 ) ", "heisenberg_frobenius(13,3)"]),
    lambda inner: st.tuples(inner, inner).map("direct_product({0[0]},{0[1]})".format),
    max_leaves=4)


def render(node) -> str:
    """A parsed spec in canonical spelling: no spaces, no empty parentheses."""
    name, args = node
    if not args:
        return name
    return f"{name}({','.join(str(a) if isinstance(a, int) else render(a) for a in args)})"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SPEC_FRAGMENTS) | NESTED_SPECS, max_size=8).map("".join))
def test_spec_parses_to_a_fixed_point_or_fails_short(spec):
    """A string either parses to a tree whose canonical spelling parses back
    to the same tree, or is a ParseError at a position within the stripped
    spec, quoting at most 40 characters of it and the two "..." marks."""
    try:
        tree = parse_spec_string(spec)
    except ParseError as exc:
        found = re.fullmatch(r".+ at position (\d+) in spec (.*)", str(exc), re.S)
        assert found, str(exc)[:200]
        assert int(found.group(1)) <= len(spec.strip())
        assert len(ast.literal_eval(found.group(2))) <= 46
    else:
        assert parse_spec_string(render(tree)) == tree
