"""Property-based invariants over randomly generated small groups, powers
against repeated multiplication, partition verdicts under shuffled
components, the generating set of any small table with an identity, the
validation verdict on tables with an identity, loops and perturbed catalog
tables, and the outcome of parsing any string made of spec fragments."""

import ast
import re
from functools import cache

import numpy as np
from hypothesis import given, settings, strategies as st

from nacent import (
    FiniteGroup,
    NotAGroup,
    Subgroup,
    build,
    builtin_catalog,
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
from nacent.groups import _commute_pass, _loop_generators, _tree_pass
from nacent.partitions import Partition
from nacent.subgroups import conjugates, generated_mask
from oracles import (
    centralizer,
    naive_generators,
    naive_is_associative,
    naive_normalizer,
    table_of,
)
from test_fast_paths import LONG_CYCLES, SMALL, catalog_partitions


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


@st.composite
def loops(draw):
    """A Latin square of order 2 to 8 whose row and column 0 are the
    identity: a loop, most often not associative. Filled cell by cell in
    row order, each cell trying the symbols its row and column leave free
    in a drawn order, with backtracking."""
    n = draw(st.integers(2, 8))
    rnd = draw(st.randoms(use_true_random=False))
    table = np.zeros((n, n), dtype=np.int16)
    table[0] = table[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        free = sorted(set(range(n)) - set(table[i, :j].tolist()) - set(table[:i, j].tolist()))
        rnd.shuffle(free)
        for v in free:
            table[i, j] = v
            if fill(k + 1):
                return True
        return False

    assert fill(0)
    return table


@cache
def intercalates(spec):
    """The catalog table of `spec` and its 2 x 2 subsquares off row and
    column 0: rows a < b and columns c < d with a*c = b*d and a*d = b*c."""
    table = table_of(build(spec))
    n = len(table)
    where = [{v: j for j, v in enumerate(row)} for row in table]
    return table, [(a, b, c, d) for a in range(1, n) for b in range(a + 1, n)
                   for c in range(1, n) for d in [where[b][table[a][c]]]
                   if d > c and table[a][d] == table[b][c]]


@cache
def swappable():
    """The catalog specs of order at most 24 with an intercalate."""
    return [spec.name for spec in builtin_catalog(24) if intercalates(spec.name)[1]]


@st.composite
def swapped_catalog_tables(draw):
    """The table of a catalog group of order at most 24 with one intercalate
    swapped: a loop that is most often not associative."""
    table, squares = intercalates(draw(st.sampled_from(swappable())))
    a, b, c, d = draw(st.sampled_from(squares))
    out = np.array(table, dtype=np.int16)
    out[[a, a, b, b], [c, d, c, d]] = out[[a, a, b, b], [d, c, d, c]]
    return out


@settings(max_examples=300, deadline=None)
@given(tables_with_identity() | loops() | swapped_catalog_tables())
def test_validation_matches_oracle_on_any_table(table):
    """The tree and commute passes accept exactly the associative tables, and
    FiniteGroup exactly those that also hold a 0 in every row; a pass that
    fails, and a rejection under the associative law, name a triple that
    breaks it."""
    rows = table.tolist()
    associative = naive_is_associative(rows) is None
    parent = np.zeros(len(rows), dtype=np.intp)
    gens = _loop_generators(table, parent)
    seeds = (parent == 0).nonzero()[0][1:]
    triples = [_tree_pass(table, parent, seeds), _commute_pass(table, seeds, gens)]
    assert (triples == [None, None]) == associative
    for triple in triples:
        if triple is not None:
            i, j, k = triple
            assert rows[rows[i][j]][k] != rows[i][rows[j][k]]
    try:
        FiniteGroup(table)
        accepted = True
    except NotAGroup as exc:
        accepted = False
        if exc.law == "associativity":
            i, j, k = exc.witness
            assert rows[rows[i][j]][k] != rows[i][rows[j][k]]
    assert accepted == (associative and all(0 in row for row in rows))


cached_build = cache(build)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([*SMALL, *LONG_CYCLES, "heisenberg_frobenius(7,3)"]), st.data())
def test_power_matches_repeated_multiplication(flagship, spec, data):
    """a**k for k in [-3n, 3n], negative and past the order of a included,
    against |k| products of a, or of its inverse found in a's row."""
    G = flagship if spec == "heisenberg_frobenius(7,3)" else cached_build(spec)
    n = G.order
    a = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(-3 * n, 3 * n))
    b = a if k >= 0 else int(np.flatnonzero(G.table[a] == 0)[0])
    want = 0
    for _ in range(abs(k)):
        want = G.mul(want, b)
    assert G.power(a, k) == want, (spec, a, k)


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
