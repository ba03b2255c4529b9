"""Group construction, validation and element-order basics."""

import tracemalloc

import numpy as np
import pytest

import nacent.corpus
from nacent import (
    FiniteGroup,
    InvalidPermutation,
    NotAGroup,
    OrderLimitExceeded,
    build,
    builtin_catalog,
    center,
    centralizer_table,
    element_orders,
    exponent,
    from_cayley_table,
    from_permutations,
    is_abelian,
    is_cyclic,
    quotient,
)
from oracles import (
    centralizer,
    naive_is_associative,
    naive_orders,
    naive_permutation_table,
    subgroup_as_group,
    table_of,
)


def test_trivial_group():
    G = from_cayley_table([[0]])
    assert G.order == 1
    assert element_orders(G).tolist() == [1]
    assert exponent(G) == 1


def test_z2_table():
    G = from_cayley_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.inverses.tolist() == [0, 1]


def test_identity_relocation(s4, forced_blocks):
    # Z3 written with the identity at position 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    G = from_cayley_table(table)
    assert G.table[0].tolist() == [0, 1, 2]
    assert sorted(element_orders(G).tolist()) == [1, 3, 3]
    # S4 with its identity at each position e, element k labelled old[k]:
    # relocation moves e to 0 and keeps the order of the rest, so it gives
    # back S4's own table, in one row block and in several
    n = s4.order
    for forced in (False, True):
        if forced:
            forced_blocks(n)
        for e in range(n):
            old = np.array([e] + [i for i in range(n) if i != e])
            relabeled = np.empty((n, n), dtype=np.int64)
            relabeled[np.ix_(old, old)] = old[s4.table]
            assert np.array_equal(from_cayley_table(relabeled).table, s4.table), (forced, e)


def test_s3_table_orders(s3):
    G = from_cayley_table(table_of(s3))
    assert sorted(element_orders(G).tolist()) == [1, 2, 2, 2, 3, 3]


def test_rejects_non_square():
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table([[0, 1]])
    assert exc.value.law == "shape"


def test_rejects_out_of_range_entry():
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table([[0, 1], [1, 9]])
    assert exc.value.law == "entry-range"


def test_rejects_broken_latin_square():
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    assert exc.value.law in ("latin-square", "identity", "associativity")


def test_latin_square_witness():
    t = build("cyclic(5)").table.astype(np.int64)  # wide enough for 2**31 - 1
    t[3, 1], t[3, 2] = t[3, 2], t[3, 1]          # rows stay permutations
    with pytest.raises(NotAGroup) as exc:
        FiniteGroup(t)
    assert (exc.value.law, exc.value.witness) == ("latin-square", (1,))
    assert "column 1" in str(exc.value)
    for bad in (1, -1, 5, 2**31 - 1):
        t2 = t.copy()
        t2[2, 3] = bad                            # row 2 (= 2 3 4 0 1) breaks first
        with pytest.raises(NotAGroup) as exc:
            FiniteGroup(t2)
        assert (exc.value.law, exc.value.witness) == ("latin-square", (2,)), bad
        assert "row 2" in str(exc.value)


def test_out_of_range_entries_are_not_narrowed_away():
    # the table is narrowed to int16 only after its range is checked: an
    # entry off by 2**16 would otherwise wrap back to the right value
    good = build("cyclic(5)").table
    for dtype in (np.int32, np.int64):
        for bad in (int(good[2, 3]) + 65536, -1, 2**31 - 1):
            t = good.astype(dtype)
            t[2, 3] = bad
            with pytest.raises(NotAGroup) as exc:
                FiniteGroup(t)
            assert (exc.value.law, exc.value.witness) == ("latin-square", (2,)), (dtype, bad)
    wide = from_cayley_table(good.astype(np.int64))
    assert wide.table.dtype == np.int16 and np.array_equal(wide.table, good)


@pytest.mark.parametrize("bad", [0.5, 0.9, float("nan"), float("inf"), -float("inf"), 1e30])
def test_non_integral_entries_are_rejected(bad):
    table = [[0.0, 1.0], [1.0, bad]]
    for make in (lambda t: FiniteGroup(np.array(t)), from_cayley_table):
        with pytest.raises(NotAGroup) as exc:
            make(table)
        assert (exc.value.law, exc.value.witness) == ("entry-range", (1, 1))


def test_entries_without_an_integer_value_are_rejected():
    for table in ([[0, 1], [1, None]], [["0", "1"], ["1", "x"]]):
        with pytest.raises(NotAGroup) as exc:
            from_cayley_table(table)
        assert exc.value.law == "entry-range"


def test_integral_float_tables_are_accepted():
    table = [[0.0, 1.0], [1.0, 0.0]]
    for G in (FiniteGroup(np.array(table)), from_cayley_table(table)):
        assert G.order == 2 and G.table.dtype == np.int16
        assert G.table.tolist() == [[0, 1], [1, 0]]


def test_tables_stored_in_int16(flagship):
    groups = [build(spec.name) for spec in builtin_catalog(48)] + [flagship]
    groups.append(quotient(flagship, center(flagship)).quotient)
    groups.append(subgroup_as_group(centralizer(flagship, 1))[0])
    for G in groups:
        assert G.table.dtype == np.int16, G.name
        assert G.inverses.dtype == np.int16, G.name


def test_monoid_without_inverses_names_latin_square():
    # associative with identity 0, but 1 has no inverse: row 1 breaks first
    with pytest.raises(NotAGroup) as exc:
        FiniteGroup(np.array([[0, 1], [1, 1]]))
    assert (exc.value.law, exc.value.witness) == ("latin-square", (1,))
    assert "row 1" in str(exc.value)


# a loop of order 5: latin square with two-sided identity, not associative
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_rejects_broken_associativity():
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table(NONASSOC_LOOP)
    assert exc.value.law in ("associativity", "inverse")
    assert "fails" in str(exc.value)


def loop_times_cyclic(loop, m):
    """Direct product of a loop with Z_m on indices a*m + b; identity stays 0."""
    n = len(loop)
    return [[loop[a1][a2] * m + (b1 + b2) % m for a2 in range(n) for b2 in range(m)]
            for a1 in range(n) for b1 in range(m)]


@pytest.mark.parametrize("m", [1, 7, 103, 120])
def test_associativity_exact_past_old_sample_limit(m, forced_blocks):
    # orders 5 to 600: the check is exact at every order, not sampled, in one
    # row block and then over several with a short last one
    table = loop_times_cyclic(NONASSOC_LOOP, m)
    for forced in (False, True):
        if forced:
            forced_blocks(len(table))
        with pytest.raises(NotAGroup) as exc:
            from_cayley_table(table, max_order=1000)
        assert exc.value.law == "associativity", forced
        i, j, k = exc.value.witness
        assert table[table[i][j]][k] != table[i][table[j][k]], forced
    assert naive_is_associative(table) is not None


def test_associativity_checks_the_short_last_block(forced_blocks):
    # Z_30 x Z_2 on a*2 + b with the Z_2 subsquare at rows {58, 59}, columns
    # {4, 5} swapped: Light's test over the generators (1, 2) fails only for
    # x in 56..59, which with blocks of 7 rows is the short last block
    z30 = [[(a + b) % 30 for b in range(30)] for a in range(30)]
    table = loop_times_cyclic(z30, 2)
    for r in (58, 59):
        table[r][4], table[r][5] = table[r][5], table[r][4]
    forced_blocks(len(table))
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table(table)
    assert exc.value.law == "associativity"
    i, j, k = exc.value.witness
    assert i >= 56 and table[table[i][j]][k] != table[i][table[j][k]]


def test_validation_peak_memory(flagship):
    # the whole-table checks allocate at most 2.5 tables beyond the table
    table = flagship.table.copy()
    tracemalloc.start()
    try:
        FiniteGroup(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * table.nbytes, peak / table.nbytes


@pytest.mark.parametrize("spec", ["heisenberg(13)", "heisenberg_frobenius(7,3)"])
def test_centralizer_table_peak_memory(spec):
    # heisenberg(13) (n^2 above BLOCK_CELLS) runs the class walk, the
    # representatives' comparison and the blocked scatter of conjugated
    # centralizers, the flagship the whole commuting relation in one block:
    # both allocate at most three quarters of a table
    G = build(spec)
    tracemalloc.start()
    try:
        centralizer_table(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * G.table.nbytes, peak / G.table.nbytes


def test_relabel_peak_memory(flagship, forced_blocks):
    # an int64 table with the identity at index 1: narrowed once its range
    # is checked, then relabeled in the narrow type, so the peak stays
    # within 4 stored tables; relabeling restores the flagship's labels
    swap = np.arange(flagship.order)
    swap[[0, 1]] = [1, 0]
    wide = swap[flagship.table.astype(np.int64)][np.ix_(swap, swap)]
    tracemalloc.start()
    try:
        G = from_cayley_table(wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * flagship.table.nbytes, peak / flagship.table.nbytes
    assert np.array_equal(G.table, flagship.table)
    forced_blocks(flagship.order)
    assert np.array_equal(from_cayley_table(wide).table, flagship.table)


def test_associativity_exact_on_one_intercalate():
    # Z_600 with one 2x2 subsquare {1, 301} x {2, 302} swapped: still a loop,
    # and only triples through those four cells fail
    table = table_of(build("cyclic(600)"))
    for a in (1, 301):
        table[a][2], table[a][302] = table[a][302], table[a][2]
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table(table, max_order=1000)
    assert exc.value.law == "associativity"
    i, j, k = exc.value.witness
    assert table[table[i][j]][k] != table[i][table[j][k]]


def test_rejects_no_identity():
    # a latin square none of whose elements is a two-sided identity
    with pytest.raises(NotAGroup) as exc:
        from_cayley_table([[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    assert exc.value.law == "identity"


def test_from_permutations_empty():
    G = from_permutations([])
    assert G.order == 1


def test_from_permutations_swap():
    G = from_permutations([(1, 0)])
    assert G.order == 2


def test_from_permutations_s3():
    G = from_permutations([(1, 0, 2), (1, 2, 0)])
    assert G.order == 6
    from nacent import center
    assert center(G).size == 1


def test_from_permutations_rejects_non_bijection():
    with pytest.raises(InvalidPermutation):
        from_permutations([(0, 0, 1)])


def test_from_permutations_rejects_non_integral_entries():
    # 1.7 would truncate to 1 and close to S3; an integral float still passes
    with pytest.raises(InvalidPermutation, match="1.7"):
        from_permutations([[1.7, 0, 2], [0, 2, 1]])
    assert from_permutations([[1.0, 0, 2.0], [0, 2, 1]]).order == 6


def test_from_permutations_order_limit():
    with pytest.raises(OrderLimitExceeded):
        from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], max_order=10)


def test_redundant_generator_same_table():
    a, b = (1, 0, 2), (1, 2, 0)
    G1 = from_permutations([a, b])
    ab = tuple(a[b[i]] for i in range(3))
    G2 = from_permutations([a, b, ab])
    assert np.array_equal(G1.table, G2.table)


@pytest.mark.parametrize("spec", ["symmetric(3)", "symmetric(4)", "symmetric(5)",
                                  "symmetric(6)", "alternating(4)", "alternating(5)",
                                  "alternating(6)", "sl23"])
def test_permutation_fill_matches_composed_products(spec, monkeypatch):
    # the constructor's own generators, caught on their way in
    gens = []

    def catch(generators, **kwargs):
        gens.append(generators)
        return from_permutations(generators, **kwargs)

    monkeypatch.setattr(nacent.corpus, "from_permutations", catch)
    G = build(spec)
    assert table_of(G) == naive_permutation_table(gens[0])


def test_element_order_matches_naive(s4):
    assert element_orders(s4).tolist() == naive_orders(table_of(s4))


def test_element_order_identity(s3):
    assert element_orders(s3)[0] == 1


def test_element_order_of_inverse(s4):
    for x in range(s4.order):
        assert element_orders(s4)[x] == element_orders(s4)[s4.inverses[x]]


def test_element_order_z4():
    G = build("cyclic(4)")
    assert element_orders(G)[1] == 4


def test_exponent_divides_order():
    for spec in ["cyclic(12)", "symmetric(4)", "dicyclic(3)", "heisenberg(3)"]:
        G = build(spec)
        assert G.order % exponent(G) == 0


def test_exponent_vs_cyclic():
    # cyclic groups realize their order as the exponent; for abelian groups
    # the converse holds too. (Not in general: symmetric(3) has exponent 6.)
    for spec in ["cyclic(6)", "cyclic(8)", "dicyclic(2)",
                 "direct_product(cyclic(2),cyclic(2))",
                 "direct_product(cyclic(2),cyclic(3))",
                 "direct_product(cyclic(4),cyclic(2))"]:
        G = build(spec)
        if is_cyclic(G):
            assert exponent(G) == G.order
        if is_abelian(G):
            assert (exponent(G) == G.order) == is_cyclic(G)
    s3 = build("symmetric(3)")
    assert exponent(s3) == 6 and not is_cyclic(s3)


def test_exponent_q8(q8):
    assert exponent(q8) == 4


def test_table_immutable(s3):
    with pytest.raises(ValueError):
        s3.table[0, 0] = 1
