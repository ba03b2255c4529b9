"""The fast kernels against their definitional oracles: the associativity
check, the generating set, p-cores, the commutator subgroup, the centralizer
table and center, normal closures, conjugation (classes, normalizers,
distinct conjugates) and semidirect-product tables, on every catalog group of
order <= 48 and on the order-1029 flagship; the blocked whole-table passes
also under forced small blocks. The Frobenius-partition test and the normal
candidates above the enumeration cap against the definition, on catalog
groups of order <= 64."""

import nacent.partitions
from nacent import (
    build,
    builtin_catalog,
    centralizer_partition,
    commutator_subgroup,
    cyclic,
    dicyclic,
    direct_product,
    from_cayley_table,
    is_abelian,
    is_frobenius_partition,
    normal_subgroups,
    p_core,
    semidirect_product,
)
from nacent.partitions import (
    Partition,
    _distinct_conjugate_masks,
    _normal_candidates,
    _sorted_components,
    normal_closure_mask,
)
from nacent.predicates import primes_dividing
from nacent.subgroups import (
    Subgroup,
    center_mask,
    centralizer_table,
    conjugacy_classes,
    conjugate_mask,
    conjugation_rows,
    cyclic_span_mask,
    indices_of,
    normalizer_mask,
)
from oracles import (
    naive_center,
    naive_centralizer,
    naive_closure,
    naive_commutator_subgroup,
    naive_conjugacy_classes,
    naive_conjugate,
    naive_inverses,
    naive_is_abelian_subset,
    naive_is_associative,
    naive_is_frobenius_partition,
    naive_normal_closure,
    naive_normalizer,
    naive_p_core,
    naive_semidirect_table,
    table_of,
)

SMALL = [s.name for s in builtin_catalog(48)]


def groups(flagship):
    for spec in SMALL:
        yield spec, build(spec)
    yield "heisenberg_frobenius(7,3)", flagship


def members(H):
    return frozenset(int(v) for v in H.members())


def test_accepted_tables_are_associative(flagship):
    for spec, G in groups(flagship):
        table = table_of(G)
        assert naive_is_associative(table) is None, spec
        assert from_cayley_table(table).order == G.order, spec


def test_p_core_matches_oracle(flagship):
    for spec, G in groups(flagship):
        table = table_of(G)
        for p in primes_dividing(G.order):
            assert members(p_core(G, p)) == naive_p_core(table, p), (spec, p)


def test_commutator_subgroup_matches_oracle(flagship):
    for spec, G in groups(flagship):
        want = naive_commutator_subgroup(table_of(G))
        assert members(commutator_subgroup(G)) == want, spec


def test_generators_are_irredundant(flagship):
    for spec, G in groups(flagship):
        table = table_of(G)
        gens = G.generators
        assert len(naive_closure(table, gens)) == G.order, spec
        for x in gens:
            rest = [g for g in gens if g != x]
            assert len(naive_closure(table, rest)) < G.order, (spec, x)
    # the greedy pass finds (1, 3, 21, 147), of which 3 is redundant
    assert len(flagship.generators) == 3


def check_centralizer_table(spec, G):
    table = table_of(G)
    ct = centralizer_table(G)
    for mask, x, abelian in zip(ct.masks, ct.witnesses, ct.abelian):
        mem = frozenset(int(v) for v in indices_of(mask, G.order))
        assert mem == naive_centralizer(table, x), (spec, x)
        assert abelian == naive_is_abelian_subset(table, mem), (spec, x)
    center = frozenset(int(v) for v in indices_of(center_mask(G), G.order))
    assert center == naive_center(table), spec


def test_centralizer_table_and_center_match_oracle(flagship):
    for spec, G in groups(flagship):
        check_centralizer_table(spec, G)


def test_normal_closure_matches_oracle(flagship):
    for spec, G in groups(flagship):
        table = table_of(G)
        ct = centralizer_table(G)
        limit = None if G.order <= 48 else 6
        masks = list(ct.masks[:limit])
        masks += [1 << cls[0] for cls in conjugacy_classes(G)[:limit]]
        # a conjugate touches the same classes, so it is answered from the memo
        masks += [conjugate_mask(G, m, G.generators[-1]) for m in masks if G.generators]
        for m in masks:
            mem = [int(v) for v in indices_of(m, G.order)]
            got = frozenset(int(v) for v in indices_of(normal_closure_mask(G, m), G.order))
            assert got == naive_normal_closure(table, mem), (spec, mem[:4])


def test_conjugation_matches_oracle(flagship):
    for spec, G in groups(flagship):
        table = table_of(G)
        inv = naive_inverses(table)
        n = G.order
        assert [frozenset(c) for c in conjugacy_classes(G)] == naive_conjugacy_classes(table), spec
        rows = conjugation_rows(G, [n - 1, 0, 1 % n], by=G.generators)
        assert rows.tolist() == [[table[table[inv[g]][h]][g] for h in (n - 1, 0, 1 % n)]
                                 for g in G.generators], spec
        # centralizers (normal and not) and the cyclic subgroups of the generators
        limit = None if n <= 48 else 6
        masks = list(centralizer_table(G).masks[:limit])
        masks += [cyclic_span_mask(G, g) for g in G.generators]
        for m in masks:
            mem = frozenset(int(v) for v in indices_of(m, n))
            got = frozenset(int(v) for v in indices_of(normalizer_mask(G, m), n))
            assert got == naive_normalizer(table, mem), (spec, sorted(mem)[:4])
            conj, _ = _distinct_conjugate_masks(G, m)
            want = {naive_conjugate(table, inv, mem, g) for g in range(n)}
            assert {frozenset(int(v) for v in indices_of(c, n)) for c in conj} == want, spec


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def heisenberg_triples(p):
    return [(i // (p * p), i // p % p, i % p) for i in range(p ** 3)]


def heisenberg_table(p):
    """(x, y, z)(x', y', z') = (x + x', y + y', z + z' + x y') on (x p + y) p + z."""
    triples = heisenberg_triples(p)
    return [[((x1 + x2) % p * p + (y1 + y2) % p) * p + (z1 + z2 + x1 * y2) % p
             for x2, y2, z2 in triples] for x1, y1, z1 in triples]


def semidirect_cases():
    """(spec, table of K, table of H, action) for three semidirect products."""
    # 2 has order 3 mod 7; the flagship's C3 acts by (x, y, z) -> (2x, 2y, 4z)
    scale = [(2 * x % 7 * 7 + 2 * y % 7) * 7 + 4 * z % 7 for x, y, z in heisenberg_triples(7)]
    return [
        ("agl1(5)", cyclic_table(5), cyclic_table(4), {1: [k * 2 % 5 for k in range(5)]}),
        ("semidirect_cyclic(9,3)", cyclic_table(9), cyclic_table(3),
         {1: [k * 4 % 9 for k in range(9)]}),
        ("heisenberg_frobenius(7,3)", heisenberg_table(7), cyclic_table(3), {1: scale}),
    ]


def test_semidirect_tables_match_oracle(flagship):
    for spec, k_table, h_table, action in semidirect_cases():
        G = flagship if spec == "heisenberg_frobenius(7,3)" else build(spec)
        assert table_of(G) == naive_semidirect_table(k_table, h_table, action), spec


def test_forced_blocks_accept_and_match_oracles(forced_blocks):
    # Light's test, the semidirect fill, the commuting tiles and the abelian
    # test each run over several blocks, the last one short
    for spec in SMALL + ["cyclic(600)", "heisenberg_frobenius(7,3)"]:
        table = table_of(build(spec))
        forced_blocks(len(table))
        G = build(spec)
        assert table_of(G) == table, spec
        assert from_cayley_table(table, max_order=2000).order == len(table), spec
        check_centralizer_table(spec, G)
    for spec, k_table, h_table, action in semidirect_cases():
        forced_blocks(len(k_table) * len(h_table), len(k_table))
        assert table_of(build(spec)) == naive_semidirect_table(k_table, h_table, action), spec


def f9_q8():
    """F9 x| Q8 with Q8 acting on F3^2 by a = [[0,2],[1,0]], b = [[1,1],[1,2]]:
    a Frobenius group of order 72 whose complement is not cyclic."""
    def perm(m):
        return [(m[0][0] * x + m[0][1] * y) % 3 * 3 + (m[1][0] * x + m[1][1] * y) % 3
                for x in range(3) for y in range(3)]
    # element 2 of dicyclic(2) is a, element 1 is b
    return semidirect_product(direct_product(cyclic(3), cyclic(3)), dicyclic(2),
                              {2: perm([[0, 2], [1, 0]]), 1: perm([[1, 1], [1, 2]])})


def exponent_3_spans():
    """heisenberg(3) partitioned into its 13 subgroups of order 3, all of one
    size: the largest component is no kernel."""
    G = build("heisenberg(3)")
    spans = {cyclic_span_mask(G, x) for x in range(1, G.order)}
    return Partition(quotient=G, components=_sorted_components(Subgroup(G, m) for m in spans))


def test_frobenius_partition_matches_oracle(flagship):
    parts = [(spec.name, centralizer_partition(G)) for spec in builtin_catalog(64)
             if not is_abelian(G := build(spec.name))]
    parts += [("heisenberg_frobenius(7,3)", centralizer_partition(flagship)),
              ("F9 x| Q8", centralizer_partition(f9_q8())),
              ("heisenberg(3) spans", exponent_3_spans())]
    verdicts = {}
    for spec, part in parts:
        if part is None:
            continue
        Q = part.quotient
        want = naive_is_frobenius_partition(table_of(Q), [members(c) for c in part.components])
        assert is_frobenius_partition(Q, part) == want, spec
        verdicts[spec] = want
    assert verdicts["heisenberg_frobenius(7,3)"] and verdicts["F9 x| Q8"]
    assert not verdicts["heisenberg(3) spans"]
    assert sum(verdicts.values()) >= 20 and len(verdicts) - sum(verdicts.values()) >= 20


def test_normal_candidates_above_the_enumeration_cap(monkeypatch):
    # every catalog quotient is then above the cap: the candidates are the
    # proper non-trivial normal closures of the components
    monkeypatch.setattr(nacent.partitions, "NORMAL_ENUM_CAP", 3)
    checked = 0
    for spec in builtin_catalog(64):
        G = build(spec.name)
        if is_abelian(G) or (part := centralizer_partition(G)) is None:
            continue
        Q = part.quotient
        Q._cache.clear()  # no candidates memoized under the real cap
        table = table_of(Q)
        candidates = _normal_candidates(Q, part.component_masks)
        assert list(candidates) == sorted(candidates, key=lambda N: (N.size, tuple(N.members())))
        got = {members(N) for N in candidates}
        closures = {naive_normal_closure(table, members(c)) for c in part.components}
        assert got == {c for c in closures if 1 < len(c) < Q.order}, spec.name
        assert got <= {members(N) for N in normal_subgroups(Q)}, spec.name
        checked += bool(got)
    assert checked >= 10
