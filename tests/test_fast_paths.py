"""The fast kernels against their definitional oracles: the associativity
check, the generating set, element orders, generated subgroups, p-cores, the
commutator subgroup, the centralizer table and center, normal closures,
conjugation (classes, normalizers, distinct conjugates) and
semidirect-product tables, on every catalog group of order <= 48 and on the
order-1029 flagship; the class walk and the centralizer table also on two
case-A groups and on the center quotients of those catalog groups; the
blocked whole-table passes also under forced small blocks. The nilpotency test, the orbits of partition components, the
normal-partition and Frobenius-partition tests and the normal candidates
above the enumeration cap against the definition, on catalog groups of
order <= 64."""

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
    hughes_subgroup,
    is_abelian,
    is_frobenius_partition,
    is_nilpotent,
    is_normal_partition,
    is_partition,
    p_core,
    semidirect_product,
)
from nacent.classify import _candidates
from nacent.errors import NotNilpotent
from nacent.partitions import (
    Partition,
    _centralizer_images,
    _component_orbits,
    _normal_candidates,
    _sorted_components,
    center_quotient,
    normal_closure_mask,
)
from nacent.predicates import (
    decompose_p_times_abelian,
    is_ca_group,
    primes_dividing,
    sylow_subgroup,
)
from nacent.subgroups import (
    Subgroup,
    _class_walk,
    center_mask,
    centralizer_table,
    conjugacy_classes,
    conjugates,
    conjugation_rows,
    cyclic_span_mask,
    generated_mask,
    indices_of,
    is_normal,
    mask_of,
    normalizer_mask,
    subgroup_centralizers,
)
from oracles import (
    naive_center,
    naive_centralizer,
    naive_closure,
    naive_commutator_subgroup,
    naive_conjugacy_classes,
    naive_conjugate,
    naive_generators,
    naive_inverses,
    naive_is_abelian_subset,
    naive_is_associative,
    naive_is_frobenius_partition,
    naive_is_nilpotent,
    naive_normal_closure,
    naive_normalizer,
    naive_orders,
    naive_p_core,
    naive_semidirect_table,
    retabled_subgroup_facts,
    table_of,
)
from test_acceptance import case_a_group_p2, case_a_group_p3

SMALL = [s.name for s in builtin_catalog(48)]


def groups(flagship):
    for spec in SMALL:
        yield spec, build(spec)
    yield "heisenberg_frobenius(7,3)", flagship


def class_groups(flagship):
    """`groups`, then the case-A groups of orders 128 and 243 (non-trivial
    centers, many classes of central cosets) and each center quotient of a
    group in SMALL that is not the group itself."""
    yield from groups(flagship)
    yield "case A, order 128", case_a_group_p2()
    yield "case A, order 243", case_a_group_p3()
    for spec in SMALL:
        Q = center_quotient(G := build(spec)).quotient
        if Q is not G:
            yield f"{spec}/Z", Q


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


# long cyclic stretches (orders 2^7, 2*3*5*7 and 2^3*3*5^2) and a long
# dihedral rotation, for the closures and powers that climb the square ladder
LADDER = ["cyclic(128)", "cyclic(210)", "cyclic(600)", "dihedral(99)"]


def test_element_orders_match_oracle(flagship):
    for spec, G in [*groups(flagship), *((spec, build(spec)) for spec in LADDER)]:
        assert G.orders.tolist() == naive_orders(table_of(G)), spec


def test_generators_match_oracle(flagship):
    for spec, G in [*groups(flagship), *((spec, build(spec)) for spec in LADDER)]:
        assert G.generators == naive_generators(table_of(G)), spec


def test_generated_subgroups_match_oracle():
    # the subgroup generated by each conjugacy class, and by the union of
    # each two of those
    for spec in SMALL:
        G = build(spec)
        table = table_of(G)
        atoms = set()
        for cls in conjugacy_classes(G):
            got = frozenset(int(v) for v in indices_of(generated_mask(G, cls), G.order))
            assert got == naive_closure(table, cls), (spec, cls)
            atoms.add(got)
        for seeds in {a | b for a in atoms for b in atoms}:
            got = frozenset(int(v) for v in indices_of(generated_mask(G, seeds), G.order))
            assert got == naive_closure(table, seeds), (spec, sorted(seeds))


def check_centralizer_table(spec, G):
    table = table_of(G)
    ct = centralizer_table(G)
    for mask, x, abelian in zip(ct.masks, ct.witnesses, ct.abelian):
        mem = frozenset(int(v) for v in indices_of(mask, G.order))
        assert mem == naive_centralizer(table, x), (spec, x)
        assert abelian == naive_is_abelian_subset(table, mem), (spec, x)
    # every element's class, numbered by first witness
    first = {}
    for x in range(G.order):
        c = int(ct.elem_class[x])
        first.setdefault(c, x)
        assert ct.masks[c] == mask_of(naive_centralizer(table, x)), (spec, x)
    assert ct.witnesses == tuple(first.values()) == tuple(sorted(first.values())), spec
    center = frozenset(int(v) for v in indices_of(center_mask(G), G.order))
    assert center == naive_center(table), spec


def test_centralizer_table_and_center_match_oracle(flagship):
    # each of these tables fits in one block: the whole commuting relation
    for spec, G in class_groups(flagship):
        check_centralizer_table(spec, G)


def test_centralizer_table_from_class_representatives_matches_oracle(flagship, forced_blocks):
    # forced small blocks send the same tables through the class
    # representatives and the scatter of conjugated centralizers
    for spec, G in class_groups(flagship):
        forced_blocks(G.order)
        G._cache.clear()
        check_centralizer_table(spec, G)


def test_class_walk_matches_oracle(flagship):
    # the classes in order of least member, each ascending, and for every y
    # the walk's representative, the least member of its class, and an
    # element g with g^-1 rep[y] g = y
    for spec, G in class_groups(flagship):
        table = table_of(G)
        inv = naive_inverses(table)
        classes = conjugacy_classes(G)
        assert [frozenset(c) for c in classes] == naive_conjugacy_classes(table), spec
        assert all(list(c) == sorted(c) for c in classes), spec
        least = {y: c[0] for c in classes for y in c}
        rep, conj = _class_walk(G)
        for y in range(G.order):
            g = int(conj[y])
            assert rep[y] == least[y], (spec, y)
            assert table[table[inv[g]][rep[y]]][g] == y, (spec, y)


def test_normal_closure_matches_oracle(flagship):
    for spec, G in groups(flagship):
        table = table_of(G)
        ct = centralizer_table(G)
        limit = None if G.order <= 48 else 6
        masks = list(ct.masks[:limit])
        masks += [1 << cls[0] for cls in conjugacy_classes(G)[:limit]]
        # and a conjugate of each, whose normal closure is the same
        masks += [conjugates(G, m)[-1] for m in masks]
        for m in masks:
            mem = [int(v) for v in indices_of(m, G.order)]
            got = frozenset(int(v) for v in indices_of(normal_closure_mask(G, m), G.order))
            assert got == naive_normal_closure(table, mem), (spec, mem[:4])


def test_conjugation_matches_oracle(flagship):
    for spec, G in groups(flagship):
        table = table_of(G)
        inv = naive_inverses(table)
        n = G.order
        rows = conjugation_rows(G, [n - 1, 0, 1 % n], by=G.generators)
        assert rows.tolist() == [[table[table[inv[g]][h]][g] for h in (n - 1, 0, 1 % n)]
                                 for g in G.generators], spec
        # centralizers (normal and not) and the cyclic subgroups of the generators
        limit = None if n <= 48 else 6
        ct = centralizer_table(G)
        masks = list(ct.masks[:limit])
        masks += [cyclic_span_mask(G, g) for g in G.generators]
        # normalizers also of every Sylow subgroup of the flagship, and of C(a)
        more = [] if G is not flagship else (
            [m for p in primes_dividing(n) for m in conjugates(G, sylow_subgroup(G, p).mask)]
            + [ct.masks[ct.elem_class[a]] for a in _candidates(ct)])
        for m in masks + more:
            mem = frozenset(int(v) for v in indices_of(m, n))
            got = frozenset(int(v) for v in indices_of(normalizer_mask(G, m), n))
            assert got == naive_normalizer(table, mem, inv), (spec, sorted(mem)[:4])
        for m in masks:
            mem = frozenset(int(v) for v in indices_of(m, n))
            conj = conjugates(G, m)
            assert conj[0] == m and len(set(conj)) == len(conj), spec
            want = {naive_conjugate(table, inv, mem, g) for g in range(n)}
            assert {frozenset(int(v) for v in indices_of(c, n)) for c in conj} == want, spec


def test_subgroup_facts_match_retabled(flagship):
    """C(a)'s own facts read from G's centralizer table (its distinct
    centralizers and abelian flags, abelian, CA, the P x A split) against
    the same facts of C(a) tabled on its own, for every candidate a of the
    catalog up to order 200, of the flagship and of a case-A group."""
    case_a = case_a_group_p2()  # |Z| = 4, |C(a)| = 64
    groups = [build(spec.name) for spec in builtin_catalog(200)] + [flagship, case_a]
    checked = 0
    for G in groups:
        ct = centralizer_table(G)
        for a in _candidates(ct):
            Ca = Subgroup(G, ct.masks[ct.elem_class[a]])
            want = retabled_subgroup_facts(Ca)
            assert dict(subgroup_centralizers(G, Ca.mask)) == want["centralizers"], (G.name, a)
            assert is_abelian(Ca) == want["abelian"], (G.name, a)
            assert is_ca_group(Ca) == want["ca"], (G.name, a)
            try:
                split = decompose_p_times_abelian(Ca)
            except NotNilpotent:
                split = NotNilpotent
            else:
                if split is not None:
                    split = split[0].mask, split[1].mask, split[2]
            assert split == want["split"], (G.name, a)
            checked += 1
    assert checked == 51 + 1 + 1  # the catalog's, the flagship's, the case-A group's
    # in the case-A group some x in C(a) has C(x) outside C(a), so that
    # C_H(x) = C(x) & C(a) differs from C(x)
    ct = centralizer_table(case_a)
    (a,) = _candidates(ct)
    Ca = ct.masks[ct.elem_class[a]]
    assert (center_mask(case_a).bit_count(), Ca.bit_count()) == (4, 64)
    assert any(ct.masks[c] & ~Ca for c in ct.elem_class[indices_of(Ca, case_a.order)])


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
    # Light's test, the semidirect fill, the representatives' comparison, the
    # centralizer scatter and the abelian test each run over several blocks
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


def s4_stabilizer_and_spans():
    """symmetric(4) partitioned into a point stabilizer S3 and the maximal
    cyclic subgroups outside it: not normal, since the conjugates of the
    S3 are no components."""
    G = build("symmetric(4)")
    pairs = ((a, b) for a in range(G.order) for b in range(G.order)
             if G.orders[a] == 2 and G.orders[b] == 3)
    stab = next(m for pair in pairs if (m := generated_mask(G, pair)).bit_count() == 6)
    spans = {cyclic_span_mask(G, x) for x in range(G.order) if not stab >> x & 1}
    comps = {stab} | {m for m in spans if not any(m != k and m & ~k == 0 for k in spans)}
    return Partition(quotient=G, components=_sorted_components(Subgroup(G, m) for m in comps))


def catalog_partitions(flagship):
    """(spec, partition) for every catalog partition of order <= 64, the
    flagship's, that of F9 x| Q8, the exponent-3 spans of heisenberg(3) and
    the non-normal partition of symmetric(4)."""
    parts = [(spec.name, centralizer_partition(G)) for spec in builtin_catalog(64)
             if not is_abelian(G := build(spec.name))]
    parts += [("heisenberg_frobenius(7,3)", centralizer_partition(flagship)),
              ("F9 x| Q8", centralizer_partition(f9_q8())),
              ("heisenberg(3) spans", exponent_3_spans()),
              ("symmetric(4) mixed", s4_stabilizer_and_spans())]
    return [(spec, part) for spec, part in parts if part is not None]


def test_is_nilpotent_matches_oracle():
    # every whole group, proper centralizer and Hughes subgroup
    checked = 0
    for spec in builtin_catalog(64):
        G = build(spec.name)
        table = table_of(G)
        hughes = [hughes_subgroup(G, p).mask for p in primes_dividing(G.order)]
        for m in [*centralizer_table(G).masks, *hughes]:  # the first is C(1) = G
            H = Subgroup(G, m)
            assert is_nilpotent(H) == naive_is_nilpotent(table, members(H)), (spec.name, H.size)
            checked += 1
        assert is_nilpotent(G) == naive_is_nilpotent(table), spec.name
    assert checked == 1250


def test_component_orbits_match_oracle(flagship):
    verdicts = {}
    for spec, part in catalog_partitions(flagship):
        Q = part.quotient
        assert is_partition(Q, part.components), spec
        table = table_of(Q)
        inv = naive_inverses(table)
        masks = part.component_masks
        orbits = _component_orbits(Q, masks)
        reached = [m for orbit in orbits for m in orbit]
        assert len(reached) == len(set(reached)), spec  # disjoint
        assert masks <= set(reached), spec
        for orbit in orbits:
            assert orbit[0] in masks, spec
            mem = members(Subgroup(Q, orbit[0]))
            want = {naive_conjugate(table, inv, mem, g) for g in range(Q.order)}
            assert {members(Subgroup(Q, m)) for m in orbit} == want, spec
        comps = [members(c) for c in part.components]
        want = all(naive_conjugate(table, inv, c, g) in comps
                   for c in comps for g in range(Q.order))
        assert is_normal_partition(Q, part) == want, spec
        verdicts[spec] = want
    # conjugation permutes the centralizers, so only the S4 partition is not normal
    assert [spec for spec, normal in verdicts.items() if not normal] == ["symmetric(4) mixed"]


def test_frobenius_partition_matches_oracle(flagship):
    verdicts = {}
    for spec, part in catalog_partitions(flagship):
        Q = part.quotient
        want = naive_is_frobenius_partition(table_of(Q), [members(c) for c in part.components])
        assert is_frobenius_partition(Q, part) == want, spec
        verdicts[spec] = want
    assert verdicts["heisenberg_frobenius(7,3)"] and verdicts["F9 x| Q8"]
    assert not verdicts["heisenberg(3) spans"]
    assert sum(verdicts.values()) >= 20 and len(verdicts) - sum(verdicts.values()) >= 20


def test_centralizer_images_match_image_mask():
    # the images read at the least member of each center coset, against the
    # projection of every member; the case-A groups have |Z| = 4 and 3
    checked = 0
    cases = [(s.name, build(s.name)) for s in builtin_catalog(64)]
    cases += [("case A, order 128", case_a_group_p2()), ("case A, order 243", case_a_group_p3())]
    for spec, G in cases:
        if is_abelian(G):
            continue
        qm = center_quotient(G)
        whole = (1 << G.order) - 1
        want = {qm.image_mask(Subgroup(G, m)) for m in centralizer_table(G).masks if m != whole}
        got = _centralizer_images(G, qm)
        assert len(got) == len(want) and set(got) == want, spec
        checked += qm.quotient is not G
    assert checked >= 50


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
        # normal_subgroups refuses Q under this cap; the exhaustive scan
        # checks each candidate against every element instead
        assert all(is_normal(Q, N, exhaustive=True) for N in candidates), spec.name
        checked += bool(got)
    assert checked >= 10
