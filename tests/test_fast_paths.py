"""The generator-driven kernels against their definitional oracles: the
associativity check, p-cores and the commutator subgroup, on every catalog
group of order <= 48 and on the order-1029 flagship."""

from nacent import build, builtin_catalog, commutator_subgroup, from_cayley_table, p_core
from nacent.predicates import primes_dividing
from oracles import (
    naive_commutator_subgroup,
    naive_is_associative,
    naive_p_core,
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
