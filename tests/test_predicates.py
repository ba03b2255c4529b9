"""Structure predicates: abelian/cyclic/p-group, nilpotency, Fitting and
Hughes subgroups, CA test, and the P x A decomposition."""

import pytest

import nacent.predicates
from nacent import (
    NotNilpotent,
    build,
    decompose_p_times_abelian,
    fitting_subgroup,
    hughes_subgroup,
    is_abelian,
    is_ca_group,
    is_cyclic,
    is_nilpotent,
    is_p_group,
    prime_factorization,
)
from nacent.predicates import primes_dividing
from nacent.subgroups import Subgroup, generated_mask
from oracles import is_hughes_thompson_type, naive_fitting, naive_normalizer, table_of
from test_acceptance import case_a_group_p2, case_a_group_p3


def test_prime_factorization():
    assert prime_factorization(1) == []
    assert prime_factorization(12) == [(2, 2), (3, 1)]
    assert prime_factorization(343) == [(7, 3)]
    assert prime_factorization(1029) == [(3, 1), (7, 3)]
    with pytest.raises(ValueError):
        prime_factorization(0)


def test_is_abelian(s3, z6):
    assert is_abelian(build("cyclic(1)"))
    assert is_abelian(z6)
    assert not is_abelian(s3)


def test_is_abelian_subgroup(s3):
    a3 = Subgroup(s3, generated_mask(s3, [x for x in range(6) if s3.orders[x] == 3][:1]))
    assert is_abelian(a3)


def test_is_cyclic(z6):
    assert is_cyclic(build("cyclic(1)"))
    assert is_cyclic(z6)
    assert not is_cyclic(build("direct_product(cyclic(2),cyclic(2))"))


def test_is_p_group(q8, z6):
    assert is_p_group(q8) == 2
    assert is_p_group(z6) is None
    assert is_p_group(build("heisenberg(7)")) == 7
    assert is_p_group(build("cyclic(1)")) is None


def test_is_nilpotent(q8, s3, z6):
    assert is_nilpotent(z6)
    assert is_nilpotent(q8)
    assert not is_nilpotent(s3)
    assert is_nilpotent(build("heisenberg(3)"))
    assert not is_nilpotent(build("symmetric(4)"))


def test_nilpotent_iff_fitting_is_whole():
    # nilpotency read from element orders against the Fitting subgroup
    # grown by normal closures, across the small catalog
    from nacent import builtin_catalog
    for spec in builtin_catalog(64):
        G = build(spec.name)
        assert is_nilpotent(G) == fitting_subgroup(G).is_whole(), spec.name


def test_fitting(s3, s4, q8):
    assert fitting_subgroup(s3).size == 3
    assert fitting_subgroup(s4).size == 4
    assert fitting_subgroup(q8).is_whole()
    assert fitting_subgroup(build("cyclic(1)")).size == 1


def test_fitting_nilpotent_group_is_whole():
    for spec in ["cyclic(9)", "heisenberg(3)", "dicyclic(2)",
                 "direct_product(dicyclic(2),cyclic(3))"]:
        G = build(spec)
        assert fitting_subgroup(G).is_whole()


def test_fitting_matches_bruteforce_small():
    specs = ["symmetric(3)", "symmetric(4)", "alternating(4)", "dihedral(6)",
             "dicyclic(3)", "sl23", "direct_product(cyclic(2),dihedral(4))",
             "agl1(5)", "heisenberg(3)", "cyclic(30)"]
    cases = [(spec, build(spec)) for spec in specs]
    cases += [("case A, order 128", case_a_group_p2()), ("case A, order 243", case_a_group_p3())]
    for spec, G in cases:
        want = naive_fitting(table_of(G))
        got = set(fitting_subgroup(G).members().tolist())
        assert got == want, spec


def test_fitting_of_a_direct_product(monkeypatch):
    # F(A x B) = F(A) x F(B), pairs (a, b) at a * |B| + b; of the 9360
    # elements, 1440 have prime-power order, and 6 of their trials fail
    monkeypatch.setenv("NACENT_MAX_ORDER", "9360")
    calls = 0
    closure = nacent.predicates._normal_closure_mask

    def counted(*args):
        nonlocal calls
        calls += 1
        return closure(*args)

    monkeypatch.setattr(nacent.predicates, "_normal_closure_mask", counted)
    G = build("direct_product(agl1(13),cyclic(60))")
    got = set(fitting_subgroup(G).members().tolist())
    want = {a * 60 + b for a in naive_fitting(table_of(build("agl1(13)")))
            for b in naive_fitting(table_of(build("cyclic(60)")))}
    assert len(want) == 780 and got == want
    assert calls == 7  # Z, then one closure per trial


def test_fitting_is_normal_nilpotent(s4):
    f = fitting_subgroup(s4)
    assert len(naive_normalizer(table_of(s4), f.members().tolist())) == s4.order
    assert is_nilpotent(f)


def test_hughes_values(s3, z6):
    assert hughes_subgroup(z6, 5).is_whole()
    assert hughes_subgroup(s3, 2).size == 3
    assert hughes_subgroup(s3, 3).is_whole()
    d4 = build("dihedral(4)")
    assert hughes_subgroup(d4, 2).size == 4


def test_hughes_is_normal():
    for spec in ["symmetric(3)", "symmetric(4)", "dihedral(4)", "dihedral(8)",
                 "dicyclic(2)", "agl1(7)"]:
        G = build(spec)
        for p in primes_dividing(G.order):
            members = hughes_subgroup(G, p).members().tolist()
            assert len(naive_normalizer(table_of(G), members)) == G.order, (spec, p)


def test_hughes_thompson_type(s3, q8, z6):
    assert is_hughes_thompson_type(s3) == 2
    assert is_hughes_thompson_type(z6) is None
    assert is_hughes_thompson_type(q8) is None


def test_hughes_thompson_index_and_nilpotency():
    # wherever the witness prime exists, the Hughes subgroup has index
    # exactly p and is nilpotent
    for spec in ["symmetric(3)", "dihedral(5)", "dihedral(7)", "agl1(5)",
                 "semidirect_cyclic(7,3)", "dicyclic(3)"]:
        G = build(spec)
        p = is_hughes_thompson_type(G)
        if p is None:
            continue
        hp = hughes_subgroup(G, p)
        assert G.order == p * hp.size, spec
        assert is_nilpotent(hp), spec


def test_is_ca_group(s3, z6):
    assert is_ca_group(z6)
    assert is_ca_group(s3)
    assert is_ca_group(build("heisenberg(7)"))
    assert not is_ca_group(build("symmetric(4)"))


def test_is_ca_group_flagship(flagship):
    assert not is_ca_group(flagship)


def test_decompose_q8_z3():
    G = build("direct_product(dicyclic(2),cyclic(3))")
    P, A, p = decompose_p_times_abelian(G)
    assert (P.size, A.size, p) == (8, 3, 2)
    assert not is_abelian(P) and is_abelian(A)


def test_decompose_single_prime():
    G = build("heisenberg(7)")
    P, A, p = decompose_p_times_abelian(G)
    assert P.is_whole() and A.size == 1 and p == 7


def test_decompose_abelian_convention(z6):
    P, A, p = decompose_p_times_abelian(z6)
    assert (P.size, A.size, p) == (3, 2, 3)


def test_decompose_trivial():
    P, A, p = decompose_p_times_abelian(build("cyclic(1)"))
    assert P.size == 1 and A.size == 1 and p is None


def test_decompose_requires_nilpotent(s3):
    with pytest.raises(NotNilpotent):
        decompose_p_times_abelian(s3)


def test_decompose_validations():
    # Q8 x Q8 is nilpotent with two non-abelian Sylows... actually one Sylow
    # (a 2-group), and it is not a CA-group, so the split must fail
    G = build("direct_product(dicyclic(2),dicyclic(2))")
    assert is_nilpotent(G)
    assert decompose_p_times_abelian(G) is None


def test_decompose_properties():
    for spec in ["direct_product(dicyclic(2),cyclic(3))",
                 "direct_product(heisenberg(3),cyclic(2))",
                 "cyclic(30)", "dicyclic(2)"]:
        G = build(spec)
        out = decompose_p_times_abelian(G)
        assert out is not None, spec
        P, A, p = out
        assert P.mask & A.mask == 1
        assert P.size * A.size == G.order
        assert is_abelian(A)
        if p is not None:
            assert is_p_group(P) == p or P.size == 1
