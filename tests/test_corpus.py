"""Constructors, catalog contract, and group-file round-trips."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import nacent.corpus
from nacent import (
    InvalidAction,
    InvalidParams,
    NotAGroup,
    OrderLimitExceeded,
    ParseError,
    build,
    builtin_catalog,
    center,
    centralizer_table,
    commutator_subgroup,
    element_orders,
    exponent,
    is_abelian,
    load_group,
    save_group,
    semidirect_product,
)
from nacent.corpus import (
    GroupSpec,
    _class2_extension,
    _least_of_order,
    cyclic,
    dicyclic,
    dihedral,
    heisenberg,
    heisenberg_frobenius,
    parse_spec_string,
)
from nacent.groups import table_dtype
from oracles import (
    centralizer,
    naive_class2_table,
    naive_cyclic_table,
    naive_dicyclic_table,
    naive_dihedral_table,
    naive_heisenberg_table,
)


def test_cyclic_basics():
    assert build("cyclic(1)").order == 1
    G = build("cyclic(6)")
    assert G.order == 6 and is_abelian(G)
    assert sorted(element_orders(G).tolist()) == [1, 2, 3, 3, 6, 6]


def test_dihedral():
    G = build("dihedral(4)")
    assert G.order == 8 and not is_abelian(G)
    assert sorted(element_orders(G).tolist()) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert dihedral(1).order == 2


def test_dicyclic():
    q8 = build("dicyclic(2)")
    assert q8.order == 8
    assert sorted(element_orders(q8).tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert center(q8).size == 2
    g = build("dicyclic(3)")
    assert g.order == 12 and not is_abelian(g)
    assert dicyclic(1).order == 4


@pytest.mark.parametrize("kind, oracle, size", [
    ("cyclic", naive_cyclic_table, 1),
    ("dihedral", naive_dihedral_table, 2),
    ("dicyclic", naive_dicyclic_table, 4),
], ids=["cyclic", "dihedral", "dicyclic"])
def test_tables_match_modular_formulas(kind, oracle, size):
    # every parameter up to order 200, the catalog's among them; the table
    # is written in its stored type, equal entry for entry to the formula
    for n in range(1, 200 // size + 1):
        G = build(f"{kind}({n})")
        assert G.table.dtype == table_dtype(G.order)
        assert np.array_equal(G.table, oracle(n)), n


def test_symmetric_alternating():
    assert build("symmetric(3)").order == 6
    assert build("symmetric(4)").order == 24
    assert build("alternating(4)").order == 12
    assert build("alternating(5)").order == 60
    with pytest.raises(InvalidParams):
        build("symmetric(7)")


def test_direct_product():
    G = build("direct_product(cyclic(2),cyclic(3))")
    assert G.order == 6 and is_abelian(G)
    H = build("direct_product(dicyclic(2),cyclic(3))")
    assert H.order == 24 and not is_abelian(H)


def test_heisenberg_invariants():
    for p in (3, 5, 7):
        G = build(f"heisenberg({p})")
        assert G.order == p ** 3
        assert center(G).size == p
        assert exponent(G) == p
        assert commutator_subgroup(G).mask == center(G).mask
        z = center(G)
        seen = set()
        for x in range(G.order):
            if z.contains(x):
                continue
            c = centralizer(G, x)
            assert c.size == p * p
            if c.mask not in seen:
                seen.add(c.mask)
                assert is_abelian(c)


def test_heisenberg_rejects_nonprime():
    with pytest.raises(InvalidParams):
        build("heisenberg(4)")


def test_heisenberg_frobenius_flagship(flagship):
    assert flagship.order == 1029
    assert center(flagship).size == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_heisenberg_matches_coordinate_product(p):
    G = heisenberg(p)
    assert G.table.dtype == table_dtype(G.order)
    assert np.array_equal(G.table, naive_heisenberg_table(p))


@pytest.mark.parametrize("p, q", [(7, 3), (11, 5), (13, 3)])
def test_heisenberg_frobenius_equals_checked_semidirect_product(p, q):
    # filled from Heisenberg rows with no kernel table, it equals entry for
    # entry the product that semidirect_product builds from heisenberg(p),
    # checking that the scaling by c, of order q mod p, is an automorphism
    c = next(c for c in range(2, p) if pow(c, q, p) == 1)
    perm = [((x * c % p) * p + y * c % p) * p + z * c * c % p
            for x in range(p) for y in range(p) for z in range(p)]
    G = heisenberg_frobenius(p, q, max_order=7000)
    checked = semidirect_product(heisenberg(p), cyclic(q), {1: perm}, max_order=7000)
    assert np.array_equal(G.table, checked.table)


def test_build_peak_memory():
    # the order-6591 flagship, built and validated: the kernel is never
    # tabled, the fill buffers are freed before validation, and every
    # scratch array of either is a block of rows, so the peak is blocks
    # beyond the table
    tracemalloc.start()
    try:
        G = build("heisenberg_frobenius(13,3)", max_order=7000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * G.table.nbytes, peak / G.table.nbytes


def test_heisenberg_frobenius_fixed_point_free():
    # no power of the complement generator fixes a non-identity kernel
    # element, so every element of order q, that is every element outside
    # the kernel, centralizes only its own cyclic subgroup
    for p, q in ((7, 3), (11, 5)):
        G = heisenberg_frobenius(p, q, max_order=7000)
        ct = centralizer_table(G)
        of_order_q = np.flatnonzero(element_orders(G) == q)
        assert of_order_q.size == (q - 1) * p ** 3
        assert {ct.masks[c].bit_count() for c in ct.elem_class[of_order_q].tolist()} == {q}


# (p, B, S, lam, m) of class-2 extensions with two non-abelian
# centralizers, by order: 96 and 162 match cases B and C, 972 case C only
CLASS2_EXTENSIONS = {
    96: (2, np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
         np.array([[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]]), 1, 3),
    162: (3, np.array([[0, 1, 0], [2, 0, 0], [0, 0, 0]]), 2 * np.eye(3, dtype=int), 1, 2),
    972: (3, np.array([[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
          np.array([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]), 1, 4),
}
# heisenberg_frobenius(7,3): B = E12, S = cI and lam = c^2 for c = 2, of order 3 mod 7
HF73 = (7, np.array([[0, 1], [0, 0]]), 2 * np.eye(2, dtype=int), 4, 3)


@pytest.mark.parametrize("order", [1029, *CLASS2_EXTENSIONS])
def test_class2_extension_matches_definition(order):
    params = CLASS2_EXTENSIONS.get(order, HF73)
    G = _class2_extension(*params, name="class2")
    assert G.order == order
    assert np.array_equal(G.table, naive_class2_table(*params))
    if order == 1029:
        assert np.array_equal(G.table, build("heisenberg_frobenius(7,3)").table)


def test_heisenberg_frobenius_param_validation():
    with pytest.raises(InvalidParams):
        build("heisenberg_frobenius(7,2)")  # q even
    with pytest.raises(InvalidParams):
        build("heisenberg_frobenius(7,5)")  # q does not divide p-1
    with pytest.raises(InvalidParams):
        build("heisenberg_frobenius(9,3)")  # p not prime


def test_agl1():
    G = build("agl1(5)")
    assert G.order == 20
    assert center(G).size == 1
    assert build("agl1(2)").order == 2
    with pytest.raises(InvalidParams):
        build("agl1(6)")


def test_agl1_is_semidirect_cyclic():
    """agl1(q) is semidirect_cyclic(q, q-1) renamed: both act by the least
    primitive root mod q, found here by brute force."""
    primes = [int(s.name[5:-1]) for s in builtin_catalog(200) if s.name.startswith("agl1(")]
    assert primes == [2, 3, 5, 7, 11, 13]
    for q in primes:
        G = build(f"agl1({q})")
        g = next(g for g in range(1, q) if len({pow(g, e, q) for e in range(q - 1)}) == q - 1)
        action = {1: [k * g % q for k in range(q)]} if q > 2 else {}
        affine = semidirect_product(cyclic(q), cyclic(q - 1), action)
        assert G.name == f"agl1({q})"
        assert np.array_equal(G.table, build(f"semidirect_cyclic({q},{q - 1})").table)
        assert np.array_equal(G.table, affine.table)


def test_semidirect_cyclic():
    G = build("semidirect_cyclic(7,3)")
    assert G.order == 21 and not is_abelian(G)
    m27 = build("semidirect_cyclic(9,3)")
    assert m27.order == 27 and exponent(m27) == 9
    with pytest.raises(InvalidParams):
        build("semidirect_cyclic(8,3)")  # no unit of order 3 mod 8


def test_least_of_order_matches_search():
    """The least unit of each multiplicative order k mod n, for n < 160 and
    k <= n, against orders found by repeated multiplication."""
    for n in range(2, 160):
        least = {}
        for c in range(1, n):
            if math.gcd(c, n) == 1:
                x, order = c, 1
                while x != 1:
                    x, order = x * c % n, order + 1
                least.setdefault(order, c)
        for k in range(1, n + 1):
            assert _least_of_order(k, n) == least.get(k), (k, n)


def test_sl23():
    G = build("sl23")
    assert G.order == 24
    assert center(G).size == 2
    assert sorted(np.unique(element_orders(G)).tolist()) == [1, 2, 3, 4, 6]


def test_semidirect_action_validation():
    K = cyclic(5)
    H = cyclic(2)
    with pytest.raises(InvalidAction):
        # not a permutation
        semidirect_product(K, H, {1: [0, 0, 1, 2, 3]})
    with pytest.raises(InvalidAction):
        # permutation but not an automorphism (moves identity)
        semidirect_product(K, H, {1: [1, 0, 2, 3, 4]})
    with pytest.raises(InvalidAction):
        # shift is a permutation fixing nothing... moves identity too;
        # use a non-multiplicative bijection fixing 0 instead
        semidirect_product(K, H, {1: [0, 2, 1, 3, 4]})
    with pytest.raises(InvalidAction):
        # inversion is an automorphism but has order 2 != order of the
        # generator in cyclic(3): not a homomorphism
        semidirect_product(K, cyclic(3), {1: [0, 4, 3, 2, 1]})
    with pytest.raises(InvalidAction):
        # generators that do not generate H
        semidirect_product(K, cyclic(4), {2: [0, 4, 3, 2, 1]})
    # a valid one: inversion under cyclic(2) gives the dihedral group
    G = semidirect_product(K, H, {1: [0, 4, 3, 2, 1]})
    assert G.order == 10 and not is_abelian(G)


def test_semidirect_rejects_non_integral_action_entries():
    # 4.9 would truncate to 4 and give the dihedral group of order 10; an
    # integral float still passes
    with pytest.raises(InvalidAction, match="4.9"):
        semidirect_product(cyclic(5), cyclic(2), {1: [0, 4.9, 3, 2, 1]})
    assert semidirect_product(cyclic(5), cyclic(2), {1: [0, 4.0, 3, 2, 1]}).order == 10


def test_semidirect_rejects_action_keys_outside_h():
    # -1 would index the last element of H and 2 would index past it
    inversion = [0, 4, 3, 2, 1]
    for key in (-1, 2):
        with pytest.raises(InvalidAction, match="action key"):
            semidirect_product(cyclic(5), cyclic(2), {key: inversion})


def test_semidirect_rejects_non_automorphisms():
    # the check runs over K's generators only; on a non-abelian K it must
    # still reject bijections fixing the identity that are not automorphisms
    K = heisenberg(3)
    inversion = K.inverses.tolist()  # an anti-automorphism
    swap = list(range(K.order))
    swap[1], swap[2] = swap[2], swap[1]
    # respects multiplication by K's first generator s but is no
    # automorphism: two cosets r<s> and r2<s> swapped, r s^k <-> r2 s^k
    s = K.generators[0]
    powers = [K.power(s, k) for k in range(int(element_orders(K)[s]))]
    r = next(x for x in range(K.order) if x not in powers)
    r2 = next(x for x in range(K.order)
              if x not in powers and K.mul(K.inv(r), x) not in powers)
    twisted = list(range(K.order))
    for p in powers:
        twisted[K.mul(r, p)], twisted[K.mul(r2, p)] = K.mul(r2, p), K.mul(r, p)
    for perm in (inversion, swap, twisted):
        with pytest.raises(InvalidAction):
            semidirect_product(K, cyclic(2), {1: perm})
    # conjugation by an element of order 3 is an automorphism of order 3
    g = next(x for x in range(K.order) if element_orders(K)[x] == 3)
    inner = [K.mul(K.mul(K.inv(g), x), g) for x in range(K.order)]
    assert semidirect_product(K, cyclic(3), {1: inner}).order == 81


def test_spec_parser_round_trip():
    # a construction's built name is its spec in canonical spelling
    for s in ["cyclic(6)", "sl23", "direct_product(cyclic(2),dihedral(4))",
              "direct_product(direct_product(cyclic(2),cyclic(2)),cyclic(3))",
              "heisenberg_frobenius(7,3)"]:
        assert build(s).name == s
    assert build(" cyclic( 6 ) ").name == "cyclic(6)"
    assert build(GroupSpec(name="sl23()")).name == "sl23"


def test_spec_parser_errors():
    for bad in ["", "cyclic(", "cyclic(6", "cyclic(6,)", "7up", "cyclic(6)x"]:
        with pytest.raises(ParseError):
            parse_spec_string(bad)
    # the position and at most 40 characters of the spec around it
    with pytest.raises(ParseError) as exc:
        parse_spec_string("cyclic(6)" + "x" * 10000)
    assert str(exc.value) == ("trailing input at position 9 in spec "
                              "'cyclic(6)xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx...'")
    # a constructor name is checked where it is read, before what follows it
    for spec, pos in [("unknown_thing(3)", 0), ("foo(", 0),
                      ("direct_product(cyclic(2), wat(3))", 26)]:
        with pytest.raises(ParseError) as exc:
            build(spec)
        assert str(exc.value) == f"unknown constructor at position {pos} in spec {spec!r}"
    with pytest.raises(ParseError) as exc:
        parse_spec_string("x" * 30000)
    assert str(exc.value) == f"unknown constructor at position 0 in spec '{'x' * 40}...'"


def test_spec_parser_takes_ascii_digits_only():
    # str.isdigit accepts '²' and int() reads '٣' as 3; a spec argument is
    # [0-9]+, anything else must start a constructor name
    for bad in ["cyclic(\u00b2)", "cyclic(\u0663)", "cyclic(\uff16)", "cyclic(6\u0663)"]:
        with pytest.raises(ParseError, match="at position"):
            parse_spec_string(bad)
    assert parse_spec_string("cyclic(0123)") == ("cyclic", [123])
    with pytest.raises(ParseError, match="integer argument too long at position 7"):
        parse_spec_string("cyclic(" + "7" * 5000 + ")")
    with pytest.raises(InvalidParams):
        build("cyclic(2,3)")


def test_order_guard():
    with pytest.raises(OrderLimitExceeded):
        build("cyclic(100)", max_order=64)
    with pytest.raises(OrderLimitExceeded):
        build("heisenberg_frobenius(13,3)")  # 6591 over the default guard


def test_order_guard_comes_before_the_primality_test(monkeypatch):
    # trial division of a huge prime runs for minutes; the guard refuses first
    def refuse(n):
        raise AssertionError(f"primality of {n} tested")

    monkeypatch.setattr(nacent.corpus, "is_prime", refuse)
    p = 1000000000000000003
    for spec in [f"heisenberg({p})", f"agl1({p})", f"heisenberg_frobenius({p},3)"]:
        with pytest.raises(OrderLimitExceeded):
            build(spec)


def nested_spec(depth):
    """cyclic(1) multiplied by cyclic(1) `depth` times, one nesting level each."""
    spec = "cyclic(1)"
    for _ in range(depth):
        spec = f"direct_product({spec},cyclic(1))"
    return spec


def test_deep_spec_nesting_is_a_parse_error():
    assert build(nested_spec(200)).order == 1
    with pytest.raises(ParseError, match="nested more than") as exc:
        parse_spec_string(nested_spec(1200))
    assert str(exc.value) == ("spec nested more than 256 deep at position 3840 in spec "
                              "'...duct(direct_product(direct_product(direc...'")
    with pytest.raises(ParseError, match="nested more than"):
        GroupSpec(nested_spec(1200))


def test_order_guard_env(monkeypatch):
    from nacent.groups import order_guard
    monkeypatch.delenv("NACENT_MAX_ORDER", raising=False)
    assert order_guard() == 5000
    monkeypatch.setenv("NACENT_MAX_ORDER", "80")
    assert order_guard() == 80
    with pytest.raises(OrderLimitExceeded):
        build("cyclic(100)")
    for bad in ["not-a-number", "7000x", "0", "-3"]:
        monkeypatch.setenv("NACENT_MAX_ORDER", bad)
        with pytest.raises(InvalidParams, match="positive integer"):
            order_guard()
        assert order_guard(64) == 64  # a given limit does not read the variable
        with pytest.raises(InvalidParams):
            build("cyclic(4)")


def test_catalog_contract_small():
    specs = [s.name for s in builtin_catalog(6)]
    for expected in ["cyclic(1)", "cyclic(6)", "dihedral(3)", "symmetric(3)"]:
        assert expected in specs
    assert "dicyclic(2)" not in specs


def test_catalog_contains_flagships():
    specs = [s.name for s in builtin_catalog(1100)]
    assert "heisenberg_frobenius(7,3)" in specs
    assert "heisenberg_frobenius(13,3)" not in specs
    specs = [s.name for s in builtin_catalog(7000)]
    assert "heisenberg_frobenius(13,3)" in specs


def test_catalog_rejects_bad_max_order():
    with pytest.raises(InvalidParams):
        builtin_catalog(0)


def test_catalog_deterministic_and_buildable():
    a = [s.name for s in builtin_catalog(32)]
    b = [s.name for s in builtin_catalog(32)]
    assert a == b
    for name in a:
        G = build(name)
        assert G.order <= 32


def test_group_spec_validation():
    with pytest.raises(ParseError):
        GroupSpec(name="wat(3)")


def test_save_load_round_trip(tmp_path, s3):
    p = tmp_path / "s3.json"
    save_group(s3, p)
    G = load_group(p)
    assert np.array_equal(G.table, s3.table)
    p2 = tmp_path / "again.json"
    save_group(G, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_load_handwritten_z2(tmp_path):
    p = tmp_path / "z2.json"
    p.write_text(json.dumps({"kind": "cayley", "name": "z2",
                             "table": [[0, 1], [1, 0]]}))
    G = load_group(p)
    assert G.order == 2 and G.name == "z2"


def test_load_permutation_file(tmp_path):
    p = tmp_path / "s3p.json"
    p.write_text(json.dumps({"kind": "permutations", "degree": 3,
                             "generators": [[1, 0, 2], [1, 2, 0]]}))
    assert load_group(p).order == 6


def test_load_construction_file(tmp_path):
    p = tmp_path / "h7.json"
    p.write_text(json.dumps({"kind": "construction", "constructor": "heisenberg",
                             "params": {"p": 7}}))
    assert load_group(p).order == 343
    p2 = tmp_path / "prod.json"
    p2.write_text(json.dumps({"kind": "construction",
                              "constructor": "direct_product(cyclic(2),cyclic(3))"}))
    assert load_group(p2).order == 6


def test_load_parse_errors(tmp_path):
    cases = [
        ("not json at all", None),
        (json.dumps([1, 2]), None),
        (json.dumps({"kind": "nope"}), "kind"),
        (json.dumps({"kind": "cayley"}), "table"),
        (json.dumps({"kind": "cayley", "table": [[0, 1], [1]]}), "table"),
        (json.dumps({"kind": "cayley", "table": [["x"]]}), "table"),
        (json.dumps({"kind": "permutations", "degree": 2}), "generators"),
        (json.dumps({"kind": "permutations", "degree": 2,
                     "generators": [[0, 0]]}), "generators"),
        (json.dumps({"kind": "construction", "constructor": "cyclic",
                     "params": {"m": 3}}), "params"),
    ]
    for i, (text, fieldname) in enumerate(cases):
        p = tmp_path / f"bad{i}.json"
        p.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_group(p)
        assert str(p) in str(exc.value)
        if fieldname:
            assert fieldname in str(exc.value)


def test_load_rejects_json_booleans(tmp_path):
    # JSON true and false read as Python bools, which are ints
    cases = [
        ({"kind": "cayley", "table": [[False, True], [True, False]]}, "table"),
        ({"kind": "permutations", "degree": 2, "generators": [[True, False]]}, "generators"),
        ({"kind": "permutations", "degree": True, "generators": [[0]]}, "degree"),
        ({"kind": "construction", "constructor": "cyclic", "params": {"n": True}}, "params"),
    ]
    for i, (payload, fieldname) in enumerate(cases):
        p = tmp_path / f"bool{i}.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ParseError) as exc:
            load_group(p)
        assert exc.value.field == fieldname, payload


def test_load_rejects_corrupted_table(tmp_path, s3):
    table = [[int(v) for v in row] for row in s3.table]
    table[2][3] = table[2][3 - 1]  # duplicate entry breaks a law
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "cayley", "table": table}))
    with pytest.raises(NotAGroup) as exc:
        load_group(p)
    assert exc.value.law in ("latin-square", "identity", "inverse", "associativity")


def test_every_catalog_spec_builds_and_validates():
    for spec in builtin_catalog(100):
        G = build(spec.name)
        assert G.order >= 1
