"""Cent/nacent statistics and the verification report: category, case,
both directions of the characterization and the consequences."""

import json
from functools import reduce
from operator import or_

import pytest

from nacent import (
    FiniteGroup,
    Subgroup,
    build,
    builtin_catalog,
    center,
    centralizer_table,
    cyclic,
    full_report,
)
from nacent.classify import (
    CATEGORY_ABELIAN,
    CATEGORY_CA,
    CATEGORY_MANY_NACENT,
    CATEGORY_TWO_NACENT,
    _candidates,
    evaluate_cases,
)
from nacent.corpus import _class2_extension, direct_product
from nacent.partitions import _union_outside, center_quotient
from nacent.predicates import (
    hughes_subgroup,
    is_ca_group,
    is_p_group,
    primes_dividing,
)
from nacent.subgroups import generated_mask, mask_of
from oracles import (
    centralizer,
    naive_centralizer_sets,
    naive_is_abelian_subset,
    subgroup_as_group,
    table_of,
)
from test_acceptance import case_a_group_p2, case_a_group_p3
from test_corpus import CLASS2_EXTENSIONS


def members(G, mask):
    return frozenset(Subgroup(G, mask).members().tolist())


def test_cent_stats_abelian(z6):
    ct = centralizer_table(z6)
    assert len(ct.masks) == 1
    assert ct.abelian.count(False) == 0
    assert Subgroup(z6, ct.masks[0]).is_whole()


def test_cent_stats_s3(s3):
    ct = centralizer_table(s3)
    assert len(ct.masks) == 5
    assert ct.abelian.count(False) == 1
    nacent = [m for m, ab in zip(ct.masks, ct.abelian) if not ab]
    assert Subgroup(s3, nacent[0]).is_whole()


def test_cent_stats_matches_naive():
    for spec in ["symmetric(3)", "symmetric(4)", "dicyclic(3)", "dihedral(6)",
                 "sl23", "heisenberg(3)", "agl1(5)", "cyclic(12)"]:
        G = build(spec)
        got = {members(G, m) for m in centralizer_table(G).masks}
        assert got == naive_centralizer_sets(table_of(G)), spec


def test_cent_stats_nacent_matches_naive(s4):
    ct = centralizer_table(s4)
    table = table_of(s4)
    for m, ab in zip(ct.masks, ct.abelian):
        assert ab == naive_is_abelian_subset(table, sorted(members(s4, m)))


def test_cent_stats_witnesses_are_least(s4):
    ct = centralizer_table(s4)
    for m, w in zip(ct.masks, ct.witnesses):
        realizers = [x for x in range(s4.order) if centralizer(s4, x).mask == m]
        assert min(realizers) == w
    assert len(set(ct.masks)) == len(ct.masks)
    for c, (m, w) in enumerate(zip(ct.masks, ct.witnesses)):
        assert ct.elem_class[w] == c
        assert ct.masks[ct.elem_class[w]] == m


def test_same_cyclic_span_same_centralizer(s4, flagship):
    for G in (s4, flagship):
        for x in range(G.order):
            span = generated_mask(G, [x])
            for y in Subgroup(G, span).members().tolist():
                if generated_mask(G, [y]) == span:
                    assert centralizer(G, x).mask == centralizer(G, y).mask, (G.name, x, y)


def test_whole_group_always_present(s3, z6):
    for G in (s3, z6):
        masks = centralizer_table(G).masks
        assert any(Subgroup(G, m).is_whole() for m in masks)
        assert Subgroup(G, masks[0]).is_whole()


def test_classify_abelian(z6):
    rep = full_report(z6)
    assert rep.category == CATEGORY_ABELIAN
    assert rep.nacent_count == 0


def test_classify_ca(q8, s3):
    assert full_report(q8).category == CATEGORY_CA
    assert full_report(s3).category == CATEGORY_CA


def test_classify_many(s4):
    rep = full_report(s4)
    assert rep.category == CATEGORY_MANY_NACENT
    assert rep.nacent_count > 2
    assert rep.case is None and "witness_a" not in rep.case_data


def test_classify_flagship(flagship):
    rep = full_report(flagship)
    assert rep.category == CATEGORY_TWO_NACENT
    assert rep.case == "C"
    assert rep.case_data["kernel_size"] == 343
    assert rep.case_data["complement_size"] == 3
    assert rep.case_data["ca_size"] == 343
    assert rep.case_data["witness_a"] == _candidates(centralizer_table(flagship))[0]
    assert all(rep.case_data["validation"].values())
    # the Hughes-type hypothesis also holds here; both matches are recorded,
    # and C takes precedence
    assert rep.case_data["matched_cases"] == ["B", "C"]


def test_full_report_one_pass(monkeypatch):
    """One report tests the cases once and decides whether C(a) is normal
    in G once: case C's test of the image of C(a) in G/Z (Z = 1, so G/Z is
    G), the validation flag and consequence f share one computation, a
    single miss of the memo."""
    import nacent.classify as mod

    G = build("heisenberg_frobenius(7,3)")
    ct = centralizer_table(G)
    (a,) = _candidates(ct)
    ca_mask = ct.masks[ct.elem_class[a]]
    calls = {"matches": 0}
    misses = []
    matches = mod._matches

    def counting_matches(*args):
        calls["matches"] += 1
        return matches(*args)

    class CountingCache(dict):
        def __missing__(self, key):
            misses.append(key)
            raise KeyError(key)

    G._cache = CountingCache(G._cache)
    monkeypatch.setattr(mod, "_matches", counting_matches)
    rep = mod.full_report(G)
    assert rep.ok and rep.consequences["normal_ca"] is True
    assert calls == {"matches": 1}
    assert misses.count(("normalizer_mask", ca_mask)) == 1


@pytest.mark.parametrize("order, matched, cent", [
    (96, ["B", "C"], 21), (162, ["B", "C"], 33), (972, ["C"], 87)])
def test_class2_extensions_match_cases_b_and_c(order, matched, cent):
    # real two-nacent groups for case B, not only C; with both matched, the
    # Frobenius case C is recorded
    G = _class2_extension(*CLASS2_EXTENSIONS[order], name=f"class2({order})")
    rep = full_report(G)
    assert rep.category == CATEGORY_TWO_NACENT and rep.violations == []
    assert rep.case == "C" and rep.case_data["matched_cases"] == matched
    assert rep.cent_count == cent


ISOCLINISM_BASES = {
    **{spec: lambda spec=spec: build(spec) for spec in (
        "heisenberg_frobenius(7,3)", "symmetric(4)", "alternating(5)", "sl23",
        "direct_product(dihedral(4),symmetric(3))")},
    "case_a(128)": case_a_group_p2,
    "case_a(243)": case_a_group_p3,
    **{f"class2({order})": lambda params=params: _class2_extension(*params, name="class2")
       for order, params in CLASS2_EXTENSIONS.items()},
}


def isoclinism_invariants(G):
    rep = full_report(G)
    data = rep.case_data
    return (rep.cent_count, rep.nacent_count, rep.category, rep.case, data.get("matched_cases"),
            data.get("p"), rep.consequences, len(rep.violations),
            data["partition"].get("component_count"))


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("base", list(ISOCLINISM_BASES))
def test_abelian_direct_factor_keeps_the_verdicts(base, k):
    """X x C_k is isoclinic to X (P. Hall, J. reine angew. Math. 182, 1940):
    (X x C_k)/Z is X/Z, and C((x, c)) = C(x) x C_k. Every verdict the
    report reads from G/Z and the centralizers is the same, with a center
    k times as large; cases A, B and C all occur among the bases."""
    X = ISOCLINISM_BASES[base]()
    assert isoclinism_invariants(direct_product(X, cyclic(k))) == isoclinism_invariants(X)


def test_two_nacent_proof_invariants(flagship):
    """C(s) inside C(a) for inner s; outside centralizers meet C(a) and each
    other exactly in the center; each class of equal centralizers lies
    wholly inside C(a) or wholly outside it, on the side of its witness."""
    ct = centralizer_table(flagship)
    (a,) = _candidates(ct)
    Ca = Subgroup(flagship, ct.masks[ct.elem_class[a]])
    z = center(flagship)
    assert z.size == 1
    for x in range(flagship.order):
        cx = Subgroup(flagship, ct.masks[ct.elem_class[x]])
        if x == 0:
            continue
        if Ca.contains(x):
            assert cx.mask & ~Ca.mask == 0
        else:
            assert cx.mask & Ca.mask == z.mask
        assert Ca.contains(x) == Ca.contains(ct.witnesses[ct.elem_class[x]]), x


def naive_meet_pairwise_in(z, masks):
    """Every two of the bitsets meet in exactly z, pair by pair."""
    return all(m1 & m2 == z for i, m1 in enumerate(masks) for m2 in masks[i + 1:])


def test_pairwise_meet_check_matches_definition(flagship):
    ct = centralizer_table(flagship)
    (a,) = _candidates(ct)
    Ca = Subgroup(flagship, ct.masks[ct.elem_class[a]])
    z = center(flagship).mask
    outside = sorted({ct.masks[ct.elem_class[x]] for x in range(flagship.order)
                      if not Ca.contains(x)})
    assert len(outside) == 343
    assert _union_outside(z, outside) == reduce(or_, outside) & ~z
    assert naive_meet_pairwise_in(z, outside) is True
    # fabricated: give one centralizer an element of another outside the center
    for i, j in ((0, 1), (0, 342), (341, 342), (200, 17)):
        extra = (outside[j] & ~z) & -(outside[j] & ~z)  # least such element
        bad = list(outside)
        bad[i] |= extra
        assert naive_meet_pairwise_in(z, bad) is False
        assert _union_outside(z, bad) is None, (i, j)


def test_pairwise_meet_check_with_a_center():
    z = 0b11
    assert _union_outside(z, [0b00111, 0b01011, 0b10011]) == 0b11100
    assert _union_outside(z, []) == 0
    for masks in ([0b00111, 0b01111], [0b00111, 0b01011, 0b10111]):
        assert naive_meet_pairwise_in(z, masks) is False
        assert _union_outside(z, masks) is None


def test_case_evaluation_vacuous_for_ca(s3):
    ct = centralizer_table(s3)
    candidates = [w for m, w, ab in zip(ct.masks, ct.witnesses, ct.abelian)
                  if not ab and not Subgroup(s3, m).is_whole()]
    assert candidates == []
    assert _candidates(ct) == []


def test_verify_iff_s3(s3):
    rep = full_report(s3)
    assert rep.ok
    assert rep.case_data["iff"]["forward_ok"]
    assert rep.case_data["iff"]["converse_ok"]
    assert rep.case_data["iff"]["candidates_checked"] == 0


def test_verify_iff_flagship(flagship):
    rep = full_report(flagship)
    assert rep.ok
    assert rep.case_data["iff"]["forward_ok"]
    assert rep.case_data["iff"]["converse_ok"]
    assert rep.case_data["iff"]["candidates_checked"] == 1
    assert {m["case"] for m in rep.case_data["iff"]["matched"]} == {"B", "C"}


def test_verify_iff_heisenberg_alone():
    G = build("heisenberg(7)")
    rep = full_report(G)
    assert rep.ok
    assert rep.case_data["iff"]["matched"] == []


def test_verify_consequences_flagship(flagship):
    rep = full_report(flagship)
    assert rep.ok
    assert rep.cent_count == 353
    assert rep.consequences == {k: True for k in
                                ("a", "b", "c", "d", "e", "f", "normal_ca", "ca_group")}
    counting = rep.case_data["counting"]
    assert counting["cent_ca"] == 9
    assert counting["ca_over_z"] == 343
    assert counting["formula_ca_over_z"] is True
    assert rep.cent_count == counting["cent_ca"] + counting["ca_over_z"] + 1


def test_verify_consequences_not_applicable(s3, z6):
    for G in (s3, z6):
        rep = full_report(G)
        assert rep.ok
        assert set(rep.consequences.values()) == {None}


def test_full_report_builds_one_table(monkeypatch):
    # C(a)'s own facts are read from G's centralizer table, and G/Z is G
    # itself (Z = 1): the only table built is G/C(a), for consequence f
    G = build("heisenberg_frobenius(7,3)")
    built = []
    init = FiniteGroup.__init__

    def counting_init(self, table, name="group"):
        built.append(name)
        init(self, table, name)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    assert full_report(G).ok
    assert built == ["heisenberg_frobenius(7,3)/343"]


def test_report_determinism(flagship):
    a = json.dumps(full_report(flagship).to_dict(), sort_keys=True)
    flagship._cache.clear()
    b = json.dumps(full_report(flagship).to_dict(), sort_keys=True)
    assert a == b


def test_report_fields(s3):
    d = full_report(s3, group_id="fixture:s3").to_dict()
    assert d["group_id"] == "fixture:s3"
    assert set(d) == {"group_id", "order", "center_order", "cent_count",
                      "nacent_count", "category", "case", "case_data",
                      "consequences", "violations"}
    assert d["order"] == 6 and d["center_order"] == 1
    assert d["cent_count"] == 5 and d["nacent_count"] == 1


def test_evaluate_cases_shapes(flagship):
    (a,) = _candidates(centralizer_table(flagship))
    cases = evaluate_cases(flagship, a)
    assert [c.name for c in cases] == ["A", "B", "C"]
    assert not cases[0].matched and cases[1].matched and cases[2].matched


def test_iff_sweep_no_violations_small():
    from nacent import builtin_catalog
    for spec in builtin_catalog(48):
        G = build(spec.name)
        rep = full_report(G, group_id=spec.name)
        assert rep.ok, (spec.name, rep.violations)


def test_classify_converse_guard(monkeypatch):
    """A fabricated case match on a many-nacent group lands in the report
    as a converse violation naming the first matching candidate."""
    import nacent.classify as mod
    from nacent.classify import CaseCheck

    G = build("symmetric(4)")
    fake = (CaseCheck("A", False, {}, {}), CaseCheck("B", False, {}, {}),
            CaseCheck("C", True, {"forced": True}, {}))
    monkeypatch.setattr(mod, "evaluate_cases", lambda g, a: fake)
    rep = mod.full_report(G)
    assert rep.violations == [
        "converse: 'symmetric(4)': case C hypothesis holds for a=5 but |nacent| = 4"]
    assert rep.case_data["iff"]["converse_ok"] is False
    G._cache.clear()


def case_b_over_every_prime(G, a):
    """Case B by its definition, one prime at a time: the least prime q
    dividing |G/Z|, with G/Z not a q-group, whose Hughes subgroup H_q(G/Z)
    is proper, equals the image of C(a) and has index q, when every
    centralizer outside C(a) has order q|Z| and C(a) is a CA-group; else
    None. Centralizers are taken element by element."""
    Ca = centralizer(G, a)
    qm = center_quotient(G)
    Q = qm.quotient
    img = mask_of(qm.projection[Ca.members()])
    zsize = center(G).size
    outside = {centralizer(G, x).size for x in range(G.order) if not Ca.contains(x)}
    for q in primes_dividing(Q.order):
        if is_p_group(Q) == q:
            continue
        hq = hughes_subgroup(Q, q)
        if (hq.size < Q.order and hq.mask == img and Q.order == q * hq.size
                and outside == {q * zsize} and is_ca_group(subgroup_as_group(Ca)[0])):
            return q
    return None


def test_case_b_matches_its_definition(flagship):
    """Case B, evaluated at the one prime its index allows, agrees with the
    loop over every prime; every B match also matches C with a complement of
    order p (B => C, Hughes-Thompson). The B matches are the flagship and
    heisenberg_frobenius(11,5), built here past the default order guard."""
    groups = [build(spec.name) for spec in builtin_catalog(200)] + [flagship]
    groups.append(build("heisenberg_frobenius(11,5)", max_order=7000))
    checked = b_matches = 0
    with_candidates = set()
    for G in groups:
        for a in _candidates(centralizer_table(G)):
            checked += 1
            with_candidates.add(G.name)
            _, case_b, case_c = evaluate_cases(G, a)
            q = case_b_over_every_prime(G, a)
            assert case_b.matched == (q is not None), (G.name, a)
            if case_b.matched:
                b_matches += 1
                assert case_b.data == {"p": q}
                assert case_c.matched, (G.name, a)
                assert case_b.data["p"] == case_c.data["complement_size"]
    assert checked == 53 and len(with_candidates) == 10
    assert b_matches == 2


def test_classify_forward_guard(monkeypatch, flagship):
    """No case matching on a two-nacent group lands in the report as a
    forward violation, with no case and no consequences."""
    import nacent.classify as mod
    from nacent.classify import CaseCheck

    fake = (CaseCheck("A", False, {"quotient_p_group": False}, {}),
            CaseCheck("B", False, {"ca_image_prime_index": True, "hughes_is_ca_image": False,
                                   "outside_order_p": False, "ca_group": True}, {}),
            CaseCheck("C", False, {"ca_image_normal": True, "cyclic_complement_witness": False,
                                   "ca_group": True}, {}))
    monkeypatch.setattr(mod, "evaluate_cases", lambda g, a: fake)
    rep = mod.full_report(flagship)
    assert rep.category == CATEGORY_TWO_NACENT
    assert rep.case is None
    assert rep.violations == [
        "forward: 'heisenberg_frobenius(7,3)': |nacent| = 2 but no structural case matches "
        "(A: quotient_p_group; B: hughes_is_ca_image, outside_order_p; "
        "C: cyclic_complement_witness)"]
    assert rep.case_data["iff"]["forward_ok"] is False
    assert rep.case_data["iff"]["converse_ok"] is True
    assert rep.case_data["iff"]["matched"] == []
    assert set(rep.consequences.values()) == {None}
