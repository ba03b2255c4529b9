"""Cent/nacent statistics and the verification report: category, case,
both directions of the characterization and the consequences."""

import json

from nacent import (
    FiniteGroup,
    Subgroup,
    build,
    builtin_catalog,
    center,
    centralizer_table,
    full_report,
)
from nacent.classify import (
    CATEGORY_ABELIAN,
    CATEGORY_CA,
    CATEGORY_MANY_NACENT,
    CATEGORY_TWO_NACENT,
    _candidates,
    _meet_pairwise_in,
    evaluate_cases,
)
from nacent.partitions import center_quotient
from nacent.predicates import (
    hughes_subgroup,
    is_ca_group,
    is_p_group,
    primes_dividing,
)
from nacent.subgroups import generated_mask
from oracles import (
    centralizer,
    naive_centralizer_sets,
    naive_is_abelian_subset,
    subgroup_as_group,
    table_of,
)


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
    """One report tests the cases once and asks whether C(a) is normal in G
    once, for the validation flag and consequence f alike. (Z = 1, so case
    C's own normality test of the image of C(a) in G/Z asks it too; that
    test is memoized with the case evaluation, run here beforehand.)"""
    import nacent.classify as mod

    G = build("heisenberg_frobenius(7,3)")
    (a,) = _candidates(centralizer_table(G))
    evaluate_cases(G, a)
    calls = {"matches": 0, "normal_in_G": 0}
    matches, is_normal = mod._matches, mod.is_normal

    def counting_matches(*args):
        calls["matches"] += 1
        return matches(*args)

    def counting_is_normal(H, *args):
        calls["normal_in_G"] += H is G
        return is_normal(H, *args)

    monkeypatch.setattr(mod, "_matches", counting_matches)
    monkeypatch.setattr(mod, "is_normal", counting_is_normal)
    rep = mod.full_report(G)
    assert rep.ok and rep.consequences["normal_ca"] is True
    assert calls == {"matches": 1, "normal_in_G": 1}


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
    assert _meet_pairwise_in(z, outside) is True
    assert naive_meet_pairwise_in(z, outside) is True
    # fabricated: give one centralizer an element of another outside the center
    for i, j in ((0, 1), (0, 342), (341, 342), (200, 17)):
        extra = (outside[j] & ~z) & -(outside[j] & ~z)  # least such element
        bad = list(outside)
        bad[i] |= extra
        assert naive_meet_pairwise_in(z, bad) is False
        assert _meet_pairwise_in(z, bad) is False, (i, j)


def test_pairwise_meet_check_with_a_center():
    z = 0b11
    assert _meet_pairwise_in(z, [0b00111, 0b01011, 0b10011])
    assert _meet_pairwise_in(z, [])
    for masks in ([0b00111, 0b01111], [0b00111, 0b01011, 0b10111]):
        assert naive_meet_pairwise_in(z, masks) is False
        assert _meet_pairwise_in(z, masks) is False


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
    img = qm.image(Ca)
    zsize = center(G).size
    outside = {centralizer(G, x).size for x in range(G.order) if not Ca.contains(x)}
    for q in primes_dividing(Q.order):
        if is_p_group(Q) == q:
            continue
        hq = hughes_subgroup(Q, q)
        if (hq.size < Q.order and hq.mask == img.mask and Q.order == q * hq.size
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

    fake = tuple(CaseCheck(name, False, {}, {}) for name in ("A", "B", "C"))
    monkeypatch.setattr(mod, "evaluate_cases", lambda g, a: fake)
    rep = mod.full_report(flagship)
    assert rep.category == CATEGORY_TWO_NACENT
    assert rep.case is None
    assert rep.violations == [
        "forward: 'heisenberg_frobenius(7,3)': |nacent| = 2 but no structural case matches"]
    assert rep.case_data["iff"]["forward_ok"] is False
    assert rep.case_data["iff"]["converse_ok"] is True
    assert rep.case_data["iff"]["matched"] == []
    assert set(rep.consequences.values()) == {None}
