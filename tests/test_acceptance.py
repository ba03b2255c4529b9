"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The corpus sweep (catalog up to order 200 plus the two large
heisenberg_frobenius groups) runs once and is shared by the criteria that
consume it.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from nacent import (
    GroupSpec,
    NotAGroup,
    Subgroup,
    build,
    builtin_catalog,
    centralizer_partition,
    centralizer_table,
    cyclic,
    from_cayley_table,
    full_report,
    hughes_subgroup,
    is_nilpotent,
    is_normal_partition,
    is_partition,
    load_group,
    save_group,
    semidirect_product,
)
from nacent.cli import _run_all, _summary_record
from oracles import is_hughes_thompson_type, naive_centralizer_sets, table_of

FLAGSHIPS = [("heisenberg_frobenius(7,3)", 1100), ("heisenberg_frobenius(13,3)", 7000)]
# committed outputs of `nacent verify --max-order 200` and
# `nacent analyze heisenberg_frobenius(13,3)`; read only
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def report_line(num: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"{tag} criterion {num}: {description}{tail}")


@pytest.fixture(scope="module")
def sweep():
    """Catalog(200) plus both flagship groups, at parallelism 4."""
    specs = [GroupSpec(name) for name, _ in FLAGSHIPS] + builtin_catalog(200)
    # one guard for the whole run: the largest flagship's; the catalog stays far below it
    guard = max(g for _, g in FLAGSHIPS)
    start = time.monotonic()
    records = _run_all(specs, guard, parallelism=4)
    elapsed = time.monotonic() - start
    return records, elapsed


def test_criterion_1_flagship_exact_counts():
    start = time.monotonic()
    G = build("heisenberg_frobenius(7,3)")
    rep = full_report(G)
    elapsed = time.monotonic() - start

    ok = True
    ok &= rep.order == 1029
    ok &= rep.center_order == 1
    ok &= rep.nacent_count == 2
    ok &= rep.category == "two_nacent" and rep.case == "C"
    counting = rep.case_data["counting"]
    ok &= counting["cent_ca"] == 9
    ok &= counting["ca_over_z"] == 343
    ok &= rep.cent_count == 9 + 343 + 1 == 353
    ok &= counting["formula_ca_over_z"] is True
    ok &= elapsed < 30.0

    # independent brute-force oracle over the raw table
    table = table_of(G)
    naive = naive_centralizer_sets(table)
    ok &= len(naive) == 353
    masks = centralizer_table(G).masks
    ok &= {frozenset(Subgroup(G, m).members().tolist()) for m in masks} == naive

    report_line(1, "flagship exact counts (353 = 9 + 343 + 1, case C)", ok,
                f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_iff_sweep(sweep):
    records, elapsed = sweep
    bad = []
    for r in records:
        iff = r["case_data"]["iff"]
        if not (iff["forward_ok"] and iff["converse_ok"]):
            bad.append(r["group_id"])
    ok = not bad and elapsed < 60.0
    report_line(2, "characterization holds both ways over catalog(200) + flagships",
                ok, f"{len(records)} groups, {elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 60.0


def test_criterion_3_consequence_sweep(sweep):
    records, _ = sweep
    two_nacent = [r for r in records if r["category"] == "two_nacent"]
    keys = ("a", "b", "c", "d", "e", "f", "normal_ca", "ca_group")
    bad = [r["group_id"] for r in two_nacent
           if any(r["consequences"][k] is not True for k in keys)]
    ok = bool(two_nacent) and not bad
    report_line(3, "all consequences hold on every two-nacent group", ok,
                f"{len(two_nacent)} two-nacent group(s)")
    assert two_nacent, "sweep contained no two-nacent group"
    assert not bad, bad


def test_criterion_4_hughes_property():
    bad = []
    checked = 0
    for spec in builtin_catalog(200):
        G = build(spec.name)
        p = is_hughes_thompson_type(G)
        if p is None:
            continue
        checked += 1
        hp = hughes_subgroup(G, p)
        if G.order != p * hp.size or not is_nilpotent(hp):
            bad.append(spec.name)
    ok = not bad and checked > 0
    report_line(4, "Hughes subgroup has index exactly p and is nilpotent", ok,
                f"{checked} Hughes-type groups")
    assert checked > 0
    assert not bad, bad


def test_criterion_5_cent_oracle_equivalence():
    bad = []
    checked = 0
    for spec in builtin_catalog(200):
        G = build(spec.name)
        if G.order > 200:
            continue
        checked += 1
        masks = centralizer_table(G).masks
        got = {frozenset(Subgroup(G, m).members().tolist()) for m in masks}
        if got != naive_centralizer_sets(table_of(G)):
            bad.append(spec.name)
    ok = not bad
    report_line(5, "centralizer dedup equals naive recomputation (order <= 200)",
                ok, f"{checked} groups")
    assert not bad, bad


def test_criterion_6_fitting_oracle():
    from nacent import fitting_subgroup
    from oracles import naive_fitting
    bad = []
    checked = 0
    for spec in builtin_catalog(100):
        G = build(spec.name)
        if G.order > 100:
            continue
        checked += 1
        got = set(fitting_subgroup(G).members().tolist())
        if got != naive_fitting(table_of(G)):
            bad.append(spec.name)
    ok = not bad
    report_line(6, "Fitting subgroup equals brute-force normal-nilpotent join "
                   "(order <= 100)", ok, f"{checked} groups")
    assert not bad, bad


def test_criterion_7_partition_machinery(sweep):
    records, _ = sweep
    bad = []
    for r in records:
        if r["category"] == "two_nacent":
            part = r["case_data"]["partition"]
            if not part.get("exists"):
                bad.append(r["group_id"])

    s3 = build("symmetric(3)")
    part = centralizer_partition(s3)
    ok_s3 = (part is not None and len(part.components) == 4
             and is_partition(part.quotient, part.components)
             and is_normal_partition(part))

    q8 = build("dicyclic(2)")
    part = centralizer_partition(q8)
    ok_q8 = (part is not None and len(part.components) == 3
             and part.quotient.order == 4
             and is_partition(part.quotient, part.components)
             and is_normal_partition(part))

    ok = not bad and ok_s3 and ok_q8
    report_line(7, "centralizer partition exists on two-nacent groups; "
                   "S3 -> 4 components, Q8/Z -> 3", ok)
    assert not bad, bad
    assert ok_s3 and ok_q8


def test_criterion_8_roundtrip_and_validation(tmp_path):
    fixtures = ["cyclic(1)", "cyclic(7)", "symmetric(3)", "symmetric(4)",
                "dicyclic(2)", "dihedral(6)", "heisenberg(3)", "agl1(5)",
                "sl23", "direct_product(cyclic(2),dihedral(4))"]
    stable = 0
    for i, spec in enumerate(fixtures):
        G = build(spec)
        p1 = tmp_path / f"g{i}a.json"
        p2 = tmp_path / f"g{i}b.json"
        save_group(G, p1)
        save_group(load_group(p1), p2)
        if p1.read_bytes() == p2.read_bytes():
            stable += 1

    rejected = False
    law = ""
    table = [[int(v) for v in row] for row in build("symmetric(3)").table]
    table[4][5] = table[4][4]  # mutate one entry
    try:
        from_cayley_table(table)
    except NotAGroup as exc:
        rejected = True
        law = exc.law
    ok = stable == len(fixtures) and rejected and bool(law)
    report_line(8, "save/load round-trip byte-stable; corrupted table rejected",
                ok, f"{stable}/{len(fixtures)} stable, law={law!r}")
    assert stable == len(fixtures)
    assert rejected and law


def test_criterion_9_reference_outputs_byte_identical(sweep):
    records, _ = sweep
    ids = {s.name for s in builtin_catalog(200)}
    catalog = [r for r in records if r["group_id"] in ids]
    expected = {
        "sweep200.jsonl": catalog + [_summary_record(catalog)],
        "hf13_3.jsonl": [r for r in records if r["group_id"] == "heisenberg_frobenius(13,3)"],
    }
    bad = []
    for name, recs in expected.items():
        want = (REFERENCE / name).read_text(encoding="utf-8").splitlines()
        got = [json.dumps(r, sort_keys=True) for r in recs]
        if len(got) != len(want):
            bad.append(f"{name}: {len(got)} lines, reference has {len(want)}")
        bad += [r["group_id"] for r, line, ref in zip(recs, got, want) if line != ref]
    report_line(9, "records equal the committed reference outputs byte for byte",
                not bad, f"{len(catalog) + 2} lines")
    assert not bad, bad


def test_order_limit_heisenberg_frobenius_19_3(analyze_fresh):
    """The largest group the suite analyzes: order 20577, whose int16 table
    is 808 MiB. A whole `analyze` run in a fresh interpreter exits 0 within
    the acceptance time gate, and peaks within 1.1 tables beyond the floor
    of an interpreter that has only imported nacent.cli."""
    code, elapsed, tables = analyze_fresh("heisenberg_frobenius(19,3)", 21000)
    ok = code == 0 and elapsed < 30.0 and tables <= 1.1
    report_line(10, "order 20577 analyzed within 30 s and 1.1 tables", ok,
                f"exit {code}, {elapsed:.1f} s, {tables:.3f} tables")
    assert ok, (code, elapsed, tables)


def case_a_group_p2():
    """Order 128: N = <x, y | x^8 = y^8 = 1, y^-1 x y = x^5> (element k*8 + h
    is x^k y^h), extended by the involution x^k y^h -> x^-k y^-h."""
    N = semidirect_product(cyclic(8), cyclic(8), {1: [5 * k % 8 for k in range(8)]})
    sigma = [(-k % 8) * 8 + (-h % 8) for k in range(8) for h in range(8)]
    return semidirect_product(N, cyclic(2), {1: sigma})


def case_a_group_p3():
    """Order 243: N is the pairs (i, j) mod 9 with (i,j)(k,l) =
    (i+k-6jk, j+l-3jk), where (i, j) = x^i y^j for x = (1,0), y = (0,1);
    extended by the automorphism of order 3 x -> y, y -> x^-1 y^-1."""
    i, j = np.divmod(np.arange(81), 9)
    N = from_cayley_table((i[:, None] + i - 6 * j[:, None] * i) % 9 * 9
                          + (j[:, None] + j - 3 * j[:, None] * i) % 9)
    x, y = 9, 1
    w = N.mul(N.inv(x), N.inv(y))
    sigma = [N.mul(N.power(y, a), N.power(w, b)) for a in range(9) for b in range(9)]
    return semidirect_product(N, cyclic(3), {1: sigma})


@pytest.mark.parametrize("make, p, order",
                         [(case_a_group_p2, 2, 128), (case_a_group_p3, 3, 243)])
def test_case_a_real_groups(make, p, order):
    """Two p-groups with exactly two non-abelian centralizers, in case A only.

    Consequences c and d are pinned at their computed values, False, which
    does not settle whether the paper claims them for case A: G/Z is a
    p-group, so F(G) = G and F(G/Z) = G/Z, neither of which is the proper
    subgroup C(a) or its image."""
    rep = full_report(make())
    center = {128: 4, 243: 3}[order]
    ca = order // p  # C(a) = N, of index p
    assert (rep.order, rep.center_order, rep.case_data["ca_size"]) == (order, center, ca)
    assert rep.category == "two_nacent" and rep.case == "A"
    data = rep.case_data
    assert data["p"] == p and data["matched_cases"] == ["A"]
    assert data["iff"]["forward_ok"] and data["iff"]["converse_ok"]
    assert list(data["validation"].values()) == [True] * 4
    cons = rep.consequences
    assert all(cons[k] for k in ("a", "b", "e", "f", "normal_ca", "ca_group"))
    assert data["counting"]["formula_ca_over_z"] is True
    assert data["counting"]["formula_g_over_p"] is False
    assert cons["c"] is False and cons["d"] is False
    # each violation names the orders it was decided on
    assert rep.violations == [
        f"consequence c failed: |F(G/Z)| = {order // center}, |C(a)/Z| = {ca // center}",
        f"consequence d failed: |F(G)| = {order}, |C(a)| = {ca}",
    ]
