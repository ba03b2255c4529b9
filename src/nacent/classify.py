"""The two-non-abelian-centralizer classifier and its consequence checks.

Every step reads the distinct centralizers from the memoized
`subgroups.centralizer_table`: |Cent(G)| is its class count, the
non-abelian centralizers are its non-abelian classes, and C(x) is
`masks[elem_class[x]]`. The facts about C(a) itself (|Cent(C(a))|, its
CA flag, its P x A split) are read from the same table through
`subgroups.subgroup_centralizers`, without tabling C(a) on its own.

`full_report` is the one entry point and makes one pass. It reads the
category (abelian / CA / two-nacent / many-nacent) from the number of
non-abelian centralizers alone, and tests the three structural cases
(`evaluate_cases`) once for every candidate a, a witness of a proper
non-abelian centralizer. Both directions of the characterization follow
from those two facts. For a two-nacent group with a matching case it
records the case, the structural facts every such group has, and
consequences (a)-(f); for every group the centralizer partition of G/Z
(`partition_diagnostics`). A failed direction, fact or consequence is a
violation in the report, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from .errors import NotNilpotent
from .groups import FiniteGroup, exponent, memoized
from .partitions import (
    _validate_frobenius,
    center_quotient,
    centralizer_partition,
    is_elementary_partition,
    is_frobenius_partition,
    is_nonsimple_partition,
    is_normal_partition,
)
from .predicates import (
    decompose_p_times_abelian,
    fitting_subgroup,
    hughes_subgroup,
    is_abelian,
    is_ca_group,
    is_cyclic,
    is_p_group,
    is_prime,
)
from .subgroups import (
    CentralizerTable,
    Subgroup,
    center_mask,
    centralizer_table,
    commutator_subgroup,
    is_normal,
    quotient,
    subgroup_centralizers,
)

CATEGORY_ABELIAN = "abelian"
CATEGORY_CA = "ca"
CATEGORY_TWO_NACENT = "two_nacent"
CATEGORY_MANY_NACENT = "many_nacent"


def _classes_by_side(ct: CentralizerTable, ca_mask: int) -> tuple[list[int], list[int]]:
    """The classes inside C(a) other than class 0 (the center's, C(x) = G),
    and the classes outside C(a), each in ascending order of witness.

    x lies in C(a) iff a lies in C(x), so a class of equal centralizers lies
    wholly inside C(a) or wholly outside it, on the side of its witness.
    """
    inner: list[int] = []
    outer: list[int] = []
    for c, w in enumerate(ct.witnesses[1:], 1):
        (inner if ca_mask >> w & 1 else outer).append(c)
    return inner, outer


# ---------------------------------------------------------------------------
# case hypothesis evaluation


@dataclass(frozen=True)
class CaseCheck:
    """Outcome of testing one structural case for a candidate element a."""

    name: str
    matched: bool
    checks: dict[str, bool]
    data: dict[str, Any]


@memoized
def evaluate_cases(G: FiniteGroup, a: int) -> tuple[CaseCheck, ...]:
    """Test the three structural hypothesis sets against candidate a.

    The candidate's centralizer must be proper; each case's full
    hypothesis set is evaluated independently of how many non-abelian
    centralizers the group actually has, so the same evaluation serves
    both directions of the characterization.
    """
    ct = centralizer_table(G)
    Ca = Subgroup(G, ct.masks[ct.elem_class[a]])
    qm = center_quotient(G)
    Q = qm.quotient
    img_ca = qm.image(Ca)
    zsize = center_mask(G).bit_count()
    _, outer = _classes_by_side(ct, Ca.mask)
    ca_is_ca = is_ca_group(Ca)

    def outside_small(p: int) -> bool:
        return all(ct.masks[c].bit_count() == p * zsize for c in outer)

    results = []

    # case A: central quotient is a non-abelian p-group of exponent > p,
    # its Hughes subgroup is the image of C(a) at index p, and every
    # centralizer outside C(a) collapses to order p over the center.
    checks: dict[str, bool] = {}
    data: dict[str, Any] = {}
    p = is_p_group(Q)
    checks["quotient_p_group"] = p is not None and not is_abelian(Q)
    if checks["quotient_p_group"]:
        data["p"] = p
        checks["exponent_gt_p"] = exponent(Q) > p
        hp = hughes_subgroup(Q, p)
        checks["hughes_is_ca_image"] = hp.mask == img_ca.mask
        checks["hughes_index_p"] = img_ca.size > 0 and Q.order == p * img_ca.size
        checks["outside_order_p"] = outside_small(p)
        checks["ca_group"] = ca_is_ca
    results.append(CaseCheck("A", all(checks.values()) and len(checks) > 1, checks, data))

    # case B: the image of C(a) has prime index q in a central quotient
    # that is not a q-group, it is the Hughes subgroup H_q(Q), and every
    # centralizer outside C(a) has order q over the center. Only the index
    # can be that prime, since H_q(Q) has index q. (p is the prime Q is a
    # p-group of, if any, from case A.)
    checks = {}
    data = {}
    q = Q.order // img_ca.size
    checks["ca_image_prime_index"] = is_prime(q) and p != q
    if checks["ca_image_prime_index"]:
        data["p"] = q
        checks["hughes_is_ca_image"] = hughes_subgroup(Q, q).mask == img_ca.mask
        checks["outside_order_p"] = outside_small(q)
        checks["ca_group"] = ca_is_ca
    results.append(CaseCheck("B", all(checks.values()) and len(checks) > 1, checks, data))

    # case C: central quotient is Frobenius with kernel the image of C(a)
    # and some outside centralizer image a cyclic complement. A complement
    # that `_validate_frobenius` accepts makes Q a Frobenius group whose
    # kernel, the elements in no conjugate of it, is the image of C(a).
    checks = {}
    data = {}
    checks["ca_image_normal"] = is_normal(Q, img_ca)
    if checks["ca_image_normal"]:
        witness_x = _cyclic_complement_witness(G, ct, qm, img_ca, outer)
        checks["cyclic_complement_witness"] = witness_x is not None
        if witness_x is not None:
            data["kernel_size"] = img_ca.size
            data["complement_size"] = Q.order // img_ca.size
            data["x"] = witness_x
        checks["ca_group"] = ca_is_ca
    results.append(CaseCheck("C", len(checks) > 1 and all(checks.values()), checks, data))

    return tuple(results)


def _cyclic_complement_witness(G, ct, qm, img_ca, outer) -> int | None:
    """Least x outside C(a) whose centralizer image is a valid cyclic
    complement, trying the witnesses of the outside classes in ascending
    order. `_validate_frobenius` rejects a wrong order or a non-trivial
    meet with the kernel first."""
    for c in outer:
        img_cx = qm.image(Subgroup(G, ct.masks[c]))
        if is_cyclic(img_cx) and _validate_frobenius(qm.quotient, img_ca, img_cx):
            return ct.witnesses[c]
    return None


# ---------------------------------------------------------------------------
# classification


def _candidates(ct: CentralizerTable) -> list[int]:
    """Witnesses of the non-abelian classes other than class 0, which is
    C(1) = G: the witnesses of the proper non-abelian centralizers."""
    return [w for w, ab in zip(ct.witnesses[1:], ct.abelian[1:]) if not ab]


def _matches(G: FiniteGroup, ct: CentralizerTable) -> list[tuple[int, CaseCheck]]:
    """(a, check) for each candidate a and each case whose full hypothesis
    holds for it, in candidate order, then case order."""
    return [(a, check) for a in _candidates(ct)
            for check in evaluate_cases(G, a) if check.matched]


def _meet_pairwise_in(z: int, masks) -> bool:
    """True iff every two of the bitsets meet in exactly z, given that each
    contains z: their parts outside z are pairwise disjoint, which is checked
    against their running union in one pass."""
    union = 0
    for m in masks:
        m &= ~z
        if union & m:
            return False
        union |= m
    return True


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class VerificationReport:
    """Per-group verification outcome; serializable to plain JSON types."""

    group_id: str
    order: int
    center_order: int
    cent_count: int
    nacent_count: int
    category: str
    case: str | None
    case_data: dict[str, Any] = field(default_factory=dict)
    consequences: dict[str, Any] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        """The report line: one key per field, in field order, values shared."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


_CONSEQUENCE_KEYS = ("a", "b", "c", "d", "e", "f", "normal_ca", "ca_group")


def _two_nacent_report(G: FiniteGroup, ct: CentralizerTable,
                       matches: list[tuple[int, CaseCheck]],
                       report: VerificationReport) -> dict[str, Any]:
    """Write the case, its data, the validation flags and consequences
    (a)-(f) of a two-nacent group into ``report``, with a violation for each
    failed flag or consequence, the latter with the orders it was decided
    on; return the counting record of consequence (a).

    ``matches`` are the matched cases of the one candidate a. The
    Hughes-type and Frobenius hypotheses can hold simultaneously; the case
    analysis resolves a Frobenius central quotient first, so C takes
    precedence over B. A p-group quotient excludes both other cases.
    """
    a = matches[0][0]
    by_name = {check.name: check for _, check in matches}
    case = next(by_name[name] for name in "ACB" if name in by_name)
    Ca = Subgroup(G, ct.masks[ct.elem_class[a]])
    z = center_mask(G)
    qm = center_quotient(G)
    Q = qm.quotient
    img_ca = qm.image(Ca)

    # structural facts that must hold whenever |nacent| = 2
    inner, outer = _classes_by_side(ct, Ca.mask)
    outside = [ct.masks[c] for c in outer]
    validation = {
        "ca_normal": is_normal(G, Ca),
        "inner_centralizers_inside_ca": all(ct.masks[c] & ~Ca.mask == 0 for c in inner),
        "outside_meet_ca_in_center": all(m & Ca.mask == z for m in outside),
        "outside_pairwise_meet_in_center": _meet_pairwise_in(z, outside),
    }
    report.case = case.name
    report.case_data.update(case.data, ca_size=Ca.size, witness_a=a,
                            matched_cases=list(by_name), validation=validation)
    report.violations += [f"validation: {name} failed"
                          for name, flag in validation.items() if not flag]
    cons = report.consequences

    # (a) counting: |Cent(G)| equals |Cent(C(a))| plus the number of
    # outside centralizers plus one, where that number is |G|/p for the
    # Hughes cases and |C(a)/Z| in general.
    cent_ca = len(subgroup_centralizers(G, Ca.mask))
    p = case.data.get("p")
    if p is None:
        # Frobenius case: the complement order plays the prime's role when
        # it is one; both formula variants are still reported.
        comp = case.data.get("complement_size")
        if comp and is_prime(comp):
            p = comp
    g_over_p = G.order // p if p else None
    kernel_sz = img_ca.size
    f_gp = (report.cent_count == cent_ca + g_over_p + 1) if g_over_p else None
    f_k = report.cent_count == cent_ca + kernel_sz + 1
    cons["a"] = bool(f_k or f_gp)
    evidence = {"a": f"|Cent(G)| = {report.cent_count}, |Cent(C(a))| = {cent_ca}, "
                     f"|C(a)/Z| = {kernel_sz}" + (f", |G|/p = {g_over_p}" if g_over_p else "")}
    counting = {
        "cent_ca": cent_ca,
        "g_over_p": g_over_p,
        "ca_over_z": kernel_sz,
        "formula_g_over_p": f_gp,
        "formula_ca_over_z": f_k,
    }

    # (b) commutator subgroup inside C(a)
    derived = commutator_subgroup(G).mask
    cons["b"] = derived & ~Ca.mask == 0
    evidence["b"] = f"|G'| = {derived.bit_count()}, |G' & C(a)| = {(derived & Ca.mask).bit_count()}"

    # (c) image of C(a) is the Fitting subgroup of G/Z
    fit_q = fitting_subgroup(Q)
    cons["c"] = fit_q.mask == img_ca.mask
    evidence["c"] = f"|F(G/Z)| = {fit_q.size}, |C(a)/Z| = {img_ca.size}"

    # (d) C(a) is the Fitting subgroup of G
    fit = fitting_subgroup(G)
    cons["d"] = fit.mask == Ca.mask
    evidence["d"] = f"|F(G)| = {fit.size}, |C(a)| = {Ca.size}"

    # (e) C(a) splits as P x A
    try:
        cons["e"] = decompose_p_times_abelian(Ca) is not None
        evidence["e"] = f"C(a) of order {Ca.size} has no P x A split"
    except NotNilpotent:
        cons["e"] = False
        evidence["e"] = f"C(a) of order {Ca.size} is not nilpotent"

    # (f) G/C(a) cyclic (requires normality first)
    cons["normal_ca"] = validation["ca_normal"]
    evidence["normal_ca"] = evidence["f"] = f"C(a) of order {Ca.size} is not normal"
    if cons["normal_ca"]:
        top = quotient(G, Ca).quotient
        cons["f"] = is_cyclic(top)
        evidence["f"] = f"G/C(a) of order {top.order} is not cyclic"
    else:
        cons["f"] = False

    cons["ca_group"] = is_ca_group(Ca)
    evidence["ca_group"] = (f"C(a) of order {Ca.size} has a non-abelian centralizer "
                            f"of a non-central element")

    report.violations += [f"consequence {key} failed: {evidence[key]}"
                          for key in _CONSEQUENCE_KEYS if cons[key] is False]
    return counting


def partition_diagnostics(G: FiniteGroup) -> dict[str, Any]:
    """Structure of the centralizer-image partition of G/Z, if it exists."""
    diag: dict[str, Any] = {}
    if is_abelian(G):
        diag["applicable"] = False
        return diag
    diag["applicable"] = True
    part = centralizer_partition(G)
    diag["exists"] = part is not None
    if part is None:
        return diag
    diag["component_count"] = len(part.components)
    diag["component_sizes"] = sorted(c.size for c in part.components)
    diag["is_normal"] = is_normal_partition(part)
    witness = is_nonsimple_partition(part)
    # retired field: the cap of the deleted normal-subgroup enumeration, kept
    # byte-stable until the output change of ROADMAP item 4
    diag["normal_enumeration_complete"] = part.quotient.order <= 2000
    diag["nonsimple_witness_size"] = witness.size if witness else None
    elem = is_elementary_partition(part)
    diag["elementary"] = {"k_size": elem[0].size, "p": elem[1]} if elem else None
    diag["frobenius"] = is_frobenius_partition(part)
    return diag


def full_report(G: FiniteGroup, group_id: str | None = None) -> VerificationReport:
    """Category, both directions of the characterization, the case and its
    consequences, and the partition diagnostics of G, in one report.
    Violations are recorded in the report, never raised."""
    ct = centralizer_table(G)
    nac = ct.abelian.count(False)
    matches = _matches(G, ct)
    report = VerificationReport(
        group_id=group_id or G.name,
        order=G.order,
        center_order=center_mask(G).bit_count(),
        cent_count=len(ct.masks),
        nacent_count=nac,
        # C(1) = G is non-abelian unless G is abelian, and the only
        # non-abelian centralizer iff G is a CA-group
        category=(CATEGORY_ABELIAN, CATEGORY_CA, CATEGORY_TWO_NACENT,
                  CATEGORY_MANY_NACENT)[min(nac, 3)],
        case=None,
        consequences=dict.fromkeys(_CONSEQUENCE_KEYS),
    )
    # forward: exactly two non-abelian centralizers imply a case match;
    # converse: a case match for any candidate implies exactly two
    iff = {
        "forward_ok": bool(matches) or nac != 2,
        "converse_ok": nac == 2 or not matches,
        "candidates_checked": len(_candidates(ct)),
        "matched": [{"a": a, "case": check.name} for a, check in matches],
    }
    counting = None
    if not iff["forward_ok"]:
        report.violations.append(
            f"forward: {G.name!r}: |nacent| = 2 but no structural case matches")
    elif not iff["converse_ok"]:
        a, check = matches[0]
        report.violations.append(
            f"converse: {G.name!r}: case {check.name} hypothesis holds for "
            f"a={a} but |nacent| = {nac}")
    elif nac == 2:
        counting = _two_nacent_report(G, ct, matches, report)
    report.case_data.update(iff=iff, counting=counting,
                            partition=partition_diagnostics(G))
    return report
