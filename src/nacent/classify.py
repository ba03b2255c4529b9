"""The two-non-abelian-centralizer classifier and its consequence checks.

Every step reads the distinct centralizers from the memoized
`subgroups.centralizer_table`: |Cent(G)| is its class count, the
non-abelian centralizers are its non-abelian classes, and C(x) is
`masks[elem_class[x]]`. The facts about C(a) itself (|Cent(C(a))|, its
CA flag, its P x A split) are read from the same table through
`subgroups.subgroup_centralizers`, without tabling C(a) on its own, and
the images C(x)/Z in G/Z from `partitions.centralizer_images`, which the
centralizer partition reads too.

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
    _union_outside,
    _validate_frobenius,
    center_quotient,
    centralizer_images,
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


def _sides(G: FiniteGroup, ct: CentralizerTable,
           a: int) -> tuple[Subgroup, Subgroup, list[int], list[int]]:
    """C(a), its image C(a)/Z in G/Z, the classes inside C(a) other than
    class 0 (the center's, C(x) = G), and the classes outside C(a), each
    in ascending order of witness.

    x lies in C(a) iff a lies in C(x), so a class of equal centralizers lies
    wholly inside C(a) or wholly outside it, on the side of its witness.
    """
    cls = ct.elem_class[a]
    Ca = Subgroup(G, ct.masks[cls])
    img_ca = Subgroup(center_quotient(G).quotient, centralizer_images(G)[cls])
    inner: list[int] = []
    outer: list[int] = []
    for c, w in enumerate(ct.witnesses[1:], 1):
        (inner if Ca.mask >> w & 1 else outer).append(c)
    return Ca, img_ca, inner, outer


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
    Ca, img_ca, _, outer = _sides(G, ct, a)
    Q = img_ca.parent
    zsize = center_mask(G).bit_count()
    ca_is_ca = is_ca_group(Ca)

    def hughes_checks(r: int) -> dict[str, bool]:
        # the Hughes subgroup H_r(Q) is the image of C(a), every centralizer
        # outside C(a) has order r over the center, and C(a) is a CA-group
        return {
            "hughes_is_ca_image": hughes_subgroup(Q, r).mask == img_ca.mask,
            "outside_order_p": all(ct.masks[c].bit_count() == r * zsize for c in outer),
            "ca_group": ca_is_ca,
        }

    # case A: central quotient is a non-abelian p-group of exponent > p,
    # and the image of C(a) has index p in it and passes the Hughes checks.
    p = is_p_group(Q)
    checks_a = {"quotient_p_group": p is not None and not is_abelian(Q)}
    data_a = {"p": p} if checks_a["quotient_p_group"] else {}
    if checks_a["quotient_p_group"]:
        checks_a["exponent_gt_p"] = exponent(Q) > p
        checks_a["hughes_index_p"] = Q.order == p * img_ca.size
        checks_a.update(hughes_checks(p))

    # case B: the image of C(a) has prime index q in a central quotient
    # that is not a q-group, and passes the Hughes checks at q. Only the
    # index can be that prime, since H_q(Q) has index q. (p is the prime Q
    # is a p-group of, if any, from case A.)
    q = Q.order // img_ca.size
    checks_b = {"ca_image_prime_index": is_prime(q) and p != q}
    data_b = {"p": q} if checks_b["ca_image_prime_index"] else {}
    if checks_b["ca_image_prime_index"]:
        checks_b.update(hughes_checks(q))

    # case C: central quotient is Frobenius with kernel the image of C(a)
    # and some outside centralizer image a cyclic complement. A complement
    # that `_validate_frobenius` accepts makes Q a Frobenius group whose
    # kernel, the elements in no conjugate of it, is the image of C(a).
    checks_c = {"ca_image_normal": is_normal(Q, img_ca)}
    data_c: dict[str, Any] = {}
    if checks_c["ca_image_normal"]:
        x = _cyclic_complement_witness(ct, centralizer_images(G), img_ca, outer)
        checks_c["cyclic_complement_witness"] = x is not None
        checks_c["ca_group"] = ca_is_ca
        if x is not None:
            data_c = {"kernel_size": img_ca.size, "complement_size": q, "x": x}

    # a case matches when its first check lets the others run and all hold
    return tuple(CaseCheck(name, len(checks) > 1 and all(checks.values()), checks, data)
                 for name, checks, data in (("A", checks_a, data_a), ("B", checks_b, data_b),
                                            ("C", checks_c, data_c)))


def _cyclic_complement_witness(ct, images, img_ca, outer) -> int | None:
    """Least x outside C(a) whose centralizer image is a valid cyclic
    complement, trying the witnesses of the outside classes in ascending
    order. `_validate_frobenius` rejects a wrong order or a non-trivial
    meet with the kernel first."""
    Q = img_ca.parent
    for c in outer:
        img_cx = Subgroup(Q, images[c])
        if is_cyclic(img_cx) and _validate_frobenius(Q, img_ca, img_cx):
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
    Ca, img_ca, inner, outer = _sides(G, ct, a)
    z = center_mask(G)

    # structural facts that must hold whenever |nacent| = 2
    outside = [ct.masks[c] for c in outer]
    validation = {
        "ca_normal": is_normal(G, Ca),
        "inner_centralizers_inside_ca": all(ct.masks[c] & ~Ca.mask == 0 for c in inner),
        "outside_meet_ca_in_center": all(m & Ca.mask == z for m in outside),
        "outside_pairwise_meet_in_center": _union_outside(z, outside) is not None,
    }
    report.case = case.name
    report.case_data.update(case.data, ca_size=Ca.size, witness_a=a,
                            matched_cases=list(by_name), validation=validation)
    report.violations += [f"validation: {name} failed"
                          for name, flag in validation.items() if not flag]

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
    counting = {
        "cent_ca": cent_ca,
        "g_over_p": g_over_p,
        "ca_over_z": kernel_sz,
        "formula_g_over_p": f_gp,
        "formula_ca_over_z": f_k,
    }

    # each consequence as (verdict, the orders it was decided on)
    derived = commutator_subgroup(G).mask
    fit_q = fitting_subgroup(img_ca.parent)
    fit = fitting_subgroup(G)
    # (e) C(a) splits as P x A
    try:
        split = (decompose_p_times_abelian(Ca) is not None,
                 f"C(a) of order {Ca.size} has no P x A split")
    except NotNilpotent:
        split = False, f"C(a) of order {Ca.size} is not nilpotent"
    not_normal = f"C(a) of order {Ca.size} is not normal"
    # (f) G/C(a) is cyclic, which asks for C(a) normal first
    if validation["ca_normal"]:
        top = quotient(G, Ca).quotient
        cyclic_top = is_cyclic(top), f"G/C(a) of order {top.order} is not cyclic"
    else:
        cyclic_top = False, not_normal
    consequences = {
        "a": (bool(f_k or f_gp),
              f"|Cent(G)| = {report.cent_count}, |Cent(C(a))| = {cent_ca}, "
              f"|C(a)/Z| = {kernel_sz}" + (f", |G|/p = {g_over_p}" if g_over_p else "")),
        # (b) commutator subgroup inside C(a)
        "b": (derived & ~Ca.mask == 0,
              f"|G'| = {derived.bit_count()}, |G' & C(a)| = {(derived & Ca.mask).bit_count()}"),
        # (c) image of C(a) is the Fitting subgroup of G/Z
        "c": (fit_q.mask == img_ca.mask, f"|F(G/Z)| = {fit_q.size}, |C(a)/Z| = {img_ca.size}"),
        # (d) C(a) is the Fitting subgroup of G
        "d": (fit.mask == Ca.mask, f"|F(G)| = {fit.size}, |C(a)| = {Ca.size}"),
        "e": split,
        "f": cyclic_top,
        "normal_ca": (validation["ca_normal"], not_normal),
        # every case requires C(a) to be a CA-group, so this holds once matched
        "ca_group": (case.checks["ca_group"],
                     f"C(a) of order {Ca.size} has a non-abelian centralizer "
                     f"of a non-central element"),
    }
    report.consequences.update((key, verdict) for key, (verdict, _) in consequences.items())
    report.violations += [f"consequence {key} failed: {evidence}"
                          for key, (verdict, evidence) in consequences.items() if verdict is False]
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
        failed = "; ".join(f"{c.name}: " + ", ".join(k for k, ok in c.checks.items() if not ok)
                           for a in _candidates(ct) for c in evaluate_cases(G, a))
        report.violations.append(
            f"forward: {G.name!r}: |nacent| = 2 but no structural case matches ({failed})")
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
