"""Distinct centralizers, the two-non-abelian-centralizer classifier, and
its consequence checks.

`cent_stats` computes the set of distinct element centralizers and its
non-abelian subset. `classify` sorts a group into abelian / CA /
two-nacent (with a structural case) / many-nacent.

Reports come from one pipeline: a base report with `classify` applied once,
then the steps that check both directions of the case characterization
(`_check_iff`), the derived structural facts of a two-nacent group
(`_check_consequences`) and the centralizer partition of G/Z
(`partition_diagnostics`), each writing into that same report.
`full_report` runs every step; `verify_iff` and `verify_consequences` run
the base report and one step each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import NotNilpotent, TheoremViolation
from .groups import FiniteGroup, exponent, memoized
from .partitions import (
    NORMAL_ENUM_CAP,
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
    primes_dividing,
)
from .subgroups import (
    Subgroup,
    bool_of,
    center_mask,
    centralizer_table,
    commutator_subgroup,
    is_normal,
    quotient,
    subgroup_as_group,
)

CATEGORY_ABELIAN = "abelian"
CATEGORY_CA = "ca"
CATEGORY_TWO_NACENT = "two_nacent"
CATEGORY_MANY_NACENT = "many_nacent"

CASES = ("A", "B", "C")


@dataclass(frozen=True)
class CentStats:
    """Distinct centralizers of a group, non-abelian ones flagged.

    Centralizers are numbered by least witness element; `cent[i]` is the
    centralizer whose least witness is `witnesses[i]`.
    """

    group: FiniteGroup
    cent: tuple[Subgroup, ...]
    witnesses: tuple[int, ...]
    abelian: tuple[bool, ...]
    elem_class: np.ndarray

    @property
    def cent_count(self) -> int:
        return len(self.cent)

    @property
    def nacent(self) -> tuple[Subgroup, ...]:
        return tuple(c for c, ab in zip(self.cent, self.abelian) if not ab)

    @property
    def nacent_count(self) -> int:
        return sum(1 for ab in self.abelian if not ab)

    def witness_map(self) -> dict[int, int]:
        """mask of each distinct centralizer -> least element realizing it."""
        return {c.mask: w for c, w in zip(self.cent, self.witnesses)}

    def centralizer_of(self, x: int) -> Subgroup:
        return self.cent[int(self.elem_class[x])]


def cent_stats(G: FiniteGroup) -> CentStats:
    """Compute C(x) for every x, deduplicated by bitset."""
    ct = centralizer_table(G)
    subs = tuple(Subgroup(G, m) for m in ct.masks)
    return CentStats(group=G, cent=subs, witnesses=ct.witnesses,
                     abelian=ct.abelian, elem_class=ct.elem_class)


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
def _standalone(G: FiniteGroup, H: Subgroup) -> FiniteGroup:
    return subgroup_as_group(H)[0]


@memoized
def _ca_flag(G: FiniteGroup, H: Subgroup) -> bool:
    return is_ca_group(_standalone(G, H))


@memoized
def evaluate_cases(G: FiniteGroup, a: int) -> tuple[CaseCheck, ...]:
    """Test the three structural hypothesis sets against candidate a.

    The candidate's centralizer must be proper; each case's full
    hypothesis set is evaluated independently of how many non-abelian
    centralizers the group actually has, so the same evaluation serves
    both directions of the characterization.
    """
    stats = cent_stats(G)
    Ca = stats.centralizer_of(a)
    qm = center_quotient(G)
    Q = qm.quotient
    img_ca = qm.image(Ca)
    zsize = center_mask(G).bit_count()
    sizes = np.array([c.size for c in stats.cent], dtype=np.int64)
    elem_sizes = sizes[stats.elem_class]
    outside = ~Ca.member_bool()
    ca_is_ca = _ca_flag(G, Ca)

    def outside_small(p: int) -> bool:
        return bool((elem_sizes[outside] == p * zsize).all())

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

    # case B: central quotient has a proper Hughes subgroup for a prime p
    # it is not a p-group of, that Hughes subgroup is the image of C(a).
    checks = {}
    data = {}
    matched_p = None
    for q in primes_dividing(Q.order):
        if is_p_group(Q) == q:
            continue
        hq = hughes_subgroup(Q, q)
        if hq.size == Q.order or hq.mask != img_ca.mask:
            continue
        sub_checks = {
            "hughes_proper": True,
            "hughes_is_ca_image": True,
            "hughes_index_p": Q.order == q * hq.size,
            "outside_order_p": outside_small(q),
            "ca_group": ca_is_ca,
        }
        if all(sub_checks.values()):
            matched_p = q
            checks = sub_checks
            data = {"p": q}
            break
        if not checks:
            checks = sub_checks
            data = {"p": q}
    if not checks:
        checks = {"hughes_is_ca_image": False}
    results.append(CaseCheck("B", matched_p is not None, checks, data))

    # case C: central quotient is Frobenius with kernel the image of C(a)
    # and some outside centralizer image a cyclic complement. A complement
    # that `_validate_frobenius` accepts makes Q a Frobenius group whose
    # kernel, the elements in no conjugate of it, is the image of C(a).
    checks = {}
    data = {}
    checks["ca_image_normal"] = is_normal(Q, img_ca)
    if checks["ca_image_normal"]:
        witness_x = _cyclic_complement_witness(G, stats, qm, img_ca, Ca)
        checks["cyclic_complement_witness"] = witness_x is not None
        if witness_x is not None:
            data["kernel_size"] = img_ca.size
            data["complement_size"] = Q.order // img_ca.size
            data["x"] = witness_x
        checks["ca_group"] = ca_is_ca
    results.append(CaseCheck("C", len(checks) > 1 and all(checks.values()), checks, data))

    return tuple(results)


def _cyclic_complement_witness(G, stats, qm, img_ca, Ca) -> int | None:
    """Least x outside C(a) whose centralizer image is a valid cyclic
    complement, trying one witness per distinct outside centralizer."""
    Q = qm.quotient
    m = Q.order // img_ca.size if img_ca.size else 0
    outside_members = np.nonzero(~Ca.member_bool())[0]
    if outside_members.size == 0 or m == 0:
        return None
    candidates = [int(outside_members[0])]
    seen_classes = {int(stats.elem_class[candidates[0]])}
    for x in outside_members[1:]:
        cid = int(stats.elem_class[x])
        if cid not in seen_classes:
            seen_classes.add(cid)
            candidates.append(int(x))
    for x in candidates:
        img_cx = qm.image(stats.centralizer_of(x))
        if img_cx.size != m or not is_cyclic(img_cx):
            continue
        if img_cx.mask & img_ca.mask != 1:
            continue
        if _validate_frobenius(Q, img_ca, img_cx):
            return x
    return None


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    """Category of a group under the centralizer-structure taxonomy."""

    category: str
    case: str | None = None
    witness_a: int | None = None
    nacent_count: int = 0
    matched_cases: tuple[str, ...] = ()
    case_data: dict[str, Any] = field(default_factory=dict)
    validation: dict[str, bool] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "category": self.category,
            "case": self.case,
            "witness_a": self.witness_a,
            "nacent_count": self.nacent_count,
            "matched_cases": list(self.matched_cases),
            "case_data": dict(self.case_data),
            "validation": dict(self.validation),
        }


def _candidates(stats: CentStats) -> list[tuple[Subgroup, int]]:
    """Witnesses of proper non-abelian centralizers."""
    return [(c, w) for c, w, ab in zip(stats.cent, stats.witnesses, stats.abelian)
            if not ab and not c.is_whole()]


@memoized
def classify(G: FiniteGroup) -> Classification:
    """Sort G into abelian / CA / two-nacent (case A, B or C) / many-nacent.

    Raises TheoremViolation when exactly two non-abelian centralizers
    exist but no structural case matches: that would contradict the
    verified characterization, so it is an error, not a category.
    """
    stats = cent_stats(G)
    nac = stats.nacent_count
    if is_abelian(G):
        return Classification(category=CATEGORY_ABELIAN, nacent_count=0)
    if nac == 1:
        return Classification(category=CATEGORY_CA, nacent_count=1)
    if nac != 2:
        # converse guard: a fully matching case hypothesis would force
        # exactly two non-abelian centralizers
        for _, a in _candidates(stats):
            for check in evaluate_cases(G, a):
                if check.matched:
                    raise TheoremViolation(
                        f"{G.name!r}: case {check.name} hypothesis holds for "
                        f"a={a} but |nacent| = {nac}",
                        report={"a": a, "case": check.name},
                        direction="converse")
        return Classification(category=CATEGORY_MANY_NACENT, nacent_count=nac)

    proper = _candidates(stats)
    if len(proper) != 1:
        raise TheoremViolation(
            f"{G.name!r}: two non-abelian centralizers but no proper one")
    Ca, a = proper[0]
    cases = evaluate_cases(G, a)
    matched = tuple(c.name for c in cases if c.matched)
    if not matched:
        raise TheoremViolation(
            f"{G.name!r}: |nacent| = 2 but no structural case matches",
            report={"cases": {c.name: c.checks for c in cases}})
    # The Hughes-type and Frobenius hypotheses can hold simultaneously; the
    # case analysis resolves a Frobenius central quotient first, so C takes
    # precedence over B. A p-group quotient excludes both other cases.
    by_name = {c.name: c for c in cases}
    first = next(by_name[name] for name in ("A", "C", "B") if by_name[name].matched)
    case_data = dict(first.data)
    case_data["ca_size"] = Ca.size
    validation = _two_nacent_validation(G, stats, Ca, a)
    return Classification(
        category=CATEGORY_TWO_NACENT,
        case=first.name,
        witness_a=a,
        nacent_count=2,
        matched_cases=matched,
        case_data=case_data,
        validation=validation,
    )


def _two_nacent_validation(G: FiniteGroup, stats: CentStats,
                           Ca: Subgroup, a: int) -> dict[str, bool]:
    """Structural facts that must hold whenever |nacent| = 2."""
    z = center_mask(G)
    out: dict[str, bool] = {}
    out["ca_normal"] = is_normal(G, Ca)

    inner = Ca.mask & ~z
    inner_classes = {int(stats.elem_class[x])
                     for x in np.nonzero(bool_of(inner, G.order))[0]}
    out["inner_centralizers_inside_ca"] = all(
        stats.cent[c].mask & ~Ca.mask == 0 for c in inner_classes)

    outside = [stats.cent[c].mask for c in np.unique(stats.elem_class[~Ca.member_bool()])]
    out["outside_meet_ca_in_center"] = all(m & Ca.mask == z for m in outside)
    out["outside_pairwise_meet_in_center"] = _meet_pairwise_in(z, outside)
    return out


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
        return {
            "group_id": self.group_id,
            "order": self.order,
            "center_order": self.center_order,
            "cent_count": self.cent_count,
            "nacent_count": self.nacent_count,
            "category": self.category,
            "case": self.case,
            "case_data": self.case_data,
            "consequences": self.consequences,
            "violations": list(self.violations),
        }


_CONSEQUENCE_KEYS = ("a", "b", "c", "d", "e", "f", "normal_ca", "ca_group")


def _classified_report(G: FiniteGroup,
                       group_id: str | None) -> tuple[VerificationReport, Classification | None]:
    """The base report with `classify` applied: category, case data and
    failed validations, or the TheoremViolation it raised as a violation."""
    stats = cent_stats(G)
    report = VerificationReport(
        group_id=group_id or G.name,
        order=G.order,
        center_order=center_mask(G).bit_count(),
        cent_count=stats.cent_count,
        nacent_count=stats.nacent_count,
        category="",
        case=None,
    )
    try:
        cls = classify(G)
    except TheoremViolation as exc:
        report.category = (CATEGORY_TWO_NACENT if report.nacent_count == 2
                           else CATEGORY_MANY_NACENT)
        report.violations.append(f"{exc.direction}: {exc}")
        return report, None
    report.category = cls.category
    report.case = cls.case
    report.case_data.update(cls.case_data)
    if cls.category == CATEGORY_TWO_NACENT:
        report.case_data["witness_a"] = cls.witness_a
        report.case_data["matched_cases"] = list(cls.matched_cases)
        report.case_data["validation"] = dict(cls.validation)
        for name, flag in cls.validation.items():
            if not flag:
                report.violations.append(f"validation: {name} failed")
    return report, cls


def _check_iff(G: FiniteGroup, report: VerificationReport) -> None:
    """Both directions of the characterization, into ``case_data["iff"]``.

    Forward: exactly two non-abelian centralizers implies one of the
    structural cases matches (`classify` raised otherwise). Converse: a full
    case hypothesis holding for any candidate (a witness of a proper
    non-abelian centralizer) implies exactly two non-abelian centralizers.
    """
    stats = cent_stats(G)
    forward_ok = not any(v.startswith("forward:") for v in report.violations)
    converse_ok = not any(v.startswith("converse:") for v in report.violations)
    matched_candidates: list[dict[str, Any]] = []
    candidates = _candidates(stats)
    for _, a in candidates:
        for check in evaluate_cases(G, a):
            if check.matched:
                matched_candidates.append({"a": a, "case": check.name})
                if stats.nacent_count != 2 and converse_ok:
                    converse_ok = False
                    report.violations.append(
                        f"converse: case {check.name} hypothesis holds for a={a} "
                        f"but |nacent| = {stats.nacent_count}")
    report.case_data["iff"] = {
        "forward_ok": forward_ok,
        "converse_ok": converse_ok,
        "candidates_checked": len(candidates),
        "matched": matched_candidates,
    }


def _check_consequences(G: FiniteGroup, report: VerificationReport,
                        cls: Classification | None) -> None:
    """The derived structural facts of a two-nacent group, into
    ``consequences`` and ``case_data["counting"]``. For other categories
    every consequence is None (not applicable) and there is no counting.
    Failures are recorded as report violations."""
    report.consequences = {k: None for k in _CONSEQUENCE_KEYS}
    if cls is None or cls.category != CATEGORY_TWO_NACENT:
        return

    stats = cent_stats(G)
    Ca = stats.centralizer_of(cls.witness_a)
    qm = center_quotient(G)
    Q = qm.quotient
    img_ca = qm.image(Ca)
    cons = report.consequences

    # (a) counting: |Cent(G)| equals |Cent(C(a))| plus the number of
    # outside centralizers plus one, where that number is |G|/p for the
    # Hughes cases and |C(a)/Z| in general.
    sub_ca = _standalone(G, Ca)
    cent_ca = cent_stats(sub_ca).cent_count
    p = cls.case_data.get("p")
    if p is None:
        # Frobenius case: the complement order plays the prime's role when
        # it is one; both formula variants are still reported.
        comp = cls.case_data.get("complement_size")
        if comp and is_prime(comp):
            p = comp
    g_over_p = G.order // p if p else None
    kernel_sz = img_ca.size
    f_gp = (report.cent_count == cent_ca + g_over_p + 1) if g_over_p else None
    f_k = report.cent_count == cent_ca + kernel_sz + 1
    cons["a"] = bool(f_k or f_gp)
    report.case_data["counting"] = {
        "cent_ca": cent_ca,
        "g_over_p": g_over_p,
        "ca_over_z": kernel_sz,
        "formula_g_over_p": f_gp,
        "formula_ca_over_z": f_k,
    }

    # (b) commutator subgroup inside C(a)
    cons["b"] = commutator_subgroup(G).mask & ~Ca.mask == 0

    # (c) image of C(a) is the Fitting subgroup of G/Z
    cons["c"] = fitting_subgroup(Q).mask == img_ca.mask

    # (d) C(a) is the Fitting subgroup of G
    cons["d"] = fitting_subgroup(G).mask == Ca.mask

    # (e) C(a) splits as P x A
    try:
        cons["e"] = decompose_p_times_abelian(sub_ca) is not None
    except NotNilpotent:
        cons["e"] = False

    # (f) G/C(a) cyclic (requires normality first)
    cons["normal_ca"] = is_normal(G, Ca)
    if cons["normal_ca"]:
        cons["f"] = is_cyclic(quotient(G, Ca).quotient)
    else:
        cons["f"] = False

    cons["ca_group"] = _ca_flag(G, Ca)

    for key in _CONSEQUENCE_KEYS:
        if cons[key] is False:
            report.violations.append(f"consequence {key} failed")


def verify_iff(G: FiniteGroup, group_id: str | None = None) -> VerificationReport:
    """The classified report with both directions of the two-nacent
    characterization checked (see `_check_iff`). Violations are recorded in
    the report, never raised."""
    report, _ = _classified_report(G, group_id)
    _check_iff(G, report)
    return report


def verify_consequences(G: FiniteGroup, group_id: str | None = None) -> VerificationReport:
    """The classified report with the derived structural facts of a
    two-nacent group checked (see `_check_consequences`)."""
    report, cls = _classified_report(G, group_id)
    _check_consequences(G, report, cls)
    return report


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
    Q = part.quotient
    diag["component_count"] = len(part.components)
    diag["component_sizes"] = sorted(c.size for c in part.components)
    diag["is_normal"] = is_normal_partition(Q, part)
    witness = is_nonsimple_partition(Q, part)
    diag["normal_enumeration_complete"] = Q.order <= NORMAL_ENUM_CAP
    diag["nonsimple_witness_size"] = witness.size if witness else None
    elem = is_elementary_partition(Q, part)
    diag["elementary"] = {"k_size": elem[0].size, "p": elem[1]} if elem else None
    diag["frobenius"] = is_frobenius_partition(Q, part)
    return diag


def full_report(G: FiniteGroup, group_id: str | None = None) -> VerificationReport:
    """Classification, both characterization directions, consequences and
    partition diagnostics in one report, from one classification."""
    report, cls = _classified_report(G, group_id)
    _check_iff(G, report)
    _check_consequences(G, report, cls)
    report.case_data.setdefault("counting", None)
    report.case_data["partition"] = partition_diagnostics(G)
    return report
