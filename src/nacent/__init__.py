"""Centralizer-structure analysis for finite groups.

Groups are explicit Cayley tables; subgroups are bitsets over element
indices. The package computes the set of distinct element centralizers,
flags the non-abelian ones, classifies groups with exactly two
non-abelian centralizers into three structural cases over the central
quotient, and verifies the derived consequences across a built-in corpus.
"""

from .classify import VerificationReport, full_report
from .corpus import (
    GroupSpec,
    agl1,
    alternating,
    build,
    builtin_catalog,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    heisenberg,
    heisenberg_frobenius,
    load_group,
    save_group,
    semidirect_cyclic,
    semidirect_product,
    sl23,
    symmetric,
)
from .errors import (
    AbelianGroup,
    InvalidAction,
    InvalidParams,
    InvalidPermutation,
    NacentError,
    NotAGroup,
    NotNilpotent,
    NotNormal,
    OrderLimitExceeded,
    ParentMismatch,
    ParseError,
)
from .groups import FiniteGroup, element_orders, exponent, from_cayley_table, from_permutations
from .partitions import (
    Partition,
    centralizer_partition,
    is_elementary_partition,
    is_frobenius_partition,
    is_nonsimple_partition,
    is_normal_partition,
    is_partition,
)
from .predicates import (
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
from .subgroups import (
    CentralizerTable,
    QuotientMap,
    Subgroup,
    center,
    centralizer_table,
    commutator_subgroup,
    is_normal,
    quotient,
    trivial_subgroup,
    whole_subgroup,
)

__version__ = "0.1.0"
