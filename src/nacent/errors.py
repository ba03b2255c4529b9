"""Exception types raised across the package."""

from __future__ import annotations


class NacentError(Exception):
    """Base class for all package errors."""


class NotAGroup(NacentError):
    """A multiplication table violates a group law.

    `law` names the first violated law; `witness` is an index tuple
    exhibiting the violation (empty for shape problems).
    """

    def __init__(self, law: str, witness: tuple = (), detail: str = ""):
        self.law = law
        self.witness = witness
        msg = f"not a group: {law} fails"
        if witness:
            msg += f" at {witness}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class OrderLimitExceeded(NacentError):
    """A construction would exceed the configured maximum group order."""


class InvalidPermutation(NacentError):
    """A generator is not a bijection on the stated points."""


class NotNormal(NacentError):
    """A quotient was requested by a non-normal subgroup."""


class ParentMismatch(NacentError):
    """Two subgroups of different parent groups were combined."""


class NotNilpotent(NacentError):
    """A decomposition that requires nilpotency was applied to a
    non-nilpotent group."""


class AbelianGroup(NacentError):
    """An operation defined only for non-abelian groups got an abelian one."""


class InvalidParams(NacentError):
    """Constructor parameters are out of range or inconsistent."""


class InvalidAction(NacentError):
    """A semidirect-product action is not an automorphism or does not
    extend to a homomorphism."""


class ParseError(NacentError):
    """A group file or spec string could not be parsed."""

    def __init__(self, message: str, path: str | None = None, field: str | None = None):
        self.path = path
        self.field = field
        loc = "".join(p for p in (path and f"{path}: ", field and f"field '{field}': ") if p)
        super().__init__(loc + message)

