"""Exception types raised across the package."""

from __future__ import annotations


def excerpt(text: str, pos: int = 0) -> str:
    """At most 40 characters of text around pos, with "..." where cut, for
    quoting an input of any length in an error message."""
    start = max(0, min(pos - 20, len(text) - 40))
    return ("..." if start else "") + text[start:start + 40] + (
        "..." if start + 40 < len(text) else "")


def excerpt_int(n: int) -> str:
    """n in decimal, cut to 37 characters and "..." past 40. The digits past
    the leading ones are divided off first, since str() refuses an int of
    more than 4300 digits."""
    m = abs(n)
    cut = max(0, (m.bit_length() - 1) * 30102 // 100000 - 40)  # leaves over 40 digits
    text = "-" * (n < 0) + str(m // 10**cut)
    return text if len(text) <= 40 else text[:37] + "..."


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

