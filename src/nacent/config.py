"""Runtime knobs, overridable through environment variables."""

from __future__ import annotations

import os

from .errors import InvalidParams

DEFAULT_ORDER_GUARD = 5000
ORDER_GUARD_ENV = "NACENT_MAX_ORDER"


def order_guard() -> int:
    """Maximum group order any constructor will materialize by default.

    Raises InvalidParams when NACENT_MAX_ORDER is set to anything but a
    positive integer.
    """
    raw = os.environ.get(ORDER_GUARD_ENV)
    if not raw:
        return DEFAULT_ORDER_GUARD
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise InvalidParams(f"{ORDER_GUARD_ENV} must be a positive integer, got {raw!r}")
    return int(raw)
