"""Finite groups as explicit multiplication tables on 0-based indices."""

from __future__ import annotations

import functools
import math
import os
from typing import Sequence

import numpy as np

from .errors import InvalidParams, InvalidPermutation, NotAGroup, OrderLimitExceeded

# Whole-table passes work in row blocks of at most this many cells; those
# over rows of the table take BLOCK_CELLS // (4 n) rows, about 1M cells (2 MB
# in int16) per buffer.
BLOCK_CELLS = 4_000_000

# Associativity is verified exactly at every order by Light's test: the
# elements s with (x*s)*y = x*(s*y) for all x, y form a submagma, so checking
# s over a generating set covers every triple (Clifford and Preston, The
# Algebraic Theory of Semigroups I, 1961, section 1.2).


class FiniteGroup:
    """A finite group given by its Cayley table.

    Elements are the indices 0..n-1, the identity is element 0 and
    ``table[i, j]`` is the index of the product i*j. ``generators`` is the
    generating set found while checking associativity: greedy, by least
    element not yet generated, then pruned to be irredundant.
    ``ladder[j, x]`` is x**(2**j) for j < n.bit_length(), the square ladder
    that powers, element orders, inverses and the class walk climb;
    `element_orders(G)` gives the order of every element, computed on first
    use. ``table``, ``inverses`` and ``ladder`` are stored in
    `table_dtype(n)`, the narrowest signed type holding n - 1:
    int16 up to order 2**15, int32 above. A table given in another integer
    type is validated as given and narrowed only once its entries are known
    to lie in 0..n-1, so no out-of-range entry can wrap into range; a table
    of another type is accepted only when every entry is a finite integral
    value. Instances are immutable after construction and safe to share
    between threads.
    """

    __slots__ = ("order", "table", "generators", "inverses", "ladder", "name",
                 "_cache", "__weakref__")

    def __init__(self, table: np.ndarray, name: str = "group"):
        table, gens, inverses, ladder = _validate_table(
            _integer_table(np.ascontiguousarray(table)))
        self.order = table.shape[0]
        self.table = table
        self.name = name
        self.generators = gens
        self.inverses = inverses
        self.ladder = ladder
        for arr in (table, inverses, ladder):
            arr.setflags(write=False)
        self._cache: dict = {}

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def power(self, a: int, k: int) -> int:
        """a**k for any integer k (reduced modulo the element order)."""
        return int(_ladder_power(self.table, self.ladder, a, k % int(element_orders(self)[a])))

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def order_guard(max_order: int | None = None) -> int:
    """The largest group order a construction materializes: `max_order`
    when given, else the environment variable NACENT_MAX_ORDER, else 5000.

    Raises InvalidParams when NACENT_MAX_ORDER is read and set to anything
    but a positive integer.
    """
    if max_order is not None:
        return max_order
    raw = os.environ.get("NACENT_MAX_ORDER")
    if not raw:
        return 5000
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise InvalidParams(f"NACENT_MAX_ORDER must be a positive integer, got {raw!r}")
    return int(raw)


def table_dtype(n: int) -> np.dtype:
    """The narrowest signed integer type holding 0..n-1, in which tables,
    inverses, ladders and projections onto a group of order n are stored."""
    return np.dtype(np.int16) if n <= 2**15 else np.dtype(np.int32)


def memoized(fn):
    """Memoize ``fn(G, *args)`` on the group G itself.

    The value is kept in ``G._cache`` under the key ``(fn.__name__, *args)``
    (keyword arguments follow as (name, value) pairs), so it lives as long
    as G and ``G._cache.clear()`` resets it. Arguments after G must be
    hashable. A value must hold no reference back to G (a Subgroup or
    QuotientMap of G would), so that G is freed by reference counting once
    its last user lets go, not only by the cyclic garbage collector. The
    wrapper is a plain function.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(G, *args, **kwargs):
        key = (name, *args, *kwargs.items())
        try:
            return G._cache[key]
        except KeyError:
            value = G._cache[key] = fn(G, *args, **kwargs)
            return value

    return wrapper


def from_cayley_table(table: Sequence[Sequence[int]] | np.ndarray,
                      name: str = "group",
                      max_order: int | None = None) -> FiniteGroup:
    """Validate a raw multiplication table and return the group.

    The identity is relocated to index 0 by relabeling; the relative order
    of the remaining elements is preserved. The table is narrowed to
    `table_dtype(n)` once its entries are known to lie in 0..n-1, and
    relabeled in that type in row blocks. Raises NotAGroup naming the first
    violated law, OrderLimitExceeded past the order guard.
    """
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotAGroup("shape", (), f"expected a square table, got {arr.shape}")
    arr = _integer_table(arr)
    n = arr.shape[0]
    if n == 0:
        raise NotAGroup("shape", (), "empty table")
    limit = order_guard(max_order)
    if n > limit:
        raise OrderLimitExceeded(f"table order {n} exceeds limit {limit}")
    if arr.min() < 0 or arr.max() >= n:
        i, j = np.unravel_index(int(np.argmax((arr < 0) | (arr >= n))), arr.shape)
        raise NotAGroup("entry-range", (int(i), int(j)), f"entry {arr[i, j]} outside 0..{n - 1}")
    arr = arr.astype(table_dtype(n), copy=False)
    e = _find_identity(arr)
    if e != 0:
        arr = _relabeled(arr, e)
    return FiniteGroup(arr, name=name)


def _relabeled(arr: np.ndarray, e: int) -> np.ndarray:
    """The table with element e moved to index 0 and the elements before it
    shifted up by one, in arr's type: v <= e is renamed (v - e) mod (e + 1)
    and v > e keeps its name.

    Each block of rows has its columns reordered into one block buffer, is
    renamed there in place (the modulus is taken in int32, where e + 1 fits)
    and is scattered to its new rows (`mode="clip"` changes no index).
    """
    n = arr.shape[0]
    old = np.arange(n)  # old[new name] = old name
    old[:e + 1] = np.roll(old[:e + 1], 1)
    new = np.argsort(old)
    rows = max(1, min(n, BLOCK_CELLS // (4 * n)))
    buf = np.empty((rows, n), dtype=arr.dtype)
    low = np.empty((rows, n), dtype=bool)
    out = np.empty_like(arr)
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        block, low_block = buf[:stop - start], low[:stop - start]
        np.take(arr[start:stop], old, axis=1, out=block, mode="clip")
        np.less_equal(block, e, out=low_block)
        np.subtract(block, e, out=block, where=low_block)
        np.remainder(block, np.int32(e + 1), out=block, where=low_block)
        out[new[start:stop]] = block
    return out


def from_permutations(generators: Sequence[Sequence[int]],
                      name: str = "group",
                      max_order: int | None = None) -> FiniteGroup:
    """Close a list of permutations under composition and tabulate.

    Elements are enumerated breadth-first from the identity with the
    generators applied (on the right) in the given order, so the
    enumeration is deterministic. Composition is (a*b)(x) = a(b(x)).

    The walk records right[k, i], the index of element k times generator
    i, and finds each element b but the identity as p*g, p on the level
    before. Column b of the table is then x*b = (x*p)*g = right[x*p, g],
    one gather over column p, and the columns of a level are gathered at
    once; no two elements are composed and no product is looked up.
    """
    gens = []
    degree = 0
    for g in generators:
        p = tuple(_integer_table(np.asarray(g), lambda at, msg: InvalidPermutation(
            f"{g!r} is not a permutation: {msg}")).tolist())
        if sorted(p) != list(range(len(p))):
            raise InvalidPermutation(f"{g!r} is not a permutation of 0..{len(p) - 1}")
        gens.append(p)
        degree = max(degree, len(p))
    if any(len(p) != degree for p in gens):
        raise InvalidPermutation("generators act on different numbers of points")
    limit = order_guard(max_order)

    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    right: list[int] = []
    parent, via = [0], [0]  # elems[k] = elems[parent[k]] * gens[via[k]] for k > 0
    bounds = [0]  # level d of the walk is elems[bounds[d]:bounds[d + 1]]
    while bounds[-1] < len(elems):
        bounds.append(len(elems))
        for k in range(bounds[-2], bounds[-1]):
            a = elems[k]
            for i, g in enumerate(gens):
                p = tuple(a[x] for x in g)
                j = index.get(p)
                if j is None:
                    if len(elems) >= limit:
                        raise OrderLimitExceeded(
                            f"permutation closure exceeds limit {limit}")
                    j = index[p] = len(elems)
                    elems.append(p)
                    parent.append(k)
                    via.append(i)
                right.append(j)
    n = len(elems)
    dt = table_dtype(n)
    right_of = np.array(right, dtype=dt).reshape(n, len(gens))
    parent_of, via_of = np.array(parent), np.array(via)
    table = np.empty((n, n), dtype=dt)
    table[:, 0] = np.arange(n)
    for lo, hi in zip(bounds[1:], bounds[2:]):
        table[:, lo:hi] = right_of[table[:, parent_of[lo:hi]], via_of[lo:hi]]
    return FiniteGroup(table, name=name)


@memoized
def element_orders(G: FiniteGroup) -> np.ndarray:
    """The order of every element of G, read-only.

    ord(x) divides n. For each p**a exactly dividing n, with m = n / p**a,
    the p-part of ord(x) is the least p**b with x**(m * p**b) = 1, so it
    takes a powerings of all elements at once.
    """
    n = G.order
    every = np.arange(n)
    orders = np.ones(n, dtype=np.int32)
    for p, a in prime_factorization(n):
        for b in range(a):
            orders[_ladder_power(G.table, G.ladder, every, n // p**(a - b)) != 0] *= p
    orders.setflags(write=False)
    return orders


def exponent(G: FiniteGroup) -> int:
    """Least common multiple of all element orders."""
    return math.lcm(*np.flatnonzero(np.bincount(element_orders(G))).tolist())


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """(prime, multiplicity) pairs with strictly increasing primes."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            out.append((d, m))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# validation internals

def _integer_table(arr: np.ndarray,
                   reject=lambda at, msg: NotAGroup("entry-range", at, msg)) -> np.ndarray:
    """arr itself when its type is an integer type. Otherwise arr as int64,
    once every entry is known to be a finite integral value, so that no
    entry is truncated into a valid index; `reject(at, message)` names the
    first entry that is not one and is raised (NotAGroup by default)."""
    if arr.dtype.kind in "iu":
        return arr
    try:
        with np.errstate(invalid="ignore"):  # a non-finite entry casts to junk, caught below
            exact = arr.astype(np.int64)
    except (TypeError, ValueError):  # an entry with no integer value, such as None
        raise reject((), f"an entry of {arr.dtype} type is not a number")
    bad = exact != arr
    if bad.any():
        at = tuple(int(v) for v in np.argwhere(bad)[0])
        raise reject(at, f"entry {arr[at]} is not an integer index")
    return exact


def _find_identity(arr: np.ndarray) -> int:
    n = arr.shape[0]
    idx = np.arange(n)
    rows = np.nonzero((arr == idx[None, :]).all(axis=1))[0]
    for e in rows:
        if (arr[:, e] == idx).all():
            return int(e)
    raise NotAGroup("identity", (), "no two-sided identity element")


def _validate_table(table: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], np.ndarray,
                                                  np.ndarray]:
    """Check the group laws that need the whole table; return the table in
    `table_dtype(n)`, the generators found on the way (see
    `_loop_generators`), the inverses and the square ladder.

    The identity and the entry range are checked in the type the table
    arrives in; only then is it narrowed, which changes no entry. An
    identity at 0, associativity (Light's test) and a right inverse for
    every element make a finite monoid in which every element has a right
    inverse, which is a group, so its table is a Latin square and that is not
    scanned. When any of these checks fails, `_check_latin_square` runs first,
    so a rejected table names the first law it breaks in the order identity,
    Latin square, associativity, inverse.
    """
    n = table.shape[0]
    idx = np.arange(n)
    if not (table[0] == idx).all():
        j = int(np.nonzero(table[0] != idx)[0][0])
        raise NotAGroup("identity", (0, j), f"0*{j} = {table[0, j]}")
    if not (table[:, 0] == idx).all():
        i = int(np.nonzero(table[:, 0] != idx)[0][0])
        raise NotAGroup("identity", (i, 0), f"{i}*0 = {table[i, 0]}")
    try:
        if _unsigned(table).max() >= n:
            raise NotAGroup("entry-range", (), f"an entry lies outside 0..{n - 1}")
        table = table.astype(table_dtype(n), copy=False)
        ladder = _square_ladder(table)
        gens = _loop_generators(table)
        _check_associativity(table, gens)
        return table, gens, _inverses(table, ladder), ladder
    except NotAGroup:
        _check_latin_square(table)
        raise


def _unsigned(table: np.ndarray) -> np.ndarray:
    """The table viewed as unsigned integers of its own width, so that a
    negative entry reads as a large one."""
    return table.view(np.dtype(f"u{table.itemsize}"))


def _check_latin_square(table: np.ndarray) -> None:
    """Every row, then every column, is a permutation of 0..n-1.

    Runs only on a table another check has rejected, so that the table is
    reported under the Latin-square law with its first bad row or column
    when it breaks that law.

    Each block of lines is scattered into a "seen" bitmap with one spare
    column n, which takes the entries outside 0..n-1 (read unsigned, so
    negative ones are large), so a line is a permutation iff it saw all
    of 0..n-1. Columns are read in slabs of a transposed view, not a copy.
    """
    n = table.shape[0]
    block = max(1, min(n, BLOCK_CELLS // (4 * n)))
    seen = np.zeros((block, n + 1), dtype=bool)
    for kind, lines_of in (("row", table), ("column", table.T)):
        for start in range(0, n, block):
            lines = lines_of[start:start + block]
            b = lines.shape[0]
            seen[:b] = False
            seen[np.arange(b)[:, None], np.minimum(_unsigned(lines), n)] = True
            bad = np.nonzero(~seen[:b, :n].all(axis=1))[0]
            if bad.size:
                i = start + int(bad[0])
                raise NotAGroup("latin-square", (i,), f"{kind} {i} is not a permutation")


def _square_ladder(table: np.ndarray) -> np.ndarray:
    """The rows x**(2**j), j < n.bit_length(), each the square of the last.

    Only entries in range are assumed. Without associativity a row is just
    that repeated squaring, which stays in any submagma holding x.
    """
    n = table.shape[0]
    ladder = np.empty((n.bit_length(), n), dtype=table.dtype)
    ladder[0] = np.arange(n)
    for j in range(1, ladder.shape[0]):
        ladder[j] = table[ladder[j - 1], ladder[j - 1]]
    return ladder


def _extend_closure(table: np.ndarray, reached: np.ndarray, gens, seeds) -> list[int]:
    """Grow `reached` in place to its closure under right multiplication by
    `gens` and `seeds`, given that it is closed under `gens`; return the
    seeds that had to be added, in order.

    A worklist, as an orbit is computed (Holt, Eick and O'Brien, Handbook
    of Computational Group Theory, 2005, ch. 3). Each seed not yet reached,
    in the given order, is added: its column of the table is applied to
    every element reached so far. Then each element taken off the list has
    every column so far applied to it. A product not yet reached is marked
    and goes on the list, so each element goes on it once. Each column is
    copied out of the table once per call, in the table's type, and
    `reached` is marked through a byte view of it. No group law is assumed;
    in a group the closure of {0} is the subgroup generated.
    """
    seen = memoryview(reached.view(np.uint8))
    cols = [memoryview(table[:, g].copy()) for g in gens]
    added = []
    for x in np.asarray(seeds, dtype=np.int64).tolist():
        if seen[x]:
            continue
        col = table[:, x].copy()
        todo = []
        for y in col[reached].tolist():
            if not seen[y]:
                seen[y] = 1
                todo.append(y)
        cols.append(memoryview(col))
        added.append(x)
        while todo:
            r = todo.pop()
            for c in cols:
                y = c[r]
                if not seen[y]:
                    seen[y] = 1
                    todo.append(y)
    return added


def _loop_generators(table: np.ndarray) -> tuple[int, ...]:
    """A generating set, greedy, then pruned to be irredundant.

    The greedy pass adds the least unreached element until all are reached;
    then each generator, in that order, is dropped if the others still
    reach every element. The last is not tested: it lies outside what those
    before it reach, so it is always kept. Reached means in the closure of
    {0} under right multiplication by the generators; only the identity at
    0 is assumed, not the group laws.
    """
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens = _extend_closure(table, reached, (), np.arange(n))
    for x in gens[:-1]:
        rest = [g for g in gens if g != x]
        reached[1:] = False
        _extend_closure(table, reached, (), rest)
        if reached.all():
            gens = rest
    return tuple(gens)


def _check_associativity(table: np.ndarray, gens: tuple[int, ...]) -> None:
    """Light's test: (x*s)*y = x*(s*y) for all x, y and every generator s.

    The passing s form a submagma containing 0 and the generators, hence
    every element reached from them, which is all of them: the check is
    exact. Compared in row blocks gathered into two buffers allocated once,
    with no transposed copy of the table: the second buffer takes the XOR of
    the two sides, which is zero exactly where they agree. The entries are
    known to be in range, so `mode="clip"` changes no index; it keeps
    `np.take` from buffering `out`, as it does under the default
    `mode="raise"`.
    """
    n = table.shape[0]
    block = max(1, min(n, BLOCK_CELLS // (4 * n)))
    left_buf = np.empty((block, n), dtype=table.dtype)
    diff_buf = np.empty((block, n), dtype=table.dtype)
    for s in gens:
        col_s, row_s = table[:, s], table[s]
        for start in range(0, n, block):
            b = min(block, n - start)
            left, diff = left_buf[:b], diff_buf[:b]
            np.take(table, col_s[start:start + b], axis=0, out=left, mode="clip")  # (x*s)*y
            np.take(table[start:start + b], row_s, axis=1, out=diff, mode="clip")  # x*(s*y)
            np.bitwise_xor(diff, left, out=diff)
            if diff.any():
                i, k = (int(v) for v in np.argwhere(diff)[0])
                x = start + i
                raise NotAGroup(
                    "associativity", (x, s, k),
                    f"({x}*{s})*{k} = {left[i, k]} but {x}*({s}*{k}) = {left[i, k] ^ diff[i, k]}")


def _inverses(table: np.ndarray, ladder: np.ndarray) -> np.ndarray:
    """The right inverse of every element of a finite monoid.

    x**(n-1), taken over the ladder in one pass over the elements, is the
    inverse of x in a group of order n; wherever x * x**(n-1) = 0 it is a
    right inverse, whatever the table. Only when that fails for some x is
    each row scanned for its first 0 (entries are known to be in range, so a
    row holds a 0 iff its least entry is 0), to name the first element
    without one.
    """
    every = np.arange(table.shape[0])
    inv = np.zeros_like(every, dtype=table.dtype)
    inv[:] = _ladder_power(table, ladder, every, every.size - 1)  # a scalar 0 when n = 1
    if (table[every, inv] == 0).all():
        return inv
    inv = table.argmin(axis=1).astype(table.dtype)
    bad = np.nonzero(table[every, inv] != 0)[0]
    if bad.size:
        i = int(bad[0])
        raise NotAGroup("inverse", (i,), f"{i} has no right inverse")
    return inv


def _ladder_power(table: np.ndarray, ladder: np.ndarray, x, e: int):
    """x**e for 0 <= e < 2**len(ladder), by binary exponentiation over the
    ladder; x is an element or an array of elements."""
    acc = 0
    for j in range(e.bit_length()):
        if e >> j & 1:
            acc = table[acc, ladder[j, x]]
    return acc
