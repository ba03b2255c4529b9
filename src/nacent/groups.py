"""Finite groups as explicit multiplication tables on 0-based indices."""

from __future__ import annotations

import functools
import math
import os
from typing import Sequence

import numpy as np

from .errors import InvalidParams, InvalidPermutation, NotAGroup, OrderLimitExceeded, excerpt

# Whole-table passes work in row blocks of at most this many cells; those
# over rows of the table take BLOCK_CELLS // (4 n) rows, about 1M cells (2 MB
# in int16) per buffer.
BLOCK_CELLS = 4_000_000


class FiniteGroup:
    """A finite group given by its Cayley table.

    Elements are the indices 0..n-1, the identity is element 0 and
    ``table[i, j]`` is the index of the product i*j. ``generators`` is the
    generating set found while validating the table: greedy, by least
    element not yet generated, then pruned to be irredundant; the greedy
    walk's spanning tree is what associativity is proven on.
    `element_orders(G)` gives the order of every element, computed on first
    use. ``table`` and ``inverses`` are stored in `table_dtype(n)`, the
    narrowest signed type holding n - 1: int16 up to order 2**15, int32
    above. A table given in another integer type is validated as given and
    narrowed only once its entries are known to lie in 0..n-1, so no
    out-of-range entry can wrap into range; a table of another type is
    accepted only when every entry is a finite integral value. Instances
    are immutable after construction and safe to share between threads.
    """

    __slots__ = ("order", "table", "generators", "inverses", "name", "_cache", "__weakref__")

    def __init__(self, table: np.ndarray, name: str = "group"):
        table, gens, inverses = _validate_table(
            _integer_table(np.ascontiguousarray(table)))
        self.order = table.shape[0]
        self.table = table
        self.name = name
        self.generators = gens
        self.inverses = inverses
        for arr in (table, inverses):
            arr.setflags(write=False)
        self._cache: dict = {}

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def power(self, a: int, k: int) -> int:
        """a**k for any integer k (reduced modulo the element order)."""
        return int(_power(self.table, a, k % int(element_orders(self)[a])))

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def positive_int(raw: str, what: str) -> int:
    """The positive integer that raw spells in ASCII digits, with surrounding
    whitespace ignored. Raises InvalidParams naming `what` and quoting at
    most 40 characters of raw for anything else: a sign, an underscore, a
    non-ASCII digit, zero, or more digits than int() converts."""
    digits = raw.strip()
    try:
        value = int(digits) if digits.isascii() and digits.isdecimal() else 0
    except ValueError:  # more digits than int() converts
        value = 0
    if value < 1:
        raise InvalidParams(f"{what} must be a positive integer, got {excerpt(raw)!r}")
    return value


def order_guard(max_order: int | None = None) -> int:
    """The largest group order a construction materializes: `max_order`
    when given, else the environment variable NACENT_MAX_ORDER, read by
    `positive_int`, else 5000."""
    if max_order is not None:
        return max_order
    raw = os.environ.get("NACENT_MAX_ORDER")
    return positive_int(raw, "NACENT_MAX_ORDER") if raw else 5000


def table_dtype(n: int) -> np.dtype:
    """The narrowest signed integer type holding 0..n-1, in which tables,
    inverses and projections onto a group of order n are stored."""
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
    violated law, OrderLimitExceeded past the order guard, which is read
    off the shape before any entry is converted.
    """
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotAGroup("shape", (), f"expected a square table, got {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise NotAGroup("shape", (), "empty table")
    limit = order_guard(max_order)
    if n > limit:
        raise OrderLimitExceeded(f"table order {n} exceeds limit {limit}")
    arr = _integer_table(arr)
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

    ord(x) divides n. For each p**a exactly dividing n, the p-part of ord(x)
    is the least p**b with y**(p**b) = 1 for y = x**(n / p**a): all elements
    are raised to n / p**a, then to the p-th power a - 1 times.
    """
    n = G.order
    orders = np.ones(n, dtype=np.int32)
    for p, a in prime_factorization(n):
        y = _power(G.table, np.arange(n), n // p**a)
        for b in range(a):
            if b:
                y = _power(G.table, y, p)
            orders[y != 0] *= p
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


def _validate_table(table: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Check the group laws that need the whole table; return the table in
    `table_dtype(n)`, the generators found on the way (see
    `_loop_generators`) and the inverses.

    The identity and the entry range are checked in the type the table
    arrives in; only then is it narrowed, which changes no entry. An
    identity at 0, associativity and a right inverse for every element make
    a finite monoid in which every element has a right inverse, which is a
    group, so its table is a Latin square and that is not scanned.

    Associativity is proven by two passes whose cost does not grow with the
    number of generators. The greedy walk of `_loop_generators` reaches
    each b != 0 as b = p*t, p reached before b and t a greedy seed; its
    seeds are the children of 0 in that tree. Write L_b for row b read as a
    map. `_tree_pass` checks L_b = L_p o L_t on every edge, so every L_b is
    a product of the L_t. `_commute_pass` checks that each L_t commutes with
    right multiplication by every final generator u, hence so does every
    product P of the L_t. Words in the final generators move 0 to every
    element, so P is determined by P(0), as the centralizer of a transitive
    permutation group acts semiregularly (Dixon and Mortimer, Permutation
    Groups, 1996, Thm 4.2A). Since L_b(0) = b, the products of the L_t are
    exactly the n maps L_b, and L_c o L_b is the one with value
    c*(b*0) = c*b at 0: c*(b*y) = (c*b)*y for all c, b and y. Both passes
    check instances of the associative law, so a group passes them, and the
    first that fails returns the triple it failed at.

    A rejected table is then scanned by `_check_latin_square`, whose
    verdict comes first, so it names the first law it breaks in the order
    identity, Latin square, associativity.
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
        parent = np.zeros(n, dtype=np.intp)
        gens = _loop_generators(table, parent)
        seeds = (parent == 0).nonzero()[0][1:]
        triple = _tree_pass(table, parent, seeds) or _commute_pass(table, seeds, gens)
        if triple:
            x, y, z = triple
            raise NotAGroup("associativity", triple, f"({x}*{y})*{z} = {table[table[x, y], z]}"
                            f" but {x}*({y}*{z}) = {table[x, table[y, z]]}")
        return table, gens, _inverses(table)
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


def _extend_closure(table: np.ndarray, reached: np.ndarray, gens, seeds,
                    parent: np.ndarray | None = None) -> list[int]:
    """Grow `reached` in place to its closure under right multiplication by
    `gens` and `seeds`, given that it is closed under `gens`; return the
    seeds that had to be added, in order. When `parent` is given, each
    element y reached here gets parent[y] = r, where y = r*c for an element
    r reached before y and one of the columns c.

    A worklist, as an orbit is computed (Holt, Eick and O'Brien, Handbook
    of Computational Group Theory, 2005, ch. 3). Each seed not yet reached,
    in the given order, is added: its column of the table is applied to
    every element reached so far. Then each element on the list has every
    column so far applied to it. A product not yet reached is marked and
    appended to the list, so each element goes on it once. The seeds stop
    once every element is reached. Each column is copied out of the table
    once per call, in the table's type, and `reached` is marked through a
    byte view of it. No group law is assumed; in a group the closure of {0}
    is the subgroup generated.
    """
    seen = memoryview(reached.view(np.uint8))
    up = {} if parent is None else memoryview(parent)  # parents not asked for are dropped
    cols = [memoryview(table[:, g].copy()) for g in gens]
    unreached = reached.size - int(np.count_nonzero(reached))
    added = []
    for x in np.asarray(seeds, dtype=np.int64).tolist():
        if not unreached:
            break
        if seen[x]:
            continue
        col = table[:, x].copy()
        old = reached.nonzero()[0]
        todo = []
        for r, y in zip(old.tolist(), col[old].tolist()):
            if not seen[y]:
                seen[y] = 1
                up[y] = r
                todo.append(y)
        cols.append(memoryview(col))
        added.append(x)
        for r in todo:  # the list grows while it is read
            for c in cols:
                y = c[r]
                if not seen[y]:
                    seen[y] = 1
                    up[y] = r
                    todo.append(y)
        unreached -= len(todo)
    return added


def _loop_generators(table: np.ndarray, parent: np.ndarray | None = None) -> tuple[int, ...]:
    """A generating set, greedy, then pruned to be irredundant.

    The greedy pass adds the least unreached element until all are reached;
    then each generator, in that order, is dropped if the others still
    reach every element. The last is not tested: it lies outside what those
    before it reach, so it is always kept. Reached means in the closure of
    {0} under right multiplication by the generators; only the identity at
    0 is assumed, not the group laws. When `parent` is given, zeros of
    length n, the greedy walk records in it the spanning tree of its
    `_extend_closure` call: b = parent[b] * t for a greedy seed t, and the
    seeds are the children of 0.
    """
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens = _extend_closure(table, reached, (), np.arange(n), parent)
    for x in gens[:-1]:
        rest = [g for g in gens if g != x]
        reached[1:] = False
        _extend_closure(table, reached, (), rest)
        if reached.all():
            gens = rest
    return tuple(gens)


def _tree_pass(table: np.ndarray, parent: np.ndarray,
               seeds: np.ndarray) -> tuple[int, int, int] | None:
    """None iff (p*t)*y = p*(t*y) for every y and every edge b = p*t of the
    spanning tree `parent` of the greedy walk, for each seed t with
    p*t = b: row b equals row p gathered at row t. Otherwise the first
    failing (p, t, y), in the order of the edges, then of y.

    The edges are found by one gather of the parents' rows at the seeds,
    grouped by seed, children in ascending order. They are compared in row
    blocks through two buffers allocated once: the parents' rows of a block
    are gathered, each seed's run of them is gathered at the seed's row, and
    the children's rows are gathered and XORed in, which leaves zero exactly
    where the two sides agree. That is about n**2 cells gathered across
    rows, whatever the number of seeds. The entries are known to be in
    range, so `mode="clip"` changes no index; it keeps `np.take` from
    buffering `out`, as it does under the default `mode="raise"`.
    """
    n = table.shape[0]
    at, kids = np.nonzero((table[parent[1:, None], seeds] == np.arange(1, n)[:, None]).T)
    kids += 1
    ups = parent[kids]  # kids[k] = ups[k] * seeds[at[k]], at ascending
    bounds = np.searchsorted(at, np.arange(seeds.size + 1)).tolist()
    runs = list(zip(seeds.tolist(), bounds, bounds[1:]))  # (seed, first, last + 1)
    block = max(1, min(n, BLOCK_CELLS // (4 * n)))
    right_buf = np.empty((block, n), dtype=table.dtype)
    diff_buf = np.empty((block, n), dtype=table.dtype)
    for lo in range(0, kids.size, block):
        hi = min(kids.size, lo + block)
        right, diff = right_buf[:hi - lo], diff_buf[:hi - lo]
        np.take(table, ups[lo:hi], axis=0, out=diff, mode="clip")  # p*y
        for t, start, end in runs:
            a, b = max(start, lo) - lo, min(end, hi) - lo
            if a < b:
                np.take(diff[a:b], table[t], axis=1, out=right[a:b], mode="clip")  # p*(t*y)
        np.take(table, kids[lo:hi], axis=0, out=diff, mode="clip")  # (p*t)*y
        np.bitwise_xor(diff, right, out=diff)
        if diff.any():
            i, y = divmod(int(np.flatnonzero(diff)[0]), n)
            return int(ups[lo + i]), int(seeds[at[lo + i]]), y
    return None


def _commute_pass(table: np.ndarray, seeds: np.ndarray,
                  gens: tuple[int, ...]) -> tuple[int, int, int] | None:
    """None iff t*(x*u) = (t*x)*u for every seed t, every generator u and
    every x: |seeds| * |gens| * n cells in one pair of gathers. Otherwise
    the first failing (t, x, u), in the order of t, then x, then u."""
    xu, tx = table[:, gens], table[seeds]
    bad = np.take(tx, xu, axis=1) != np.take(xu, tx, axis=0)
    if bad.any():
        i, x, j = np.argwhere(bad)[0].tolist()
        return int(seeds[i]), x, gens[j]
    return None


def _inverses(table: np.ndarray) -> np.ndarray:
    """The inverse x**(n-1) of every element x of a finite associative
    monoid with identity 0, taken for all elements at once by `_power`.

    Raises NotAGroup when some x * x**(n-1) != 0. That happens only when
    some row holds no 0, as a monoid of order n whose elements are all units
    is a group, so `_check_latin_square` names that row.
    """
    every = np.arange(table.shape[0])
    inv = np.zeros_like(every, dtype=table.dtype)
    inv[:] = _power(table, every, every.size - 1)  # a scalar 0 when n = 1
    if not (table[every, inv] == 0).all():
        raise NotAGroup("inverse", (), "an element has no right inverse")
    return inv


def _power(table: np.ndarray, x, e: int):
    """x**e for e >= 0 by binary exponentiation: x is squared as the bits of
    e are read from the lowest; x is an element or an array of elements."""
    acc = 0
    while e:
        if e & 1:
            acc = table[acc, x]
        e >>= 1
        if e:
            x = table[x, x]
    return acc
