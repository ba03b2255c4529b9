"""Built-in group constructors, the verification catalog, and file I/O.

Constructions are addressed by spec strings like ``cyclic(6)``,
``heisenberg_frobenius(7,3)`` or ``direct_product(dicyclic(2),cyclic(3))``.
A constructor names its group by the canonical spelling of its spec, and
that name is the group's id in reports.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InvalidAction,
    InvalidParams,
    InvalidPermutation,
    OrderLimitExceeded,
    ParseError,
)
from .groups import (
    BLOCK_CELLS,
    FiniteGroup,
    _integer_table,
    from_cayley_table,
    from_permutations,
    order_guard,
    table_dtype,
)
from .predicates import is_prime

KINDS = ("construction", "file")


@dataclass(frozen=True)
class GroupSpec:
    """A buildable group reference: a construction string or a file.

    For constructions, `name` is the spec string ("heisenberg(7)", nested
    products allowed); it is parsed on creation, so an unknown constructor
    name fails here. A file is any group file `load_group` reads, at
    `path`, kept as typed: the path is part of the file's report id.
    """

    name: str
    kind: str = "construction"
    path: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParams(f"unknown spec kind {self.kind!r}")
        if self.kind != "construction" and not self.path:
            raise InvalidParams(f"kind {self.kind!r} requires a path")
        if self.kind == "construction":
            parse_spec_string(self.name)


# ---------------------------------------------------------------------------
# constructors


def _guarded(order: int, max_order: int | None) -> None:
    limit = order_guard(max_order)
    if order > limit:
        raise OrderLimitExceeded(f"group of order {order} exceeds limit {limit}")
    if order < 1:
        raise InvalidParams(f"group order must be positive, got {order}")


def cyclic(n: int, max_order: int | None = None) -> FiniteGroup:
    """Cyclic group of order n (addition mod n)."""
    if n < 1:
        raise InvalidParams(f"cyclic order must be >= 1, got {n}")
    _guarded(n, max_order)
    return FiniteGroup(_rotations(n, table_dtype(n)), name=f"cyclic({n})")


def _rotations(n: int, dt: np.dtype) -> np.ndarray:
    """The n x n table of addition mod n in dt: row i is arange(n) rotated
    left by i, a window of arange(n) written twice."""
    twice = np.tile(np.arange(n, dtype=dt), 2)
    return np.lib.stride_tricks.sliding_window_view(twice, n)[:n].copy()


def dihedral(n: int, max_order: int | None = None) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i and reflections r^i s.

    With C the table of addition mod n and D = C with its columns negated
    mod n, so D[i, j] = i - j mod n, the table is [[C, C + n], [D + n, D]]:
    a reflection on the left turns r^j into r^-j."""
    if n < 1:
        raise InvalidParams(f"dihedral parameter must be >= 1, got {n}")
    _guarded(2 * n, max_order)
    dt = table_dtype(2 * n)
    rot = _rotations(n, dt)
    a = np.arange(n)
    table = np.empty((2, n, 2, n), dtype=dt)  # [f1, i, f2, j]: r^i s^f1 times r^j s^f2
    for f1, f2 in np.ndindex(2, 2):
        np.add(rot[:, -a % n if f1 else a], n * (f1 ^ f2), out=table[f1, :, f2, :])
    return FiniteGroup(table.reshape(2 * n, 2 * n), name=f"dihedral({n})")


def dicyclic(n: int, max_order: int | None = None) -> FiniteGroup:
    """Dicyclic group of order 4n (n=2 gives the quaternion group).

    Element 2i + j is a^i b^j, with a of order 2n, b^2 = a^n and
    b a b^-1 = a^-1. With C the table of addition mod 2n, the a-exponent
    of a^i b^j times a^k b^l is C[i, k] when j = 0, C[i, -k] when j = 1,
    l = 0 and C[i, n - k] when j = l = 1; the b-exponent is j xor l."""
    if n < 1:
        raise InvalidParams(f"dicyclic parameter must be >= 1, got {n}")
    _guarded(4 * n, max_order)
    dt = table_dtype(4 * n)
    m = 2 * n
    twice = _rotations(m, dt) * 2
    a = np.arange(m)
    table = np.empty((m, 2, m, 2), dtype=dt)  # [i, j, k, l]: a^i b^j times a^k b^l
    for j, l in np.ndindex(2, 2):
        np.add(twice[:, (l * n - a) % m if j else a], j ^ l, out=table[:, j, :, l])
    return FiniteGroup(table.reshape(4 * n, 4 * n), name=f"dicyclic({n})")


def symmetric(n: int, max_order: int | None = None) -> FiniteGroup:
    """Symmetric group on n letters, tabulated from permutations (n <= 6)."""
    if not 1 <= n <= 6:
        raise InvalidParams(f"symmetric(n) supports 1 <= n <= 6, got {n}")
    _guarded(math.factorial(n), max_order)
    gens = []
    if n >= 2:
        gens.append((1, 0) + tuple(range(2, n)))
    if n >= 3:
        gens.append(tuple(range(1, n)) + (0,))
    return from_permutations(gens, name=f"symmetric({n})", max_order=max_order)


def alternating(n: int, max_order: int | None = None) -> FiniteGroup:
    """Alternating group on n letters, generated by 3-cycles (n <= 6)."""
    if not 1 <= n <= 6:
        raise InvalidParams(f"alternating(n) supports 1 <= n <= 6, got {n}")
    _guarded(max(1, math.factorial(n) // 2), max_order)
    gens = []
    for k in range(2, n):
        perm = list(range(n))
        perm[0], perm[1], perm[k] = perm[1], perm[k], perm[0]
        gens.append(tuple(perm))
    return from_permutations(gens, name=f"alternating({n})", max_order=max_order)


def direct_product(G1: FiniteGroup, G2: FiniteGroup,
                   max_order: int | None = None) -> FiniteGroup:
    """Direct product with pairs (a, b) encoded as a * |G2| + b."""
    n1, n2 = G1.order, G2.order
    _guarded(n1 * n2, max_order)
    dt = table_dtype(n1 * n2)
    table = np.add(_scaled(G1.table, n2, dt)[:, None, :, None], G2.table[None, :, None, :],
                   dtype=dt).reshape(n1 * n2, n1 * n2)
    return FiniteGroup(table, name=f"direct_product({G1.name},{G2.name})")


def semidirect_product(K: FiniteGroup, H: FiniteGroup,
                       action: dict[int, "np.ndarray | list[int]"],
                       name: str | None = None,
                       max_order: int | None = None) -> FiniteGroup:
    """Semidirect product K x| H for an action given on generators of H.

    `action` maps H-element indices 0..|H|-1 (which must generate H) to
    permutations of K's element indices. Each permutation must be an
    automorphism of K, and the generator assignment must extend to a
    homomorphism from H; InvalidAction is raised otherwise. Pairs (k, h)
    are encoded as k * |H| + h.

    A permutation phi of K fixing the identity is accepted as an
    automorphism when phi(x * s) = phi(x) * phi(s) for every x and each
    generator s of K: by induction on the length of a word in the
    generators, phi then respects every product (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, ch. 3). That is one
    |K| x |gens(K)| gather in K's table type.
    """
    nk, nh = K.order, H.order
    _guarded(nk * nh, max_order)
    kgens = np.asarray(K.generators, dtype=np.int64)
    gens: list[int] = []
    gen_perm: dict[int, np.ndarray] = {}
    for h, perm in action.items():
        if not 0 <= h < nh:
            raise InvalidAction(f"action key {h} is not an element index 0..{nh - 1} of H")
        arr = _integer_table(np.asarray(perm), lambda at, msg: InvalidAction(
            f"action of {h} is not a permutation: {msg}"))
        if arr.shape != (nk,) or not np.array_equal(np.sort(arr), np.arange(nk)):
            raise InvalidAction(f"action of {h} is not a permutation of {nk} elements")
        if arr[0] != 0:
            raise InvalidAction(f"action of {h} moves the identity")
        narrow = arr.astype(K.table.dtype)
        if not np.array_equal(narrow[K.table[:, kgens]], K.table[narrow[:, None], narrow[kgens]]):
            raise InvalidAction(f"action of {h} is not an automorphism")
        gens.append(int(h))
        gen_perm[int(h)] = arr

    # extend to all of H breadth-first, verifying consistency on re-visits
    phi: dict[int, np.ndarray] = {0: np.arange(nk, dtype=np.int64)}
    frontier = [0]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                h2 = int(H.table[h, g])
                comp = phi[h][gen_perm[g]]
                known = phi.get(h2)
                if known is None:
                    phi[h2] = comp
                    nxt.append(h2)
                elif not np.array_equal(known, comp):
                    raise InvalidAction(
                        "generator assignment does not extend to a homomorphism")
        frontier = nxt
    if len(phi) != nh:
        raise InvalidAction("given elements do not generate the acting group")

    table = _semidirect_table(lambda a, b: K.table[a:b], nk, H.table, phi)
    return FiniteGroup(table, name=name or f"semidirect({K.name},{H.name})")


def _semidirect_table(krows, nk: int, htable: np.ndarray, phi) -> np.ndarray:
    """The table of K x| H, pairs (k, h) encoded as k * |H| + h, for the
    permutations phi[h] of K's elements; `krows(a, b)` gives rows a..b-1 of
    K's table, of order nk, so K need not be tabled whole. The fill buffers
    are freed on return, before the table is validated.

    view[k1, h1] is the row of (k1, h1); across it, column (k2, h2) holds
    (k1 * phi_h1(k2)) * |H| + h1 * h2. Rows are filled whole, in blocks of
    k1 of at most BLOCK_CELLS // 4 cells: each block of K's rows is scaled
    by |H| once, then for each h1 gathered into one reused buffer and added
    to h1's row of H (`mode="clip"` changes no index, phi_h1 being a
    permutation, and keeps `np.take` from buffering `out`).
    """
    nh = htable.shape[0]
    n = nk * nh
    dt = table_dtype(n)
    table = np.empty((n, n), dtype=dt)
    view = table.reshape(nk, nh, n)
    rows = max(1, min(nk, BLOCK_CELLS // (4 * n)))
    kbuf = np.empty((rows, n), dtype=dt)
    for start in range(0, nk, rows):
        kscaled = _scaled(krows(start, min(start + rows, nk)), nh, dt)
        kpart = kbuf[:kscaled.shape[0]]
        for h1 in range(nh):
            cols = np.repeat(phi[h1], nh)      # column (k2, h2) -> phi_h1(k2)
            np.take(kscaled, cols, axis=1, out=kpart, mode="clip")
            np.add(kpart, np.tile(htable[h1], nk), out=view[start:start + rows, h1])  # + h1 * h2
    return table


def _scaled(table: np.ndarray, factor: int, dt: np.dtype) -> np.ndarray:
    """factor * table in dt, where every product is a table entry of the
    product group and so fits dt. Computed with wraparound in dt, which is
    then exact, and which also takes a factor dt cannot hold (2**15, with
    a trivial table)."""
    return np.multiply(table, np.int64(factor), dtype=dt, casting="unsafe")


def heisenberg(p: int, max_order: int | None = None) -> FiniteGroup:
    """Group of order p^3: triples (x, y, z) mod p with
    (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y')."""
    _guarded(p ** 3, max_order)  # before the primality test, which is slow on huge p
    if not is_prime(p):
        raise InvalidParams(f"heisenberg(p) needs a prime, got {p}")
    n = p ** 3
    return FiniteGroup(_heisenberg_rows(p, 0, n, table_dtype(n)), name=f"heisenberg({p})")


def _heisenberg_rows(p: int, a: int, b: int, dt: np.dtype) -> np.ndarray:
    """Rows a..b-1 of heisenberg(p)'s table in dt, element (x, y, z) being
    (x * p + y) * p + z. Each row coordinate is a column of b - a values
    and each column coordinate a p-sized axis, through p x p add and mul
    tables mod p, so only the rows themselves are (b - a) x p^3."""
    v = np.arange(p, dtype=dt)
    add, mul = (v[:, None] + v) % p, v[:, None] * v % p
    r = np.arange(a, b).reshape(-1, 1, 1, 1)
    x1, y1, z1 = r // (p * p), r // p % p, r % p
    x2, y2, z2 = (v.reshape([p if k == i else 1 for k in range(3)]) for i in range(3))
    rows = (add[x1, x2] * p + add[y1, y2]) * p + add[add[z1, z2], mul[x1, y2]]
    return rows.reshape(b - a, p ** 3)


def _multiplicative_order(c: int, n: int) -> int:
    x, o = c % n, 1
    while x != 1:
        x = x * c % n
        o += 1
        if o > n:
            raise InvalidParams(f"{c} is not a unit mod {n}")
    return o


def _least_of_order(k: int, n: int) -> int | None:
    """Least unit of multiplicative order exactly k mod n, if one exists."""
    for c in range(1, n):
        if math.gcd(c, n) != 1:
            continue
        if _multiplicative_order(c, n) == k:
            return c
    return None


def heisenberg_frobenius(p: int, q: int, max_order: int | None = None) -> FiniteGroup:
    """heisenberg(p) extended by a cyclic group of odd prime order q
    dividing p-1, acting by (x,y,z) -> (cx, cy, c^2 z).

    The scaling constant c is the least element of multiplicative order
    exactly q mod p; because q is an odd prime, no non-trivial power of
    the action fixes a non-identity triple, which is verified
    element-wise at build time.

    The table is filled from rows of heisenberg(p)'s product rule and the
    powers phi_h = perm^h of the action, with no table of the kernel, and
    only the product is validated: an action that were not an automorphism
    would break associativity there, which Light's test rejects.
    """
    _guarded(p ** 3 * q, max_order)
    if not is_prime(p) or not is_prime(q):
        raise InvalidParams(f"heisenberg_frobenius needs primes, got ({p}, {q})")
    if q == 2 or (p - 1) % q != 0:
        raise InvalidParams(
            f"heisenberg_frobenius needs an odd prime q dividing p-1, got ({p}, {q})")
    lam = _least_of_order(q, p)
    if lam is None:
        raise InvalidParams(f"no element of order {q} mod {p}")
    n = p ** 3
    idx = np.arange(n, dtype=np.int64)
    zc = idx % p
    yc = (idx // p) % p
    xc = idx // (p * p)
    perm = ((xc * lam % p) * p + (yc * lam % p)) * p + (zc * lam * lam % p)
    phi = [idx]  # phi[h] = perm^h
    for j in range(1, q):
        phi.append(phi[-1][perm])
        fixed = int((phi[j] == idx).sum())
        if fixed != 1:
            raise InvalidAction(
                f"action power {j} fixes {fixed} elements; not fixed-point-free")
    dt = table_dtype(n)
    table = _semidirect_table(lambda a, b: _heisenberg_rows(p, a, b, dt), n,
                              cyclic(q, max_order=max_order).table, phi)
    return FiniteGroup(table, name=f"heisenberg_frobenius({p},{q})")


def agl1(q: int, max_order: int | None = None) -> FiniteGroup:
    """Affine group of the line over a prime field: semidirect_cyclic(q, q-1),
    where the least unit of order q-1 is the least primitive root mod q."""
    _guarded(q * (q - 1), max_order)
    if not is_prime(q):
        raise InvalidParams(f"agl1(q) needs a prime, got {q}")
    G = semidirect_cyclic(q, q - 1, max_order=max_order)
    G.name = f"agl1({q})"
    return G


def semidirect_cyclic(n: int, k: int, max_order: int | None = None) -> FiniteGroup:
    """cyclic(n) x| cyclic(k), acting by the least unit of order k mod n."""
    if n < 2 or k < 1:
        raise InvalidParams(f"semidirect_cyclic needs n >= 2, k >= 1, got ({n}, {k})")
    _guarded(n * k, max_order)
    lam = _least_of_order(k, n)
    if lam is None:
        raise InvalidParams(f"no unit of multiplicative order {k} mod {n}")
    K = cyclic(n, max_order=max_order)
    H = cyclic(k, max_order=max_order)
    action = {} if k == 1 else {1: np.arange(n, dtype=np.int64) * lam % n}
    return semidirect_product(K, H, action,
                              name=f"semidirect_cyclic({n},{k})", max_order=max_order)


# Degree-8 permutation generators for the order-24 group of unimodular
# 2x2 matrices over the 3-element field, acting on the 8 non-zero vectors
# ordered (1,0),(2,0),(0,1),(1,1),(2,1),(0,2),(1,2),(2,2).
SL23_GENERATORS = ((3, 7, 2, 6, 1, 5, 0, 4), (5, 2, 0, 6, 3, 1, 7, 4))


def sl23(max_order: int | None = None) -> FiniteGroup:
    return from_permutations(SL23_GENERATORS, name="sl23", max_order=max_order)


# ---------------------------------------------------------------------------
# spec strings


_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")

# constructor -> (builder, declared parameter names in call order)
_FLAT_BUILDERS = {
    "cyclic": (cyclic, ("n",)),
    "dihedral": (dihedral, ("n",)),
    "dicyclic": (dicyclic, ("n",)),
    "symmetric": (symmetric, ("n",)),
    "alternating": (alternating, ("n",)),
    "heisenberg": (heisenberg, ("p",)),
    "heisenberg_frobenius": (heisenberg_frobenius, ("p", "q")),
    "agl1": (agl1, ("q",)),
    "semidirect_cyclic": (semidirect_cyclic, ("n", "k")),
    "sl23": (sl23, ()),
}


def parse_spec_string(s: str):
    """Parse ``name(arg,...)`` with integer or nested-spec arguments."""
    text = s.strip()
    node, pos = _parse_expr(text, 0)
    if text[pos:].strip():
        raise _spec_error("trailing input", text, pos)
    return node


def _spec_error(problem: str, text: str, pos: int, **where) -> ParseError:
    """A ParseError naming the position in the spec and showing at most 40
    characters of it around there, however long the spec is; `where` is the
    file's path and field, for a spec read from a group file."""
    start = max(0, min(pos - 20, len(text) - 40))
    excerpt = ("..." if start else "") + text[start:start + 40] + (
        "..." if start + 40 < len(text) else "")
    return ParseError(f"{problem} at position {pos} in spec {excerpt!r}", **where)


def _parse_expr(text: str, pos: int, depth: int = 1):
    # each non-trivial factor at least doubles the order, so no usable spec
    # nests this deep; the bound keeps the tree walks off the recursion limit
    if depth > 256:
        raise _spec_error("spec nested more than 256 deep", text, pos)
    while pos < len(text) and text[pos].isspace():
        pos += 1
    m = _NAME_RE.match(text, pos)
    if not m:
        raise _spec_error("expected a constructor name", text, pos)
    name = m.group(0)
    if name != "direct_product" and name not in _FLAT_BUILDERS:
        raise _spec_error("unknown constructor", text, pos)
    pos = m.end()
    args = []
    if pos < len(text) and text[pos] == "(":
        pos += 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos < len(text) and text[pos] == ")":
            return (name, args), pos + 1
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                raise _spec_error("unterminated argument list", text, pos)
            # ASCII digits only: str.isdigit also takes '²', which int()
            # cannot read, and \d takes '٣', which int() reads as 3
            m = re.compile(r"[0-9]+").match(text, pos)
            if m:
                try:
                    args.append(int(m.group(0)))
                except ValueError:  # past Python's limit on digits read by int()
                    raise _spec_error("integer argument too long", text, pos) from None
                pos = m.end()
            else:
                sub, pos = _parse_expr(text, pos, depth + 1)
                args.append(sub)
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos < len(text) and text[pos] == ",":
                pos += 1
            elif pos < len(text) and text[pos] == ")":
                pos += 1
                break
            else:
                raise _spec_error("expected ',' or ')'", text, pos)
    return (name, args), pos


def _build_node(node, max_order: int | None) -> FiniteGroup:
    name, args = node
    if name == "direct_product":
        if len(args) != 2 or any(isinstance(a, int) for a in args):
            raise InvalidParams("direct_product takes two group specs")
        left = _build_node(args[0], max_order)
        right = _build_node(args[1], max_order)
        return direct_product(left, right, max_order=max_order)
    fn, param_names = _FLAT_BUILDERS[name]
    if len(args) != len(param_names) or any(not isinstance(a, int) for a in args):
        raise InvalidParams(
            f"{name} takes {len(param_names)} integer parameter(s), got {args!r}")
    return fn(*args, max_order=max_order)


def build(spec: GroupSpec | str, max_order: int | None = None) -> FiniteGroup:
    """Build a group from a spec string, GroupSpec or file reference."""
    if isinstance(spec, GroupSpec) and spec.kind == "file":
        return load_group(spec.path, max_order=max_order)
    return _build_node(parse_spec_string(spec if isinstance(spec, str) else spec.name),
                       max_order)


def file_group_id(path: str) -> str:
    """Report id of a group file: the path as typed plus a content hash."""
    import hashlib  # maps OpenSSL's libcrypto, which only file specs need

    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]
    return f"{path}#{digest}"


# ---------------------------------------------------------------------------
# catalog


# (spec, order) of the factors of the catalog's direct products
DIRECT_PRODUCT_PRIMARIES = (
    ("cyclic(2)", 2), ("cyclic(3)", 3), ("cyclic(4)", 4), ("cyclic(5)", 5),
    ("symmetric(3)", 6), ("dihedral(4)", 8), ("dicyclic(2)", 8), ("heisenberg(3)", 27),
)

SEMIDIRECT_CYCLIC_SET = ((5, 2), (7, 3), (9, 3), (13, 4), (16, 2))


def builtin_catalog(max_order: int) -> list[GroupSpec]:
    """Deterministic list of construction specs with order <= max_order."""
    if max_order < 1:
        raise InvalidParams(f"max_order must be >= 1, got {max_order}")
    specs: list[str] = []
    specs.extend(f"cyclic({n})" for n in range(1, max_order + 1))
    specs.extend(f"dihedral({n})" for n in range(3, max_order // 2 + 1))
    specs.extend(f"dicyclic({n})" for n in range(2, max_order // 4 + 1))
    for n, size in ((3, 6), (4, 24)):
        if size <= max_order:
            specs.append(f"symmetric({n})")
    for n, size in ((4, 12), (5, 60)):
        if size <= max_order:
            specs.append(f"alternating({n})")
    for p in (3, 5, 7):
        if p ** 3 <= max_order:
            specs.append(f"heisenberg({p})")
    for p, q in ((7, 3), (13, 3)):
        if p ** 3 * q <= max_order:
            specs.append(f"heisenberg_frobenius({p},{q})")
    for q in (2, 3, 5, 7, 11, 13):
        if q * (q - 1) <= max_order:
            specs.append(f"agl1({q})")
    if 24 <= max_order:
        specs.append("sl23")
    for n, k in SEMIDIRECT_CYCLIC_SET:
        if n * k <= max_order:
            specs.append(f"semidirect_cyclic({n},{k})")
    for i, (left, m) in enumerate(DIRECT_PRODUCT_PRIMARIES):
        for right, k in DIRECT_PRODUCT_PRIMARIES[i:]:
            if m * k <= max_order:
                specs.append(f"direct_product({left},{right})")
    return [GroupSpec(name=s) for s in specs]


# ---------------------------------------------------------------------------
# file I/O


def save_group(G: FiniteGroup, path: str | Path) -> None:
    """Write a group as a canonical Cayley-table JSON file."""
    payload = {
        "kind": "cayley",
        "name": G.name,
        "table": G.table.tolist(),
    }
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_group(path: str | Path, max_order: int | None = None) -> FiniteGroup:
    """Read a group file (cayley, permutations or construction payload)."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}",
                         path=str(path))
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object", path=str(path))
    kind = obj.get("kind")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("must be a string", path=str(path), field="name")

    if kind == "cayley":
        table = obj.get("table")
        _require_int_matrix(table, str(path), "table")
        return from_cayley_table(table, name=name or path.stem, max_order=max_order)
    if kind == "permutations":
        degree = obj.get("degree")
        gens = obj.get("generators")
        if not _is_json_int(degree) or degree < 0:
            raise ParseError("must be a non-negative integer", path=str(path), field="degree")
        if not isinstance(gens, list):
            raise ParseError("must be a list of permutations", path=str(path),
                             field="generators")
        for i, g in enumerate(gens):
            if not isinstance(g, list) or len(g) != degree \
                    or not all(_is_json_int(v) for v in g):
                raise ParseError(f"entry {i} must be a length-{degree} integer list",
                                 path=str(path), field="generators")
        try:
            return from_permutations(gens, name=name or path.stem, max_order=max_order)
        except InvalidPermutation as exc:
            raise ParseError(str(exc), path=str(path), field="generators")
    if kind == "construction":
        ctor = obj.get("constructor")
        if not isinstance(ctor, str):
            raise ParseError("must be a string", path=str(path), field="constructor")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ParseError("must be an object", path=str(path), field="params")
        call = ctor
        if params:
            if not all(_is_json_int(v) for v in params.values()):
                raise ParseError("parameter values must be integers",
                                 path=str(path), field="params")
            if ctor not in _FLAT_BUILDERS:
                raise _spec_error("unknown constructor", ctor, 0,
                                  path=str(path), field="constructor")
            declared = _FLAT_BUILDERS[ctor][1]
            if set(params) != set(declared):
                raise ParseError(
                    f"constructor {ctor!r} expects parameters {list(declared)}, "
                    f"got {sorted(params)}", path=str(path), field="params")
            call = f"{ctor}({','.join(str(params[k]) for k in declared)})"
        try:
            g = build(call, max_order=max_order)
        except ParseError as exc:
            raise ParseError(f"bad constructor spec: {exc}",
                             path=str(path), field="constructor")
        if name:
            g.name = name
        return g
    raise ParseError(f"unknown kind {kind!r}; expected cayley, permutations "
                     "or construction", path=str(path), field="kind")


def _is_json_int(v) -> bool:
    """An integer read from JSON; `true` and `false` read as bool, which is
    a subclass of int, and are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _require_int_matrix(table, path: str, fieldname: str) -> None:
    if not isinstance(table, list) or not table:
        raise ParseError("must be a non-empty list of rows", path=path, field=fieldname)
    width = None
    for i, row in enumerate(table):
        if not isinstance(row, list) or not all(_is_json_int(v) for v in row):
            raise ParseError(f"row {i} must be a list of integers",
                             path=path, field=fieldname)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"row {i} has length {len(row)}, expected {width}",
                             path=path, field=fieldname)
