"""Naive reference implementations used to cross-check the library.

Everything here but the last four functions is definitional and works over
or builds a raw multiplication table (list of lists); nothing else reuses
the package's bitset machinery. All of it is pure Python except the
all-triples associativity scan, which uses numpy slices because n^3
interpreted steps are out of reach at order 1029, and the cyclic, dihedral,
dicyclic and Heisenberg tables, which are their int64 formulas mod n or p.
`naive_class2_table` computes each kernel product and each image under
the action on its own, from their rules. `family_closed_form` derives the
report fields of the cyclic, dihedral and dicyclic families by hand.
The last four take a group and use the
package's subgroups and predicates: `subgroup_as_group` and
`retabled_subgroup_facts` keep the slower route to a subgroup's own facts,
the subgroup copied out as a group of its own and analysed there;
`centralizer` gives C(x) element by element, where the package reads it
from its centralizer table; and `is_hughes_thompson_type` searches every
prime for a proper Hughes subgroup.
"""

from __future__ import annotations

import itertools

import numpy as np

from nacent.errors import NotNilpotent
from nacent.groups import FiniteGroup, table_dtype
from nacent.predicates import (
    decompose_p_times_abelian,
    hughes_subgroup,
    is_abelian,
    is_ca_group,
    is_p_group,
    primes_dividing,
)
from nacent.subgroups import Subgroup, centralizer_table, indices_of, mask_of, mask_of_bool


def table_of(G) -> list[list[int]]:
    return [[int(v) for v in row] for row in G.table]


def naive_centralizer(table, x) -> frozenset[int]:
    n = len(table)
    return frozenset(g for g in range(n) if table[g][x] == table[x][g])


def naive_center(table) -> frozenset[int]:
    n = len(table)
    return frozenset(z for z in range(n)
                     if all(table[z][g] == table[g][z] for g in range(n)))


def naive_centralizer_sets(table) -> set[frozenset[int]]:
    return {naive_centralizer(table, x) for x in range(len(table))}


def naive_is_abelian_subset(table, members) -> bool:
    ms = sorted(members)
    return all(table[a][b] == table[b][a] for a in ms for b in ms)


def naive_orders(table) -> list[int]:
    n = len(table)
    out = []
    for x in range(n):
        cur, k = x, 1
        while cur != 0:
            cur = table[cur][x]
            k += 1
        out.append(k)
    return out


def naive_closure(table, seed) -> frozenset[int]:
    n = len(table)
    member = bytearray(n)
    member[0] = 1
    seeds = sorted({int(s) for s in seed})
    frontier = [0]
    for s in seeds:
        if not member[s]:
            member[s] = 1
            frontier.append(s)
    while frontier:
        nxt = []
        for a in frontier:
            row = table[a]
            for s in seeds:
                b = row[s]
                if not member[b]:
                    member[b] = 1
                    nxt.append(b)
        frontier = nxt
    return frozenset(i for i in range(n) if member[i])


def naive_generators(table) -> tuple[int, ...]:
    """A generating set: greedy, by least element outside the closure of
    those chosen so far, then each, in that order, dropped if the closure of
    the others is still everything."""
    n = len(table)
    gens: list[int] = []
    closure = naive_closure(table, gens)
    while len(closure) < n:
        gens.append(min(x for x in range(n) if x not in closure))
        closure = naive_closure(table, gens)
    for x in list(gens):
        rest = [g for g in gens if g != x]
        if len(naive_closure(table, rest)) == n:
            gens = rest
    return tuple(gens)


def naive_all_subgroups(table) -> set[frozenset[int]]:
    """Every subgroup, by growing generator sets one element at a time."""
    n = len(table)
    triv = frozenset([0])
    subs = {triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for H in frontier:
            for x in range(n):
                if x in H:
                    continue
                H2 = naive_closure(table, set(H) | {x})
                if H2 not in subs:
                    subs.add(H2)
                    nxt.append(H2)
        frontier = nxt
    return subs


def naive_inverses(table) -> list[int]:
    n = len(table)
    inv = [0] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0:
                inv[i] = j
                break
    return inv


def naive_conjugate(table, inv, members, g) -> frozenset[int]:
    return frozenset(table[table[inv[g]][m]][g] for m in members)


def naive_normalizer(table, members, inv=None) -> frozenset[int]:
    """Every g with g^-1 H g = H; `inv` is the list of inverses, when known."""
    inv = naive_inverses(table) if inv is None else inv
    H = frozenset(members)
    return frozenset(g for g in range(len(table)) if naive_conjugate(table, inv, H, g) == H)


def naive_is_frobenius_partition(table, components) -> bool:
    """True iff the components are a Frobenius kernel K and every conjugate
    of a complement H, by definition: H is a proper non-trivial component
    meeting each conjugate H^g with g outside H in the identity only, and K
    is the identity plus the elements lying in no conjugate of H. No
    component is assumed to be the kernel because of its size."""
    n = len(table)
    inv = naive_inverses(table)
    comps = {frozenset(c) for c in components}
    for H in comps:
        if len(H) in (1, n):
            continue
        conjugates = set()
        for g in range(n):
            Hg = naive_conjugate(table, inv, H, g)
            if g not in H and Hg & H != {0}:
                break
            conjugates.add(Hg)
        else:
            kernel = frozenset(range(n)).difference(*conjugates) | {0}
            if comps == conjugates | {kernel}:
                return True
    return False


def naive_normal_subgroups(table) -> set[frozenset[int]]:
    inv = naive_inverses(table)
    n = len(table)
    return {H for H in naive_all_subgroups(table)
            if all(naive_conjugate(table, inv, H, g) == H for g in range(n))}


def _prime_powers(n: int) -> dict[int, int]:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def subtable(table, members) -> list[list[int]]:
    ms = sorted(members)
    pos = {m: i for i, m in enumerate(ms)}
    return [[pos[table[a][b]] for b in ms] for a in ms]


def naive_is_nilpotent_sylow_count(table, subs=None) -> bool:
    """Nilpotent iff there is exactly one subgroup of each full prime-power
    order (a unique Sylow subgroup for every prime). Needs the subgroup
    lattice, so only affordable on small groups."""
    n = len(table)
    if n == 1:
        return True
    if subs is None:
        subs = naive_all_subgroups(table)
    for p, k in _prime_powers(n).items():
        target = p ** k
        if sum(1 for H in subs if len(H) == target) != 1:
            return False
    return True


def naive_is_nilpotent(table, members=None) -> bool:
    """Nilpotent iff every two elements of coprime orders commute.

    (Elements of coprime order commuting forces every subgroup generated
    by the p-elements to be a normal Sylow subgroup, and conversely a
    direct product of p-groups commutes across factors.) Checked against
    naive_is_nilpotent_sylow_count on small groups in the test suite.
    """
    ms = sorted(members) if members is not None else range(len(table))
    ms = list(ms)
    orders = naive_orders(table)
    from math import gcd
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            if gcd(orders[a], orders[b]) == 1 and table[a][b] != table[b][a]:
                return False
    return True


def naive_conjugacy_classes(table) -> list[frozenset[int]]:
    n = len(table)
    inv = naive_inverses(table)
    seen = [False] * n
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = {table[table[inv[g]][x]][g] for g in range(n)}
        for v in orbit:
            seen[v] = True
        classes.append(frozenset(orbit))
    return classes


def naive_class_join_normals(table) -> set[frozenset[int]]:
    """Normal subgroups as joins of conjugacy-class closures."""
    atoms = [naive_closure(table, cls) for cls in naive_conjugacy_classes(table)]
    found = {frozenset([0])}
    for atom in atoms:
        new = {naive_closure(table, H | atom) for H in found}
        found |= new
    return found


def naive_nonsimple_witness_size(table, components, normals=None) -> int | None:
    """The least size of a proper non-trivial normal N such that every
    component lies inside N or meets it in the identity only, or None;
    `normals` is `naive_class_join_normals(table)`, when known."""
    n = len(table)
    normals = naive_class_join_normals(table) if normals is None else normals
    comps = [frozenset(c) for c in components]
    return min((len(N) for N in normals
                if 1 < len(N) < n and all(c <= N or c & N == {0} for c in comps)), default=None)


def naive_elementary(table, components, normals=None) -> tuple[int, int] | None:
    """(|K|, p) for the least prime p with a non-trivial normal K of index p
    such that every x outside K has order p and <x> is a component, or None;
    `normals` is `naive_class_join_normals(table)`, when known."""
    n = len(table)
    normals = naive_class_join_normals(table) if normals is None else normals
    orders = naive_orders(table)
    comps = {frozenset(c) for c in components}
    for p in sorted(_prime_powers(n)):
        for K in normals:
            if 1 < len(K) and len(K) * p == n and all(
                    orders[x] == p and naive_closure(table, [x]) in comps
                    for x in range(n) if x not in K):
                return len(K), p
    return None


def naive_fitting(table) -> frozenset[int]:
    """Join of all normal nilpotent subgroups."""
    normals = naive_class_join_normals(table)
    nn = [H for H in normals if naive_is_nilpotent(table, H)]
    seed = set()
    for H in nn:
        seed |= H
    return naive_closure(table, seed)


def naive_is_associative(table) -> tuple[int, int, int] | None:
    """The least triple (i, j, k) with (i*j)*k != i*(j*k), or None.

    Every one of the n^3 triples is checked, one i at a time.
    """
    t = np.asarray(table, dtype=np.intp)
    for i in range(t.shape[0]):
        left, right = t[t[i]], np.take(t[i], t)   # (i*j)*k and i*(j*k) over (j, k)
        if not np.array_equal(left, right):
            bad = np.nonzero(left != right)
            return i, int(bad[0][0]), int(bad[1][0])
    return None


def naive_sylow(table, p: int) -> frozenset[int]:
    """A Sylow p-subgroup: a maximal p-subgroup, grown by one pass over
    the elements (every maximal p-subgroup is a Sylow subgroup)."""
    def is_p_power(m: int) -> bool:
        while m % p == 0:
            m //= p
        return m == 1

    gens: list[int] = []
    H = frozenset([0])
    for x in range(len(table)):
        if x in H:
            continue
        H2 = naive_closure(table, gens + [x])
        if is_p_power(len(H2)):
            gens.append(x)
            H = H2
    return H


def naive_p_core(table, p: int) -> frozenset[int]:
    """Intersection of all conjugates g^-1 P g of a Sylow p-subgroup P."""
    inv = naive_inverses(table)
    P = naive_sylow(table, p)
    core = set(P)
    for g in range(len(table)):
        core &= naive_conjugate(table, inv, P, g)
    return frozenset(core)


def naive_commutator_subgroup(table) -> frozenset[int]:
    """Closure of every commutator [x, y] = x^-1 y^-1 x y."""
    inv = naive_inverses(table)
    n = len(table)
    comms = {table[table[table[inv[x]][inv[y]]][x]][y] for x in range(n) for y in range(n)}
    return naive_closure(table, comms)


def naive_normal_closure(table, members) -> frozenset[int]:
    """Closure of every conjugate g^-1 m g of the given elements."""
    inv = naive_inverses(table)
    conj: set[int] = set()
    for g in range(len(table)):
        conj |= naive_conjugate(table, inv, members, g)
    return naive_closure(table, conj)


def naive_semidirect_table(k_table, h_table, action) -> list[list[int]]:
    """Table of K x| H on pairs (k, h) encoded k * |H| + h, by definition:
    (k1, h1)(k2, h2) = (k1 * phi_h1(k2), h1 * h2).

    `action` maps generators of H to permutations of K's elements; phi is
    extended to all of H by phi_(h*g)(k) = phi_h(phi_g(k)).
    """
    nk, nh = len(k_table), len(h_table)
    phi = {0: list(range(nk))}
    frontier = [0]
    while frontier:
        nxt = []
        for h in frontier:
            for g, perm in action.items():
                hg = h_table[h][g]
                if hg not in phi:
                    phi[hg] = [phi[h][perm[k]] for k in range(nk)]
                    nxt.append(hg)
        frontier = nxt
    return [[k_table[k1][phi[h1][k2]] * nh + h_table[h1][h2]
             for k2 in range(nk) for h2 in range(nh)]
            for k1 in range(nk) for h1 in range(nh)]


def naive_cyclic_table(n: int) -> np.ndarray:
    """Addition mod n."""
    idx = np.arange(n, dtype=np.int64)
    return (idx[:, None] + idx[None, :]) % n


def naive_dihedral_table(n: int) -> np.ndarray:
    """r^i s^f as f * n + i, with s r s = r^-1."""
    idx = np.arange(2 * n, dtype=np.int64)
    rot, flip = idx % n, idx // n
    r1, f1 = rot[:, None], flip[:, None]
    r2, f2 = rot[None, :], flip[None, :]
    r = np.where(f1 == 0, r1 + r2, r1 - r2) % n
    return r + n * ((f1 + f2) % 2)


def naive_dicyclic_table(n: int) -> np.ndarray:
    """a^i b^j as 2 i + j, with a of order 2n, b^2 = a^n, b a b^-1 = a^-1."""
    idx = np.arange(4 * n, dtype=np.int64)
    a, b = idx >> 1, idx & 1
    a1, b1 = a[:, None], b[:, None]
    a2, b2 = a[None, :], b[None, :]
    ares = np.where(b1 == 0, a1 + a2, a1 - a2)
    ares = (ares + np.where((b1 == 1) & (b2 == 1), n, 0)) % (2 * n)
    return ares * 2 + ((b1 + b2) % 2)


def naive_heisenberg_table(p: int) -> np.ndarray:
    """(x, y, z) mod p as (x p + y) p + z, with
    (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x y'), one row at a time."""
    n = p ** 3
    idx = np.arange(n, dtype=np.int64)
    x, y, z = idx // (p * p), idx // p % p, idx % p
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        table[i] = ((x[i] + x) % p * p + (y[i] + y) % p) * p + (z[i] + z + x[i] * y) % p
    return table


def naive_class2_table(p: int, B, S, lam: int, m: int) -> list[list[int]]:
    """The pairs (v, z), v in F_p^d and z in F_p, with
    (v, z)(w, t) = (v + w, z + t + v^T B w), extended by C_m acting by
    (v, z) -> (S v, lam z). (v, z) is the base-p number with digits v, then
    z, and (k, h) is k * m + h. Each kernel product and each image under the
    action is computed on its own, and the extension by `naive_semidirect_table`."""
    d = len(B)
    elems = list(itertools.product(range(p), repeat=d + 1))  # ascending base-p numbers
    index = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        form = sum(a[i] * B[i][j] * b[j] for i in range(d) for j in range(d))
        return tuple((x + y) % p for x, y in zip(a[:d], b[:d])) + ((a[d] + b[d] + form) % p,)

    def act(a):
        sv = tuple(sum(S[i][j] * a[j] for j in range(d)) % p for i in range(d))
        return sv + (lam * a[d] % p,)

    k_table = [[index[mul(a, b)] for b in elems] for a in elems]
    action = {1: [index[act(a)] for a in elems]} if m > 1 else {}
    return naive_semidirect_table(k_table, naive_cyclic_table(m).tolist(), action)


def naive_permutation_table(generators) -> list[list[int]]:
    """Table of the group the permutations generate, elements in the order
    a breadth-first walk from the identity reaches them, the generators
    applied on the right in the given order; every product a*b, with
    (a*b)(x) = a(b(x)), composed and looked up."""
    degree = len(generators[0]) if generators else 0
    ident = tuple(range(degree))
    elems, index, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                p = tuple(a[g[x]] for x in range(degree))
                if p not in index:
                    index[p] = len(elems)
                    elems.append(p)
                    nxt.append(p)
        frontier = nxt
    return [[index[tuple(a[b[x]] for x in range(degree))] for b in elems] for a in elems]


def naive_coset_labels(table, members) -> list[int]:
    """The coset gN of each element g, numbered in order of first element
    reached: each g not yet labeled opens the next coset, g * members."""
    label = [-1] * len(table)
    count = 0
    for g in range(len(table)):
        if label[g] < 0:
            for z in members:
                label[table[g][z]] = count
            count += 1
    return label


def naive_right_coset_leaders(table, members) -> list[int]:
    """The least member of each right coset Hg: min(z * g) over z in H."""
    return [min(table[z][g] for z in members) for g in range(len(table))]


def family_closed_form(spec: str) -> dict | None:
    """The report fields of `cyclic(n)`, `dihedral(n)` and `dicyclic(n)`
    derived by hand, or None for another spec (Belcastro and Sherman,
    "Counting centralizers in finite groups", Math. Mag. 67, 1994).

    C_n is abelian with |Z| = n, so C(x) = G for every x. The dihedral
    group of order 2n and the dicyclic group of order 4n have a cyclic
    subgroup R of index 2 whose non-central elements have centralizer R,
    and an element x outside R has the abelian centralizer <x, Z>. G/Z is
    then dihedral of order 2k with k = |R/Z|: R/Z plus the k subgroups of
    order 2 of the other elements partition it. The partition is normal;
    its least proper normal subgroup made of whole components has order k
    (R/Z is one, and one holding a subgroup of order 2 outside R/Z holds
    its conjugates too); it is elementary with K = R/Z and p = 2; and it is
    Frobenius iff k is odd. The k subgroups of order 2 are
    the images of k distinct centralizers <x, Z>, so |Cent| = k + 2 with R
    and G. Z is 1 for odd dihedral n, and otherwise the group's one
    involution in R (its unique central one): k = n, n/2 and n.
    """
    name, _, arg = spec.partition("(")
    if name not in ("cyclic", "dihedral", "dicyclic"):
        return None
    n = int(arg.rstrip(")"))
    if name == "cyclic":
        return {"center_order": n, "cent_count": 1, "nacent_count": 0,
                "category": "abelian", "partition": {"applicable": False}}
    zsize, k = (1, n) if name == "dihedral" and n % 2 else (2, n // 2 if name == "dihedral" else n)
    return {"center_order": zsize, "cent_count": k + 2, "nacent_count": 1, "category": "ca",
            "partition": {"applicable": True, "exists": True, "component_count": k + 1,
                          "component_sizes": [2] * k + [k], "is_normal": True,
                          "nonsimple_witness_size": k, "elementary": {"k_size": k, "p": 2},
                          "frobenius": k % 2 == 1}}


def subgroup_as_group(H, name: str | None = None):
    """H copied out as a group of its own on compacted indices, and the
    array mapping its element i to the parent index. The identity stays
    at 0."""
    G = H.parent
    if H.is_whole():
        return G, np.arange(G.order, dtype=np.int64)
    mem = H.members().astype(np.int64)
    pos = np.zeros(G.order, dtype=table_dtype(mem.size))
    pos[mem] = np.arange(mem.size)
    sub = pos[G.table[np.ix_(mem, mem)]]
    return FiniteGroup(sub, name=name or f"{G.name}[{mem.size}]"), mem


def retabled_subgroup_facts(H) -> dict:
    """The facts about a subgroup H itself, read from H copied out as a
    group by `subgroup_as_group`: its distinct centralizers with their
    abelian flags, whether it is abelian and a CA group, and its P x A
    split, with every subgroup given as a bitset over H's parent."""
    g, embed = subgroup_as_group(H)

    def lift(mask):
        return mask_of(embed[indices_of(mask, g.order)])

    ct = centralizer_table(g)
    try:
        split = decompose_p_times_abelian(g)
    except NotNilpotent:
        split = NotNilpotent
    else:
        if split is not None:
            P, A, p = split
            split = lift(P.mask), lift(A.mask), p
    return {
        "centralizers": {lift(m): ab for m, ab in zip(ct.masks, ct.abelian)},
        "abelian": is_abelian(g),
        "ca": is_ca_group(g),
        "split": split,
    }


def centralizer(G, x: int) -> Subgroup:
    """C(x) by its definition: the elements g with g*x = x*g, read off
    column x and row x of the table."""
    t = G.table
    return Subgroup(G, mask_of_bool(t[:, x] == t[x, :]))


def is_hughes_thompson_type(G) -> int | None:
    """Least prime p with G not a p-group and H_p(G) proper, if any."""
    whole = (1 << G.order) - 1
    for p in primes_dividing(G.order):
        if is_p_group(G) == p:
            continue
        if hughes_subgroup(G, p).mask != whole:
            return p
    return None
