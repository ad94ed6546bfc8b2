"""Finite groups as explicit multiplication tables, abelian characters,
the subset predicates used by the graph constructions, and the
trial-division number theory the ring and spectrum code shares.

Groups are immutable after construction.  Elements are integers
0..order-1; the table fixes the operation and every constructor places the
identity at index 0.  Every group is built with its structure and none is
validated at run time: Z_n, D_n, Dic_n and S_n come from index arithmetic,
and the abelian ones (Z_n, D_2, S_1, S_2) carry their invariant factors by
construction; a direct product composes its invariant factors from its
factors'; Z_n and direct products build their tables on first read.  The
table checks (associativity, identity, inverses, abelian coordinates) live
in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations as _permutations
from typing import Callable, ClassVar

import numpy as np

MAX_GROUP_ORDER = 10_000


class GroupError(ValueError):
    """Invalid group parameter, descriptor or element index."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table.

    ``abelian_decomposition`` is the invariant-factor chain d1 | d2 | ...
    (empty for the trivial group) and is present exactly when the table
    is commutative.  ``coords`` maps each element to its exponent tuple
    with respect to that chain; both are None for non-abelian groups.
    ``_table`` holds the table or a builder of it, which the first read of
    ``op_table`` calls and drops.
    """

    identity: ClassVar[int] = 0       # every constructor places it at index 0

    order: int
    inv_table: np.ndarray
    label: str
    _table: np.ndarray | Callable[[], np.ndarray] = field(repr=False)
    abelian_decomposition: tuple[int, ...] | None
    coords: np.ndarray | None = field(repr=False)

    @property
    def op_table(self) -> np.ndarray:
        if callable(self._table):
            # drop the builder with the factors it holds: G caches G x Z2
            object.__setattr__(self, "_table", self._table())
        return self._table

    @property
    def is_abelian(self) -> bool:
        return self.abelian_decomposition is not None

    def powers(self, g: int) -> list[int]:
        """[e, g, g^2, ..., g^(d-1)] for g of order d."""
        if not (0 <= g < self.order):      # a negative index would wrap silently
            raise GroupError(f"element index out of range for {self.label}")
        op, out = self.op_table, [0]
        acc = int(op[0, g])
        while acc != 0:
            out.append(acc)
            acc = int(op[acc, g])
        return out

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup) or self.order != other.order:
            return False
        # coords is an isomorphism onto Z_d1 x ... x Z_dk, so equal
        # coordinates fix the table without building it
        if (self.is_abelian and self.abelian_decomposition == other.abelian_decomposition
                and np.array_equal(self.coords, other.coords)):
            return True
        return np.array_equal(self.op_table, other.op_table)

    def __hash__(self) -> int:
        # equality compares structure, not labels: Z2xZ2 equals the additive group of F4
        return hash(self.order)


@dataclass(frozen=True)
class GroupSubset:
    """A subset of a group, stored as a sorted tuple of element indices."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(set(int(m) for m in self.members)))
        if mem and not (0 <= mem[0] and mem[-1] < self.parent.order):
            raise GroupError("subset contains invalid element indices")
        object.__setattr__(self, "members", mem)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return g in set(self.members)

    def __iter__(self):
        return iter(self.members)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.parent.order, dtype=bool)
        if self.members:
            m[list(self.members)] = True
        return m

    def union(self, other: "GroupSubset") -> "GroupSubset":
        if other.parent != self.parent:      # equality checks identity first
            raise GroupError("subsets over different groups")
        return GroupSubset(self.parent, self.members + other.members)

    def with_identity(self) -> "GroupSubset":
        return GroupSubset(self.parent, self.members + (self.parent.identity,))


def subset(group: FiniteGroup, members) -> GroupSubset:
    return GroupSubset(group, tuple(int(m) for m in members))


def _once(obj, name: str, build):
    """build(), computed on first use and kept as attribute ``name`` of the
    frozen object it describes, so the value lives exactly as long as obj."""
    if name not in obj.__dict__:
        object.__setattr__(obj, name, build())
    return obj.__dict__[name]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# abelian structure


def _invariant_chain(blocks) -> tuple[tuple[int, ...], np.ndarray]:
    """Invariant factors and coordinates of a group given by blocks
    (cols, mods) of coordinate columns over Z_m1 + ... + Z_mk: one block
    per direct factor, whose rows are the factor's elements; the group's
    elements are the mixed-radix tuples of rows, first block most
    significant.  Each modulus splits into its prime-power parts, and the
    largest remaining power of each prime joins one cyclic factor until
    every power is used.

    By the CRT, coordinate i is sum_j cols[:, j] * W[j, i] mod d_i, where
    W[j, i] adds K = d_i/q * (d_i/q)^-1 mod q for each part q of column j
    in factor i: (c mod q) K = c K mod d_i, since d_i divides q K.  Each
    block's share is one integer product with its rows of W, and the
    shares add over the product grid by broadcasting."""
    mods = [m for _, block_mods in blocks for m in block_mods]
    by_prime: dict[int, list[tuple[int, int]]] = {}
    for j, m in enumerate(mods):
        for p, e in factorize(m).items():
            by_prime.setdefault(p, []).append((p**e, j))
    for stack in by_prime.values():
        stack.sort()
    dims, weights = [], []                # built largest-first
    while any(by_prime.values()):
        parts = [stack.pop() for stack in by_prime.values() if stack]
        d = math.prod(q for q, _ in parts)
        w = [0] * len(mods)
        for q, j in parts:
            w[j] = (w[j] + d // q * pow(d // q, -1, q)) % d
        dims.append(d)
        weights.append(w)
    dims.reverse()                        # ascending so d1 | d2 | ...
    W = np.array(weights[::-1], dtype=np.int64).reshape(len(dims), len(mods)).T
    coords, j = np.zeros((1, len(dims)), dtype=np.int64), 0
    for cols, block_mods in blocks:
        share = cols @ W[j:j + len(block_mods)]
        coords = (coords[:, None, :] + share[None, :, :]).reshape(len(coords) * len(cols), -1)
        j += len(block_mods)
    coords %= np.array(dims, dtype=np.int64)
    n = len(coords)
    if math.prod(dims) != n:
        raise GroupError("invariant factor product != order")
    # flat < n: coords[:, j] < d_j and prod d_j = n
    flat = coords @ np.array([math.prod(dims[j + 1:]) for j in range(len(dims))], dtype=np.int64)
    covered = np.zeros(n, dtype=bool)
    covered[flat] = True
    if not covered.all():
        raise GroupError("abelian coordinates do not cover the group")
    return tuple(dims), coords


def factorize(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, by trial division; empty for n < 2."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p^m for a prime p and m >= 1, else None."""
    fac = factorize(q)
    return next(iter(fac.items())) if len(fac) == 1 else None


def _check_order(n: int) -> None:
    # the order stays out of the message: it may have more digits than str() allows
    if n > MAX_GROUP_ORDER:
        raise GroupError(f"group order exceeds cap {MAX_GROUP_ORDER}")


# ---------------------------------------------------------------------------
# constructors


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group needs n >= 1")
    _check_order(n)
    a = np.arange(n)
    return FiniteGroup(n, -a % n, f"Z{n}", lambda: (a[:, None] + a) % n,
                       *_invariant_chain([(a[:, None], (n,))]))


def direct_product(*groups: FiniteGroup) -> FiniteGroup:
    """Direct product, mixed-radix with the first factor most significant:
    new[(a1,a2),(b1,b2)] = op1[a1,b1]*m + op2[a2,b2].  A group, so not
    validated again; its invariant factors and coordinates are composed
    from the factors', and its table on the first read of op_table."""
    if not groups:
        raise GroupError("direct product needs at least one factor")
    if len(groups) == 1:
        return groups[0]
    n = math.prod(g.order for g in groups)
    _check_order(n)
    inv = np.zeros(1, dtype=np.int64)
    for g in groups:
        inv = (inv[:, None] * g.order + g.inv_table[None, :]).reshape(-1)
    chain = None, None
    if all(g.is_abelian for g in groups):
        chain = _invariant_chain([(g.coords, g.abelian_decomposition) for g in groups])
    label = "x".join(g.label for g in groups)
    return FiniteGroup(n, inv, label, partial(_product_table, groups), *chain)


def _product_table(groups: tuple[FiniteGroup, ...]) -> np.ndarray:
    op = np.zeros((1, 1), dtype=np.int64)
    for g in groups:
        m, size = g.order, op.shape[0] * g.order
        op = (op[:, None, :, None] * m + g.op_table[None, :, None, :]).reshape(size, size)
    return op


def _indexed_group(op: np.ndarray, label: str, chain=(None, None)) -> FiniteGroup:
    """A group built by index arithmetic with the identity at index 0, so g's
    inverse is the h with g.h = 0; ``chain`` is its abelian structure, if any."""
    return FiniteGroup(len(op), np.argmax(op == 0, axis=1), label, op, *chain)


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n; element (k, j) is a^k b^j, stored at index 2k + j:
    (k, j)(l, m) = (k + (-1)^j l, j xor m)."""
    if n < 2:
        raise GroupError("dihedral group needs n >= 2")
    _check_order(2 * n)
    l, m = np.divmod(np.arange(2 * n), 2)
    k, j = l[:, None], m[:, None]
    op = 2 * ((k + (1 - 2 * j) * l) % n) + (j ^ m)
    # D_2 is Z2 x Z2 with a^k b^j at coordinates (j, k)
    chain = _invariant_chain([(np.stack([m, l], axis=1), (2, 2))]) if n == 2 else (None, None)
    return _indexed_group(op, f"D{n}", chain)


def dicyclic(n: int) -> FiniteGroup:
    """Dic_n of order 4n: a^(2n)=1, b^2=a^n, b a b^-1 = a^-1; index 2k + j:
    (k, j)(l, m) = (k + (-1)^j l + n j m, j xor m)."""
    if n < 2:
        raise GroupError("dicyclic group needs n >= 2")
    _check_order(4 * n)
    l, m = np.divmod(np.arange(4 * n), 2)
    k, j = l[:, None], m[:, None]
    op = 2 * ((k + (1 - 2 * j) * l + n * j * m) % (2 * n)) + (j ^ m)
    return _indexed_group(op, f"Dic{n}")


def symmetric(n: int) -> FiniteGroup:
    """S_n for n <= 6, elements enumerated in lexicographic permutation order
    (which is the order of the permutations read as base-n numbers)."""
    if not (1 <= n <= 6):
        raise GroupError("symmetric group supported for 1 <= n <= 6")
    perms = np.array(list(_permutations(range(n))))
    code = n ** np.arange(n - 1, -1, -1)
    index = np.zeros(n**n, dtype=np.int64)
    index[perms @ code] = np.arange(len(perms))
    # (p q)(k) = p(q(k)): perms[i, perms[j]] composes element i after element j
    op = index[perms[:, perms] @ code]
    # S_1 and S_2 are Z_1 and Z_2, element i at coordinate i
    chain = _invariant_chain([(np.arange(len(op))[:, None], (len(op),))]) if n <= 2 else (None, None)
    return _indexed_group(op, f"S{n}", chain)


def make_group(descriptor: str) -> FiniteGroup:
    """Build a group from the descriptor grammar.

    ``cyclic:n``, ``prod:(spec,spec,...)``, ``dihedral:n``, ``dicyclic:n``,
    ``sym:n``.
    """
    d = descriptor.strip()
    if d.startswith("prod:"):
        inner = d[len("prod:"):].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise GroupError(f"bad product descriptor: {descriptor}")
        parts = _split_top_level(inner[1:-1])
        return direct_product(*(make_group(p) for p in parts))
    if ":" not in d:
        raise GroupError(f"bad group descriptor: {descriptor}")
    kind, _, arg = d.partition(":")
    try:
        n = int(arg)
    except ValueError:
        raise GroupError(f"bad group parameter in: {descriptor}") from None
    builders = {
        "cyclic": cyclic,
        "dihedral": dihedral,
        "dicyclic": dicyclic,
        "sym": symmetric,
    }
    if kind not in builders:
        raise GroupError(f"unknown group kind: {kind}")
    return builders[kind](n)


def _split_top_level(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


# ---------------------------------------------------------------------------
# characters


def conjugate_characters(group: FiniteGroup) -> np.ndarray:
    """conj[i] is the index of the complex conjugate of character i, so
    character i is real exactly when conj[i] == i; built once per group,
    read-only.  Character i has the mixed-radix digits a of i as exponents
    and its conjugate has -a mod d, so conj adds the digits' shares over
    the grid by broadcasting, with no exponent table."""
    if not group.is_abelian:
        raise GroupError("character table requires an abelian group")

    def build():
        conj = np.zeros(1, dtype=np.int64)
        for d in group.abelian_decomposition:
            conj = (conj[:, None] * d + -np.arange(d) % d).ravel()
        return _frozen(conj)

    return _once(group, "_conjugate_characters", build)


def character_sums_over(S: GroupSubset) -> np.ndarray:
    """chi(S) for every character of G = S.parent, character i having the
    mixed-radix digits of i over the invariant factors as its exponents;
    computed once per subset and kept on it, read-only.

    chi_a(S) = sum over x in S of e^(2 pi i a.x / d) is the unnormalised
    inverse DFT of S's indicator on the d1 x ... x dk coordinate grid, read
    row-major: O(n log n) by the FFT, with no n x |S| block.
    """
    group = S.parent
    if not group.is_abelian:
        raise GroupError("character sums require an abelian group")

    def build():
        grid = np.zeros(group.abelian_decomposition or (1,))   # trivial group: one cell, not 0-d
        if S.members:           # on one cell the empty index tuple below addresses that cell
            grid[tuple(group.coords[list(S.members)].T)] = 1
        return _frozen(np.fft.ifftn(grid, norm="forward").ravel())

    return _once(S, "_character_sums", build)


# ---------------------------------------------------------------------------
# subset predicates


def cogeneration_gap(S: GroupSubset) -> int | None:
    """The first x in S with a generator of <x> outside S, or None when S is
    closed under co-generation: a union of generator classes {h : <h> = <g>}.
    These are the atoms of the Boolean algebra of subgroups, and in Z_n the
    gcd class S_n(d) is the generator class of d, so the Eulerian, Boolean
    algebra and gcd-class criteria all decide this one closure."""
    G, mem = S.parent, set(S.members)
    for x in S.members:
        cycle = G.powers(x)
        d = len(cycle)
        if any(cycle[j] not in mem for j in range(1, d) if math.gcd(j, d) == 1):
            return x
    return None


def is_normal(S: GroupSubset) -> bool:
    """g S g^-1 = S for every g in G = S.parent; at once when G is abelian."""
    G = S.parent
    if G.is_abelian:
        return True
    op = G.op_table
    # g s g^-1 for every g (rows) and s in S (columns); conjugation is a
    # bijection, so g S g^-1 inside S already means g S g^-1 = S
    return bool(S.mask()[op[op[:, list(S.members)], G.inv_table[:, None]]].all())


# ---------------------------------------------------------------------------
# gcd classes


def gcd_class_indices(n: int, d: int) -> tuple[int, ...]:
    if d < 1 or d >= n or n % d != 0:
        raise GroupError(f"{d} is not a proper divisor of {n}")
    return tuple(a for a in range(n) if math.gcd(a, n) == d)


def gcd_class(group: FiniteGroup, d: int) -> GroupSubset:
    """S_n(d) = {a in Z_n : gcd(a, n) = d} as a subset of a cyclic group."""
    if group.abelian_decomposition is None or len(group.abelian_decomposition) > 1:
        raise GroupError("gcd classes live in cyclic groups")
    members = gcd_class_indices(group.order, d)     # raises on the trivial group
    # the group's canonical generator may not be element 1; map through coords
    lookup = {int(c): g for g, c in enumerate(group.coords[:, 0])}
    return GroupSubset(group, tuple(lookup[a] for a in members))
