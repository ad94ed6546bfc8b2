"""Finite groups as explicit multiplication tables, abelian characters,
irreducible representations of D_n, Dic_n and S_n, the subset predicates
used by the graph constructions, and the trial-division number theory the
ring and spectrum code shares.

Groups are immutable after construction.  Elements are integers
0..order-1; the table fixes the operation and every constructor places the
identity at index 0.  Every group is built with its structure and none is
validated at run time: Z_n, D_n, Dic_n and S_n come from index arithmetic,
inverses included, and the abelian ones (Z_n, D_2, S_1, S_2) carry their
invariant factors by construction; a direct product composes its invariant
factors from its factors'; D_n, Dic_n and S_n carry their irreducible
representations by construction; every table is built on first read.  The
table and representation checks (associativity, identity, inverses,
abelian coordinates, homomorphism and orthogonality) live in the tests.
"""

from __future__ import annotations

import math
import operator
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
    ``op_table`` calls and drops.  ``irreducibles``, given for D_n, Dic_n
    and S_n, evaluates every irreducible representation of the group, each
    unitary, at an integer array of m elements: a tuple of arrays of shape
    (k, m, d, d), one per dimension d in ascending order, holding the k
    irreducibles of that dimension.
    """

    identity: ClassVar[int] = 0       # every constructor places it at index 0

    order: int
    inv_table: np.ndarray
    label: str
    _table: np.ndarray | Callable[[], np.ndarray] = field(repr=False)
    abelian_decomposition: tuple[int, ...] | None
    coords: np.ndarray | None = field(repr=False)
    irreducibles: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = field(
        default=None, repr=False)

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
        try:        # integers of any type; 1.5 or nan is refused, not truncated
            mem = tuple(sorted(set(map(operator.index, self.members))))
        except TypeError:
            raise GroupError("subset members must be integers") from None
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
    return GroupSubset(group, tuple(members))


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


def dihedral(n: int) -> FiniteGroup:
    """D_n of order 2n; element (k, j) is a^k b^j, stored at index 2k + j:
    (k, j)(l, m) = (k + (-1)^j l, j xor m), so (k, 0)^-1 = (-k, 0) and
    (k, 1)^-1 = (k, 1)."""
    if n < 2:
        raise GroupError("dihedral group needs n >= 2")
    _check_order(2 * n)
    l, m = np.divmod(np.arange(2 * n), 2)
    inv = np.where(m == 1, 2 * l + 1, 2 * (-l % n))
    k, j = l[:, None], m[:, None]
    # D_2 is Z2 x Z2 with a^k b^j at coordinates (j, k)
    chain = _invariant_chain([(np.stack([m, l], axis=1), (2, 2))]) if n == 2 else (None, None)
    return FiniteGroup(2 * n, inv, f"D{n}", lambda: 2 * ((k + (1 - 2 * j) * l) % n) + (j ^ m),
                       *chain, partial(_dihedral_irreducibles, n))


def dicyclic(n: int) -> FiniteGroup:
    """Dic_n of order 4n: a^(2n)=1, b^2=a^n, b a b^-1 = a^-1; index 2k + j:
    (k, j)(l, m) = (k + (-1)^j l + n j m, j xor m), so (k, 0)^-1 = (-k, 0)
    and (k, 1)^-1 = (k + n, 1)."""
    if n < 2:
        raise GroupError("dicyclic group needs n >= 2")
    _check_order(4 * n)
    l, m = np.divmod(np.arange(4 * n), 2)
    inv = 2 * ((np.where(m == 1, l + n, -l)) % (2 * n)) + m
    k, j = l[:, None], m[:, None]
    return FiniteGroup(4 * n, inv, f"Dic{n}",
                       lambda: 2 * ((k + (1 - 2 * j) * l + n * j * m) % (2 * n)) + (j ^ m),
                       None, None, partial(_dicyclic_irreducibles, n))


def symmetric(n: int) -> FiniteGroup:
    """S_n for n <= 6, elements enumerated in lexicographic permutation order
    (which is the order of the permutations read as base-n numbers)."""
    if not (1 <= n <= 6):
        raise GroupError("symmetric group supported for 1 <= n <= 6")
    perms = np.array(list(_permutations(range(n))))
    code = n ** np.arange(n - 1, -1, -1)
    index = np.zeros(n**n, dtype=np.int64)
    index[perms @ code] = np.arange(len(perms))
    # S_1 and S_2 are Z_1 and Z_2, element i at coordinate i
    order = len(perms)
    chain = _invariant_chain([(np.arange(order)[:, None], (order,))]) if n <= 2 else (None, None)
    # (p q)(k) = p(q(k)): perms[i, perms[j]] composes element i after element j
    return FiniteGroup(order, index[np.argsort(perms, axis=1) @ code], f"S{n}",
                       lambda: index[perms[:, perms] @ code], *chain,
                       partial(_symmetric_irreducibles, perms, _young_generators(n)))


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
# irreducible representations


def representation_sums_over(S: GroupSubset) -> tuple[np.ndarray, ...]:
    """rho(S) = sum over s in S of rho(s) for every irreducible rho of
    G = S.parent, stacked by dimension as ``G.irreducibles`` stacks them:
    one (k, d, d) array per dimension d.  rho is evaluated at S's members
    only; computed once per subset and kept on it, read-only."""
    group = S.parent
    if group.irreducibles is None:
        raise GroupError(f"{group.label} carries no irreducible representations")

    def build():
        rhos = group.irreducibles(np.array(S.members, dtype=np.int64))
        return tuple(_frozen(rho.sum(axis=1)) for rho in rhos)

    return _once(S, "_representation_sums", build)


def _sign_characters(k: np.ndarray, j: np.ndarray, alphas: int) -> np.ndarray:
    """alpha^k beta^j at every (k, j), for beta = +-1 and the first
    ``alphas`` of alpha = 1, -1: shape (2 alphas, m, 1, 1)."""
    a, b = np.divmod(np.arange(2 * alphas)[:, None], 2)
    return (-1.0) ** (a * k + b * j)[:, :, None, None]


def _two_by_two(shape, dtype, top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    """The 2 x 2 matrices with these entries, each an array of ``shape``."""
    out = np.empty(shape + (2, 2), dtype)
    out[..., 0, 0], out[..., 0, 1] = top_left, top_right
    out[..., 1, 0], out[..., 1, 1] = bottom_left, bottom_right
    return out


def _dihedral_irreducibles(n: int, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """D_n's irreducibles at g = a^k b^j: the linear characters
    alpha^k beta^j (alpha = -1 only for even n), then rho_m(a^k b^j) =
    R(2 pi m k / n) F^j for m = 1, ..., (n - 1) // 2, with R the rotation
    and F = diag(1, -1) the reflection; all real orthogonal."""
    k, j = np.divmod(g, 2)
    theta = 2 * np.pi / n * (np.arange(1, (n + 1) // 2)[:, None] * k % n)
    c, s, f = np.cos(theta), np.sin(theta), 1 - 2 * j
    planar = _two_by_two(theta.shape, float, c, -s * f, s, c * f)
    return tuple(r for r in (_sign_characters(k, j, 2 - n % 2), planar) if len(r))


def _dicyclic_irreducibles(n: int, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """Dic_n's irreducibles at g = a^k b^j: four linear characters, which
    are alpha^k beta^j with alpha, beta = +-1 for even n and, since b^2 =
    a^n forces alpha = beta^2, i^(t (2k + j)) for t = 0..3 for odd n; then
    rho_m(a^k b^j) = diag(w^mk, w^-mk) [[0, (-1)^m], [1, 0]]^j for
    m = 1, ..., n - 1, with w = e^(i pi / n); all unitary."""
    k, j = np.divmod(g, 2)
    if n % 2 == 0:
        linear = _sign_characters(k, j, 2)
    else:
        powers_of_i = np.array([1, 1j, -1, -1j])
        linear = powers_of_i[np.arange(4)[:, None] * (2 * k + j) % 4][:, :, None, None]
    m = np.arange(1, n)[:, None]
    x = np.exp(1j * np.pi / n * (m * k % (2 * n)))
    y, sign = x.conj(), 1 - 2 * (m % 2)
    planar = _two_by_two(x.shape, complex, x * (1 - j), sign * x * j, y * j, y * (1 - j))
    return linear, planar


def _young_generators(n: int) -> tuple[np.ndarray, ...]:
    """Young's orthogonal form (James & Kerber 1981, 3.3) of the adjacent
    transpositions s_i = (i i+1), i = 0..n-2, for every partition of n,
    stacked by dimension: one (k, n, d, d) array per dimension d whose slot
    n - 1 holds the identity.  The basis is the standard tableaux, each a
    row word (letter i sits in row w[i]); with r the content of letter i+1
    minus that of letter i, s_i sends T to T / r + sqrt(1 - 1/r^2) s_i T,
    the second term only when s_i T is standard (|r| > 1)."""
    by_dim: dict[int, list[np.ndarray]] = {}
    for shape in _partitions(n, n):
        words = [()]
        for _ in range(n):
            words = [w + (r,) for w in words for r in range(len(shape))
                     if w.count(r) < shape[r] and (r == 0 or w.count(r - 1) > w.count(r))]
        where = {w: t for t, w in enumerate(words)}
        gens = np.zeros((n, len(words), len(words)))
        gens[n - 1] = np.eye(len(words))
        for t, w in enumerate(words):
            content = [w[:i].count(w[i]) - w[i] for i in range(n)]
            for i in range(n - 1):
                r = content[i + 1] - content[i]
                gens[i, t, t] = 1 / r
                if abs(r) > 1:
                    swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    gens[i, where[swapped], t] = math.sqrt(1 - 1 / r**2)
        by_dim.setdefault(len(words), []).append(gens)
    return tuple(np.stack(by_dim[d]) for d in sorted(by_dim))


def _partitions(n: int, top: int):
    """The partitions of n with parts at most top, largest parts first."""
    if n == 0:
        yield ()
    for first in range(min(n, top), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _symmetric_irreducibles(perms: np.ndarray, generators: tuple[np.ndarray, ...],
                            g: np.ndarray) -> tuple[np.ndarray, ...]:
    """S_n's irreducibles at the elements g, each the product of Young's
    orthogonal form along a reduced word of g.  Bubble-sorting the rows
    perms[g] swaps positions i, i+1 (p -> p s_i) at step t wherever they
    are out of order, until p s_(w_1) ... s_(w_L) = e, so rho(p) =
    rho(s_(w_L)) ... rho(s_(w_1)); a row with nothing to swap at a step
    takes slot n - 1, the identity."""
    p, n = perms[g], perms.shape[1]
    steps = []
    for end in range(n - 1, 0, -1):
        for i in range(end):
            left, right = p[:, i], p[:, i + 1]
            steps.append(np.where(left > right, i, n - 1))
            p[:, i], p[:, i + 1] = np.minimum(left, right), np.maximum(left, right)
    out = []
    for gens in generators:
        rho = np.broadcast_to(gens[:, n - 1:], (len(gens), len(g)) + gens.shape[2:])
        for step in steps:
            rho = gens[:, step] @ rho
        out.append(rho)
    return tuple(out)


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


def is_inverse_closed(S: GroupSubset) -> bool:
    """S = S^-1, read from the inverse table."""
    return np.array_equal(np.sort(S.parent.inv_table[list(S.members)]), S.members)


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
