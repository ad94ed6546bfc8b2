"""Finite commutative rings with identity, given as Artin products of
local rings.

Supported local kinds: Z_{p^k}, F_{p^m}, GR(p^s, t) and F_{p^m}[x]/(x^t).
Elements are canonical integers; all arithmetic goes through per-factor
tables precomputed at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (FiniteGroup, GroupSubset, _once, direct_product, group_from_table,
                      prime_power)

MAX_LOCAL_SIZE = 4096
MAX_RING_SIZE = 10_000


class RingError(ValueError):
    """Invalid ring parameter or failed construction."""


def _is_prime(p: int) -> bool:
    return prime_power(p) == (p, 1)


# ---------------------------------------------------------------------------
# polynomial helpers over Z_p


def _poly_divmod(a: list[int], f: list[int], p: int) -> tuple[list[int], list[int]]:
    # f monic; coefficients ascending
    a = [x % p for x in a]
    df = len(f) - 1
    while len(a) > df and a[-1] == 0:
        a.pop()
    q = [0] * max(1, len(a) - df)
    while len(a) - 1 >= df and any(a):
        shift = len(a) - 1 - df
        c = a[-1]
        q[shift] = c
        for i, fc in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fc) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return q, a


def _irreducible_mod_p(f: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for v in range(p**d):
            g = [0] * (d + 1)
            vv = v
            for i in range(d):
                g[i] = vv % p
                vv //= p
            g[d] = 1
            _, rem = _poly_divmod(list(f), g, p)
            if not any(rem):
                return False
    return True


def smallest_irreducible(p: int, t: int) -> list[int]:
    """Monic degree-t polynomial irreducible mod p, smallest in the fixed
    base-p enumeration of the lower coefficients (c_0 least significant)."""
    for v in range(p**t):
        f = [0] * (t + 1)
        vv = v
        for i in range(t):
            f[i] = vv % p
            vv //= p
        f[t] = 1
        if _irreducible_mod_p(f, p):
            return f
    raise RingError(f"no monic irreducible of degree {t} over F_{p}")


# ---------------------------------------------------------------------------
# local rings


@dataclass(frozen=True)
class LocalRing:
    """A finite local ring with full addition and multiplication tables."""

    size: int
    add: np.ndarray = field(repr=False)
    mul: np.ndarray = field(repr=False)
    one: int
    label: str

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, LocalRing)
            and self.size == other.size
            and self.one == other.one
            and np.array_equal(self.add, other.add)
            and np.array_equal(self.mul, other.mul)
        )

    def __hash__(self) -> int:
        return hash(self.size)

    @property
    def units_mask(self) -> np.ndarray:
        return _units_mask(self.mul, self.one)

    @property
    def maximal_ideal_size(self) -> int:
        return self.size - int(self.units_mask.sum())

    @property
    def is_field(self) -> bool:
        return self.maximal_ideal_size == 1


def _units_mask(mul: np.ndarray, one: int) -> np.ndarray:
    return (mul == one).any(axis=1)


def _validate_local(ring: LocalRing) -> None:
    r = ring.size
    add, mul = ring.add, ring.mul
    if not np.array_equal(add, add.T):
        raise RingError(f"{ring.label}: addition not commutative")
    if not np.array_equal(mul, mul.T):
        raise RingError(f"{ring.label}: multiplication not commutative")
    idx = np.arange(r)
    if not np.array_equal(mul[ring.one], idx):
        raise RingError(f"{ring.label}: 1 is not a multiplicative identity")
    if not np.array_equal(add[0], idx):
        raise RingError(f"{ring.label}: 0 is not an additive identity")
    rng = np.random.default_rng(1)
    k = min(4096, r * r)
    a, b, c = (rng.integers(0, r, k) for _ in range(3))
    if not np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]]):
        raise RingError(f"{ring.label}: distributivity fails")
    # non-units must form an ideal (the maximal ideal of a local ring)
    nu = np.nonzero(~ring.units_mask)[0]
    if len(nu):
        if not set(add[np.ix_(nu, nu)].ravel()) <= set(nu):
            raise RingError(f"{ring.label}: non-units not closed under addition")
        if not set(mul[:, nu].ravel()) <= set(nu):
            raise RingError(f"{ring.label}: non-units do not absorb products")


def zpk(p: int, k: int) -> LocalRing:
    if not _is_prime(p) or k < 1:
        raise RingError(f"Z_(p^k) needs prime p, got p={p}, k={k}")
    r = p**k
    if r > MAX_LOCAL_SIZE:
        raise RingError(f"local ring size {r} exceeds cap {MAX_LOCAL_SIZE}")
    a = np.arange(r)
    ring = LocalRing(
        size=r,
        add=(a[:, None] + a[None, :]) % r,
        mul=(a[:, None] * a[None, :]) % r,
        one=1 % r, label=f"Z{r}",
    )
    _validate_local(ring)
    return ring


def _vector_table(vecs: np.ndarray, base: int, combine) -> np.ndarray:
    """Pairwise table from an (r, t) matrix of base-`base` digit vectors."""
    r, t = vecs.shape
    powers = base ** np.arange(t, dtype=np.int64)
    out = np.zeros((r, r), dtype=np.int64)
    chunk = max(1, (1 << 18) // max(1, r))
    for a0 in range(0, r, chunk):
        block = combine(vecs[a0:a0 + chunk], vecs)   # (blk, r, t) digit vectors
        out[a0:a0 + chunk] = block @ powers
    return out


def _coeff_vectors(r: int, base: int, t: int) -> np.ndarray:
    vecs = np.zeros((r, t), dtype=np.int64)
    v = np.arange(r)
    for i in range(t):
        vecs[:, i] = v % base
        v //= base
    return vecs


def galois_ring(p: int, s: int, t: int) -> LocalRing:
    """GR(p^s, t) = Z_{p^s}[x]/(f) with f a lifted basic irreducible."""
    if not _is_prime(p) or s < 1 or t < 1:
        raise RingError(f"GR needs prime p and s,t >= 1; got {p},{s},{t}")
    q = p**s
    r = q**t
    if r > MAX_LOCAL_SIZE:
        raise RingError(f"local ring size {r} exceeds cap {MAX_LOCAL_SIZE}")
    f = smallest_irreducible(p, t)
    vecs = _coeff_vectors(r, q, t)

    # reduction map for x^(t+i) mod f, coefficients mod q
    red = np.zeros((t - 1 if t > 1 else 0, t), dtype=np.int64)
    if t > 1:
        cur = [(-c) % q for c in f[:t]]          # x^t = -(f - x^t)
        red[0] = cur
        for i in range(1, t - 1):
            nxt = [0] + cur[:-1]
            nxt = [(nxt[j] + cur[-1] * red[0][j]) % q for j in range(t)]
            red[i] = nxt
            cur = nxt

    def combine_mul(A, B):
        conv = np.zeros((A.shape[0], B.shape[0], 2 * t - 1), dtype=np.int64)
        for i in range(t):
            for j in range(t):
                conv[:, :, i + j] += A[:, None, i] * B[None, :, j]
        conv %= q
        low = conv[:, :, :t]
        if t > 1:
            high = conv[:, :, t:]
            low = (low + np.tensordot(high, red, axes=(2, 0))) % q
        return low % q

    def combine_add(A, B):
        return (A[:, None, :] + B[None, :, :]) % q

    add = _vector_table(vecs, q, combine_add)
    mul = _vector_table(vecs, q, combine_mul)
    if s == 1:
        label = f"F{r}"
    elif t == 1:
        label = f"Z{q}"
    else:
        label = f"GR({q},{t})"
    ring = LocalRing(size=r, add=add, mul=mul, one=1, label=label)
    _validate_local(ring)
    expected_units = p ** ((s - 1) * t) * (p**t - 1)
    if int(ring.units_mask.sum()) != expected_units:
        raise RingError(f"{label}: unit count mismatch")
    return ring


def gf(p: int, m: int) -> LocalRing:
    """The finite field F_{p^m} (same construction as GR(p, m))."""
    return galois_ring(p, 1, m)


def field_quotient(p: int, m: int, t: int) -> LocalRing:
    """F_{p^m}[x]/(x^t): truncated polynomials with field coefficients."""
    if t < 1:
        raise RingError("quotient needs t >= 1")
    base = gf(p, m)
    q = base.size
    r = q**t
    if r > MAX_LOCAL_SIZE:
        raise RingError(f"local ring size {r} exceeds cap {MAX_LOCAL_SIZE}")
    vecs = _coeff_vectors(r, q, t)
    fadd, fmul = base.add, base.mul

    def combine_add(A, B):
        return fadd[A[:, None, :], B[None, :, :]]

    def combine_mul(A, B):
        out = np.zeros((A.shape[0], B.shape[0], t), dtype=np.int64)
        for i in range(t):
            for j in range(t - i):
                out[:, :, i + j] = fadd[out[:, :, i + j], fmul[A[:, None, i], B[None, :, j]]]
        return out

    add = _vector_table(vecs, q, combine_add)
    mul = _vector_table(vecs, q, combine_mul)
    label = f"F{q}[x]/(x^{t})" if t > 1 else f"F{q}"
    ring = LocalRing(size=r, add=add, mul=mul, one=1, label=label)
    _validate_local(ring)
    return ring


# ---------------------------------------------------------------------------
# Artin products


class FiniteRing:
    """Product of local rings; elements are mixed-radix integers with the
    first factor most significant."""

    def __init__(self, factors: list[LocalRing]):
        if not factors:
            raise RingError("Artin product needs at least one factor")
        self.factors = list(factors)
        self.size = math.prod(f.size for f in factors)
        if self.size > MAX_RING_SIZE:
            raise RingError(f"ring size {self.size} exceeds cap {MAX_RING_SIZE}")
        self.label = "x".join(f.label for f in factors)

    @property
    def units_mask(self) -> np.ndarray:
        mask = np.ones(1, dtype=bool)
        for f in self.factors:
            mask = (mask[:, None] & f.units_mask[None, :]).reshape(-1)
        return mask

    def __repr__(self):
        return f"FiniteRing({self.label})"


def artin_product(factors: list[LocalRing]) -> FiniteRing:
    return FiniteRing(factors)


def additive_group(ring: FiniteRing | LocalRing) -> FiniteGroup:
    """(R, +), once per ring: a validated table, or the product of the factors' groups."""
    ring = _as_ring(ring)

    def build() -> FiniteGroup:
        if len(ring.factors) == 1:
            return group_from_table(ring.factors[0].add, ring.label)
        return direct_product(*(additive_group(f) for f in ring.factors))

    return _once(ring, "_additive_group", build)


def units(ring: FiniteRing | LocalRing) -> GroupSubset:
    ring = _as_ring(ring)
    members = tuple(int(i) for i in np.nonzero(ring.units_mask)[0])
    return GroupSubset(additive_group(ring), members)


def _as_ring(ring) -> FiniteRing:
    if isinstance(ring, LocalRing):
        return _once(ring, "_wrapped", lambda: FiniteRing([ring]))
    return ring


def power_residues(field_ring: FiniteRing | LocalRing, k: int) -> GroupSubset:
    """P_k = {x^k : x in F_q^*} as a subset of the additive group."""
    ring = _as_ring(field_ring)
    if len(ring.factors) != 1 or not ring.factors[0].is_field:
        raise RingError("power residues require a finite field")
    F = ring.factors[0]
    q = F.size
    if k < 1 or (q - 1) % k != 0:
        raise RingError(f"k={k} must divide q-1={q - 1}")
    members = set()
    for x in range(1, q):
        acc, base_el, e = F.one, x, k
        while e:
            if e & 1:
                acc = int(F.mul[acc, base_el])
            base_el = int(F.mul[base_el, base_el])
            e >>= 1
        members.add(acc)
    return GroupSubset(additive_group(ring), tuple(sorted(members)))


# ---------------------------------------------------------------------------
# descriptor parsing


def parse_ring(descriptor: str) -> FiniteRing:
    """Ring descriptor grammar: ``zpk:p^k``, ``gf:p^m`` (or ``gf:q``),
    ``gr:p^s:t``, ``quot:p^m:t``, factors joined by ``*``."""
    parts = [p.strip() for p in descriptor.strip().split("*") if p.strip()]
    if not parts:
        raise RingError(f"empty ring descriptor: {descriptor!r}")
    factors = []
    for part in parts:
        fields = part.split(":")
        kind = fields[0]
        try:
            if kind == "zpk" and len(fields) == 2:
                p, k = _parse_power(fields[1])
                factors.append(zpk(p, k))
            elif kind == "gf" and len(fields) == 2:
                p, m = _parse_power(fields[1])
                factors.append(gf(p, m))
            elif kind == "gr" and len(fields) == 3:
                p, s = _parse_power(fields[1])
                factors.append(galois_ring(p, s, int(fields[2])))
            elif kind == "quot" and len(fields) == 3:
                p, m = _parse_power(fields[1])
                factors.append(field_quotient(p, m, int(fields[2])))
            else:
                raise RingError(f"bad ring factor: {part!r}")
        except ValueError as exc:
            raise RingError(f"bad ring factor {part!r}: {exc}") from None
    return artin_product(factors)


def _parse_power(text: str) -> tuple[int, int]:
    if "^" in text:
        base, _, exp = text.partition("^")
        p, k = int(base), int(exp)
    else:
        q = int(text)
        pm = prime_power(q)
        if pm is None:
            raise RingError(f"{q} is not a prime power")
        p, k = pm
    if not _is_prime(p):
        raise RingError(f"{p} is not prime")
    return p, k
