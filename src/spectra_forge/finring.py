"""Finite commutative rings with identity, given as Artin products of
local rings.

Supported local kinds: Z_{p^k}, F_{p^m}, GR(p^s, t) and F_{p^m}[x]/(x^t).
Each is a free Z_q-algebra given by structure constants on a basis
e_0 = 1, ..., e_(D-1): its additive group is (Z_q)^D and products come
from the structure constants by linearity, so addition and distributivity
hold by construction; the other ring axioms are checked exactly on the
constants.  Units are read off the residue digits, no multiplication table
is built, and the additive table only on first read.  Size caps are
checked from the parameters before any work starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import FiniteGroup, GroupSubset, _frozen, _once, cyclic, direct_product, prime_power

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
    """A finite local ring: the free Z_q-algebra with basis e_0 = 1, ...,
    e_(D-1) and products e_i e_j = sum_k consts[i, j, k] e_k; the element
    sum d_i e_i is index sum d_i q^i.  Its first ``residue_digits`` digits
    are its image in the residue field R/M, so it is a unit exactly when one
    of them is prime to q."""

    q: int
    consts: np.ndarray = field(repr=False)
    residue_digits: int
    group: FiniteGroup = field(repr=False)
    label: str

    @property
    def size(self) -> int:
        return self.group.order

    def _digits(self, a) -> np.ndarray:
        return np.asarray(a)[..., None] // self.q ** np.arange(len(self.consts)) % self.q

    def multiply(self, a, b) -> np.ndarray:
        """a * b elementwise for index arrays a and b, with broadcasting."""
        d = np.einsum("...i,...j,ijk->...k", self._digits(a), self._digits(b), self.consts)
        return d % self.q @ self.q ** np.arange(len(self.consts))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, LocalRing)
            and self.q == other.q
            and np.array_equal(self.consts, other.consts)
        )

    def __hash__(self) -> int:
        return hash(self.size)

    @property
    def units_mask(self) -> np.ndarray:
        """Read-only; computed on first read and kept on the ring."""
        def build():
            residue = self._digits(np.arange(self.size))[:, :self.residue_digits]
            return _frozen((np.gcd(residue, self.q) == 1).any(axis=1))

        return _once(self, "_units", build)

    @property
    def maximal_ideal_size(self) -> int:
        return self.size - int(self.units_mask.sum())

    @property
    def is_field(self) -> bool:
        return self.maximal_ideal_size == 1


def _bounded_power(p: int, e: int, cap: int) -> int:
    """p^e for p >= 2 while it is at most cap, else the first power of p past
    cap: at most log2(cap) + 1 products, so a huge e costs nothing."""
    r = 1
    while e > 0 and r <= cap:
        r, e = r * p, e - 1
    return r


def _check_local(p: int, e: int, params_ok: bool, message: str) -> int:
    """p^e, the size of a local ring, checked cheapest first: p >= 2 and the
    other parameters, then the cap, and only then that p is prime."""
    if p < 2 or not params_ok:
        raise RingError(message)
    r = _bounded_power(p, e, MAX_LOCAL_SIZE)
    if r > MAX_LOCAL_SIZE:
        raise RingError(f"local ring size exceeds cap {MAX_LOCAL_SIZE}")
    if not _is_prime(p):
        raise RingError(message)
    return r


def _check_consts(q: int, consts: np.ndarray, label: str) -> None:
    """The ring axioms on the basis, exactly: e_i e_j = e_j e_i, e_0 e_j = e_j
    and (e_i e_j) e_k = e_i (e_j e_k) mod q.  The table is bilinear by
    construction, so these hold for all elements."""
    D = consts.shape[0]
    if not np.array_equal(consts, consts.transpose(1, 0, 2)):
        raise RingError(f"{label}: multiplication not commutative")
    if not np.array_equal(consts[0], np.eye(D, dtype=consts.dtype)):
        raise RingError(f"{label}: 1 is not a multiplicative identity")
    left = np.einsum("ijl,lkm->ijkm", consts, consts) % q
    right = np.einsum("jkl,ilm->ijkm", consts, consts) % q
    if not np.array_equal(left, right):
        raise RingError(f"{label}: multiplication not associative")


def _local_ring(q: int, consts: np.ndarray, residue_digits: int, label: str) -> LocalRing:
    """The free Z_q-algebra with structure constants ``consts``, once they
    satisfy the ring axioms; its additive group is (Z_q)^D by construction."""
    _check_consts(q, consts, label)
    group = replace(direct_product(*[cyclic(q)] * len(consts)), label=label)
    return LocalRing(q, consts, residue_digits, group, label)


def _polynomial_consts(f: list[int], q: int) -> np.ndarray:
    """Structure constants of Z_q[x]/(f) in the basis 1, x, ..., x^(t-1), f
    monic of degree t: consts[i, j] holds x^(i+j) reduced mod f and q."""
    t = len(f) - 1
    xpow = np.zeros((2 * t - 1, t), dtype=np.int64)
    xpow[0, 0] = 1
    for n in range(1, 2 * t - 1):          # x^n = x * x^(n-1), and x^t = -(f - x^t)
        top = xpow[n - 1, -1]
        xpow[n, 1:] = xpow[n - 1, :-1]
        xpow[n] = (xpow[n] - top * np.array(f[:t])) % q
    i = np.arange(t)
    return xpow[i[:, None] + i[None, :]]


def zpk(p: int, k: int) -> LocalRing:
    r = _check_local(p, k, k >= 1, f"Z_(p^k) needs prime p, got p={p}, k={k}")
    return _local_ring(r, np.ones((1, 1, 1), dtype=np.int64), 1, f"Z{r}")


def galois_ring(p: int, s: int, t: int) -> LocalRing:
    """GR(p^s, t) = Z_{p^s}[x]/(f) with f a lifted basic irreducible; its
    residue field F_{p^t} is read off the t coefficients mod p."""
    r = _check_local(p, s * t, s >= 1 and t >= 1,
                     f"GR needs prime p and s,t >= 1; got {p},{s},{t}")
    q = p**s
    if s == 1:
        label = f"F{r}"
    elif t == 1:
        label = f"Z{q}"
    else:
        label = f"GR({q},{t})"
    return _local_ring(q, _polynomial_consts(smallest_irreducible(p, t), q), t, label)


def gf(p: int, m: int) -> LocalRing:
    """The finite field F_{p^m} (same construction as GR(p, m))."""
    return galois_ring(p, 1, m)


def field_quotient(p: int, m: int, t: int) -> LocalRing:
    """F_{p^m}[x]/(x^t): truncated polynomials with field coefficients, as an
    F_p-algebra with y^i x^j (y generating F_{p^m}) at digit m j + i; its
    residue field F_{p^m} is read off the m digits of x^0."""
    _check_local(p, m * t, m >= 1 and t >= 1,
                 f"quotient needs prime p and m,t >= 1; got {p},{m},{t}")
    field_consts = _polynomial_consts(smallest_irreducible(p, m), p)
    shift = _polynomial_consts([0] * t + [1], p)         # x^j x^j' = x^(j+j'), 0 past x^(t-1)
    label = f"F{p**m}[x]/(x^{t})" if t > 1 else f"F{p**m}"
    return _local_ring(p, np.kron(shift, field_consts), m, label)


# ---------------------------------------------------------------------------
# Artin products


@dataclass(frozen=True)
class FiniteRing:
    """Product of local rings; elements are mixed-radix integers with the
    first factor most significant.  Frozen, so the values kept on it (the
    units mask, the additive group and the unit set) never go stale."""

    factors: tuple[LocalRing, ...]
    size: int = field(init=False)
    label: str = field(init=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise RingError("Artin product needs at least one factor")
        size = math.prod(f.size for f in factors)
        if size > MAX_RING_SIZE:
            raise RingError(f"ring size {size} exceeds cap {MAX_RING_SIZE}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "label", "x".join(f.label for f in factors))

    @property
    def units_mask(self) -> np.ndarray:
        """Read-only; computed on first read and kept on the ring."""
        def build():
            mask = np.ones(1, dtype=bool)
            for f in self.factors:
                mask = (mask[:, None] & f.units_mask[None, :]).reshape(-1)
            return _frozen(mask)

        return _once(self, "_units", build)

    def __repr__(self):
        return f"FiniteRing({self.label})"


def artin_product(factors: list[LocalRing]) -> FiniteRing:
    return FiniteRing(factors)


def additive_group(ring: FiniteRing) -> FiniteGroup:
    """(R, +), once per ring: the product of the factors' additive groups."""
    return _once(ring, "_additive_group", lambda: direct_product(*(f.group for f in ring.factors)))


def units(ring: FiniteRing) -> GroupSubset:
    """R* as a subset of (R, +), once per ring, so spectra memoized on it are shared."""
    return _once(ring, "_unit_set", lambda: GroupSubset(
        additive_group(ring), tuple(np.flatnonzero(ring.units_mask).tolist())))


def power_residues(ring: FiniteRing, k: int) -> GroupSubset:
    """P_k = {x^k : x in F_q^*} as a subset of the additive group."""
    if len(ring.factors) != 1 or not ring.factors[0].is_field:
        raise RingError("power residues require a finite field")
    F = ring.factors[0]
    q = F.size
    if k < 1 or (q - 1) % k != 0:
        raise RingError(f"k={k} must divide q-1={q - 1}")
    base = np.arange(1, q)                  # square-and-multiply on all of F_q^* at once
    acc = np.ones_like(base)                # 1 = e_0 is index 1
    while k:
        if k & 1:
            acc = F.multiply(acc, base)
        base = F.multiply(base, base)
        k >>= 1
    hit = np.zeros(q, dtype=bool)
    hit[acc] = True
    return GroupSubset(additive_group(ring), tuple(np.flatnonzero(hit).tolist()))


# ---------------------------------------------------------------------------
# descriptor parsing


# kind -> (builder, number of ':'-separated fields)
_RING_KINDS = {"zpk": (zpk, 2), "gf": (gf, 2), "gr": (galois_ring, 3), "quot": (field_quotient, 3)}


def parse_ring(descriptor: str) -> FiniteRing:
    """Ring descriptor grammar: ``zpk:p^k``, ``gf:p^m`` (or ``gf:q``),
    ``gr:p^s:t``, ``quot:p^m:t``, factors joined by ``*``."""
    parts = [p.strip() for p in descriptor.strip().split("*") if p.strip()]
    if not parts:
        raise RingError(f"empty ring descriptor: {descriptor!r}")
    specs = []
    for part in parts:
        fields = part.split(":")
        build, arity = _RING_KINDS.get(fields[0], (None, 0))
        if len(fields) != arity:
            raise RingError(f"bad ring factor: {part!r}")
        try:
            specs.append((part, build, (*_parse_power(fields[1]), *map(int, fields[2:]))))
        except ValueError as exc:
            raise RingError(f"bad ring factor {part!r}: {exc}") from None
    # a factor has p^(product of the other parameters) elements: check before
    # building, where p is tested for primality
    size = 1
    for _, _, (p, *exps) in specs:
        size *= _bounded_power(p, math.prod(exps), MAX_RING_SIZE)
        if size > MAX_RING_SIZE:
            raise RingError(f"ring size exceeds cap {MAX_RING_SIZE}")
    factors = []
    for part, build, args in specs:
        try:
            factors.append(build(*args))
        except ValueError as exc:
            raise RingError(f"bad ring factor {part!r}: {exc}") from None
    return artin_product(factors)


def _parse_power(text: str) -> tuple[int, int]:
    if "^" in text:
        base, _, exp = text.partition("^")
        p, k = int(base), int(exp)
    else:
        q = int(text)
        if q > MAX_RING_SIZE:
            raise RingError(f"ring size exceeds cap {MAX_RING_SIZE}")
        pm = prime_power(q)
        if pm is None:
            raise RingError(f"{q} is not a prime power")
        p, k = pm
    if p < 2:       # the cap check would take e steps on p = 1
        raise RingError(f"{p} is not prime")
    return p, k
