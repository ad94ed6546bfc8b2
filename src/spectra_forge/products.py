"""NEPS of graphs and the four named two-factor products.

All named products are thin wrappers over the single NEPS kernel.
Product vertex order is factor-major mixed radix (the first factor is
most significant), matching the group-product element order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .graphs import Graph, GraphError


@dataclass(frozen=True)
class NepsBasis:
    """Non-empty set of non-zero 0/1 tuples covering every coordinate."""

    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        tups = frozenset(tuple(int(b) for b in t) for t in self.tuples)
        object.__setattr__(self, "tuples", tups)
        if not tups:
            raise GraphError("NEPS basis must be non-empty")
        for t in tups:
            if len(t) != self.arity or any(b not in (0, 1) for b in t):
                raise GraphError(f"bad basis tuple {t}")
            if not any(t):
                raise GraphError("NEPS basis tuples must be non-zero")
        for i in range(self.arity):
            if not any(t[i] for t in tups):
                raise GraphError(f"coordinate {i} never appears in the basis")


CARTESIAN = "cartesian"
DIRECT = "direct"
STRONG = "strong"
STRONG_SUM = "strong_sum"

_NAMED_BASES = {
    CARTESIAN: NepsBasis(2, frozenset({(1, 0), (0, 1)})),
    DIRECT: NepsBasis(2, frozenset({(1, 1)})),
    STRONG: NepsBasis(2, frozenset({(1, 0), (0, 1), (1, 1)})),
    STRONG_SUM: NepsBasis(2, frozenset({(1, 0), (1, 1)})),
}


def neps(factors: list[Graph], basis: NepsBasis) -> Graph:
    if basis.arity != len(factors):
        raise GraphError(
            f"basis arity {basis.arity} != number of factors {len(factors)}"
        )
    terms = (
        reduce(_kron, [
            f.adjacency.view(bool) if b else np.eye(f.n, dtype=bool)
            for f, b in zip(factors, beta)
        ])
        for beta in basis.tuples
    )
    return Graph(reduce(np.logical_or, terms))


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product of two boolean matrices as a broadcast outer AND."""
    (p, q), (r, s) = A.shape, B.shape
    return (A[:, None, :, None] & B[None, :, None, :]).reshape(p * r, q * s)


def named_product(g1: Graph, g2: Graph, kind: str) -> Graph:
    if kind not in _NAMED_BASES:
        raise GraphError(f"unknown product kind {kind!r}")
    return neps([g1, g2], _NAMED_BASES[kind])


def path2(looped: bool = False) -> Graph:
    adj = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    if looped:
        adj = adj | np.eye(2, dtype=np.uint8)
    return Graph(adj)
