"""The four named two-factor graph products: Cartesian, direct, strong
and strong sum.

Each kind is a fixed OR of Kronecker terms, one per NEPS basis tuple
(Cvetkovic, Doob & Sachs, *Spectra of Graphs*, 1980): a term takes each
factor's adjacency (1) or identity (0).  Product vertex order is
factor-major mixed radix (the first factor is most significant),
matching the group-product element order.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .graphs import Graph, GraphError

_TERMS = {
    "cartesian": ((1, 0), (0, 1)),
    "direct": ((1, 1),),
    "strong": ((1, 0), (0, 1), (1, 1)),
    "strong_sum": ((1, 0), (1, 1)),
}


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product of two boolean matrices as a broadcast outer AND."""
    (p, q), (r, s) = A.shape, B.shape
    return (A[:, None, :, None] & B[None, :, None, :]).reshape(p * r, q * s)


def named_product(g1: Graph, g2: Graph, kind: str) -> Graph:
    if kind not in _TERMS:
        raise GraphError(f"unknown product kind {kind!r}")
    f1, f2 = ((np.eye(g.n, dtype=bool), g.adjacency.view(bool)) for g in (g1, g2))
    terms = (_kron(f1[b1], f2[b2]) for b1, b2 in _TERMS[kind])
    return Graph(reduce(np.logical_or, terms))


def path2(looped: bool = False) -> Graph:
    adj = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    if looped:
        adj = adj | np.eye(2, dtype=np.uint8)
    return Graph(adj)
