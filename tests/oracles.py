"""Independent reference implementations the library no longer ships.

``jacobi_eigenvalues`` is the cyclic Jacobi eigensolver that was once the
dense route; it now checks the LAPACK route on small matrices.
``isospectral_expanded`` is the greedy nearest pairing over expanded
values that the merged-entry ``spectra.isospectral`` replaces.
``associative_exhaustive`` is the O(n^3) associativity check that group
construction ran up to order 512 before Light's test replaced it.
``small_isomorphic`` (brute-force isomorphism on at most 10 vertices),
``disjoint_union`` and ``with_loops`` build and compare the small graphs
that the product decompositions are checked against.  ``gp_integrality``
is the closed-form integrality rule for power-residue Cayley graphs on F_q.
``neps_kron`` is the NEPS kernel as a sum of integer Kronecker products,
``cayley_by_definition`` tests the Cayley rule element by element, and
``mirror_block`` lays two such Cayley graphs out with ``np.block``; the
library builds all three by boolean gathers instead.
"""

import math
from functools import reduce
from itertools import permutations, product

import numpy as np

from spectra_forge.algebra import prime_power
from spectra_forge.graphs import Graph, GraphError
from spectra_forge.spectra import MERGE_TOL, Spectrum, SpectrumError

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def jacobi_eigenvalues(
    matrix: np.ndarray,
    tol: float = JACOBI_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(matrix, dtype=float)
    n = A.shape[0]
    if n == 0 or not np.array_equal(A, A.T):
        raise SpectrumError("jacobi needs a non-empty symmetric matrix")
    scale = max(1.0, float(np.linalg.norm(A)))
    skip = tol * scale / (2 * max(1, n))
    for _ in range(max_sweeps):
        off = A - np.diag(np.diag(A))
        if float(np.linalg.norm(off)) <= tol * scale:
            return np.sort(np.diag(A))[::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
    raise SpectrumError(f"jacobi did not converge within {max_sweeps} sweeps")


def isospectral_expanded(s1: Spectrum, s2: Spectrum, tol: float = MERGE_TOL) -> bool:
    """Multiset equality by greedy nearest pairing of the expanded values."""
    if s1.size != s2.size:
        return False
    a = sorted(_expand(s1), key=lambda z: (z.real, z.imag))
    b = sorted(_expand(s2), key=lambda z: (z.real, z.imag))
    n = len(a)
    used = [False] * n
    lo = 0
    for x in a:
        while lo < n and (used[lo] or b[lo].real < x.real - tol):
            lo += 1
        best, best_d = -1, None
        j = lo
        while j < n and b[j].real <= x.real + tol:
            if not used[j]:
                d = abs(x - b[j])
                if d <= tol and (best_d is None or d < best_d):
                    best, best_d = j, d
            j += 1
        if best < 0:
            return False
        used[best] = True
    return True


def _expand(spec: Spectrum) -> list[complex]:
    return [v for v, m in spec.entries for _ in range(m)]


def associative_exhaustive(op: np.ndarray) -> bool:
    """Whether (a.b).c == a.(b.c) for every triple, checked block by block."""
    op = np.asarray(op)
    n = op.shape[0]
    chunk = max(1, (1 << 22) // (n * n))
    for a0 in range(0, n, chunk):
        blk = np.arange(a0, min(a0 + chunk, n))
        if not np.array_equal(op[op[blk], :], op[blk][:, op]):
            return False
    return True


ISOMORPHISM_SIZE_CAP = 10


def small_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Brute-force isomorphism for graphs on at most 10 vertices."""
    if g1.n > ISOMORPHISM_SIZE_CAP or g2.n > ISOMORPHISM_SIZE_CAP:
        raise GraphError(f"isomorphism test capped at {ISOMORPHISM_SIZE_CAP} vertices")
    if g1.n != g2.n:
        return False
    A, B = g1.adjacency, g2.adjacency

    def profile(M):
        return [(int(M[v].sum()), int(M[:, v].sum()), int(M[v, v])) for v in range(M.shape[0])]

    prof_a, prof_b = profile(A), profile(B)
    if sorted(prof_a) != sorted(prof_b):
        return False
    for perm in permutations(range(g1.n)):
        if any(prof_b[perm[v]] != prof_a[v] for v in range(g1.n)):
            continue
        p = np.asarray(perm)
        if np.array_equal(B[np.ix_(p, p)], A):
            return True
    return False


def disjoint_union(graphs: list[Graph]) -> Graph:
    n = sum(g.n for g in graphs)
    adj = np.zeros((n, n), dtype=np.uint8)
    labels = []
    at = 0
    for k, g in enumerate(graphs):
        adj[at:at + g.n, at:at + g.n] = g.adjacency
        labels.extend(f"{k}:{lab}" for lab in g.vertex_labels)
        at += g.n
    return Graph(adj, tuple(labels))


def with_loops(graph: Graph) -> Graph:
    adj = graph.adjacency.copy()
    np.fill_diagonal(adj, 1)
    return Graph(adj, graph.vertex_labels)


def gp_integrality(k: int, q: int) -> bool:
    """Whether the k-th power residue Cayley graph on F_q is integral:
    k divides (q - 1) / (p - 1)."""
    p, _ = prime_power(q)
    return ((q - 1) // (p - 1)) % k == 0


def neps_kron(factors: list[Graph], basis) -> Graph:
    """NEPS as the thresholded sum over the basis of integer Kronecker
    products, one factor's adjacency or identity per coordinate."""
    terms = [
        reduce(np.kron, [
            f.adjacency.astype(np.int64) if b else np.eye(f.n, dtype=np.int64)
            for f, b in zip(factors, beta)
        ])
        for beta in sorted(basis.tuples)
    ]
    labels = tuple("(" + ",".join(p) + ")" for p in product(*(f.vertex_labels for f in factors)))
    return Graph((sum(terms) > 0).astype(np.uint8), labels)


def cayley_by_definition(group, S, kind: str) -> Graph:
    """Edge h -> g iff g h^-1 (difference) or g h (sum) lies in S."""
    n, mem = group.order, set(S.members)
    adj = np.zeros((n, n), dtype=np.uint8)
    for h in range(n):
        right = group.invert(h) if kind == "difference" else h
        for g in range(n):
            adj[h, g] = group.combine(g, right) in mem
    return Graph(adj, tuple(str(g) for g in range(n)))


def mirror_block(group, S, T, kind: str) -> Graph:
    """MX*(G; S, T) as the block matrix [[B, C], [C, B]] of two Cayley graphs."""
    B = cayley_by_definition(group, S, kind).adjacency
    C = cayley_by_definition(group, T, kind).adjacency
    labels = tuple(f"({g},{i})" for i in (0, 1) for g in range(group.order))
    return Graph(np.block([[B, C], [C, B]]), labels)
