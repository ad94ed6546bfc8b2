"""Independent reference implementations the library no longer ships.

``jacobi_eigenvalues`` is the cyclic Jacobi eigensolver that was once the
dense route; it now checks the LAPACK route on small matrices.
``eigvalsh_spectrum`` is LAPACK ``eigvalsh`` on a built graph, the route
that the irreducible blocks replace for undirected difference-kind graphs
over D_n, Dic_n and S_n; it is their reference.
``isospectral_expanded`` is the greedy nearest pairing over expanded
values that the merged-entry ``spectra.isospectral`` replaces.
``moments`` and ``moment_check`` compare a spectrum with the power traces
tr(A^k); the library once fell back on them for directed mirror graphs,
a case that cannot arise when the base graph has a route.
``associative_exhaustive`` is the O(n^3) associativity check; the library
builds every group with its structure and checks no table.
``small_isomorphic`` (brute-force isomorphism on at most 10 vertices),
``disjoint_union`` and ``with_loops`` build and compare the small graphs
that the product decompositions are checked against.  ``gp_integrality``
is the closed-form integrality rule for power-residue Cayley graphs on F_q.
``neps_kron`` sums a named product's NEPS terms as integer Kronecker products,
``cayley_by_definition`` tests the Cayley rule element by element, and
``mirror_block`` lays two such Cayley graphs out with ``np.block``; the
library builds all three by boolean gathers instead.  ``dot_by_cells``
writes a graph's DOT text by walking every adjacency cell; the library
reads the edge list off ``np.nonzero``.
``dihedral_table``, ``dicyclic_table`` and ``symmetric_table`` fill the group
tables element by element, and ``galois_ring_tables`` and
``field_quotient_tables`` build ring tables by coefficient convolution; the
library builds groups by index arithmetic and multiplies ring elements by
their structure constants, with no table.  ``power_residues_by_table`` is
the scalar square-and-multiply over such a multiplication table that the
library once ran for every x in F_q^*; it now runs once over all of them.
``assert_identity_and_inverses`` checks a group's identity and inverse table
against its operation table, and ``assert_abelian_structure`` checks an
abelian group's invariant factors and coordinates against the table it
should have.  ``invariant_chain_by_parts`` composes invariant factors and
coordinates one CRT part at a time, each column reduced modulo its prime
power first; the library reads all coordinates off one integer product.  ``character_sums_direct`` sums the character exponentials
e^(2 pi i a.x / d) over S for every character a, n |S| of them; the
library takes the inverse FFT of S's indicator instead.
``mixed_radix_digits`` and ``character_exponents`` write out the digit and
exponent rows that the library only reads as indices.
``specbi_formula_valid_by_sums`` decides where the printed sum-kind mirror
formula holds from the character sums at a tolerance; the library reads
the same fact off S exactly (S = -S, or S a union of cosets of 2G).
``boolean_algebra_by_powers`` (generator classes found by comparing the
powers of every power) and ``gcd_union_by_class_scan`` (a scan of every gcd
class S touches) are the Boolean-algebra and gcd-class criteria as the
library once decided them; it now decides both, and the Eulerian one, by a
single co-generation closure.  ``unitary_field_rows`` and ``mdcg_field_rows``
are the printed field rows (m = 1) of the local-ring closed forms, which the
library reads off the general rows at m = 1.
``multiplicity_by_scan`` and ``classify_by_scan`` look each multiplicity
up by a scan of every entry, as ``spectra.classify`` once did (O(k^2) for
k entries in +- pairs); the library bisects a copy sorted by real part.
``random_instance`` draws a random (G, S) with the options the tests use
(abelian only, symmetric S, a minimum size, e allowed in S); the library's
suite draws with none of them.
"""

import math
from functools import reduce
from itertools import permutations

import numpy as np

from spectra_forge import algebra
from spectra_forge.algebra import prime_power
from spectra_forge.finring import smallest_irreducible
from spectra_forge.graphs import Graph, GraphError
from spectra_forge.spectra import MERGE_TOL, Spectrum, SpectrumError
from spectra_forge.theorems import _GROUP_POOL

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


def eigvalsh_spectrum(graph: Graph) -> Spectrum:
    """The spectrum of an undirected graph by ``numpy.linalg.eigvalsh`` on its adjacency."""
    A = graph.adjacency.astype(float)
    assert np.array_equal(A, A.T), "eigvalsh reads one triangle: the graph must be undirected"
    return Spectrum.from_values(np.linalg.eigvalsh(A))


def same_entries(s1: Spectrum, s2: Spectrum, tol: float) -> bool:
    """Entry by entry, equal multiplicities and values within tol."""
    return len(s1.entries) == len(s2.entries) and all(
        m1 == m2 and abs(v1 - v2) <= tol for (v1, m1), (v2, m2) in zip(s1.entries, s2.entries))


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


MOMENT_REL_TOL = 1e-6


def moments(graph: Graph, K: int) -> list[float]:
    """tr(A^k) for k = 1..K."""
    if K > graph.n:
        raise SpectrumError("K must not exceed the vertex count")
    A = graph.adjacency.astype(float)
    out = []
    P = A
    for _ in range(K):
        out.append(float(np.trace(P)))
        P = P @ A
    return out


def moment_check(spec: Spectrum, trace_moments: list[float], max_degree: int, n: int) -> bool:
    d = max(1, max_degree)
    for k, tr in enumerate(trace_moments, start=1):
        total = sum(m * v**k for v, m in spec.entries)
        if abs(total.imag) > MOMENT_REL_TOL * n * d**k:
            return False
        if abs(total.real - tr) > MOMENT_REL_TOL * n * d**k:
            return False
    return True


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
    at = 0
    for g in graphs:
        adj[at:at + g.n, at:at + g.n] = g.adjacency
        at += g.n
    return Graph(adj)


def with_loops(graph: Graph) -> Graph:
    adj = graph.adjacency.copy()
    np.fill_diagonal(adj, 1)
    return Graph(adj)


def gp_integrality(k: int, q: int) -> bool:
    """Whether the k-th power residue Cayley graph on F_q is integral:
    k divides (q - 1) / (p - 1)."""
    p, _ = prime_power(q)
    return ((q - 1) // (p - 1)) % k == 0


def neps_kron(factors: list[Graph], basis) -> Graph:
    """NEPS as the thresholded sum over the basis, a tuple of 0/1 tuples,
    of integer Kronecker products, one factor's adjacency (1) or identity
    (0) per coordinate."""
    terms = [
        reduce(np.kron, [
            f.adjacency.astype(np.int64) if b else np.eye(f.n, dtype=np.int64)
            for f, b in zip(factors, beta)
        ])
        for beta in basis
    ]
    return Graph((sum(terms) > 0).astype(np.uint8))


def cayley_by_definition(group, S, kind: str) -> Graph:
    """Edge h -> g iff g h^-1 (difference) or g h (sum) lies in S."""
    n, mem = group.order, set(S.members)
    adj = np.zeros((n, n), dtype=np.uint8)
    for h in range(n):
        right = group.inv_table[h] if kind == "difference" else h
        for g in range(n):
            adj[h, g] = int(group.op_table[g, right]) in mem
    return Graph(adj)


def mirror_block(group, S, T, kind: str) -> Graph:
    """MX*(G; S, T) as the block matrix [[B, C], [C, B]] of two Cayley graphs."""
    B = cayley_by_definition(group, S, kind).adjacency
    C = cayley_by_definition(group, T, kind).adjacency
    return Graph(np.block([[B, C], [C, B]]))


def dot_by_cells(graph: Graph, labels) -> str:
    """DOT export naming vertex i labels[i]; mutual edge pairs collapse to a
    single undirected line."""
    A = graph.adjacency
    if graph.undirected:
        lines = ["graph G {"]
        for u in range(graph.n):
            for v in range(u, graph.n):
                if A[u, v]:
                    lines.append(f'  "{labels[u]}" -- "{labels[v]}";')
    else:
        lines = ["digraph G {"]
        for u in range(graph.n):
            for v in range(graph.n):
                if not A[u, v]:
                    continue
                if A[v, u] and v < u:
                    continue
                if A[v, u] and u != v:
                    lines.append(
                        f'  "{labels[u]}" -> "{labels[v]}" [dir=both];'
                    )
                else:
                    lines.append(f'  "{labels[u]}" -> "{labels[v]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dihedral_table(n: int) -> np.ndarray:
    """D_n with a^k b^j at index 2k + j, one entry at a time."""
    def idx(k, j):
        return 2 * (k % n) + j

    op = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for k in range(n):
        for j in (0, 1):
            for l in range(n):
                for m in (0, 1):
                    if j == 0:
                        op[idx(k, j), idx(l, m)] = idx(k + l, m)
                    else:
                        op[idx(k, j), idx(l, m)] = idx(k - l, 1 - m)
    return op


def dicyclic_table(n: int) -> np.ndarray:
    """Dic_n with a^k b^j at index 2k + j, one entry at a time."""
    two_n = 2 * n

    def idx(k, j):
        return 2 * (k % two_n) + j

    op = np.zeros((4 * n, 4 * n), dtype=np.int64)
    for k in range(two_n):
        for j in (0, 1):
            for l in range(two_n):
                for m in (0, 1):
                    if j == 0:
                        op[idx(k, j), idx(l, m)] = idx(k + l, m)
                    elif m == 0:
                        op[idx(k, j), idx(l, m)] = idx(k - l, 1)
                    else:
                        op[idx(k, j), idx(l, m)] = idx(k - l + n, 0)
    return op


def symmetric_table(n: int) -> np.ndarray:
    """S_n in lexicographic order, composing permutation tuples pair by pair."""
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    op = np.zeros((len(perms), len(perms)), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            op[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return op


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


def galois_ring_tables(p: int, s: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(add, mul) of GR(p^s, t) by convolving coefficient vectors and
    reducing x^(t+i) through a precomputed reduction map."""
    q = p**s
    r = q**t
    f = smallest_irreducible(p, t)
    vecs = _coeff_vectors(r, q, t)
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
            low = (low + np.tensordot(conv[:, :, t:], red, axes=(2, 0))) % q
        return low % q

    def combine_add(A, B):
        return (A[:, None, :] + B[None, :, :]) % q

    return _vector_table(vecs, q, combine_add), _vector_table(vecs, q, combine_mul)


def field_quotient_tables(p: int, m: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(add, mul) of F_(p^m)[x]/(x^t) from the tables of F_(p^m), one
    truncated convolution of field elements at a time."""
    fadd, fmul = galois_ring_tables(p, 1, m)
    q = p**m
    vecs = _coeff_vectors(q**t, q, t)

    def combine_add(A, B):
        return fadd[A[:, None, :], B[None, :, :]]

    def combine_mul(A, B):
        out = np.zeros((A.shape[0], B.shape[0], t), dtype=np.int64)
        for i in range(t):
            for j in range(t - i):
                out[:, :, i + j] = fadd[out[:, :, i + j], fmul[A[:, None, i], B[None, :, j]]]
        return out

    return _vector_table(vecs, q, combine_add), _vector_table(vecs, q, combine_mul)


def power_residues_by_table(mul: np.ndarray, k: int) -> set[int]:
    """{x^k : x in F_q^*} for the field with multiplication table mul and
    1 at index 1, by square-and-multiply one x at a time."""
    members = set()
    for x in range(1, len(mul)):
        acc, base_el, e = 1, x, k
        while e:
            if e & 1:
                acc = int(mul[acc, base_el])
            base_el = int(mul[base_el, base_el])
            e >>= 1
        members.add(acc)
    return members


def assert_identity_and_inverses(G) -> None:
    """G.identity is a two-sided identity of G's table, and inv_table holds
    two-sided inverses."""
    op, e, inv = G.op_table, G.identity, G.inv_table
    idx = np.arange(G.order)
    assert np.array_equal(op[e], idx) and np.array_equal(op[:, e], idx)
    assert (op[idx, inv] == e).all() and (op[inv, idx] == e).all()


def assert_abelian_structure(G, op: np.ndarray) -> None:
    """G has table op, a two-sided identity and inverses, invariant factors
    1 < d1 | d2 | ... with product |G|, and coords that are a bijective
    homomorphism onto Z_d1 + ... + Z_dk (so op is an abelian group)."""
    dims, coords = G.abelian_decomposition, G.coords
    assert np.array_equal(G.op_table, op)
    assert_identity_and_inverses(G)
    assert math.prod(dims) == G.order and all(d > 1 for d in dims)
    assert all(b % a == 0 for a, b in zip(dims, dims[1:]))
    assert coords.shape == (G.order, len(dims)) and (0 <= coords).all()
    assert (coords < np.array(dims, dtype=np.int64)).all()
    assert len(np.unique(coords, axis=0)) == G.order
    summed = (coords[:, None, :] + coords[None, :, :]) % np.array(dims, dtype=np.int64)
    assert np.array_equal(coords[op], summed)


def invariant_chain_by_parts(cols: np.ndarray, mods) -> tuple[tuple[int, ...], np.ndarray]:
    """Invariant factors and coordinates from coordinate columns over
    Z_m1 + ... + Z_mk: split each column into its prime-power parts by the
    CRT, then combine the largest remaining power of each prime into one
    cyclic factor until every power is used."""
    n = cols.shape[0]
    by_prime: dict[int, list[tuple[int, np.ndarray]]] = {}
    for col, m in zip(cols.T, mods):
        for p, e in algebra.factorize(m).items():
            by_prime.setdefault(p, []).append((p**e, col % p**e))
    for stack in by_prime.values():
        stack.sort(key=lambda part: part[0])
    dims, out = [], []                    # built largest-first
    while any(by_prime.values()):
        parts = [stack.pop() for stack in by_prime.values() if stack]
        d = math.prod(q for q, _ in parts)
        dims.append(d)
        out.append(sum(c * (d // q * pow(d // q, -1, q)) for q, c in parts) % d)
    dims.reverse()                        # ascending so d1 | d2 | ...
    coords = np.stack(out[::-1], axis=1) if out else np.zeros((n, 0), dtype=np.int64)
    return tuple(dims), coords


def mixed_radix_digits(radices) -> np.ndarray:
    """Mixed-radix digits of 0 .. prod(radices)-1, one row each, first radix
    most significant."""
    n = math.prod(radices)
    out = np.zeros((n, len(radices)), dtype=np.int64)
    rep = n
    for j, d in enumerate(radices):
        rep //= d
        out[:, j] = (np.arange(n) // rep) % d
    return out


def character_exponents(G) -> np.ndarray:
    """Exponent vectors of the characters of an abelian G, one row each, in
    the order of ``algebra.character_sums_over``: row i is the mixed-radix
    digits of i over the invariant factors."""
    return mixed_radix_digits(G.abelian_decomposition)


def character_sums_direct(G, S) -> np.ndarray:
    """chi_a(S) for every row a of character_exponents(G), by summing
    e^(2 pi i a.x / d) over the coordinates x of the members of S."""
    exps = character_exponents(G)
    dims = np.asarray(G.abelian_decomposition, dtype=float)
    coords = G.coords[list(S.members)] / dims
    return np.exp(2j * np.pi * (exps @ coords.T)).sum(axis=1)


def specbi_formula_valid_by_sums(S, t_kind: str) -> bool:
    """Whether the printed sum-kind mirror-spectrum formula holds over an
    abelian G = S.parent, read off the character sums at tolerance 1e-9:
    with T = {e} every conjugate pair's chi(S) must be real, with
    T = S u {e} it must vanish, and with T = S it always holds."""
    if t_kind == "S":
        return True
    G = S.parent
    pair_sums = algebra.character_sums_over(S)[
        np.arange(G.order) < algebra.conjugate_characters(G)]
    if t_kind == "identity":
        return all(abs(v.imag) <= 1e-9 for v in pair_sums)
    return all(abs(v) <= 1e-9 for v in pair_sums)


def boolean_algebra_by_powers(group, S) -> bool:
    """Every h with <h> = <g> lies in S for every g in S."""
    mem = set(S.members)
    for g in mem:
        cyc = frozenset(group.powers(g))
        gens = {h for h in cyc if frozenset(group.powers(h)) == cyc}
        if not gens <= mem:
            return False
    return True


def gcd_union_by_class_scan(S) -> tuple[bool, object]:
    """(True, D) when S over a cyclic group is the union of the gcd classes
    S_n(d), d in D, read through the group's coordinates; else (False, witness)."""
    G = S.parent
    n = G.order
    coord = G.coords[:, 0] if n > 1 else np.zeros(1, dtype=np.int64)
    mem_res = {int(coord[g]) for g in S.members}
    D = []
    for d in sorted({math.gcd(a, n) for a in mem_res}):
        if d == n:
            return False, G.identity
        cls = set(algebra.gcd_class_indices(n, d))
        if not cls <= mem_res:
            return False, (next(iter(cls & mem_res)), next(iter(cls - mem_res)))
        D.append(d)
    covered = set()
    for d in D:
        covered |= set(algebra.gcd_class_indices(n, d))
    if covered != mem_res:
        return False, next(iter(mem_res - covered))
    return True, tuple(D)


def unitary_field_rows(r: int, kind: str) -> Spectrum:
    """The printed spectrum of the unitary Cayley (sum) graph of F_r."""
    if kind == "difference" or r % 2 == 0:
        return Spectrum.from_pairs([(r - 1, 1), (-1, r - 1)])
    return Spectrum.from_pairs([(r - 1, 1), (1, (r - 1) // 2), (-1, (r - 1) // 2)])


def mdcg_field_rows(r: int, t_kind: str, kind: str) -> Spectrum:
    """The printed spectra of the six mirror graphs of F_r, r odd, the
    misprinted S-and-identity rows included."""
    h = (r - 1) // 2
    rows = {
        ("identity", "difference"): [(r, 1), (r - 2, 1), (0, r - 1), (-2, r - 1)],
        ("identity", "sum"): [(r, 1), (r - 2, 1), (0, r - 1), (2, h), (-2, h)],
        ("S", "difference"): [(2 * (r - 1), 1), (-2, r - 1), (0, r)],
        ("S", "sum"): [(2 * (r - 1), 1), (0, r), (2, h), (-2, h)],
        ("S_and_identity", "difference"): [(2 * r - 1, 1), (-1, r - 1), (1, r)],
        ("S_and_identity", "sum"): [(2 * r - 1, 1), (1, r), (3, h), (-1, h)],
    }
    return Spectrum.from_pairs(rows[t_kind, kind])


def multiplicity_by_scan(spec: Spectrum, value: complex) -> int:
    """Total multiplicity of the entries within the tolerance of value."""
    return sum(m for v, m in spec.entries if abs(v - value) <= spec.tolerance)


def classify_by_scan(spec: Spectrum) -> tuple[bool, bool]:
    """(almost_symmetric, bipartite_criterion) of ``spectra.classify``: every
    entry but the principal one has its negation with equal multiplicity,
    and the negated principal eigenvalue is an eigenvalue."""
    principal = max(spec.entries, key=lambda e: (e[0].real, e[0].imag))[0]
    almost = all(
        multiplicity_by_scan(spec, v) == multiplicity_by_scan(spec, -v)
        for v, _ in spec.entries
        if abs(v - principal) > spec.tolerance
    )
    return almost, multiplicity_by_scan(spec, -principal) > 0


def random_instance(
    rng: np.random.Generator,
    require_abelian: bool = False,
    require_symmetric: bool = False,
    min_size: int = 1,
    exclude_identity: bool = True,
):
    """A random (G, S) from the suite's pool of groups, with four options
    the suite never sets; at the defaults it makes the same draws as
    ``theorems.random_instance``."""
    pool = _GROUP_POOL
    while True:
        G = algebra.make_group(pool[int(rng.integers(0, len(pool)))])
        if require_abelian and not G.is_abelian:
            continue
        candidates = [g for g in G.elements() if g != G.identity or not exclude_identity]
        size = int(rng.integers(min_size, max(min_size + 1, len(candidates))))
        chosen = set(rng.choice(candidates, size=min(size, len(candidates)), replace=False).tolist())
        if require_symmetric:
            chosen |= {int(G.inv_table[g]) for g in chosen}
        if len(chosen) < min_size:
            continue
        return G, algebra.GroupSubset(G, tuple(int(x) for x in sorted(chosen)))
