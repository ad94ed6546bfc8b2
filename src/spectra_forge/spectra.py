"""Spectra: exact character formulas for abelian groups, irreducible blocks
for D_n, Dic_n and S_n, a dense LAPACK route (``eigvalsh``) for the other
undirected graphs, the closed-form spectrum families, and classification.

Routes: the adjacency of X(G, S) is similar to the direct sum over the
irreducibles rho of G of d_rho copies of rho(S) = sum over s in S of
rho(s) (Babai, JCT B 27, 1979; Diaconis, Group Representations in
Probability and Statistics, 1988, ch. 3).  For abelian G every rho is a
character, and one FFT gives every chi(S) (``spectrum_exact_abelian``);
for D_n, Dic_n and S_n, ``spectrum_from_blocks`` takes the Hermitian
blocks rho(S), one batched ``eigvalsh`` per dimension.  The mirror graph
MX*(G; S, T) has the blocks rho(S) +- rho(T), and for T = {e}, S or S u {e}
rho(T) comes from rho(S) (``mirror_blocks``, which with the base
eigenvalues as 1 x 1 blocks is also the printed formula).  The dense route
serves the other undirected graphs (the sum kind over a non-abelian
group, and non-abelian direct products) and is the blocks' reference in
the tests.

Numeric policy: complex eigenvalues merge within 1e-8, and the members of
one merged entry lie pairwise within that tolerance (clusters never
chain); spectra compare by pairing merged entries within the same
tolerance; integer snapping uses 1e-6.  The dense route calls
``numpy.linalg.eigvalsh`` after an explicit symmetry check.

Size selection: merges of at least ``ARRAY_MIN`` distinct values, and
lookups in spectra of at least ``ARRAY_MIN`` entries, run as whole-array
numpy operations (sorting into tolerance cells, after Bentley, Stanat &
Williams, Inf. Process. Lett. 6, 1977) and return what the per-value
loops return, bit for bit.  Those loops stay the path for smaller inputs
and the fallback wherever a decision lies within ``EDGE`` (relative) of
the tolerance, where only their own order of decisions says what happens.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import GroupSubset
from .graphs import Graph

MERGE_TOL = 1e-8
SNAP_TOL = 1e-6
# Below this many distinct values (a merge) or entries (a lookup) the
# per-value loops are faster: on the 1606 merges of `verify --seed 3
# --trials 200`, all of at most 40 values, they took 0.096 s against 0.27 s
# for the array path.  At 64 the 96-240 eigenvalues of undirected
# non-abelian graphs took the array path, and a fresh process's first numpy
# sort made its first operation 16% slower.  A skew set over Z_4001 has
# 4001 distinct values, on which the loops took 14 s.
ARRAY_MIN = 256
# relative margin from the tolerance that the array paths require of every
# decision they take (a distance or gap on the far side, a cell's diameter
# on the near side), so that float rounding cannot tip one of them
EDGE = 1e-6


class SpectrumError(ValueError):
    """Invalid spectrum operation."""


# ---------------------------------------------------------------------------
# the Spectrum value type


@dataclass(frozen=True)
class Spectrum:
    """Multiset of complex eigenvalues, canonically sorted and merged.

    Entries are (value, multiplicity) pairs sorted by real part, descending;
    entries whose real parts agree within the tolerance sort by imaginary
    part, descending, so rounding noise never decides the order.  Each
    entry is the mean of input values that lie pairwise within the merge
    tolerance.  A run of values linked by gaps within the tolerance forms
    one entry when its diameter is within the tolerance too; a wider run
    is split greedily.
    """

    entries: tuple[tuple[complex, int], ...]
    tolerance: float = MERGE_TOL

    @staticmethod
    def from_values(values) -> "Spectrum":
        exact = Counter(np.asarray(values, dtype=complex).ravel().tolist())
        if not exact:
            raise SpectrumError("empty spectrum")
        return _merge(exact, MERGE_TOL)

    @staticmethod
    def from_pairs(pairs, tolerance: float = MERGE_TOL) -> "Spectrum":
        pairs = [(v, m) for v, m in pairs if m]
        if any(m % 1 for _, m in pairs):      # 2.0 counts 2; 0.5, nan and inf are refused
            raise SpectrumError("multiplicity is not an integer")
        items = [(complex(v), int(m)) for v, m in pairs]
        if not items:
            raise SpectrumError("empty spectrum")
        if any(m < 0 for _, m in items):
            raise SpectrumError("negative multiplicity")
        exact: Counter[complex] = Counter()
        for v, m in items:
            exact[v] += m
        return _merge(exact, tolerance)

    @property
    def size(self) -> int:
        return sum(m for _, m in self.entries)

    def multiplicity_of(self, value: complex) -> int:
        """Total multiplicity of the entries within the tolerance of value.

        Only the entries whose real part lies within twice the tolerance
        are tested (a superset despite rounding), found by bisection in a
        copy sorted by real part that is built once per spectrum; on a
        large spectrum the imaginary part is bisected too (``_near``).
        """
        if len(self.entries) >= ARRAY_MIN:
            return int(_multiplicities(self, np.array([value], dtype=complex))[0])
        reals, by_real = algebra._once(self, "_by_real", self._sorted_by_real)
        tol = self.tolerance
        lo = bisect_left(reals, value.real - 2 * tol)
        hi = bisect_right(reals, value.real + 2 * tol, lo)
        return sum(m for v, m in by_real[lo:hi] if abs(v - value) <= tol)

    def _sorted_by_real(self) -> tuple[list[float], list[tuple[complex, int]]]:
        by_real = sorted(self.entries, key=lambda e: e[0].real)
        return [v.real for v, _ in by_real], by_real

    def negated(self) -> "Spectrum":
        """-v for every entry; an isometry, so the entries are not merged again."""
        if len(self.entries) >= ARRAY_MIN:
            values, mults = _arrays(self)
            return _canonical_arrays(-values, mults, self.tolerance)
        return _canonical([(-v, m) for v, m in self.entries], self.tolerance)

    def to_string(self) -> str:
        return ", ".join(f"[{_fmt_value(v)}]^{m}" for v, m in self.entries)

    def to_csv(self) -> str:
        lines = ["re,im,multiplicity"]
        for v, m in self.entries:
            lines.append(f"{v.real:.12g},{v.imag:.12g},{m}")
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return "{" + self.to_string() + "}"


def _arrays(spec: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """The entries as a complex value array and an int64 multiplicity
    array, in entry order; built once per spectrum, read-only."""
    return algebra._once(spec, "_entry_arrays", lambda: (
        algebra._frozen(np.array([v for v, _ in spec.entries], dtype=complex)),
        algebra._frozen(np.array([m for _, m in spec.entries], dtype=np.int64))))


def _merge(exact: dict[complex, int], tolerance: float) -> Spectrum:
    """Spectrum of exactly pre-merged {value: multiplicity} counts: whole
    arrays from ARRAY_MIN distinct values on, else the greedy."""
    if len(exact) >= ARRAY_MIN:
        merged = _merge_arrays(np.fromiter(exact, complex, len(exact)),
                               np.fromiter(exact.values(), np.int64, len(exact)), tolerance)
        if merged is not None:
            return merged
    return _merge_greedy(exact, tolerance)


def _merge_greedy(exact: dict[complex, int], tolerance: float) -> Spectrum:
    """Spectrum of exactly pre-merged {value: multiplicity} counts.

    Greedy clustering in (real, imag) order: a value joins the first open
    cluster whose members all lie within the tolerance of it, so clusters
    never chain.
    """
    groups: list[list] = []      # [lo_im, hi_im, members]; members[0] has the least real part
    label: dict[complex, int] = {}
    start = 0
    for v in sorted(exact, key=lambda z: (z.real, z.imag)):
        while start < len(groups) and groups[start][2][0].real < v.real - tolerance:
            start += 1
        for k in range(start, len(groups)):
            g = groups[k]
            lo_im, hi_im = min(g[0], v.imag), max(g[1], v.imag)
            # the bounding box diagonal bounds every pairwise distance
            if math.hypot(v.real - g[2][0].real, hi_im - lo_im) <= tolerance or all(
                abs(v - u) <= tolerance for u in g[2]
            ):
                g[0], g[1] = lo_im, hi_im
                g[2].append(v)
                label[v] = k
                break
        else:
            label[v] = len(groups)
            groups.append([v.imag, v.imag, [v]])
    clusters: dict[int, list] = {}
    for v, m in exact.items():      # input order, so the sums do not depend on the sort
        acc = clusters.setdefault(label[v], [0j, 0])
        acc[0] += v * m
        acc[1] += m
    return _canonical([(acc / m, m) for acc, m in clusters.values()], tolerance)


def _cuts(x: np.ndarray, same: np.ndarray, tolerance: float) -> np.ndarray | None:
    """Where consecutive sorted values x start a new cell: a new run
    (where ``same`` is False) or a gap above the tolerance; None when some
    gap above it is not above it by the margin EDGE."""
    gap = x[1:] - x[:-1]
    cut = gap > tolerance
    if (cut & same & (gap <= tolerance * (1 + EDGE))).any():
        return None
    return np.concatenate(([True], cut | ~same))


def _merge_arrays(values: np.ndarray, mults: np.ndarray, tolerance: float) -> Spectrum | None:
    """What ``_merge_greedy`` returns for these distinct values, in the
    order they were first seen, or None when a decision lies near the
    tolerance.

    The values are cut into cells: wherever the real gap in real order
    exceeds the tolerance, then inside each such run wherever the
    imaginary gap in imaginary order does.  Values in different cells then
    lie more than the tolerance apart, and when every cell's bounding box
    has its diagonal within the tolerance, the cells are exactly the
    greedy's clusters.  Each mean sums in input order, as in the greedy.
    """
    if not np.isfinite(values).all():
        return None
    by_re = np.argsort(values.real, kind="stable")
    runs = _cuts(values.real[by_re], np.ones(len(values) - 1, dtype=bool), tolerance)
    if runs is None:
        return None
    run = np.empty(len(values), dtype=np.int64)
    run[by_re] = np.cumsum(runs)
    by_cell = np.lexsort((values.imag, run))
    im = values.imag[by_cell]
    cells = _cuts(im, run[by_cell][1:] == run[by_cell][:-1], tolerance)
    if cells is None:
        return None
    starts = np.flatnonzero(cells)
    re = values.real[by_cell]
    box_re = np.maximum.reduceat(re, starts) - np.minimum.reduceat(re, starts)
    box_im = im[np.append(starts[1:], len(values)) - 1] - im[starts]
    if (np.hypot(box_re, box_im) > tolerance * (1 - EDGE)).any():
        return None
    cell = np.empty(len(values), dtype=np.int64)
    cell[by_cell] = np.cumsum(cells) - 1
    # the greedy lists its clusters in the order their first member was seen
    listed = np.argsort(np.minimum.reduceat(by_cell, starts))
    count = np.add.reduceat(mults[by_cell], starts)[listed]
    mean = np.empty(len(listed), dtype=complex)
    mean.real = np.bincount(cell, values.real * mults)[listed] / count
    mean.imag = np.bincount(cell, values.imag * mults)[listed] / count
    return _canonical_arrays(mean, count, tolerance)


def _canonical(pairs, tolerance: float) -> Spectrum:
    """Spectrum of already-merged pairs, parts below 1e-12 set to +0.0 (never
    -0), sorted by real part descending.  A run of entries whose neighbouring
    real parts lie within the tolerance sorts by imaginary part, descending."""
    out = sorted(
        ((complex(0.0 if abs(v.real) < 1e-12 else v.real,
                  0.0 if abs(v.imag) < 1e-12 else v.imag), m) for v, m in pairs),
        key=lambda e: -e[0].real,
    )
    start = 0
    for k in range(1, len(out) + 1):
        if k == len(out) or out[k - 1][0].real - out[k][0].real > tolerance:
            if k - start > 1:
                out[start:k] = sorted(out[start:k], key=lambda e: (-e[0].imag, -e[0].real))
            start = k
    return Spectrum(tuple(out), tolerance)


def _canonical_arrays(values: np.ndarray, mults: np.ndarray, tolerance: float) -> Spectrum:
    """``_canonical`` on arrays: one stable sort by real part, descending,
    then one by (run, -imag, -real), which keeps that order on ties.  The
    result keeps its entries' arrays for the lookups (``_arrays``)."""
    re = np.where(np.abs(values.real) < 1e-12, 0.0, values.real)
    im = np.where(np.abs(values.imag) < 1e-12, 0.0, values.imag)
    down = np.argsort(-re, kind="stable")
    re, im, mults = re[down], im[down], mults[down]
    run = np.concatenate(([0], np.cumsum(re[:-1] - re[1:] > tolerance)))
    order = np.lexsort((-re, -im, run))
    out = np.empty(len(order), dtype=complex)
    out.real, out.imag = re[order], im[order]
    mults = mults[order]
    spec = Spectrum(tuple(zip(out.tolist(), mults.tolist())), tolerance)
    algebra._once(spec, "_entry_arrays", lambda: (algebra._frozen(out), algebra._frozen(mults)))
    return spec


def _fmt_value(v: complex) -> str:
    def fmt_real(x: float) -> str:
        if abs(x - round(x)) < SNAP_TOL:
            return str(int(round(x)))
        return f"{x:.6g}"

    if abs(v.imag) < SNAP_TOL:
        return fmt_real(v.real)
    im = fmt_real(abs(v.imag))
    im = "" if im == "1" else im
    sign = "-" if v.imag < 0 else ""
    if abs(v.real) < SNAP_TOL:
        return f"{sign}{im}i"
    return f"{fmt_real(v.real)}{'-' if v.imag < 0 else '+'}{im}i"


# ---------------------------------------------------------------------------
# lookups on large spectra


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, j) for every j in range(lo[k], hi[k]), k ascending."""
    counts = np.maximum(hi - lo, 0)
    k = np.repeat(np.arange(len(lo)), counts)
    return k, np.arange(len(k)) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def _index(spec: Spectrum):
    """The entries grouped into real runs (cut where the real gap in real
    order exceeds the tolerance), each sorted by imaginary part; built
    once per spectrum.

    An entry's key is run * (k + 1) + the number of entries with a smaller
    imaginary part, so one bisection of the keys finds the entries of one
    run inside an imaginary window."""
    def build():
        values, _ = _arrays(spec)
        re, k = values.real, len(values)
        by_re = np.argsort(re, kind="stable")
        new = np.concatenate(([True], re[by_re][1:] - re[by_re][:-1] > spec.tolerance))
        run = np.empty(k, dtype=np.int64)
        run[by_re] = np.cumsum(new) - 1
        ends = np.append(np.flatnonzero(new)[1:], k) - 1
        ims = np.sort(values.imag)
        key = run * (k + 1) + np.searchsorted(ims, values.imag)
        order = np.argsort(key, kind="stable")
        return re[by_re][new], re[by_re][ends], ims, key[order], order
    return algebra._once(spec, "_index", build)


def _near(spec: Spectrum, queries: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(query, entry) index pairs with |entry - query| <= radius.

    Candidates are the entries of the real runs that meet a window of
    twice the radius (and a few units in the last place, for rounding)
    around the query's real part, inside the same window around its
    imaginary part; each is then tested exactly, as the loops test it."""
    values, _ = _arrays(spec)
    run_lo, run_hi, ims, keys, order = _index(spec)
    qre, qim = queries.real, queries.imag
    w = 2 * radius + 4 * np.spacing(np.abs(queries))
    q, run = _ranges(np.searchsorted(run_hi, qre - w), np.searchsorted(run_lo, qre + w, "right"))
    base = run * (len(values) + 1)
    lo = np.searchsorted(keys, base + np.searchsorted(ims, qim[q] - w[q]))
    hi = np.searchsorted(keys, base + np.searchsorted(ims, qim[q] + w[q], "right"))
    pair, at = _ranges(lo, hi)
    q, e = q[pair], order[at]
    close = np.hypot(values.real[e] - qre[q], values.imag[e] - qim[q]) <= radius
    return q[close], e[close]


def _multiplicities(spec: Spectrum, queries: np.ndarray) -> np.ndarray:
    """multiplicity_of for every query, from the index."""
    q, e = _near(spec, queries, spec.tolerance)
    return np.bincount(q, _arrays(spec)[1][e], minlength=len(queries)).astype(np.int64)


def isospectral(s1: Spectrum, s2: Spectrum, tol: float = MERGE_TOL) -> bool:
    """Multiset equality by greedy nearest pairing within the tolerance.

    Runs over the merged (value, multiplicity) entries: each entry of s1,
    in ascending (real, imag) order, takes units from the nearest entry of
    s2 with units left, within the tolerance (the first such entry on a
    tie), min(need, left) at a time.  All copies of one value are equal,
    so this makes the same pairing decisions as pairing the expanded
    values one by one, in time independent of the multiplicities.
    Candidates are restricted to a real-part window so the pairing is
    stable even when distinct values share a real part to rounding error.
    Large spectra are first decided by ``_isospectral_arrays``.
    """
    if s1.size != s2.size:
        return False
    if max(len(s1.entries), len(s2.entries)) >= ARRAY_MIN:
        decided = _isospectral_arrays(s1, s2, tol)
        if decided is not None:
            return decided
    return _isospectral_greedy(s1, s2, tol)


def _isospectral_greedy(s1: Spectrum, s2: Spectrum, tol: float) -> bool:
    """The pairing loop of ``isospectral``, for spectra of equal size."""
    a, b = (sorted(s.entries, key=lambda e: (e[0].real, e[0].imag)) for s in (s1, s2))
    left = [m for _, m in b]
    lo = 0
    for x, need in a:
        while need:
            while lo < len(b) and (not left[lo] or b[lo][0].real < x.real - tol):
                lo += 1
            best, best_d = -1, None
            j = lo
            while j < len(b) and b[j][0].real <= x.real + tol:
                if left[j]:
                    d = abs(x - b[j][0])
                    if d <= tol and (best_d is None or d < best_d):
                        best, best_d = j, d
                j += 1
            if best < 0:
                return False
            take = min(need, left[best])
            need -= take
            left[best] -= take
    return True


def _isospectral_arrays(s1: Spectrum, s2: Spectrum, tol: float) -> bool | None:
    """The greedy pairing's answer where the index decides it, else None.

    True when the entries, sorted by (real, imag), pair one to one within
    the tolerance with equal multiplicities and each entry has its partner
    as its only entry of the other spectrum within the tolerance (by the
    margin EDGE): then every entry takes all of its units from its partner.
    False when an entry with units has no entry of the other spectrum
    within the tolerance: the pairing stops there."""
    (a, am), (b, bm) = _arrays(s1), _arrays(s2)
    reach = tol * (1 + EDGE)
    a_in_b = np.bincount(_near(s2, a, reach)[0], minlength=len(a))
    if ((a_in_b == 0) & (am > 0)).any():
        return False
    if len(a) != len(b):
        return None
    pa, pb = np.lexsort((a.imag, a.real)), np.lexsort((b.imag, b.real))
    if not (np.array_equal(am[pa], bm[pb]) and (a_in_b == 1).all()
            and (np.hypot(a.real[pa] - b.real[pb], a.imag[pa] - b.imag[pb]) <= tol * (1 - EDGE)).all()
            and (np.bincount(_near(s1, b, reach)[0], minlength=len(b)) == 1).all()):
        return None
    return True


@dataclass(frozen=True)
class SpectrumClass:
    integral: bool
    parity: str                 # "even" | "odd" | "mixed" | "non-integral"
    symmetric: bool
    almost_symmetric: bool
    principal_eigenvalue: float
    bipartite_criterion: bool


def classify(spec: Spectrum) -> SpectrumClass:
    if len(spec.entries) >= ARRAY_MIN:
        return _classify_arrays(spec)
    integral = all(
        abs(v.imag) <= SNAP_TOL and abs(v.real - round(v.real)) <= SNAP_TOL
        for v, _ in spec.entries
    )
    if integral:
        ints = {int(round(v.real)) for v, _ in spec.entries}
        if all(x % 2 == 0 for x in ints):
            parity = "even"
        elif all(x % 2 == 1 for x in ints):
            parity = "odd"
        else:
            parity = "mixed"
    else:
        parity = "non-integral"

    symmetric = isospectral(spec, spec.negated(), spec.tolerance)
    principal = max(spec.entries, key=lambda e: (e[0].real, e[0].imag))[0]
    almost = all(
        spec.multiplicity_of(v) == spec.multiplicity_of(-v)
        for v, _ in spec.entries
        if abs(v - principal) > spec.tolerance
    )
    bipartite_criterion = spec.multiplicity_of(-principal) > 0

    return SpectrumClass(
        integral=integral,
        parity=parity,
        symmetric=symmetric,
        almost_symmetric=almost,
        principal_eigenvalue=principal.real,
        bipartite_criterion=bipartite_criterion,
    )


def _classify_arrays(spec: Spectrum) -> SpectrumClass:
    """``classify`` with every lookup made at once through the index."""
    values, _ = _arrays(spec)
    re, im = values.real, values.imag
    rounded = np.round(re)
    integral = bool(((np.abs(im) <= SNAP_TOL) & (np.abs(re - rounded) <= SNAP_TOL)).all())
    parity = "non-integral"
    if integral:
        even = rounded % 2 == 0
        parity = "even" if even.all() else "odd" if not even.any() else "mixed"
    top = np.flatnonzero(re == re.max())
    principal = values[top[np.argmax(im[top])]]
    others = values[np.hypot(re - principal.real, im - principal.imag) > spec.tolerance]
    mult = _multiplicities(spec, np.concatenate((others, -others, [-principal])))
    return SpectrumClass(
        integral=integral,
        parity=parity,
        symmetric=isospectral(spec, spec.negated(), spec.tolerance),
        almost_symmetric=bool((mult[:len(others)] == mult[len(others):-1]).all()),
        principal_eigenvalue=float(principal.real),
        bipartite_criterion=bool(mult[-1] > 0),
    )


# ---------------------------------------------------------------------------
# dense symmetric route (LAPACK), for undirected graphs without blocks


def spectrum_dense_symmetric(graph: Graph) -> Spectrum:
    """Spectrum of an undirected graph by LAPACK ``eigvalsh``.

    eigvalsh reads only one triangle, so an asymmetric matrix would give
    a wrong answer silently; the guard below rejects it explicitly.
    """
    A = np.asarray(graph.adjacency, dtype=float)
    if A.size == 0 or not np.array_equal(A, A.T):
        raise SpectrumError("dense route requires a non-empty symmetric adjacency")
    return Spectrum.from_values(np.linalg.eigvalsh(A))


# ---------------------------------------------------------------------------
# irreducible blocks


def spectrum_from_blocks(blocks) -> Spectrum:
    """Spectrum of a matrix similar to the direct sum of d copies of every
    block in ``blocks``, a sequence of (k, d, d) stacks of Hermitian
    blocks: each eigenvalue of a d x d block counts d times.  One batched
    ``eigvalsh`` per stack, which reads one triangle of each block."""
    return Spectrum.from_values(np.concatenate(
        [np.repeat(np.linalg.eigvalsh(stack).ravel(), stack.shape[-1]) for stack in blocks]))


def mirror_blocks(blocks: np.ndarray, t_kind: str, identity_in_S: bool) -> np.ndarray:
    """rho(S) + rho(T) stacked on rho(S) - rho(T), the blocks of MX*(G; S, T)
    (the irreducibles of G x Z2 are rho (x) (+-1)), for rho(S) given as a
    (k, d, d) stack or as k character values.  rho(T) comes from rho(S): I
    for T = {e}, rho(S) for S, rho(S) + I for S u {e} (rho(S) when e is in S).
    """
    one = np.eye(blocks.shape[-1]) if blocks.ndim == 3 else 1
    if t_kind == "identity":
        t = one
    elif t_kind == "S" or (t_kind == "S_and_identity" and identity_in_S):
        t = blocks
    elif t_kind == "S_and_identity":
        t = blocks + one
    else:
        raise SpectrumError(f"bad T kind {t_kind!r}")
    return np.concatenate((blocks + t, blocks - t))


# ---------------------------------------------------------------------------
# exact spectra via abelian characters


def spectrum_exact_abelian(S: GroupSubset, kind: str, t_kind: str | None = None) -> Spectrum:
    """Spectrum of X(G,S) (difference) or X^+(G,S) (sum) for abelian G = S.parent,
    or of MX*(G; S, T) with T of kind t_kind when it is given.

    Difference: the multiset {chi(S)}.  Sum: real characters contribute
    chi(S) once; each conjugate pair contributes +|chi(S)| and -|chi(S)|.
    The mirror graph's characters chi (x) (+-1) of G x Z2 take their sums
    from chi(S) (``mirror_blocks``); conjugation keeps the sign.
    """
    group = S.parent
    if not group.is_abelian:
        raise SpectrumError("character route requires an abelian group")
    if kind not in ("difference", "sum"):
        raise SpectrumError(f"bad kind {kind!r}")
    vals = algebra.character_sums_over(S)
    if t_kind is not None:
        vals = mirror_blocks(vals, t_kind, group.identity in S)
    if kind == "difference":
        return Spectrum.from_values(vals)
    conj = algebra.conjugate_characters(group)
    if t_kind is not None:
        conj = np.concatenate((conj, conj + group.order))
    idx = np.arange(len(vals))
    real = vals[conj == idx]
    if (np.abs(real.imag) > 1e-7).any():
        raise SpectrumError("real character produced a complex value")
    pair = vals[idx < conj]      # the first character of each conjugate pair
    r = np.hypot(pair.real, pair.imag)      # bit-identical to abs(); np.abs on arrays is not
    return Spectrum.from_values(np.concatenate([real.real, np.stack([r, -r], axis=1).ravel()]))


# ---------------------------------------------------------------------------
# closed-form spectrum families


def mdcg_spectrum_formula(base: Spectrum, t_kind: str, group_order: int) -> Spectrum:
    """Mirror di-Cayley spectrum from the base Cayley spectrum (Prop.
    spec-bicayleys): ``mirror_blocks`` with each base eigenvalue l as a 1 x 1
    block, e not in S.  identity: {l ± 1}; S: {2l} and n zeros;
    S_and_identity: {2l + 1} and n copies of -1.  Output multiplicity is 2n.
    """
    if base.size != group_order:
        raise SpectrumError(f"base multiplicities sum to {base.size}, expected {group_order}")
    values, mults = _arrays(base)
    return Spectrum.from_pairs(zip(mirror_blocks(values, t_kind, False).tolist(),
                                   np.tile(mults, 2).tolist()), base.tolerance)


def local_ring_unitary_spectrum(r: int, m: int, kind: str) -> Spectrum:
    """Spectrum of the unitary Cayley (sum) graph of a local ring (r, m).

    The sum formula is stated for odd r; for even r the difference
    formula applies to both kinds.
    """
    # a finite local ring has r = q^l and m = q^(l-1), q = r/m the size of its residue field
    if (r < 2 or m < 1 or r % m != 0 or algebra.prime_power(r // m) is None
            or (r // m) ** round(math.log(r, r // m)) != r):
        raise SpectrumError(f"invalid local parameters r={r}, m={m}: not r = q^l, m = q^(l-1)")
    q = r // m
    if kind not in ("difference", "sum"):
        raise SpectrumError(f"bad kind {kind!r}")
    # the printed field rows (m = 1) are these rows at m = 1, where the
    # multiplicity of 0 vanishes
    if kind == "difference" or r % 2 == 0:
        return Spectrum.from_pairs([(r - m, 1), (0, q * (m - 1)), (-m, q - 1)])
    return Spectrum.from_pairs(
        [
            (r - m, 1),
            (m, (r - m) // (2 * m)),
            (0, q * (m - 1)),
            (-m, (r - m) // (2 * m)),
        ]
    )


def mdcg_local_ring_spectrum(r: int, m: int, t_kind: str, kind: str) -> Spectrum:
    """The printed closed forms for the six mirror graphs of an odd local ring.

    Each printed row is Prop. spec-bicayleys (``mdcg_spectrum_formula``)
    applied to the local row (``local_ring_unitary_spectrum``), except the
    S-and-identity rows: they print [1]^r where the formula has [-1]^r, that
    is the S row shifted by one.  That misprint is returned verbatim here
    (see the errata tests); the corrected row is the formula itself.
    """
    if r % 2 == 0:
        raise SpectrumError("the closed forms require odd local size r")
    base = local_ring_unitary_spectrum(r, m, kind)
    if t_kind != "S_and_identity":
        return mdcg_spectrum_formula(base, t_kind, r)
    return Spectrum.from_pairs([(v + 1, n) for v, n in mdcg_spectrum_formula(base, "S", r).entries])


def spectrum_to_json(spec: Spectrum) -> str:
    import json

    cls = classify(spec)
    return json.dumps(
        {
            "entries": [
                {"re": v.real, "im": v.imag, "mult": m} for v, m in spec.entries
            ],
            "class": {
                "integral": cls.integral,
                "parity": cls.parity,
                "symmetric": cls.symmetric,
                "almost_symmetric": cls.almost_symmetric,
            },
        },
        separators=(",", ":"),
    )
