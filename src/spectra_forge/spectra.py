"""Spectra: exact character formulas, a dense LAPACK route (``eigvalsh``)
as the independent numeric route for undirected graphs, the closed-form
spectrum families, and classification.

Numeric policy: complex eigenvalues merge within 1e-8, and the members of
one merged entry lie pairwise within that tolerance (clusters never
chain); spectra compare by pairing merged entries within the same
tolerance; integer snapping uses 1e-6.  The dense route calls
``numpy.linalg.eigvalsh`` after an explicit symmetry check.
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
        items = [(complex(v), int(m)) for v, m in pairs if m]
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
        copy sorted by real part that is built once per spectrum.
        """
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


def _merge(exact: dict[complex, int], tolerance: float) -> Spectrum:
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
    """
    if s1.size != s2.size:
        return False
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


@dataclass(frozen=True)
class SpectrumClass:
    integral: bool
    parity: str                 # "even" | "odd" | "mixed" | "non-integral"
    symmetric: bool
    almost_symmetric: bool
    principal_eigenvalue: float
    bipartite_criterion: bool


def classify(spec: Spectrum) -> SpectrumClass:
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


# ---------------------------------------------------------------------------
# dense symmetric route (LAPACK), the numeric route for non-abelian groups


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
# exact spectra via abelian characters


def spectrum_exact_abelian(S: GroupSubset, kind: str) -> Spectrum:
    """Spectrum of X(G,S) (difference) or X^+(G,S) (sum) for abelian G = S.parent.

    Difference: the multiset {chi(S)}.  Sum: real characters contribute
    chi(S) once; each conjugate pair contributes +|chi(S)| and -|chi(S)|.
    """
    group = S.parent
    if not group.is_abelian:
        raise SpectrumError("character route requires an abelian group")
    if kind not in ("difference", "sum"):
        raise SpectrumError(f"bad kind {kind!r}")
    vals = algebra.character_sums_over(S)
    if kind == "difference":
        return Spectrum.from_values(vals)
    conj = algebra.conjugate_characters(group)
    idx = np.arange(group.order)
    real = vals[conj == idx]
    if (np.abs(real.imag) > 1e-7).any():
        raise SpectrumError("real character produced a complex value")
    pair = vals[idx < conj]      # the first character of each conjugate pair
    r = np.hypot(pair.real, pair.imag)      # bit-identical to abs(); np.abs on arrays is not
    return Spectrum.from_values(np.concatenate([real.real, np.stack([r, -r], axis=1).ravel()]))


# ---------------------------------------------------------------------------
# closed-form spectrum families


def mdcg_spectrum_formula(base: Spectrum, t_kind: str, group_order: int) -> Spectrum:
    """Mirror di-Cayley spectrum from the base Cayley spectrum.

    identity: {l ± 1}; S: {2l} and n zeros; S_and_identity: {2l + 1} and
    n copies of -1.  Output multiplicity is 2n.
    """
    if base.size != group_order:
        raise SpectrumError(
            f"base multiplicities sum to {base.size}, expected {group_order}"
        )
    pairs = list(base.entries)
    if t_kind == "identity":
        out = [(v + 1, m) for v, m in pairs] + [(v - 1, m) for v, m in pairs]
    elif t_kind == "S":
        out = [(2 * v, m) for v, m in pairs] + [(0j, group_order)]
    elif t_kind == "S_and_identity":
        out = [(2 * v + 1, m) for v, m in pairs] + [(-1 + 0j, group_order)]
    else:
        raise SpectrumError(f"bad T kind {t_kind!r}")
    return Spectrum.from_pairs(out, base.tolerance)


def local_ring_unitary_spectrum(r: int, m: int, kind: str) -> Spectrum:
    """Spectrum of the unitary Cayley (sum) graph of a local ring (r, m).

    The sum formula is stated for odd r; for even r the difference
    formula applies to both kinds.
    """
    if r < 2 or m < 1 or r % m != 0:
        raise SpectrumError(f"invalid local parameters r={r}, m={m}")
    q = r // m
    if algebra.prime_power(q) is None:
        raise SpectrumError(f"residue field size {q} is not a prime power")
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

    Note: the published closed forms for the S-and-identity case disagree
    with the actual spectra in both kinds (see the errata tests); they are
    returned verbatim here because this function implements the printed
    corollary.  The actual values follow from mdcg_spectrum_formula
    (difference kind) or the character route over the doubled group.
    """
    if r % 2 == 0:
        raise SpectrumError("the closed forms require odd local size r")
    if r < 3 or m < 1 or r % m != 0 or algebra.prime_power(r // m) is None:
        raise SpectrumError(f"invalid local parameters r={r}, m={m}")
    if kind not in ("difference", "sum"):
        raise SpectrumError(f"bad kind {kind!r}")
    if t_kind not in ("identity", "S", "S_and_identity"):
        raise SpectrumError(f"bad T kind {t_kind!r}")

    q = r // m
    # the printed field rows (m = 1) are these rows at m = 1
    if t_kind == "identity":
        if kind == "difference":
            return Spectrum.from_pairs(
                [
                    (r - m + 1, 1), (r - m - 1, 1),
                    (1, q * (m - 1)), (-1, q * (m - 1)),
                    (-m + 1, (r - m) // m), (-m - 1, (r - m) // m),
                ]
            )
        return Spectrum.from_pairs(
            [
                (r - m + 1, 1), (r - m - 1, 1),
                (m + 1, (r - m) // (2 * m)), (m - 1, (r - m) // (2 * m)),
                (1, q * (m - 1)), (-1, q * (m - 1)),
                (-m + 1, (r - m) // (2 * m)), (-m - 1, (r - m) // (2 * m)),
            ]
        )
    if t_kind == "S":
        if kind == "difference":
            return Spectrum.from_pairs(
                [(2 * (r - m), 1), (0, 2 * r - q), (-2 * m, (r - m) // m)]
            )
        return Spectrum.from_pairs(
            [
                (2 * (r - m), 1), (0, 2 * r - q),
                (2 * m, (r - m) // (2 * m)), (-2 * m, (r - m) // (2 * m)),
            ]
        )
    # S_and_identity
    if kind == "difference":
        return Spectrum.from_pairs(
            [(2 * (r - m) + 1, 1), (1, 2 * r - q), (-2 * m + 1, (r - m) // m)]
        )
    return Spectrum.from_pairs(
        [
            (2 * (r - m) + 1, 1), (1, 2 * r - q),
            (2 * m + 1, (r - m) // (2 * m)), (-2 * m + 1, (r - m) // (2 * m)),
        ]
    )


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
