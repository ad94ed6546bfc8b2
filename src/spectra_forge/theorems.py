"""Executable verification of the spectral claims on concrete instances.

Every check evaluates the actual objects (adjacency tables, spectra
computed by independent routes) and reports pass/fail with witnesses.

Three groups of printed claims are known to be wrong and are tracked as
documented errata rather than silent failures: the Cartesian and strong
product decompositions of sum-kind mirror graphs (the crossing matching
is the negation map, not the identity), the sum-kind mirror spectrum
formulas outside their valid domain together with the isospectrality
corollaries (the odd pair over a ring), and the closed-form table rows
for local mirror graphs with di-connection set R* with 0.  A check that
hits one of these reports outcome "xfail" and carries the witness;
anything else that fails reports "fail".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import algebra, finring, graphs, products, spectra
from .algebra import FiniteGroup, GroupSubset
from .finring import FiniteRing, RingError
from .graphs import Graph

PASS = "pass"
FAIL = "fail"
XFAIL = "xfail"   # documented erratum, expected and confirmed failure
SKIP = "skip"

ERRATUM_PRODUCTS = (
    "sum-kind crossing edges follow the negation matching, so the printed "
    "Cartesian/strong decompositions fail unless inversion is trivial"
)
ERRATUM_SPECBI = (
    "printed sum-kind formula assumes the crossing matching is trivial; the "
    "actual spectrum differs whenever some conjugate character pair has a "
    "nonzero (identity case: non-real) character sum"
)
ERRATUM_CORO_SE = (
    "printed unitary-local closed form for di-connection set R* with 0 "
    "misstates the trailing block: the difference kind has [-1]^{|R|} where "
    "the print shows extra [+1] entries, and the sum kind additionally hits "
    "the crossing-matching pairing issue"
)


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    instance: str
    outcome: str
    witness: str | None = None
    seed: int | None = None

    def to_json(self) -> str:
        data = {"claim": self.claim_id, "instance": self.instance, "outcome": self.outcome}
        if self.witness is not None:
            data["witness"] = self.witness
        if self.seed is not None:
            data["seed"] = self.seed
        return json.dumps(data, separators=(",", ":"))

    @property
    def ok(self) -> bool:
        return self.outcome in (PASS, XFAIL, SKIP)


def _inst(G: FiniteGroup, S: GroupSubset, extra: str = "") -> str:
    s = f"G={G.label}, S={list(S.members)}"
    return f"({s}{', ' + extra if extra else ''})"


def _inversion_trivial(G: FiniteGroup) -> bool:
    return bool(np.array_equal(G.inv_table, np.arange(G.order)))


def _identity_subset(G: FiniteGroup) -> GroupSubset:
    return GroupSubset(G, (G.identity,))


def _transpose_to_mirror(prod: Graph, n: int) -> Graph:
    """Canonical transposition (g, i) -> (i, g) from a (graph, P2) product
    in factor-major order to the mirror-major MDCG order."""
    perm = [2 * g + i for i in (0, 1) for g in range(n)]
    return prod.permuted(perm)


_Z2_PRODUCT_CACHE: dict[int, tuple[FiniteGroup, FiniteGroup]] = {}


def product_group_with_z2(G: FiniteGroup) -> FiniteGroup:
    entry = _Z2_PRODUCT_CACHE.get(id(G))
    if entry is not None and entry[0] is G:
        return entry[1]
    Gp = algebra.direct_product(G, algebra.cyclic(2))
    if len(_Z2_PRODUCT_CACHE) > 64:
        _Z2_PRODUCT_CACHE.clear()
    _Z2_PRODUCT_CACHE[id(G)] = (G, Gp)
    return Gp


def mdcg_connection_subset(
    Gp: FiniteGroup, S: GroupSubset, T: GroupSubset
) -> GroupSubset:
    """(S x {0}) union (T x {1}) inside the product group G x Z2."""
    members = tuple(2 * s for s in S.members) + tuple(2 * t + 1 for t in T.members)
    return GroupSubset(Gp, members)


def t_subset(G: FiniteGroup, S: GroupSubset, t_kind: str) -> GroupSubset:
    if t_kind == "identity":
        return _identity_subset(G)
    if t_kind == "S":
        return S
    if t_kind == "S_and_identity":
        return S.with_identity()
    raise ValueError(f"bad T kind {t_kind!r}")


T_KINDS = ("identity", "S", "S_and_identity")
KINDS = ("difference", "sum")


# ---------------------------------------------------------------------------
# direct MDCG spectra


def mdcg_direct_spectrum(
    G: FiniteGroup, S: GroupSubset, T: GroupSubset, kind: str
) -> spectra.Spectrum | None:
    """Spectrum of MX*(G;S,T) by an independent route: characters over
    G x Z2 when G is abelian, the dense eigensolver when the adjacency is
    symmetric, and None when neither route applies."""
    if G.is_abelian:
        Gp = product_group_with_z2(G)
        Sp = mdcg_connection_subset(Gp, S, T)
        return spectra.spectrum_exact_abelian(Gp, Sp, kind, validate=False)
    graph = graphs.mirror_dicayley(G, S, T, kind)
    if graph.undirected:
        return spectra.spectrum_dense_symmetric(graph)
    return None


def base_spectrum(G: FiniteGroup, S: GroupSubset, kind: str) -> spectra.Spectrum | None:
    if G.is_abelian:
        return spectra.spectrum_exact_abelian(G, S, kind, validate=False)
    graph = graphs.cayley(G, S, kind)
    if graph.undirected:
        return spectra.spectrum_dense_symmetric(graph)
    return None


def _complex_pair_sums(G: FiniteGroup, S: GroupSubset) -> list[complex]:
    vals = algebra.character_sums_over(G, S)
    _, pairs = spectra._character_reality_and_pairs(G)
    return [vals[i] for i, _ in pairs]


# ---------------------------------------------------------------------------
# product decompositions (Thm. prods, Lemma strong-sum, eq. XGSx+P2)


def check_product_decompositions(
    G: FiniteGroup, S: GroupSubset, kind: str
) -> list[VerificationReport]:
    n = G.order
    reports = []
    gamma = graphs.cayley(G, S, kind)
    p2 = products.path2(False)
    p2l = products.path2(True)
    e_set = _identity_subset(G)
    mx_e = graphs.mirror_dicayley(G, S, e_set, kind)
    mx_s = graphs.mirror_dicayley(G, S, S, kind)
    mx_se = graphs.mirror_dicayley(G, S, S.with_identity(), kind)
    triv_inv = _inversion_trivial(G) or kind == "difference"

    cases = [
        ("thm-prods/cartesian", mx_e,
         products.named_product(p2, gamma, "cartesian"), True, triv_inv),
        ("thm-prods/direct", mx_s,
         products.named_product(p2l, gamma, "direct"), True, True),
        ("thm-prods/strong", mx_se,
         products.named_product(p2, gamma, "strong"), True, triv_inv),
        ("lem-strong-sum/first", mx_s,
         products.named_product(gamma, p2, "strong_sum"), False, True),
        ("lem-strong-sum/second",
         graphs.mirror_dicayley(G, GroupSubset(G, ()), S.with_identity(), kind),
         products.named_product(p2, gamma, "strong_sum"), True, triv_inv),
        ("strong-sum-eq-direct",
         products.named_product(gamma, p2l, "direct"),
         products.named_product(gamma, p2, "strong_sum"), None, True),
    ]
    for claim, lhs, rhs, p2_first, valid in cases:
        if p2_first is False:
            rhs = _transpose_to_mirror(rhs, n)
        equal = lhs == rhs
        inst = _inst(G, S, f"kind={kind}")
        if equal:
            reports.append(VerificationReport(claim, inst, PASS))
        elif not valid:
            diff = np.argwhere(lhs.adjacency != rhs.adjacency)[0]
            reports.append(
                VerificationReport(
                    claim, inst, XFAIL,
                    witness=f"adjacency differs at {tuple(int(x) for x in diff)}; "
                    + ERRATUM_PRODUCTS,
                )
            )
        else:
            diff = np.argwhere(lhs.adjacency != rhs.adjacency)[0]
            reports.append(
                VerificationReport(
                    claim, inst, FAIL,
                    witness=f"adjacency differs at {tuple(int(x) for x in diff)}",
                )
            )
    return reports


def check_cayley_structure(
    G: FiniteGroup, S: GroupSubset, T: GroupSubset, kind: str
) -> VerificationReport:
    """MX*(G;S,T) equals the Cayley (sum) graph over G x Z2 exactly."""
    mx = graphs.mirror_dicayley(G, S, T, kind)
    Gp = algebra.direct_product(G, algebra.cyclic(2))
    Sp = mdcg_connection_subset(Gp, S, T)
    cay = _transpose_to_mirror(graphs.cayley(Gp, Sp, kind), G.order)
    inst = _inst(G, S, f"T={list(T.members)}, kind={kind}")
    if mx == cay:
        return VerificationReport("prop-cayley-structure", inst, PASS)
    diff = np.argwhere(mx.adjacency != cay.adjacency)[0]
    return VerificationReport(
        "prop-cayley-structure", inst, FAIL,
        witness=f"adjacency differs at {tuple(int(x) for x in diff)}",
    )


def check_union_identity(
    G: FiniteGroup, S: GroupSubset, T1: GroupSubset, T2: GroupSubset, kind: str
) -> VerificationReport:
    """MX*(G;S,T1 u T2) = MX*(G;S,T1) u MX*(G;S,T2) as edge sets."""
    lhs = graphs.mirror_dicayley(G, S, T1.union(T2), kind)
    a = graphs.mirror_dicayley(G, S, T1, kind).adjacency
    b = graphs.mirror_dicayley(G, S, T2, kind).adjacency
    rhs = Graph((a | b), lhs.vertex_labels)
    inst = _inst(G, S, f"kind={kind}")
    if lhs == rhs:
        return VerificationReport("eq-unions", inst, PASS)
    return VerificationReport("eq-unions", inst, FAIL, witness="edge sets differ")


# ---------------------------------------------------------------------------
# spectrum formulas (Prop. spec-bicayleys)


def specbi_formula_valid(G: FiniteGroup, S: GroupSubset, t_kind: str, kind: str) -> bool:
    """Whether the printed mirror-spectrum formula is exact for this instance."""
    if kind == "difference" or t_kind == "S":
        return True
    if not G.is_abelian:
        return _inversion_trivial(G)
    pair_sums = _complex_pair_sums(G, S)
    if t_kind == "identity":
        return all(abs(v.imag) <= 1e-9 for v in pair_sums)
    return all(abs(v) <= 1e-9 for v in pair_sums)


def check_spectrum_formulas(
    G: FiniteGroup, S: GroupSubset, kind: str
) -> list[VerificationReport]:
    reports = []
    base = base_spectrum(G, S, kind)
    if base is None:
        return [
            VerificationReport(
                "prop-spec-bicayleys", _inst(G, S, f"kind={kind}"), SKIP,
                witness="no exact route for a directed non-abelian instance",
            )
        ]
    for t_kind in T_KINDS:
        inst = _inst(G, S, f"T={t_kind}, kind={kind}")
        claim = f"prop-spec-bicayleys/{t_kind}"
        if t_kind == "S_and_identity" and G.identity in S:
            reports.append(
                VerificationReport(
                    claim, inst, SKIP,
                    witness="identity in S: the S-with-identity family assumes e not in S",
                )
            )
            continue
        T = t_subset(G, S, t_kind)
        formula = spectra.mdcg_spectrum_formula(base, t_kind, G.order)
        direct = mdcg_direct_spectrum(G, S, T, kind)
        if direct is None:
            graph = graphs.mirror_dicayley(G, S, T, kind)
            K = min(12, graph.n)
            ok = spectra.moment_check(
                formula, spectra.moments(graph, K), max(1, len(S) + len(T)), graph.n
            )
            outcome = PASS if ok else FAIL
            reports.append(
                VerificationReport(claim, inst, outcome,
                                   witness=None if ok else "moment mismatch"))
            continue
        equal = spectra.isospectral(formula, direct)
        if equal:
            reports.append(VerificationReport(claim, inst, PASS))
        elif not specbi_formula_valid(G, S, t_kind, kind):
            reports.append(
                VerificationReport(
                    claim, inst, XFAIL,
                    witness=f"formula {formula} vs actual {direct}; " + ERRATUM_SPECBI,
                )
            )
        else:
            reports.append(
                VerificationReport(
                    claim, inst, FAIL,
                    witness=f"formula {formula} vs actual {direct}",
                )
            )
    return reports


# ---------------------------------------------------------------------------
# crossed non-isospectrality (Prop. isospec-T,T')


def check_crossed_nonisospectrality(
    G: FiniteGroup, S: GroupSubset, kind: str
) -> list[VerificationReport]:
    if len(S) < 2:
        return [
            VerificationReport(
                "prop-isospec-TT", _inst(G, S, f"kind={kind}"), SKIP,
                witness="|S| < 2",
            )
        ]
    if G.identity in S:
        return [
            VerificationReport(
                "prop-isospec-TT", _inst(G, S, f"kind={kind}"), SKIP,
                witness="identity in S (family convention)",
            )
        ]
    specs = {}
    for t_kind in T_KINDS:
        T = t_subset(G, S, t_kind)
        spec = mdcg_direct_spectrum(G, S, T, kind)
        if spec is None:
            return [
                VerificationReport(
                    "prop-isospec-TT", _inst(G, S, f"kind={kind}"), SKIP,
                    witness="no exact route for a directed non-abelian instance",
                )
            ]
        specs[t_kind] = spec
    reports = []
    for a, b in (("identity", "S"), ("identity", "S_and_identity"), ("S", "S_and_identity")):
        iso = spectra.isospectral(specs[a], specs[b])
        inst = _inst(G, S, f"{a} vs {b}, kind={kind}")
        reports.append(
            VerificationReport(
                "prop-isospec-TT", inst,
                FAIL if iso else PASS,
                witness=f"unexpected isospectrality: {specs[a]}" if iso else None,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# isospectrality transfer (Thm. isosp-X,X+ and Thm. gen-isosp)


def check_isosp_transfer(G: FiniteGroup, S: GroupSubset) -> list[VerificationReport]:
    base_d = base_spectrum(G, S, "difference")
    base_s = base_spectrum(G, S, "sum")
    if base_d is None or base_s is None:
        return [
            VerificationReport(
                "thm-isosp-XX+", _inst(G, S), SKIP,
                witness="no exact route for a directed non-abelian instance",
            )
        ]
    base_iso = spectra.isospectral(base_d, base_s)
    reports = []
    for t_kind in T_KINDS:
        T = t_subset(G, S, t_kind)
        md = mdcg_direct_spectrum(G, S, T, "difference")
        ms = mdcg_direct_spectrum(G, S, T, "sum")
        inst = _inst(G, S, f"T={t_kind}")
        if md is None or ms is None:
            reports.append(VerificationReport(f"thm-isosp-XX+/{t_kind}", inst, SKIP,
                                              witness="no exact route"))
            continue
        pair_iso = spectra.isospectral(md, ms)
        claim = f"thm-isosp-XX+/{t_kind}"
        if pair_iso == base_iso:
            reports.append(VerificationReport(claim, inst, PASS))
        elif (
            t_kind == "S_and_identity"
            and base_iso
            and not specbi_formula_valid(G, S, t_kind, "sum")
        ):
            reports.append(
                VerificationReport(
                    claim, inst, XFAIL,
                    witness=f"base isospectral but MX {md} vs MX+ {ms}; " + ERRATUM_SPECBI,
                )
            )
        else:
            reports.append(
                VerificationReport(
                    claim, inst, FAIL,
                    witness=f"base isospectral={base_iso}, pair isospectral={pair_iso}",
                )
            )
    return reports


def check_gen_isosp(
    G1: FiniteGroup, S1: GroupSubset, G2: FiniteGroup, S2: GroupSubset, kind: str
) -> list[VerificationReport]:
    b1 = base_spectrum(G1, S1, kind)
    b2 = base_spectrum(G2, S2, kind)
    inst = f"(G1={G1.label}, S1={list(S1.members)}; G2={G2.label}, S2={list(S2.members)}, kind={kind})"
    if b1 is None or b2 is None:
        return [VerificationReport("thm-gen-isosp", inst, SKIP,
                                   witness="no exact route")]
    base_iso = b1.size == b2.size and spectra.isospectral(b1, b2)
    reports = []
    for t_kind in T_KINDS:
        m1 = mdcg_direct_spectrum(G1, S1, t_subset(G1, S1, t_kind), kind)
        m2 = mdcg_direct_spectrum(G2, S2, t_subset(G2, S2, t_kind), kind)
        pair_iso = m1.size == m2.size and spectra.isospectral(m1, m2)
        claim = f"thm-gen-isosp/{t_kind}"
        if pair_iso != base_iso:
            reports.append(
                VerificationReport(
                    claim, inst, FAIL,
                    witness=f"base isospectral={base_iso}, MDCG isospectral={pair_iso}",
                )
            )
            continue
        if base_iso and (G1.order != G2.order or len(S1) != len(S2)):
            reports.append(
                VerificationReport(claim, inst, FAIL,
                                   witness="isospectral but |G| or |S| differ"))
            continue
        reports.append(VerificationReport(claim, inst, PASS))
    return reports


# ---------------------------------------------------------------------------
# parity, symmetry and integrality transfer


def check_parity_and_symmetry(
    G: FiniteGroup, S: GroupSubset, kind: str
) -> list[VerificationReport]:
    base = base_spectrum(G, S, kind)
    inst = _inst(G, S, f"kind={kind}")
    if base is None:
        return [VerificationReport("cor-integral-symmetric", inst, SKIP,
                                   witness="no exact route")]
    base_cls = spectra.classify(base)
    e_in_S = G.identity in S
    reports = []
    specs = {}
    for t_kind in T_KINDS:
        specs[t_kind] = mdcg_direct_spectrum(G, S, t_subset(G, S, t_kind), kind)
    classes = {k: spectra.classify(v) for k, v in specs.items()}

    def add(claim, ok, witness=None, expected_defect=False):
        outcome = PASS if ok else (XFAIL if expected_defect else FAIL)
        reports.append(VerificationReport(claim, inst, outcome,
                                          witness=None if ok else witness))

    formula_ok = {tk: specbi_formula_valid(G, S, tk, kind) for tk in T_KINDS}
    for t_kind in T_KINDS:
        ok = classes[t_kind].integral == base_cls.integral
        add(
            f"cor-integral/transfer/{t_kind}", ok,
            witness=f"base integral={base_cls.integral}, MDCG {t_kind} "
            f"integral={classes[t_kind].integral}",
            expected_defect=not formula_ok[t_kind],
        )
    if base_cls.integral:
        if base_cls.parity in ("even", "odd"):
            want = "odd" if base_cls.parity == "even" else "even"
            if classes["identity"].integral:
                add(
                    "cor-integral/e-case-parity-flip",
                    classes["identity"].parity == want,
                    witness=f"{classes['identity'].parity} != {want}",
                    expected_defect=not formula_ok["identity"],
                )
        if classes["S"].integral:
            add("cor-integral/S-case-even", classes["S"].parity == "even",
                witness=f"S case parity {classes['S'].parity}")
        if not e_in_S and classes["S_and_identity"].integral:
            add(
                "cor-integral/Se-case-odd",
                classes["S_and_identity"].parity == "odd",
                witness=f"S+e case parity {classes['S_and_identity'].parity}",
            )
    add(
        "cor-symmetric/e-case",
        classes["identity"].symmetric == base_cls.symmetric,
        witness="symmetry transfer failed for the matching case",
        expected_defect=not formula_ok["identity"],
    )
    add(
        "cor-symmetric/S-case",
        classes["S"].symmetric == base_cls.symmetric,
        witness="symmetry transfer failed for the S case",
    )
    if base_cls.symmetric and not e_in_S:
        add(
            "cor-symmetric/Se-case-nonsymmetric",
            not classes["S_and_identity"].symmetric,
            witness="S+e case unexpectedly symmetric",
        )
    return reports


def check_integrality_criteria(G: FiniteGroup, S: GroupSubset) -> list[VerificationReport]:
    """Prop. integral-MDCGs: integrality of X(G,S) against the set-theoretic
    criteria (gcd classes / Boolean algebra / Eulerian)."""
    inst = _inst(G, S)
    reports = []
    preds = algebra.subset_predicates(S)
    if G.is_abelian:
        spec = spectra.spectrum_exact_abelian(G, S, "difference", validate=False)
        integral = spectra.classify(spec).integral
        cyclic_group = len(G.abelian_decomposition or ()) <= 1
        if cyclic_group and G.identity not in S:
            ok_gcd, _ = algebra.is_union_of_gcd_classes(S)
            reports.append(
                VerificationReport(
                    "prop-integral-mdcgs/gcd", inst,
                    PASS if ok_gcd == integral else FAIL,
                    witness=None if ok_gcd == integral
                    else f"integral={integral}, gcd-union={ok_gcd}",
                )
            )
        ok_bool = algebra.boolean_algebra_member(G, S)
        reports.append(
            VerificationReport(
                "prop-integral-mdcgs/boolean", inst,
                PASS if ok_bool == integral else FAIL,
                witness=None if ok_bool == integral
                else f"integral={integral}, boolean={ok_bool}",
            )
        )
        reports.append(
            VerificationReport(
                "prop-integral-mdcgs/eulerian", inst,
                PASS if preds.eulerian == integral else FAIL,
                witness=None if preds.eulerian == integral
                else f"integral={integral}, eulerian={preds.eulerian}",
            )
        )
        return reports
    if not preds.normal:
        return [VerificationReport("prop-integral-mdcgs/eulerian", inst, SKIP,
                                   witness="S not normal")]
    graph = graphs.cayley(G, S, "difference")
    if not graph.undirected:
        return [VerificationReport("prop-integral-mdcgs/eulerian", inst, SKIP,
                                   witness="directed non-abelian instance")]
    spec = spectra.spectrum_dense_symmetric(graph)
    integral = spectra.classify(spec).integral
    reports.append(
        VerificationReport(
            "prop-integral-mdcgs/eulerian", inst,
            PASS if preds.eulerian == integral else FAIL,
            witness=None if preds.eulerian == integral
            else f"integral={integral}, eulerian={preds.eulerian}",
        )
    )
    return reports


# ---------------------------------------------------------------------------
# closed forms for unitary Cayley graphs of local rings


def check_local_ring_closed_forms(local: finring.LocalRing) -> list[VerificationReport]:
    """Closed-form spectra of the unitary Cayley (sum) graph of a local ring
    and of its six mirror graphs, against independently computed spectra.

    The two mirror rows with di-connection set R* with 0 are documented
    misprints and report xfail with the actual spectrum as witness.
    """
    r, m = local.size, local.maximal_ideal_size
    R = finring.artin_product([local])
    G = finring.additive_group(R)
    U = finring.units(R)
    inst = f"(R={local.label}, r={r}, m={m})"
    reports = []

    base_graph = graphs.cayley(G, U, "difference")
    dense = spectra.spectrum_dense_symmetric(base_graph)
    formula = spectra.local_ring_unitary_spectrum(r, m, "difference")
    ok = spectra.isospectral(dense, formula)
    reports.append(
        VerificationReport(
            "eq-spec-GR-local", inst, PASS if ok else FAIL,
            witness=None if ok else f"dense {dense} vs formula {formula}",
        )
    )
    if r % 2 == 0:
        same = base_graph == graphs.cayley(G, U, "sum")
        reports.append(
            VerificationReport(
                "even-local-sum-graph-equal", inst, PASS if same else FAIL,
                witness=None if same else "X and X+ differ for an even local ring",
            )
        )
        return reports

    sum_graph = graphs.cayley(G, U, "sum")
    dense_sum = spectra.spectrum_dense_symmetric(sum_graph)
    formula_sum = spectra.local_ring_unitary_spectrum(r, m, "sum")
    ok = spectra.isospectral(dense_sum, formula_sum)
    reports.append(
        VerificationReport(
            "eq-spec-GR+-local", inst, PASS if ok else FAIL,
            witness=None if ok else f"dense {dense_sum} vs formula {formula_sum}",
        )
    )

    for kind in KINDS:
        for t_kind in T_KINDS:
            T = t_subset(G, U, t_kind)
            actual = mdcg_direct_spectrum(G, U, T, kind)
            printed = spectra.mdcg_local_ring_spectrum(r, m, t_kind, kind)
            equal = spectra.isospectral(actual, printed)
            claim = f"cor-spec-GRR/{t_kind}/{kind}"
            if equal:
                outcome = PASS if t_kind != "S_and_identity" else FAIL
                witness = None if outcome == PASS else "misprinted row unexpectedly matches"
                reports.append(VerificationReport(claim, inst, outcome, witness))
            elif t_kind == "S_and_identity":
                reports.append(
                    VerificationReport(
                        claim, inst, XFAIL,
                        witness=f"actual {actual} vs printed {printed}; " + ERRATUM_CORO_SE,
                    )
                )
            else:
                reports.append(
                    VerificationReport(
                        claim, inst, FAIL,
                        witness=f"actual {actual} vs printed {printed}",
                    )
                )
    return reports


# ---------------------------------------------------------------------------
# even/odd isospectral pairs over rings (Prop. isosp-R, Thm. main)


@dataclass(frozen=True)
class EvenOddPairResult:
    ring_label: str
    even_graphs: tuple[Graph, Graph]
    even_spectrum: spectra.Spectrum
    odd_graphs: tuple[Graph, Graph]
    odd_spectrum_difference: spectra.Spectrum
    odd_spectrum_sum: spectra.Spectrum
    zero_case_spectrum: spectra.Spectrum
    reports: tuple[VerificationReport, ...] = field(default_factory=tuple)

    @property
    def certified(self) -> bool:
        return all(r.ok for r in self.reports)


def build_even_odd_pair(R: FiniteRing) -> EvenOddPairResult:
    """The even and odd mirror pairs of a ring with an even local factor of
    size 2m and an odd local factor.

    The even pair certifies fully.  The printed claim that the odd pair
    (di-connection set R* with 0) is isospectral is a documented erratum:
    both graphs are integral, odd and non-symmetric, but their spectra
    differ; the certification records this as an expected failure.
    """
    has_even = any(f.size == 2 * f.maximal_ideal_size for f in R.factors)
    has_odd = any(f.size % 2 == 1 for f in R.factors)
    if not (has_even and has_odd):
        raise RingError(
            "hypothesis violation: need a local factor with r = 2m and an odd factor"
        )
    G = finring.additive_group(R)
    S = finring.units(R)
    inst = f"(R={R.label})"
    reports: list[VerificationReport] = []

    def spec_for(T: GroupSubset, kind: str) -> spectra.Spectrum:
        return mdcg_direct_spectrum(G, S, T, kind)

    even_d = spec_for(S, "difference")
    even_s = spec_for(S, "sum")
    even_cls = spectra.classify(even_d)
    even_ok = (
        spectra.isospectral(even_d, even_s)
        and even_cls.integral
        and even_cls.parity == "even"
        and even_cls.symmetric
        and even_cls.bipartite_criterion
    )
    reports.append(
        VerificationReport(
            "prop-isosp-R/even-pair", inst, PASS if even_ok else FAIL,
            witness=None if even_ok else f"{even_d} vs {even_s} ({even_cls})",
        )
    )

    zero_d = spec_for(_identity_subset(G), "difference")
    zero_s = spec_for(_identity_subset(G), "sum")
    zero_ok = spectra.isospectral(zero_d, zero_s) and spectra.classify(zero_d).integral
    reports.append(
        VerificationReport(
            "prop-isosp-R/zero-pair", inst, PASS if zero_ok else FAIL,
            witness=None if zero_ok else f"{zero_d} vs {zero_s}",
        )
    )

    T_odd = S.with_identity()
    odd_d = spec_for(T_odd, "difference")
    odd_s = spec_for(T_odd, "sum")
    cls_d = spectra.classify(odd_d)
    cls_s = spectra.classify(odd_s)
    both_odd = (
        cls_d.integral and cls_s.integral
        and cls_d.parity == "odd" and cls_s.parity == "odd"
        and not cls_d.symmetric and not cls_s.symmetric
        and not cls_d.bipartite_criterion and not cls_s.bipartite_criterion
    )
    reports.append(
        VerificationReport(
            "thm-main/odd-classes", inst, PASS if both_odd else FAIL,
            witness=None if both_odd else f"{cls_d} / {cls_s}",
        )
    )
    odd_iso = spectra.isospectral(odd_d, odd_s)
    if odd_iso:
        expected = specbi_formula_valid(G, S, "S_and_identity", "sum")
        reports.append(
            VerificationReport(
                "prop-isosp-R/odd-pair", inst, PASS if expected else FAIL,
                witness=None if expected else "unexpectedly isospectral",
            )
        )
    else:
        reports.append(
            VerificationReport(
                "prop-isosp-R/odd-pair", inst, XFAIL,
                witness=f"MX {odd_d} vs MX+ {odd_s}; " + ERRATUM_SPECBI,
            )
        )

    T_even = S
    return EvenOddPairResult(
        ring_label=R.label,
        even_graphs=(
            graphs.mirror_dicayley(G, S, T_even, "difference"),
            graphs.mirror_dicayley(G, S, T_even, "sum"),
        ),
        even_spectrum=even_d,
        odd_graphs=(
            graphs.mirror_dicayley(G, S, T_odd, "difference"),
            graphs.mirror_dicayley(G, S, T_odd, "sum"),
        ),
        odd_spectrum_difference=odd_d,
        odd_spectrum_sum=odd_s,
        zero_case_spectrum=zero_d,
        reports=tuple(reports),
    )


def iterated_pairs(R: FiniteRing, n_max: int, vertex_cap: int = 4000) -> list[VerificationReport]:
    """Extend R by Z2 factors; each extension keeps an even integral
    isospectral mirror pair with di-connection set the units."""
    over = next((n for n in range(1, n_max + 1) if 2 * R.size * 2**n > vertex_cap), None)
    if over is not None:
        raise RingError(
            f"vertex cap {vertex_cap} exceeded at n={over} ({2 * R.size * 2**over} vertices)"
        )
    base = build_even_odd_pair(R)
    reports = [r for r in base.reports if r.claim_id.endswith("even-pair")]
    z2 = finring.zpk(2, 1)
    for n in range(1, n_max + 1):
        Rn = finring.artin_product(list(R.factors) + [z2] * n)
        G = finring.additive_group(Rn)
        S = finring.units(Rn)
        d = mdcg_direct_spectrum(G, S, S, "difference")
        s = mdcg_direct_spectrum(G, S, S, "sum")
        cls = spectra.classify(d)
        ok = (
            spectra.isospectral(d, s)
            and cls.integral
            and cls.parity == "even"
        )
        reports.append(
            VerificationReport(
                "cor-iterated", f"(R={Rn.label}, vertices={2 * Rn.size})",
                PASS if ok else FAIL,
                witness=None if ok else f"{d} vs {s} ({cls})",
            )
        )
    return reports


# ---------------------------------------------------------------------------
# randomized suite


_GROUP_POOL = (
    "cyclic:6", "cyclic:8", "cyclic:12", "cyclic:16", "cyclic:20",
    "prod:(cyclic:4,cyclic:3)", "prod:(cyclic:4,cyclic:4)",
    "prod:(cyclic:2,cyclic:2,cyclic:3)", "prod:(cyclic:6,cyclic:2)",
    "dihedral:4", "dihedral:5", "dicyclic:2", "dicyclic:3", "sym:3",
)


def random_instance(
    rng: np.random.Generator,
    require_abelian: bool = False,
    require_symmetric: bool = False,
    min_size: int = 1,
    exclude_identity: bool = True,
):
    """A random (G, S) drawn from a fixed small pool of groups."""
    pool = _GROUP_POOL
    while True:
        G = algebra.make_group(pool[int(rng.integers(0, len(pool)))])
        if require_abelian and not G.is_abelian:
            continue
        candidates = [g for g in G.elements() if g != G.identity or not exclude_identity]
        size = int(rng.integers(min_size, max(min_size + 1, len(candidates))))
        chosen = set(rng.choice(candidates, size=min(size, len(candidates)), replace=False).tolist())
        if require_symmetric:
            chosen |= {G.invert(g) for g in chosen}
        if len(chosen) < min_size:
            continue
        return G, GroupSubset(G, tuple(int(x) for x in sorted(chosen)))


def run_suite(seed: int = 7, trials: int = 20) -> list[VerificationReport]:
    """The default verification suite: fixed paper instances plus fuzzing."""
    rng = np.random.default_rng(seed)
    reports: list[VerificationReport] = []

    def tag(rs):
        for r in rs if isinstance(rs, list) else [rs]:
            reports.append(VerificationReport(r.claim_id, r.instance, r.outcome, r.witness, seed))

    z4 = algebra.cyclic(4)
    s13 = algebra.subset(z4, [1, 3])
    z16 = algebra.cyclic(16)
    s1 = algebra.subset(z16, [1, 2, 4, 5, 9, 10, 12, 13])
    z44 = algebra.direct_product(algebra.cyclic(4), algebra.cyclic(4))
    s2 = algebra.subset(
        z44, [z44_encode(a, b) for (a, b) in
              [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2), (3, 1), (3, 3)]]
    )
    R = finring.parse_ring("zpk:2^2*gf:3")
    G12 = finring.additive_group(R)
    units12 = finring.units(R)

    for kind in KINDS:
        tag(check_product_decompositions(z4, s13, kind))
        tag(check_spectrum_formulas(z4, s13, kind))
        tag(check_crossed_nonisospectrality(z4, s13, kind))
        tag(check_gen_isosp(z16, s1, z44, s2, kind))
    tag(check_isosp_transfer(z4, s13))
    tag(check_isosp_transfer(G12, units12))
    tag(check_parity_and_symmetry(z4, s13, "difference"))
    tag(check_integrality_criteria(z4, s13))

    pair = build_even_odd_pair(R)
    tag(list(pair.reports))
    tag(iterated_pairs(R, 2))
    tag(check_local_ring_closed_forms(finring.zpk(3, 1)))
    tag(check_local_ring_closed_forms(finring.zpk(3, 2)))
    tag(check_local_ring_closed_forms(finring.galois_ring(2, 2, 2)))

    for _ in range(trials):
        G, S = random_instance(rng)
        kind = "difference" if rng.integers(0, 2) == 0 else "sum"
        tag(check_cayley_structure(G, S, t_subset(G, S, "S_and_identity"), kind))
        tag(check_product_decompositions(G, S, kind))
        tag(check_parity_and_symmetry(G, S, "difference"))
        if G.is_abelian:
            tag(check_spectrum_formulas(G, S, kind))
            tag(check_isosp_transfer(G, S))
        if len(S) >= 2:
            tag(check_crossed_nonisospectrality(G, S, "difference"))
        tag(check_integrality_criteria(G, S))
    reports.sort(key=lambda r: (r.claim_id, r.instance))
    return reports


def z44_encode(a: int, b: int) -> int:
    return 4 * a + b
