"""Acceptance criteria, one test per criterion.

Tolerances: eigenvalue match 1e-8 after canonical sorting, integer snap
1e-6.  Each test prints a single status line (run pytest -s to see them).

Two printed sub-claims are mathematically unattainable and are asserted
verbatim under strict xfail markers with the witnesses recorded in
tests/test_errata.py: the closed forms for mirror graphs with
di-connection set R* with 0 (criterion 4), and the isospectrality of the
odd mirror pair (criterion 8).
"""

import math
import time

import numpy as np
import pytest

from spectra_forge import algebra as alg
from spectra_forge import finring as fr
from spectra_forge import graphs as gr
from spectra_forge import spectra as sp
from spectra_forge import theorems as th

from oracles import gp_integrality, moment_check, moments, random_instance

TOL = 1e-8


def spec(*pairs):
    return sp.Spectrum.from_pairs(pairs)


def report(criterion, started, detail):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {criterion}: PASS in {elapsed:.2f}s  [{detail}]")


def test_criterion_1_cay_z4_reproduction():
    t0 = time.perf_counter()
    z4 = alg.cyclic(4)
    S = alg.subset(z4, [1, 3])
    base = sp.spectrum_exact_abelian(S, "difference")
    assert sp.isospectral(base, spec((2, 1), (0, 2), (-2, 1)), TOL)

    printed = {
        "identity": spec((3, 1), (1, 3), (-1, 3), (-3, 1)),
        "S": spec((4, 1), (0, 6), (-4, 1)),
        "S_and_identity": spec((5, 1), (1, 2), (-1, 4), (-3, 1)),
    }
    want_parity = {"identity": "odd", "S": "even", "S_and_identity": "odd"}
    want_symmetric = {"identity": True, "S": True, "S_and_identity": False}
    for t_kind, want in printed.items():
        direct = th.spectrum_of(S, "difference", t_kind)
        assert sp.isospectral(direct, want, TOL), t_kind
        cls = sp.classify(direct)
        assert cls.integral and cls.parity == want_parity[t_kind]
        assert cls.symmetric == want_symmetric[t_kind]
    cls = sp.classify(base)
    assert cls.parity == "even" and cls.symmetric

    assert time.perf_counter() - t0 < 1.0
    report(1, t0, "base and three mirror spectra with parity/symmetry flags")


def test_criterion_2_section7_worked_example():
    t0 = time.perf_counter()
    z16 = alg.cyclic(16)
    S1 = alg.subset(z16, [1, 2, 4, 5, 9, 10, 12, 13])
    z44 = alg.direct_product(alg.cyclic(4), alg.cyclic(4))
    S2 = alg.subset(
        z44, [4 * a + b for (a, b) in
              [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2), (3, 1), (3, 3)]]
    )
    want_diff = spec((8, 1), (4j, 1), (-2 + 2j, 2), (0, 9), (-2 - 2j, 2), (-4j, 1))
    r8 = 2 * math.sqrt(2)
    want_sum = spec((8, 1), (4, 1), (r8, 2), (0, 9), (-r8, 2), (-4, 1))

    d1 = sp.spectrum_exact_abelian(S1, "difference")
    d2 = sp.spectrum_exact_abelian(S2, "difference")
    s1 = sp.spectrum_exact_abelian(S1, "sum")
    s2 = sp.spectrum_exact_abelian(S2, "sum")
    assert sp.isospectral(d1, want_diff, TOL) and sp.isospectral(d2, want_diff, TOL)
    assert sp.isospectral(s1, want_sum, TOL) and sp.isospectral(s2, want_sum, TOL)
    assert sp.isospectral(d1, d2, TOL) and sp.isospectral(s1, s2, TOL)
    assert not sp.isospectral(d1, s1, TOL) and not sp.isospectral(d2, s2, TOL)

    g1 = gr.cayley(S1, "difference")
    g2 = gr.cayley(S2, "difference")
    assert any(len(c) > 1 for c in gr.structure_report(g1).twin_classes)
    assert not any(len(c) > 1 for c in gr.structure_report(g2).twin_classes)
    twins = {frozenset(c) for c in gr.structure_report(g1).twin_classes if len(c) > 1}
    assert twins == {frozenset({v, (v + 8) % 16}) for v in range(8)}

    for g, d in ((g1, d1), (g2, d2)):
        assert moment_check(d, moments(g, 16), 8, 16)

    assert time.perf_counter() - t0 < 2.0
    report(2, t0, "character spectra, isospectral pairs, twins, 16 moments")


def test_criterion_3_z4z3_example():
    t0 = time.perf_counter()
    R = fr.parse_ring("zpk:2^2*gf:3")
    U = fr.units(R)
    base_d = sp.spectrum_exact_abelian(U, "difference")
    base_s = sp.spectrum_exact_abelian(U, "sum")
    want_base = spec((4, 1), (2, 2), (0, 6), (-2, 2), (-4, 1))
    assert sp.isospectral(base_d, want_base, TOL)
    assert sp.isospectral(base_s, want_base, TOL)

    printed = {
        "identity": spec((5, 1), (3, 3), (1, 8), (-1, 8), (-3, 3), (-5, 1)),
        "S": spec((8, 1), (4, 2), (0, 18), (-4, 2), (-8, 1)),
        "S_and_identity": spec((9, 1), (5, 2), (1, 6), (-3, 2), (-7, 1), (-1, 12)),
    }
    for t_kind, want in printed.items():
        direct = th.spectrum_of(U, "difference", t_kind)
        assert sp.isospectral(direct, want, TOL), t_kind
    # the sum versions also match for the identity and S cases
    for t_kind in ("identity", "S"):
        direct = th.spectrum_of(U, "sum", t_kind)
        assert sp.isospectral(direct, printed[t_kind], TOL)

    cls0 = sp.classify(printed["identity"])
    assert cls0.integral and cls0.parity == "odd"     # all printed values are odd
    clsS = sp.classify(printed["S"])
    assert clsS.parity == "even" and clsS.symmetric
    clsSe = sp.classify(printed["S_and_identity"])
    assert clsSe.parity == "odd" and not clsSe.symmetric

    assert time.perf_counter() - t0 < 1.0
    report(3, t0, "unitary pair and the three printed mirror spectra")


def _odd_local_rings_up_to_81():
    rings = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79):
        k = 1
        while p**k <= 81:
            rings.append(fr.zpk(p, k))
            k += 1
    for p, m in ((3, 2), (3, 3), (3, 4), (5, 2), (7, 2)):
        if p**m <= 81:
            rings.append(fr.gf(p, m))
    for p, s, t in ((3, 2, 2),):
        rings.append(fr.galois_ring(p, s, t))
    for p, m, t in ((3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (7, 1, 2), (3, 2, 2)):
        if p ** (m * t) <= 81:
            rings.append(fr.field_quotient(p, m, t))
    return rings


def _even_local_rings_up_to_81():
    rings = [fr.zpk(2, k) for k in range(1, 7)]
    rings += [fr.gf(2, m) for m in range(2, 7)]
    rings += [fr.galois_ring(2, 2, 2), fr.galois_ring(2, 2, 3), fr.galois_ring(2, 3, 2)]
    rings += [fr.field_quotient(2, 1, t) for t in range(2, 7)]
    rings += [fr.field_quotient(2, 2, 2), fr.field_quotient(2, 2, 3), fr.field_quotient(2, 3, 2)]
    return rings


def test_criterion_4_local_ring_formulas():
    t0 = time.perf_counter()
    odd = _odd_local_rings_up_to_81()
    even = _even_local_rings_up_to_81()
    assert {r.label for r in odd} >= {"Z9", "F27", "F3[x]/(x^2)"}
    assert any(r.label == "GR(4,2)" for r in even)

    counts = {"pass": 0, "xfail": 0}
    for ring in odd + even:
        for r in th.check_local_ring_closed_forms(ring):
            assert r.ok, (ring.label, r.claim_id, r.witness)
            if r.outcome in counts:
                counts[r.outcome] += 1
    # the two misprinted rows per odd ring are the only expected failures
    assert counts["xfail"] == 2 * len(odd)

    assert time.perf_counter() - t0 < 30.0
    report(
        4, t0,
        f"{len(odd)} odd and {len(even)} even local rings; "
        f"{counts['pass']} rows verified, {counts['xfail']} documented misprints",
    )


@pytest.mark.xfail(
    strict=True,
    reason="printed closed forms for the mirror graphs with di-connection set "
    "R* with 0 disagree with the actual spectra (both kinds); "
    "see tests/test_errata.py",
)
def test_criterion_4_printed_mirror_with_identity_rows():
    for ring in _odd_local_rings_up_to_81():
        R = fr.artin_product([ring])
        U = fr.units(R)
        r, m = ring.size, ring.maximal_ideal_size
        for kind in th.KINDS:
            actual = th.spectrum_of(U, kind, "S_and_identity")
            printed = sp.mdcg_local_ring_spectrum(r, m, "S_and_identity", kind)
            assert sp.isospectral(actual, printed, TOL), (ring.label, kind)


def test_criterion_5_dicyclic_instance():
    t0 = time.perf_counter()
    dic3 = alg.dicyclic(3)
    S = alg.subset(dic3, [2 * k for k in (1, 2, 4, 5)] + [3, 9])
    g = gr.cayley(S, "difference")
    got = sp.spectrum_dense_symmetric(g)
    n = 3
    want = spec((2 * n, 1), (2 * n - 4, 1), (0, 3 * n - 1), (-4, n - 1))
    assert sp.isospectral(got, want, TOL)
    assert time.perf_counter() - t0 < 1.0
    report(5, t0, "dense spectrum of the dicyclic instance")


def _prime_powers_up_to(limit):
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        q = p
        m = 1
        while q <= limit:
            out.append((p, m, q))
            q *= p
            m += 1
    return sorted(out, key=lambda x: x[2])


def test_criterion_6_gp_graphs():
    t0 = time.perf_counter()
    # gamma(3, 16) against the semiprimitive three-eigenvalue spectrum
    F16 = fr.artin_product([fr.gf(2, 4)])
    P3 = fr.power_residues(F16, 3)
    dense = sp.spectrum_dense_symmetric(gr.cayley(P3, "difference"))
    assert sp.isospectral(dense, spec((5, 1), (-3, 5), (1, 10)), TOL)

    # gamma(2, 9) against the spectrum of the Hamming graph H(2, 3)
    F9 = fr.artin_product([fr.gf(3, 2)])
    P2 = fr.power_residues(F9, 2)
    dense9 = sp.spectrum_dense_symmetric(gr.cayley(P2, "difference"))
    assert sp.isospectral(dense9, spec((4, 1), (1, 4), (-2, 4)), TOL)

    checked = 0
    for p, m, q in _prime_powers_up_to(64):
        field = fr.artin_product([fr.gf(p, m)])
        for k in range(1, q):
            if (q - 1) % k:
                continue
            Pk = fr.power_residues(field, k)
            s = sp.spectrum_exact_abelian(Pk, "difference")
            assert sp.classify(s).integral == gp_integrality(k, q), (k, q)
            checked += 1
    assert checked > 100

    assert time.perf_counter() - t0 < 10.0
    report(6, t0, f"semiprimitive and Hamming identifications; {checked} (k, q) pairs")


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    crossed = 0
    while crossed < 200:
        G, S = random_instance(rng, min_size=2)
        if len(S) < 2 or G.identity in S:
            continue
        kind = th.KINDS[crossed % 2]
        reports = th.check_crossed_nonisospectrality(S, kind)
        if any(r.outcome == "skip" for r in reports):
            continue
        for r in reports:
            assert r.outcome == "pass", (r.instance, r.witness)
        crossed += 1

    for i in range(100):
        G, S = random_instance(rng, exclude_identity=False)
        members = rng.choice(G.order, size=max(1, G.order // 3), replace=False)
        T = alg.subset(G, members.tolist())
        kind = th.KINDS[i % 2]
        [r] = th.check_cayley_structure(S, T, kind)
        assert r.outcome == "pass"
        for r in th.check_product_decompositions(S, kind):
            assert r.ok, (r.claim_id, r.witness)
            if kind == "difference":
                assert r.outcome == "pass", (r.claim_id, r.witness)

    for i in range(100):
        G, S = random_instance(rng, require_abelian=True)
        for r in th.check_spectrum_formulas(S, "difference"):
            assert r.outcome in ("pass", "skip"), (r.claim_id, r.witness)

    for _ in range(60):
        G, S = random_instance(rng)
        for r in th.check_integrality_criteria(S):
            assert r.outcome in ("pass", "skip"), (r.claim_id, r.witness)

    assert time.perf_counter() - t0 < 60.0
    report(7, t0, "200 crossed, 100 structure/product, 100 formula, 60 criteria runs")


def test_criterion_8_even_odd_pair_end_to_end():
    t0 = time.perf_counter()
    R = fr.parse_ring("zpk:2^2*gf:3")
    reports = th.build_even_odd_pair(R)
    assert all(r.ok for r in reports)

    U = fr.units(R)
    even = th.spectrum_of(U, "difference", "S")
    even_cls = sp.classify(even)
    assert even_cls.integral and even_cls.parity == "even"
    assert even_cls.symmetric and even_cls.bipartite_criterion
    for kind in th.KINDS:
        assert gr.structure_report(gr.mirror_dicayley(U, U, kind)).bipartite
    d = th.spectrum_of(U, "sum", "S")
    assert sp.isospectral(d, even, TOL)

    for s in (th.spectrum_of(U, kind, "S_and_identity") for kind in th.KINDS):
        cls = sp.classify(s)
        assert cls.integral and cls.parity == "odd"
        assert not cls.symmetric and not cls.bipartite_criterion
    for kind in th.KINDS:
        rep = gr.structure_report(gr.mirror_dicayley(U, U.with_identity(), kind))
        assert not rep.bipartite if not rep.directed and not rep.loop_vertices else True

    by_claim = {r.claim_id: r.outcome for r in reports}
    assert by_claim["prop-isosp-R/even-pair"] == "pass"
    assert by_claim["prop-isosp-R/zero-pair"] == "pass"
    assert by_claim["thm-main/odd-classes"] == "pass"
    assert by_claim["prop-isosp-R/odd-pair"] == "xfail"

    iterated = [r for r in th.iterated_pairs(R, 3) if r.claim_id == "cor-iterated"]
    assert [r.outcome for r in iterated] == ["pass"] * 3
    assert "vertices=192" in iterated[-1].instance

    assert time.perf_counter() - t0 < 20.0
    report(
        8, t0,
        "even pair certified bipartite/even/isospectral; odd graphs certified "
        "odd/non-symmetric (pair isospectrality is a documented erratum); "
        "iterated pairs to 192 vertices",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the printed odd mirror pair (di-connection set R* with 0) is not "
    "isospectral; both graphs are odd, integral and non-symmetric but their "
    "spectra differ; see tests/test_errata.py",
)
def test_criterion_8_odd_pair_isospectral():
    R = fr.parse_ring("zpk:2^2*gf:3")
    U = fr.units(R)
    assert sp.isospectral(
        th.spectrum_of(U, "difference", "S_and_identity"),
        th.spectrum_of(U, "sum", "S_and_identity"), TOL
    )
