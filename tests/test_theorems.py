"""The verification checks on their stated instances plus fuzz sweeps."""

import hashlib
import json

import numpy as np
import pytest

from spectra_forge import algebra as alg
from spectra_forge import finring as fr
from spectra_forge import graphs as gr
from spectra_forge import spectra as sp
from spectra_forge import theorems as th

from oracles import random_instance


def z4_s13():
    return alg.subset(alg.cyclic(4), [1, 3])


def z16_s1():
    return alg.subset(alg.cyclic(16), [1, 2, 4, 5, 9, 10, 12, 13])


def z44_s2():
    z44 = alg.direct_product(alg.cyclic(4), alg.cyclic(4))
    return alg.subset(
        z44, [4 * a + b for (a, b) in
              [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2), (3, 1), (3, 3)]]
    )


def dic3_s():
    g = alg.dicyclic(3)
    return alg.subset(g, [2 * k for k in (1, 2, 4, 5)] + [3, 9])


def assert_all_pass(reports):
    for r in reports:
        assert r.outcome == "pass", (r.claim_id, r.instance, r.witness)


def assert_all_ok(reports):
    for r in reports:
        assert r.ok, (r.claim_id, r.instance, r.witness)


def test_product_decompositions_examples():
    assert_all_pass(th.check_product_decompositions(z4_s13(), "difference"))
    assert_all_pass(th.check_product_decompositions(dic3_s(), "difference"))
    z6 = alg.cyclic(6)
    assert_all_pass(
        th.check_product_decompositions(alg.subset(z6, [1]), "difference")
    )


def test_product_decompositions_sum_kind_scope():
    z6 = alg.cyclic(6)
    reports = th.check_product_decompositions(alg.subset(z6, [1]), "sum")
    by_claim = {r.claim_id: r for r in reports}
    assert by_claim["thm-prods/direct"].outcome == "pass"
    assert by_claim["lem-strong-sum/first"].outcome == "pass"
    assert by_claim["strong-sum-eq-direct"].outcome == "pass"
    assert by_claim["thm-prods/cartesian"].outcome == "xfail"
    assert by_claim["thm-prods/strong"].outcome == "xfail"


def test_cayley_structure_examples_and_fuzz():
    s13 = z4_s13()
    [r] = th.check_cayley_structure(s13, alg.subset(s13.parent, [0]), "difference")
    assert r.outcome == "pass"
    R = fr.parse_ring("zpk:2^2*gf:3")
    U = fr.units(R)
    for kind in th.KINDS:
        [r] = th.check_cayley_structure(U, U.with_identity(), kind)
        assert r.outcome == "pass"
    rng = np.random.default_rng(31)
    for _ in range(50):
        Gx, Sx = random_instance(rng, exclude_identity=False)
        members = rng.choice(Gx.order, size=max(1, Gx.order // 3), replace=False)
        Tx = alg.subset(Gx, members.tolist())
        kind = th.KINDS[int(rng.integers(2))]
        [r] = th.check_cayley_structure(Sx, Tx, kind)
        assert r.outcome == "pass"


def test_spectrum_formulas_fixed_instances():
    assert_all_pass(th.check_spectrum_formulas(z4_s13(), "difference"))
    assert_all_pass(th.check_spectrum_formulas(z16_s1(), "difference"))
    assert_all_ok(th.check_spectrum_formulas(z16_s1(), "sum"))


def test_spectrum_formulas_difference_fuzz():
    rng = np.random.default_rng(32)
    for _ in range(40):
        _, S = random_instance(rng, require_abelian=True, exclude_identity=False)
        for r in th.check_spectrum_formulas(S, "difference"):
            # identity-in-S instances skip the S-with-identity family
            assert r.outcome in ("pass", "skip"), (r.claim_id, r.instance, r.witness)


def test_spectrum_formulas_nonabelian_symmetric():
    assert_all_pass(th.check_spectrum_formulas(dic3_s(), "difference"))


def test_crossed_nonisospectrality():
    for kind in th.KINDS:
        reports = th.check_crossed_nonisospectrality(z4_s13(), kind)
        assert len(reports) == 3
        assert_all_pass(reports)
    R = fr.parse_ring("zpk:2^2*gf:3")
    assert_all_pass(
        th.check_crossed_nonisospectrality(fr.units(R), "difference")
    )
    z4 = alg.cyclic(4)
    small = th.check_crossed_nonisospectrality(alg.subset(z4, [1]), "difference")
    assert small[0].outcome == "skip"


def test_crossed_nonisospectrality_fuzz():
    rng = np.random.default_rng(33)
    count = 0
    while count < 60:
        G, S = random_instance(rng, min_size=2)
        if len(S) < 2 or G.identity in S:
            continue
        count += 1
        kind = th.KINDS[int(rng.integers(2))]
        for r in th.check_crossed_nonisospectrality(S, kind):
            assert r.outcome in ("pass", "skip"), (r.instance, r.witness)


def test_isosp_transfer_instances():
    # Z4 x Z3 units: the base pair is isospectral
    R = fr.parse_ring("zpk:2^2*gf:3")
    U = fr.units(R)
    reports = {r.claim_id: r for r in th.check_isosp_transfer(U)}
    assert reports["thm-isosp-XX+/identity"].outcome == "pass"
    assert reports["thm-isosp-XX+/S"].outcome == "pass"
    assert reports["thm-isosp-XX+/S_and_identity"].outcome == "xfail"

    # Z3 with units: base pair is NOT isospectral, no mirror pair may be
    z3 = alg.cyclic(3)
    assert_all_pass(th.check_isosp_transfer(alg.subset(z3, [1, 2])))

    # directed base: spectra differ trivially (complex vs real)
    assert_all_pass(th.check_isosp_transfer(z16_s1()))


def test_gen_isosp_section7_example():
    s1, s2 = z16_s1(), z44_s2()
    for kind in th.KINDS:
        assert_all_pass(th.check_gen_isosp(s1, s2, kind))
    # twin classes separate the two graphs
    rep1 = gr.structure_report(gr.cayley(s1, "difference"))
    rep2 = gr.structure_report(gr.cayley(s2, "difference"))
    assert any(len(c) > 1 for c in rep1.twin_classes)
    assert not any(len(c) > 1 for c in rep2.twin_classes)

    # same instance twice: trivially isospectral
    assert_all_pass(th.check_gen_isosp(s1, s1, "difference"))
    # different orders: not isospectral anywhere
    assert_all_pass(
        th.check_gen_isosp(z4_s13(), alg.subset(alg.cyclic(6), [1, 5]), "difference")
    )


def test_gen_isosp_outside_the_sum_formula_domain_is_the_erratum():
    # X+(Z5, {1, 2}) and X+(Z5, {1, 4}) are isospectral, but {1, 2} != -{1, 2}
    # and is no union of cosets of 2G = Z5, so the printed sum-kind mirror
    # formula, on which the transfer rests, fails for T = e and T = S u e
    S1, S2 = alg.subset(alg.cyclic(5), [1, 2]), alg.subset(alg.cyclic(5), [1, 4])
    assert not th.specbi_formula_valid(S1, "identity", "sum")
    reports = {r.claim_id: r for r in th.check_gen_isosp(S1, S2, "sum")}
    assert reports["thm-gen-isosp/S"].outcome == "pass"
    for t_kind in ("identity", "S_and_identity"):
        r = reports[f"thm-gen-isosp/{t_kind}"]
        assert r.outcome == "xfail", r
        assert r.witness == ("base isospectral=True, MDCG isospectral=False; "
                             + th.ERRATUM_SPECBI)
    # the difference kind has no erratum, and there the transfer holds
    assert_all_pass(th.check_gen_isosp(S1, S2, "difference"))


def test_gen_isosp_fails_a_mismatch_inside_the_domain(monkeypatch):
    S1, S2 = alg.subset(alg.cyclic(5), [1, 2]), alg.subset(alg.cyclic(5), [1, 4])
    monkeypatch.setattr(th, "specbi_formula_valid", lambda S, t_kind, kind: True)
    outcomes = {r.claim_id: r.outcome for r in th.check_gen_isosp(S1, S2, "sum")}
    assert outcomes["thm-gen-isosp/identity"] == outcomes["thm-gen-isosp/S_and_identity"] == "fail"


def test_parity_and_symmetry_instances():
    assert_all_pass(th.check_parity_and_symmetry(z4_s13(), "difference"))

    # generalized Paley (3, 16): integral base
    F16 = fr.artin_product([fr.gf(2, 4)])
    P3 = fr.power_residues(F16, 3)
    assert_all_pass(th.check_parity_and_symmetry(P3, "difference"))

    # C5: golden-ratio eigenvalues, nothing integral anywhere
    z5 = alg.cyclic(5)
    reports = th.check_parity_and_symmetry(alg.subset(z5, [1, 4]), "difference")
    assert_all_pass(reports)
    base = sp.spectrum_exact_abelian(alg.subset(z5, [1, 4]), "difference")
    assert not sp.classify(base).integral


def test_parity_and_symmetry_fuzz():
    rng = np.random.default_rng(34)
    for _ in range(30):
        _, S = random_instance(rng)
        assert_all_ok(th.check_parity_and_symmetry(S, "difference"))
        _, S2 = random_instance(rng, require_symmetric=True)
        assert_all_ok(th.check_parity_and_symmetry(S2, "sum"))


def test_integrality_criteria_sweeps():
    rng = np.random.default_rng(35)
    # cyclic groups up to order 40
    for n in (8, 12, 15, 21, 40):
        G = alg.cyclic(n)
        for _ in range(10):
            members = rng.choice(np.arange(1, n), size=int(rng.integers(1, n - 1)),
                                 replace=False)
            assert_all_pass(th.check_integrality_criteria(alg.subset(G, members.tolist())))
    # abelian groups up to order 48
    for G in (alg.direct_product(alg.cyclic(4), alg.cyclic(4)),
              alg.direct_product(alg.cyclic(6), alg.cyclic(2)),
              alg.direct_product(alg.cyclic(4), alg.cyclic(3), alg.cyclic(4))):
        for _ in range(10):
            members = rng.choice(np.arange(1, G.order),
                                 size=int(rng.integers(1, G.order - 1)), replace=False)
            assert_all_pass(th.check_integrality_criteria(alg.subset(G, members.tolist())))
    # non-abelian: normal symmetric subsets of Dic3, D4 and S3
    for G in (alg.dicyclic(3), alg.dihedral(4), alg.symmetric(3)):
        for _ in range(20):
            members = set(rng.choice(np.arange(1, G.order),
                                     size=int(rng.integers(1, G.order - 1)),
                                     replace=False).tolist())
            op, inv, closed = G.op_table, G.inv_table, set()
            for g in members:
                for x in (int(g), int(inv[g])):
                    for h in G.elements():
                        closed.add(int(op[op[h, x], inv[h]]))
            S = alg.subset(G, sorted(closed))
            assert alg.is_normal(S)
            assert set(S) == {int(inv[s]) for s in S}      # symmetric
            assert_all_pass(th.check_integrality_criteria(S))


def test_integrality_criteria_walk_the_closure_once(monkeypatch):
    # the three criteria share one co-generation walk, and a skipped
    # instance (not normal, or no exact route) takes none
    walks = []
    closure = alg.cogeneration_gap
    monkeypatch.setattr(alg, "cogeneration_gap", lambda S: walks.append(S) or closure(S))
    rng = np.random.default_rng(7)
    pool = {}
    skipped = 0
    for _ in range(60):
        S = th.random_instance(rng, pool)
        walks.clear()
        reports = th.check_integrality_criteria(S)
        decided = reports[0].outcome != "skip"
        assert len(walks) == int(decided), (S.parent.label, S.members)
        skipped += not decided
    assert skipped


def test_inversion_trivial_matches_the_inverse_table():
    for desc in th._GROUP_POOL + ("cyclic:1", "cyclic:2", "dihedral:2", "sym:2",
                                  "prod:(cyclic:2,cyclic:2,cyclic:2)"):
        G = alg.make_group(desc)
        assert th._inversion_trivial(G) == np.array_equal(G.inv_table, np.arange(G.order)), desc


def test_local_ring_closed_forms_z3():
    reports = th.check_local_ring_closed_forms(fr.zpk(3, 1))
    by_claim = {r.claim_id: r.outcome for r in reports}
    assert by_claim["eq-spec-GR-local"] == "pass"
    assert by_claim["eq-spec-GR+-local"] == "pass"
    assert by_claim["cor-spec-GRR/identity/difference"] == "pass"
    assert by_claim["cor-spec-GRR/S/sum"] == "pass"
    assert by_claim["cor-spec-GRR/S_and_identity/difference"] == "xfail"
    assert by_claim["cor-spec-GRR/S_and_identity/sum"] == "xfail"


def test_local_ring_closed_forms_even_ring():
    reports = th.check_local_ring_closed_forms(fr.galois_ring(2, 2, 2))
    by_claim = {r.claim_id: r.outcome for r in reports}
    assert by_claim["eq-spec-GR-local"] == "pass"
    assert by_claim["even-local-sum-graph-equal"] == "pass"


def test_build_even_odd_pair():
    R = fr.parse_ring("zpk:2^2*gf:3")
    reports = th.build_even_odd_pair(R)
    assert all(isinstance(r, th.VerificationReport) and r.ok for r in reports)
    assert [r.claim_id for r in reports] == [
        "prop-isosp-R/even-pair", "prop-isosp-R/zero-pair",
        "thm-main/odd-classes", "prop-isosp-R/odd-pair"]
    U = fr.units(R)
    even = th.spectrum_of(U, "difference", "S")
    odd = th.spectrum_of(U, "difference", "S_and_identity")
    assert sp.isospectral(
        even, sp.Spectrum.from_pairs([(8, 1), (4, 2), (0, 18), (-4, 2), (-8, 1)]),
    )
    assert sp.isospectral(
        odd, sp.Spectrum.from_pairs([(9, 1), (5, 2), (1, 6), (-3, 2), (-7, 1), (-1, 12)]),
    )
    assert sp.isospectral(
        th.spectrum_of(U, "difference", "identity"),
        sp.Spectrum.from_pairs([(5, 1), (3, 3), (1, 8), (-1, 8), (-3, 3), (-5, 1)]),
    )
    ec = sp.classify(even)
    assert ec.parity == "even" and ec.symmetric and ec.bipartite_criterion
    oc = sp.classify(odd)
    assert oc.parity == "odd" and not oc.symmetric and not oc.bipartite_criterion
    # the two graphs of each pair really are different graphs
    for T in (U, U.with_identity()):
        assert gr.mirror_dicayley(U, T, "difference") != gr.mirror_dicayley(U, T, "sum")
    # equivalent rings from the other local families qualify too
    for desc in ("quot:2^1:2*gf:3", "zpk:2^3*zpk:3^2"):
        assert all(r.ok for r in th.build_even_odd_pair(fr.parse_ring(desc)))


def test_odd_pair_fails_where_the_erratum_does_not_apply(monkeypatch):
    # the odd pair's spectra differ; that is the documented erratum only
    # where the printed sum-kind formula is invalid
    monkeypatch.setattr(th, "specbi_formula_valid", lambda S, t_kind, kind: True)
    odd = th.build_even_odd_pair(fr.parse_ring("zpk:2^2*gf:3"))[-1]
    assert (odd.claim_id, odd.outcome) == ("prop-isosp-R/odd-pair", "fail")
    assert th.ERRATUM_SPECBI not in odd.witness


def test_build_even_odd_pair_hypothesis_violations():
    with pytest.raises(fr.RingError):
        th.build_even_odd_pair(fr.parse_ring("gf:3"))        # no even factor
    with pytest.raises(fr.RingError):
        th.build_even_odd_pair(fr.parse_ring("zpk:2^2"))     # no odd factor
    with pytest.raises(fr.RingError):
        # even factor present but not of the r = 2m form
        th.build_even_odd_pair(fr.parse_ring("gr:2^2:2*gf:3"))


def test_iterated_pairs():
    R = fr.parse_ring("zpk:2^2*gf:3")
    reports = th.iterated_pairs(R, 3)
    iterated = [r for r in reports if r.claim_id == "cor-iterated"]
    assert len(iterated) == 3
    assert all(r.outcome == "pass" for r in iterated)
    assert "vertices=192" in iterated[-1].instance
    for r in reports:     # as a library caller reads them: no run, so no seed
        data = json.loads(r.to_json())
        assert (data["claim"], data["outcome"]) == (r.claim_id, r.outcome)
        assert "seed" not in data
    with pytest.raises(fr.RingError):
        th.iterated_pairs(R, 9)


# sha256 of the JSON lines of the chain R x Z2^n up to 3072 vertices,
# recorded before the chain stopped building the zero and odd pairs
ITERATED_SHA256 = "cbb116a226b21758c3ab1724092758e0e4579be4d1d33cd4e38bfc2ce81a055b"


def test_iterated_pairs_output_pinned():
    reports = th.iterated_pairs(fr.parse_ring("zpk:2^2*gf:3"), 7)
    text = "\n".join(r.to_json() for r in reports) + "\n"
    assert [r.outcome for r in reports] == ["pass"] * 8
    assert hashlib.sha256(text.encode()).hexdigest() == ITERATED_SHA256


def test_units_built_once_so_their_spectra_are_shared(monkeypatch):
    R = fr.parse_ring("zpk:2^2*gf:3")
    G = fr.additive_group(R)
    assert fr.units(R) is fr.units(R)
    exact, computed = sp.spectrum_exact_abelian, []

    def counted(S, kind, t_kind=None):
        computed.append(S.parent)
        return exact(S, kind, t_kind)

    monkeypatch.setattr(sp, "spectrum_exact_abelian", counted)
    on_base, total = [], []
    for call in (lambda: th.check_isosp_transfer(fr.units(R)),
                 lambda: th.build_even_odd_pair(R),
                 lambda: th.iterated_pairs(R, 2)):
        computed.clear()
        call()
        on_base.append(sum(g is G for g in computed))
        total.append(len(computed))
    assert on_base == [8, 0, 0]    # the pair and the chain reuse the transfer's spectra
    assert total == [8, 0, 4]      # the chain computes only its two extensions


def test_iterated_pairs_builds_only_the_even_pairs(monkeypatch):
    exact, kinds = sp.spectrum_exact_abelian, []

    def counted(S, kind, t_kind=None):
        kinds.append((S.parent.order, kind, t_kind))
        return exact(S, kind, t_kind)

    monkeypatch.setattr(sp, "spectrum_exact_abelian", counted)
    reports = th.iterated_pairs(fr.parse_ring("gf:3*zpk:2^2"), 2)
    assert [r.claim_id for r in reports] == ["prop-isosp-R/even-pair"] + ["cor-iterated"] * 2
    # MX and MX+ with T = S, over R and each extension: no zero or odd pair
    assert sorted(kinds) == [(n, k, "S") for n in (12, 24, 48) for k in ("difference", "sum")]


def test_iterated_pairs_cap_checked_before_any_work(monkeypatch):
    def no_groups(R):
        raise AssertionError("a group was built before the vertex cap check")

    monkeypatch.setattr(fr, "additive_group", no_groups)
    R = fr.parse_ring("zpk:2^2*gf:3")
    # 2 * 12 * 2**8 = 6144 vertices is the first step over the default cap
    with pytest.raises(fr.RingError, match="n=8"):
        th.iterated_pairs(R, 9)


def _even_odd_cayley_over_doubled_group(G, S):
    """The S-case and S-with-identity mirror graphs as Cayley graphs over
    G x Z2, with their parity certificates."""
    even = th.spectrum_of(S, "difference", "S")
    odd = th.spectrum_of(S, "difference", "S_and_identity")
    if even is None:
        even = sp.spectrum_dense_symmetric(gr.mirror_dicayley(S, S, "difference"))
        odd = sp.spectrum_dense_symmetric(
            gr.mirror_dicayley(S, S.with_identity(), "difference")
        )
    return sp.classify(even), sp.classify(odd)


def test_even_and_odd_cayley_graphs_exist():
    # cyclic base
    s13 = z4_s13()
    even, odd = _even_odd_cayley_over_doubled_group(s13.parent, s13)
    assert even.integral and even.parity == "even"
    assert odd.integral and odd.parity == "odd"
    # non-cyclic abelian base: order-4 elements of Z4 x Z4 form a power-closed set
    z44 = alg.direct_product(alg.cyclic(4), alg.cyclic(4))
    order4 = alg.subset(z44, [g for g in z44.elements() if len(z44.powers(g)) == 4])
    assert alg.cogeneration_gap(order4) is None
    even, odd = _even_odd_cayley_over_doubled_group(z44, order4)
    assert even.parity == "even" and odd.parity == "odd"
    # non-abelian base: the dicyclic instance
    s = dic3_s()
    even, odd = _even_odd_cayley_over_doubled_group(s.parent, s)
    assert even.parity == "even" and odd.parity == "odd"


def test_run_suite_all_ok():
    reports = th.run_suite(seed=11, trials=8)
    assert reports
    bad = [r for r in reports if not r.ok]
    assert not bad, bad[:3]
    assert any(r.outcome == "xfail" for r in reports)


def test_spectrum_of_routes():
    S = z4_s13()
    assert th.spectrum_of(S, "difference") == sp.spectrum_exact_abelian(S, "difference")
    mirror = gr.mirror_dicayley(S, S.with_identity(), "sum")
    assert sp.isospectral(th.spectrum_of(S, "sum", "S_and_identity"),
                          sp.spectrum_dense_symmetric(mirror))
    s3 = alg.symmetric(3)
    transpositions = alg.subset(s3, [g for g in s3.elements() if len(s3.powers(g)) == 2])
    assert sp.isospectral(th.spectrum_of(transpositions, "difference"),
                          sp.spectrum_dense_symmetric(gr.cayley(transpositions, "difference")))
    # a directed Cayley graph of a non-abelian group has no route
    three_cycle = alg.subset(s3, [g for g in s3.elements() if len(s3.powers(g)) == 3][:1])
    assert th.spectrum_of(three_cycle, "difference") is None
    assert th.spectrum_of(three_cycle, "difference", "S") is None


def test_spectrum_of_routes_non_abelian_difference_graphs_through_blocks(monkeypatch):
    def no_dense(graph):
        raise AssertionError("dense route taken")

    monkeypatch.setattr(sp, "spectrum_dense_symmetric", no_dense)
    for desc, members in (("dihedral:5", [1, 2, 8]), ("dicyclic:3", [1, 7, 2, 10]),
                          ("sym:4", [1, 2, 6, 23])):
        S = alg.subset(alg.make_group(desc), members)
        assert alg.is_inverse_closed(S)
        for t_kind in (None, *th.T_KINDS):
            size = S.parent.order * (1 if t_kind is None else 2)
            assert th.spectrum_of(S, "difference", t_kind).size == size
    # the sum kind and non-abelian products keep the dense route
    S = alg.subset(alg.dihedral(5), [1, 3, 5, 7, 9])      # the reflections: undirected X+
    with pytest.raises(AssertionError, match="dense route"):
        th.spectrum_of(S, "sum")
    S = alg.subset(alg.make_group("prod:(sym:3,cyclic:2)"), [1, 2])
    with pytest.raises(AssertionError, match="dense route"):
        th.spectrum_of(S, "difference")
    # a directed graph has no route, and no graph is built to find that out:
    # the difference kind needs S = S^-1, the sum kind S closed under conjugation
    monkeypatch.setattr(gr, "cayley", no_dense)
    monkeypatch.setattr(gr, "mirror_dicayley", no_dense)
    for S, kind in ((alg.subset(alg.dihedral(5), [2]), "difference"),
                    (alg.subset(alg.dihedral(5), [1]), "sum"),
                    (alg.subset(alg.symmetric(5), [1]), "sum")):
        for t_kind in (None, *th.T_KINDS):
            assert th.spectrum_of(S, kind, t_kind) is None


def test_block_route_builds_no_table():
    G = alg.make_group("dihedral:2000")
    S = alg.subset(G, [1, 3, 2, 3998])      # b, ab, a and a^-1
    spec = th.spectrum_of(S, "difference")
    mirror = th.spectrum_of(S, "difference", "S_and_identity")
    assert callable(G._table)
    assert spec.size == 4000 and mirror.size == 8000
    assert sp.classify(spec).principal_eigenvalue == pytest.approx(4)


def test_dense_route_cap_checked_before_any_work(monkeypatch):
    def no_graphs(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(gr, "cayley", no_graphs)
    monkeypatch.setattr(gr, "mirror_dicayley", no_graphs)
    # the sum kind over D_n takes the dense route: 4002 vertices, and 2 * 2002 for a mirror
    S = alg.subset(alg.dihedral(2001), [1])
    with pytest.raises(alg.GroupError, match="4002 vertices exceed cap 4000"):
        th.spectrum_of(S, "sum")
    assert callable(S.parent._table)
    S = alg.subset(alg.dihedral(1001), [1])
    with pytest.raises(alg.GroupError, match="4004 vertices exceed cap 4000"):
        th.spectrum_of(S, "sum", "S")
    assert callable(S.parent._table)
    # at the cap the route goes on to decide from S whether X+ is undirected
    def normality_decided(S):
        raise AssertionError("normality decided")

    monkeypatch.setattr(alg, "is_normal", normality_decided)
    with pytest.raises(AssertionError, match="normality decided"):
        th.spectrum_of(alg.subset(alg.dihedral(2000), [1]), "sum")


def test_spectrum_of_rejects_a_bad_kind_or_t_kind_every_time():
    # decided before the memo and the route: over S3 the route of a directed
    # instance answers None, which must not be stored under a bad key
    s3 = alg.symmetric(3)
    three_cycle = alg.subset(s3, [g for g in s3.elements() if len(s3.powers(g)) == 3][:1])
    for S in (z4_s13(), three_cycle):
        # a subset is not a T kind: T comes from S and its kind alone
        for kind, t_kind in (("product", None), ("difference", "T"), ("sum", S)):
            for _ in range(2):
                with pytest.raises(sp.SpectrumError, match="bad"):
                    th.spectrum_of(S, kind, t_kind)
        assert not S.__dict__.get("_spectra")


def test_mirror_spectra_take_rho_T_from_rho_S(monkeypatch):
    def no_doubled_group(G):
        raise AssertionError("G x Z2 built")

    monkeypatch.setattr(th, "product_group_with_z2", no_doubled_group)
    U = fr.units(fr.parse_ring("zpk:2^2*gf:3"))
    for S in (z4_s13(), alg.subset(U.parent, U.members)):     # fresh subsets, empty memos
        for kind in th.KINDS:
            for t_kind in (None, *th.T_KINDS):
                size = S.parent.order * (1 if t_kind is None else 2)
                assert th.spectrum_of(S, kind, t_kind).size == size
    # D5 evaluates its irreducibles once, at S's members, for the base and all three T
    G, calls = alg.dihedral(5), []
    irreducibles = G.irreducibles
    object.__setattr__(G, "irreducibles", lambda g: calls.append(g.tolist()) or irreducibles(g))
    S = alg.subset(G, [1, 2, 8])
    for t_kind in (None, *th.T_KINDS):
        assert th.spectrum_of(S, "difference", t_kind) is not None
    assert calls == [[1, 2, 8]]


def _two_g_coset_unions(G):
    """Every non-empty union of non-trivial cosets of 2G in abelian G."""
    op = G.op_table
    two_g = sorted({int(op[g, g]) for g in G.elements()})
    cosets = sorted({tuple(sorted(int(op[x, h]) for h in two_g)) for x in G.elements()})
    cosets = [c for c in cosets if G.identity not in c]
    for pick in range(1, 2 ** len(cosets)):
        yield alg.subset(G, [g for k, c in enumerate(cosets) if pick >> k & 1 for g in c])


def test_unions_of_2g_cosets_have_equal_sum_and_difference_graphs():
    # g + h and g - h differ by 2h in 2G, so X+ = X; such S is also -S, and
    # chi(S) = 0 for every non-real chi, so the sum-kind formulas hold
    checked = 0
    for desc in th._GROUP_POOL:
        G = alg.make_group(desc)
        if not G.is_abelian:
            continue
        for S in _two_g_coset_unions(G):
            assert gr.cayley(S, "sum") == gr.cayley(S, "difference"), (desc, S.members)
            assert th.specbi_formula_valid(S, "S_and_identity", "sum"), (desc, S.members)
            assert not [r for r in th.check_isosp_transfer(S) if r.outcome == "fail"]
            checked += 1
    # six cyclic groups with one non-trivial coset, three with three cosets and 7 unions
    assert checked == 6 * 1 + 3 * 7


def test_mirror_connection_set_rejects_a_T_over_another_group():
    # Z2 x Z2 has Z4's order but is another group: rejected on every call,
    # also after a call with T's members over Z4
    z4, z2z2 = alg.cyclic(4), alg.make_group("prod:(cyclic:2,cyclic:2)")
    S, T = alg.subset(z4, [1, 3]), alg.subset(z2z2, [1, 2])
    for _ in range(2):
        with pytest.raises(alg.GroupError, match="subset over a different group"):
            th.mdcg_connection_subset(S, T)
    th.mdcg_connection_subset(S, alg.subset(z4, [1, 2]))
    with pytest.raises(alg.GroupError, match="subset over a different group"):
        th.mdcg_connection_subset(S, T)


def test_product_with_z2_is_cached_on_the_group():
    z4 = z4_s13().parent
    Gp = th.product_group_with_z2(z4)
    assert Gp is th.product_group_with_z2(z4)
    assert Gp == alg.direct_product(alg.cyclic(4), alg.cyclic(2))
    assert th.product_group_with_z2(alg.cyclic(4)) is not Gp


def test_spectrum_of_is_memoized_on_the_connection_set():
    S = z4_s13()
    z4 = S.parent
    fresh = alg.subset(z4, S.members)     # same instance, empty memo
    cases = [(kind, t_kind) for kind in th.KINDS for t_kind in (None, *th.T_KINDS)]
    specs = [th.spectrum_of(S, kind, t_kind) for kind, t_kind in cases]
    for (kind, t_kind), spec in zip(cases, specs):
        # a repeat is the same object; each (kind, t_kind) has its own entry
        assert th.spectrum_of(S, kind, t_kind) is spec
        assert spec == th.spectrum_of(fresh, kind, t_kind)
    assert all(a is not b for i, a in enumerate(specs) for b in specs[i + 1:])
    assert list(S.__dict__["_spectra"]) == cases
    # a bad kind or T kind still raises, every time, and stores nothing
    for _ in range(2):
        with pytest.raises(sp.SpectrumError):
            th.spectrum_of(S, "difference", "T")
        with pytest.raises(sp.SpectrumError):
            th.spectrum_of(S, "product")
    assert list(S.__dict__["_spectra"]) == cases
    # the no-route answer of a directed non-abelian instance is kept too
    s3 = alg.symmetric(3)
    three_cycle = alg.subset(s3, [g for g in s3.elements() if len(s3.powers(g)) == 3][:1])
    assert th.spectrum_of(three_cycle, "difference") is None
    assert th.spectrum_of(three_cycle, "difference") is None


def test_character_data_is_cached_read_only_on_the_group():
    z4 = z4_s13().parent
    conj = alg.conjugate_characters(z4)
    assert conj.tolist() == [0, 3, 2, 1]
    assert alg.conjugate_characters(z4) is conj
    with pytest.raises(ValueError):
        conj[0] = 1
    assert alg.conjugate_characters(alg.cyclic(1)).tolist() == [0]
    # G x Z2 keeps its own conjugate index
    Gp = th.product_group_with_z2(z4)
    conj_p = alg.conjugate_characters(Gp)
    assert alg.conjugate_characters(Gp) is conj_p
    assert conj_p.shape == (8,) and not conj_p.flags.writeable
    # a non-abelian group raises on every call
    for _ in range(2):
        with pytest.raises(alg.GroupError):
            alg.conjugate_characters(alg.dihedral(3))


def test_random_instance_makes_the_reference_draws():
    # the test generator at its defaults draws the same (G, S); the pool
    # hands every later draw of a descriptor the group built for it first
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    pool = {}
    for _ in range(60):
        S = th.random_instance(rng, pool)
        G, (G_ref, S_ref) = S.parent, random_instance(ref)
        assert G == G_ref and S.members == S_ref.members
        assert S.members and G.identity not in S.members
        assert any(G is built for built in pool.values())
    assert set(pool) <= set(th._GROUP_POOL)
    assert rng.integers(1 << 30) == ref.integers(1 << 30)


def test_warm_caches_do_not_change_the_suite():
    # each run builds its own pool; within a run the trials reuse the pool
    # groups and their filled caches
    assert th.run_suite(seed=7, trials=30) == th.run_suite(seed=7, trials=30)
