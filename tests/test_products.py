"""The four named graph products and the 2-path."""

import numpy as np
import pytest

from spectra_forge import algebra as alg
from spectra_forge import graphs as gr
from spectra_forge import products as pr
from spectra_forge import spectra as sp
from spectra_forge import theorems as th

from oracles import random_instance, with_loops


def c4():
    z4 = alg.cyclic(4)
    return gr.cayley(alg.subset(z4, [1, 3]), "difference")


def test_cartesian_cube_like():
    g = pr.named_product(c4(), pr.path2(False), "cartesian")
    assert g.n == 8 and g.regular_degree == 3 and g.undirected
    with pytest.raises(gr.GraphError):
        pr.named_product(c4(), pr.path2(False), "lexicographic")


def test_direct_with_looped_path():
    gamma = c4()
    g = pr.named_product(gamma, pr.path2(True), "direct")
    # factor-major order: adjacency is kron(A, all-ones 2x2)
    A = gamma.adjacency
    assert np.array_equal(g.adjacency, np.kron(A, np.ones((2, 2), dtype=np.uint8)))
    # and with the path first it is the mirror-graph block layout
    g2 = pr.named_product(pr.path2(True), gamma, "direct")
    assert np.array_equal(g2.adjacency, np.block([[A, A], [A, A]]).astype(np.uint8))


def test_path2_spectra():
    assert sp.isospectral(
        sp.spectrum_dense_symmetric(pr.path2(False)), sp.Spectrum.from_values([1, -1])
    )
    assert sp.isospectral(
        sp.spectrum_dense_symmetric(pr.path2(True)), sp.Spectrum.from_values([2, 0])
    )
    assert gr.structure_report(pr.path2(False)).bipartite


def _transposed(graph, n1, n2):
    # reorder a product over (g1, g2) with |g1| = n1, |g2| = n2 from
    # factor-major to the swapped (g2, g1) factor-major order
    perm = [u * n2 + v for v in range(n2) for u in range(n1)]
    return graph.permuted(perm)


def test_commutativity_up_to_transposition():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = gr.Graph((rng.integers(0, 2, (4, 4))).astype(np.uint8))
        b = gr.Graph((rng.integers(0, 2, (3, 3))).astype(np.uint8))
        for kind in ("cartesian", "direct", "strong"):
            left = pr.named_product(a, b, kind)
            right = pr.named_product(b, a, kind)
            assert _transposed(right, 3, 4) == left


def test_strong_sum_not_commutative():
    a = pr.path2(False)
    b = c4()
    left = pr.named_product(a, b, "strong_sum")
    right = pr.named_product(b, a, "strong_sum")
    assert _transposed(right, 4, 2) != left


def test_associativity_exact():
    rng = np.random.default_rng(4)
    for kind in ("cartesian", "direct", "strong"):
        for _ in range(6):
            gs = [
                gr.Graph((rng.integers(0, 2, (n, n))).astype(np.uint8))
                for n in rng.integers(2, 5, 3)
            ]
            left = pr.named_product(pr.named_product(gs[0], gs[1], kind), gs[2], kind)
            right = pr.named_product(gs[0], pr.named_product(gs[1], gs[2], kind), kind)
            assert left == right


def test_thm_prods_difference_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        _, S = random_instance(rng, exclude_identity=False)
        for r in th.check_product_decompositions(S, "difference"):
            assert r.outcome == "pass", (r.claim_id, r.witness)


def test_thm_prods_sum_valid_rows_random():
    rng = np.random.default_rng(6)
    valid_always = {"thm-prods/direct", "lem-strong-sum/first", "strong-sum-eq-direct"}
    for _ in range(25):
        _, S = random_instance(rng, exclude_identity=False)
        for r in th.check_product_decompositions(S, "sum"):
            if r.claim_id in valid_always:
                assert r.outcome == "pass", (r.claim_id, r.witness)
            else:
                assert r.outcome in ("pass", "xfail"), (r.claim_id, r.witness)


def test_thm_prods_sum_exact_when_inversion_trivial():
    G = alg.direct_product(alg.cyclic(2), alg.cyclic(2), alg.cyclic(2))
    S = alg.subset(G, [1, 2, 4])
    for r in th.check_product_decompositions(S, "sum"):
        assert r.outcome == "pass", (r.claim_id, r.witness)


def test_remark_other_products():
    rng = np.random.default_rng(7)
    for _ in range(15):
        G, S = random_instance(rng)
        n = G.order
        for kind in ("difference", "sum"):
            gamma = gr.cayley(S, kind)
            # X x P2 = MX(G; empty, S), both kinds
            direct = pr.named_product(pr.path2(False), gamma, "direct")
            mx = gr.mirror_dicayley(alg.subset(G, []), S, kind)
            assert direct == mx
            # X box P2-looped adds exactly the loops of X box P2
            lhs = pr.named_product(gamma, pr.path2(True), "cartesian")
            rhs = with_loops(pr.named_product(gamma, pr.path2(False), "cartesian"))
            assert lhs == rhs
        # X strong P2-looped = looped MX(G;S,S u {e}), difference kind
        gamma = gr.cayley(S, "difference")
        lhs = pr.named_product(pr.path2(True), gamma, "strong")
        rhs = with_loops(
            gr.mirror_dicayley(S, S.with_identity(), "difference")
        )
        assert lhs == rhs
