"""Spectrum arithmetic, the LAPACK dense route and its Jacobi test oracle,
moments, and the closed forms."""

import math

import numpy as np
import pytest

from spectra_forge import algebra as alg
from spectra_forge import finring as fr
from spectra_forge import graphs as gr
from spectra_forge import spectra as sp
from spectra_forge import theorems as th

from oracles import (
    jacobi_eigenvalues,
    mdcg_field_rows,
    moment_check,
    moments,
    random_instance,
    unitary_field_rows,
)


def spec(*pairs):
    return sp.Spectrum.from_pairs(pairs)


def test_spectrum_merging_and_order():
    s = sp.Spectrum.from_values([2, 0, 0 + 1e-12j, -2, 2 + 1e-10])
    assert abs(s.entries[0][0] - 2) < 1e-9 and s.entries[0][1] == 2
    assert s.size == 5
    assert [m for _, m in s.entries] == [2, 2, 1]
    with pytest.raises(sp.SpectrumError):
        sp.Spectrum.from_values([])
    # a multiplicity that is not an integer is neither truncated nor divided by
    for pairs in ([(1, 0.5)], [(1, -0.5), (2, 1)], [(1, 2.5)], [(1, float("nan"))]):
        with pytest.raises(sp.SpectrumError):
            sp.Spectrum.from_pairs(pairs)
    assert sp.Spectrum.from_pairs([(1, 2.0)]) == spec((1, 2))


def test_spectrum_merging_does_not_chain():
    # 0 and 1.2e-8 are linked through 0.6e-8 but lie more than 1e-8 apart
    s = sp.Spectrum.from_values([0, 0.6e-8, 1.2e-8])
    assert s.size == 3 and len(s.entries) == 2
    assert s.entries == ((1.2e-8 + 0j, 1), (0.3e-8 + 0j, 2))
    # the same run, tighter than the tolerance, still merges whole
    assert len(sp.Spectrum.from_values([0, 0.4e-8, 0.8e-8]).entries) == 1


def test_isometries_do_not_merge_again():
    # the two entries of the split chain lie within 1e-8 of each other
    s = sp.Spectrum.from_values([0, 0.6e-8, 1.2e-8])
    assert len(s.negated().entries) == 2
    assert s.negated().negated() == s
    # the +-0 clean-up still holds, so CSV output never prints -0
    z = sp.Spectrum.from_values([0, 1])
    assert "-0" not in z.negated().to_csv()


def test_entry_order_ignores_rounding_noise():
    # real parts equal up to rounding noise sort by imaginary part, descending,
    # whichever sign the noise has
    for eps in (1e-15, -1e-15):
        s = sp.Spectrum.from_pairs([(4 + eps, 4), (4 - eps + 0.73j, 1)])
        assert str(s) == "{[4+0.73i]^1, [4]^4}"
        assert str(s.negated()) == "{[-4]^4, [-4-0.73i]^1}"


def test_dense_route_guards():
    with pytest.raises(sp.SpectrumError):
        sp.spectrum_dense_symmetric(gr.Graph(np.zeros((0, 0), dtype=np.uint8)))
    with pytest.raises(sp.SpectrumError):
        sp.spectrum_dense_symmetric(gr.Graph(np.array([[0, 1], [0, 0]])))


def test_spectrum_ops():
    s = spec((2, 1), (0, 2), (-2, 1))
    assert sp.Spectrum.from_pairs(s.entries + spec((0, 3)).entries).multiplicity_of(0) == 5
    assert s.negated() == s  # symmetric multiset
    assert s.to_string() == "[2]^1, [0]^2, [-2]^1"


def test_value_formatting():
    s = sp.Spectrum.from_values([4j, -2 + 2j, 2 * math.sqrt(2), 5])
    text = s.to_string()
    assert "[4i]^1" in text and "[-2+2i]^1" in text and "[2.82843]^1" in text


def test_isospectral_tolerance():
    a = spec((2, 1), (0, 2), (-2, 1))
    b = sp.Spectrum.from_values([2 + 5e-9, 1e-9, -1e-9, -2])
    assert sp.isospectral(a, b)
    c = sp.Spectrum.from_values([2 + 1e-5, 0, 0, -2])
    assert not sp.isospectral(a, c)
    assert not sp.isospectral(a, spec((2, 1), (0, 3), (-2, 1)))


def test_isospectral_conjugate_sorting_stability():
    # values sharing a real part within rounding noise must still pair up
    a = sp.Spectrum.from_values([1 + 2j, 1 - 2j, 0])
    b = sp.Spectrum.from_values([1 + 1e-14 - 2j, 1 - 1e-14 + 2j, 0])
    assert sp.isospectral(a, b)


def test_classify_examples():
    even = spec((4, 1), (0, 6), (-4, 1))
    c = sp.classify(even)
    assert c.integral and c.parity == "even" and c.symmetric and c.bipartite_criterion

    odd = spec((5, 1), (1, 2), (-1, 4), (-3, 1))
    c = sp.classify(odd)
    assert c.integral and c.parity == "odd" and not c.symmetric
    assert not c.bipartite_criterion

    irr = spec((8, 1), (4, 1), (2 * math.sqrt(2), 2), (0, 9),
               (-2 * math.sqrt(2), 2), (-4, 1))
    c = sp.classify(irr)
    assert not c.integral and c.parity == "non-integral"
    assert c.almost_symmetric and not c.symmetric
    assert c.principal_eigenvalue == 8


def test_classify_makes_no_quadratic_scan(monkeypatch):
    # S = {1, 3, ..., 47} on Z_4096: every one of the 4075 entries comes with
    # its negation, and a scan of every entry per multiplicity lookup made
    # about 33 million abs() calls, 8000 per entry; the lookups by bisection
    # make about 9 per entry
    spec = sp.spectrum_exact_abelian(alg.subset(alg.cyclic(4096), range(1, 48, 2)),
                                     "difference")
    calls = 0

    def counted_abs(x):
        nonlocal calls
        calls += 1
        return abs(x)

    monkeypatch.setattr(sp, "abs", counted_abs, raising=False)
    c = sp.classify(spec)
    assert c.symmetric and c.almost_symmetric and c.bipartite_criterion
    assert len(spec.entries) > 4000 and calls <= 16 * len(spec.entries)


def test_skew_set_spectrum_takes_the_array_paths(monkeypatch):
    # S holds one of a and -a for each a != 0 in Z_4001, so all 4000
    # nontrivial chi(S) have real part -1/2: a window on the real part holds
    # every one of them, and the per-value merge took 14 s.  The array paths
    # decide the merge, the classification and the self-comparison with no
    # loop, in a bounded number of distance evaluations.
    n = 4001
    values = alg.character_sums_over(alg.subset(alg.cyclic(n), range(1, 2001)))

    def loop(*args):
        raise AssertionError("fell back to a per-value loop")

    monkeypatch.setattr(sp, "_merge_greedy", loop)
    monkeypatch.setattr(sp, "_isospectral_greedy", loop)
    hypot, distances = np.hypot, []

    def counted_hypot(x, y):
        distances.append(np.size(x))
        return hypot(x, y)

    monkeypatch.setattr(np, "hypot", counted_hypot)
    spec = sp.Spectrum.from_values(values)
    c = sp.classify(spec)
    assert sp.isospectral(spec, spec)
    assert len(spec.entries) == n and abs(spec.entries[0][0] - 2000) < 1e-9
    assert not (c.integral or c.symmetric or c.almost_symmetric or c.bipartite_criterion)
    assert sum(distances) <= 8 * n


def test_exact_abelian_difference():
    z4 = alg.cyclic(4)
    s = sp.spectrum_exact_abelian(alg.subset(z4, [1, 3]), "difference")
    assert sp.isospectral(s, spec((2, 1), (0, 2), (-2, 1)))

    z16 = alg.cyclic(16)
    S1 = alg.subset(z16, [1, 2, 4, 5, 9, 10, 12, 13])
    got = sp.spectrum_exact_abelian(S1, "difference")
    want = spec((8, 1), (4j, 1), (-2 + 2j, 2), (0, 9), (-2 - 2j, 2), (-4j, 1))
    assert sp.isospectral(got, want)


def test_exact_abelian_sum():
    z16 = alg.cyclic(16)
    S1 = alg.subset(z16, [1, 2, 4, 5, 9, 10, 12, 13])
    got = sp.spectrum_exact_abelian(S1, "sum")
    r = 2 * math.sqrt(2)
    want = spec((8, 1), (4, 1), (r, 2), (0, 9), (-r, 2), (-4, 1))
    assert sp.isospectral(got, want)

    with pytest.raises(sp.SpectrumError):
        sp.spectrum_exact_abelian(alg.subset(alg.dihedral(3), [1]), "difference")


def test_sum_spectrum_matches_dense_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        _, S = random_instance(rng, require_abelian=True, exclude_identity=False)
        exact = sp.spectrum_exact_abelian(S, "sum")
        dense = sp.spectrum_dense_symmetric(gr.cayley(S, "sum"))
        assert sp.isospectral(exact, dense)


def test_difference_spectrum_matches_dense_for_symmetric_random():
    rng = np.random.default_rng(22)
    for _ in range(15):
        _, S = random_instance(rng, require_abelian=True, require_symmetric=True)
        exact = sp.spectrum_exact_abelian(S, "difference")
        dense = sp.spectrum_dense_symmetric(gr.cayley(S, "difference"))
        assert sp.isospectral(exact, dense)


def test_dense_examples():
    z4 = alg.cyclic(4)
    c4 = gr.cayley(alg.subset(z4, [1, 3]), "difference")
    assert sp.isospectral(sp.spectrum_dense_symmetric(c4), spec((2, 1), (0, 2), (-2, 1)))

    k4 = gr.cayley(alg.subset(z4, [1, 2, 3]), "difference")
    assert sp.isospectral(sp.spectrum_dense_symmetric(k4), spec((3, 1), (-1, 3)))

    z3 = alg.cyclic(3)
    directed = gr.cayley(alg.subset(z3, [1]), "difference")
    with pytest.raises(sp.SpectrumError):
        sp.spectrum_dense_symmetric(directed)


def test_dense_dicyclic_example():
    dic3 = alg.dicyclic(3)
    S = alg.subset(dic3, [2 * k for k in (1, 2, 4, 5)] + [2 * 1 + 1, 2 * 4 + 1])
    g = gr.cayley(S, "difference")
    assert g.undirected
    got = sp.spectrum_dense_symmetric(g)
    assert sp.isospectral(got, spec((6, 1), (2, 1), (0, 8), (-4, 2)))


def test_jacobi_against_numpy_oracle():
    rng = np.random.default_rng(23)
    for n in (5, 20, 45):
        x = rng.standard_normal((n, n))
        x = (x + x.T) / 2
        got = jacobi_eigenvalues(x)
        want = np.sort(np.linalg.eigvalsh(x))[::-1]
        assert np.max(np.abs(got - want)) < 1e-9
    with pytest.raises(sp.SpectrumError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_moments():
    z4 = alg.cyclic(4)
    c4 = gr.cayley(alg.subset(z4, [1, 3]), "difference")
    mom = moments(c4, 3)
    assert mom[0] == 0 and mom[1] == 8
    assert moment_check(spec((2, 1), (0, 2), (-2, 1)), mom, 2, 4)
    assert not moment_check(spec((2, 2), (-2, 2)), mom, 2, 4)
    with pytest.raises(sp.SpectrumError):
        moments(c4, 5)


def test_moment_check_z16_directed():
    z16 = alg.cyclic(16)
    S1 = alg.subset(z16, [1, 2, 4, 5, 9, 10, 12, 13])
    g = gr.cayley(S1, "difference")
    s = sp.spectrum_exact_abelian(S1, "difference")
    assert moment_check(s, moments(g, 16), 8, 16)


def test_mdcg_formula_cayz4():
    base = spec((2, 1), (0, 2), (-2, 1))
    assert sp.isospectral(
        sp.mdcg_spectrum_formula(base, "identity", 4),
        spec((3, 1), (1, 3), (-1, 3), (-3, 1)),
    )
    assert sp.isospectral(
        sp.mdcg_spectrum_formula(base, "S", 4), spec((4, 1), (0, 6), (-4, 1))
    )
    assert sp.isospectral(
        sp.mdcg_spectrum_formula(base, "S_and_identity", 4),
        spec((5, 1), (1, 2), (-1, 4), (-3, 1)),
    )
    with pytest.raises(sp.SpectrumError):
        sp.mdcg_spectrum_formula(base, "S", 5)


def test_local_ring_formula_examples():
    assert sp.isospectral(
        sp.local_ring_unitary_spectrum(4, 2, "difference"), spec((2, 1), (0, 2), (-2, 1))
    )
    assert sp.isospectral(
        sp.local_ring_unitary_spectrum(3, 1, "difference"), spec((2, 1), (-1, 2))
    )
    assert sp.isospectral(
        sp.local_ring_unitary_spectrum(3, 1, "sum"), spec((2, 1), (1, 1), (-1, 1))
    )
    # even local ring: the sum graph equals the difference graph
    assert sp.local_ring_unitary_spectrum(4, 2, "sum") == sp.local_ring_unitary_spectrum(
        4, 2, "difference"
    )
    with pytest.raises(sp.SpectrumError):
        sp.local_ring_unitary_spectrum(12, 2, "difference")   # r/m = 6 not prime power
    # a local ring has r = q^l and m = q^(l-1): m must be a power of q = r/m
    for r, m in ((6, 2), (12, 4), (8, 2)):
        with pytest.raises(sp.SpectrumError, match="not r = q"):
            sp.local_ring_unitary_spectrum(r, m, "difference")


def test_mdcg_local_ring_examples():
    assert sp.isospectral(
        sp.mdcg_local_ring_spectrum(3, 1, "S", "difference"),
        spec((4, 1), (-2, 2), (0, 3)),
    )
    assert sp.isospectral(
        sp.mdcg_local_ring_spectrum(9, 3, "S_and_identity", "difference"),
        spec((13, 1), (1, 15), (-5, 2)),
    )
    assert sp.isospectral(
        sp.mdcg_local_ring_spectrum(3, 1, "S_and_identity", "sum"),
        spec((5, 1), (1, 3), (3, 1), (-1, 1)),
    )
    with pytest.raises(sp.SpectrumError):
        sp.mdcg_local_ring_spectrum(4, 2, "S", "difference")   # even size
    with pytest.raises(sp.SpectrumError, match="not r = q"):
        sp.mdcg_local_ring_spectrum(15, 5, "S", "difference")  # q = 3, m = 5


def test_closed_forms_at_m_1_are_the_printed_field_rows():
    # the field rows are the general rows at m = 1; held to the printed rows
    # for every prime power r <= 4096 (odd r for the mirror table)
    for r in range(2, fr.MAX_LOCAL_SIZE + 1):
        if alg.prime_power(r) is None:
            continue
        for kind in ("difference", "sum"):
            assert repr(sp.local_ring_unitary_spectrum(r, 1, kind)) == repr(
                unitary_field_rows(r, kind)), (r, kind)
            if r % 2 == 0:
                continue
            for t_kind in ("identity", "S", "S_and_identity"):
                assert repr(sp.mdcg_local_ring_spectrum(r, 1, t_kind, kind)) == repr(
                    mdcg_field_rows(r, t_kind, kind)), (r, t_kind, kind)


def test_semiprimitive_vs_dense():
    # gamma(3, 16): dense spectrum of the cube-residue graph on F16
    F16 = fr.artin_product([fr.gf(2, 4)])
    P3 = fr.power_residues(F16, 3)
    g = gr.cayley(P3, "difference")
    assert g.undirected
    dense = sp.spectrum_dense_symmetric(g)
    assert sp.isospectral(dense, spec((5, 1), (-3, 5), (1, 10)))

    F9 = fr.artin_product([fr.gf(3, 2)])
    P2 = fr.power_residues(F9, 2)
    dense9 = sp.spectrum_dense_symmetric(gr.cayley(P2, "difference"))
    assert sp.isospectral(dense9, spec((4, 1), (1, 4), (-2, 4)))
    # q odd: the sum graph splits each non-principal eigenvalue into a +- pair
    sum9 = sp.spectrum_exact_abelian(P2, "sum")
    assert sp.isospectral(sum9, spec((4, 1), (1, 2), (-1, 2), (2, 2), (-2, 2)))


def test_eigenvalue_range_bound():
    rng = np.random.default_rng(24)
    for _ in range(15):
        _, S = random_instance(rng, require_abelian=True, exclude_identity=False)
        for kind in ("difference", "sum"):
            s = sp.spectrum_exact_abelian(S, kind)
            d = len(S)
            assert all(abs(v) <= d + 1e-9 for v, _ in s.entries)


def test_spectrum_serialization():
    s = spec((2, 1), (0, 2), (-2, 1))
    csv = s.to_csv()
    assert csv.splitlines()[0] == "re,im,multiplicity"
    assert len(csv.splitlines()) == 4
    js = sp.spectrum_to_json(s)
    assert '"parity":"even"' in js and '"mult":2' in js
