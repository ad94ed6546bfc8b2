"""Property tests: the merged-entry comparison against the expanded-value
greedy, classification by bisection against the per-lookup scan, the
whole-array merge, classification and comparison of large spectra against
the per-value loops, bit for bit, the
LAPACK dense route against the Jacobi oracle and the character route, the
character route against power traces on directed instances, the boolean-gather graph kernels (the named products, Cayley, mirror)
against their Kronecker, element-by-element and block-matrix oracles, the
mirror route existing exactly when the base route does, the mirror
characters taken from chi(S) against the FFT over G x Z2, and the FFT
character sums against the direct exponential sums."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_forge import algebra as alg
from spectra_forge import graphs as gr
from spectra_forge import products as pr
from spectra_forge import spectra as sp
from spectra_forge import theorems as th

from oracles import (
    cayley_by_definition,
    character_sums_direct,
    eigvalsh_spectrum,
    classify_by_scan,
    dot_by_cells,
    isospectral_expanded,
    jacobi_eigenvalues,
    mirror_block,
    moment_check,
    moments,
    multiplicity_by_scan,
    neps_kron,
    same_entries,
)

TOL = sp.MERGE_TOL
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# base values on a coarse grid, conjugate pairs included
BASE = st.builds(
    complex,
    st.sampled_from([-3.0, -1.0, 0.0, 1.0, math.sqrt(2), 2.0]),
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0]),
)
# offsets in units of the tolerance, just inside and just outside it
OFFSET = st.sampled_from([0.0, 0.0, 0.4, -0.4, 0.9, -0.9, 0.999, 1.001, -1.1, 2.0])


@st.composite
def spectrum_pairs(draw):
    """Two spectra over the same base values; the second moves each unit
    block by a small offset and may change one multiplicity."""
    bases = draw(st.lists(BASE, min_size=1, max_size=5, unique=True))
    bases += [b.conjugate() for b in bases if b.imag and draw(st.booleans())]
    first, second = [], []
    for b in bases:
        m = draw(st.integers(1, 250))
        first.append((b, m))
        cut = draw(st.integers(0, m))
        for part in (cut, m - cut):
            shift = complex(draw(OFFSET), draw(OFFSET)) * TOL
            second.append((b + shift, part))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(second) - 1))
        v, m = second[i]
        second[i] = (v, m + draw(st.sampled_from([-1, 1])))
    return first, second


def _spectrum(pairs, merged):
    pairs = [(v, m) for v, m in pairs if m > 0] or [(0j, 1)]
    if merged:
        return sp.Spectrum.from_pairs(pairs)
    return sp.Spectrum(tuple((complex(v), m) for v, m in pairs))


@PROPERTY
@given(spectrum_pairs(), st.booleans())
def test_merged_isospectral_matches_expanded_greedy(pairs, merged):
    s1, s2 = (_spectrum(p, merged) for p in pairs)
    sym = sp.Spectrum.from_pairs(s1.entries + s1.negated().entries)
    for x, y in ((s1, s2), (s2, s1), (s1, s1.negated()), (sym, sym.negated())):
        assert sp.isospectral(x, y) == isospectral_expanded(x, y)


@st.composite
def plus_minus_spectra(draw):
    """Spectra whose entries come in +- pairs, each negation moved by an
    offset at the tolerance's edge and perhaps with one more unit; merged,
    or taken as given in any order."""
    pairs = []
    for b in draw(st.lists(BASE, min_size=1, max_size=6, unique=True)):
        m = draw(st.integers(1, 5))
        pairs.append((b, m))
        if draw(st.booleans()):
            shift = complex(draw(OFFSET), draw(OFFSET)) * TOL
            pairs.append((-b + shift, m + draw(st.sampled_from([0, 0, 1]))))
    return _spectrum(draw(st.permutations(pairs)), draw(st.booleans()))


@PROPERTY
@given(plus_minus_spectra())
def test_classify_matches_the_scanning_reference(spec):
    c = sp.classify(spec)
    assert (c.almost_symmetric, c.bipartite_criterion) == classify_by_scan(spec)
    for v, _ in spec.entries:
        for x in (v, -v, v + TOL, v - 1.5 * TOL):
            assert spec.multiplicity_of(x) == multiplicity_by_scan(spec, x)


# ---------------------------------------------------------------------------
# the whole-array paths of large spectra against the per-value loops

LOOPS = 10**9      # an ARRAY_MIN no input reaches


def _bits(spec):
    """The entries bit for bit (hex floats tell -0.0 from 0.0)."""
    return [(v.real.hex(), v.imag.hex(), m) for v, m in spec.entries], spec.tolerance


def _on_both_paths(build):
    """build() with every input on the array path, and on the loops."""
    with mock.patch.object(sp, "ARRAY_MIN", 1):
        arrays = build()
    with mock.patch.object(sp, "ARRAY_MIN", LOOPS):
        loops = build()
    return arrays, loops


ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e-13, -1e-13j)
STEPS = (1, 1j, (1 + 1j) / math.sqrt(2), (1 - 2j) / math.sqrt(5))
# gaps in units of the tolerance: inside, at and just past its edge and the
# array paths' margin EDGE, and clearly outside
EDGES = (0.3, 0.6, 0.9, 1 - 2e-6, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 2e-6, 1.5, 2.5)


@st.composite
def merge_values(draw, tol=TOL):
    """Values on the greedy's edges: conjugate pairs sharing a real part,
    chains whose steps lie within the tolerance but whose span does not,
    pairs at the edge of the tolerance, +-0 and noise below 1e-12, each
    repeated up to three times, in a drawn order."""
    values = []
    for _ in range(draw(st.integers(1, 6))):
        b = draw(BASE) * draw(st.sampled_from([1.0, 1.0, 3072.0]))
        shape = draw(st.sampled_from(["conjugates", "chain", "edge", "zeros"]))
        if shape == "conjugates":
            values += [b, b.conjugate(), -b.conjugate()]
        elif shape == "chain":
            step = draw(st.sampled_from(EDGES[:5])) * tol * draw(st.sampled_from(STEPS))
            values += [b + k * step for k in range(draw(st.integers(2, 7)))]
        elif shape == "edge":
            values += [b, b + draw(st.sampled_from(EDGES)) * tol * draw(st.sampled_from(STEPS))]
        else:
            values += draw(st.lists(st.sampled_from(ZEROS), min_size=1, max_size=4))
    values = [v for v in values for _ in range(draw(st.integers(1, 3)))]
    return draw(st.permutations(values))


@PROPERTY
@given(merge_values())
def test_array_merge_of_values_is_the_greedy_bit_for_bit(values):
    arrays, loops = _on_both_paths(lambda: sp.Spectrum.from_values(values))
    assert _bits(arrays) == _bits(loops)


@PROPERTY
@given(st.sampled_from([TOL, 1e-6, 0.0]).flatmap(
    lambda tol: st.tuples(st.just(tol), merge_values(tol or TOL),
                          st.lists(st.integers(0, 300), min_size=40, max_size=40))))
def test_array_merge_of_pairs_is_the_greedy_bit_for_bit(drawn):
    tol, values, mults = drawn
    pairs = list(zip(values, mults * (len(values) // 40 + 1)))
    if not any(m for _, m in pairs):
        pairs.append((1.0, 1))
    arrays, loops = _on_both_paths(lambda: sp.Spectrum.from_pairs(pairs, tol))
    assert _bits(arrays) == _bits(loops)


@PROPERTY
@given(plus_minus_spectra())
def test_array_classify_matches_the_loops_and_the_scan(spec):
    (got, negated, mults), (want, want_negated, want_mults) = _on_both_paths(lambda: (
        sp.classify(spec), spec.negated(),
        [spec.multiplicity_of(x) for v, _ in spec.entries for x in (v, -v, v + TOL, v - 1.5 * TOL)]))
    assert got == want and _bits(negated) == _bits(want_negated)
    assert (got.almost_symmetric, got.bipartite_criterion) == classify_by_scan(spec)
    assert mults == want_mults == [multiplicity_by_scan(spec, x) for v, _ in spec.entries
                                   for x in (v, -v, v + TOL, v - 1.5 * TOL)]


@PROPERTY
@given(spectrum_pairs(), st.booleans())
def test_array_isospectral_matches_the_loops(pairs, merged):
    s1, s2 = (_spectrum(p, merged) for p in pairs)
    sym = sp.Spectrum.from_pairs(s1.entries + s1.negated().entries)
    for x, y in ((s1, s2), (s2, s1), (s1, s1), (s1, s1.negated()), (sym, sym.negated())):
        arrays, loops = _on_both_paths(lambda: sp.isospectral(x, y))
        assert arrays == loops == isospectral_expanded(x, y)


@st.composite
def symmetric_01(draw):
    n = draw(st.integers(1, 10))
    upper = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    A = np.array(upper, dtype=np.uint8).reshape(n, n)
    return np.triu(A) | np.triu(A, 1).T


@PROPERTY
@given(symmetric_01())
def test_dense_route_matches_jacobi_oracle(A):
    got = sp.spectrum_dense_symmetric(gr.Graph(A))
    want = sp.Spectrum.from_values(jacobi_eigenvalues(A))
    assert sp.isospectral(got, want)


@st.composite
def zero_one(draw):
    """A 0/1 matrix on 0-8 vertices, symmetric or not, loops allowed."""
    n = draw(st.integers(0, 8))
    A = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                 dtype=np.uint8).reshape(n, n)
    return np.triu(A) | np.triu(A, 1).T if draw(st.booleans()) else A


@PROPERTY
@given(zero_one())
def test_dot_matches_cell_walk(A):
    labels = tuple(f"v{i}" for i in range(len(A)))
    assert gr.Graph(A).to_dot(labels) == dot_by_cells(gr.Graph(A), labels)


ABELIAN = ("cyclic:5", "cyclic:8", "cyclic:12", "prod:(cyclic:2,cyclic:4)",
           "prod:(cyclic:3,cyclic:3)", "prod:(cyclic:2,cyclic:2,cyclic:3)")


@st.composite
def abelian_instances(draw):
    G = alg.make_group(draw(st.sampled_from(ABELIAN)))
    picks = draw(st.lists(st.sampled_from(list(G.elements())), min_size=1, max_size=6))
    members = set(picks) | {int(G.inv_table[g]) for g in picks}
    return G, alg.subset(G, sorted(members))


@PROPERTY
@given(abelian_instances(), st.sampled_from(["difference", "sum"]))
def test_dense_route_matches_character_route(instance, kind):
    _, S = instance
    dense = sp.spectrum_dense_symmetric(gr.cayley(S, kind))
    chars = sp.spectrum_exact_abelian(S, kind)
    assert sp.isospectral(dense, chars, 1e-7)


@st.composite
def directed_abelian_instances(draw):
    """An abelian group and a set that is not inverse-closed: it holds some
    g with g != g^-1 but not g^-1."""
    G = alg.make_group(draw(st.sampled_from(ABELIAN)))
    g = draw(st.sampled_from([g for g in G.elements() if G.inv_table[g] != g]))
    picks = draw(st.lists(st.sampled_from(list(G.elements())), max_size=5))
    return G, alg.subset(G, sorted((set(picks) | {g}) - {int(G.inv_table[g])}))


@PROPERTY
@given(directed_abelian_instances(), st.sampled_from(["difference", "sum"]))
def test_character_route_matches_power_traces(instance, kind):
    G, S = instance
    n = G.order
    spec = sp.spectrum_exact_abelian(S, kind)
    traces = moments(gr.cayley(S, kind), min(12, n))
    assert moment_check(spec, traces, max(1, len(S)), n)


# each kind's NEPS basis: a term takes each factor's adjacency (1) or identity (0)
PRODUCT_TERMS = {
    "cartesian": ((1, 0), (0, 1)),
    "direct": ((1, 1),),
    "strong": ((1, 0), (0, 1), (1, 1)),
    "strong_sum": ((1, 0), (1, 1)),
}


@st.composite
def zero_one_graphs(draw):
    """A random 0/1 graph (directed, loops allowed) on 1-4 vertices."""
    n = draw(st.integers(1, 4))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return gr.Graph(np.array(cells, dtype=np.uint8).reshape(n, n))


@PROPERTY
@given(zero_one_graphs(), zero_one_graphs(), st.sampled_from(sorted(PRODUCT_TERMS)))
def test_neps_matches_kronecker_oracle(g1, g2, kind):
    """Each named product equals its NEPS basis as integer Kronecker terms."""
    got = pr.named_product(g1, g2, kind)
    want = neps_kron([g1, g2], PRODUCT_TERMS[kind])
    assert np.array_equal(got.adjacency, want.adjacency)
    assert got.adjacency.dtype == want.adjacency.dtype


@st.composite
def pool_subset(draw, G):
    """The empty set, a set holding the identity, or an arbitrary set."""
    shape = draw(st.sampled_from(["empty", "identity", "arbitrary"]))
    members = set() if shape == "empty" else draw(st.sets(st.integers(0, G.order - 1)))
    if shape == "identity":
        members.add(G.identity)
    return alg.subset(G, sorted(members))


@st.composite
def pool_connection_sets(draw):
    G = alg.make_group(draw(st.sampled_from(th._GROUP_POOL)))
    return G, draw(pool_subset(G)), draw(pool_subset(G))


@PROPERTY
@given(pool_connection_sets(), st.sampled_from(["difference", "sum"]))
def test_cayley_and_mirror_match_oracles(instance, kind):
    G, S, T = instance
    for got, want in ((gr.cayley(S, kind), cayley_by_definition(G, S, kind)),
                      (gr.mirror_dicayley(S, T, kind), mirror_block(G, S, T, kind))):
        assert np.array_equal(got.adjacency, want.adjacency)


@PROPERTY
@given(pool_connection_sets(), st.sampled_from(["difference", "sum"]))
def test_mirror_route_exists_exactly_when_base_route_does(instance, kind):
    # A_T is symmetric whenever A_S is, for T = {e}, S and S with e, so the
    # mirror graph is undirected exactly when the base graph is
    _, S, _ = instance
    base_none = th.spectrum_of(S, kind) is None
    for t_kind in th.T_KINDS:
        assert (th.spectrum_of(S, kind, t_kind) is None) == base_none


ABELIAN_POOL = tuple(d for d in th._GROUP_POOL if alg.make_group(d).is_abelian)


@st.composite
def abelian_pool_sets(draw):
    return draw(pool_subset(alg.make_group(draw(st.sampled_from(ABELIAN_POOL)))))


@PROPERTY
@given(abelian_pool_sets(), st.sampled_from(["difference", "sum"]), st.sampled_from(th.T_KINDS))
def test_mirror_characters_from_chi_S_match_the_doubled_group(S, kind, t_kind):
    # chi(S) +- chi(T) with chi(T) from chi(S), against the FFT over G x Z2
    # of (S x {0}) u (T x {1}); S may hold the identity
    got = th.spectrum_of(S, kind, t_kind)
    doubled = th.mdcg_connection_subset(S, th.t_subset(S, t_kind))
    assert same_entries(got, sp.spectrum_exact_abelian(doubled, kind), 1e-9)


BLOCK_GROUPS = ([f"dihedral:{n}" for n in (3, 4, 5, 6, 9, 12)]
                + [f"dicyclic:{n}" for n in (2, 3, 4, 5, 7, 10)] + ["sym:3", "sym:4", "sym:5"])


@st.composite
def inverse_closed_non_abelian(draw):
    """A non-abelian D_n, Dic_n or S_n and an inverse-closed S, which may
    hold the identity."""
    G = alg.make_group(draw(st.sampled_from(BLOCK_GROUPS)))
    picks = draw(st.sets(st.integers(0, G.order - 1), max_size=8))
    return G, alg.subset(G, sorted(picks | {int(G.inv_table[g]) for g in picks}))


@PROPERTY
@given(inverse_closed_non_abelian(), st.sampled_from([None, *th.T_KINDS]))
def test_block_spectra_match_eigvalsh_of_the_built_graph(instance, t_kind):
    G, S = instance
    spec = th.spectrum_of(S, "difference", t_kind)
    graph = (gr.cayley(S, "difference") if t_kind is None
             else gr.mirror_dicayley(S, th.t_subset(S, t_kind), "difference"))
    assert "_representation_sums" in S.__dict__            # the blocks, not the dense route
    assert spec.size == graph.n
    assert same_entries(spec, eigvalsh_spectrum(graph), 1e-9)


@st.composite
def cyclic_products(draw):
    """Z_d1 x ... x Z_dk for 1 <= k <= 5 factors of order at most 512 (order
    1 included), at most 1024 elements in all, and a subset drawn at a
    density from empty to full."""
    dims, room = [], 1024
    for _ in range(draw(st.integers(1, 5))):
        dims.append(draw(st.integers(1, min(512, room))))
        room //= dims[-1]
    G = alg.direct_product(*(alg.cyclic(d) for d in dims))
    density = draw(st.sampled_from([0.0, 0.02, 0.3, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return G, alg.subset(G, np.nonzero(rng.random(G.order) < density)[0])


@PROPERTY
@given(cyclic_products())
def test_fft_character_sums_match_direct_sums(instance):
    G, S = instance
    got = alg.character_sums_over(S)
    assert got.dtype == np.complex128 and got.shape == (G.order,)
    assert np.abs(got - character_sums_direct(G, S)).max() <= 1e-9 * max(1, len(S))
