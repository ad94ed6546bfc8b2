"""Groups, characters, subset predicates and arithmetic helpers."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectra_forge import algebra as alg
from spectra_forge import finring as fr
from spectra_forge import theorems as th

from oracles import (
    assert_abelian_structure,
    assert_identity_and_inverses,
    associative_exhaustive,
    boolean_algebra_by_powers,
    character_exponents,
    dicyclic_table,
    dihedral_table,
    gcd_union_by_class_scan,
    invariant_chain_by_parts,
    mixed_radix_digits,
    symmetric_table,
)
from test_properties import PROPERTY


def test_cyclic_basic():
    z4 = alg.cyclic(4)
    assert z4.order == 4
    assert z4.abelian_decomposition == (4,)
    assert int(z4.op_table[1, 3]) == 0
    assert int(z4.inv_table[1]) == 3
    assert z4.identity == 0


def test_product_group():
    g = alg.direct_product(alg.cyclic(4), alg.cyclic(3))
    assert g.order == 12
    assert g.is_abelian
    assert math.prod(g.abelian_decomposition) == 12
    # Z4 x Z3 is cyclic of order 12
    assert g.abelian_decomposition == (12,)
    assert alg.direct_product(alg.cyclic(4), alg.cyclic(4)).abelian_decomposition == (4, 4)


def test_dihedral_dicyclic():
    d4 = alg.dihedral(4)
    assert d4.order == 8 and not d4.is_abelian
    d2 = alg.dihedral(2)
    assert d2.is_abelian and d2.abelian_decomposition == (2, 2)
    dic3 = alg.dicyclic(3)
    assert dic3.order == 12 and not dic3.is_abelian
    # b * b = a^n (index of b is 1, of a^3 is 6)
    assert int(dic3.op_table[1, 1]) == 6
    with pytest.raises(alg.GroupError):
        alg.dihedral(1)
    with pytest.raises(alg.GroupError):
        alg.dicyclic(1)


@pytest.mark.parametrize("n", range(2, 13))
def test_dihedral_dicyclic_match_entrywise_tables(n):
    assert np.array_equal(alg.dihedral(n).op_table, dihedral_table(n))
    assert np.array_equal(alg.dicyclic(n).op_table, dicyclic_table(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_matches_entrywise_table(n):
    assert np.array_equal(alg.symmetric(n).op_table, symmetric_table(n))


def test_symmetric_group():
    s4 = alg.symmetric(4)
    assert s4.order == 24 and not s4.is_abelian
    s2 = alg.symmetric(2)
    assert s2.is_abelian and s2.abelian_decomposition == (2,)
    with pytest.raises(alg.GroupError):
        alg.symmetric(7)


def test_make_group_descriptors():
    assert alg.make_group("cyclic:6").order == 6
    assert alg.make_group("dicyclic:2").order == 8
    g = alg.make_group("prod:(cyclic:2,prod:(cyclic:2,cyclic:3))")
    assert g.order == 12 and g.is_abelian
    with pytest.raises(alg.GroupError):
        alg.make_group("cyclic:x")
    with pytest.raises(alg.GroupError):
        alg.make_group("frobnicate:3")


def test_order_cap():
    with pytest.raises(alg.GroupError):
        alg.direct_product(alg.cyclic(200), alg.cyclic(200))


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the order cap was checked")


@pytest.mark.parametrize("build, n", [(alg.cyclic, 10_001), (alg.dihedral, 5_001),
                                      (alg.dicyclic, 2_501)])
def test_order_cap_checked_before_any_work(build, n, monkeypatch):
    # the first order over the cap; any table or loop work would touch numpy first
    monkeypatch.setattr(alg, "np", _NoNumpy())
    with pytest.raises(alg.GroupError, match="exceeds cap"):
        build(n)


def test_equal_groups_hash_equal():
    from spectra_forge import finring as fr
    from spectra_forge import theorems as th

    klein = alg.direct_product(alg.cyclic(2), alg.cyclic(2))
    f4 = fr.additive_group(fr.parse_ring("gf:2^2"))
    assert klein.label != f4.label and klein == f4
    assert hash(klein) == hash(f4)
    assert len({klein, f4}) == 1
    # equal invariant factors and coordinates decide equality; no table is built
    assert callable(klein._table) and callable(f4._table)
    z = alg.cyclic(4096)
    other = alg.cyclic(4096)
    th.mdcg_connection_subset(alg.subset(z, [1, 4095]), alg.subset(other, [0]))
    assert callable(z._table) and callable(other._table)


def test_powers_walk():
    z6 = alg.cyclic(6)
    assert z6.powers(0) == [0]
    assert z6.powers(2) == [0, 2, 4]
    assert len(z6.powers(1)) == 6
    assert z6.powers(1)[8 % 6] == 2 and z6.powers(1)[-1] == 5
    with pytest.raises(alg.GroupError):
        z6.powers(-1)       # must not wrap to element 5
    with pytest.raises(alg.GroupError):
        z6.powers(6)
    s3 = alg.symmetric(3)
    for g in s3.elements():
        assert s3.powers(g)[-1] == s3.inv_table[g]


def test_subset_members_must_be_integer_indices_of_the_group():
    z8 = alg.cyclic(8)
    for bad in (-1, z8.order, 1.5, float("nan"), np.float64(3.7)):
        for make in (lambda m: alg.GroupSubset(z8, (2, m)), lambda m: alg.subset(z8, [2, m])):
            with pytest.raises(alg.GroupError):
                make(bad)
    # integers of any type are kept, as Python ints
    S = alg.subset(z8, np.array([5, 1, 5]))
    assert S.members == (1, 5) and all(type(m) is int for m in S.members)
    assert alg.GroupSubset(z8, (np.int64(3), 0)).members == (0, 3)


def test_factorize_and_prime_power():
    assert alg.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert alg.factorize(1) == {} and alg.factorize(97) == {97: 1}
    assert alg.prime_power(8) == (2, 3) and alg.prime_power(7) == (7, 1)
    assert alg.prime_power(12) is None and alg.prime_power(1) is None


def _mixed_radix(*tables):
    """Product table, first factor most significant, entry by entry."""
    op = np.zeros((1, 1), dtype=np.int64)
    for t in tables:
        m, size = len(t), len(op) * len(t)
        op = np.array([[op[i // m, j // m] * m + t[i % m, j % m] for j in range(size)]
                       for i in range(size)])
    return op


def _product_cases():
    from spectra_forge import finring as fr
    from spectra_forge import theorems as th

    d3, z2 = alg.dihedral(3), alg.cyclic(2)
    yield alg.direct_product(d3, z2), _mixed_radix(d3.op_table, z2.op_table)
    R = fr.parse_ring("zpk:2^2*gf:3")
    yield fr.additive_group(R), _mixed_radix(*(f.group.op_table for f in R.factors))
    G = fr.additive_group(R)
    yield th.product_group_with_z2(G), _mixed_radix(G.op_table, z2.op_table)


def test_products_match_validated_tables():
    # the composed table is the entry-by-entry mixed-radix one, and the
    # structure composed with it passes the oracle checks
    for G, op in _product_cases():
        assert np.array_equal(G.op_table, op)
        if G.is_abelian:
            assert_abelian_structure(G, op)
        else:
            assert_identity_and_inverses(G)
            assert associative_exhaustive(op)


BUILT = ([f"dihedral:{n}" for n in range(2, 41)] + [f"dicyclic:{n}" for n in range(2, 41)]
         + [f"sym:{n}" for n in range(1, 6)])


@pytest.mark.parametrize("descriptor", BUILT)
def test_builders_give_groups_with_their_structure(descriptor):
    # D_n, Dic_n and S_n are not validated when built, so check them here
    G = alg.make_group(descriptor)
    op = G.op_table
    assert associative_exhaustive(op)
    assert G.identity == 0
    assert_identity_and_inverses(G)
    assert G.is_abelian == np.array_equal(op, op.T)
    if G.is_abelian:
        assert_abelian_structure(G, op)
    if descriptor == "dihedral:2":      # a^k b^j at coordinates (j, k)
        assert G.coords.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


# every non-abelian pool group is among these
REPRESENTED = ([f"dihedral:{n}" for n in range(2, 31)] + [f"dicyclic:{n}" for n in range(2, 31)]
               + [f"sym:{n}" for n in range(1, 6)])


@pytest.mark.parametrize("descriptor", REPRESENTED)
def test_irreducibles_are_unitary_representations(descriptor):
    G = alg.make_group(descriptor)
    op, elements = G.op_table, np.arange(G.order)
    stacks = G.irreducibles(elements)
    dims = [r.shape[-1] for r in stacks]
    assert dims == sorted(set(dims))                       # one stack per dimension, ascending
    assert sum(r.shape[0] * r.shape[-1] ** 2 for r in stacks) == G.order
    for rho in stacks:
        k, m, d, _ = rho.shape
        assert k and m == G.order
        assert np.allclose(rho[:, 0], np.eye(d), atol=1e-12)
        # rho(g) rho(h) = rho(gh) for every g, h, read off the table
        assert np.allclose(rho[:, :, None] @ rho[:, None, :], rho[:, op], atol=1e-12)
        # unitary: rho(g^-1) = rho(g)^H
        assert np.allclose(rho[:, G.inv_table], rho.conj().swapaxes(-1, -2), atol=1e-12)
    # the characters are orthonormal, so the irreducibles are irreducible and distinct
    chars = np.concatenate([np.trace(r, axis1=-2, axis2=-1) for r in stacks])
    assert np.allclose(chars @ chars.conj().T / G.order, np.eye(len(chars)), atol=1e-12)
    # evaluated on a subset of elements, in any order, they give the same matrices
    picked = elements[::-3]
    assert all(np.array_equal(a, b[:, picked]) for a, b in zip(G.irreducibles(picked), stacks))


def test_representation_sums_are_read_only_on_the_subset():
    G = alg.symmetric(4)
    S = alg.subset(G, [1, 2, 6, 23])
    sums = alg.representation_sums_over(S)
    assert alg.representation_sums_over(S) is sums
    assert [b.shape for b in sums] == [(2, 1, 1), (1, 2, 2), (2, 3, 3)]
    assert all(not b.flags.writeable for b in sums)
    rho = G.irreducibles(np.array(S.members))
    assert all(np.allclose(b, r.sum(axis=1)) for b, r in zip(sums, rho))
    empty = alg.representation_sums_over(alg.subset(G, []))
    assert all(b.shape == a.shape and not b.any() for a, b in zip(sums, empty))
    for group in (alg.cyclic(4), alg.make_group("prod:(sym:3,cyclic:2)")):
        with pytest.raises(alg.GroupError, match="irreducible"):
            alg.representation_sums_over(alg.subset(group, [1]))


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 40])
def test_dihedral_and_dicyclic_inverses_are_the_tables(n):
    # the inverses come from index arithmetic; the table is built only when read
    for G in (alg.dihedral(n), alg.dicyclic(n)):
        assert callable(G._table)
        assert np.array_equal(G.inv_table, np.argmax(G.op_table == 0, axis=1))


def test_large_dihedral_and_dicyclic_build_no_table():
    for G in (alg.dihedral(2000), alg.dicyclic(2500)):
        assert callable(G._table) and G.inv_table.shape == (G.order,)
        assert G.inv_table[G.inv_table].tolist() == list(range(G.order))


@functools.cache
def _factor(desc):
    from spectra_forge import finring as fr

    if desc.startswith(("zpk:", "gf:")):
        return fr.additive_group(fr.parse_ring(desc))
    return alg.make_group(desc)


FACTORS = ([f"cyclic:{k}" for k in range(1, 13)] + ["dihedral:2"]
           + ["zpk:2^2", "zpk:2^3", "zpk:3^2", "gf:2^2", "gf:3", "gf:3^2", "gf:5"])


@st.composite
def abelian_products(draw):
    """2 to 4 abelian factors whose product has order <= 240."""
    factors, order = [], 1
    for _ in range(draw(st.integers(2, 4))):
        fits = [d for d in FACTORS if order * _factor(d).order <= 240]
        factors.append(_factor(draw(st.sampled_from(fits))))
        order *= factors[-1].order
    return factors


@PROPERTY
@given(abelian_products())
def test_composed_structure_matches_the_table(factors):
    # the composed table is the mixed-radix one, and it names the same group
    assert_abelian_structure(alg.direct_product(*factors),
                             _mixed_radix(*(f.op_table for f in factors)))


def test_product_table_is_composed_on_first_read():
    from spectra_forge import finring as fr
    from spectra_forge import theorems as th

    R = fr.artin_product(list(fr.parse_ring("zpk:2^2*gf:3").factors) + [fr.zpk(2, 1)] * 7)
    G, U = fr.additive_group(R), fr.units(R)
    assert G.order == 1536
    th.spectrum_of(U, "difference", "S")
    Gp = th.product_group_with_z2(G)
    assert not isinstance(G._table, np.ndarray) and not isinstance(Gp._table, np.ndarray)
    table = G.op_table
    assert G.op_table is table and table.shape == (1536, 1536)
    # once composed, a product no longer holds its factors; G x Z2 is still unread
    assert isinstance(G._table, np.ndarray) and not isinstance(Gp._table, np.ndarray)


def _character_row(group, exponents):
    """Row of character_exponents(group) equal to the given exponent vector."""
    exps = character_exponents(group)
    return int(np.nonzero((exps == exponents).all(axis=1))[0][0])


def _character_values(group):
    """W[a, g] = chi_a(g), one column per element from its one-element character sums."""
    cols = [alg.character_sums_over(alg.subset(group, [g])) for g in group.elements()]
    return np.stack(cols, axis=1)


def test_characters_z2_z4():
    z2 = alg.cyclic(2)
    W = _character_values(z2)
    assert W.shape == (2, 2)
    assert sorted(round(v.real) for v in W[:, 1]) == [-1, 1]

    z4 = alg.cyclic(4)
    chi = _character_values(z4)[_character_row(z4, (1,))]
    g1 = int(np.nonzero(z4.coords[:, 0] == 1)[0][0])
    assert abs(chi[g1] - 1j) < 1e-12


def test_characters_z4xz4_formula():
    g = alg.direct_product(alg.cyclic(4), alg.cyclic(4))
    exps = character_exponents(g)
    W = _character_values(g)
    assert exps.shape == (16, 2) and W.shape == (16, 16)
    # chi_{a,b}(x,y) = e^(2 pi i (ax + by)/4) against the coordinate map
    for row in range(6):
        a, b = exps[row]
        for elt in range(16):
            x, y = g.coords[elt]
            want = np.exp(2j * np.pi * (a * x + b * y) / 4)
            assert abs(W[row, elt] - want) < 1e-12


def test_characters_require_abelian():
    d3 = alg.dihedral(3)
    for members in ([1, 2], []):     # no shortcut answers for a non-abelian group
        with pytest.raises(alg.GroupError):
            alg.character_sums_over(alg.subset(d3, members))


@pytest.mark.parametrize(
    "group",
    [
        alg.cyclic(7),
        alg.cyclic(12),
        alg.direct_product(alg.cyclic(4), alg.cyclic(4)),
        alg.direct_product(alg.cyclic(2), alg.cyclic(2), alg.cyclic(3)),
        alg.dihedral(2),
        alg.symmetric(2),
        alg.direct_product(alg.cyclic(8), alg.cyclic(8)),
    ],
)
def test_character_orthogonality(group):
    W = _character_values(group)
    gram = W @ W.conj().T
    n = group.order
    assert np.max(np.abs(gram - n * np.eye(n))) < 1e-9


def test_character_sums():
    z4 = alg.cyclic(4)
    S = alg.subset(z4, [1, 3])
    z4_sums = alg.character_sums_over(S)
    assert abs(z4_sums[_character_row(z4, (0,))] - 2) < 1e-12
    assert abs(z4_sums[_character_row(z4, (1,))]) < 1e-12   # i + i^3 = 0

    z16 = alg.cyclic(16)
    S1 = alg.subset(z16, [1, 2, 4, 5, 9, 10, 12, 13])
    sums = alg.character_sums_over(S1)
    assert any(abs(v - 8) < 1e-9 for v in sums)
    # computed once per subset and kept on it, read-only
    assert alg.character_sums_over(S1) is sums and not sums.flags.writeable
    assert alg.character_sums_over(alg.subset(z16, S1.members)) is not sums


def test_character_sums_of_integral_spectra_are_exact():
    # the unit sums of Z_4096 are 2048, -2048 and 0: the FFT gives them
    # exactly, where summing 2048 exponentials per character drifted by 5e-10
    ring = fr.parse_ring("zpk:2^12")
    sums = alg.character_sums_over(fr.units(ring))
    assert np.abs(sums.real - np.round(sums.real)).max() <= 1e-12
    assert np.abs(sums.imag - np.round(sums.imag)).max() <= 1e-12


def test_subset_predicates_examples():
    z4 = alg.cyclic(4)
    S = alg.subset(z4, [1, 3])
    assert alg.is_normal(S) and alg.cogeneration_gap(S) is None

    z16 = alg.cyclic(16)
    S1 = alg.subset(z16, [1, 2, 4, 5, 9, 10, 12, 13])
    assert alg.is_normal(S1)

    # in S3 a single transposition is not fixed by conjugation by everything
    s3 = alg.symmetric(3)
    transposition = [g for g in s3.elements() if len(s3.powers(g)) == 2][0]
    assert not alg.is_normal(alg.subset(s3, [transposition]))

    # an abelian group is answered from its structure: no table is built
    z12 = alg.cyclic(12)
    assert alg.is_normal(alg.subset(z12, [1, 5]))
    assert callable(z12._table)


def _normal_by_definition(S) -> bool:
    G = S.parent
    op, inv = G.op_table, G.inv_table
    return all(int(op[op[g, s], inv[g]]) in S for g in G.elements() for s in S)


def test_normal_matches_definition_on_the_pool():
    from spectra_forge.theorems import _GROUP_POOL

    rng = np.random.default_rng(5)
    for desc in _GROUP_POOL:
        G = alg.make_group(desc)
        n = G.order
        g = int(rng.integers(n))
        op, inv = G.op_table, G.inv_table
        conjugacy_class = {int(op[op[x, g], inv[x]]) for x in G.elements()}
        sets = [[], list(G.elements()), sorted(conjugacy_class)]
        sets += [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) for _ in range(8)]
        for members in sets:
            S = alg.subset(G, members)
            assert alg.is_normal(S) == _normal_by_definition(S), (desc, S.members)


def test_gcd_classes():
    assert alg.gcd_class_indices(4, 1) == (1, 3)
    assert alg.gcd_class_indices(12, 4) == (4, 8)
    with pytest.raises(alg.GroupError):
        alg.gcd_class_indices(12, 5)

    # S_4(1) is closed under co-generation; the Z16 set misses a generator
    # of <1>, since 3 is prime to 16 and not in S
    z4 = alg.cyclic(4)
    assert alg.cogeneration_gap(alg.subset(z4, [1, 3])) is None

    z16 = alg.cyclic(16)
    assert alg.cogeneration_gap(alg.subset(z16, [1, 2, 4, 5, 9, 10, 12, 13])) == 1


def test_boolean_algebra_member():
    # membership in the Boolean algebra of subgroups is co-generation closure
    z4 = alg.cyclic(4)
    assert alg.cogeneration_gap(alg.subset(z4, [1, 3])) is None
    assert alg.cogeneration_gap(alg.subset(z4, [1])) == 1

    g = alg.direct_product(alg.cyclic(4), alg.cyclic(3))
    units = alg.subset(g, [3 * a + b for a in (1, 3) for b in (1, 2)])
    assert alg.cogeneration_gap(units) is None


# every subset of each group: 20822 subsets in all
COGENERATION_GROUPS = [
    "cyclic:1", "cyclic:6", "cyclic:8", "cyclic:12", "prod:(cyclic:4,cyclic:3)",
    "prod:(cyclic:2,cyclic:2,cyclic:3)", "prod:(cyclic:6,cyclic:2)", "dihedral:2", "sym:2",
    "prod:(dihedral:2,cyclic:3)",
]


@pytest.mark.parametrize("desc", COGENERATION_GROUPS)
def test_cogeneration_predicates_equal_references(desc):
    # the Eulerian, Boolean-algebra and gcd-class criteria share one closure;
    # each is held to an independent reference on every subset
    g = alg.make_group(desc)
    cyclic = len(g.abelian_decomposition) <= 1
    for bits in range(2 ** g.order):
        S = alg.subset(g, [x for x in range(g.order) if bits >> x & 1])
        closed = alg.cogeneration_gap(S) is None
        assert closed == boolean_algebra_by_powers(g, S), S.members
        if cyclic:
            assert (closed and g.identity not in S) == gcd_union_by_class_scan(S)[0], S.members


def test_generic_abelian_coordinates_consistent():
    # the coordinate map must be an isomorphism onto the invariant factors
    for g in (alg.dihedral(2), alg.symmetric(2),
              alg.direct_product(alg.cyclic(2), alg.cyclic(4))):
        dims = g.abelian_decomposition
        seen = set()
        for elt in g.elements():
            seen.add(tuple(g.coords[elt]))
        assert len(seen) == g.order
        for a in range(g.order):
            for b in range(g.order):
                c = g.op_table[a, b]
                want = tuple(
                    (x + y) % d for x, y, d in zip(g.coords[a], g.coords[b], dims)
                )
                assert tuple(g.coords[c]) == want


def test_invariant_chain_rejects_coordinates_that_miss_an_element():
    # the factor product matches the order, but both elements sit at 0 in Z_2
    with pytest.raises(alg.GroupError, match="abelian coordinates do not cover the group"):
        alg._invariant_chain([(np.array([[0], [0]]), (2,))])


def _product_columns(groups):
    """The coordinate columns and moduli that direct_product hands to
    _invariant_chain for these abelian factors."""
    idx = mixed_radix_digits([g.order for g in groups])
    cols = np.hstack([g.coords[idx[:, i]] for i, g in enumerate(groups)])
    return cols, [d for g in groups for d in g.abelian_decomposition]


def _assert_chain_matches_parts(groups):
    cols, mods = _product_columns(groups)
    want_dims, want = invariant_chain_by_parts(cols, mods)
    # the factors as blocks over their product, and all columns as one block
    for blocks in ([(g.coords, g.abelian_decomposition) for g in groups], [(cols, mods)]):
        dims, coords = alg._invariant_chain(blocks)
        assert dims == want_dims
        assert coords.dtype == np.int64 and np.array_equal(coords, want)
    G = alg.direct_product(*groups)
    assert (G.abelian_decomposition, G.coords.tolist()) == (want_dims, want.tolist())


# the products of the suite's group pool, and the additive groups of the
# rings of the benchmark's `rings` workload with up to 7 extra Z2 factors
SUITE_PRODUCTS = [d[len("prod:("):-1] for d in th._GROUP_POOL if d.startswith("prod:")]
WORKLOAD_RINGS = (
    "zpk:2^3*gf:9*zpk:5^1", "gf:9*zpk:2^3*zpk:5^1", "zpk:5^1*gf:9*zpk:2^3",
    "quot:2:3*gf:9*zpk:5^1", "gf:9*quot:2:3*zpk:5^1", "zpk:5^1*quot:2:3*gf:9",
    "zpk:2^7*gf:3", "gf:3*zpk:2^7", "quot:2:4*zpk:2^3*gf:3", "gf:3*zpk:2^3*quot:2:4",
) + tuple("*".join([base] + ["zpk:2^1"] * n)
          for base in ("zpk:2^2*gf:3", "gf:3*zpk:2^2") for n in range(8))


@pytest.mark.parametrize("inner", SUITE_PRODUCTS)
def test_invariant_chain_matches_the_per_part_oracle_on_the_suite_pool(inner):
    _assert_chain_matches_parts([alg.make_group(d) for d in alg._split_top_level(inner)])


@pytest.mark.parametrize("ring", WORKLOAD_RINGS)
def test_invariant_chain_matches_the_per_part_oracle_on_ring_groups(ring):
    _assert_chain_matches_parts([f.group for f in fr.parse_ring(ring).factors])


CHAIN_FACTORS = ([f"cyclic:{k}" for k in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 30, 64)]
                 + ["dihedral:2", "zpk:2^3", "zpk:3^2", "gf:2^2", "gf:3^2", "gf:5", "gf:7"])


@st.composite
def large_abelian_products(draw):
    """2 to 6 abelian factors, some of them products themselves, whose
    product has order <= 4096."""
    factors, order = [], 1
    for _ in range(draw(st.integers(2, 6))):
        fits = [d for d in CHAIN_FACTORS if order * _factor(d).order <= 4096]
        g = _factor(draw(st.sampled_from(fits)))
        if draw(st.booleans()):
            fits = [d for d in CHAIN_FACTORS if order * g.order * _factor(d).order <= 4096]
            g = alg.direct_product(g, _factor(draw(st.sampled_from(fits))))
        factors.append(g)
        order *= g.order
    return factors


@PROPERTY
@given(large_abelian_products())
def test_invariant_chain_matches_the_per_part_oracle_on_random_products(factors):
    _assert_chain_matches_parts(factors)


@pytest.mark.parametrize("descriptor", ["cyclic:1", "cyclic:2", "cyclic:12", "dihedral:2",
                                        "prod:(cyclic:4,cyclic:6,cyclic:2)", "prod:(cyclic:12,cyclic:12)"])
def test_conjugate_characters_negate_the_exponents(descriptor):
    G = alg.make_group(descriptor)
    for g in (G, alg.direct_product(G, alg.cyclic(2))):
        dims = g.abelian_decomposition
        want = np.ravel_multi_index(tuple((-character_exponents(g) % dims).T), dims)
        assert alg.conjugate_characters(g).tolist() == np.atleast_1d(want).tolist()
