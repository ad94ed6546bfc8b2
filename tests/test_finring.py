"""Local rings, Artin products, power residues and GP parameter checks."""

import numpy as np
import pytest

from spectra_forge import finring as fr


def test_zpk_basic():
    z4 = fr.zpk(2, 2)
    assert z4.size == 4 and z4.maximal_ideal_size == 2
    assert sorted(np.nonzero(z4.units_mask)[0].tolist()) == [1, 3]
    z3 = fr.zpk(3, 1)
    assert z3.is_field and sorted(np.nonzero(z3.units_mask)[0].tolist()) == [1, 2]
    with pytest.raises(fr.RingError):
        fr.zpk(4, 1)
    with pytest.raises(fr.RingError):
        fr.zpk(2, 13)   # over the size cap


def test_local_ring_equality_and_hash():
    a, b = fr.zpk(2, 2), fr.zpk(2, 2)
    assert a == b and hash(a) == hash(b)
    assert fr.zpk(2, 2) != fr.gf(2, 2)     # Z4 and F4: same size, other tables
    assert len({a, b, fr.gf(2, 2)}) == 2


def test_galois_ring_units():
    gr = fr.galois_ring(2, 2, 2)
    assert gr.size == 16 and gr.maximal_ideal_size == 4
    assert int(gr.units_mask.sum()) == 12


@pytest.mark.parametrize(
    "p,s,t",
    [(2, 1, 1), (2, 2, 1), (2, 1, 4), (2, 2, 2), (2, 3, 2), (2, 2, 3),
     (3, 1, 2), (3, 2, 1), (3, 2, 2), (3, 1, 4), (5, 2, 1), (5, 1, 2),
     (7, 1, 2), (11, 1, 2), (13, 1, 2)],
)
def test_galois_ring_unit_count_formula(p, s, t):
    gr = fr.galois_ring(p, s, t)
    assert int(gr.units_mask.sum()) == p ** ((s - 1) * t) * (p**t - 1)
    assert gr.maximal_ideal_size == p ** ((s - 1) * t)


def test_nonunits_form_ideal():
    for ring in (fr.zpk(2, 3), fr.galois_ring(3, 2, 1), fr.field_quotient(3, 1, 2),
                 fr.galois_ring(2, 2, 2)):
        nu = np.nonzero(~ring.units_mask)[0]
        assert len(nu) == ring.maximal_ideal_size
        nu_set = set(nu.tolist())
        for a in nu:
            for b in nu:
                assert int(ring.add[a, b]) in nu_set
        for a in range(ring.size):
            for b in nu:
                assert int(ring.mul[a, b]) in nu_set


def test_noncommutative_multiplication_rejected_at_every_size():
    import dataclasses

    ring = fr.zpk(2, 9)                      # 512 elements
    mul = ring.mul.copy()
    mul[3, 5] = 0                            # mul[5, 3] stays 15
    with pytest.raises(fr.RingError, match="not commutative"):
        fr._validate_local(dataclasses.replace(ring, mul=mul))


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _is_irreducible_by_factor_search(coeffs, p):
    # exhaustive search for monic factors of degree 1..deg/2
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if any(_poly_eval(coeffs, x, p) == 0 for x in range(p)):
        return False
    for d in range(2, deg // 2 + 1):
        for v in range(p**d):
            g = []
            vv = v
            for _ in range(d):
                g.append(vv % p)
                vv //= p
            g.append(1)
            _, rem = fr._poly_divmod(list(coeffs), g, p)
            if not any(rem):
                return False
    return True


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2),
                                 (7, 2), (13, 2), (2, 8), (3, 4)])
def test_field_modulus_is_irreducible(p, m):
    assert _is_irreducible_by_factor_search(fr.smallest_irreducible(p, m), p)


def test_field_quotient():
    q = fr.field_quotient(3, 1, 2)
    assert q.size == 9 and q.maximal_ideal_size == 3
    # x (= element index 3 in digit encoding) is nilpotent
    x = 3
    assert int(q.mul[x, x]) == 0


def test_artin_product_units():
    R = fr.artin_product([fr.zpk(2, 2), fr.zpk(3, 1)])
    assert R.size == 12
    assert int(R.units_mask.sum()) == 4
    R3 = fr.artin_product([fr.zpk(3, 1)])
    assert R3.size == 3
    R24 = fr.artin_product([fr.zpk(2, 2), fr.zpk(3, 1), fr.zpk(2, 1)])
    assert R24.size == 24 and int(R24.units_mask.sum()) == 4
    with pytest.raises(fr.RingError):
        fr.artin_product([])


def test_artin_units_equal_product_of_factor_units():
    factors = [fr.zpk(2, 2), fr.gf(3, 1), fr.field_quotient(2, 1, 2)]
    R = fr.artin_product(factors)
    mask = R.units_mask
    for v in range(R.size):
        parts = np.unravel_index(v, [f.size for f in factors])   # first factor most significant
        want = all(f.units_mask[x] for f, x in zip(factors, parts))
        assert bool(mask[v]) == want


def test_additive_group_and_units():
    R = fr.parse_ring("zpk:2^2*gf:3")
    G = fr.additive_group(R)
    assert G.is_abelian and G.abelian_decomposition == (12,)
    U = fr.units(R)
    assert U.members == tuple(sorted(3 * a + b for a, b in [(1, 1), (1, 2), (3, 1), (3, 2)]))
    # units of Z4 are the connection set {1, 3}
    R4 = fr.artin_product([fr.zpk(2, 2)])
    assert fr.units(R4).members == (1, 3)
    # units of F9 are all 8 nonzero elements
    R9 = fr.artin_product([fr.gf(3, 2)])
    assert len(fr.units(R9)) == 8


def test_power_residues():
    F9 = fr.artin_product([fr.gf(3, 2)])
    P2 = fr.power_residues(F9, 2)
    assert len(P2) == 4
    # closed under multiplication
    ring = F9.factors[0]
    mem = set(P2.members)
    for a in mem:
        for b in mem:
            assert int(ring.mul[a, b]) in mem

    F5 = fr.artin_product([fr.gf(5, 1)])
    assert len(fr.power_residues(F5, 1)) == 4
    F16 = fr.artin_product([fr.gf(2, 4)])
    assert len(fr.power_residues(F16, 3)) == 5

    with pytest.raises(fr.RingError):
        fr.power_residues(F9, 3)          # 3 does not divide 8
    with pytest.raises(fr.RingError):
        fr.power_residues(fr.artin_product([fr.zpk(2, 2)]), 1)   # not a field


def test_parse_ring():
    R = fr.parse_ring("zpk:2^2*gf:3")
    assert R.size == 12 and [f.label for f in R.factors] == ["Z4", "F3"]
    R2 = fr.parse_ring("gr:2^2:2")
    assert R2.size == 16
    R3 = fr.parse_ring("quot:3^1:2")
    assert R3.size == 9
    R4 = fr.parse_ring("gf:9")
    assert R4.factors[0].label == "F9" and R4.factors[0].is_field
    with pytest.raises(fr.RingError):
        fr.parse_ring("zpk:6^1")
    with pytest.raises(fr.RingError):
        fr.parse_ring("nope:3")


def test_additive_group_of_galois_ring():
    R = fr.artin_product([fr.galois_ring(2, 2, 2)])
    G = fr.additive_group(R)
    assert G.abelian_decomposition == (4, 4)
    R2 = fr.artin_product([fr.field_quotient(3, 1, 2)])
    assert fr.additive_group(R2).abelian_decomposition == (3, 3)
