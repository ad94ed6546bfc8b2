"""Local rings, Artin products, power residues and GP parameter checks."""

import numpy as np
import pytest

from spectra_forge import algebra as alg
from spectra_forge import cli
from spectra_forge import finring as fr
from spectra_forge import theorems as th

from oracles import (assert_abelian_structure, field_quotient_tables, galois_ring_tables,
                     power_residues_by_table)


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
        nonunit = ~ring.units_mask
        assert nonunit[ring.group.op_table[np.ix_(nu, nu)]].all()
        assert nonunit[ring.multiply(np.arange(ring.size)[:, None], nu[None, :])].all()


def _gr_4_3_consts():
    return fr._polynomial_consts(fr.smallest_irreducible(2, 3), 4)


def _noncommutative_consts():
    consts = _gr_4_3_consts()                # GR(4, 3), 4096 elements
    consts[1, 2, 0] = (consts[1, 2, 0] + 1) % 4
    return 4, consts


def _nonassociative_consts():
    # basis 1, x, y over Z2 with x^2 = 1, xy = x, y^2 = 1 + x + y:
    # (x x) y = y but x (x y) = x x = 1
    consts = np.zeros((3, 3, 3), dtype=np.int64)
    consts[0] = consts[:, 0] = np.eye(3, dtype=np.int64)
    consts[1, 1] = [1, 0, 0]
    consts[1, 2] = consts[2, 1] = [0, 1, 0]
    consts[2, 2] = [1, 1, 1]
    return 2, consts


def _no_identity_consts():
    # F2 x F2 on the orthogonal idempotents e_0 = (1, 0), e_1 = (0, 1)
    consts = np.zeros((2, 2, 2), dtype=np.int64)
    consts[0, 0, 0] = consts[1, 1, 1] = 1
    return 2, consts


BAD_CONSTS = [(_noncommutative_consts, "multiplication not commutative"),
              (_nonassociative_consts, "multiplication not associative"),
              (_no_identity_consts, "1 is not a multiplicative identity")]


def test_noncommutative_multiplication_rejected_at_every_size():
    q, consts = _noncommutative_consts()
    assert not np.array_equal(consts[1, 2], consts[2, 1])
    with pytest.raises(fr.RingError, match="bad: multiplication not commutative"):
        fr._local_ring(q, consts, 1, "bad")
    assert fr._local_ring(4, _gr_4_3_consts(), 3, "GR(4,3)") == fr.galois_ring(2, 2, 3)


def test_nonassociative_multiplication_rejected():
    q, consts = _nonassociative_consts()
    assert np.array_equal(consts, consts.transpose(1, 0, 2))
    with pytest.raises(fr.RingError, match="bad: multiplication not associative"):
        fr._local_ring(q, consts, 1, "bad")


def test_missing_identity_rejected():
    q, consts = _no_identity_consts()
    with pytest.raises(fr.RingError, match="bad: 1 is not a multiplicative identity"):
        fr._local_ring(q, consts, 1, "bad")


def test_constants_checked_before_any_table(monkeypatch):
    def no_tables(*args):
        raise AssertionError("a table was built before the constants were checked")

    monkeypatch.setattr(fr, "direct_product", no_tables)
    monkeypatch.setattr(fr, "cyclic", no_tables)
    for make, message in BAD_CONSTS:
        with pytest.raises(fr.RingError, match=message):
            fr._local_ring(*make(), 1, "bad")


def test_units_mask_is_cached_read_only():
    for ring, ideal, is_field in ((fr.zpk(2, 3), 4, False), (fr.gf(2, 3), 1, True),
                                  (fr.galois_ring(2, 2, 2), 4, False)):
        mask = ring.units_mask
        assert ring.units_mask is mask and not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = True
        a = np.arange(ring.size)
        assert np.array_equal(mask, (ring.multiply(a[:, None], a[None, :]) == 1).any(axis=1))
        assert (ring.maximal_ideal_size, ring.is_field) == (ideal, is_field)


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
    assert int(q.multiply(x, x)) == 0


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


def test_artin_product_is_frozen_with_a_cached_units_mask():
    R = fr.artin_product([fr.zpk(2, 2), fr.gf(3, 1)])
    assert R.factors == (fr.zpk(2, 2), fr.gf(3, 1)) and (R.size, R.label) == (12, "Z4xF3")
    for name, value in (("factors", (fr.zpk(2, 1),)), ("size", 2), ("label", "Z2")):
        with pytest.raises(AttributeError):
            setattr(R, name, value)
    with pytest.raises(AttributeError):
        R.factors.append(fr.zpk(2, 1))
    mask = R.units_mask
    assert R.units_mask is mask and not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0] = True
    assert np.flatnonzero(mask).tolist() == [4, 5, 10, 11]      # (1 or 3) * 3 + (1 or 2)


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
    mem = np.array(P2.members)
    assert set(ring.multiply(mem[:, None], mem[None, :]).ravel().tolist()) == set(P2.members)

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


def _local_rings_up_to(size):
    """(descriptor, label, oracle tables) for every zpk, gf, gr and quot ring
    with at most `size` elements."""
    def zpk_tables(r):
        a = np.arange(r)
        return (a[:, None] + a) % r, a[:, None] * a % r

    out = []
    for p in (p for p in range(2, size + 1) if fr._is_prime(p)):
        for e in (e for e in range(1, size) if p**e <= size):
            out.append((f"zpk:{p}^{e}", f"Z{p**e}", lambda r=p**e: zpk_tables(r)))
            out.append((f"gf:{p}^{e}", f"F{p**e}", lambda p=p, e=e: galois_ring_tables(p, 1, e)))
            for s in (s for s in range(1, e + 1) if e % s == 0):
                t, q = e // s, p**s
                label = f"F{q**t}" if s == 1 else f"Z{q}" if t == 1 else f"GR({q},{t})"
                out.append((f"gr:{p}^{s}:{t}", label,
                            lambda p=p, s=s, t=t: galois_ring_tables(p, s, t)))
                label = f"F{q}[x]/(x^{t})" if t > 1 else f"F{q}"
                out.append((f"quot:{p}^{s}:{t}", label,
                            lambda p=p, s=s, t=t: field_quotient_tables(p, s, t)))
    return out


SMALL_LOCAL_RINGS = _local_rings_up_to(256)


@pytest.mark.parametrize("descriptor, label, tables", SMALL_LOCAL_RINGS,
                         ids=[d for d, _, _ in SMALL_LOCAL_RINGS])
def test_structure_constants_match_convolution_tables(descriptor, label, tables):
    ring = fr.parse_ring(descriptor).factors[0]
    add, mul = tables()
    a = np.arange(ring.size)
    assert np.array_equal(ring.group.op_table, add)
    assert np.array_equal(ring.multiply(a[:, None], a[None, :]), mul)
    assert ring.label == label
    assert np.array_equal(ring.units_mask, (mul == 1).any(axis=1))


@pytest.mark.parametrize("descriptor", [d for d, _, _ in SMALL_LOCAL_RINGS])
def test_additive_group_is_the_validated_table_group(descriptor):
    ring = fr.parse_ring(descriptor)
    G = fr.additive_group(ring)
    assert G.label == ring.label
    assert_abelian_structure(G, ring.factors[0].group.op_table)


def _power(ring, x, e):
    acc = np.ones_like(x)
    while e:
        if e & 1:
            acc = ring.multiply(acc, x)
        x, e = ring.multiply(x, x), e >> 1
    return acc


@pytest.mark.parametrize("descriptor", ["gf:2^12", "zpk:2^12", "quot:2^2:6", "gr:2^2:6",
                                        "gf:3^7"] + [d for d, _, _ in SMALL_LOCAL_RINGS])
def test_units_mask_is_certified_by_powers(descriptor):
    # a unit u has u^|R*| = 1, and a non-unit lies in the nilpotent maximal
    # ideal; its nilpotency index is at most log2(4096) = 12 < 16, so the
    # two powers decide the mask exactly
    ring = fr.parse_ring(descriptor).factors[0]
    a, mask = np.arange(ring.size), ring.units_mask
    assert (_power(ring, a[mask], int(mask.sum())) == 1).all()
    assert (_power(ring, a[~mask], 16) == 0).all()


@pytest.mark.parametrize("descriptor, selector", [("gf:2^12", "pk:3"), ("zpk:2^12", "units")])
def test_character_route_builds_no_table(descriptor, selector, monkeypatch):
    def no_table(*args):
        raise AssertionError("a group table was built on the character route")

    # the additive groups are (Z_2)^12 and Z_4096, a relabelled cyclic(4096)
    monkeypatch.setattr(alg, "_product_table", no_table)
    R = fr.parse_ring(descriptor)
    G = fr.additive_group(R)
    S = fr.power_residues(R, 3) if selector == "pk:3" else fr.units(R)
    assert th.spectrum_of(S, "difference") is not None
    assert callable(G._table)


SMALL_FIELDS = [c for c in SMALL_LOCAL_RINGS if c[0].startswith("gf:")]


@pytest.mark.parametrize("descriptor, label, tables", SMALL_FIELDS,
                         ids=[d for d, _, _ in SMALL_FIELDS])
def test_power_residues_match_the_table_reference(descriptor, label, tables):
    R = fr.parse_ring(descriptor)
    _, mul = tables()
    q = R.size
    for k in (k for k in range(1, q) if (q - 1) % k == 0):
        assert set(fr.power_residues(R, k).members) == power_residues_by_table(mul, k)


def _no_tables(*args):
    raise AssertionError("ring work started before the size cap was checked")


def test_ring_caps_checked_before_any_table(monkeypatch):
    monkeypatch.setattr(fr, "_local_ring", _no_tables)
    monkeypatch.setattr(fr, "smallest_irreducible", _no_tables)
    # 2^20000 has more digits than Python formats by default: the caps are
    # decided, and their messages written, without computing such a power
    for descriptor in ("gf:2^10*gf:2^10", "gf:2^10*zpk:2^4", "quot:2^10:2",
                       "gf:2^20000", "gr:2^1:200000"):
        with pytest.raises(fr.RingError, match="exceeds cap"):
            fr.parse_ring(descriptor)
    for build, args in ((fr.zpk, (2, 13)), (fr.gf, (3, 8)), (fr.galois_ring, (2, 4, 4)),
                        (fr.field_quotient, (2, 10, 2)), (fr.zpk, (2, 20000)),
                        (fr.galois_ring, (2, 20000, 3)), (fr.field_quotient, (3, 2, 10**6))):
        with pytest.raises(fr.RingError, match="exceeds cap"):
            build(*args)


def test_ring_caps_decided_before_primality(monkeypatch, capsys):
    factorize = alg.factorize

    def factorize_within_cap(n):
        # trial division of a prime near 10^18 would run for minutes
        assert n <= fr.MAX_RING_SIZE, "a number over the ring cap was factored"
        return factorize(n)

    monkeypatch.setattr(alg, "factorize", factorize_within_cap)
    big = 10**18 + 3
    for descriptor in (f"zpk:{big}^1", f"gf:{big}", f"gr:{big}^1:1"):
        with pytest.raises(fr.RingError, match="exceeds cap"):
            fr.parse_ring(descriptor)
    for build, args in ((fr.zpk, (big, 1)), (fr.galois_ring, (big, 1, 1)),
                        (fr.field_quotient, (big, 1, 1))):
        with pytest.raises(fr.RingError, match="exceeds cap"):
            build(*args)
    # within the cap at k = 0, and rejected for k before p is tested
    with pytest.raises(fr.RingError, match="needs prime p"):
        fr.parse_ring(f"zpk:{big}^0")
    # p = 1 is rejected before the cap, whose loop would take e steps
    assert cli.main(["spectrum", "--ring", "zpk:1^100000000000000", "--set", "units"]) == 2
    assert "1 is not prime" in capsys.readouterr().err
