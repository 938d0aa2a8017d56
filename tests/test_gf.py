import itertools
import random

import numpy as np
import pytest

from polarank.errors import CompositeP, DivisionByZero, FieldMismatch, RangeError
from polarank.gf import (
    _is_irreducible,
    _poly_gcd,
    _poly_mulmod,
    _poly_sub,
    binom_mod_p,
    build_field,
    enumerate_field,
    is_prime,
)


def brute_force_modulus(p, t):
    """Independent oracle: scan monic degree-t polynomials in code order and
    return the first with no nontrivial monic factor."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def monics(deg):
        for tail in itertools.product(range(p), repeat=deg):
            yield list(tail) + [1]

    def divides(d, f):
        # trial products d * g for all monic g of the complementary degree
        gdeg = len(f) - len(d)
        for g in monics(gdeg):
            if poly_mul(d, g) == list(f):
                return True
        return False

    for code in range(p**t):
        tail = []
        c = code
        for _ in range(t):
            tail.append(c % p)
            c //= p
        f = tuple(tail) + (1,)
        if all(
            not divides(list(d), f)
            for deg in range(1, t)
            for d in monics(deg)
        ):
            return f
    raise AssertionError


def test_modulus_examples():
    assert build_field(3, 1).modulus == (0, 1)
    assert build_field(3, 2).modulus == (1, 0, 1)  # X^2 + 1
    assert build_field(5, 2).modulus == (2, 0, 1)  # X^2 + 2


@pytest.mark.parametrize("p,t", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_modulus_matches_exhaustive_scan(p, t):
    assert build_field(p, t).modulus == brute_force_modulus(p, t)


@pytest.mark.parametrize("p,t", [(2, 8), (3, 6), (5, 4), (7, 3), (11, 2)])
def test_irreducible_count_matches_necklace_formula(p, t):
    """Gauss: (1/t) * sum over d | t of mu(d) p^(t/d) monic irreducibles."""

    def mobius(n):
        out, d = 1, 2
        while d * d <= n:
            if n % d == 0:
                n //= d
                if n % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if n > 1 else out

    expected = sum(mobius(d) * p ** (t // d) for d in range(1, t + 1) if t % d == 0) // t
    found = sum(
        _is_irreducible(tail + (1,), p) for tail in itertools.product(range(p), repeat=t)
    )
    assert found == expected


def test_modulus_matches_tuple_arithmetic_scan():
    """GF(3^24): the first candidate passing Rabin's test in tuple arithmetic."""
    p, t = 3, 24

    def frobenius_power(f, k):  # x^(3^k) mod f by k cubings
        h = (0, 1)
        for _ in range(k):
            h = _poly_mulmod(_poly_mulmod(h, h, f, p), h, f, p)
        return h

    def rabin(f):
        if frobenius_power(f, t) != (0, 1):
            return False
        return all(
            len(_poly_gcd(f, _poly_sub(frobenius_power(f, t // r), (0, 1), p), p)) == 1
            for r in (2, 3)
        )

    for tail in itertools.product(range(p), repeat=t):
        f = tail[::-1] + (1,)  # ascending code order
        if rabin(f):
            break
    assert build_field(p, t).modulus == f


def test_composite_p_rejected():
    with pytest.raises(CompositeP):
        build_field(9, 1)
    with pytest.raises(CompositeP):
        build_field(15, 2)


def test_enumeration_order_and_cardinality():
    f3 = build_field(3, 1)
    assert [e.code for e in enumerate_field(f3)] == [0, 1, 2]
    f9 = build_field(3, 2)
    els = enumerate_field(f9)
    assert len(els) == 9 and len(set(els)) == 9
    assert els[0].code == 0 and els[1] == f9.one


def test_gf9_x_squared_is_minus_one():
    f9 = build_field(3, 2)
    x = f9.element((0, 1))
    assert (x * x).coeffs == (2, 0)


def test_inverse_and_division():
    for p, t in [(3, 2), (5, 1), (3, 3)]:
        f = build_field(p, t)
        assert f.one.inverse() == f.one
        for a in enumerate_field(f)[1:]:
            assert a * a.inverse() == f.one
        with pytest.raises(DivisionByZero):
            f.zero.inverse()


def test_frobenius_order_t():
    f9 = build_field(3, 2)
    for a in enumerate_field(f9):
        assert a.frobenius().frobenius() == a
        assert a.frobenius() == a**3


def test_field_mismatch():
    a = build_field(3, 2).one
    b = build_field(5, 2).one
    with pytest.raises(FieldMismatch):
        a + b


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (5, 2), (3, 4)])
def test_algebraic_properties_randomized(p, t):
    f = build_field(p, t)
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (f.element(rng.randrange(f.q)) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (3, 3), (5, 2), (3, 4)])
def test_frobenius_fixed_point_exhaustive(p, t):
    f = build_field(p, t)
    assert f.q <= 81
    for a in enumerate_field(f):
        assert a ** f.q == a


@pytest.mark.parametrize("p,t", [(3, 1), (3, 2), (3, 3), (5, 2), (3, 4)])
def test_multiplicative_group_cyclic(p, t):
    """Some element has order exactly q-1 (exhaustive order computation)."""
    f = build_field(p, t)

    def order(a):
        k, acc = 1, a
        while acc != f.one:
            acc = acc * a
            k += 1
        return k

    orders = {order(a) for a in enumerate_field(f)[1:]}
    assert max(orders) == f.q - 1
    assert all((f.q - 1) % o == 0 for o in orders)


def test_lucas_binomials():
    import math

    for n in range(40):
        for k in range(40):
            for p in (3, 5, 7):
                assert binom_mod_p(n, k, p) == math.comb(n, k) % p if k <= n else True


def test_is_prime_deterministic_miller_rabin():
    # trial division by every d <= 316 decides each n < 10^5
    n = np.arange(10**5)
    composite = n < 2
    for d in range(2, 317):
        composite |= (n % d == 0) & (n > d)
    assert [is_prime(k) for k in range(10**5)] == (~composite).tolist()
    # Carmichael numbers, and the least strong pseudoprimes to the bases
    # {2}, {2,3,5,7}, {2..31} and {2..37}
    for k in (561, 41041, 2047, 3215031751, 3825123056546413051,
              318665857834031151167461, (10**12 + 39) * (10**12 + 61)):
        assert not is_prime(k)
    for k in (65537, 4294967311, 2**61 - 1, 10**18 + 3, 3317044064679887385961813):
        assert is_prime(k)
    # at and above the bound the answer would not be exact
    for k in (3317044064679887385961981, 2**89 - 1, 10**30):
        with pytest.raises(RangeError):
            is_prime(k)
