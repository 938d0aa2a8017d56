"""Exact arithmetic in GF(p^t).

An element with polynomial-basis coefficients (c_0, ..., c_{t-1}) over GF(p)
is encoded as the integer code sum(c_i * p^i).  Codes 0 and 1 are the field's
zero and one, and ascending code order is the canonical enumeration order.

The modulus is the lexicographically smallest monic irreducible polynomial of
degree t, coefficients compared low-degree-first.  This makes every field
construction reproducible with no external polynomial tables.  (Conway
polynomials are deliberately not used: nothing here compares subfield towers.)

Each field builds one set of tables (add, mul, neg, inv, pow), vectorized
over the digit arrays of all q codes, the first time it is used.
``np_tables`` returns them as numpy arrays; the scalar methods index flat
list views of the same arrays.  ``build_field`` makes one FieldSpec per
(p, t), so fields are equal exactly when they are the same object.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CompositeP, DivisionByZero, InvariantError, RangeError

_TABLE_LIMIT = 4096  # largest q for which full q*q tables are built


# Miller-Rabin with the prime bases 2..41 has no strong pseudoprime below
# this bound (Sorenson & Webster, 2015), so the test is exact there
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality, exact for n < 3.3e24.

    Larger n raise RangeError rather than get a probable answer.
    """
    if n >= _MR_BOUND:
        raise RangeError(f"{n} is beyond the exact primality test (< {_MR_BOUND})")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        # n passes base a if a^d = 1 or a^(d 2^i) = -1 for some i < s
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def binom_mod_p(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p by Lucas' theorem."""
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        out = out * (_small_binom(ni, ki) % p) % p
        n //= p
        k //= p
    return out


@functools.cache
def _small_binom(n: int, k: int) -> int:
    import math

    return math.comb(n, k)


# -- polynomial helpers on coefficient tuples over GF(p) ---------------------


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, mod, p)


def _poly_mod(a, mod, p):
    a = list(a)
    t = len(mod) - 1
    for k in range(len(a) - 1, t - 1, -1):
        c = a[k]
        if c:
            a[k] = 0
            for i in range(t):
                a[k - t + i] = (a[k - t + i] - c * mod[i]) % p
    return _poly_trim(tuple(a))


def _poly_rem(a, b, p):
    """Remainder of a by b (b nonzero), coefficients mod p."""
    r = list(_poly_trim(tuple(a)))
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        c = r[-1] * inv_lead % p
        shift = len(r) - len(b)
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bi) % p
        r = list(_poly_trim(tuple(r)))
    return tuple(r)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(tuple(a)), _poly_trim(tuple(b))
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _is_irreducible(poly, p):
    """Rabin's test for a monic polynomial over GF(p).

    Residues mod poly are length-t coefficient vectors, and g -> g^p is a
    linear map on them, so x^(p^k) takes k matrix-vector products.
    """
    t = len(poly) - 1
    if t == 1:
        return True
    if poly[0] == 0 or sum(poly) % p == 0:  # X or X - 1 divides it
        return False
    # every sum below is at most t*(p-1)^2; float64 holds such integers
    # exactly below 2^53 and takes the BLAS product path
    eye = np.eye(t, dtype=np.float64 if t * (p - 1) ** 2 < 2**53 else object)
    by_x = np.roll(eye, 1, axis=0)  # the matrix of h -> x*h mod poly
    by_x[:, -1] = [-c % p for c in poly[:t]]
    by_xp, e = eye, p  # h -> x^p * h, by square-and-multiply
    while e:
        if e & 1:
            by_xp = by_xp @ by_x % p
        e >>= 1
        if e:
            by_x = by_x @ by_x % p
    cols = [eye[0]]  # the Frobenius matrix, columns x^(p*i)
    for _ in range(t - 1):
        cols.append(by_xp @ cols[-1] % p)
    frob = np.stack(cols, axis=1)
    x = eye[1]
    powers = [x]  # x^(p^k) for k = 0..t
    for _ in range(t):
        powers.append(frob @ powers[-1] % p)
    if not np.array_equal(powers[t], x):
        return False
    # no factor of degree t/r for prime divisors r of t
    for r in _prime_divisors(t):
        diff = _poly_sub(tuple(int(c) for c in powers[t // r]), (0, 1), p)
        if len(_poly_gcd(poly, diff, p)) > 1:
            return False
    return True


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _poly_trim(tuple(out))


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _smallest_irreducible(p, t):
    """First monic irreducible of degree t in ascending code order.

    Candidate (c_0, ..., c_{t-1}, 1) is scanned by the integer sum(c_i p^i),
    the same order elements are enumerated in, so GF(9) gets X^2+1 and GF(25)
    gets X^2+2.
    """
    if t == 1:
        return (0, 1)  # the polynomial X
    for code in range(p**t):
        tail = []
        c = code
        for _ in range(t):
            tail.append(c % p)
            c //= p
        poly = tuple(tail) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise InvariantError(f"no irreducible of degree {t} over GF({p})")


# -- the field ------------------------------------------------------------------


class FieldSpec:
    """GF(p^t) with deterministic modulus; elements are integer codes 0..q-1.

    `build_field` makes one object per (p, t), so fields compare by identity.
    """

    def __init__(self, p: int, t: int, _token=None):
        if _token is not _BUILD_TOKEN:
            raise TypeError("use build_field(p, t)")
        self.p = p
        self.t = t
        self.q = p**t
        self.modulus = _smallest_irreducible(p, t)

    @functools.cached_property
    def _np_tables(self):
        """(add, mul, neg, inv, pow), vectorized over the digits of all q codes."""
        p, t, q = self.p, self.t, self.q
        if q > _TABLE_LIMIT:
            raise RangeError(f"q={q} too large for table-backed arithmetic")
        place = p ** np.arange(t)
        digits = np.arange(q)[:, None] // place % p  # digits[b, i]: coefficient of x^i in b
        add = ((digits[:, None] + digits[None]) % p) @ place
        neg = (-digits % p) @ place
        # x^i * b for every b, by shift-and-reduce with x^t = -(m_0 + ... + m_{t-1} x^(t-1))
        low = np.array(self.modulus[:t])
        shifted, prod = digits, digits[:, None, 0, None] * digits[None]
        for i in range(1, t):
            up = np.zeros_like(shifted)
            up[:, 1:] = shifted[:, :-1]
            shifted = (up - shifted[:, -1:] * low) % p
            prod = prod + digits[:, None, i, None] * shifted[None]
        mul = (prod % p) @ place
        inv = np.argmax(mul == 1, axis=1)  # 0 for code 0, which has no 1 in its row
        pow_ = np.ones((q, q), dtype=mul.dtype)  # pow[a, k] = a^k for k < q, 0^0 = 1
        for k in range(1, q):
            pow_[:, k] = mul[pow_[:, k - 1], np.arange(q)]
        dtype = np.uint8 if q <= 255 else np.uint16
        return tuple(a.astype(dtype) for a in (add, mul, neg, inv, pow_))

    def np_tables(self):
        """Numpy tables (add, mul, neg, inv, pow) of the field.

        pow is a q x q array with pow[a, k] = a^k for 0 <= k < q, 0^0 = 1.
        """
        return self._np_tables

    @functools.cached_property
    def _lists(self):
        # flat list views of the same tables, for fast scalar lookups
        return tuple(a.ravel().tolist() for a in self._np_tables)

    # scalar arithmetic on codes -----------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._lists[0][a * self.q + b]

    def sub(self, a: int, b: int) -> int:
        lists = self._lists
        return lists[0][a * self.q + lists[2][b]]

    def neg(self, a: int) -> int:
        return self._lists[2][a]

    def mul(self, a: int, b: int) -> int:
        return self._lists[1][a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.q})")
        return self._lists[3][a]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        if n >= self.q:  # a^(q-1) = 1 for a != 0, and 0^n = 0 for n > 0
            n = (n - 1) % (self.q - 1) + 1
        return self._lists[4][a * self.q + n]

    def __repr__(self):
        return f"FieldSpec(p={self.p}, t={self.t}, modulus={self.modulus})"


_BUILD_TOKEN = object()


@functools.cache
def build_field(p: int, t: int) -> FieldSpec:
    """Construct GF(p^t) with the deterministic modulus."""
    if not is_prime(p):
        raise CompositeP(f"p={p} is not prime")
    if t < 1:
        raise RangeError(f"t={t} must be positive")
    return FieldSpec(p, t, _token=_BUILD_TOKEN)
