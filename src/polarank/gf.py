"""Exact arithmetic in GF(p^t).

An element with polynomial-basis coefficients (c_0, ..., c_{t-1}) over GF(p)
is encoded as the integer code sum(c_i * p^i).  Codes 0 and 1 are the field's
zero and one, and ascending code order is the canonical enumeration order.

The modulus is the lexicographically smallest monic irreducible polynomial of
degree t, coefficients compared low-degree-first.  This makes every field
construction reproducible with no external polynomial tables.  (Conway
polynomials are deliberately not used: nothing here compares subfield towers.)

Scalar arithmetic goes through flat lookup tables once the field is touched;
``np_tables`` exposes the same tables as numpy arrays for vectorized work.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CompositeP, DivisionByZero, FieldMismatch, InvariantError, RangeError

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


# -- field spec and elements --------------------------------------------------


class FieldSpec:
    """GF(p^t) with deterministic modulus; elements are integer codes 0..q-1."""

    def __init__(self, p: int, t: int, _token=None):
        if _token is not _BUILD_TOKEN:
            raise TypeError("use build_field(p, t)")
        self.p = p
        self.t = t
        self.q = p**t
        self.modulus = _smallest_irreducible(p, t)
        self._tables = None
        self._np_tables = None

    # encoding ----------------------------------------------------------

    def coeffs(self, code: int) -> tuple:
        """Polynomial-basis coefficient tuple (c_0, ..., c_{t-1}) of a code."""
        out = []
        for _ in range(self.t):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def code(self, coeffs) -> int:
        if len(coeffs) != self.t:
            raise RangeError(f"need {self.t} coefficients, got {len(coeffs)}")
        out = 0
        for c in reversed(coeffs):
            if not 0 <= c < self.p:
                raise RangeError(f"coefficient {c} not reduced mod {self.p}")
            out = out * self.p + c
        return out

    # scalar arithmetic on codes -----------------------------------------

    def _ensure_tables(self):
        if self._tables is not None:
            return self._tables
        p, t, q = self.p, self.t, self.q
        if q > _TABLE_LIMIT:
            raise RangeError(f"q={q} too large for table-backed arithmetic")
        add = [0] * (q * q)
        mul = [0] * (q * q)
        neg = [0] * q
        inv = [0] * q
        if t == 1:
            for a in range(q):
                neg[a] = (-a) % p
                for b in range(q):
                    add[a * q + b] = (a + b) % p
                    mul[a * q + b] = (a * b) % p
        else:
            coeff = [self.coeffs(a) for a in range(q)]
            for a in range(q):
                ca = coeff[a]
                neg[a] = self.code(tuple((-c) % p for c in ca))
                pa = _poly_trim(ca)
                for b in range(a, q):
                    s = self.code(tuple((x + y) % p for x, y in zip(ca, coeff[b])))
                    add[a * q + b] = s
                    add[b * q + a] = s
                    m = _poly_mulmod(pa, _poly_trim(coeff[b]), self.modulus, p)
                    mc = self.code(tuple(m) + (0,) * (t - len(m)))
                    mul[a * q + b] = mc
                    mul[b * q + a] = mc
        for a in range(1, q):
            if inv[a]:
                continue
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    inv[b] = a
                    break
        frob = [self.pow(a, p, _tables=(add, mul, neg, inv, None)) for a in range(q)]
        self._tables = (add, mul, neg, inv, frob)
        return self._tables

    def add(self, a: int, b: int) -> int:
        t = self._ensure_tables()
        return t[0][a * self.q + b]

    def sub(self, a: int, b: int) -> int:
        t = self._ensure_tables()
        return t[0][a * self.q + t[2][b]]

    def neg(self, a: int) -> int:
        return self._ensure_tables()[2][a]

    def mul(self, a: int, b: int) -> int:
        t = self._ensure_tables()
        return t[1][a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.q})")
        return self._ensure_tables()[3][a]

    def pow(self, a: int, n: int, _tables=None) -> int:
        tabs = _tables or self._ensure_tables()
        mul = tabs[1]
        if n < 0:
            if a == 0:
                raise DivisionByZero(f"inverse of 0 in GF({self.q})")
            a = tabs[3][a]
            n = -n
        result, base = 1, a
        while n:
            if n & 1:
                result = mul[result * self.q + base]
            base = mul[base * self.q + base]
            n >>= 1
        return result

    def frobenius(self, a: int) -> int:
        return self._ensure_tables()[4][a]

    def int_code(self, n: int) -> int:
        """Code of the prime-subfield element n mod p."""
        return n % self.p

    def np_tables(self):
        """Numpy views (add, mul, neg, inv, pow) of the scalar tables.

        pow is a q x q array with pow[a, k] = a^k for 0 <= k < q, 0^0 = 1.
        """
        if self._np_tables is None:
            add, mul, neg, inv, _ = self._ensure_tables()
            q = self.q
            dtype = np.uint8 if q <= 255 else np.uint16
            add_a = np.array(add, dtype=dtype).reshape(q, q)
            mul_a = np.array(mul, dtype=dtype).reshape(q, q)
            pow_a = np.ones((q, q), dtype=dtype)
            for a in range(q):
                acc = 1
                for k in range(1, q):
                    acc = mul[acc * q + a]
                    pow_a[a, k] = acc
            self._np_tables = (
                add_a,
                mul_a,
                np.array(neg, dtype=dtype),
                np.array(inv, dtype=dtype),
                pow_a,
            )
        return self._np_tables

    # element-level API ----------------------------------------------------

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldMismatch("element from a different field")
            return value
        if isinstance(value, int):
            if not 0 <= value < self.q:
                raise RangeError(f"code {value} outside [0, {self.q})")
            return FieldElement(self, value)
        return FieldElement(self, self.code(tuple(value)))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.t, self.modulus) == (other.p, other.t, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.t, self.modulus))

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


@dataclass(frozen=True)
class FieldElement:
    """One element of a FieldSpec, in canonical reduced form."""

    field: FieldSpec
    code: int

    @property
    def coeffs(self) -> tuple:
        return self.field.coeffs(self.code)

    def _peer(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("mixed field operands")
            return other.code
        if isinstance(other, int):
            return self.field.int_code(other)
        return None

    def __add__(self, other):
        c = self._peer(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._peer(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.code, c))

    def __rsub__(self, other):
        c = self._peer(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(c, self.code))

    def __mul__(self, other):
        c = self._peer(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._peer(other)
        if c is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.code, self.field.inv(c)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def __pow__(self, n: int):
        return FieldElement(self.field, self.field.pow(self.code, n))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.code))

    def frobenius(self) -> "FieldElement":
        """The image under x -> x^p."""
        return FieldElement(self.field, self.field.frobenius(self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"GF({self.field.q}):{self.coeffs}"


def enumerate_field(spec: FieldSpec) -> list:
    """All q elements in canonical code order (0 first, 1 second)."""
    return [FieldElement(spec, c) for c in range(spec.q)]
