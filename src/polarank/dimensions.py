"""Dimension tables and the exact p-rank formulas.

The p-rank of the point-vs-r-flat incidence of W(2m-1, p^t) is 1 + Tr(A^t)
for the (2m-r) x (2m-r) transfer matrix A, for every 1 <= r <= 2m-1.  The
signed (r = m) and unsigned ideal sums, whose cost grows as (2m-r)^t, are
the definition of the rank and are kept as the reference tests compare with.

Everything here is arbitrary-precision integer arithmetic: the eigenvalues
behind the closed forms are quadratic irrationals, so power sums are computed
through the trace/determinant linear recurrence of the transfer matrix rather
than through floats.

d_lambda is the dimension of the degree-lambda piece of the truncated
polynomial ring in 2m variables (all p-th powers of variables killed).  The
transfer matrix reads its (2m-r)^2 entries from the alternating binomial sum,
O(lambda/p) terms each.  The digit-composition count is the independent
oracle: the full table constructor insists the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import CompositeP, InvariantError, ParityError, RangeError, UnsupportedCharacteristic
from .primality import is_prime
from .posets import HType, SignedHType, ideal_below, signed_ideal_below


def require_odd_prime(p: int) -> None:
    if not is_prime(p):
        raise CompositeP(f"p={p} is not prime")
    if p == 2:
        raise UnsupportedCharacteristic("odd p only on this path")


def dim_S_lambda(m: int, p: int, lam: int) -> int:
    """dim of the degree-lam component, by the alternating binomial sum."""
    hi = 2 * m * (p - 1)
    if not 0 <= lam <= hi:
        raise RangeError(f"lambda={lam} outside [0, {hi}]")
    n = 2 * m
    total = 0
    for j in range(lam // p + 1):
        total += (-1) ** j * math.comb(n, j) * math.comb(n - 1 + lam - j * p, n - 1)
    return total


def count_digit_tuples(m: int, p: int, lam: int) -> int:
    """Number of 2m-tuples with entries in [0, p-1] summing to lam (oracle)."""
    counts = _digit_count_poly(m, p)
    return counts[lam] if 0 <= lam < len(counts) else 0


@lru_cache(maxsize=None)
def _digit_count_poly(m: int, p: int) -> tuple:
    """Coefficients of (1 + x + ... + x^(p-1))^(2m), one factor at a time."""
    counts = [1]
    for _ in range(2 * m):
        new = [0] * (len(counts) + p - 1)
        for i, c in enumerate(counts):
            for r in range(p):
                new[i + r] += c
        counts = new
    return tuple(counts)


@dataclass(frozen=True)
class DimensionTable:
    """d_lambda for lambda = 0 .. 2m(p-1), exact."""

    m: int
    p: int
    d: tuple

    def __getitem__(self, lam: int) -> int:
        if not 0 <= lam < len(self.d):
            raise RangeError(f"lambda={lam} outside table")
        return self.d[lam]


@lru_cache(maxsize=None)
def dimension_table(m: int, p: int) -> DimensionTable:
    hi = 2 * m * (p - 1)
    vals = []
    for lam in range(hi + 1):
        formula = dim_S_lambda(m, p, lam)
        oracle = count_digit_tuples(m, p, lam)
        if formula != oracle:
            raise InvariantError(f"d_{lam} for m={m}, p={p}: {formula} != digit count {oracle}")
        vals.append(formula)
    if vals[0] != 1 or vals != vals[::-1] or sum(vals) != p ** (2 * m):
        raise InvariantError(f"d_lambda for m={m}, p={p} is not a symmetric split of p^(2m)")
    return DimensionTable(m, p, tuple(vals))


def dim_S_plus_minus(m: int, p: int) -> tuple:
    """Dimensions of the two middle-degree simple summands, (plus, minus)."""
    if m < 2:
        raise RangeError("m >= 2")
    if p == 2:
        raise UnsupportedCharacteristic("the S+/S- split needs odd p")
    d_mid = dimension_table(m, p)[m * (p - 1)]
    if (d_mid + p**m) % 2 != 0:
        raise ParityError(f"d_mid={d_mid} and p^m={p**m} have different parity")
    return ((d_mid + p**m) // 2, (d_mid - p**m) // 2)


def dim_L_signed(a: SignedHType) -> int:
    """Dimension of the simple module labelled by a signed type."""
    h = a.h
    table = dimension_table(h.m, h.p)
    plus, minus = dim_S_plus_minus(h.m, h.p)
    js = h.j_set()
    out = 1
    for j in range(h.t):
        if j in a.eps:
            out *= plus
        elif j in js:
            out *= minus
        else:
            out *= table[h.lam[j]]
    return out


def dim_Y_signed(a: SignedHType) -> int:
    """Dimension of the span of basis functions with signed types <= a."""
    return sum(dim_L_signed(b) for b in signed_ideal_below(a))


def dim_Y_unsigned(h: HType) -> int:
    """Dimension of the span of monomials with H-types <= s (all signatures)."""
    table = dimension_table(h.m, h.p)
    total = 0
    for b in ideal_below(h):
        prod = 1
        for lam_j in b.lam:
            prod *= table[lam_j]
        total += prod
    return total


def rank_point_flat(m: int, p: int, t: int, r: int) -> int:
    """Formula p-rank of the point-vs-r-flat incidence of W(2m-1, p^t).

    1 + Tr(A^t) for the (2m-r) x (2m-r) transfer matrix A of
    `build_D_matrix(m, p, r)`, for every 1 <= r <= 2m-1.  The reference it
    is tested against is 1 + dim_Y_signed of ((m,...,m), all positions) for
    r = m and 1 + dim_Y_unsigned of (2m-r, ..., 2m-r) for any other r.
    """
    return 1 + build_D_matrix(m, p, r).trace_power(t)


# -- transfer matrix -----------------------------------------------------------


@dataclass(frozen=True)
class DMatrix:
    """Square per-digit dimension matrix; trace of its t-th power gives ranks."""

    m: int
    p: int
    entries: tuple  # tuple of n tuples, 1-based indices shifted down

    def trace_power(self, t: int) -> int:
        if t < 1:
            raise RangeError("t must be positive")
        base = [list(row) for row in self.entries]
        out = None
        while True:  # repeated squaring
            if t & 1:
                out = base if out is None else _int_matmul(out, base)
            t >>= 1
            if not t:
                return sum(out[i][i] for i in range(len(out)))
            base = _int_matmul(base, base)

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(len(self.entries)))

    def det(self) -> int:
        return _int_det([list(r) for r in self.entries])


def _int_matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _int_det(a):
    # Bareiss elimination, exact over the integers
    n = len(a)
    a = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _d_matrix_entries(m: int, p: int, r: int) -> tuple:
    """Transfer-matrix entries; valid at p = 2 as pure combinatorics."""
    hi = 2 * m * (p - 1)

    def d(lam):  # d_lambda = 0 outside [0, 2m(p-1)]
        return dim_S_lambda(m, p, lam) if 0 <= lam <= hi else 0

    n = 2 * m - r
    rows = [[d(p * j - i) for j in range(1, n + 1)] for i in range(1, n + 1)]
    if r == m:
        d_mid = d(m * (p - 1))
        if (d_mid + p**m) % 2 != 0:
            raise ParityError(f"d_mid={d_mid} and p^m={p**m} have different parity")
        rows[m - 1][m - 1] = (d_mid + p**m) // 2
    return tuple(tuple(row) for row in rows)


def build_D_matrix(m: int, p: int, r: int = None) -> DMatrix:
    """The (2m-r) x (2m-r) transfer matrix of r-flats; r defaults to m.

    A[i][j] = d_{p*j - i} for 1 <= i, j <= 2m-r (0 outside the table), except
    that for r = m the (m, m) corner is dim S+.
    """
    require_odd_prime(p)
    if m < 2:
        raise RangeError("m >= 2")
    r = m if r is None else r
    if not 1 <= r <= 2 * m - 1:
        raise RangeError(f"r={r} outside [1, {2 * m - 1}]")
    return DMatrix(m, p, _d_matrix_entries(m, p, r))


def _power_sum(trace: int, det: int, t: int) -> int:
    """a_t = alpha_1^t + alpha_2^t for the roots of x^2 - trace*x + det."""
    a_prev, a_cur = 2, trace
    if t == 0:
        return a_prev
    for _ in range(t - 1):
        a_prev, a_cur = a_cur, trace * a_cur - det * a_prev
    return a_cur


def rank_W3_closed_form(p: int, t: int) -> int:
    """p-rank of the point-line incidence of the m = 2 quadrangle, exact.

    1 + alpha_1^t + alpha_2^t with alpha the eigenvalues of the 2x2 transfer
    matrix; evaluated via the integer recurrence on trace and determinant.
    """
    if p == 2:
        raise UnsupportedCharacteristic("use rank_W3_char2")
    require_odd_prime(p)
    if t < 1:
        raise RangeError("t must be positive")
    d = build_D_matrix(2, p)
    trace = d.trace()
    if trace != p * (p + 1) ** 2 // 2:
        raise InvariantError(f"trace {trace} of the p={p} transfer matrix != p(p+1)^2/2")
    return 1 + _power_sum(trace, d.det(), t)


def rank_W3_char2(t: int) -> int:
    """2-rank of the m = 2 point-line incidence over GF(2^t).

    1 + beta_1^(2t) + beta_2^(2t) with beta = (1 +- sqrt(17))/2, via
    b_n = b_{n-1} + 4 b_{n-2}.  The odd-p closed form specialized to p = 2
    must give the same numbers; that identity is checked here.
    """
    if t < 1:
        raise RangeError("t must be positive")
    b_prev, b_cur = 2, 1  # b_0, b_1
    for _ in range(2 * t - 1):
        b_prev, b_cur = b_cur, b_cur + 4 * b_prev
    via_beta = 1 + b_cur
    d2 = DMatrix(2, 2, _d_matrix_entries(2, 2, 2))
    via_odd_form = 1 + _power_sum(d2.trace(), d2.det(), t)
    if via_beta != via_odd_form:
        raise InvariantError(f"t={t}: beta recurrence {via_beta} != odd-p form {via_odd_form}")
    return via_beta
