"""Digit types of basis monomials and the graded posets built on them.

A basis monomial prod x_i^{b_i} (0 <= b_i <= q-1, q = p^t) has p-adic digit
rows a_ij with b_i = sum_j a_ij p^j.  Its type is the t-tuple of digit column
sums lambda_j = sum_i a_ij, graded by d = (total degree mod q-1) in [0, q-2].
Types are in bijection with tuples s solving the cyclic system

    lambda_j = p*s_{j+1} - s_j + d_j      (index j+1 taken mod t),

and those tuples, ordered componentwise, control everything downstream: the
unsigned poset H (grading 0, 1 <= s_j <= 2m-1), its graded variants H[d], and
the signed poset S of pairs (s, eps) with eps a subset of the positions where
lambda_j = m(p-1).  The signed order compares eps only on the agreement set
Z(s', s), which is what makes it a genuine partial order rather than a
product order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import InvariantError, NonIntegralSolution, RangeError


def digits_of_int(n: int, p: int, t: int) -> tuple:
    out = []
    for _ in range(t):
        out.append(n % p)
        n //= p
    return tuple(out)


@dataclass(frozen=True)
class LambdaType:
    """Type tuple lambda with its grading class d (least residue mod q-1)."""

    m: int
    p: int
    t: int
    lam: tuple
    d: int

    def __post_init__(self):
        hi = 2 * self.m * (self.p - 1)
        if len(self.lam) != self.t or any(not 0 <= x <= hi for x in self.lam):
            raise RangeError(f"invalid type tuple {self.lam}")

    @property
    def d_digits(self) -> tuple:
        return digits_of_int(self.d, self.p, self.t)


@dataclass(frozen=True)
class HType:
    m: int
    p: int
    t: int
    s: tuple
    d: int = 0

    @property
    def d_digits(self) -> tuple:
        return digits_of_int(self.d, self.p, self.t)

    @cached_property
    def lam(self) -> tuple:
        dd = self.d_digits
        return tuple(
            self.p * self.s[(j + 1) % self.t] - self.s[j] + dd[j]
            for j in range(self.t)
        )

    @property
    def is_extreme(self) -> bool:
        """One of the two trivial-summand tuples in H[0]."""
        return self.d == 0 and (
            all(x == 0 for x in self.s) or all(x == 2 * self.m for x in self.s)
        )

    def j_set(self) -> frozenset:
        """J(s): positions with lambda_j = m(p-1)."""
        mid = self.m * (self.p - 1)
        return frozenset(j for j, l in enumerate(self.lam) if l == mid)

    def __le__(self, other: "HType") -> bool:
        return all(a <= b for a, b in zip(self.s, other.s))


@dataclass(frozen=True)
class SignedHType:
    h: HType
    eps: frozenset

    def __post_init__(self):
        if not self.eps <= self.h.j_set():
            raise RangeError(f"signature {set(self.eps)} not inside J(s)")

    @property
    def s(self) -> tuple:
        return self.h.s

    def key(self):
        return (self.h.s, tuple(sorted(self.eps)))


def type_of(b, m: int, p: int, t: int) -> LambdaType:
    """Type and grading of the monomial with exponent tuple b."""
    q = p**t
    if len(b) != 2 * m or any(not 0 <= x <= q - 1 for x in b):
        raise RangeError(f"exponents must be 2m values in [0, {q - 1}]")
    lam = [0] * t
    for bi in b:
        for j, digit in enumerate(digits_of_int(bi, p, t)):
            lam[j] += digit
    total = sum(b)
    d = total % (q - 1)
    return LambdaType(m, p, t, tuple(lam), d)


def h_type_from_lambda(lt: LambdaType) -> HType:
    """Solve the cyclic digit system for s; exact, no rounding."""
    p, t, q = lt.p, lt.t, lt.p**lt.t
    dd = lt.d_digits
    s = []
    for i in range(t):
        acc = 0
        for j in range(t):
            acc += (lt.lam[j] - dd[j]) * p ** ((j - i) % t)
        if acc % (q - 1) != 0:
            raise NonIntegralSolution(f"type {lt.lam} grading {lt.d}")
        s.append(acc // (q - 1))
    h = HType(lt.m, lt.p, lt.t, tuple(s), lt.d)
    if h.lam != lt.lam:
        raise InvariantError(f"h-type {s} gives type {h.lam}, not {lt.lam}")
    return h


def lambda_from_h_type(h: HType) -> LambdaType:
    return LambdaType(h.m, h.p, h.t, h.lam, h.d)


def _cyclic_ok(s, p, hi, dd):
    t = len(s)
    return all(0 <= p * s[(j + 1) % t] - s[j] + dd[j] <= hi for j in range(t))


def enumerate_H(m: int, p: int, t: int) -> list:
    """The poset H: 1 <= s_j <= 2m-1 with the grading-0 cyclic constraints."""
    hi = 2 * m * (p - 1)
    zero = (0,) * t
    out = [
        HType(m, p, t, s, 0)
        for s in itertools.product(range(1, 2 * m), repeat=t)
        if _cyclic_ok(s, p, hi, zero)
    ]
    out.sort(key=lambda h: h.s)
    return out


def enumerate_H_d(m: int, p: int, t: int, d: int) -> list:
    """H[d]; for d = 0 this is H plus the two extreme tuples."""
    q = p**t
    if not 0 <= d <= q - 2:
        raise RangeError(f"grading d={d} outside [0, {q - 2}]")
    if d == 0:
        out = enumerate_H(m, p, t)
        out.append(HType(m, p, t, (0,) * t, 0))
        out.append(HType(m, p, t, (2 * m,) * t, 0))
        out.sort(key=lambda h: h.s)
        return out
    hi = 2 * m * (p - 1)
    dd = digits_of_int(d, p, t)
    out = [
        HType(m, p, t, s, d)
        for s in itertools.product(range(0, 2 * m), repeat=t)
        if _cyclic_ok(s, p, hi, dd)
    ]
    out.sort(key=lambda h: h.s)
    return out


def enumerate_S(m: int, p: int, t: int, d: int = 0) -> list:
    """The signed poset S (d = 0, over H) or S[d] (over H[d])."""
    hs = enumerate_H(m, p, t) if d == 0 else enumerate_H_d(m, p, t, d)
    out = []
    for h in hs:
        js = sorted(h.j_set())
        for k in range(len(js) + 1):
            for combo in itertools.combinations(js, k):
                out.append(SignedHType(h, frozenset(combo)))
    out.sort(key=SignedHType.key)
    return out


def ideal_below(h: HType) -> list:
    """{s' in H (or H[d]) : s' <= s componentwise}, excluding extremes."""
    lo = 1 if h.d == 0 else 0
    hi = 2 * h.m * (h.p - 1)
    dd = h.d_digits
    out = [
        HType(h.m, h.p, h.t, s, h.d)
        for s in itertools.product(*(range(lo, x + 1) for x in h.s))
        if _cyclic_ok(s, h.p, hi, dd)
    ]
    out.sort(key=lambda x: x.s)
    return out


def z_set(a: HType, b: HType) -> frozenset:
    """Z(a, b): positions where both tuples agree at j, j+1 and lambda_j = m(p-1)."""
    t, p, m = a.t, a.p, a.m
    dd = a.d_digits
    mid = m * (p - 1)
    out = set()
    for j in range(t):
        jn = (j + 1) % t
        if a.s[j] == b.s[j] and a.s[jn] == b.s[jn]:
            if p * a.s[jn] - a.s[j] + dd[j] == mid:
                out.add(j)
    return frozenset(out)


def signed_leq(a: SignedHType, b: SignedHType) -> bool:
    """(s', eps') <= (s, eps): s' <= s and the signatures agree on Z(s', s)."""
    ha, hb = a.h, b.h
    if (ha.m, ha.p, ha.t, ha.d) != (hb.m, hb.p, hb.t, hb.d):
        raise RangeError("signed types from different contexts")
    if not ha <= hb:
        return False
    z = z_set(ha, hb)
    return a.eps & z == b.eps & z


def signed_ideal_below(a: SignedHType) -> list:
    """All signed types <= a."""
    out = []
    for h in ideal_below(a.h):
        js = sorted(h.j_set())
        for k in range(len(js) + 1):
            for combo in itertools.combinations(js, k):
                cand = SignedHType(h, frozenset(combo))
                if signed_leq(cand, a):
                    out.append(cand)
    out.sort(key=SignedHType.key)
    return out


# -- Hasse diagrams -------------------------------------------------------------


def hasse_edges(elements, leq) -> list:
    """Cover pairs (a, b): a < b with nothing strictly between."""
    n = len(elements)
    less = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and leq(elements[i], elements[j]):
                less[i][j] = True
    edges = []
    for i in range(n):
        for j in range(n):
            if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n)):
                edges.append((i, j))
    return edges


def _h_label(h: HType) -> str:
    return "(" + ",".join(map(str, h.s)) + ")"


def _s_label(a: SignedHType) -> str:
    eps = "{" + ",".join(map(str, sorted(a.eps))) + "}"
    return _h_label(a.h) + eps


def hasse_dot(m: int, p: int, t: int, d: int = 0, poset: str = "s") -> str:
    """DOT source for the Hasse diagram of H[d] or S[d]."""
    if poset == "h":
        elems = enumerate_H(m, p, t) if d == 0 else enumerate_H_d(m, p, t, d)
        label = _h_label
        leq = lambda a, b: a <= b
    elif poset == "s":
        elems = enumerate_S(m, p, t, d)
        label = _s_label
        leq = signed_leq
    else:
        raise RangeError(f"poset must be 'h' or 's', got {poset!r}")
    lines = [f'digraph "{poset}_m{m}_p{p}_t{t}_d{d}" {{', "  rankdir=BT;"]
    for i, el in enumerate(elems):
        lines.append(f'  n{i} [label="{label(el)}"];')
    for i, j in hasse_edges(elems, leq):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)
