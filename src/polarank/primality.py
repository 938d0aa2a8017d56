"""Exact primality of the characteristic, in pure integer arithmetic.

Kept apart from `gf` so that the formula engine (`dimensions`, and through
it `formula`, `table`, `dmatrix`, `posets`) checks p without importing numpy.
"""

from __future__ import annotations

from .errors import RangeError

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
