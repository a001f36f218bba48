"""Number-theoretic support: factorization, multiplicative functions,
Jacobsthal's function, and Chinese-remainder solving.

Everything works on plain Python integers.  Inputs are human-scale, so
factorize() uses trial division and rejects n above FACTOR_INPUT_LIMIT.
Jacobsthal's function is computed exactly from the bit mask of the
residues of the radical that are not coprime to it, in omega + g(n)
bigint operations on a radical-bit int; jacobsthal_run rejects a radical
above JACOBSTHAL_RADICAL_LIMIT, whose masks would not fit in memory.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, NamedTuple

FACTOR_INPUT_LIMIT = 2**63 - 1
# jacobsthal_run holds a few masks of rad(n) bits at once.  Peak RSS,
# CPython 3.11: 68 MB at the prime 99,999,989 just below this limit, 93
# MB at 99,999,985 = 5 * 59 * 257 * 1,319, and 187 MB at radical 2.2e8;
# n = 99,999,999,999 (radical 33,333,333,333) would need 3.9 GiB for
# each mask.
JACOBSTHAL_RADICAL_LIMIT = 10**8


class Congruence(NamedTuple):
    """x = residue (mod modulus)."""

    residue: int
    modulus: int


class JacobsthalRun(NamedTuple):
    """g(n) together with the extremal coprime-free run of residues.

    `start` is the first residue of a longest cyclic run of residues not
    coprime to n (smallest start on ties) and `length` its length, so
    value == length + 1.
    """

    value: int
    start: int
    length: int


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as (prime, exponent) pairs, primes ascending.

    n = 1 gives the empty list.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    if n > FACTOR_INPUT_LIMIT:
        raise ValueError(f"factorize input {n} exceeds {FACTOR_INPUT_LIMIT}")
    out: list[tuple[int, int]] = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


def radical(n: int) -> int:
    """Product of the distinct prime factors; radical(1) = 1."""
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def is_prime(n: int) -> bool:
    """Whether n is prime; like factorize, rejects n above FACTOR_INPUT_LIMIT."""
    return n >= 2 and factorize(n) == [(n, 1)]


def primes_from(start: int) -> Iterator[int]:
    """Yield the primes >= start in increasing order."""
    p = max(start, 2)
    while True:
        if is_prime(p):
            yield p
        p += 1


def periodic_mask(pattern: int, period: int, n: int) -> int:
    """The n-bit mask that repeats the period-bit `pattern` from bit 0:
    bit x is set iff bit x % period of pattern is.

    Built by doubling (r |= r << w), so it costs log2(n / period)
    bigint shifts and ors of at most n bits.
    """
    r, w = pattern, period
    while w < n:
        r |= r << w
        w *= 2
    return r & ((1 << n) - 1)


def unit_mask(n: int) -> int:
    """The residues mod n coprime to n, as a mask: bit x is set iff
    0 <= x < n and gcd(x, n) = 1.

    Start from all n bits and, for each prime p | n, clear the mask of
    the multiples of p below n (periodic_mask of pattern 1 and period
    p): omega(n) masks in place of n gcd calls.
    """
    units = (1 << n) - 1
    for p, _ in factorize(n):
        units &= ~periodic_mask(1, p, n)
    return units


@lru_cache(maxsize=64)
def jacobsthal_run(n: int) -> JacobsthalRun:
    """Jacobsthal's g(n) with the extremal run that attains it.

    g(n) is the least m such that every m consecutive integers contain one
    coprime to n.  Computed as L + 1 where L is the longest cyclic run of
    residues mod n sharing a factor with n; only the radical r matters.
    r - 1 is coprime to r, so no run wraps past r - 1 and the runs are
    those of the non-coprime mask of r.  After m rounds of
    x &= x >> 1 on that mask, bit i survives iff residues i..i+m are all
    non-coprime, so L is one more than the number of rounds that leave a
    bit, and the lowest surviving bit is the smallest start of a longest
    run.  The last 64 answers are kept: a solve asks for g(n) at each
    step that needs it (its bounds, its constructions, scan's record).
    """
    if n < 1:
        raise ValueError(f"jacobsthal needs n >= 1, got {n}")
    if n == 1:
        return JacobsthalRun(1, 0, 0)
    r = radical(n)
    if r > JACOBSTHAL_RADICAL_LIMIT:
        raise ValueError(
            f"jacobsthal({n}): radical {r} exceeds {JACOBSTHAL_RADICAL_LIMIT}"
        )
    run = ((1 << r) - 1) & ~unit_mask(r)  # nonzero: 0 shares every factor
    length = 1
    while run & (run >> 1):
        run &= run >> 1
        length += 1
    start = (run & -run).bit_length() - 1
    return JacobsthalRun(length + 1, start, length)


def jacobsthal(n: int) -> int:
    """Least m such that any m consecutive integers contain a coprime to n."""
    return jacobsthal_run(n).value


def crt_solve(congruences: Iterable[Congruence | tuple[int, int]]) -> Congruence:
    """Solve a system x = r_i (mod m_i) with pairwise coprime moduli.

    Returns the unique solution as a Congruence with modulus prod(m_i).
    Residues may be given outside [0, m_i); they are normalized.  Moduli
    that share a factor are rejected.
    """
    x, m = 0, 1
    for residue, modulus in congruences:
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        g = gcd(m, modulus)
        if g != 1:
            raise ValueError(
                f"moduli not pairwise coprime: gcd({m}, {modulus}) = {g}"
            )
        shift = (residue - x) % modulus
        x += m * (shift * pow(m, -1, modulus) % modulus)
        m *= modulus
    return Congruence(x % m, m)
