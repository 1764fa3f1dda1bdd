"""Exact integer number theory shared by all other modules.

is_prime is deterministic Miller-Rabin below MILLER_RABIN_BOUND and trial
division at and above it.  factorize is trial division that asks is_prime
about the cofactor at the divisor 1001, and again after each factor past
1001 is divided out, and stops once the cofactor is prime.  So where m's
largest prime divides it once, it takes about max(1001, second-largest
prime) steps.  Set-up factors unit-group orders such as 2**100 - 1 (largest
prime 268 501), primes such as 2**61 - 1 and products such as
2 * 1009 * 1000000000002767 quickly, but nothing bounds the cost of an m
with two large primes, or of a cofactor past MILLER_RABIN_BOUND.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

from .errors import NotCoprimeError


@dataclass(frozen=True)
class PrimePowerFactor:
    """One prime-power block p**t of a factored modulus."""

    p: int
    t: int

    @property
    def value(self) -> int:
        return self.p**self.t

    def __iter__(self):
        return iter((self.p, self.t))


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981  # least strong pseudoprime to all SMALL_PRIMES


def is_prime(m: int) -> bool:
    """Primality of m: below MILLER_RABIN_BOUND by trial division by SMALL_PRIMES, then
    Miller-Rabin to each of them as a base, which no composite there passes (Sorenson and
    Webster, Math. Comp. 86(304), 2017); at and above it by factorize's trial division."""
    if m >= MILLER_RABIN_BOUND:
        return factorize(m) == [PrimePowerFactor(m, 1)]
    if m < 2 or any(m % p == 0 for p in SMALL_PRIMES):
        return m in SMALL_PRIMES
    s = ((m - 1) & -(m - 1)).bit_length() - 1  # m - 1 = d * 2**s, d odd
    for a in SMALL_PRIMES:
        x = pow(a, (m - 1) >> s, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def factorize(m: int, order: str = "desc") -> list[PrimePowerFactor]:
    """Prime-power factorization of m >= 1, ordered by p**t.

    order="desc" (default) sorts prime powers largest first, "asc" smallest
    first.  factorize(1) is the empty product.
    """
    if m < 1:
        raise ValueError(f"cannot factorize {m}; need a positive integer")
    if order not in ("asc", "desc"):
        raise ValueError(f"unknown factor order {order!r}")
    factors = []
    rest, asked = m, 0  # asked: the last cofactor checked past 1001, not found prime
    d = 2
    while d * d <= rest:
        if d >= 1001 and rest != asked:
            if rest < MILLER_RABIN_BOUND and is_prime(rest):
                break
            asked = rest
        if rest % d == 0:
            t = 0
            while rest % d == 0:
                rest //= d
                t += 1
            factors.append(PrimePowerFactor(d, t))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append(PrimePowerFactor(rest, 1))
    factors.sort(key=lambda f: f.value, reverse=(order == "desc"))
    return factors


def euler_phi(m: int) -> int:
    """Count of units modulo m."""
    if m < 1:
        raise ValueError(f"need a positive integer, got {m}")
    result = m
    for p, _ in factorize(m):
        result -= result // p
    return result


def gcd_of_set(n: int, values: Iterable[int]) -> int:
    """gcd of n and every element of values; gcd(n, {}) = gcd(n, {0}) = n."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return reduce(math.gcd, values, n)


@dataclass(frozen=True)
class RingParams:
    """Length n, color count q, and the ordered prime-power split of q.

    weights[i] = q / (q_1 * ... * q_{i+1}) are the mixed-radix weights; they
    satisfy sum((q_i - 1) * w_i) = q - 1, which makes color values in [0, q)
    decompose exactly into per-factor digits.
    """

    n: int
    q: int
    factors: tuple[PrimePowerFactor, ...]
    weights: tuple[int, ...]
    factor_order: str

    @classmethod
    def create(cls, n: int, q: int, factor_order: str = "desc") -> "RingParams":
        if n < 1 or q < 1:
            raise ValueError(f"need positive n and q, got n={n}, q={q}")
        if math.gcd(n, q) != 1:
            raise NotCoprimeError(f"n={n} and q={q} share a factor")
        factors = tuple(factorize(q, order=factor_order))
        weights = []
        running = 1
        for f in factors:
            running *= f.value
            weights.append(q // running)
        if sum((f.value - 1) * w for f, w in zip(factors, weights)) != q - 1:
            raise AssertionError("mixed-radix weight identity failed")
        return cls(n=n, q=q, factors=factors, weights=tuple(weights), factor_order=factor_order)
