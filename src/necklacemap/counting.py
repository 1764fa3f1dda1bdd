"""Closed-form cardinalities: orbit counts and stratified counts.

All counts are exact integers; the divisions by n in the formulas are
always exact, so a non-exact division is reported as a broken invariant,
not rounded over.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from .decomposition import CosetTable
from .errors import EnvelopeExceededError, EvenNError, InternalError
from .numtheory import euler_phi, factorize, gcd_of_set

STRATA_LIMIT = 1 << 18  # the most supports stratum_keys lists: (91, 3) has 2**18


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, t in factorize(n):
        out = [d * p**k for d in out for k in range(t + 1)]
    return out


def support_text(support) -> str:
    """A support as the CLI prints it: I_i={j,...} per factor, indices 1-based."""
    parts = []
    for i, idxs in enumerate(support):
        inner = ",".join(str(j + 1) for j in idxs)
        parts.append(f"I_{i + 1}={{{inner}}}")
    return " ".join(parts) if parts else "(no factors)"


def necklace_count(n: int, q: int) -> int:
    """Number of length-n necklaces over q colors (cyclic orbit count)."""
    if n < 1 or q < 1:
        raise ValueError("need positive n and q")
    total = sum(euler_phi(d) * q ** (n // d) for d in _divisors(n))
    if total % n != 0:
        raise InternalError("orbit count is not an integer")
    return total // n


def binary_zero_sum_count(n: int) -> int:
    """Number of subsets of Z_n with zero sum mod n, for odd n: by the correspondence at
    q = 2 it is necklace_count(n, 2), every divisor of an odd n being odd."""
    if n < 1:
        raise ValueError("need positive n")
    if n % 2 == 0:
        raise EvenNError(f"the closed form is stated for odd n, got {n}")
    return necklace_count(n, 2)


def stratum_count(tables: CosetTable, support) -> int:
    """Size of one stratum, on either side of the correspondence.

    gcd(n, reps of supported cosets) / n times the product of the unit
    group orders of the supported quotient fields.  The empty support
    counts exactly the all-saturated function / zero word, i.e. 1.
    """
    support = tables.automorphisms.normalize(support)
    n = tables.params.n
    reps = []
    prod = 1
    for i, idxs in enumerate(support):
        block = tables.blocks[i]
        for j in idxs:
            reps.append(block.cosets[j].rep)
            prod *= block.quotients[j].group_order
    total = gcd_of_set(n, reps) * prod
    if total % n != 0:
        raise InternalError("stratum size is not an integer")
    return total // n


def stratum_keys(tables: CosetTable) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All supports, in a fixed order (subset size, then lexicographic).  More than
    STRATA_LIMIT of them raise EnvelopeExceededError before any is listed."""
    strata = 1 << sum(len(block.cosets) for block in tables.blocks)
    if strata > STRATA_LIMIT:
        raise EnvelopeExceededError(f"{strata} strata, past the {STRATA_LIMIT} listed")
    per_factor = []
    for block in tables.blocks:
        m = len(block.cosets)
        subsets = [
            idxs for size in range(m + 1) for idxs in combinations(range(m), size)
        ]
        per_factor.append(subsets)
    return product(*per_factor)
