"""Unit-tuple automorphisms aligning rotation counters with the weighted sum.

For a given support (which cosets carry a nonzero residue), the rotation
counters of the discrete logs live in a product of cyclic groups
Z_{n/gcd(n, rep)}.  We multiply each coordinate by a unit h so that

    sum_i w_i * sum_{j in support_i} rep_{i,j} * h_{i,j}
        = gcd(n, all reps)  (mod n).

That calibration makes the weighted sum of the encoded function advance by
exactly gcd(n, reps) per rotation, which lets map_necklace solve for the
unique zero-sum rotation instead of trying each one.  A backward pass
over the supported pairs marks the sums mod n that can still reach the
target; a forward pass takes the smallest unit at each pair that stays
reachable.  That gives the lexicographically smallest unit tuple in at
most pairs * n shifts of an n-bit mask, or NoSolutionError when no
diagonal tuple exists (some supports at even n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalError, NoSolutionError
from .numtheory import gcd_of_set

Support = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class UnitAutomorphism:
    """Coordinatewise multiplication by units, one per supported coset.

    `coeffs[k]` is w_i * rep_{i,j} mod n for pair k: what one aligned turn
    of that coset adds to the image's weighted sum.  `step` is
    gcd(n, supported reps), the calibration target: one rotation of the
    word adds step to the weighted sum (step = n when no coset other than
    the one of 0 is supported).
    """

    support: Support
    pairs: tuple[tuple[int, int], ...]
    moduli: tuple[int, ...]
    units: tuple[int, ...]
    coeffs: tuple[int, ...]
    step: int

    def apply(self, turns: tuple[int, ...]) -> tuple[int, ...]:
        """Multiply each rotation counter by its unit."""
        if len(turns) != len(self.units):
            raise ValueError("coordinate count mismatch")
        return tuple(u * t % m for u, t, m in zip(self.units, turns, self.moduli))

    def apply_inv(self, values: tuple[int, ...]) -> tuple[int, ...]:
        """Inverse map: multiply by the modular inverses of the units."""
        if len(values) != len(self.units):
            raise ValueError("coordinate count mismatch")
        return tuple(
            pow(u, -1, m) * v % m for u, v, m in zip(self.units, values, self.moduli)
        )


class AutomorphismTable:
    """Lazy memo of unit tuples per support, keyed by the full support."""

    def __init__(self, tables):
        self._tables = tables
        self._memo: dict[Support, UnitAutomorphism] = {}

    def normalize(self, support) -> Support:
        blocks = self._tables.blocks
        if len(support) != len(blocks):
            raise ValueError("support must list one index set per factor")
        out = []
        for i, idxs in enumerate(support):
            idxs = tuple(sorted(set(idxs)))
            if idxs and not (0 <= idxs[0] and idxs[-1] < len(blocks[i].cosets)):
                raise ValueError(f"coset index out of range in factor {i}")
            out.append(idxs)
        return tuple(out)

    def for_support(self, support) -> UnitAutomorphism:
        key = self.normalize(support)
        hit = self._memo.get(key)
        if hit is not None:  # validated once, when it was stored
            return hit
        solved = self._solve(key)
        self._assert_valid(solved)
        self._memo[key] = solved
        return solved

    def _congruence_data(self, key: Support):
        params = self._tables.params
        n = params.n
        pairs = []
        reps = []
        moduli = []
        coeffs = []
        for i, idxs in enumerate(key):
            w = params.weights[i]
            for j in idxs:
                coset = self._tables.blocks[i].cosets[j]
                pairs.append((i, j))
                reps.append(coset.rep)
                moduli.append(n // math.gcd(n, coset.rep))
                coeffs.append(w * coset.rep % n)
        step = gcd_of_set(n, reps)
        return tuple(pairs), tuple(moduli), tuple(coeffs), step

    def _solve(self, key: Support) -> UnitAutomorphism:
        n = self._tables.params.n
        pairs, moduli, coeffs, step = self._congruence_data(key)
        target = step % n
        choices = [
            (0,) if m == 1 else tuple(u for u in range(1, m) if math.gcd(u, m) == 1)
            for m in moduli
        ]
        # reach[k] has bit s set when a running sum s mod n before pair k can
        # still end on target; n bits per pair keep memory at pairs * n bits
        full = (1 << n) - 1
        reach = [1 << target]
        for c, units in zip(reversed(coeffs), reversed(choices)):
            ahead = reach[-1]
            here = 0
            for a in {c * u % n for u in units}:
                here |= (ahead >> a | ahead << (n - a)) & full
            reach.append(here)
        reach.reverse()
        if not reach[0] & 1:
            raise NoSolutionError(
                f"no diagonal unit tuple matches gcd for a support of "
                f"{[len(idxs) for idxs in key]} cosets per factor at n={n}"
            )
        picked = []
        acc = 0
        for c, units, ahead in zip(coeffs, choices, reach[1:]):
            u = next(u for u in units if ahead >> (acc + c * u) % n & 1)
            picked.append(u)
            acc = (acc + c * u) % n
        return UnitAutomorphism(
            support=key,
            pairs=pairs,
            moduli=moduli,
            units=tuple(picked),
            coeffs=coeffs,
            step=step,
        )

    def _assert_valid(self, aut: UnitAutomorphism) -> None:
        n = self._tables.params.n
        _, moduli, coeffs, step = self._congruence_data(aut.support)
        if (moduli, coeffs, step) != (aut.moduli, aut.coeffs, aut.step):
            raise InternalError("stored congruence data drifted from the coset table")
        acc = 0
        for u, m, c in zip(aut.units, moduli, coeffs):
            if m == 1:
                if u != 0:
                    raise InternalError("nonzero unit stored for a trivial group")
            elif math.gcd(u, m) != 1:
                raise InternalError("stored coordinate is not a unit")
            acc = (acc + c * u) % n
        if acc != step % n:
            raise InternalError("stored unit tuple no longer satisfies its congruence")
