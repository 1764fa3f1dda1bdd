import math
from itertools import product

import pytest

from necklacemap.counting import (
    binary_zero_sum_count,
    necklace_count,
    stratum_count,
    stratum_keys,
)
from necklacemap.decomposition import orbit_canonical
from necklacemap.errors import EvenNError


def count_orbits_directly(n, q):
    return sum(1 for w in product(range(q), repeat=n) if w == orbit_canonical(w))


def count_zero_sum_subsets(n):
    total = 0
    for mask in range(1 << n):
        s = sum(v for v in range(n) if mask >> v & 1)
        if s % n == 0:
            total += 1
    return total


class TestNecklaceCount:
    def test_3_2(self):
        assert necklace_count(3, 2) == 4 == count_orbits_directly(3, 2)

    def test_single_bead(self):
        for q in (1, 2, 9):
            assert necklace_count(1, q) == q

    def test_3_10(self):
        assert necklace_count(3, 10) == 340

    def test_5_4(self):
        assert necklace_count(5, 4) == 208

    @pytest.mark.parametrize("n,q", [(2, 3), (4, 3), (5, 2), (6, 3), (4, 4)])
    def test_matches_orbit_enumeration(self, n, q):
        assert necklace_count(n, q) == count_orbits_directly(n, q)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            necklace_count(0, 2)

    @pytest.mark.parametrize("q", [2, 3, 10])
    def test_matches_burnside_to_300(self, q):
        # Burnside: the average number of words fixed by the n rotations
        for n in range(1, 301):
            fixed = sum(q ** math.gcd(k, n) for k in range(n))
            assert necklace_count(n, q) * n == fixed, n


class TestBinaryZeroSum:
    def test_3(self):
        assert binary_zero_sum_count(3) == 4 == count_zero_sum_subsets(3)

    def test_1(self):
        assert binary_zero_sum_count(1) == 2

    def test_5(self):
        assert binary_zero_sum_count(5) == 8 == count_zero_sum_subsets(5)

    def test_even_rejected(self):
        with pytest.raises(EvenNError):
            binary_zero_sum_count(4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            binary_zero_sum_count(0)

    def test_odd_matches_enumeration_to_13(self):
        for n in range(1, 14, 2):
            assert binary_zero_sum_count(n) == count_zero_sum_subsets(n)


class TestStratumCount:
    def test_both_cosets_of_3_2(self, tables_for):
        t = tables_for(3, 2)
        assert stratum_count(t, ((0, 1),)) == 1

    def test_empty_support_is_one(self, tables_for):
        for n, q in [(3, 2), (3, 10), (5, 4)]:
            t = tables_for(n, q)
            empty = tuple(() for _ in t.blocks)
            assert stratum_count(t, empty) == 1

    def test_worked_instance(self, tables_for):
        assert stratum_count(tables_for(3, 10), ((0,), (0,))) == 4

    @pytest.mark.parametrize("n,q", [(3, 2), (3, 10), (5, 4), (2, 9), (4, 3)])
    def test_sums_to_total(self, tables_for, n, q):
        t = tables_for(n, q)
        assert sum(stratum_count(t, key) for key in stratum_keys(t)) == necklace_count(n, q)

    def test_key_count(self, tables_for):
        t = tables_for(3, 10)
        assert len(list(stratum_keys(t))) == 16  # 2 cosets per factor, 2 factors

    def test_three_factor_formula_sum(self, tables_for):
        # far beyond enumeration reach; the 128 stratum formulas must still
        # add up to the closed-form orbit count
        t = tables_for(7, 30)
        total = sum(stratum_count(t, key) for key in stratum_keys(t))
        assert total == necklace_count(7, 30) == 3124285740
