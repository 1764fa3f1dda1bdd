from dataclasses import replace
from itertools import product

import math
import pytest

from necklacemap.decomposition import build_tables
from necklacemap.errors import InternalError, NoSolutionError
from necklacemap.numtheory import RingParams, gcd_of_set


def congruence_holds(tables, aut):
    n = tables.params.n
    reps = [tables.blocks[i].cosets[j].rep for i, j in aut.pairs]
    coeffs = tuple(
        tables.params.weights[i] * tables.blocks[i].cosets[j].rep % n for i, j in aut.pairs
    )
    lhs = sum(c * u for c, u in zip(coeffs, aut.units))
    step = gcd_of_set(n, reps)
    return (aut.coeffs, aut.step) == (coeffs, step) and lhs % n == step % n


class TestSolve:
    def test_trivial_groups_worked_instance(self, tables_for):
        aut = tables_for(3, 10).automorphisms.for_support(((0,), (0,)))
        assert aut.units == (0, 0)
        assert aut.moduli == (1, 1)

    def test_nontrivial_worked_instance(self, tables_for):
        # rep 1 cosets on both factors of (3,10): weights (2,1) force (1,2)
        t = tables_for(3, 10)
        aut = t.automorphisms.for_support(((1,), (1,)))
        assert aut.units == (1, 2)
        assert congruence_holds(t, aut)

    def test_empty_support(self, tables_for):
        aut = tables_for(3, 10).automorphisms.for_support(((), ()))
        assert aut.units == () and aut.pairs == ()

    def test_lexicographically_smallest(self, tables_for):
        t = tables_for(3, 10)
        aut = t.automorphisms.for_support(((1,), (1,)))
        smaller = [
            (u0, u1)
            for u0 in (1, 2)
            for u1 in (1, 2)
            if (2 * u0 + u1) % 3 == 1 and (u0, u1) < aut.units
        ]
        assert smaller == []

    @pytest.mark.parametrize("n,q", [(3, 10), (5, 4), (9, 2), (4, 3), (5, 6)])
    def test_all_supports_solve_and_validate(self, tables_for, n, q):
        from necklacemap.counting import stratum_keys

        t = tables_for(n, q)
        for key in stratum_keys(t):
            aut = t.automorphisms.for_support(key)
            assert congruence_holds(t, aut)
            for u, m in zip(aut.units, aut.moduli):
                assert (m == 1 and u == 0) or math.gcd(u, m) == 1

    def test_memoized(self, tables_for):
        t = tables_for(3, 10)
        a1 = t.automorphisms.for_support(((1,), (1,)))
        a2 = t.automorphisms.for_support(((1,), (1,)))
        assert a1 is a2

    def test_drifted_step_is_caught(self, tables_for):
        t = tables_for(3, 10)
        aut = t.automorphisms.for_support(((1,), (1,)))
        with pytest.raises(InternalError):
            t.automorphisms._assert_valid(replace(aut, step=aut.step + 3))

    def test_normalizes_support(self, tables_for):
        t = tables_for(3, 10)
        assert t.automorphisms.for_support([[1, 1], [1]]).support == ((1,), (1,))
        with pytest.raises(ValueError):
            t.automorphisms.for_support(((5,), ()))

    def test_unreachable_diagonal_instance_raises(self):
        # cross-factor congruence 3*h1 + h2 = 1 (mod 4) has no odd solution;
        # the search must report it as a hard failure, not loosen the target
        t = build_tables(RingParams.create(4, 15))
        rep1_block0 = [j for j, c in enumerate(t.blocks[0].cosets) if c.rep == 1]
        rep1_block1 = [j for j, c in enumerate(t.blocks[1].cosets) if c.rep == 1]
        support = (tuple(rep1_block0), tuple(rep1_block1))
        with pytest.raises(NoSolutionError):
            t.automorphisms.for_support(support)


class TestApply:
    def test_apply_on_ones_gives_units(self, tables_for):
        t = tables_for(3, 10)
        aut = t.automorphisms.for_support(((1,), (1,)))
        assert aut.apply((1, 1)) == aut.units

    def test_inverse_round_trip_exhaustive(self, tables_for):
        t = tables_for(3, 10)
        aut = t.automorphisms.for_support(((1,), (1,)))
        for a in product(range(3), repeat=2):
            assert aut.apply_inv(aut.apply(a)) == a

    def test_trivial_groups_map_to_zero(self, tables_for):
        aut = tables_for(3, 10).automorphisms.for_support(((0,), (0,)))
        assert aut.apply((0, 0)) == (0, 0)
        assert aut.apply_inv((0, 0)) == (0, 0)

    @pytest.mark.parametrize("n,q", [(3, 10), (5, 4)])
    def test_bijective_on_product_group(self, tables_for, n, q):
        from necklacemap.counting import stratum_keys

        t = tables_for(n, q)
        for key in stratum_keys(t):
            aut = t.automorphisms.for_support(key)
            size = math.prod(aut.moduli)
            if size > 10**4:
                continue
            domain = list(product(*(range(m) for m in aut.moduli)))
            images = {aut.apply(a) for a in domain}
            assert len(images) == size

    @pytest.mark.parametrize("n,q", [(3, 10), (5, 4)])
    def test_translation_by_diagonal_ones(self, tables_for, n, q):
        """apply(a + k*1) = apply(a) + k*units, the step the rotation law needs."""
        from necklacemap.counting import stratum_keys

        t = tables_for(n, q)
        for key in stratum_keys(t):
            aut = t.automorphisms.for_support(key)
            if math.prod(aut.moduli) > 10**3:
                continue
            for a in product(*(range(m) for m in aut.moduli)):
                image = aut.apply(a)
                for k in range(n):
                    shifted = tuple((x + k) % m for x, m in zip(a, aut.moduli))
                    expected = tuple(
                        (v + k * u) % m for v, u, m in zip(image, aut.units, aut.moduli)
                    )
                    assert aut.apply(shifted) == expected

    def test_length_mismatch(self, tables_for):
        aut = tables_for(3, 10).automorphisms.for_support(((1,), (1,)))
        with pytest.raises(ValueError):
            aut.apply((1,))
