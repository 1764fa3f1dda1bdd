import math
import random
import time
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import pytest

from necklacemap.automorphism import AutomorphismTable
from necklacemap.counting import stratum_keys
from necklacemap.decomposition import build_tables
from necklacemap.errors import InternalError, NoSolutionError
from necklacemap.numtheory import RingParams, gcd_of_set
from reference import units_by_search


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

    def test_stored_entries_are_validated_once(self, monkeypatch):
        # a repeated support reads the memo and rebuilds no congruence data,
        # while a freshly solved entry is still checked before it is stored
        auts = build_tables(RingParams.create(3, 10)).automorphisms
        built = []
        data = AutomorphismTable._congruence_data

        def counted(self, key):
            built.append(key)
            return data(self, key)

        monkeypatch.setattr(AutomorphismTable, "_congruence_data", counted)
        first = auts.for_support(((1,), (1,)))
        assert built == [((1,), (1,))] * 2  # one to solve, one to validate
        for _ in range(3):
            assert auts.for_support([[1], [1]]) is first
        assert len(built) == 2
        solve = AutomorphismTable._solve
        monkeypatch.setattr(
            AutomorphismTable, "_solve", lambda self, key: replace(solve(self, key), step=7)
        )
        with pytest.raises(InternalError):
            auts.for_support(((0, 1), (1,)))
        assert ((0, 1), (1,)) not in auts._memo and len(built) == 4

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
        with pytest.raises(ValueError):
            t.automorphisms.normalize(((1,),))

    def test_unreachable_diagonal_instance_raises(self):
        # cross-factor congruence 3*h1 + h2 = 1 (mod 4) has no odd solution;
        # the search must report it as a hard failure, not loosen the target
        t = build_tables(RingParams.create(4, 15))
        rep1_block0 = [j for j, c in enumerate(t.blocks[0].cosets) if c.rep == 1]
        rep1_block1 = [j for j, c in enumerate(t.blocks[1].cosets) if c.rep == 1]
        support = (tuple(rep1_block0), tuple(rep1_block1))
        with pytest.raises(NoSolutionError):
            t.automorphisms.for_support(support)

    @pytest.mark.parametrize(
        "n,q",
        [(3, 10), (5, 4), (9, 2), (5, 6), (7, 10), (13, 6), (11, 12), (33, 4)]
        + [(4, 5), (6, 7), (8, 3), (10, 3), (12, 5), (20, 3), (63, 2)],
    )
    def test_matches_backtracking_search(self, tables_for, n, q):
        t = tables_for(n, q)
        supports = list(stratum_keys(t))
        if len(supports) > 1024:  # (63,2) has 8192
            supports = random.Random(6).sample(supports, 64)
        for key in supports:
            try:
                expected = units_by_search(t, key)
            except NoSolutionError:
                with pytest.raises(NoSolutionError):
                    t.automorphisms.for_support(key)
            else:
                assert t.automorphisms.for_support(key).units == expected

    def test_no_tuple_is_reported_in_polynomial_time(self):
        # no diagonal tuple exists; exhausting the unit product of its 14 pairs
        # takes seconds
        t = build_tables(RingParams.create(24, 5))
        full = tuple(tuple(range(len(block.cosets))) for block in t.blocks)
        start = time.perf_counter()
        with pytest.raises(NoSolutionError):
            t.automorphisms.for_support(full)
        assert time.perf_counter() - start < 1.0

    def test_support_deeper_than_the_recursion_limit(self):
        # n = 1200 singleton cosets, as for q = 1 (mod n); 600 odd reps force
        # an even weighted sum against the target 1
        n = 1200
        cosets = [SimpleNamespace(rep=r) for r in range(n)]
        tables = SimpleNamespace(
            params=SimpleNamespace(n=n, weights=(1,)),
            blocks=(SimpleNamespace(cosets=cosets),),
        )
        with pytest.raises(NoSolutionError) as caught:
            AutomorphismTable(tables).for_support((range(n),))
        # a count per factor, not the 1200 coset indices
        assert len(str(caught.value)) < 200

    def test_every_odd_n_pair_in_the_sweep_calibrates(self):
        pairs = []
        n = 2
        while n * 2**n <= 6e4:
            q = 2
            while n * q**n <= 6e4:
                if math.gcd(n, q) == 1:
                    pairs.append((n, q))
                q += 1
            n += 1
        assert len(pairs) == 117
        for n, q in pairs:
            if n % 2:
                t = build_tables(RingParams.create(n, q))
                for key in stratum_keys(t):
                    assert congruence_holds(t, t.automorphisms.for_support(key))


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
        with pytest.raises(ValueError):
            aut.apply_inv((1, 1, 1))
