import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necklacemap import bijection
from necklacemap.automorphism import AutomorphismTable
from necklacemap.bijection import (
    aligned_turns,
    combine_components,
    encode_components,
    encode_word,
    function_support,
    live_payloads,
    map_necklace,
    unmap_function,
    weighted_sum,
)
from necklacemap.decomposition import orbit_canonical, shift
from necklacemap.dlog import profile
from necklacemap.errors import (
    NecklaceMapError,
    NotInFError,
    RangeViolationError,
    UniquenessViolationError,
)
from necklacemap.fields import ExtensionField
from necklacemap.numtheory import gcd_of_set
from necklacemap.oracle import enum_functions, enum_necklaces
from reference import map_necklace_by_trial


class TestWeightedSum:
    def test_zero_function(self):
        assert weighted_sum(3, (0, 0, 0)) == 0

    def test_constants_vanish_for_odd_n(self):
        for c in range(5):
            assert weighted_sum(5, (c,) * 5) == 0

    def test_worked_image(self):
        assert weighted_sum(3, (6, 9, 9)) == 0

    def test_nonmember(self):
        assert weighted_sum(3, (0, 1, 0)) == 1


class TestEncode:
    def test_worked_components(self, tables_for):
        t = tables_for(3, 10)
        prof = profile(t, (1, 1, 1))
        aut = t.automorphisms.for_support(prof.support)
        payloads = encode_components(t, prof, aut)
        assert payloads == {(0, 0): 3, (1, 0): 0}
        assert combine_components(t, payloads) == (6, 9, 9)

    def test_zero_word_saturates(self, tables_for):
        t = tables_for(3, 10)
        prof = profile(t, (0, 0, 0))
        aut = t.automorphisms.for_support(prof.support)
        assert encode_components(t, prof, aut) == {}

    def test_combine_extremes(self, tables_for):
        t = tables_for(3, 10)
        assert combine_components(t, {}) == (9, 9, 9)
        zeros = {(i, j): 0 for i in range(2) for j in range(2)}
        assert combine_components(t, zeros) == (0, 0, 0)

    def test_all_units_zero_logs(self, tables_for):
        # the constant polynomial 1 has every residue equal to 1 (log 0),
        # so the encoding is the calibration part alone, here all zeros
        t = tables_for(3, 10)
        assert encode_word(t, (1, 0, 0)) == (0, 0, 0)

    @pytest.mark.parametrize("n,q", [(3, 10), (5, 4)])
    def test_live_payloads_invert_combine(self, tables_for, n, q):
        # every payload dict: each coset absent or holding a payload in
        # [0, q_i**size - 1), so every support of the instance is covered
        t = tables_for(n, q)
        pairs, choices = [], []
        for i, block in enumerate(t.blocks):
            for j, coset in enumerate(block.cosets):
                pairs.append((i, j))
                choices.append([None, *range(block.factor.value**coset.size - 1)])
        for picks in product(*choices):
            payloads = {pair: p for pair, p in zip(pairs, picks) if p is not None}
            assert live_payloads(t, combine_components(t, payloads)) == payloads


class TestCodec:
    @pytest.mark.parametrize("n,q", [(3, 10), (5, 4), (9, 2)])
    def test_live_payloads_read_back_the_encoding(self, tables_for, n, q):
        t = tables_for(n, q)
        for word in product(range(q), repeat=n):
            prof = profile(t, word)
            aut = t.automorphisms.for_support(prof.support)
            quotients = [block.quotients for block in t.blocks]
            expected = {
                (i, j): prof.logs[(i, j)] % quotients[i][j].x_exponent
                * quotients[i][j].rotation_order + aligned
                for (i, j), aligned in zip(aut.pairs, aligned_turns(t, prof, aut))
            }
            assert live_payloads(t, encode_word(t, word)) == expected
            supported = [(i, j) for i, live in enumerate(prof.support) for j in live]
            assert list(expected) == supported

    def test_saturated_payload_is_out_of_range(self, tables_for, monkeypatch):
        # the log x_exponent * rotation_order = q_i**size - 1, the all-(q_i - 1) digit
        # block that marks an unsupported coset, is one past the largest log
        t = tables_for(5, 4)
        word = (0, 1, 2, 3, 0)
        j = profile(t, word).support[0][-1]
        qctx, size = t.blocks[0].quotients[j], t.blocks[0].cosets[j].size
        assert qctx.x_exponent * qctx.rotation_order == 4**size - 1
        real = bijection.encode_components

        def saturate(tables, prof, aut, k=0):
            logs = {**prof.logs, (0, j): qctx.x_exponent * qctx.rotation_order}
            return real(tables, replace(prof, logs=logs), aut, k)

        monkeypatch.setattr(bijection, "encode_components", saturate)
        with pytest.raises(RangeViolationError):
            map_necklace(t, word)


class TestMapNecklace:
    def test_worked_instance(self, tables_for):
        assert map_necklace(tables_for(3, 10), (1, 1, 1)) == (6, 9, 9)

    def test_zero_word_maps_to_saturated(self, tables_for):
        assert map_necklace(tables_for(3, 10), (0, 0, 0)) == (9, 9, 9)

    def test_rotation_invariance(self, tables_for):
        t = tables_for(5, 4)
        for word in [(0, 1, 2, 3, 0), (1, 0, 0, 0, 0), (3, 3, 1, 0, 2)]:
            images = {map_necklace(t, shift(word, k)) for k in range(5)}
            assert len(images) == 1

    def test_single_bead_is_bijection(self, tables_for):
        t = tables_for(1, 7)
        images = {map_necklace(t, (c,)) for c in range(7)}
        assert images == {(c,) for c in range(7)}

    def test_image_always_valid(self, tables_for):
        t = tables_for(4, 3)
        for word in product(range(3), repeat=4):
            image = map_necklace(t, word)
            assert weighted_sum(4, image) == 0
            assert all(0 <= c < 3 for c in image)

    def test_q_one_degenerate(self, tables_for):
        t = tables_for(4, 1)
        assert map_necklace(t, (0, 0, 0, 0)) == (0, 0, 0, 0)
        assert unmap_function(t, (0, 0, 0, 0)) == (0, 0, 0, 0)


def outcome(map_fn, tables, word):
    try:
        return "image", map_fn(tables, word)
    except NecklaceMapError as exc:
        return "raises", type(exc)


class TestAgainstTrialMap:
    @pytest.mark.parametrize("n,q", [(3, 10), (5, 4), (9, 2), (5, 6)])
    def test_every_necklace_of_the_certification_pairs(self, tables_for, n, q):
        t = tables_for(n, q)
        for word in enum_necklaces(n, q):
            assert map_necklace(t, word) == map_necklace_by_trial(t, word)

    def test_every_word_of_the_calibration_gap(self, tables_for):
        # (4,5) has strata without a diagonal calibration; both maps must
        # fail there with the same error and agree everywhere else
        t = tables_for(4, 5)
        kinds = set()
        for word in product(range(5), repeat=4):
            result = outcome(map_necklace, t, word)
            assert result == outcome(map_necklace_by_trial, t, word)
            kinds.add(result[0])
        assert kinds == {"image", "raises"}


class TestSolveGuards:
    def test_least_period_is_n_over_step(self, tables_for):
        for n, q in [(3, 10), (5, 4), (9, 2)]:
            t = tables_for(n, q)
            for word in product(range(q), repeat=n):
                step = t.automorphisms.for_support(profile(t, word).support).step
                least = next(d for d in range(1, n + 1) if shift(word, d) == word)
                assert least == n // step

    def test_wrong_rotation_is_caught(self, tables_for, monkeypatch):
        real = bijection.encode_components
        monkeypatch.setattr(
            bijection, "encode_components", lambda t, prof, aut, k=0: real(t, prof, aut, k + 1)
        )
        with pytest.raises(UniquenessViolationError):
            map_necklace(tables_for(5, 4), (0, 1, 2, 3, 0))

    def test_wrong_step_is_caught(self, tables_for, monkeypatch):
        real = AutomorphismTable.for_support
        monkeypatch.setattr(
            AutomorphismTable, "for_support", lambda self, s: replace(real(self, s), step=3)
        )
        # period 9, so the true step is 1: a step of 3 fails one of the checks
        with pytest.raises(UniquenessViolationError):
            map_necklace(tables_for(9, 2), (1, 0, 0, 0, 0, 0, 0, 0, 0))


class TestUnmap:
    def test_worked_instance(self, tables_for):
        assert unmap_function(tables_for(3, 10), (6, 9, 9)) == (1, 1, 1)

    def test_saturated_function(self, tables_for):
        assert unmap_function(tables_for(3, 10), (9, 9, 9)) == (0, 0, 0)

    def test_rejects_nonzero_weighted_sum(self, tables_for):
        with pytest.raises(NotInFError):
            unmap_function(tables_for(3, 10), (0, 1, 0))

    def test_rejects_out_of_range(self, tables_for):
        with pytest.raises(ValueError):
            unmap_function(tables_for(3, 10), (10, 0, 0))

    def test_rejects_non_integer_entries(self, tables_for):
        t = tables_for(3, 10)
        cases = [
            (map_necklace, (1.5, 0, 0), "word color 1.5 "),
            (unmap_function, (6.0, 9, 9), "function value 6.0 "),
            (unmap_function, (6, 9, 9.0), "function value 9.0 "),
        ]
        for fn, entries, message in cases:
            with pytest.raises(ValueError, match=message) as excinfo:
                fn(t, entries)
            assert excinfo.type is ValueError

    def test_generator_is_raised_only_to_the_offset(self, monkeypatch, tables_for):
        # by the shift law, x_powers gives x**turns and the generator takes the offset
        # alone, below x_exponent; where x_exponent = 1 unmap takes no power at all
        ladder = [(5, 6), (7, 10), (13, 6), (63, 2), (11, 12), (33, 4), (17, 3)]
        rng = random.Random(22)
        cases = []
        for n, q in ladder:
            t = tables_for(n, q)
            for _ in range(30):
                word = tuple(rng.randrange(q) for _ in range(n))
                cases.append((t, map_necklace(t, word), orbit_canonical(word)))
        exponents = {
            id(qctx.field): qctx.x_exponent
            for n, q in ladder
            for block in tables_for(n, q).blocks
            for qctx in block.quotients
        }
        powers = []
        pow_ = ExtensionField.pow
        monkeypatch.setattr(
            ExtensionField, "pow", lambda f, a, e: powers.append((id(f), e)) or pow_(f, a, e)
        )
        for t, image, word in cases:
            assert unmap_function(t, image) == word
        assert powers and all(0 < e < exponents[f] for f, e in powers), powers
        once = [
            id(qctx.field) for qctx in tables_for(63, 2).blocks[0].quotients if qctx.x_exponent == 1
        ]
        # the six factors of Phi_63, the two cubics of Phi_7, Phi_3 and x - 1
        assert len(once) == 10 and not {f for f, _ in powers} & set(once)


class TestRoundTrips:
    def test_full_round_trip_3_10(self, tables_for):
        t = tables_for(3, 10)
        for word in product(range(10), repeat=3):
            image = map_necklace(t, word)
            assert unmap_function(t, image) == orbit_canonical(word)

    def test_function_side_round_trip_3_10(self, tables_for):
        t = tables_for(3, 10)
        for values in enum_functions(3, 10):
            word = unmap_function(t, values)
            assert word == orbit_canonical(word)
            assert map_necklace(t, word) == values

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_sampled_5_6(self, tables_for, data):
        t = tables_for(5, 6)
        word = tuple(data.draw(st.integers(0, 5)) for _ in range(5))
        assert unmap_function(t, map_necklace(t, word)) == orbit_canonical(word)


class TestStratumPreservation:
    @pytest.mark.parametrize("n,q", [(3, 10), (5, 4)])
    def test_image_support_matches_word_support(self, tables_for, n, q):
        t = tables_for(n, q)
        for word in product(range(q), repeat=n):
            image = map_necklace(t, word)
            assert function_support(t, image) == profile(t, word).support


class TestThreeFactors:
    """(7,30) splits over three prime powers; too big to enumerate, but
    single mappings and the per-stratum calibration are fully exercisable."""

    def test_round_trips_sampled(self, tables_for):
        import random

        t = tables_for(7, 30)
        rng = random.Random(7)
        for _ in range(20):
            word = tuple(rng.randrange(30) for _ in range(7))
            image = map_necklace(t, word)
            assert weighted_sum(7, image) == 0
            assert unmap_function(t, image) == orbit_canonical(word)

    def test_every_support_calibrates(self, tables_for):
        from necklacemap.counting import stratum_keys

        t = tables_for(7, 30)
        keys = list(stratum_keys(t))
        assert len(keys) == 128
        for key in keys:
            aut = t.automorphisms.for_support(key)
            assert len(aut.units) == sum(len(s) for s in key)


@pytest.mark.parametrize("n,q", [(3, 10), (5, 4)])
def test_weighted_sum_rotation_step(tables_for, n, q):
    """Rotating the word advances the weighted sum by gcd(n, supported reps)."""
    t = tables_for(n, q)
    for word in product(range(q), repeat=n):
        prof = profile(t, word)
        reps = [t.blocks[i].cosets[j].rep for i, live in enumerate(prof.support) for j in live]
        step = gcd_of_set(n, reps) % n
        base = weighted_sum(n, encode_word(t, word))
        for k in range(n):
            rotated = weighted_sum(n, encode_word(t, shift(word, k)))
            assert rotated == (base + k * step) % n
