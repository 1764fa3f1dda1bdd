import math
import os
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from necklacemap import bijection, dlog, oracle
from necklacemap.counting import support_text
from necklacemap.decomposition import build_tables, shift
from necklacemap.errors import EnvelopeExceededError
from necklacemap.numtheory import RingParams
from necklacemap.oracle import (
    enum_functions,
    enum_necklaces,
    verify_bijection,
    verify_shift_lemma,
)
from reference import functions_by_filter, necklaces_by_filter, shift_lemma_holds_all_k

# coprime (n, q), n >= 2, with n * q**n <= 2 * 10**4; n = 1 only for q < 200, as
# the filters would read 2 * 10**8 one-letter words for every q up to 2 * 10**4
GENERATED_PAIRS = [(1, q) for q in range(1, 200)] + [
    (n, q) for n in range(2, 11) for q in range(2, 101)
    if n * q**n <= 2 * 10**4 and math.gcd(n, q) == 1
]


class TestEnumNecklaces:
    def test_3_2_exact_list(self):
        assert enum_necklaces(3, 2) == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]

    def test_single_bead(self):
        assert enum_necklaces(1, 5) == [(c,) for c in range(5)]

    def test_3_10_count(self):
        assert len(enum_necklaces(3, 10)) == 340

    def test_generation_matches_the_filter(self):
        for n, q in GENERATED_PAIRS:
            assert enum_necklaces(n, q) == necklaces_by_filter(n, q), (n, q)

    def test_envelope(self):
        with pytest.raises(EnvelopeExceededError):
            enum_necklaces(10, 10)
        with pytest.raises(EnvelopeExceededError):
            enum_necklaces(3, 10, limit=100)


@pytest.mark.parametrize("enum", [enum_necklaces, enum_functions])
@pytest.mark.parametrize("n,q", [(3, 0), (0, 2), (3, -1), (-1, 2)])
def test_nonpositive_n_or_q_is_refused(enum, n, q):
    message = f"need positive n and q, got n={n}, q={q}"
    if q > 0:
        with pytest.raises(ValueError, match=f"^{message}$"):
            enum(n, q)
        return
    # n * q**n <= 0 passed the envelope, and enum_necklaces(3, q) listed words with
    # colours outside [0, q) until memory ran out: a child process with 512 MB of
    # address space and 10 s keeps a regression from hanging the suite
    child = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "soft = 2**29 if hard == resource.RLIM_INFINITY else min(2**29, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        f"from necklacemap.oracle import {enum.__name__}\n"
        f"try:\n    {enum.__name__}({n}, {q})\n"
        "except ValueError as error:\n    sys.exit(str(error))\n"
    )
    paths = [str(Path(oracle.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=10)
    assert (done.returncode, done.stderr) == (1, message + "\n")


class TestEnumFunctions:
    def test_3_2(self):
        fs = enum_functions(3, 2)
        assert len(fs) == 4
        assert all(f[1] == f[2] for f in fs)

    def test_single_bead(self):
        assert enum_functions(1, 7) == [(c,) for c in range(7)]

    def test_3_10_count(self):
        assert len(enum_functions(3, 10)) == 340

    def test_generation_matches_the_filter(self):
        for n, q in GENERATED_PAIRS:
            assert enum_functions(n, q) == functions_by_filter(n, q), (n, q)

    def test_envelope(self):
        with pytest.raises(EnvelopeExceededError):
            enum_functions(12, 6)


class TestVerify:
    def test_trivial_pair(self):
        report = verify_bijection(1, 5)
        assert report.all_ok
        assert report.necklace_total == report.function_total == 5

    def test_single_color_degenerate(self):
        # q = 1: one word, one function, everything trivially certifies
        for n in (1, 2, 4):
            report = verify_bijection(n, 1)
            assert report.all_ok
            assert report.necklace_total == report.function_total == 1

    def test_3_2(self):
        report = verify_bijection(3, 2)
        assert report.all_ok
        assert report.necklace_total == 4

    def test_flag_names(self):
        report = verify_bijection(2, 3)
        assert list(report.flags) == [
            "total",
            "injective",
            "surjective",
            "inverse_ok",
            "shift_lemma_ok",
            "stratum_ok",
        ]

    def test_payload_counts_are_strings(self):
        payload = verify_bijection(3, 2).to_payload()
        assert payload["necklaces"] == "4" and payload["functions"] == "4"
        assert payload["certified"] is True
        assert "elapsed" not in repr(payload)
        for rec in payload["strata"]:
            assert isinstance(rec["formula"], str)

    def test_strata_agree_three_ways(self):
        report = verify_bijection(3, 4)
        for rec in report.strata:
            assert rec.formula == rec.necklace_side == rec.function_side

    def test_envelope_guard(self):
        with pytest.raises(EnvelopeExceededError):
            verify_bijection(3, 10, limit=10)

    def test_stage_seconds_cover_the_four_checks(self):
        report = verify_bijection(5, 4)
        assert list(report.stage_seconds) == ["map", "inverse", "rotation law", "strata"]
        assert all(s >= 0 for s in report.stage_seconds.values())
        assert sum(report.stage_seconds.values()) <= report.elapsed
        assert replace(report, stage_seconds={}) == report  # not part of the outcome

    def test_no_necklace_is_split(self, tables_for, monkeypatch):
        # the necklaces' supports come from their profiles; only the 349 words that are not
        # fully supported are split, less the 73 necklaces among them
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        genuine = dlog.split_support
        necklaces = enum_necklaces(5, 4)
        partial_necklaces = sum(genuine(tables, w) != full for w in necklaces)
        partial_words = sum(genuine(tables, w) != full for w in product(range(4), repeat=5))
        assert (partial_necklaces, partial_words) == (73, 349)
        calls = []

        def counted(tables_arg, word):
            calls.append(word)
            return genuine(tables_arg, word)

        monkeypatch.setattr(oracle, "split_support", counted)
        assert verify_bijection(5, 4).all_ok
        assert len(calls) == partial_words - partial_necklaces == 276
        assert not set(calls) & set(necklaces)

    def test_each_necklace_is_profiled_once(self, tables_for, monkeypatch):
        # the 208 necklaces, the word x, and the 540 other rotations of the 135 fully
        # supported orbits (675 fully supported words); the map profiles nothing itself
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        necklaces = enum_necklaces(5, 4)
        full_necklaces = sum(dlog.split_support(tables, w) == full for w in necklaces)
        assert (len(necklaces), full_necklaces) == (208, 135)
        calls, map_calls = [], []
        genuine = dlog.profile

        def counted(tables_arg, word):
            calls.append(word)
            return genuine(tables_arg, word)

        def map_counted(tables_arg, word):
            map_calls.append(word)
            return genuine(tables_arg, word)

        monkeypatch.setattr(oracle, "profile", counted)
        monkeypatch.setattr(bijection, "profile", map_counted)
        assert verify_bijection(5, 4).all_ok
        assert len(calls) == len(necklaces) + 1 + (675 - full_necklaces) == 749
        assert map_calls == []
        assert all(calls.count(w) == 1 for w in necklaces)

    def test_the_walk_judges_the_map_pass_profile(self, tables_for, monkeypatch):
        # one offset of one fully supported necklace's profile moves by one; the necklace
        # is profiled once, so the walk fails on the very profile the map pass used
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        i, j = _rotating_pair(tables)
        x_exponent = tables.blocks[i].quotients[j].x_exponent
        genuine = dlog.profile
        target = next(
            w for w in enum_necklaces(5, 4)
            if (prof := genuine(tables, w)).support == full
            and prof.logs[i, j] % x_exponent + 1 < x_exponent
        )
        calls = []

        def perturbed(tables_arg, word):
            prof = genuine(tables_arg, word)
            if tuple(word) != target:
                return prof
            calls.append(word)
            return _moved(tables, prof, (i, j), "offset")

        monkeypatch.setattr(oracle, "profile", perturbed)
        report = verify_bijection(5, 4)
        assert report.flags["shift_lemma_ok"] is False
        assert calls == [target]

    def test_a_passing_run_names_no_counterexample(self):
        report = verify_bijection(5, 4)
        assert report.all_ok and report.counterexamples == {}

    def test_failed_map_checks_name_their_first_counterexample(self, monkeypatch):
        # (3,2): the necklaces 000, 001, 011, 111; 001 takes 011's image, then an image
        # that is not a function
        genuine = oracle.map_profiled
        images = {w: bijection.map_necklace(build_tables(RingParams.create(3, 2)), w)
                  for w in enum_necklaces(3, 2)}
        swap = {(0, 0, 1): images[(0, 1, 1)]}
        monkeypatch.setattr(
            oracle, "map_profiled", lambda t, w, p: swap.get(w) or genuine(t, w, p)
        )
        report = verify_bijection(3, 2)
        missed = ",".join(map(str, images[(0, 0, 1)]))
        shared = ",".join(map(str, images[(0, 1, 1)]))
        assert report.counterexamples["injective"] == (
            f"necklaces 0,0,1 and 0,1,1 both map to {shared}"
        )
        assert report.counterexamples["surjective"] == f"no necklace maps to {missed}"
        assert "total" not in report.counterexamples
        # (0, 1, 0) has weighted sum 1; the inverse pass, which would refuse it, is stubbed
        swap[(0, 0, 1)] = (0, 1, 0)
        genuine_unmap = oracle.unmap_function
        monkeypatch.setattr(
            oracle, "unmap_function", lambda t, v: (0, 0, 1) if v == (0, 1, 0) else genuine_unmap(t, v)
        )
        report = verify_bijection(3, 2)
        assert report.counterexamples["total"] == "necklace 0,0,1 maps to 0,1,0, not a function"
        assert report.counterexamples["surjective"] == f"no necklace maps to {missed}"

    @pytest.mark.parametrize("stray", [(2, 0, 0), (0, 1, 0)])
    def test_a_stray_image_is_reported_and_never_unmapped(self, monkeypatch, stray):
        # (2, 0, 0) has a value outside [0, 2) and (0, 1, 0) weighted sum 1: neither is a
        # function, so 0,0,1's image fails total and inverse_ok under one text
        genuine, genuine_unmap = oracle.map_profiled, oracle.unmap_function
        monkeypatch.setattr(
            oracle, "map_profiled", lambda t, w, p: stray if w == (0, 0, 1) else genuine(t, w, p)
        )
        unmapped = []

        def recorded(tables_arg, values):
            unmapped.append(values)
            return genuine_unmap(tables_arg, values)

        monkeypatch.setattr(oracle, "unmap_function", recorded)
        report = verify_bijection(3, 2)
        failed = {"total", "surjective", "inverse_ok"}
        assert report.flags == {name: name not in failed for name in report.flags}
        assert len(report.flags) == 6
        text = f"necklace 0,0,1 maps to {','.join(map(str, stray))}, not a function"
        assert report.counterexamples["total"] == report.counterexamples["inverse_ok"] == text
        assert stray not in unmapped

    def test_strata_that_miss_a_stratum_fail_on_their_sums(self, monkeypatch):
        # without the empty support each listed stratum still agrees three ways, and only
        # the sums show the missing zero word and all-saturated function
        genuine = oracle.stratum_keys
        monkeypatch.setattr(oracle, "stratum_keys", lambda t: (k for k in genuine(t) if any(k)))
        report = verify_bijection(3, 2)
        assert report.flags == {name: name != "stratum_ok" for name in report.flags}
        assert report.counterexamples == {
            "stratum_ok": "the strata's formulas sum to 3 for 4 necklaces and 4 functions"
        }


def _rotating_pair(tables):
    """The first coset (i, j) whose turns move under a shift."""
    return next(
        (i, j)
        for i, block in enumerate(tables.blocks)
        for j, qctx in enumerate(block.quotients)
        if qctx.rotation_order > 1
    )


def _moved(tables, prof, pair, field):
    """`prof` with the offset of its log at `pair` moved by one (the log plus one), or its
    turns by one (the log plus x_exponent, mod group_order)."""
    qctx, log = tables.blocks[pair[0]].quotients[pair[1]], prof.logs[pair]
    log = log + 1 if field == "offset" else (log + qctx.x_exponent) % qctx.group_order
    return replace(prof, logs={**prof.logs, pair: log})


class TestShiftLemma:
    @pytest.mark.parametrize("n,q", [(3, 10), (1, 7), (7, 2), (5, 4), (9, 2)])
    def test_holds(self, tables_for, n, q):
        # the one-step check and the all-k reference agree
        assert verify_shift_lemma(n, q) is True
        assert shift_lemma_holds_all_k(tables_for(n, q)) is True

    def test_envelope_guard(self):
        with pytest.raises(EnvelopeExceededError):
            verify_shift_lemma(20, 20)

    @pytest.mark.parametrize("field", ["offset", "turns"])
    def test_perturbed_profile_fails_both_checks(self, tables_for, monkeypatch, field):
        # one fully supported, non-constant word of (5,4) gets an offset
        # moved by one, or a turn off by one, on a coset of rotation order 5
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        genuine = dlog.profile
        target = next(w for w in product(range(4), repeat=5) if genuine(tables, w).support == full)
        i, j = _rotating_pair(tables)

        def perturbed(tables_arg, word):
            prof = genuine(tables_arg, word)
            if tuple(word) != target:
                return prof
            return _moved(tables, prof, (i, j), field)

        monkeypatch.setattr(oracle, "profile", perturbed)
        monkeypatch.setattr(dlog, "profile", perturbed)
        assert oracle._shift_lemma_holds(tables, enum_necklaces(5, 4)) is False
        assert shift_lemma_holds_all_k(tables) is False

    @pytest.mark.parametrize("position", range(5))
    @pytest.mark.parametrize("field", ["offset", "turns"])
    def test_perturbed_rotation_fails_the_walk(self, tables_for, monkeypatch, field, position):
        # each rotation of one fully supported (5,4) orbit in turn; the pair
        # of the last rotation wraps back to the necklace
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        necklaces = enum_necklaces(5, 4)
        necklace = next(w for w in necklaces if dlog.split_support(tables, w) == full)
        target = shift(necklace, position)
        assert len({shift(necklace, k) for k in range(5)}) == 5
        i, j = _rotating_pair(tables)
        genuine = dlog.profile

        def perturbed(tables_arg, word):
            prof = genuine(tables_arg, word)
            if tuple(word) != target:
                return prof
            return _moved(tables, prof, (i, j), field)

        monkeypatch.setattr(oracle, "profile", perturbed)
        assert oracle._shift_lemma_holds(tables, necklaces) is False

    def test_support_changing_along_an_orbit_fails_the_walk(self, tables_for, monkeypatch):
        # one rotation of a partly supported (5,4) orbit reports the full support
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        necklaces = enum_necklaces(5, 4)
        genuine = dlog.split_support
        necklace = next(w for w in necklaces if len(set(w)) > 1 and genuine(tables, w) != full)
        target = shift(necklace, 3)

        def perturbed(tables_arg, word):
            return full if tuple(word) == target else genuine(tables_arg, word)

        assert oracle._shift_lemma_holds(tables, necklaces) is True
        monkeypatch.setattr(oracle, "split_support", perturbed)
        assert oracle._shift_lemma_holds(tables, necklaces) is False

    def test_shared_support_is_judged_on_every_rotation(self, tables_for, monkeypatch):
        # the walk takes each necklace's support from its split; one partly supported
        # necklace whose split reports the full support must fail against its rotations
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        necklaces = enum_necklaces(5, 4)
        genuine = dlog.split_support
        necklace = next(w for w in necklaces if len(set(w)) > 1 and genuine(tables, w) != full)
        assert oracle._shift_lemma_holds(tables, necklaces) is True

        def perturbed(tables_arg, word):
            return full if tuple(word) == necklace else genuine(tables_arg, word)

        monkeypatch.setattr(oracle, "split_support", perturbed)
        assert oracle._shift_lemma_holds(tables, necklaces) is False

    @pytest.mark.parametrize("n,q", [(5, 4), (3, 10)])
    def test_the_walk_never_rotates_a_profile(self, tables_for, monkeypatch, n, q):
        # the walk profiles each rotation from its own split, never by the map's shift
        # law (k added to the word's turns before they are aligned and encoded)
        def refused(*args):
            raise AssertionError("the map's shift law was read")

        monkeypatch.setattr(bijection, "aligned_turns", refused)
        monkeypatch.setattr(bijection, "encode_components", refused)
        assert oracle._shift_lemma_holds(tables_for(n, q), enum_necklaces(n, q)) is True

    def test_verify_shift_lemma_streams_its_necklaces(self, monkeypatch):
        # the standalone check walks the necklaces as they are generated, with no list
        def refused(*args):
            raise AssertionError("enum_necklaces called")

        monkeypatch.setattr(oracle, "enum_necklaces", refused)
        assert verify_shift_lemma(5, 4) is True

    def test_missing_necklace_fails_the_walk(self, tables_for):
        tables = tables_for(5, 4)
        assert oracle._shift_lemma_holds(tables, enum_necklaces(5, 4)[:-1]) is False

    def test_one_profile_per_fully_supported_word(self, tables_for, monkeypatch):
        # the word x, then each fully supported word once: 675 of the 4^5
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        fully_supported = sum(
            dlog.split_support(tables, w) == full for w in product(range(4), repeat=5)
        )
        calls = []
        genuine = dlog.profile

        def counted(tables_arg, word):
            calls.append(word)
            return genuine(tables_arg, word)

        monkeypatch.setattr(oracle, "profile", counted)
        assert oracle._shift_lemma_holds(tables, enum_necklaces(5, 4)) is True
        assert len(calls) == 1 + fully_supported == 676


class TestMembershipRule:
    def test_accepts_every_listed_function(self):
        for n, q in GENERATED_PAIRS:
            assert all(oracle._is_function(n, q, f) for f in enum_functions(n, q)), (n, q)

    def test_rejects_every_other_word(self):
        for n, q in GENERATED_PAIRS:
            if q**n <= 4096:
                listed = set(enum_functions(n, q))
                for word in product(range(q), repeat=n):
                    assert oracle._is_function(n, q, word) == (word in listed), (n, q, word)

    def test_rejects_wrong_lengths_and_values(self):
        # (3,10): 0,1,7 is a function; a longer or shorter word, or one value moved out of
        # [0, 10) with the weighted sum kept, is not
        assert oracle._is_function(3, 10, (0, 1, 7))
        for values in [(0, 1), (0, 1, 7, 0), (0, 1, 10), (-3, 1, 7), (0, 11, 7 + 20)]:
            assert not oracle._is_function(3, 10, values), values


class TestRotationLawCounterexample:
    def test_moved_offset_names_necklace_rotation_and_quotient(self, tables_for, monkeypatch):
        # the first fully supported (5,4) necklace whose offset on the first rotating
        # quotient can move by one: its rotation 1 no longer keeps the necklace's offset
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        i, j = _rotating_pair(tables)
        qctx = tables.blocks[i].quotients[j]
        genuine = dlog.profile
        target = next(
            w for w in enum_necklaces(5, 4)
            if (prof := genuine(tables, w)).support == full
            and prof.logs[i, j] % qctx.x_exponent + 1 < qctx.x_exponent
        )

        def moved(tables_arg, word):
            prof = genuine(tables_arg, word)
            if tuple(word) != target:
                return prof
            return _moved(tables, prof, (i, j), "offset")

        monkeypatch.setattr(oracle, "profile", moved)
        report = verify_bijection(5, 4)
        r = qctx.rotation_order
        was_turns, was_offset = divmod(genuine(tables, target).logs[i, j], qctx.x_exponent)
        got_turns, got_offset = divmod(
            genuine(tables, shift(target, 1)).logs[i, j], qctx.x_exponent)
        assert report.flags["shift_lemma_ok"] is False
        assert report.counterexamples["shift_lemma_ok"] == (
            f"necklace {','.join(map(str, target))}, rotation 1: quotient ({i + 1}, {j + 1}) "
            f"shows turns {got_turns % r} and offset {got_offset}, "
            f"expected turns {(1 + was_turns) % r} and offset {was_offset + 1}"
        )
        assert oracle._shift_lemma_holds(tables, enum_necklaces(5, 4)) is False

    def test_a_changed_support_names_both_supports(self, tables_for):
        # a partly supported necklace listed as fully supported: its own profile is not
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        necklace = next(w for w in enum_necklaces(5, 4)
                        if len(set(w)) > 1 and dlog.split_support(tables, w) != full)
        support = dlog.split_support(tables, necklace)
        visits, text = oracle._walk(tables, necklace, full, None, full)
        assert visits == 5
        assert text == (f"necklace {','.join(map(str, necklace))}, rotation 0: support "
                        f"{support_text(support)}, not {support_text(full)}")
        visits, text = oracle._walk(tables, necklace, support, None, full)
        assert (visits, text) == (5, None)

    def test_word_x_and_the_visit_count(self, tables_for, monkeypatch):
        # one turn too many on the word x is named in part one; a run that visits too
        # few words is named by the count
        tables = tables_for(5, 4)
        full = oracle._full_support(tables)
        assert oracle._word_x_break(tables, full) is None
        genuine = dlog.profile
        i, j = _rotating_pair(tables)
        r = tables.blocks[i].quotients[j].rotation_order

        def turned(tables_arg, word):
            prof = genuine(tables_arg, word)
            if tuple(word) != (0, 1, 0, 0, 0):
                return prof
            return _moved(tables, prof, (i, j), "turns")

        monkeypatch.setattr(oracle, "profile", turned)
        assert oracle._word_x_break(tables, full) == (
            f"the word x: quotient ({i + 1}, {j + 1}) shows turns {2 % r} and offset 0, "
            f"expected turns {1 % r} and offset 0")
        report = verify_bijection(5, 4)
        assert report.counterexamples["shift_lemma_ok"].startswith("the word x: ")
        monkeypatch.setattr(oracle, "profile", genuine)
        short = enum_necklaces(5, 4)[:-1]
        monkeypatch.setattr(oracle, "_necklaces", lambda n, q: iter(short))
        report = verify_bijection(5, 4)
        assert report.counterexamples["shift_lemma_ok"] == (
            "the orbits visit 1023 words, not q^n = 1024")
