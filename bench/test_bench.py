"""Tests of the benchmark's own code: checkers, input generators, span
arithmetic, hooks and failure counting.

    python3 -m pytest -q bench
"""

import json
import random

import pytest

import run
import tracer
from necklacemap import bijection, decomposition
from necklacemap.numtheory import RingParams


def tables_for(*pairs):
    return {(n, q): decomposition.build_tables(RingParams.create(n, q)) for n, q in pairs}


# ---------------------------------------------------------------- checkers


def test_least_rotation_and_weighted_sum_on_hand_made_words():
    assert run.least_rotation((1, 0, 2)) == (0, 2, 1)
    assert run.least_rotation((1, 1, 0, 1, 0)) == (0, 1, 0, 1, 1)
    assert run.least_rotation((2, 2)) == (2, 2)
    assert run.weighted_sum((0, 1, 2)) == 5 % 3
    assert run.weighted_sum((4, 4, 4, 4, 4)) == 0


def test_function_problem():
    assert run.function_problem(3, 2, (0, 0, 0)) is None
    assert run.function_problem(3, 4, (0, 1, 1)) is None  # 1 + 2 = 3 = 0 mod 3
    assert "length" in run.function_problem(3, 2, (0, 0))
    assert "length" in run.function_problem(3, 2, [0, 0, 0])
    assert "outside" in run.function_problem(3, 2, (0, 2, 0))
    assert "weighted sum" in run.function_problem(3, 2, (0, 1, 0))


def test_necklace_problem():
    assert run.necklace_problem(3, 2, (0, 1, 1)) is None
    assert "least rotation" in run.necklace_problem(3, 2, (1, 0, 1))
    assert "outside" in run.necklace_problem(3, 2, (0, 0, 5))
    assert "length" in run.necklace_problem(3, 2, (0, 1))


def test_closed_form_and_enumerated_counts_agree():
    assert run.necklace_count(5, 6) == 1560
    assert run.necklace_count(6, 2) == 14
    for n, q in [(3, 10), (5, 4), (9, 2), (5, 6)]:
        assert run.zero_sum_count(n, q) == run.necklace_count(n, q)


def test_certify_problem():
    def payload(certified=True, necklaces="208", functions="208"):
        result = {"certified": certified, "flags": {}, "necklaces": necklaces,
                  "functions": functions}
        return json.dumps({"result": result})

    assert run.certify_problem(5, 4, (0, payload())) is None
    assert "exited" in run.certify_problem(5, 4, (3, ""))
    assert "no JSON" in run.certify_problem(5, 4, (0, "certified"))
    assert "did not certify" in run.certify_problem(5, 4, (0, payload(certified=False)))
    assert "necklaces" in run.certify_problem(5, 4, (0, payload(necklaces="207")))
    assert "functions" in run.certify_problem(5, 4, (0, payload(functions="209")))


# ---------------------------------------------------------------- inputs


@pytest.mark.parametrize("n,q", [(5, 6), (63, 2), (17, 3), (4, 5)])
def test_zero_sum_draws_have_weighted_sum_zero(n, q):
    draws = run.zero_sum_functions(random.Random(7), n, q, 200)
    assert len(draws) == 200
    for f in draws:
        assert len(f) == n and all(0 <= c < q for c in f)
        assert run.weighted_sum(f) == 0


def test_same_seed_gives_same_draws():
    draw = lambda seed: run.zero_sum_functions(random.Random(seed), 7, 10, 50)  # noqa: E731
    assert draw(3) == draw(3)
    assert draw(3) != draw(4)
    for name in run.WORKLOADS:
        workload = run.WORKLOADS[name]
        assert run.pass_inputs(workload, 1, 0) == run.pass_inputs(workload, 1, 0)
    forward = run.WORKLOADS["forward"]
    assert run.pass_inputs(forward, 1, 0) != run.pass_inputs(forward, 2, 0)
    assert run.pass_inputs(forward, 1, 0) != run.pass_inputs(forward, 1, 1)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([7.0], 0.9) == 7.0


def test_gauge_scales_busy_time_by_nearby_reference_time():
    g = run.Gauge()
    slow = 2 * run.REF_NOMINAL_S
    g.stamps, g.times = [10.0, 10.0, 20.0, 20.0], [slow, slow, run.REF_NOMINAL_S, run.REF_NOMINAL_S]
    assert g.nominal(10.1, 10.2, 0.1) == pytest.approx(0.05)  # twice as slow: half the time
    assert g.nominal(19.9, 20.0, 0.1) == pytest.approx(0.1)
    assert g.slowness(10.0, 20.0) == pytest.approx(1.5)  # both samples lie inside
    assert g.slowness(15.0, 15.1) == pytest.approx(1.5)  # none nearby: the nearest ones
    assert run.Gauge().slowness(0.0, 1.0) == 1.0


def test_gauge_ticks_inside_a_long_call_and_their_time_is_left_out():
    g = run.Gauge()
    with g.running():
        (result,) = run.run_pass(lambda t, x: run.reference_loop() and sum(
            run.reference_loop() for _ in range(400)), [(None, None)], {}, g)
    _, _, out, start, end, busy = result
    assert out > 0
    inside = [t for t in g.stamps if start < t < end]
    assert len(inside) >= 2 and g.spent > 0
    assert busy == pytest.approx(end - start - g.spent, abs=1e-3)
    assert g.times and all(t > 0 for t in g.times)


# ---------------------------------------------------------------- spans


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_on_a_synthetic_nested_span_set():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and B [5, 9].
    t = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    t.enter("A")
    t.enter("B")
    t.enter("C")
    t.exit()
    t.exit()
    t.enter("B")
    t.exit()
    t.exit()
    assert (t.calls("A"), t.total_s("A"), t.self_s("A")) == (1, 10, 3)
    assert (t.calls("B"), t.total_s("B"), t.self_s("B")) == (2, 7, 6)
    assert (t.calls("C"), t.total_s("C"), t.self_s("C")) == (1, 1, 1)
    assert t.calls("B", parent="A") == 2
    assert t.total_s("C", parent="B") == 1
    assert t.total_s("C", parent="A") == 0
    assert t.self_s("A") + t.self_s("B") + t.self_s("C") == t.total_s("A")


def test_hooks_restore_the_originals():
    hooks = tracer.Hooks()
    hooks.assert_originals()
    original = bijection.map_necklace
    t = tracer.Tracer()
    hooks.install(t)
    try:
        assert bijection.map_necklace is not original
        with pytest.raises(RuntimeError):
            hooks.assert_originals()
        tables = tables_for((5, 6))[(5, 6)]
        bijection.map_necklace(tables, (0, 1, 2, 3, 4))
    finally:
        hooks.uninstall()
    hooks.assert_originals()
    assert bijection.map_necklace is original
    assert t.calls("bijection.map_necklace") == 1
    assert t.calls("bijection.encode_word") == 5  # every rotation is distinct
    assert t.calls("dlog.profile", parent="bijection.encode_word") == 5
    assert t.calls("fields.dlog") > 0 and t.counts["fields.mul"] > 0
    assert len(t.supports) >= 1


# ---------------------------------------------------------------- failures


def test_injected_wrong_output_is_counted():
    workload = run.WORKLOADS["forward"]
    tables = tables_for((5, 6))
    words = run.uniform_words(random.Random(1), 5, 6, 6)
    rotated, other, raising = words[1], words[2], words[4]
    assert run.least_rotation(other) != run.least_rotation(words[0])

    def stand_in(t, word):
        image = bijection.map_necklace(t, word)
        if word == raising:
            raise ValueError("stand-in failure")
        if word == rotated:
            return image[1:] + image[:1]  # a rotation: weighted sum moves
        if word == other:
            return bijection.map_necklace(t, words[0])  # valid, but another necklace's
        return image

    results = run.run_pass(stand_in, [((5, 6), w) for w in words], tables)
    tally = run.Tally()
    run.check_results(workload, tables, results, tally)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert tally.kinds == {"wrong output": 2, "ValueError": 1}
    assert tally.failed / tally.attempted == pytest.approx(3 / 6)


def test_injected_wrong_inverse_output_is_counted():
    workload = run.WORKLOADS["inverse"]
    tables = tables_for((5, 6))
    functions = run.zero_sum_functions(random.Random(2), 5, 6, 4)

    def stand_in(t, values):
        word = bijection.unmap_function(t, values)
        return word if values != functions[0] else word[1:] + word[:1]

    results = run.run_pass(stand_in, [((5, 6), f) for f in functions], tables)
    tally = run.Tally()
    run.check_results(workload, tables, results, tally)
    run.check_inverse_roundtrip(tables, results, tally)
    # the rotated word is not canonical, but it is still the same necklace
    assert tally.kinds == {"wrong output": 1}

    results = run.run_pass(
        lambda t, values: (0, 0, 0, 0, 0), [((5, 6), f) for f in functions], tables
    )
    tally = run.Tally()
    run.check_inverse_roundtrip(tables, results, tally)
    assert tally.failed == 1  # map((0,...,0)) is not the first input


def test_certify_passes_through_the_cli():
    workload = run.WORKLOADS["certify"]
    results = run.run_pass(run.verify_via_cli, [((3, 2), (3, 2))], {})
    tally = run.Tally()
    run.check_results(workload, {}, results, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
