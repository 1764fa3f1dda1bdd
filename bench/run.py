#!/usr/bin/env python3
"""Benchmark of the necklacemap library, one workload per run.

    python3 bench/run.py --workload forward --seed 1 --seconds 10 --trace 0

A run first builds the workload's tables several times and reports the
median build as `setup_s`.  It then drives the library from one caller in
a closed loop (each call starts when the previous one has returned), in
whole passes over inputs generated from --seed, until --seconds have
elapsed.  Every output is checked afterwards with the benchmark's own code,
never with the package's helpers.  With --trace 1 the run instead makes one
untraced and one traced pass over the same inputs and reports per-layer
self times and counts (see tracer.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it are a readable report
and one `report {...}` line with context that no bound gates.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "necklacemap"
if not (PACKAGE / "__init__.py").is_file():
    sys.exit(f"bench: {PACKAGE} is missing; run from a checkout of the repository")
sys.path.insert(0, str(PACKAGE.parent))

from necklacemap import bijection, cli, decomposition  # noqa: E402
from necklacemap.errors import NoSolutionError  # noqa: E402
from necklacemap.numtheory import RingParams  # noqa: E402

import tracer  # noqa: E402

# Quotient unit groups below this order get a plain-scan dlog in the seed
# code; at or above it, baby-step giant-step.
BRUTE_FORCE_CUTOFF = 1024
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
# (4, 5) is the even-n calibration gap: most of its inputs raise
# NoSolutionError.  It runs as a probe outside the timed loop, so the gated
# metrics only count operations that succeed at the seed, and its error rate
# is reported as context.
PROBE = (4, 5, 1000)
# The speed of a shared host drifts by 20-40% over seconds to minutes, and
# the drift slows a pure-Python reference loop in step with the library.
# On the 2-vCPU VM this benchmark was written on, the mean map time over
# 10-second windows spread by 23% (IQR over median); divided by the
# reference time measured between the same calls, it spread by 2.6%.  So
# while calls run, a timer signal runs the reference loop every
# REF_PERIOD_S, also in the middle of long calls.  Only the second of two
# back-to-back runs is timed: the first refills the caches that the
# interrupted call took, and timing it added noise (the library's time
# moved with the cold run's by an elasticity of 0.7, with the warm run's by
# 1.2).  Each gated time is the call's wall time minus the time spent in
# those ticks, scaled to a nominal machine:
# busy * REF_NOMINAL_S / (mean reference time within REF_WINDOW_S of the call).
REF_NOMINAL_S = 3.5e-4  # the reference loop on that VM when idle, Python 3.11.7
REF_PERIOD_S = 0.025
REF_WINDOW_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    # (n, q, calls per pass)
    instances: tuple[tuple[int, int, int], ...]
    aliases: dict


WORKLOADS = {
    # Counts per pass are sized so that no instance takes more than about
    # half of a pass at the seed: (11,12) is almost all dlog, (63,2) is
    # dlog plus crt_split repeated over 63 rotations.
    "forward": Workload(
        "forward",
        ((5, 6, 500), (7, 10, 100), (13, 6, 35), (63, 2, 5), (11, 12, 1)),
        {"calls_per_s": "map_words_per_s", "call_ms_p50": "map_ms_p50",
         "call_ms_p90": "map_ms_p90"},
    ),
    # unmap makes no dlog call; (17,3) and (33,4) make set-up sensitive to
    # field construction (generator search, BSGS baby tables).
    "inverse": Workload(
        "inverse",
        ((5, 6, 3000), (7, 10, 1000), (13, 6, 400), (63, 2, 160), (11, 12, 100),
         (33, 4, 25), (17, 3, 120)),
        {"calls_per_s": "unmap_words_per_s", "call_ms_p50": "unmap_ms_p50",
         "call_ms_p90": "unmap_ms_p90"},
    ),
    # The only workload that reaches oracle and counting, through the CLI.
    # With (3,10) twice and (9,2) five times, p50 is the middle (9,2) verify
    # rather than one lone call, and p90 is verify 5 6.
    "certify": Workload(
        "certify",
        ((3, 10, 2), (5, 4, 1), (9, 2, 5), (5, 6, 1)),
        {"calls_per_s": "verify commands per second", "call_ms_p50": "verify 9 2 (median of 5)",
         "call_ms_p90": "verify 5 6"},
    ),
}

# ---------------------------------------------------------------- checkers
# These are the benchmark's own definitions, independent of the package.


def weighted_sum(values) -> int:
    n = len(values)
    return sum(v * c for v, c in enumerate(values)) % n


def least_rotation(word) -> tuple:
    word = tuple(word)
    return min(word[k:] + word[:k] for k in range(len(word)))


def necklace_count(n: int, q: int) -> int:
    """Burnside: (1/n) * sum over d | n of phi(d) * q**(n/d)."""
    phi = lambda d: sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)  # noqa: E731
    return sum(phi(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def zero_sum_count(n: int, q: int) -> int:
    return sum(1 for f in product(range(q), repeat=n) if weighted_sum(f) == 0)


def function_problem(n: int, q: int, values) -> str | None:
    """Why `values` is not a zero-sum function Z_n -> [0, q), or None."""
    if not isinstance(values, tuple) or len(values) != n:
        return f"expected a tuple of length {n}, got {values!r}"
    if any(not isinstance(c, int) or not 0 <= c < q for c in values):
        return f"value outside [0, {q}) in {values}"
    if weighted_sum(values) != 0:
        return f"weighted sum {weighted_sum(values)} != 0 for {values}"
    return None


def necklace_problem(n: int, q: int, word) -> str | None:
    """Why `word` is not a canonical (least-rotation) necklace word, or None."""
    if not isinstance(word, tuple) or len(word) != n:
        return f"expected a tuple of length {n}, got {word!r}"
    if any(not isinstance(c, int) or not 0 <= c < q for c in word):
        return f"color outside [0, {q}) in {word}"
    if least_rotation(word) != word:
        return f"{word} is not its own least rotation"
    return None


def certify_problem(n: int, q: int, outcome) -> str | None:
    code, text = outcome
    if code != 0:
        return f"verify {n} {q} exited with {code}"
    try:
        result = json.loads(text)["result"]
    except (ValueError, KeyError, TypeError):
        return f"verify {n} {q} printed no JSON result"
    if result["certified"] is not True:
        return f"verify {n} {q} did not certify: {result['flags']}"
    if int(result["necklaces"]) != necklace_count(n, q):
        return f"verify {n} {q} counted {result['necklaces']} necklaces"
    if int(result["functions"]) != zero_sum_count(n, q):
        return f"verify {n} {q} counted {result['functions']} functions"
    return None


# ---------------------------------------------------------------- inputs


def uniform_words(rng: random.Random, n: int, q: int, count: int) -> list[tuple]:
    return [tuple(rng.choices(range(q), k=n)) for _ in range(count)]


def zero_sum_functions(rng: random.Random, n: int, q: int, count: int) -> list[tuple]:
    """Uniform draws from the zero-sum functions, by rejection sampling."""
    out = []
    while len(out) < count:
        f = tuple(rng.choices(range(q), k=n))
        if weighted_sum(f) == 0:
            out.append(f)
    return out


def pass_inputs(workload: Workload, seed: int, k: int) -> list[tuple]:
    """The calls of pass k: ((n, q), input) pairs in a seeded order."""
    rng = random.Random(f"{seed}/{workload.name}/{k}")
    calls = []
    for n, q, count in workload.instances:
        if workload.name == "forward":
            calls += [((n, q), w) for w in uniform_words(rng, n, q, count)]
        elif workload.name == "inverse":
            calls += [((n, q), f) for f in zero_sum_functions(rng, n, q, count)]
        else:
            calls += [((n, q), (n, q))] * count
    if workload.name != "certify":  # certify's pairs keep their listed order
        rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------- the loop


def reference_loop() -> int:
    """Fixed pure-Python work: tuples, dict stores and lookups, modular ints."""
    acc = 0
    seen = {}
    t = (1, 2, 3)
    for i in range(400):
        t = tuple((x * 7 + i) % 65521 for x in t)
        seen[t[0] & 255] = t
        acc = (acc + seen.get(i & 255, t)[1]) % 1000003
    return acc


class Gauge:
    """Reference-loop timings from a timer signal, to take machine drift out."""

    def __init__(self):
        self.stamps = []  # end time of each reference run, ascending
        self.times = []
        self.spent = 0.0  # seconds spent in ticks, subtracted from call times
        self._prefix = [0.0]

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()  # refills the caches that the interrupted call took
        t1 = time.perf_counter()
        reference_loop()
        t2 = time.perf_counter()
        self.stamps.append(t2)
        self.times.append(t2 - t1)
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        """Tick every REF_PERIOD_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowness(self, start: float, end: float) -> float:
        """Mean reference time near [start, end] over REF_NOMINAL_S."""
        if not self.times:
            return 1.0
        for t in self.times[len(self._prefix) - 1:]:
            self._prefix.append(self._prefix[-1] + t)
        lo = bisect_left(self.stamps, start - REF_WINDOW_S)
        hi = bisect_right(self.stamps, end + REF_WINDOW_S)
        if hi == lo:  # no tick nearby: use the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo) / REF_NOMINAL_S

    def nominal(self, start: float, end: float, busy: float) -> float:
        """Seconds that `busy` seconds within [start, end] take on the nominal machine."""
        return busy / self.slowness(start, end)


def verify_via_cli(_tables, pair):
    """`necklacemap --json verify n q` in-process; returns (exit code, stdout)."""
    main = cli.main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--json", "verify", str(pair[0]), str(pair[1])])
    return code, out.getvalue()


def operation(workload: Workload):
    """The library entry point, looked up now so that hooks are seen."""
    if workload.name == "forward":
        return bijection.map_necklace
    if workload.name == "inverse":
        return bijection.unmap_function
    return verify_via_cli


def run_pass(op, calls, tables, gauge: Gauge | None = None) -> list:
    """One closed-loop pass: [(key, input, outcome, start, end, busy seconds)].

    Busy seconds leave out the gauge's ticks; without a running gauge they
    are end - start.
    """
    clock = time.perf_counter
    results = []
    for key, x in calls:
        t0 = clock()
        s0 = gauge.spent if gauge is not None else 0.0
        try:
            out = op(tables.get(key), x)
        except Exception as exc:  # counted by type; the loop goes on
            out = exc
        s1 = gauge.spent if gauge is not None else 0.0
        t1 = clock()
        results.append((key, x, out, t0, t1, t1 - t0 - (s1 - s0)))
    return results


def build_tables(workload: Workload) -> dict:
    build = decomposition.build_tables
    return {(n, q): build(RingParams.create(n, q)) for n, q, _ in workload.instances}


def timed_setup(workload: Workload, gauge: Gauge) -> tuple[float, float, dict]:
    """Median nominal and wall seconds of cold builds of every table, and the
    last tables built."""
    build = decomposition.build_tables
    rounds = []  # per round, (start, end, busy) of every build
    with gauge.running():
        busy = 0.0
        while len(rounds) < SETUP_MIN_REPEATS or busy < SETUP_MIN_SECONDS:
            tables, builds = {}, []
            for n, q, _ in workload.instances:
                t0, s0 = time.perf_counter(), gauge.spent
                tables[(n, q)] = build(RingParams.create(n, q))
                s1, t1 = gauge.spent, time.perf_counter()
                builds.append((t0, t1, t1 - t0 - (s1 - s0)))
            rounds.append(builds)
            busy += sum(b[2] for b in builds)
    nominal = statistics.median(sum(gauge.nominal(*b) for b in r) for r in rounds)
    wall = statistics.median(sum(b[2] for b in r) for r in rounds)
    return nominal, wall, tables


class Tally:
    """Attempted and failed calls, failures by kind, first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kinds = Counter()
        self.messages = []

    def fail(self, kind: str, message: str) -> None:
        self.failed += 1
        self.kinds[kind] += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def check_results(workload: Workload, tables: dict, results, tally: Tally) -> None:
    """Check every outcome with the benchmark's own code (outside timing)."""
    unmap = bijection.unmap_function
    for (n, q), x, out, *_ in results:
        tally.attempted += 1
        if isinstance(out, Exception):
            tally.fail(type(out).__name__, f"({n},{q}) {x}: {type(out).__name__}: {out}")
            continue
        if workload.name == "forward":
            problem = function_problem(n, q, out)
            if problem is None and unmap(tables[(n, q)], out) != least_rotation(x):
                problem = f"unmap(map({x})) is not the least rotation of the word"
        elif workload.name == "inverse":
            problem = necklace_problem(n, q, out)
        else:
            problem = certify_problem(n, q, out)
        if problem is not None:
            tally.fail("wrong output", f"({n},{q}): {problem}")


def check_inverse_roundtrip(tables: dict, results, tally: Tally) -> None:
    """map(unmap(f)) == f for the first input of every instance."""
    map_fn = bijection.map_necklace
    done = set()
    for key, f, word, *_ in results:
        if key in done or isinstance(word, Exception):
            continue
        done.add(key)
        if map_fn(tables[key], word) != f:
            tally.fail("wrong output", f"{key}: map(unmap({f})) != {f}")


def run_probe(workload: Workload, seed: int) -> tuple[dict, list]:
    """Run the (4, 5) gap instance untimed; NoSolutionError is the known gap."""
    n, q, count = PROBE
    rng = random.Random(f"{seed}/{workload.name}/probe")
    make = uniform_words if workload.name == "forward" else zero_sum_functions
    tables = {(n, q): decomposition.build_tables(RingParams.create(n, q))}
    calls = [((n, q), x) for x in make(rng, n, q, count)]
    results = run_pass(operation(workload), calls, tables)
    tally = Tally()
    gap = Counter()
    for result in results:
        if isinstance(result[2], NoSolutionError):
            gap[type(result[2]).__name__] += 1
        else:
            check_results(workload, tables, [result], tally)
    probe = {
        "instance": [n, q],
        "attempted": count,
        "raised": dict(gap + tally.kinds),
        "error_rate": (sum(gap.values()) + tally.failed) / count,
    }
    return probe, tally.messages


def _outcome(out):
    return type(out).__name__ if isinstance(out, Exception) else out


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


# ---------------------------------------------------------------- reports


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted(PACKAGE.parent.rglob("*.py")))


def describe(tables: dict) -> list[dict]:
    """What each instance will cost before it runs."""
    out = []
    for (n, q), t in tables.items():
        largest = max(qc.group_order for b in t.blocks for qc in b.quotients)
        out.append({
            "instance": [n, q],
            "cosets_per_factor": [len(b.cosets) for b in t.blocks],
            "largest_unit_group": largest,
            "brute_force_dlog": largest < BRUTE_FORCE_CUTOFF,
        })
    return out


def layer_metrics(setup: tracer.Tracer, run: tracer.Tracer, overhead: float) -> dict:
    """Per-layer metrics: set-up layers from the set-up trace, the rest from the pass."""
    verify = "oracle.verify_bijection"
    dlog_calls = run.calls("fields.dlog")
    map_calls = run.calls("bijection.map_necklace")
    return {
        "fields.build_field_s": (setup.self_s("fields.build_field"), "s"),
        "fields.quotient_ctx_s": (setup.self_s("fields.QuotientFieldCtx"), "s"),
        "fields.quotient_ctx_calls": (setup.calls("fields.QuotientFieldCtx"), "count"),
        "decomposition.cosets_s": (setup.self_s("decomposition.cyclotomic_cosets"), "s"),
        "decomposition.factor_s": (setup.self_s("decomposition.factor_xn_minus_1"), "s"),
        "decomposition.build_tables_s": (setup.self_s("decomposition.build_tables"), "s"),
        "fields.dlog_s": (run.self_s("fields.dlog"), "s"),
        "fields.dlog_calls": (dlog_calls, "count"),
        "fields.dlog_us_per_call": (
            run.self_s("fields.dlog") / dlog_calls * 1e6 if dlog_calls else 0.0, "us"),
        "fields.mul_calls": (run.counts.get("fields.mul", 0), "count"),
        "fields.pow_s": (run.self_s("fields.pow"), "s"),
        "fields.pow_calls": (run.calls("fields.pow"), "count"),
        "decomposition.split_s": (run.self_s("decomposition.crt_split"), "s"),
        "decomposition.split_calls": (run.calls("decomposition.crt_split"), "count"),
        "decomposition.combine_s": (run.self_s("decomposition.crt_combine"), "s"),
        "decomposition.canonical_s": (run.self_s("decomposition.orbit_canonical"), "s"),
        "decomposition.canonical_calls": (run.calls("decomposition.orbit_canonical"), "count"),
        "dlog.profile_s": (run.self_s("dlog.profile"), "s"),
        "dlog.profile_calls": (run.calls("dlog.profile"), "count"),
        "automorphism.for_support_s": (run.self_s("automorphism.for_support"), "s"),
        "automorphism.for_support_calls": (run.calls("automorphism.for_support"), "count"),
        "automorphism.solves": (len(run.supports), "count"),
        "bijection.map_calls": (map_calls, "count"),
        "bijection.encode_calls": (run.calls("bijection.encode_word"), "count"),
        "bijection.rotations_per_map": (
            run.calls("bijection.encode_word") / map_calls if map_calls else 0.0, "ratio"),
        "bijection.encode_s": (run.self_s("bijection.encode_word"), "s"),
        "bijection.map_s": (run.self_s("bijection.map_necklace"), "s"),
        "bijection.unmap_s": (run.self_s("bijection.unmap_function"), "s"),
        # Verify's stages are loops inside verify_bijection, so each stage
        # time is the inclusive time of the calls verify_bijection makes for it.
        "oracle.enum_necklaces_s": (run.total_s("oracle.enum_necklaces", verify), "s"),
        "oracle.enum_functions_s": (run.total_s("oracle.enum_functions", verify), "s"),
        "oracle.map_pass_s": (run.total_s("bijection.map_necklace", verify), "s"),
        "oracle.inverse_pass_s": (run.total_s("bijection.unmap_function", verify), "s"),
        "oracle.shift_lemma_s": (run.total_s("oracle.shift_lemma", verify), "s"),
        "oracle.strata_s": (
            run.total_s("dlog.profile", verify)
            + run.total_s("bijection.function_support", verify)
            + run.total_s("counting.stratum_count", verify), "s"),
        "oracle.words_enumerated": (run.counts.get("oracle.words_enumerated", 0), "count"),
        "counting.stratum_count_s": (run.self_s("counting.stratum_count"), "s"),
        "cli.self_s": (
            run.total_s("cli.main") - run.total_s(verify, "cli.main"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def layer_separation_problems(workload: Workload, run: tracer.Tracer) -> list[str]:
    """The workloads are meant to keep layers apart; say where they do not."""
    problems = []
    if workload.name != "certify":
        oracle_calls = sum(
            rec[0] for (name, _), rec in run.spans.items() if name.startswith("oracle.")
        )
        if oracle_calls or run.counts.get("oracle.words_enumerated", 0):
            problems.append(f"{workload.name} reached the oracle layer")
    if workload.name == "inverse" and run.calls("fields.dlog"):
        problems.append("inverse made dlog calls")
    return problems


def emit(lines: list[str], report: dict, correct: bool, tally: Tally, metrics: dict) -> None:
    for line in lines:
        print(line)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------- runs


def measure(workload: Workload, seed: int, seconds: float) -> None:
    """End-to-end run: set-up, then timed passes until `seconds` elapse."""
    hooks = tracer.Hooks()
    gauge = Gauge()
    setup_s, setup_wall_s, tables = timed_setup(workload, gauge)
    tally = Tally()
    timed = []  # (key, nominal seconds, busy seconds, succeeded) per call
    passes, loop_wall = 0, 0.0
    while passes == 0 or loop_wall < seconds:
        calls = pass_inputs(workload, seed, passes)
        hooks.assert_originals()
        t_pass = time.perf_counter()
        with gauge.running():
            results = run_pass(operation(workload), calls, tables, gauge)
        loop_wall += time.perf_counter() - t_pass
        passes += 1
        timed += [(key, gauge.nominal(t0, t1, busy), busy, not isinstance(out, Exception))
                  for key, _, out, t0, t1, busy in results]
        check_results(workload, tables, results, tally)
        if workload.name == "inverse" and passes == 1:
            check_inverse_roundtrip(tables, results, tally)
    completed = tally.attempted - tally.failed
    nominal = sorted(t[1] for t in timed if t[3]) or [0.0]  # empty only if all failed
    wall = sorted(t[2] for t in timed if t[3]) or [0.0]
    loop_s = sum(t[1] for t in timed)
    metrics = {
        "calls_per_s": (completed / loop_s, "1/s"),
        "call_ms_p50": (percentile(nominal, 0.5) * 1e3, "ms"),
        "call_ms_p90": (percentile(nominal, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    share = Counter()
    for key, t, *_ in timed:
        share[f"{key[0]},{key[1]}"] += t / loop_s
    report = {
        "workload": workload.name,
        "seed": seed,
        "passes": passes,
        "latency_samples": len(nominal),
        "aliases": workload.aliases,
        "wall": {
            "calls_per_s": completed / sum(t[2] for t in timed),
            "call_ms_p50": percentile(wall, 0.5) * 1e3,
            "call_ms_p90": percentile(wall, 0.9) * 1e3,
            "setup_s": setup_wall_s,
        },
        "slowness": statistics.median(gauge.times) / REF_NOMINAL_S,
        "instance_share": dict(share),
        "raised": dict(tally.kinds),
        "error_rate": tally.failed / tally.attempted,
        "src_lines": src_lines(),
        "instances": describe(tables),
    }
    if workload.name == "certify":
        report["verify_s"] = loop_s / passes  # one pass's time to verdicts
    messages = list(tally.messages)
    if workload.name != "certify":
        report["probe"], probe_messages = run_probe(workload, seed)
        messages += probe_messages
    lines = [f"workload {workload.name} seed {seed}: {passes} passes, {tally.attempted} "
             f"calls, {len(nominal)} latency samples, {loop_s:.2f} nominal s in calls"]
    lines += [f"  {name} = {v:.6g} {u}" for name, (v, u) in metrics.items()]
    lines += [f"  error: {m}" for m in messages]
    emit(lines, report, not messages, tally, metrics)


def measure_traced(workload: Workload, seed: int) -> None:
    """Per-layer run: one untraced and one traced pass over pass 0's inputs."""
    hooks = tracer.Hooks()
    tables = build_tables(workload)
    calls = pass_inputs(workload, seed, 0)
    hooks.assert_originals()
    plain = run_pass(operation(workload), calls, tables)

    setup, run = tracer.Tracer(), tracer.Tracer()
    hooks.install(setup, setup_only=True)
    try:
        tables = build_tables(workload)
    finally:
        hooks.uninstall()
    hooks.install(run)
    try:
        results = run_pass(operation(workload), calls, tables)
    finally:
        hooks.uninstall()
    hooks.assert_originals()

    tally = Tally()
    check_results(workload, tables, results, tally)
    if workload.name == "inverse":
        check_inverse_roundtrip(tables, results, tally)
    messages = list(tally.messages)
    if [_outcome(r[2]) for r in plain] != [_outcome(r[2]) for r in results]:
        messages.append("traced and untraced passes gave different outputs")
    messages += layer_separation_problems(workload, run)

    # No gauge here: its ticks would land inside spans.  So the overhead ratio
    # is in wall time and carries the machine's drift between the two passes.
    plain_s = sum(r[5] for r in plain)
    traced_s = sum(r[5] for r in results)
    metrics = layer_metrics(setup, run, traced_s / plain_s)
    report = {
        "workload": workload.name,
        "seed": seed,
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "src_lines": src_lines(),
    }
    if workload.name == "forward":  # every dlog and split runs inside map here
        report["dlog_split_share_of_map"] = (
            metrics["fields.dlog_s"][0] + metrics["decomposition.split_s"][0]
        ) / run.total_s("bijection.map_necklace")
    lines = [f"workload {workload.name} seed {seed}: traced pass {traced_s:.2f} s, "
             f"untraced {plain_s:.2f} s"]
    lines += [f"  {name} = {v:.6g} {u}" for name, (v, u) in metrics.items()]
    lines += [f"  error: {m}" for m in messages]
    emit(lines, report, not messages, tally, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.trace:
        measure_traced(workload, args.seed)
    else:
        measure(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
