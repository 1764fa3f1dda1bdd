"""Exhaustive enumeration of both sides and full certification at desk scale.

This module is the ground truth: it generates every necklace and every
zero-sum function inside a size envelope, by rules that share no code with
the map, and checks totality (each image is a function by the rule that
generates them), injectivity, surjectivity, the inverse round trip, the
rotation law of the logs and every stratum count against its formula.

verify_bijection streams both sides, holding one chunk of necklaces with
their profiles and images at a time, and a count per support.  A map with a
left inverse is injective, and an injection between finite sets of equal size
is onto: once every image is a function that unmaps to its necklace and both
sides count alike, no image need be kept.  Any other run takes a second pass
into a dict from each image to its first necklace, to name the first shared
and the first missed image.  A calibration that refuses a support raises
before either side is enumerated in full.

Each necklace is profiled once, and that profile is all verify shares with
the map: the necklace is mapped from it (map_profiled), the strata count its
support, and its orbit's walk (_walk) starts from it.  What judges the map
never reads the map's shift law (k added to a word's turns), its solve of
the zero-sum rotation or the calibration: enumeration and weighted sums are
written here, the inverse check compares unmap_function (itself under test)
with the enumerated word, and the walk splits or profiles every other
rotation itself.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, product
from operator import mul

from .bijection import function_support, map_profiled, unmap_function
from .bijection import map_necklace  # noqa: F401  bench/tracer.py hooks it here
from .counting import stratum_count, stratum_keys, support_text
from .decomposition import CosetTable, build_tables, shift
from .decomposition import orbit_canonical  # noqa: F401  bench/tracer.py hooks it here
from .dlog import ResidueProfile, profile, split_support
from .errors import EnvelopeExceededError
from .numtheory import RingParams

DEFAULT_ENVELOPE = 10**8
# verify's checks, each timed apart; the map's time includes the necklaces' profiles
STAGES = ("map", "inverse", "rotation law", "strata")
# necklaces per chunk, each check taking the whole chunk in turn: the checks ran
# 10-20% slower taken in turn on each necklace
CHUNK = 64


def _check_envelope(n: int, q: int, limit: int) -> None:
    """Refuse n or q below 1, and n*q^n > limit without building q**n when bit lengths decide it.

    n*q^n >= 2**((n.bit_length() - 1) + n*(q.bit_length() - 1)), so that
    exponent reaching limit.bit_length() already exceeds the limit; below
    it, q**n has at most about twice limit's bits.  The product never goes
    into the message: it may have more digits than int-to-str allows.
    """
    if n < 1 or q < 1:
        raise ValueError(f"need positive n and q, got n={n}, q={q}")
    low_bits = (n.bit_length() - 1) + n * (q.bit_length() - 1)
    if low_bits >= limit.bit_length() or n * q**n > limit:
        raise EnvelopeExceededError(
            f"n*q^n for n={n}, q={q} exceeds the enumeration envelope {limit}")


def _necklaces(n: int, q: int):
    word = [-1]
    while word:
        word[-1] += 1
        d = len(word)
        word = [word[v % d] for v in range(n)]
        if n % d == 0:
            yield tuple(word)
        while word and word[-1] == q - 1:
            word.pop()


def enum_necklaces(n: int, q: int, limit: int = DEFAULT_ENVELOPE) -> list[tuple[int, ...]]:
    """One canonical (lexicographically least) word per rotation orbit, in lexicographic order.

    Generated, not filtered (Fredricksen, Kessler & Maiorana, Discrete Math. 23(3), 1978):
    Duval's successor rule walks the Lyndon words of length at most n in lexicographic
    order, and each one of length d | n, repeated n/d times, is the next necklace.
    """
    _check_envelope(n, q, limit)
    return list(_necklaces(n, q))


def _last_values(n: int, q: int, prefix) -> range:
    """The values f(n-1) that complete f(0..n-2) = prefix to a zero-sum function: as
    n - 1 = -1 (mod n), the weighted sum is S - f(n-1) with S = sum(v * f(v), v < n - 1),
    so they are S mod n, S mod n + n, ... below q (every value at n = 1)."""
    return range(sum(map(mul, range(n), prefix)) % n, q, n)


def _functions(n: int, q: int):
    return (prefix + (last,) for prefix in product(range(q), repeat=n - 1)
            for last in _last_values(n, q, prefix))


def _is_function(n: int, q: int, values) -> bool:
    """Membership in the functions that enum_functions lists, by the rule it generates by."""
    return (len(values) == n and all(0 <= c < q for c in values[:-1])
            and values[-1] in _last_values(n, q, values[:-1]))


def enum_functions(n: int, q: int, limit: int = DEFAULT_ENVELOPE) -> list[tuple[int, ...]]:
    """All functions Z_n -> [0, q) whose weighted sum vanishes mod n, in lexicographic
    order: each prefix in [0, q)^(n-1) with each of its _last_values."""
    _check_envelope(n, q, limit)
    return list(_functions(n, q))


def _csv(word) -> str:
    return ",".join(map(str, word))


def _full_support(tables: CosetTable) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(len(block.cosets))) for block in tables.blocks)


def _turn_break(tables: CosetTable, seen, base) -> str | None:
    """First quotient, in words, where profile `seen` is not one shift past `base`, or None:
    where its log is not (log + x_exponent) % group_order of `base`'s log.  The break is
    named by the logs' turns and offsets, divmod(log, x_exponent)."""
    for (i, j), was in base.logs.items():
        qctx = tables.blocks[i].quotients[j]
        if (got := seen.logs[i, j]) != (want := (was + qctx.x_exponent) % qctx.group_order):
            (turns, offset), (want_turns, want_offset) = (
                divmod(log, qctx.x_exponent) for log in (got, want))
            return (f"quotient ({i + 1}, {j + 1}) shows turns {turns} and offset {offset}, "
                    f"expected turns {want_turns} and offset {want_offset}")
    return None


def _word_x_break(tables: CosetTable, full) -> str | None:
    """Part one of the rotation law: the bare word x, the word 1 shifted once, is fully
    supported and one shift past it.  Its first break in words, or None."""
    prof = profile(tables, shift((1 % tables.params.q,) + (0,) * (tables.params.n - 1), 1))
    if prof.support != full:
        return f"the word x has support {support_text(prof.support)}, not {support_text(full)}"
    one = ResidueProfile(full, dict.fromkeys(prof.logs, 0))  # the word 1
    return (text := _turn_break(tables, prof, one)) and f"the word x: {text}"


def _walk(tables: CosetTable, necklace, support, prof, full) -> tuple[int, str | None]:
    """Part two of the rotation law on one necklace's orbit: the words it visits, and the
    law's first break on it in words, or None.  A fully supported orbit profiles each
    rotation once (the necklace by `prof` where given) and compares it with the next, the
    last with the necklace: one shift adds x_exponent to every log.  On any other
    orbit no log is taken: every rotation's split_support must equal `support`."""
    orbit = [necklace]
    while (word := shift(orbit[-1], 1)) != necklace:
        orbit.append(word)

    def at(k: int, text: str) -> tuple[int, str]:  # the walk's result at a break
        return len(orbit), f"necklace {_csv(necklace)}, rotation {k % len(orbit)}: {text}"

    if support != full:
        for k, word in enumerate(orbit[1:], 1):
            if (seen := split_support(tables, word)) != support:
                return at(k, f"support {support_text(seen)}, not {support_text(support)}")
        return len(orbit), None
    walked = [prof or profile(tables, necklace)] + [profile(tables, w) for w in orbit[1:]]
    for k, rotated in enumerate(walked):
        if rotated.support != full:
            return at(k, f"support {support_text(rotated.support)}, not {support_text(full)}")
    for k, (base, rotated) in enumerate(zip(walked, walked[1:] + walked[:1]), 1):
        if text := _turn_break(tables, rotated, base):
            return at(k, text)
    return len(orbit), None


def _shift_lemma_holds(tables: CosetTable, necklaces) -> bool:
    """Rotation law of the logs, checked exhaustively: the word x, then _walk on the
    orbit of each necklace in turn from its split_support, up to the first break.  The
    orbits must visit every word once, so by induction a shift by k adds k * x_exponent."""
    full = _full_support(tables)
    if _word_x_break(tables, full) is not None:
        return False
    visited = 0
    for necklace in necklaces:
        visits, text = _walk(tables, necklace, split_support(tables, necklace), None, full)
        if text is not None:
            return False
        visited += visits
    return visited == tables.params.q ** tables.params.n


def verify_shift_lemma(n: int, q: int, factor_order: str = "desc",
                       limit: int = DEFAULT_ENVELOPE) -> bool:
    """Standalone entry point for the rotation-law check, streaming the necklaces."""
    _check_envelope(n, q, limit)
    tables = build_tables(RingParams.create(n, q, factor_order))
    return _shift_lemma_holds(tables, _necklaces(n, q))


@dataclass(frozen=True)
class StratumRecord:
    support: tuple[tuple[int, ...], ...]
    formula: int
    necklace_side: int
    function_side: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive certification run."""

    n: int
    q: int
    factor_order: str
    necklace_total: int
    function_total: int
    strata: tuple[StratumRecord, ...]
    flags: dict[str, bool]  # check name -> passed, in the order the checks run
    elapsed: float
    stage_seconds: dict[str, float] = field(compare=False)  # per name in STAGES
    # failed check name -> its first counterexample, in words
    counterexamples: dict[str, str] = field(compare=False)
    tables: CosetTable = field(repr=False, compare=False)

    @property
    def all_ok(self) -> bool:
        return all(self.flags.values())

    def to_payload(self) -> dict:
        """JSON-ready content; counts as decimal strings, no timing."""
        return {
            "necklaces": str(self.necklace_total),
            "functions": str(self.function_total),
            "flags": dict(self.flags),
            "certified": self.all_ok,
            "strata": [
                {"support": [[j + 1 for j in idxs] for idxs in rec.support],
                 "formula": str(rec.formula), "necklace_side": str(rec.necklace_side),
                 "function_side": str(rec.function_side)}
                for rec in self.strata
            ],
        }


def verify_bijection(
    n: int, q: int, factor_order: str = "desc", limit: int = DEFAULT_ENVELOPE
) -> VerificationReport:
    """Map every necklace, compare against every zero-sum function, holding neither list.

    Each check is a lazy sequence of counterexample texts: it passes if the sequence is
    empty, else it names the first.  An image that is no function fails total and
    inverse_ok alike, is never unmapped, and is reused by the second pass."""
    _check_envelope(n, q, limit)
    started = time.perf_counter()
    tables = build_tables(RingParams.create(n, q, factor_order))
    flags, found = {}, {}  # check -> passed; failed check -> its first counterexample

    def judge(check: str, texts) -> None:
        flags[check] = (text := next(iter(texts), None)) is None
        if text is not None:
            found[check] = text

    clock, full, t0 = time.perf_counter, _full_support(tables), time.perf_counter()
    law = _word_x_break(tables, full)  # the rotation law's first break
    seconds = [0.0, 0.0, clock() - t0, 0.0]  # per name in STAGES
    failed = []  # (necklace, image, its unmap or None where the image is no function)
    necklace_by_key, visited, necklaces = Counter(), 0, _necklaces(n, q)
    for chunk in iter(lambda: list(islice(necklaces, CHUNK)), []):
        t0 = clock()
        profiles = [profile(tables, word) for word in chunk]
        images = [map_profiled(tables, word, prof) for word, prof in zip(chunk, profiles)]
        necklace_by_key.update(prof.support for prof in profiles)
        t1 = clock()
        for word, image in zip(chunk, images):
            member = _is_function(n, q, image)
            if not member or (back := unmap_function(tables, image)) != word:
                failed.append((word, image, back if member else None))
        t2 = clock()
        if law is None:
            walks = [_walk(tables, w, p.support, p, full) for w, p in zip(chunk, profiles)]
            visited += sum(visits for visits, _ in walks)
            law = next((text for _, text in walks if text), None)
        for k, stage_s in enumerate((t1 - t0, t2 - t1, clock() - t2)):
            seconds[k] += stage_s

    t0 = clock()
    function_by_key = Counter(function_support(tables, values) for values in _functions(n, q))
    necklace_total, function_total = necklace_by_key.total(), function_by_key.total()
    strata = [
        StratumRecord(key, stratum_count(tables, key), necklace_by_key[key], function_by_key[key])
        for key in stratum_keys(tables)
    ]
    seconds[3] += (t1 := clock()) - t0
    judge("total", (f"necklace {_csv(word)} maps to {_csv(image)}, not a function"
                    for word, image, back in failed if back is None))
    shared = first = None  # injective's counterexample; each image's first necklace
    if failed or necklace_total != function_total:
        stored, first = {word: image for word, image, _ in failed}, {}
        for word in _necklaces(n, q):
            image = stored.get(word) or map_profiled(tables, word, profile(tables, word))
            if first.setdefault(image, word) != word and shared is None:
                shared = (f"necklaces {_csv(first[image])} and {_csv(word)} "
                          f"both map to {_csv(image)}")
    judge("injective", [shared] if shared else [])
    # with every function reached, some image is not a function: total's counterexample
    judge("surjective", chain(
        () if first is None else (f"no necklace maps to {_csv(values)}"
                                  for values in _functions(n, q) if values not in first),
        [found["total"]] if "total" in found else []))
    seconds[0] += clock() - t1
    judge("inverse_ok", (f"necklace {_csv(word)} maps to {_csv(image)}, " + (
        "not a function" if back is None else f"which unmaps to {_csv(back)}")
        for word, image, back in failed))
    if law is None and visited != q**n:
        law = f"the orbits visit {visited} words, not q^n = {q**n}"
    judge("shift_lemma_ok", [law] if law else [])
    formula_total = sum(rec.formula for rec in strata)
    sums_ok = (formula_total == necklace_total
               and sum(rec.function_side for rec in strata) == function_total)
    judge("stratum_ok", chain(
        (f"support {support_text(rec.support)}: formula {rec.formula}, "
         f"{rec.necklace_side} necklaces, {rec.function_side} functions"
         for rec in strata if not rec.formula == rec.necklace_side == rec.function_side),
        () if sums_ok else (f"the strata's formulas sum to {formula_total} "
                            f"for {necklace_total} necklaces and {function_total} functions",)))

    return VerificationReport(
        n, q, factor_order, necklace_total, function_total, tuple(strata), flags,
        elapsed=time.perf_counter() - started, stage_seconds=dict(zip(STAGES, seconds)),
        counterexamples=found, tables=tables)
