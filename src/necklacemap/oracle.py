"""Exhaustive enumeration of both sides and full certification at desk scale.

This module is the ground truth: it generates every necklace and every
zero-sum function inside a size envelope, by rules that share no code with
the map, pushes each necklace through the map, and checks totality,
injectivity, surjectivity, the inverse round trip, the rotation law of the
log split, and every stratum count against the closed-form formulas.

The rotation law is checked by walking the rotation orbit of every
necklace: one profile (split plus discrete logs) per fully supported word,
compared cyclically along its orbit, and only the support of every other
word, read off the split's digits.  Each necklace is split once: its
support, kept in one list (interned, so equal supports are one object),
decides its orbit's branch in the walk and is what the strata count.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import pairwise, product

from .bijection import function_support, map_necklace, unmap_function, weighted_sum
from .counting import stratum_count, stratum_keys
from .decomposition import CosetTable, build_tables, shift
from .decomposition import orbit_canonical  # noqa: F401  bench/tracer.py hooks it here
from .dlog import profile, split_support
from .errors import EnvelopeExceededError
from .numtheory import RingParams

DEFAULT_ENVELOPE = 10**8
# verify's checks in the order they run, each timed apart; the rotation law's time
# includes the necklaces' splits, whose supports the strata then count
STAGES = ("map", "inverse", "rotation law", "strata")


def _check_envelope(n: int, q: int, limit: int) -> None:
    """Refuse n*q^n > limit without building q**n when bit lengths decide it.

    n*q^n >= 2**((n.bit_length() - 1) + n*(q.bit_length() - 1)), so that
    exponent reaching limit.bit_length() already exceeds the limit; below
    it, q**n has at most about twice limit's bits.  The product never goes
    into the message: it may have more digits than int-to-str allows.
    """
    low_bits = (n.bit_length() - 1) + n * (q.bit_length() - 1)
    if low_bits >= limit.bit_length() or n * q**n > limit:
        raise EnvelopeExceededError(
            f"n*q^n for n={n}, q={q} exceeds the enumeration envelope {limit}"
        )


def enum_necklaces(n: int, q: int, limit: int = DEFAULT_ENVELOPE) -> list[tuple[int, ...]]:
    """One canonical (lexicographically least) word per rotation orbit, in lexicographic order.

    Generated, not filtered (Fredricksen, Kessler & Maiorana, Discrete Math. 23(3), 1978):
    Duval's successor rule walks the Lyndon words of length at most n in lexicographic
    order, and each one of length d | n, repeated n/d times, is the next necklace.
    """
    _check_envelope(n, q, limit)
    out, word = [], [-1]
    while word:
        word[-1] += 1
        d = len(word)
        word = [word[v % d] for v in range(n)]
        if n % d == 0:
            out.append(tuple(word))
        while word and word[-1] == q - 1:
            word.pop()
    return out


def enum_functions(n: int, q: int, limit: int = DEFAULT_ENVELOPE) -> list[tuple[int, ...]]:
    """All functions Z_n -> [0, q) whose weighted sum vanishes mod n, in lexicographic order.

    As n - 1 = -1 (mod n), the weighted sum is S - f(n-1) with S = sum(v * f(v), v < n - 1),
    so each prefix f(0..n-2) takes exactly the last values S mod n, S mod n + n, ... below q.
    At n = 1 the prefix is empty and every value is taken.
    """
    _check_envelope(n, q, limit)
    return [prefix + (last,)
            for prefix in product(range(q), repeat=n - 1)
            for last in range(sum(v * c for v, c in enumerate(prefix)) % n, q, n)]


def _full_support(tables: CosetTable) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(len(block.cosets))) for block in tables.blocks)


def _shift_lemma_holds(tables: CosetTable, necklaces, supports=None) -> bool:
    """Rotation law of the log split, checked exhaustively.

    Part one: for the bare word x, every supported coset shows one turn and
    zero offset.  Part two walks the rotation orbit of every necklace, which
    visits every word once (the visits must number q**n).  On a fully
    supported orbit each rotation is profiled once and compared with the
    next rotation, the last one with the necklace: one shift adds one to the
    turns (mod rotation_order) and keeps the offset; by induction over all
    words, so does a shift by k.  On any other orbit no log is taken: every
    other rotation's split_support must equal the necklace's.  `supports`
    holds each necklace's split_support, in order, where the caller has them
    (verify_bijection shares them with the strata); without it the walk
    splits each necklace itself.
    """
    n, q = tables.params.n, tables.params.q
    full = _full_support(tables)

    word_x = (1 % q,) if n == 1 else (0, 1 % q) + (0,) * (n - 2)
    prof_x = profile(tables, word_x)
    if prof_x.support != full:
        return False
    for i, block in enumerate(tables.blocks):
        for j, qctx in enumerate(block.quotients):
            entry = prof_x.entry(i, j)
            if entry.turns % qctx.rotation_order != 1 % qctx.rotation_order:
                return False
            if entry.offset != 0:
                return False

    if supports is None:
        supports = [split_support(tables, necklace) for necklace in necklaces]
    visited = 0
    for necklace, support in zip(necklaces, supports, strict=True):
        orbit = [necklace]
        while (word := shift(orbit[-1], 1)) != necklace:
            orbit.append(word)
        visited += len(orbit)
        if support != full:
            if any(split_support(tables, word) != support for word in orbit[1:]):
                return False
            continue
        profiles = [profile(tables, word) for word in orbit]
        if any(prof.support != full for prof in profiles):
            return False
        for base, rotated in zip(profiles, profiles[1:] + profiles[:1]):
            for i, block in enumerate(tables.blocks):
                for j, qctx in enumerate(block.quotients):
                    b0 = base.entry(i, j)
                    b1 = rotated.entry(i, j)
                    if b1.turns % qctx.rotation_order != (1 + b0.turns) % qctx.rotation_order:
                        return False
                    if b1.offset != b0.offset:
                        return False
    return visited == q**n


def verify_shift_lemma(
    n: int, q: int, factor_order: str = "desc", limit: int = DEFAULT_ENVELOPE
) -> bool:
    """Standalone entry point for the rotation-law check."""
    _check_envelope(n, q, limit)
    tables = build_tables(RingParams.create(n, q, factor_order))
    return _shift_lemma_holds(tables, enum_necklaces(n, q, limit))


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
                {
                    "support": [[j + 1 for j in idxs] for idxs in rec.support],
                    "formula": str(rec.formula),
                    "necklace_side": str(rec.necklace_side),
                    "function_side": str(rec.function_side),
                }
                for rec in self.strata
            ],
        }


def verify_bijection(
    n: int, q: int, factor_order: str = "desc", limit: int = DEFAULT_ENVELOPE
) -> VerificationReport:
    """Map every necklace, compare against every zero-sum function."""
    _check_envelope(n, q, limit)
    started = time.perf_counter()
    tables = build_tables(RingParams.create(n, q, factor_order))

    necklaces = enum_necklaces(n, q, limit)
    functions = enum_functions(n, q, limit)
    function_set = set(functions)

    flags: dict[str, bool] = {}
    marks = [time.perf_counter()]  # and one as each of STAGES ends
    images = [map_necklace(tables, word) for word in necklaces]
    flags["total"] = all(
        len(image) == n and weighted_sum(n, image) == 0 and all(0 <= c < q for c in image)
        for image in images
    )
    image_set = set(images)
    flags["injective"] = len(image_set) == len(images)
    flags["surjective"] = image_set == function_set
    marks.append(time.perf_counter())
    flags["inverse_ok"] = all(
        unmap_function(tables, image) == word for word, image in zip(necklaces, images)
    )
    marks.append(time.perf_counter())

    interned: dict = {}  # each distinct support once, so the list holds references
    supports = [interned.setdefault(key := split_support(tables, word), key) for word in necklaces]
    flags["shift_lemma_ok"] = _shift_lemma_holds(tables, necklaces, supports)
    marks.append(time.perf_counter())

    necklace_by_key = Counter(supports)
    function_by_key = Counter(function_support(tables, values) for values in functions)
    strata = [
        StratumRecord(
            support=key,
            formula=stratum_count(tables, key),
            necklace_side=necklace_by_key.get(key, 0),
            function_side=function_by_key.get(key, 0),
        )
        for key in stratum_keys(tables)
    ]
    flags["stratum_ok"] = (
        all(rec.formula == rec.necklace_side == rec.function_side for rec in strata)
        and sum(rec.formula for rec in strata) == len(necklaces)
        and sum(rec.function_side for rec in strata) == len(functions)
    )
    marks.append(time.perf_counter())

    return VerificationReport(
        n=n,
        q=q,
        factor_order=factor_order,
        necklace_total=len(necklaces),
        function_total=len(functions),
        strata=tuple(strata),
        flags=flags,
        elapsed=time.perf_counter() - started,
        stage_seconds=dict(zip(STAGES, (end - start for start, end in pairwise(marks)))),
        tables=tables,
    )
