"""Exhaustive enumeration of both sides and full certification at desk scale.

This module is the ground truth: it generates every necklace and every
zero-sum function inside a size envelope, by rules that share no code with
the map, pushes each necklace through the map, and checks totality (each
image is a member of that enumeration of the functions), injectivity,
surjectivity, the inverse round trip, the rotation law of the log split,
and every stratum count against the closed-form formulas.

The rotation law is checked by walking the rotation orbit of every
necklace: one profile (split plus discrete logs) per fully supported word,
compared cyclically along its orbit, and only the support of every other
word, read off the split's digits.  Each necklace is profiled once, and
that profile is all verify shares with the map: the map pass maps the
necklace from it (map_profiled), its support (interned, so equal supports
are one object) decides the orbit's branch in the walk and is what the
strata count, and a fully supported necklace's walk starts from it.  The
parts that judge the map never read rotate_profile, the map's solve of the
zero-sum rotation or the calibration: enumeration and weighted sums are
written here, the inverse check compares unmap_function (itself under
test) with the enumerated word, and the walk profiles every other rotation
from that word's own split.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, pairwise, product

from .bijection import function_support, map_profiled, unmap_function
from .bijection import map_necklace  # noqa: F401  bench/tracer.py hooks it here
from .counting import stratum_count, stratum_keys, support_text
from .decomposition import CosetTable, build_tables, shift
from .decomposition import orbit_canonical  # noqa: F401  bench/tracer.py hooks it here
from .dlog import profile, split_support
from .errors import EnvelopeExceededError
from .numtheory import RingParams

DEFAULT_ENVELOPE = 10**8
# verify's checks in the order they run, each timed apart; the map's time includes
# the necklaces' profiles, which the rotation law and the strata then reuse, so the
# rotation law profiles or splits only the other rotations
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


def _csv(word) -> str:
    return ",".join(map(str, word))


def _full_support(tables: CosetTable) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(len(block.cosets))) for block in tables.blocks)


def _shift_lemma_holds(tables: CosetTable, necklaces, supports=None, profiles=None) -> bool:
    """Rotation law of the log split, checked exhaustively.

    Part one: for the bare word x, every supported coset shows one turn and
    zero offset.  Part two walks the rotation orbit of every necklace, which
    visits every word once (the visits must number q**n).  On a fully
    supported orbit each rotation is profiled once and compared with the
    next rotation, the last one with the necklace: one shift adds one to the
    turns (mod rotation_order) and keeps the offset; by induction over all
    words, so does a shift by k.  On any other orbit no log is taken: every
    other rotation's split_support must equal the necklace's.  `supports`
    holds each necklace's support, in order, and `profiles` each fully
    supported necklace's profile (None for the others), where the caller
    has them: verify_bijection shares the profiles of its map pass.
    Without them the walk splits each necklace, and profiles each fully
    supported one, itself.  Every other rotation is split or profiled here.
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
    if profiles is None:
        profiles = [None] * len(necklaces)
    visited = 0
    for necklace, support, prof in zip(necklaces, supports, profiles, strict=True):
        orbit = [necklace]
        while (word := shift(orbit[-1], 1)) != necklace:
            orbit.append(word)
        visited += len(orbit)
        if support != full:
            if any(split_support(tables, word) != support for word in orbit[1:]):
                return False
            continue
        walked = [prof or profile(tables, necklace)]
        walked += [profile(tables, word) for word in orbit[1:]]
        if any(p.support != full for p in walked):
            return False
        for base, rotated in zip(walked, walked[1:] + walked[:1]):
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
    # failed check name -> its first counterexample, in words; the rotation law names none
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
    """Map every necklace, compare against every zero-sum function.

    Each map-side check is a lazy sequence of counterexample texts: it passes if
    the sequence is empty, else it names the first, found by the same scan.  The
    checks read the enumerated functions and a dict from each image to its first
    necklace; an image outside the functions fails total and inverse_ok alike and
    is never unmapped.
    """
    _check_envelope(n, q, limit)
    started = time.perf_counter()
    tables = build_tables(RingParams.create(n, q, factor_order))

    necklaces = enum_necklaces(n, q, limit)
    functions = enum_functions(n, q, limit)
    function_set = set(functions)

    flags: dict[str, bool] = {}
    found: dict[str, str] = {}  # each failed check's first counterexample

    def judge(check: str, texts) -> None:
        flags[check] = (text := next(iter(texts), None)) is None
        if text is not None:
            found[check] = text

    marks = [time.perf_counter()]  # and one as each of STAGES ends
    full = _full_support(tables)
    interned: dict = {}  # each distinct support once, so the list holds references
    images, supports, full_profiles = [], [], []
    for word in necklaces:
        prof = profile(tables, word)
        images.append(map_profiled(tables, word, prof))
        supports.append(interned.setdefault(prof.support, prof.support))
        full_profiles.append(prof if prof.support == full else None)
    first = dict(zip(reversed(images), reversed(necklaces)))  # image -> its first necklace
    judge("total", (f"necklace {_csv(word)} maps to {_csv(image)}, not a function"
                    for word, image in zip(necklaces, images) if image not in function_set))
    judge("injective", (
        f"necklaces {_csv(first[image])} and {_csv(word)} both map to {_csv(image)}"
        for word, image in zip(necklaces, images) if first[image] != word))
    # with every function reached, some image is not a function: total's counterexample
    judge("surjective", chain(
        (f"no necklace maps to {_csv(values)}" for values in functions if values not in first),
        [found["total"]] if "total" in found else []))
    marks.append(time.perf_counter())
    judge("inverse_ok", (
        f"necklace {_csv(word)} maps to {_csv(image)}, "
        + ("not a function" if image not in function_set else f"which unmaps to {_csv(back)}")
        for word, image in zip(necklaces, images)
        if image not in function_set or (back := unmap_function(tables, image)) != word))
    marks.append(time.perf_counter())

    flags["shift_lemma_ok"] = _shift_lemma_holds(tables, necklaces, supports, full_profiles)
    marks.append(time.perf_counter())

    necklace_by_key = Counter(supports)
    function_by_key = Counter(function_support(tables, values) for values in functions)
    strata = [
        StratumRecord(key, stratum_count(tables, key), necklace_by_key[key], function_by_key[key])
        for key in stratum_keys(tables)
    ]
    formula_total = sum(rec.formula for rec in strata)
    sums_ok = (formula_total == len(necklaces)
               and sum(rec.function_side for rec in strata) == len(functions))
    judge("stratum_ok", chain(
        (f"support {support_text(rec.support)}: formula {rec.formula}, "
         f"{rec.necklace_side} necklaces, {rec.function_side} functions"
         for rec in strata if not rec.formula == rec.necklace_side == rec.function_side),
        () if sums_ok else (f"the strata's formulas sum to {formula_total} "
                            f"for {len(necklaces)} necklaces and {len(functions)} functions",)))
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
        counterexamples=found,
        tables=tables,
    )
