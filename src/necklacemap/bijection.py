"""The necklace <-> function correspondence itself.

Forward direction, per word:
 1. split: residues in every quotient field, support = nonzero pattern;
 2. discrete logs, split into (turns, offset) per supported coset;
 3. align the turns with the unit automorphism for this support;
 4. payload = offset * rotation_order + aligned_turns per supported coset
    (encode_components);
 5. the payloads write the color values f(v) = sum_i w_i * digit_i(v)
    directly (combine_components): every value starts at q - 1, each digit
    saturated at q_i - 1 as an unsupported coset shows, and each payload
    lowers its orbit by w_i * (q_i - 1 - d) for its base-q_i digits d,
    least significant first; live_payloads reads the payloads back.

A necklace maps to the image of the unique rotation of its word whose
function has weighted sum 0 (mod n).  That rotation is solved for, not
searched: an unsupported coset adds 0 to the weighted sum and a supported
one adds w_i * rep * aligned_turns, and the calibration in step 3 makes
rotating the word by k places give

    ws(k) = ws0 + k * g  (mod n),   g = gcd(n, supported reps),

while the word's least period is n / g.  So k = -ws0 / g (mod n / g) names
exactly one rotation, and its profile comes from the word's own profile
by the shift law (dlog.rotate_profile).  Every step is invertible, which
is what unmap_function walks backwards, by the same law: a residue of log
turns * x_exponent + offset is x**turns * generator**offset, so the
inverse reads x**turns from its quotient's list (x_powers) and raises the
generator only to the offset, below x_exponent.
"""

from __future__ import annotations

from .automorphism import UnitAutomorphism
from .decomposition import CosetTable, crt_combine, orbit_canonical, shift
from .dlog import ResidueProfile, profile, rotate_profile
from .errors import NotInFError, RangeViolationError, UniquenessViolationError


def weighted_sum(n: int, values) -> int:
    """sum(v * f(v)) mod n; membership in the target set means 0."""
    return sum(v * c for v, c in enumerate(values)) % n


def aligned_turns(prof: ResidueProfile, aut: UnitAutomorphism) -> tuple[int, ...]:
    """Rotation counters of the supported cosets after calibration."""
    return aut.apply(tuple(prof.entry(i, j).turns for i, j in aut.pairs))


def encode_components(
    tables: CosetTable, prof: ResidueProfile, aut: UnitAutomorphism
) -> dict[tuple[int, int], int]:
    """{(i, j): offset * rotation_order + aligned turns} of the supported cosets,
    each below q_i**size - 1, the saturated digit block of an unsupported coset."""
    payloads = {}
    for (i, j), aligned in zip(aut.pairs, aligned_turns(prof, aut)):
        block = tables.blocks[i]
        bound = block.factor.value ** block.cosets[j].size - 1
        payload = prof.entry(i, j).offset * block.quotients[j].rotation_order + aligned
        if not 0 <= payload < bound:
            raise RangeViolationError(f"digit payload {payload} escapes [0, {bound})")
        payloads[(i, j)] = payload
    return payloads


def combine_components(tables: CosetTable, payloads) -> tuple[int, ...]:
    """Color values sum w_i * digit_i(v) of a payload dict: each starts at
    q - 1 = sum w_i * (q_i - 1), every digit saturated, and each payload lowers
    its orbit by w_i * (q_i - 1 - d) per base-q_i digit d, least significant first."""
    params = tables.params
    values = [params.q - 1] * params.n
    for (i, j), payload in payloads.items():
        qi, w = tables.blocks[i].factor.value, params.weights[i]
        for pos in tables.blocks[i].cosets[j].orbit:
            payload, d = divmod(payload, qi)
            values[pos] -= w * (qi - 1 - d)
    return tuple(values)


def live_payloads(tables: CosetTable, values) -> dict[tuple[int, int], int]:
    """{(i, j): payload} of every coset whose digit block is not saturated:
    the inverse of combine_components, reading digit i of c as c // w_i % q_i."""
    payloads = {}
    for i, (block, w) in enumerate(zip(tables.blocks, tables.params.weights)):
        qi = block.factor.value
        for j, coset in enumerate(block.cosets):
            payload = 0
            for pos in reversed(coset.orbit):
                payload = payload * qi + values[pos] // w % qi
            if payload != qi**coset.size - 1:
                payloads[(i, j)] = payload
    return payloads


def _support_of(tables: CosetTable, pairs) -> tuple[tuple[int, ...], ...]:
    support = [[] for _ in tables.blocks]
    for i, j in pairs:
        support[i].append(j)
    return tuple(tuple(live) for live in support)


def function_support(tables: CosetTable, values) -> tuple[tuple[int, ...], ...]:
    """Which cosets are live for a function: digit block not fully saturated."""
    values = tables.check_word(values, "function", "value")
    return _support_of(tables, live_payloads(tables, values))


def encode_word(tables: CosetTable, word) -> tuple[int, ...]:
    """Image function of one fixed word (not yet rotation-normalized)."""
    prof = profile(tables, word)
    aut = tables.automorphisms.for_support(prof.support)
    return combine_components(tables, encode_components(tables, prof, aut))


def map_necklace(tables: CosetTable, word) -> tuple[int, ...]:
    """Image of the necklace through the unique zero-sum rotation.

    Rotation-invariant: any representative of the orbit gives the same
    function.  The checked word is profiled once and mapped from that
    profile by map_profiled.
    """
    word = tables.check_word(word)
    return map_profiled(tables, word, profile(tables, word))


def map_profiled(tables: CosetTable, word, prof: ResidueProfile) -> tuple[int, ...]:
    """map_necklace of a checked word whose profile the caller already holds.

    With ws0 the weighted sum of the word's own image and g the calibration
    step, the zero-sum rotation is k = -ws0 / g (mod n / g), and only that
    rotation is encoded, its profile taken from `prof` by the shift law.
    g must divide ws0, n / g must be a period of the word, and the image
    must have weighted sum 0; anything else is a broken invariant.  The
    oracle maps each necklace from the profile its rotation walk reuses.
    """
    n = tables.params.n
    aut = tables.automorphisms.for_support(prof.support)
    ws0 = sum(c * a for c, a in zip(aut.coeffs, aligned_turns(prof, aut))) % n
    g = aut.step
    if ws0 % g:
        raise UniquenessViolationError(
            f"weighted sum {ws0} is not a multiple of the step {g}; no rotation reaches 0"
        )
    period = n // g
    if shift(word, period) != word:
        raise UniquenessViolationError(
            f"n/g = {period} is not a period of the word; several rotations reach 0"
        )
    k = -(ws0 // g) % period
    image = combine_components(
        tables, encode_components(tables, rotate_profile(tables, prof, k), aut)
    )
    if weighted_sum(n, image) != 0:
        raise UniquenessViolationError("the solved rotation has a nonzero weighted sum")
    return image


def unmap_function(tables: CosetTable, values) -> tuple[int, ...]:
    """Canonical necklace word mapping to the given zero-sum function.

    Each live payload splits into (offset, aligned turns), the calibration is
    undone, and the residue generator**(turns * x_exponent + offset) is taken
    by the shift law as x_powers[turns] * generator**offset: no power at all
    where the offset is 0, and one product after a power below x_exponent
    otherwise.  The CRT combine of the residues gives a word of the necklace,
    returned as its least rotation.
    """
    values = tables.check_word(values, "function", "value")
    n = tables.params.n
    if weighted_sum(n, values) != 0:
        raise NotInFError("weighted sum is nonzero mod n; no necklace maps here")

    parts = {}
    for (i, j), payload in live_payloads(tables, values).items():
        qctx = tables.blocks[i].quotients[j]
        offset, aligned = divmod(payload, qctx.rotation_order)
        if offset >= qctx.x_exponent:
            raise RangeViolationError("offset part escapes its range")
        parts[(i, j)] = offset, aligned

    aut = tables.automorphisms.for_support(_support_of(tables, parts))
    turns = aut.apply_inv(tuple(parts[pair][1] for pair in aut.pairs))
    residues = [[qctx.field.zero for qctx in block.quotients] for block in tables.blocks]
    for (i, j), turn in zip(aut.pairs, turns):
        qctx, offset = tables.blocks[i].quotients[j], parts[(i, j)][0]
        residue = qctx.x_powers[turn]
        if offset:
            residue = qctx.field.mul(residue, qctx.field.pow(qctx.generator, offset))
        residues[i][j] = residue
    return orbit_canonical(crt_combine(tables, residues))
