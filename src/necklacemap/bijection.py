"""The necklace <-> function correspondence itself.

Forward direction, per word:
 1. split: residues in every quotient field, support = nonzero pattern;
 2. discrete logs, split into (turns, offset) per supported coset;
 3. align the turns with the unit automorphism for this support;
 4. payload per coset = offset * rotation_order + aligned_turns, written
    as base-q_i digits along the coset orbit; unsupported cosets get the
    saturated digit q_i - 1 everywhere;
 5. color value at v = sum_i weight_i * digit_i(v).

A necklace maps to the image of the unique rotation of its word whose
function has weighted sum 0 (mod n).  That rotation is solved for, not
searched: an unsupported coset adds 0 to the weighted sum and a supported
one adds w_i * rep * aligned_turns, and the calibration in step 3 makes
rotating the word by k places give

    ws(k) = ws0 + k * g  (mod n),   g = gcd(n, supported reps),

while the word's least period is n / g.  So k = -ws0 / g (mod n / g) names
exactly one rotation, and its profile comes from the word's own profile
by the shift law (dlog.rotate_profile).  Every step is invertible, which
is what unmap_function walks backwards.
"""

from __future__ import annotations

from .automorphism import UnitAutomorphism
from .decomposition import CosetTable, crt_combine, orbit_canonical, shift
from .dlog import ResidueProfile, profile, rotate_profile
from .errors import (
    InternalError,
    NotInFError,
    RangeViolationError,
    UniquenessViolationError,
)


def weighted_sum(n: int, values) -> int:
    """sum(v * f(v)) mod n; membership in the target set means 0."""
    return sum(v * c for v, c in enumerate(values)) % n


def check_function(tables: CosetTable, values) -> tuple[int, ...]:
    values = tuple(values)
    if len(values) != tables.params.n:
        raise ValueError(f"function length {len(values)} != n = {tables.params.n}")
    for c in values:
        if not 0 <= c < tables.params.q:
            raise ValueError(f"value {c} outside [0, {tables.params.q})")
    return values


def aligned_turns(prof: ResidueProfile, aut: UnitAutomorphism) -> tuple[int, ...]:
    """Rotation counters of the supported cosets after calibration."""
    return aut.apply(tuple(prof.entry(i, j).turns for i, j in aut.pairs))


def encode_components(
    tables: CosetTable, prof: ResidueProfile, aut: UnitAutomorphism
) -> list[list[int]]:
    """Per-factor digit functions for one word, positions via coset orbits."""
    n = tables.params.n
    comps = [[None] * n for _ in tables.blocks]
    aligned = aligned_turns(prof, aut)

    for i, block in enumerate(tables.blocks):
        qi = block.factor.value
        supported = set(prof.support[i])
        for j, (coset, qctx) in enumerate(zip(block.cosets, block.quotients)):
            if j not in supported:
                for pos in coset.orbit:
                    comps[i][pos] = qi - 1
                continue
            idx = aut.pairs.index((i, j))
            payload = prof.entry(i, j).offset * qctx.rotation_order + aligned[idx]
            if not 0 <= payload < qi**coset.size - 1:
                raise RangeViolationError(
                    f"digit payload {payload} escapes [0, {qi**coset.size - 1})"
                )
            digits = []
            rest = payload
            for _ in range(coset.size):
                rest, d = divmod(rest, qi)
                digits.append(d)
            if all(d == qi - 1 for d in digits):
                raise RangeViolationError("digit block saturated on a supported coset")
            for u, pos in enumerate(coset.orbit):
                comps[i][pos] = digits[u]
        if any(d is None for d in comps[i]):
            raise InternalError("coset orbits failed to cover every position")
    return comps


def combine_components(tables: CosetTable, comps) -> tuple[int, ...]:
    """Mix per-factor digits into color values: f(v) = sum w_i * f_i(v)."""
    params = tables.params
    for block, comp in zip(tables.blocks, comps):
        qi = block.factor.value
        for d in comp:
            if not 0 <= d < qi:
                raise ValueError(f"digit {d} outside [0, {qi})")
    values = []
    for v in range(params.n):
        values.append(sum(w * comp[v] for w, comp in zip(params.weights, comps)))
    return tuple(values)


def split_components(tables: CosetTable, values) -> list[list[int]]:
    """Inverse of combine_components: per-factor digits of each color value."""
    params = tables.params
    comps = []
    for w, factor in zip(params.weights, params.factors):
        qi = factor.value
        comps.append([(c // w) % qi for c in values])
    return comps


def function_support(tables: CosetTable, values) -> tuple[tuple[int, ...], ...]:
    """Which cosets are live for a function: digit block not fully saturated."""
    values = check_function(tables, values)
    comps = split_components(tables, values)
    support = []
    for i, block in enumerate(tables.blocks):
        qi = block.factor.value
        live = []
        for j, coset in enumerate(block.cosets):
            if any(comps[i][pos] != qi - 1 for pos in coset.orbit):
                live.append(j)
        support.append(tuple(live))
    return tuple(support)


def encode_word(tables: CosetTable, word) -> tuple[int, ...]:
    """Image function of one fixed word (not yet rotation-normalized)."""
    prof = profile(tables, word)
    aut = tables.automorphisms.for_support(prof.support)
    return combine_components(tables, encode_components(tables, prof, aut))


def map_necklace(tables: CosetTable, word) -> tuple[int, ...]:
    """Image of the necklace through the unique zero-sum rotation.

    Rotation-invariant: any representative of the orbit gives the same
    function.  The word is profiled once; with ws0 the weighted sum of its
    own image and g the calibration step, the zero-sum rotation is
    k = -ws0 / g (mod n / g), and only that rotation is encoded.  g must
    divide ws0, n / g must be a period of the word, and the image must
    have weighted sum 0; anything else is a broken invariant.
    """
    word = tables.check_word(word)
    n = tables.params.n
    prof = profile(tables, word)
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
    """Canonical necklace word mapping to the given zero-sum function."""
    values = check_function(tables, values)
    n = tables.params.n
    if weighted_sum(n, values) != 0:
        raise NotInFError("weighted sum is nonzero mod n; no necklace maps here")

    comps = split_components(tables, values)
    support = []
    aligned_parts = {}
    offsets = {}
    for i, block in enumerate(tables.blocks):
        qi = block.factor.value
        live = []
        for j, (coset, qctx) in enumerate(zip(block.cosets, block.quotients)):
            digits = [comps[i][pos] for pos in coset.orbit]
            if all(d == qi - 1 for d in digits):
                continue
            payload = 0
            for d in reversed(digits):
                payload = payload * qi + d
            offset, aligned = divmod(payload, qctx.rotation_order)
            if offset >= qctx.x_exponent:
                raise RangeViolationError("offset part escapes its range")
            live.append(j)
            aligned_parts[(i, j)] = aligned
            offsets[(i, j)] = offset
        support.append(tuple(live))

    aut = tables.automorphisms.for_support(tuple(support))
    turns = aut.apply_inv(tuple(aligned_parts[p] for p in aut.pairs))

    residues = []
    for i, block in enumerate(tables.blocks):
        group = []
        for j, qctx in enumerate(block.quotients):
            if (i, j) not in aligned_parts:
                group.append(qctx.field.zero)
                continue
            idx = aut.pairs.index((i, j))
            log = turns[idx] * qctx.x_exponent + offsets[(i, j)]
            group.append(qctx.field.pow(qctx.generator, log))
        residues.append(tuple(group))

    return orbit_canonical(crt_combine(tables, residues))
