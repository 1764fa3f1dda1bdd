"""Cyclotomic cosets, factoring x**n - 1, and the two-level CRT split.

A color word c_0..c_{n-1} over [0, q) is read as the polynomial
sum(c_v x**v) in Z_q[x]/(x**n - 1).  Reducing colors modulo each prime
power q_i (and identifying [0, q_i) with F_{q_i} through the canonical
element indexing) gives one polynomial per factor; reducing that modulo
the irreducible factors of x**n - 1 over F_{q_i} gives one residue per
cyclotomic coset.  Both reductions are invertible, which is what
crt_combine implements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import polys
from .automorphism import AutomorphismTable
from .errors import InternalError, NotCoprimeError
from .fields import (
    Field,
    QuotientFieldCtx,
    build_field,
    extend_field,
    find_primitive,
)
from .numtheory import PrimePowerFactor, RingParams, factorize


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of a residue under multiplication by q_i modulo n."""

    rep: int
    size: int
    orbit: tuple[int, ...]
    members: tuple[int, ...]


def cyclotomic_cosets(n: int, qi: int) -> list[CyclotomicCoset]:
    """All multiplication-by-qi orbits on Z_n, sorted by minimal element.

    The orbit field keeps multiplication order (rep, rep*qi, rep*qi**2, ...),
    which is the digit layout the encoder relies on; members is the same set
    sorted.
    """
    if n < 1:
        raise ValueError(f"need positive n, got {n}")
    if math.gcd(n, qi) != 1:
        raise NotCoprimeError(f"{qi} is not a unit modulo {n}")
    seen = bytearray(n)
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        v = start
        while True:
            orbit.append(v)
            seen[v] = 1
            v = v * qi % n
            if v == start:
                break
        out.append(
            CyclotomicCoset(
                rep=start,
                size=len(orbit),
                orbit=tuple(orbit),
                members=tuple(sorted(orbit)),
            )
        )
    return out


def _xn_minus_1(field, n: int) -> tuple:
    coeffs = [field.zero] * (n + 1)
    coeffs[0] = field.neg(field.one)
    coeffs[n] = field.add(coeffs[n], field.one)
    return polys.trim(field, coeffs)


def _root_of_unity(ext, n: int):
    """Canonical element of multiplicative order n: a power of the first
    primitive element.  (Scanning for order exactly n would touch most of
    the field once the splitting extension gets large.)  omega**n = 1 by
    construction, so omega**(n/r) != 1 for each prime r | n proves the order."""
    group = ext.order - 1
    if group % n != 0:
        raise InternalError("splitting field does not contain the needed roots")
    omega = ext.pow(find_primitive(ext), group // n)
    if any(ext.pow(omega, n // f.p) == ext.one for f in factorize(n)):
        raise InternalError("root of unity has the wrong order")  # pragma: no cover
    return omega


def factor_xn_minus_1(n: int, field: Field, cosets=None) -> list[tuple]:
    """Monic irreducible factors of x**n - 1 over `field`, one per coset.

    Works inside the splitting extension: pick a root of unity w of order n
    there, multiply out prod(x - w**k) over each coset's members, and push
    the coefficients back down to `field` (they always land there because
    each coset is Frobenius-closed).  Returned coefficient tuples align
    with the coset list.
    """
    if math.gcd(n, field.order) != 1:
        raise NotCoprimeError(f"field order {field.order} shares a factor with n={n}")
    if cosets is None:
        cosets = cyclotomic_cosets(n, field.order)
    # no coset outgrows the coset of 1, whose size is the order of |field| mod n
    ext = extend_field(field, max(c.size for c in cosets))
    omega = _root_of_unity(ext, n)

    factors = []
    for coset in cosets:
        poly = (ext.one,)
        for k in coset.members:
            root = ext.pow(omega, k)
            poly = polys.mul(ext, poly, (ext.neg(root), ext.one))
        down = []
        for c in poly:
            base_c = ext.in_base(c)
            if base_c is None:
                raise InternalError("factor coefficient escaped the base field")
            down.append(base_c)
        descended = polys.trim(field, down)
        if polys.degree(descended) != coset.size:
            raise InternalError("factor degree does not match its coset")
        factors.append(descended)

    product = (field.one,)
    for f in factors:
        product = polys.mul(field, product, f)
    if product != _xn_minus_1(field, n):
        raise InternalError("coset factors do not multiply back to x**n - 1")
    return factors


@dataclass(frozen=True)
class FactorBlock:
    """Everything attached to one prime-power factor q_i."""

    factor: PrimePowerFactor
    field: Field
    cosets: tuple[CyclotomicCoset, ...]
    factor_polys: tuple[tuple, ...]
    quotients: tuple[QuotientFieldCtx, ...]
    crt_idempotents: tuple[tuple, ...]


class CosetTable:
    """Per-factor coset data plus both CRT directions, fully precomputed."""

    def __init__(self, params: RingParams):
        self.params = params
        n = params.n
        blocks = []
        for factor in params.factors:
            field = build_field(factor.p, factor.t)
            cosets = tuple(cyclotomic_cosets(n, factor.value))
            factor_polys = tuple(factor_xn_minus_1(n, field, cosets))
            quotients = tuple(
                QuotientFieldCtx(field, poly, n, coset.rep)
                for coset, poly in zip(cosets, factor_polys)
            )
            idempotents = self._idempotents(field, n, factor_polys, quotients)
            blocks.append(
                FactorBlock(
                    factor=factor,
                    field=field,
                    cosets=cosets,
                    factor_polys=factor_polys,
                    quotients=quotients,
                    crt_idempotents=idempotents,
                )
            )
        self.blocks: tuple[FactorBlock, ...] = tuple(blocks)
        self.color_basis = self._color_basis(params)
        self.automorphisms = AutomorphismTable(self)

    @staticmethod
    def _idempotents(field, n, factor_polys, quotients) -> tuple[tuple, ...]:
        """CRT basis: eps_j = 1 mod P_j and 0 mod every other factor."""
        xn1 = _xn_minus_1(field, n)
        out = []
        for poly, qctx in zip(factor_polys, quotients):
            cofactor, rem = polys.divmod_(field, xn1, poly)
            if rem:
                raise InternalError("coset factor does not divide x**n - 1")
            unit = qctx.field.from_poly(cofactor)
            inv_poly = polys.trim(field, qctx.field.inv(unit))
            eps = polys.mod(field, polys.mul(field, cofactor, inv_poly), xn1)
            out.append(eps)
        return tuple(out)

    @staticmethod
    def _color_basis(params: RingParams) -> tuple[int, ...]:
        """Integer CRT multipliers: basis[i] = 1 mod q_i, 0 mod the others."""
        out = []
        for f in params.factors:
            cof = params.q // f.value
            out.append(cof * pow(cof, -1, f.value) % params.q)
        return tuple(out)

    def check_word(self, word, noun: str = "word", entry: str = "color") -> tuple[int, ...]:
        """`word` as a tuple of n entries in [0, q); the ValueError names them
        `noun` and `entry` (a function's are "function" and "value")."""
        word = tuple(word)
        if len(word) != self.params.n:
            raise ValueError(f"{noun} length {len(word)} != n = {self.params.n}")
        for c in word:
            if not 0 <= c < self.params.q:
                raise ValueError(f"{entry} {c} outside [0, {self.params.q})")
        return word


def build_tables(params: RingParams) -> CosetTable:
    return CosetTable(params)


def crt_split(tables: CosetTable, word) -> tuple[tuple, ...]:
    """Residue of the word in every quotient field, blockwise."""
    word = tables.check_word(word)
    out = []
    for block in tables.blocks:
        field = block.field
        qi = block.factor.value
        coeffs = polys.trim(field, [field.from_index(c % qi) for c in word])
        out.append(tuple(qctx.field.from_poly(coeffs) for qctx in block.quotients))
    return tuple(out)


def crt_combine(tables: CosetTable, residues) -> tuple[int, ...]:
    """Inverse of crt_split: residues back to the unique color word."""
    n, q = tables.params.n, tables.params.q
    if len(residues) != len(tables.blocks):
        raise ValueError("one residue group per factor required")
    per_factor_coeffs = []
    for block, group in zip(tables.blocks, residues):
        field = block.field
        if len(group) != len(block.quotients):
            raise ValueError("one residue per coset required")
        acc = ()
        xn1 = _xn_minus_1(field, n)
        for eps, residue in zip(block.crt_idempotents, group):
            lifted = polys.trim(field, residue)
            term = polys.mod(field, polys.mul(field, eps, lifted), xn1)
            acc = polys.add(field, acc, term)
        coeffs = list(acc) + [field.zero] * (n - len(acc))
        per_factor_coeffs.append(coeffs)

    word = []
    for v in range(n):
        color = 0
        for block, basis, coeffs in zip(
            tables.blocks, tables.color_basis, per_factor_coeffs
        ):
            color += basis * block.field.to_index(coeffs[v])
        word.append(color % q)
    return tuple(word)


def shift(word, k: int) -> tuple[int, ...]:
    """Rotate the word by k places (multiplication by x**k)."""
    word = tuple(word)
    k %= len(word)
    return word[-k:] + word[:-k] if k else word


def orbit_canonical(word) -> tuple[int, ...]:
    """Lexicographically smallest rotation; the orbit representative."""
    word = tuple(word)
    return min(shift(word, k) for k in range(len(word)))
