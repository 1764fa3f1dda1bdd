"""Cyclotomic cosets, factoring x**n - 1, and the two-level CRT split.

A color word c_0..c_{n-1} over [0, q) is read as the polynomial
sum(c_v x**v) in Z_q[x]/(x**n - 1).  Reducing colors modulo each prime
power q_i (and identifying [0, q_i) with F_{q_i} through the canonical
element indexing) gives one polynomial per factor; reducing that modulo
the irreducible factors of x**n - 1 over F_{q_i} gives one residue per
cyclotomic coset (Phi_m itself when the coset holds every residue of order
m, else the minimal polynomial of w**rep, solved from its powers in a
splitting field built only when some Phi_m splits).  Both
reductions are invertible, which is what crt_combine implements in
Garner's cofactor form (IRE Trans. Electronic Computers EC-8(2), 1959).
Each quotient context is the one record of its factor P_j: F[x]/P_j, and the cofactor
(x**n - 1) / P_j and its inverse, read off the walk of x's powers proving P_j | x**R - 1.
Only set-up uses the generic polys module.  Per word, a split is one packed int sum per
factor over a SplitTable filled from the quotients' x_powers (one long division per
quotient where the table would be too large), and a combine runs on the quotient fields'
products.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from . import polys
from .automorphism import AutomorphismTable
from .errors import InternalError, NotCoprimeError
from .fields import (
    ExtensionField,
    Field,
    QuotientFieldCtx,
    SlotCodec,
    build_field,
    extend_field,
    find_primitive,
    xn_minus_1,
)
from .numtheory import PrimePowerFactor, RingParams, euler_phi

SPLIT_TABLE_BYTES = 1 << 20  # the most that one factor's split rows may hold


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


def _root_of_unity(ext, n: int, factored: dict | None = None):
    """Canonical element of multiplicative order n: w = g**((Q - 1)/n) for g the first
    primitive element of the field of order Q, proved down find_primitive's tree (the
    tree is then dropped), so w has order n exactly when n | Q - 1.  (Scanning for order
    exactly n would touch most of the field once the splitting extension gets large.)"""
    if (ext.order - 1) % n:
        raise InternalError("splitting field has no root of unity of order n")
    return ext.pow(find_primitive(ext, factored)[0], (ext.order - 1) // n)


def cyclotomic_polynomial(field, m: int, memo: dict) -> tuple:
    """Phi_m over `field`: x**m - 1 divided exactly by Phi_d for every d | m, d < m.
    memo maps each d already built to Phi_d and gains every one built here."""
    if m not in memo:
        rest = (field.one,)
        for d in range(1, m):
            if m % d == 0:
                rest = polys.mul(field, rest, cyclotomic_polynomial(field, d, memo))
        memo[m], rem = polys.divmod_(field, xn_minus_1(field, m), rest)
        if rem:
            raise InternalError(f"cyclotomic factors do not divide x**{m} - 1")
    return memo[m]


def _minimal_polynomial(field: Field, powers: list) -> tuple:
    """Monic (c_0, ..., c_{s-1}, one) with sum(c_k b**k) = -b**s, for powers b**0 .. b**s
    of an element b of degree s over `field`: Gauss-Jordan on the powers' coordinates, d
    equations in s unknowns over `field`, a pivot inverted only when it is not one.  The
    d - s rows left over must vanish, or the coefficients would not lie in `field`."""
    zero, one, sub, mul, s = field.zero, field.one, field.sub, field.mul, len(powers) - 1
    rows = [[*coords[:s], field.neg(coords[s])] for coords in zip(*powers)]
    for k in range(s):
        rows[k:] = sorted(rows[k:], key=lambda row: row[k] == zero)  # a nonzero pivot first
        pivot = rows[k]
        if pivot[k] == zero:
            raise InternalError("powers of a coset's root are linearly dependent")
        if pivot[k] != one:
            scale = field.inv(pivot[k])
            pivot[k:] = [mul(scale, v) for v in pivot[k:]]
        for row in rows:
            if row is not pivot and row[k] != zero:
                row[k:] = [sub(v, mul(row[k], u)) for v, u in zip(row[k:], pivot[k:])]
    if any(row[s] != zero for row in rows[s:]):
        raise InternalError("factor coefficient escaped the base field")
    return (*(row[s] for row in rows[:s]), one)


def factor_xn_minus_1(n: int, field: Field, cosets=None, factored=None) -> list[tuple]:
    """Monic irreducible factors of x**n - 1 over `field`, one per coset.

    A coset of residues of order m = n / gcd(n, rep) that holds all
    euler_phi(m) of them is the only coset of order m, so its factor is the
    cyclotomic polynomial Phi_m (Lidl & Niederreiter, Finite Fields,
    Thm 2.47).  Only when some Phi_m splits over several cosets is the
    splitting extension built: there, with w a root of unity of order n, each
    such coset's factor is the minimal polynomial of b = w**rep, solved over
    `field` from b**0 .. b**size in the list of w's powers (_minimal_polynomial).
    Returned coefficient tuples align with the coset list.  `factored` is the build's
    factorizations by number (fields._factored), which the root's proof reads and fills.
    """
    if math.gcd(n, field.order) != 1:
        raise NotCoprimeError(f"field order {field.order} shares a factor with n={n}")
    if cosets is None:
        cosets = cyclotomic_cosets(n, field.order)
    orders = [n // math.gcd(n, c.rep) for c in cosets]
    phi = {m: euler_phi(m) for m in set(orders)}  # each order factorized once
    if any(c.size < phi[m] for c, m in zip(cosets, orders)):
        # no coset outgrows the coset of 1, whose size is the order of |field| mod n
        ext = extend_field(field, max(c.size for c in cosets))
        omega = _root_of_unity(ext, n, factored)
        roots = [ext.one]  # w**k for k < n, one product each
        for _ in range(n - 1):
            roots.append(ext.mul(roots[-1], omega))

    factors, memo = [], {}
    for coset, m in zip(cosets, orders):
        if coset.size == phi[m]:
            factor = cyclotomic_polynomial(field, m, memo)
        else:
            powers = [roots[coset.rep * k % n] for k in range(coset.size + 1)]  # b = w**rep
            factor = _minimal_polynomial(field, powers)
        if polys.degree(factor) != coset.size:
            raise InternalError("factor degree does not match its coset")
        factors.append(factor)

    product = (field.one,)
    for f in factors:
        product = polys.mul(field, product, f)
    if product != xn_minus_1(field, n):
        raise InternalError("coset factors do not multiply back to x**n - 1")
    return factors


class SplitTable:
    """One factor's split (see crt_split), read by residues alone.  rows[v][c] packs the F_p
    digits of c * x**v mod every P_j (quotient after quotient, t per base coefficient, one
    w-byte slot each, w = 1 or 2), filled from the quotients' x_powers by int arithmetic, with
    no field product.  _digits sums a word's rows and reduces every slot to one byte; residues
    slices those bytes into each quotient's coefficient indices, and support only asks which
    quotients' bytes are not all zero.  Where q_i > 256, the base keeps tuples (past
    TABLE_LIMIT) or the rows would pass SPLIT_TABLE_BYTES (q_i * n**2 * t * w bytes), rows is
    None and a word is reduced by one long division per quotient instead."""

    def __init__(self, field: Field, quotients, n: int):
        self.field, self.quotients, self.n = field, quotients, n
        p, t, qi = self.p, self.t, self.qi = field.p, field.degree, field.order
        ends = list(itertools.accumulate(q.field.degree for q in quotients))
        self.spans = tuple(map(slice, [0] + ends, ends))  # each quotient's coefficients
        # a slot's largest value: a word's sum of n digits (p = 2 XORs them) or the build's of
        # two; its alpha steps reach p * (p - 1) < 256, as t > 1 and q_i <= 256 leave p <= 16.
        # Rows inside SPLIT_TABLE_BYTES keep n * (p - 1) < 2**16, so two bytes always do
        self.w = w = 1 if p == 2 or max(n, 2) * (p - 1) < 256 else 2
        self.size, self.slots, self.rows = n * t * w, n * t, None
        if qi > 256 or isinstance(field, ExtensionField) or qi * n * self.size > SPLIT_TABLE_BYTES:
            return
        self.codec = codec = SlotCodec(p, w, n * n * t)
        self._digit_spans = tuple((slice(s.start * t, s.stop * t), bytes((s.stop - s.start) * t))
                            for s in self.spans)  # each quotient's digits, and them all zero
        coeffs = [0] * n * n  # position-major: x**v's coefficients in every quotient
        for span, q in zip(self.spans, quotients):
            col, d = list(itertools.chain(*q.x_powers)) * (n // q.rotation_order), q.field.degree
            for u in range(d):
                coeffs[span.start + u :: n] = col[u::d]
        digits = [c // p**k % p for c in coeffs for k in range(t)] if t > 1 else coeffs
        basis, bits, slots = [codec.pack(digits)], 8 * w, n * n * t  # slots of a color's rows
        # alpha * d: each coefficient's top digit moves to its chunk's foot, times -P(0..t-1)
        foot = int.from_bytes((b"\xff" * w + bytes(w * (t - 1))) * n * n, "little")
        fold = sum(-m % p << bits * k for k, m in enumerate(getattr(field, "modulus", ())[:t]))
        for _ in range(1, t):
            d = basis[-1]
            top = d >> bits * (t - 1) & foot
            basis.append(codec.reduce((d << bits) - (top << bits * t) + top * fold, slots))
        colors, k = [0], 0  # color c from c - p**k, p**k its top digit's place
        for c in range(1, qi):
            k += c == p ** (k + 1)
            colors.append(codec.reduce(colors[c - p**k] + basis[k], slots))
        self.rows = [[] for _ in range(n)]
        for color in colors:
            blob = color.to_bytes(n * self.size, "little")
            for v, row in enumerate(self.rows):
                row.append(int.from_bytes(blob[v * self.size : (v + 1) * self.size], "little"))

    def _digits(self, word) -> bytes:
        """The word's F_p digits mod every P_j, quotient after quotient, one reduced byte each:
        the sum of its n rows (their XOR for p = 2), each slot reduced mod p."""
        picks = map(operator.getitem, self.rows, map(self.qi.__rmod__, word))
        total = functools.reduce(operator.xor, picks) if self.p == 2 else sum(picks)
        return self.codec.digits(total, self.slots)

    def residues(self, word) -> tuple:
        if self.rows is None:
            coeffs = [self.field.from_index(c % self.qi) for c in word]
            return tuple(q.field.from_poly(coeffs) for q in self.quotients)
        indices = self._digits(word)
        if self.t > 1:  # summed times p**k, the planes carry into no neighbour: indices < 256
            t, p = self.t, self.p
            planes = (int.from_bytes(indices[k::t], "little") * p**k for k in range(t))
            indices = sum(planes).to_bytes(self.n, "little")
        return tuple(tuple(indices[span]) for span in self.spans)  # a base element is its index

    def support(self, word) -> tuple[int, ...]:
        """Which quotients' residues are nonzero: those whose t digits per coefficient hold a
        nonzero byte, with no residue built.  Without rows, the divided residues against zero."""
        if self.rows is None:
            return tuple(j for j, (q, r) in enumerate(zip(self.quotients, self.residues(word)))
                         if r != q.field.zero)
        digits = self._digits(word)
        return tuple(j for j, (span, zero) in enumerate(self._digit_spans) if digits[span] != zero)


@dataclass(frozen=True)
class FactorBlock:
    """Everything attached to one prime-power factor q_i: its field and cosets, and per
    coset the quotient whose field's modulus is the factor P_j and which holds C_j, h_j."""

    factor: PrimePowerFactor
    field: Field
    cosets: tuple[CyclotomicCoset, ...]
    quotients: tuple[QuotientFieldCtx, ...]

    @functools.cached_property
    def split(self) -> SplitTable:  # at the first split: unmap never reads it
        return SplitTable(self.field, self.quotients, self.quotients[0].n)


class CosetTable:
    """Per-factor coset data plus both CRT directions, fully precomputed: quotient
    F[x]/P_j holds C_j = (x**n - 1) / P_j and h_j = C_j**-1 in F[x]/P_j."""

    def __init__(self, params: RingParams):
        self.params = params
        n = params.n
        blocks = []
        factored: dict = {}  # each number this build factors, with its factorization
        for factor in params.factors:
            field = build_field(factor.p, factor.t)
            cosets = tuple(cyclotomic_cosets(n, factor.value))
            pairs = zip(cosets, factor_xn_minus_1(n, field, cosets, factored))
            quotients = tuple(QuotientFieldCtx(field, poly, n, c.rep, factored)
                              for c, poly in pairs)
            blocks.append(FactorBlock(factor, field, cosets, quotients))
        self.blocks: tuple[FactorBlock, ...] = tuple(blocks)
        self.color_basis = self._color_basis(params)
        self.automorphisms = AutomorphismTable(self)

    @staticmethod
    def _color_basis(params: RingParams) -> tuple[int, ...]:
        """Integer CRT multipliers: basis[i] = 1 mod q_i, 0 mod the others."""
        out = []
        for f in params.factors:
            cof = params.q // f.value
            out.append(cof * pow(cof, -1, f.value) % params.q)
        return tuple(out)

    def check_word(self, word, noun: str = "word", entry: str = "color") -> tuple[int, ...]:
        """`word` as a tuple of n ints in [0, q); the ValueError names them
        `noun` and `entry` (a function's are "function" and "value")."""
        word = tuple(word)
        if len(word) != self.params.n:
            raise ValueError(f"{noun} length {len(word)} != n = {self.params.n}")
        q = self.params.q
        for c in word:  # exact ints in range come back as they are, with no conversion
            if type(c) is not int or not 0 <= c < q:
                break
        else:
            return word
        out = []
        for c in word:
            try:
                c = operator.index(c)
            except TypeError:
                raise ValueError(f"{noun} {entry} {c!r} is not an integer") from None
            if not 0 <= c < q:
                raise ValueError(f"{entry} {c} outside [0, {q})")
            out.append(c)
        return tuple(out)


def build_tables(params: RingParams) -> CosetTable:
    return CosetTable(params)


def crt_split(tables: CosetTable, word) -> tuple[tuple, ...]:
    """Residue of the word in every quotient field, blockwise: per factor, one int sums n
    SplitTable rows, one per letter, then each F_p digit slot is reduced mod p (a
    bytes.translate for byte slots) and the digit planes are summed into the base
    coefficients' indices.  A slot takes a byte while max(n, 2) * (p - 1) < 256, at any n
    for p = 2 (rows XOR), else two.  A factor with no table divides instead."""
    word = tables.check_word(word)
    return tuple(block.split.residues(word) for block in tables.blocks)


def crt_combine(tables: CosetTable, residues) -> tuple[int, ...]:
    """Inverse of crt_split: per factor, sum(C_j * (h_j * r_j)) over the quotients j.
    deg(h_j * r_j) < deg P_j = n - deg C_j, so no term needs reducing mod x**n - 1."""
    n, q = tables.params.n, tables.params.q
    if len(residues) != len(tables.blocks):
        raise ValueError("one residue group per factor required")
    colors = [0] * n
    for block, basis, group in zip(tables.blocks, tables.color_basis, residues):
        field = block.field
        zero, add, mul = field.zero, field.add, field.mul
        if len(group) != len(block.quotients):
            raise ValueError("one residue per coset required")
        coeffs = [zero] * n
        for qctx, residue in zip(block.quotients, group):
            for i, c in enumerate(qctx.field.mul(qctx.cofactor_inv, qctx.field.from_poly(residue))):
                if c != zero:
                    for k, cc in enumerate(qctx.cofactor, i):
                        coeffs[k] = add(coeffs[k], mul(c, cc))
        for v, c in enumerate(coeffs):
            colors[v] += basis * field.to_index(c)
    return tuple(c % q for c in colors)


def shift(word, k: int) -> tuple[int, ...]:
    """Rotate the word by k places (multiplication by x**k)."""
    word = tuple(word)
    k %= len(word)
    return word[-k:] + word[:-k] if k else word


def orbit_canonical(word) -> tuple[int, ...]:
    """Lexicographically smallest rotation; the orbit representative."""
    word = tuple(word)
    return min(word[k:] + word[:k] for k in range(len(word)))
