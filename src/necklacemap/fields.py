"""Finite fields: prime fields, GF(p**t) by tables, extensions over either, quotient contexts.

Elements are plain data.  An element of a prime field is an int in [0, p),
and so is one of GF(p**t): its own canonical index, multiplied and added
by table.  An element of an extension of degree t over either is a t-tuple
of base elements (little-endian in powers of the defining root).  Over
such a base an extension is one tuple level of ints; only a base above
TABLE_LIMIT is itself a tuple field, whose extensions nest once and whose
products recurse.  All hash and compare structurally.  Above TABLE_LIMIT a
field over F_p with one- or two-byte slots multiplies in one int kernel:
each tuple packed into one int (Kronecker substitution; D. Harvey, J.
Symbolic Comput. 44(10), 2009), one int product, the fold by x**R = 1, a
slot reduction mod p (SlotCodec) and Barrett's division (CRYPTO '86); pow
and the logs' steps stay packed in between.  Every other field keeps the
schoolbook loop, whose base products the set-up guards count, reduced by
one remainder routine that in a quotient field folds x**u onto x**(u - R)
first; a product by x (times_x) is one of its division rows, by which a
quotient field walks x's powers once to x**R = 1.  An ExtensionField proves
its modulus irreducible with its own products: by its period in a quotient
field, by Ben-Or's test otherwise.

Every choice that could vary (defining modulus, primitive element, root of
unity, constrained generator) is pinned to the first hit in the canonical
enumeration, which counts coefficients lexicographically from the low
constant upward.  That keeps the whole construction reproducible.  The
primitive element's order is proved by one walk down the Pohlig-Hellman
tree of N = |F*|; a quotient field's logs take that same tree, or one table
of the whole group where N is at most WHOLE_TABLE_ORDER, its tables filled
at the first log, and its set-up reads x's log from x's powers.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from typing import Union

from . import polys
from .errors import (
    EnvelopeExceededError,
    InternalError,
    NotPrimeError,
    OrderMismatchError,
    ZeroElementError,
)
from .numtheory import factorize, is_prime


class PrimeField:
    """The field of integers modulo a prime p; elements are ints."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        self.p = self.order = p
        self.degree, self.zero, self.one = 1, 0, 1 % p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0 and a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, e, self.p)

    def from_index(self, i: int) -> int:
        return i % self.p

    def to_index(self, a: int) -> int:
        return a % self.p

    def __repr__(self):
        return f"PrimeField({self.p})"


class SlotCodec:
    """F_p digits in w-byte little-endian slots of one int, w = 1 or 2 (no caller needs more):
    packed, and reduced slot by slot mod p, by an AND for p = 2 (on at most `slots` slots), a
    bytes.translate for one-byte slots, and one residue per two-byte slot; or unpacked to one
    byte per reduced digit.  ExtensionField's kernel and SplitTable share it."""

    def __init__(self, p: int, w: int, slots: int = 0):
        self.p, self.w, self._code = p, w, "BH"[w - 1]
        self._mod = bytes(v % p for v in range(256))
        self._ones = int.from_bytes((b"\1" + bytes(w - 1)) * slots, "little")

    def pack(self, digits) -> int:  # iter: an array takes raw bytes as its items' bytes
        return int.from_bytes(digits if self.w == 1 else array(self._code, iter(digits)), "little")

    def reduce(self, c: int, count: int) -> int:  # c has at most `count` slots
        if self.p == 2:
            return c & self._ones
        if self.w == 1:
            return int.from_bytes(c.to_bytes(count, "little").translate(self._mod), "little")
        return self.pack(self.digits(c, count))

    def digits(self, c: int, count: int) -> bytes:
        """c's lowest `count` slots, each reduced mod p to one byte (p <= 256)."""
        raw = c.to_bytes(count * self.w, "little")
        if self.w == 1:
            return raw.translate(self._mod)
        return bytes(map(self.p.__rmod__, array(self._code, raw)))


class ExtensionField:
    """base[x] mod a monic irreducible; elements are coefficient tuples.  Over F_p above
    TABLE_LIMIT with slots of one or two bytes, products run in the packed kernel (_product),
    and pow and the log loops keep elements packed; every other field keeps the
    schoolbook loop and _reduce, whose base products the set-up guards count.
    The field proves its modulus P irreducible with its own products, else ValueError.  Before
    any ring set-up, P must be monic of degree >= 1 with P' != 0 (P' = 0 makes P = g(x**p) =
    h**p, every element of a finite field being a p-th power).  A `period` R > 0, which
    QuotientFieldCtx passes, proves P with no Frobenius step: deg P must be ord_R(|base|);
    then `x_powers` lists x**k for k < R by times_x, and x**R = 1 proves P | x**R - 1;
    gcd(P, x_powers[R/r] - 1) = 1 for each prime r | R makes every root a primitive R-th
    root of unity, so every irreducible factor of P has that degree and P is one (Lidl &
    Niederreiter, Finite Fields, Thm 2.47).  Any other P takes Ben-Or's test (_ben_or).
    R is factored through `factored` (_factored)."""

    def __init__(self, base, modulus: tuple, period: int = 0, factored: dict | None = None):
        if len(modulus) < 2 or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of degree >= 1")
        if all(c == base.zero for u, c in enumerate(modulus) if u % base.p):
            raise ValueError("modulus is a p-th power")
        self.degree = len(modulus) - 1
        self.base, self.p, self.period = base, base.p, period
        self.modulus = tuple(modulus)
        self.order = base.order**self.degree
        self.zero = (base.zero,) * self.degree
        self.one = (base.one,) + self.zero[1:]
        # for _reduce, bound once: base zero, sub, mul; low powers with coefficient one; the rest
        low = tuple(enumerate(self.modulus[:-1]))
        ones = tuple(v for v, m in low if m == base.one)
        tail = tuple((v, m) for v, m in low if m not in (base.zero, base.one))
        self._reduction = (base.zero, base.sub, base.mul, ones, tail)
        # bytes per packed coefficient over F_p above TABLE_LIMIT (else 0): a slot sums at most
        # t products of residues (slot u < R also takes a*b's x**(u + R), u + 1 plus 2t - 1 - u
        # - R < t of them, as t < R).  Slots past two bytes, reduced one by one, lose to the loop
        self._slot, self._codec, t, p, m = 0, None, self.degree, base.p, self.modulus
        if isinstance(base, PrimeField) and self.order > TABLE_LIMIT:
            self._slot = -(-(t * (p - 1) ** 2).bit_length() // 8)
        if self._slot in (1, 2):  # the kernel's constants (_product)
            w, slots = self._slot, min(period or 2 * t, 2 * t - 1)  # slots after the fold
            self._codec, bits, fold, mu = SlotCodec(p, w, 2 * t - 1), 8 * w * t, 8 * w * slots, 0
            # the quotient: one slot above x**t, unreduced, where p times a slot's bound fits
            # in a slot; else Barrett's mu = floor(x**(2t) / P), reversed 1 / rev(P) mod x**(t+1)
            if slots > t + 1 or t * (p - 1) ** 2 * p >> 8 * w:
                s = [1]
                for k in range(1, t + 1):
                    s.append(-sum(m[t - i] * s[k - i] for i in range(1, k + 1)) % p)
                mu = self._codec.pack(reversed(s))
            self._kernel = (self._codec, t, slots, bits, (1 << bits) - 1, mu,
                            self._codec.pack(-c % p for c in m[:t]), fold, (1 << fold) - 1)
        if period:  # the degree must be ord_R(|base|); no k exists if |base| is no unit mod R
            exps = (k for k in range(1, period + 1) if pow(base.order, k, period) == 1 % period)
            if self.degree != next(exps, 0):
                raise ValueError(f"modulus is no irreducible factor of Phi_{period}")
            powers = [self.one]  # x**k, k <= R, by times_x (no fold): P | x**R - 1 iff x**R = 1
            for _ in range(period):
                powers.append(self.times_x(powers[-1]))
            if powers.pop() != self.one:
                raise ValueError(f"the powers of x do not close after x**{period}")
            self.x_powers = tuple(powers)
            lower = (self.sub(powers[period // r], self.one)
                     for r, _ in _factored(period, factored))
            if any(polys.gcd(base, modulus, polys.trim(base, h)) != (base.one,) for h in lower):
                raise ValueError(f"modulus is no irreducible factor of Phi_{period}")
        elif not self._ben_or():
            raise ValueError("modulus is reducible")

    def _ben_or(self) -> bool:
        """Whether the modulus P, of degree d, is irreducible: a reducible P has a factor of
        some degree u <= d/2, which divides x**(q**u) - x, q = |base| (M. Ben-Or, FOCS 1981).
        Each x**(q**u) is the q-th power of the last, taken in this field."""
        base = self.base
        acc = x = self.from_poly(polys.x(base))
        for _ in range(self.degree // 2):
            acc = self.pow(acc, base.order)
            if polys.gcd(base, polys.trim(base, self.sub(acc, x)), self.modulus) != (base.one,):
                return False
        return True

    def _reduce(self, rem: list) -> tuple:
        """rem mod the modulus, in place; len(rem) >= degree.  A period R first folds each
        coefficient at u >= R onto u - R, at no product; long division from the top ends it."""
        zero, sub, mul, ones, tail = self._reduction
        t, period = self.degree, self.period
        if period:
            for u in range(len(rem) - 1, period - 1, -1):
                if rem[u] != zero:
                    rem[u - period] = self.base.add(rem[u - period], rem[u])
            del rem[period:]
        for u in range(len(rem) - 1, t - 1, -1):
            c = rem[u]
            if c != zero:
                k = u - t
                for v in ones:
                    rem[k + v] = sub(rem[k + v], c)
                for v, m in tail:
                    rem[k + v] = sub(rem[k + v], mul(c, m))
        return tuple(rem[:t])

    def times_x(self, a: tuple) -> tuple:
        """a * x with no product of elements: a's coefficients move up one place, and one of
        _reduce's division rows takes off the top one."""
        zero, sub, mul, ones, tail = self._reduction
        rem = [zero, *a]
        c = rem.pop()
        if c != zero:
            for v in ones:
                rem[v] = sub(rem[v], c)
            for v, m in tail:
                rem[v] = sub(rem[v], mul(c, m))
        return tuple(rem)

    def from_poly(self, coeffs) -> tuple:
        """Reduce a coefficient sequence over the base field to an element."""
        return self._reduce(list(coeffs) + [self.base.zero] * (self.degree - len(coeffs)))

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(self.base.add, a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(map(self.base.sub, a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(map(self.base.neg, a))

    def mul(self, a: tuple, b: tuple) -> tuple:
        """a*b, by the kernel (_product) where the field packs.  Else over b's s nonzero terms: each
        nonzero a_i times each; a square (a is b) takes the a_i**2 and, for odd p, the
        doubled a_i*a_j, i < j: s(s+1)/2 products, s for p = 2."""
        if self._codec:
            c = self._codec.pack(a)
            return self._unpack(self._product(c, c if a is b else self._codec.pack(b)))
        zero, add, mul = self.base.zero, self.base.add, self.base.mul
        conv = [zero] * (2 * self.degree - 1)
        terms = [(j, c) for j, c in enumerate(b) if c != zero]
        if a is b:
            for k, (i, c) in enumerate(terms):
                conv[2 * i] = add(conv[2 * i], mul(c, c))
                if self.p != 2:
                    twice = add(c, c)
                    for j, d in terms[k + 1 :]:
                        conv[i + j] = add(conv[i + j], mul(twice, d))
        else:
            for i, ca in enumerate(a):
                if ca != zero:
                    for j, cb in terms:
                        conv[i + j] = add(conv[i + j], mul(ca, cb))
        return self._reduce(conv)

    def _product(self, a: int, b: int) -> int:
        """The kernel: a*b mod P on packed elements (a square when a is b): one int product
        c, folded by x**R = 1 (a no-op where R >= 2t - 1); the quotient q, c's one slot past
        x**t unreduced, or by Barrett's two products with mu once c is reduced mod p; and c's
        low t slots plus q times -P's low t slots (`row`), reduced mod p, the remainder."""
        codec, t, slots, bits, low, mu, row, fold, below = self._kernel
        c = a * b
        c = (c & below) + (c >> fold)
        q = c >> bits
        if mu:
            c = codec.reduce(c, slots)
            q = codec.reduce((c >> bits) * mu >> bits, slots - t)
        return codec.reduce((c & low) + (q * row & low), t)

    def _unpack(self, c: int) -> tuple:
        return tuple(self._codec.digits(c, self.degree))

    def inv(self, a: tuple) -> tuple:
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def pow(self, a: tuple, e: int) -> tuple:
        if e < 0:
            a = self.inv(a)
            e = -e
        if e == 0:
            return self.one
        mul = self.mul
        if self._codec:  # the kernel on packed ints, as tuples only at the edges
            mul, a = self._product, self._codec.pack(a)
        result = a
        for bit in bin(e)[3:]:
            result = mul(result, result)
            if bit == "1":
                result = mul(result, a)
        return self._unpack(result) if self._codec else result

    def from_index(self, i: int) -> tuple:
        return _digits(self.base, i, self.degree)

    def to_index(self, a: tuple) -> int:
        q = self.base.order
        return sum(self.base.to_index(c) * q**u for u, c in enumerate(a))

    def __repr__(self):
        return f"ExtensionField(order={self.order}, base={self.base!r})"


class TableField:
    """GF(p**t), t > 1, as ints: index i is the element of extend_field(PrimeField(p), t)
    whose coefficients are i's base-p digits.  Products, inverses and powers read
    exp/log tables of one primitive g's powers.  Sums are XOR for p = 2; for odd
    p they take Zech's logarithm Z(d) = log(1 + g**d), as g**a + g**b =
    g**(a + Z(b - a)) (K. Huber, IEEE Trans. IT 36(4), 1990)."""

    from_index = to_index = staticmethod(lambda i: i)

    def __init__(self, p: int, t: int):
        flat = extend_field(PrimeField(p), t)
        self.base, self.modulus, self.degree, self.order = flat.base, flat.modulus, t, flat.order
        self.p, self.zero, self.one, self._n = p, 0, 1, flat.order - 1
        exp, log = _powers(flat, find_primitive(flat)[0]), [0] * self.order
        for k, a in enumerate(exp):
            log[a] = k
        self._exp, self._log = exp + exp, log
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = operator.pos
        else:  # 1 + a adds one to a's lowest digit; Z(n/2) = -1 marks 1 + g**(n/2) = 1 - 1 = 0
            self._zech = [-1 if a == p - 1 else log[a + 1 - p if a % p == p - 1 else a + 1]
                          for a in exp]

    def add(self, a: int, b: int) -> int:
        if not a or not b:
            return a or b
        la = self._log[a]
        z = self._zech[self._log[b] - la]  # a negative index wraps mod n, as logs do
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._n // 2] if a else 0  # -1 = g**(n/2)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        if not a and e < 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self._log[a] * e % self._n] if a else int(e == 0)

    def __repr__(self):
        return f"TableField(order={self.order})"


def _powers(flat: ExtensionField, g) -> list:
    """Indices of g**k for k in [0, order - 1).  Multiplying by g is linear,
    so a step sums digitwise mod p the tabled images of the index's three
    chunks of w = ceil(t/3) base-p digits, two at a time by a table of sums."""
    p, t = flat.base.order, flat.degree
    w = -(-t // 3)
    P, s = p**w, [0]  # s[u * P + v] is the digitwise sum of w-digit u and v
    for m in (p**k for k in range(w)):  # sums of k + 1 digits from sums of k
        s = [(du + dv) % p * m + s[ru * m + rv]
             for du in range(p) for ru in range(m) for dv in range(p) for rv in range(m)]

    def chunks(c, scale):  # index(c * g) in chunks, times scale
        i = flat.to_index(flat.mul(flat.from_index(c), g))
        return i % P * scale, i // P % P * scale, i // P // P * scale

    low, mid = [chunks(c, P) for c in range(P)], [chunks(c * P, 1) for c in range(P)]
    high = [chunks(c * P * P, 1) for c in range(p ** (t - 2 * w))]
    out, x0, x1, x2 = [], 1, 0, 0
    for _ in range(flat.order - 1):
        out.append(x0 + (x1 + x2 * P) * P)
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = low[x0], mid[x1], high[x2]
        x0, x1, x2 = s[s[a0 + b0] * P + c0], s[s[a1 + b1] * P + c1], s[s[a2 + b2] * P + c2]
    return out


Field = Union[PrimeField, TableField, ExtensionField]
TABLE_LIMIT = 1 << 20  # the largest order that build_field tabulates
BABY_TABLE_DIGITS = 1 << 22  # the most entries times F_p digits per element of one leaf's table
WHOLE_TABLE_ORDER = 64  # a log leaf or a quotient's unit group up to this order is tabled whole


def build_field(p: int, t: int) -> Field:
    """GF(p**t): residues for t = 1, a TableField up to TABLE_LIMIT, tuples above it."""
    if t == 1:
        return PrimeField(p)
    return TableField(p, t) if p**t <= TABLE_LIMIT else extend_field(PrimeField(p), t)


def extend_field(base, t: int) -> ExtensionField:
    """Degree-t extension of any field context by its canonical modulus.

    The modulus is the first monic irreducible of degree t in canonical
    order: candidate k has the base-order digits of k as its coefficients,
    the constant lowest.  Each candidate's one irreducibility test is the
    one ExtensionField makes.  The first |base| candidates are the binomials
    x**t + c, and the scan skips them when none can be irreducible: when a
    prime r | t does not divide |base| - 1 (p | t among them), or when
    4 | t and |base| = 3 mod 4 (Lidl & Niederreiter, Finite Fields, Thm 3.75).
    Always a fresh ExtensionField, t = 1 included: its elements are then
    1-tuples over base.
    """
    if t < 1:
        raise ValueError("degree must be positive")
    q = base.order
    no_binomial = any((q - 1) % r for r, _ in factorize(t)) or t % 4 == 0 and q % 4 == 3
    for k in range(q if no_binomial else 0, q**t):
        try:
            return ExtensionField(base, (*_digits(base, k, t), base.one))
        except ValueError:  # reducible
            continue
    raise InternalError(f"no irreducible of degree {t} found")  # pragma: no cover


def xn_minus_1(field, n: int) -> tuple:
    return (field.neg(field.one),) + (field.zero,) * (n - 1) + (field.one,)


def _digits(base, i: int, t: int) -> tuple:
    """The t lowest base-order digits of i, least significant first, as elements."""
    return tuple(base.from_index(i // base.order**u % base.order) for u in range(t))


def _factored(m: int, factored: dict | None) -> list:
    """factorize(m), kept in `factored` where given: one build's factorizations by number,
    so its quotients of one degree and its splitting field factor their group order once."""
    if factored is None:
        return factorize(m)
    if m not in factored:
        factored[m] = factorize(m)
    return factored[m]


def find_primitive(field, factored: dict | None = None) -> tuple:
    """First element of maximal order in the canonical enumeration, with its tree.

    Returns (primitive, tree), the _prime_power_tree over the one factorization
    of N = |F*| whose walk proved it.  A proper extension's scan skips its base
    constants, which cannot be primitive.  Over a base of order q,
    a**(N/r) = Norm(a)**((q-1)/r) for each prime r | q - 1, with the norm the
    resultant of the modulus and a; a candidate whose norm fails costs no
    power in the field, and the others walk the tree to their first failing leaf.
    """
    prime_powers = _factored(field.order - 1, factored)
    base = field.base if isinstance(field, ExtensionField) and field.degree > 1 else None
    norm_primes = [] if base is None else [f.p for f in _factored(base.order - 1, factored)]
    for i in range(field.base.order if field.degree > 1 else 1, field.order):
        a = field.from_index(i)
        norm = polys.resultant(base, field.modulus, polys.trim(base, a)) if norm_primes else None
        if any(base.pow(norm, (base.order - 1) // r) == base.one for r in norm_primes):
            continue
        tree = _prime_power_tree(field, a, prime_powers)
        if tree is not None:
            return a, tree
    raise InternalError("no primitive element found")  # pragma: no cover


def _prime_power_tree(field, g, prime_powers: list):
    """Pohlig-Hellman tree of g over N = prod(prime_powers), or None if g**(N/p) = 1 for a p.

    For coprime a, b and g**(a*b) = 1, g has order a*b iff g**b has order a and g**a
    order b, so the walk that proves g's order N builds its logs' tree.  A leaf p**e is
    (p**e, h), h = g**(N/p**e), and fails if h**(p**(e-1)) = 1; the trivial group is one
    leaf of order 1.  A node splits the list, in factorize's order, in halves of products
    a and b: (a, b, a**-1 mod b, left, right), left the tree of g**b and right that of
    g**a, walked first as it holds the small prime powers, where most candidates fail.
    """
    if len(prime_powers) <= 1:
        p, e = prime_powers[0] if prime_powers else (1, 1)
        return None if p > 1 and field.pow(g, p ** (e - 1)) == field.one else (p**e, g)
    half = len(prime_powers) // 2
    a = math.prod(f.value for f in prime_powers[:half])
    b = math.prod(f.value for f in prime_powers[half:])
    right = _prime_power_tree(field, field.pow(g, a), prime_powers[half:])
    left = right and _prime_power_tree(field, field.pow(g, b), prime_powers[:half])
    return (a, b, pow(a, -1, b), left, right) if left else None


def _with_tables(field, node: tuple) -> tuple:
    """The tree with each leaf (order, h) replaced by (order, *baby_table(field, h, order))."""
    if len(node) == 2:
        return (node[0], *baby_table(field, node[1], node[0]))
    a, b, a_inv, left, right = node
    return (a, b, a_inv, _with_tables(field, left), _with_tables(field, right))


def _baby_steps(order: int) -> int:
    """Baby-table entries for a group of this order: all of it up to WHOLE_TABLE_ORDER,
    else ceil(sqrt(order))."""
    return order if order <= WHOLE_TABLE_ORDER else math.isqrt(order - 1) + 1


def baby_table(field, g, order: int) -> tuple[dict, object]:
    """Baby-step giant-step data for the group of order `order` generated by g.

    Returns (babies, giant): babies maps g**j to j for j < m = _baby_steps(order),
    and giant is g**-m, taken as g**(order - m).  Up to WHOLE_TABLE_ORDER, m is the
    order: babies holds the whole group and giant is one, never taken.
    """
    m = _baby_steps(order)
    codec, table, giant = getattr(field, "_codec", None), {}, field.pow(g, order - m)
    if codec:  # a packed field's table and giant are packed, and its kernel takes the steps
        mul, acc, g, giant = field._product, codec.pack(field.one), codec.pack(g), codec.pack(giant)
    else:
        mul, acc = field.mul, field.one
    for j in range(m):
        table.setdefault(acc, j)
        acc = mul(acc, g)
    return table, giant


def discrete_log(field, y, order: int, babies: dict, giant) -> int:
    """Log of y in [0, order) from babies, giant = baby_table(field, g, order).

    The base is g.  Baby-step giant-step (Shanks, 1971): at most m + 1 table
    lookups with a giant step between two, m = _baby_steps(order), so a group of
    at most WHOLE_TABLE_ORDER is one lookup and no product.  QuotientFieldCtx runs
    it at its tree's leaves: prime-power subgroups, or a whole unit group of at
    most WHOLE_TABLE_ORDER.
    """
    if y == field.zero:
        raise ZeroElementError("zero is outside the unit group")
    m, mul, acc = _baby_steps(order), field.mul, y
    if getattr(field, "_codec", None):  # packed, as baby_table packs its table
        mul, acc = field._product, field._codec.pack(y)
    for i in range(m + 1):
        j = babies.get(acc)
        if j is not None:
            return (i * m + j) % order
        acc = mul(acc, giant)
    raise InternalError("element is not a power of the base")


def _log_in_tree(field, node: tuple, y) -> int:
    """Log of y in the tree node: the CRT join of log(y**b) mod a and log(y**a) mod b."""
    if len(node) == 3:
        return discrete_log(field, y, *node)
    a, b, a_inv, left, right = node
    log_a = _log_in_tree(field, left, field.pow(y, b))
    log_b = _log_in_tree(field, right, field.pow(y, a))
    return log_a + a * ((log_b - log_a) * a_inv % b)


class QuotientFieldCtx:
    """One quotient field F[x]/P with its rotation and generator data.

    `x_class` is the class of x, whose multiplicative order is R = rotation_order =
    n / gcd(n, rep), rep the minimal representative of the matching coset of residues.
    `generator` is the canonical cyclic generator whose x_exponent-th power equals
    x_class: primitive**u for the first primitive element and the least unit u mod
    group_order with u * x_exponent = log(x_class) mod group_order.

    Logs are taken to the primitive's base by Pohlig-Hellman (IEEE Trans. IT 24(1),
    1978) down the tree that proved the primitive, over the one factorization of
    group_order: a balanced binary tree of its prime powers p**e, with CRT joins at the
    nodes and baby-step giant-step in each p**e subgroup at the leaves, whose tables are
    filled at the first dlog (_log_tree); dlog scales by u**-1.  A leaf of order at most
    WHOLE_TABLE_ORDER tables its whole subgroup and logs by one lookup; a larger one holds
    ceil(sqrt(p**e)) entries and takes up to as many giant steps.  A group_order of at most
    WHOLE_TABLE_ORDER keeps find_primitive's tree only as the proof: its log tree is the
    one leaf (group_order, primitive), so each log is one lookup with no power and no
    join.  Past it, a log costs about sqrt of the largest p**e past WHOLE_TABLE_ORDER
    plus a few exponentiations per tree level, and no table spans a node.  A tree with
    one leaf table past BABY_TABLE_DIGITS is refused before any is filled.

    Set-up proves each fact once (else OrderMismatchError, with the field's message):
    ExtensionField's period certificate, whose walk of x's powers proves P | x**R - 1 and
    whose gcds prove P irreducible with roots of order R, so x_exponent = N/R, and
    _log_of_x reads x's log from x_powers with no tree.  find_primitive's walk, which
    builds the log tree, proves that `primitive` generates; u is a unit, so the generator
    is primitive with no proof of its own, and generator**x_exponent == x_class checks the
    log (else InternalError).  The field has period R: x**R = 1 folds a product or
    residue, so a dense Phi_p modulus costs a product one division row, not t - 1.  The
    CRT `cofactor` C = (x**n - 1) / P is (x**R - 1) / P repeated every R places, as
    x**n - 1 = (x**R - 1) * sum(x**(k*R), k < n/R); the period quotient's coefficient at
    x**j is the top coordinate of x**(R-1-j), which the walk's times_x takes off by one
    row of P, so nothing is divided by P.  `cofactor_inv` = C**-1 = x * P' / n mod P, as
    n * x**(n-1) = P' * C mod P (d/dx of x**n - 1 = P * C) and x**n = 1; one product checks.

    `x_powers[k]`, the field's x**k mod P for k < R, is by the shift law generator**(k *
    x_exponent), the residue a rotation counter k stands for; x**(1 mod R) must be x_class,
    which from_poly reduces on its own (else OrderMismatchError).  The period certificate
    and find_primitive factor through `factored`, the build's factorizations (_factored).
    """

    def __init__(self, base_field, modulus: tuple, n: int, rep: int,
                 factored: dict | None = None):
        self.n, self.rep = n, rep
        self.rep_gcd = math.gcd(n, rep)
        self.rotation_order = r = n // self.rep_gcd
        try:
            self.field = ExtensionField(base_field, tuple(modulus), r, factored)
        except ValueError as refused:
            raise OrderMismatchError(str(refused)) from refused
        self.x_class, self.x_powers = self.field.from_poly(polys.x(base_field)), self.field.x_powers
        if self.x_powers[1 % r] != self.x_class:
            raise OrderMismatchError(f"the powers of x do not close after x**{r}")
        period_quot = tuple(power[-1] for power in reversed(self.x_powers))
        self.cofactor = (period_quot * self.rep_gcd)[: n - self.field.degree + 1]
        p, n_inv, from_index = base_field.p, pow(n, -1, base_field.p), base_field.from_index
        self.cofactor_inv = self.field.from_poly(  # x * P' / n: P's coefficient u times u / n
            [base_field.mul(from_index(u * n_inv % p), m) for u, m in enumerate(modulus)])
        if self.field.mul(self.field.from_poly(self.cofactor), self.cofactor_inv) != self.field.one:
            raise InternalError("x * P' / n does not invert the CRT cofactor")
        self.group_order = self.field.order - 1
        primitive, self._tree = find_primitive(self.field, factored)
        if self.group_order <= WHOLE_TABLE_ORDER:  # the tree was the proof; one table logs
            self._tree = (self.group_order, primitive)
        self.x_exponent = self.group_order // self.rotation_order
        u = self._log_of_x(primitive) // self.x_exponent  # a unit mod R: one of its lifts
        u = next(v for v in range(u, u + self.group_order, self.rotation_order)  # is one mod N
                 if math.gcd(v, self.group_order) == 1)
        self.generator = self.field.pow(primitive, u)
        self._unscale = pow(u, -1, self.group_order)
        if self.field.pow(self.generator, self.x_exponent) != self.x_class:
            raise InternalError("generator does not reach the class of x")

    def _log_of_x(self, primitive) -> int:
        """log(x_class) to the primitive's base by one power: h = primitive**x_exponent has
        order R, so it is x**s for a unit s mod R, and log(x) = x_exponent * s**-1 mod N."""
        try:  # h is missing from x_powers, or s is no unit, only if x's order is not R
            s = self.x_powers.index(self.field.pow(primitive, self.x_exponent))
            return self.x_exponent * pow(s, -1, self.rotation_order)
        except ValueError:
            raise OrderMismatchError(
                f"class of x has wrong order in quotient of degree {self.field.degree}") from None

    @functools.cached_property
    def _log_tree(self) -> tuple:
        """The log tree, _tree, with its leaves' baby tables, filled at the first dlog:
        find_primitive's tree, or the one leaf of the whole group up to WHOLE_TABLE_ORDER."""
        def orders(node):  # of the leaves
            return [node[0]] if len(node) == 2 else orders(node[3]) + orders(node[4])
        widest, f = max(orders(self._tree), key=_baby_steps), self.field
        entries, digits = _baby_steps(widest), round(math.log(f.order, f.p))
        if entries * digits > BABY_TABLE_DIGITS:
            raise EnvelopeExceededError(
                f"a log in GF({f.p}^{digits}) needs a {entries}-entry baby-step table "
                f"for its subgroup of order {widest}, past {BABY_TABLE_DIGITS} F_p digits")
        return _with_tables(f, self._tree)

    def dlog(self, y) -> int:
        """Discrete log of y base `generator`, in [0, group_order); a trivial group has no table."""
        if self.group_order == 1 and y == self.field.one:
            return 0
        return _log_in_tree(self.field, self._log_tree, y) * self._unscale % self.group_order

    def __repr__(self):
        return f"QuotientFieldCtx(order={self.field.order}, n={self.n}, rep={self.rep})"
