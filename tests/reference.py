"""Direct readings of the definitions that the library takes shortcuts on.

- map_necklace_by_trial encodes every distinct rotation and keeps the one
  with weighted sum 0, n encodings per word; the library's map_necklace
  solves for the rotation instead.
- shift_lemma_holds_all_k profiles every rotation by k of every fully
  supported word; the library's verifier checks the one-step law.
- dlog_by_bsgs takes a log by one baby-step giant-step over the whole
  unit group, ceil(sqrt(N)) baby steps; QuotientFieldCtx.dlog splits the
  group along the prime powers of N (Pohlig-Hellman) and runs BSGS only in
  those subgroups.
- generator_by_log takes the log of x_class to the base of the canonical
  primitive by dlog_by_bsgs, and generator_by_walk walks the powers of
  primitive**x_exponent until one is x_class; QuotientFieldCtx reads that
  log from x_powers instead.
- x_data_by_tree takes the log of x_class down find_primitive's
  Pohlig-Hellman tree, every leaf's baby table filled, and derives
  x_exponent and the generator from it; QuotientFieldCtx takes no log at
  set-up and fills the tables at its first dlog.
- element_order divides |F*| by each of its primes while the power stays
  1; the library proves an order only by _prime_power_tree's walk of a
  primitive candidate, through a log, or as an integer fact about a power
  of a proved primitive.
- primitive_by_scan takes the first index from 1 whose element_order is
  |F*|; find_primitive skips a proper extension's base constants and
  rejects candidates by their norm before it walks their tree.
- is_irreducible_by_trial divides by every monic polynomial of degree up
  to half; ExtensionField proves its own modulus with its own products:
  it rejects p-th powers at once and runs the Frobenius gcd test on the
  rest for u <= d/2 only (Ben-Or), and a quotient's period field proves
  its modulus P | x**R - 1 by its degree ord_R(q) and its gcds with
  x**(R/r) - 1, with no Frobenius step.
- factor_by_splitting_field multiplies out prod(x - w**k) over every
  coset's members in the splitting extension; factor_xn_minus_1 takes the
  cyclotomic polynomial Phi_m for a coset holding every residue of order m
  and builds the splitting extension only for the other cosets, each of
  which takes the minimal polynomial of w**rep by one linear solve over the
  base field on the coordinates of its powers, with no product of roots.
- units_by_search finds the lexicographically least diagonal unit tuple
  by depth-first backtracking, exponential when none exists;
  AutomorphismTable calibrates by one backward reachability pass instead.
- necklaces_by_filter keeps every word of [0, q)**n that is its own least
  rotation, and functions_by_filter every function whose weighted sum is
  0; oracle.enum_necklaces and enum_functions generate those lists.
- residue_by_power raises a quotient's generator to a whole log;
  unmap_function takes x**turns from x_powers and raises the generator
  only to the offset.
- factorize_by_trial divides by 2 and every odd d while d**2 is at most
  the cofactor, and is_prime_by_trial asks whether its list is m itself;
  numtheory.is_prime runs Miller-Rabin below its bound, and factorize
  stops its trial division once the cofactor past 1001 is prime.
- split_by_division reduces the word's polynomial modulo every quotient's
  modulus by long division, and support_by_division reads its nonzero
  residues; crt_split and split_support sum one packed table entry per
  letter instead.

Tests compare each pair.
"""

import math
from functools import lru_cache
from itertools import product

from necklacemap import dlog, fields, polys
from necklacemap.bijection import encode_word, weighted_sum
from necklacemap.decomposition import (
    CosetTable,
    _root_of_unity,
    cyclotomic_cosets,
    orbit_canonical,
    shift,
)
from necklacemap.errors import (
    InternalError,
    NoSolutionError,
    NotCoprimeError,
    OrderMismatchError,
    UniquenessViolationError,
    ZeroElementError,
)
from necklacemap.fields import QuotientFieldCtx, extend_field, find_primitive, xn_minus_1
from necklacemap.numtheory import PrimePowerFactor, factorize


def map_necklace_by_trial(tables: CosetTable, word) -> tuple[int, ...]:
    """Image of the necklace through the unique zero-sum rotation.

    Exactly one distinct rotation must pass the weighted-sum test; any
    other count raises UniquenessViolationError.
    """
    word = tables.check_word(word)
    n = tables.params.n
    seen = set()
    hits = []
    for k in range(n):
        rotated = shift(word, k)
        if rotated in seen:
            continue
        seen.add(rotated)
        image = encode_word(tables, rotated)
        if weighted_sum(n, image) == 0:
            hits.append(image)
    if len(hits) != 1:
        raise UniquenessViolationError(
            f"{len(hits)} rotations passed the weighted-sum test; expected exactly 1"
        )
    return hits[0]


def shift_lemma_holds_all_k(tables: CosetTable) -> bool:
    """Rotation law of the log split, checked for every k in 1..n-1.

    Part one: for the bare word x, every supported coset shows one turn and
    zero offset.  Part two: on every fully-supported word, rotating by k
    adds k to the turns (mod rotation_order) and never moves the offset.
    Profiles come from dlog.profile, looked up at call time.
    """
    n, q = tables.params.n, tables.params.q
    full = tuple(tuple(range(len(block.cosets))) for block in tables.blocks)

    word_x = (1 % q,) if n == 1 else (0, 1 % q) + (0,) * (n - 2)
    prof_x = dlog.profile(tables, word_x)
    if prof_x.support != full:
        return False
    for i, block in enumerate(tables.blocks):
        for j, qctx in enumerate(block.quotients):
            entry = prof_x.entry(i, j)
            if entry.turns % qctx.rotation_order != 1 % qctx.rotation_order:
                return False
            if entry.offset != 0:
                return False

    for word in product(range(q), repeat=n):
        base = dlog.profile(tables, word)
        if base.support != full:
            continue
        for k in range(1, n):
            rotated = dlog.profile(tables, shift(word, k))
            if rotated.support != full:
                return False
            for i, block in enumerate(tables.blocks):
                for j, qctx in enumerate(block.quotients):
                    b0 = base.entry(i, j)
                    bk = rotated.entry(i, j)
                    if bk.turns % qctx.rotation_order != (k + b0.turns) % qctx.rotation_order:
                        return False
                    if bk.offset != b0.offset:
                        return False
    return True


def necklaces_by_filter(n: int, q: int) -> list[tuple[int, ...]]:
    """Every word of [0, q)**n that is its own least rotation, in lexicographic order."""
    return [word for word in product(range(q), repeat=n) if word == orbit_canonical(word)]


def functions_by_filter(n: int, q: int) -> list[tuple[int, ...]]:
    """Every function Z_n -> [0, q) of weighted sum 0 mod n, in lexicographic order."""
    return [f for f in product(range(q), repeat=n) if weighted_sum(n, f) == 0]


def split_by_division(tables: CosetTable, word) -> tuple[tuple, ...]:
    """Residue of the word in every quotient field, each by one long division."""
    out = []
    for block in tables.blocks:
        coeffs = [block.field.from_index(c % block.factor.value) for c in word]
        out.append(tuple(qctx.field.from_poly(coeffs) for qctx in block.quotients))
    return tuple(out)


def support_by_division(tables: CosetTable, word) -> tuple[tuple[int, ...], ...]:
    """Indices of the quotients where split_by_division's residue is nonzero."""
    return tuple(
        tuple(j for j, (qctx, residue) in enumerate(zip(block.quotients, group))
              if residue != qctx.field.zero)
        for block, group in zip(tables.blocks, split_by_division(tables, word))
    )


def residue_by_power(qctx: QuotientFieldCtx, log: int):
    """generator**log in the quotient field, by one whole power."""
    return qctx.field.pow(qctx.generator, log)


@lru_cache(maxsize=8)
def _whole_group_steps(field, g, order: int) -> tuple[int, dict, tuple]:
    """m = ceil(sqrt(order)), the baby steps g**j -> j for j < m, and g**-m."""
    m = math.isqrt(order - 1) + 1
    babies = {}
    acc = field.one
    for j in range(m):
        babies.setdefault(acc, j)
        acc = field.mul(acc, g)
    return m, babies, field.pow(g, order - m)


def dlog_by_bsgs(field, g, y, order: int) -> int:
    """Log of y in [0, order) to the base g of multiplicative order `order`.

    Baby-step giant-step (Shanks, 1971) over the whole group: ceil(sqrt(order))
    baby steps and the giant step g**-m, cached per (field, g, order), then
    up to m + 1 giant steps.
    """
    if y == field.zero:
        raise ZeroElementError("zero is outside the unit group")
    m, babies, giant = _whole_group_steps(field, g, order)
    acc = y
    for i in range(m + 1):
        j = babies.get(acc)
        if j is not None:
            return (i * m + j) % order
        acc = field.mul(acc, giant)
    raise InternalError("element is not a power of the base")


def generator_by_log(qctx: QuotientFieldCtx):
    """The constrained generator of one quotient field, from a full log.

    Log x_class to the base of the canonical primitive, divide by
    x_exponent, then step by group_order / x_exponent until the exponent is
    a unit mod group_order.
    """
    field = qctx.field
    n_units = qctx.group_order
    primitive, _ = find_primitive(field)
    target = dlog_by_bsgs(field, primitive, qctx.x_class, n_units)
    e = qctx.x_exponent
    if target % e != 0:
        raise InternalError("log of the class of x is not divisible by its exponent")
    u = target // e
    step = n_units // e
    for _ in range(n_units + 1):
        if math.gcd(u, n_units) == 1:
            return field.pow(primitive, u)
        u += step
    raise InternalError("no unit exponent reaches the class of x")


def x_data_by_tree(qctx: QuotientFieldCtx) -> tuple:
    """(x_exponent, generator, log of x_class to the generator's base) from the log of
    x_class down find_primitive's tree: x_exponent = gcd(log, N), which times R must be
    N, and the generator is primitive**u for the least unit u in log / x_exponent + k*R.
    """
    field, n_units = qctx.field, qctx.group_order
    primitive, tree = find_primitive(field)
    log_x = fields._log_in_tree(field, fields._with_tables(field, tree), qctx.x_class)
    e = math.gcd(log_x, n_units)
    if e * qctx.rotation_order != n_units:
        raise OrderMismatchError("class of x has wrong order")
    u = log_x // e
    for _ in range(n_units + 1):
        if math.gcd(u, n_units) == 1:
            return e, field.pow(primitive, u), log_x * pow(u, -1, n_units) % n_units
        u += qctx.rotation_order
    raise InternalError("no unit exponent reaches the class of x")


def generator_by_walk(qctx: QuotientFieldCtx):
    """The constrained generator of one quotient field, by a walk.

    Step through (primitive**x_exponent)**u for u < rotation_order until it
    hits x_class, then step u by rotation_order until it is a unit mod
    group_order.
    """
    field = qctx.field
    n_units = qctx.group_order
    primitive, _ = find_primitive(field)
    h = field.pow(primitive, qctx.x_exponent)
    u, acc = 0, field.one
    while acc != qctx.x_class:
        u, acc = u + 1, field.mul(acc, h)
        if u == qctx.rotation_order:
            raise InternalError("class of x lies outside the subgroup of its order")
    for _ in range(n_units + 1):
        if math.gcd(u, n_units) == 1:
            return field.pow(primitive, u)
        u += qctx.rotation_order
    raise InternalError("no unit exponent reaches the class of x")


def element_order(field, a) -> int:
    """Multiplicative order of a nonzero element, via divisors of |F*|."""
    if a == field.zero:
        raise ZeroElementError("zero has no multiplicative order")
    k = field.order - 1
    for f in factorize(k):
        while k % f.p == 0 and field.pow(a, k // f.p) == field.one:
            k //= f.p
    return k


def primitive_by_scan(field):
    """First element of order |F*| among indices 1, 2, ... of the field."""
    for i in range(1, field.order):
        a = field.from_index(i)
        if element_order(field, a) == field.order - 1:
            return a
    raise InternalError("no primitive element found")


def is_irreducible_by_trial(field, f) -> bool:
    """A monic f of degree d >= 1 is irreducible iff no monic g of degree
    1..d//2 divides it; every such g is tried by polys.mod."""
    d = polys.degree(f)
    for k in range(1, d // 2 + 1):
        for i in range(field.order**k):
            g = tuple(field.from_index(i // field.order**u % field.order) for u in range(k))
            if not polys.mod(field, f, g + (field.one,)):
                return False
    return d >= 1


def poly_add(field, a, b) -> tuple:
    """a + b coefficientwise, trimmed; set-up never adds polynomials, so polys has no sum."""
    width = max(len(a), len(b))
    a, b = (tuple(c) + (field.zero,) * (width - len(c)) for c in (a, b))
    return polys.trim(field, map(field.add, a, b))


def factor_by_splitting_field(n: int, field, cosets=None) -> list[tuple]:
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
        if any(c[1:] != ext.zero[1:] for c in poly):
            raise InternalError("factor coefficient escaped the base field")
        descended = polys.trim(field, [c[0] for c in poly])
        if polys.degree(descended) != coset.size:
            raise InternalError("factor degree does not match its coset")
        factors.append(descended)

    product = (field.one,)
    for f in factors:
        product = polys.mul(field, product, f)
    if product != xn_minus_1(field, n):
        raise InternalError("coset factors do not multiply back to x**n - 1")
    return factors


def units_by_search(tables: CosetTable, support) -> tuple[int, ...]:
    """Least diagonal unit tuple for one support, by backtracking.

    Tries the units of each supported pair in increasing order and keeps
    the first full tuple whose weighted sum is gcd(n, supported reps);
    raises NoSolutionError when the whole product is exhausted.
    """
    key = tables.automorphisms.normalize(support)
    n = tables.params.n
    pairs, moduli, coeffs, step = tables.automorphisms._congruence_data(key)
    target = step % n
    choices = [
        (0,) if m == 1 else tuple(u for u in range(1, m) if math.gcd(u, m) == 1)
        for m in moduli
    ]
    picked = [0] * len(pairs)

    def search(pos: int, acc: int) -> bool:
        if pos == len(pairs):
            return acc == target
        for u in choices[pos]:
            picked[pos] = u
            if search(pos + 1, (acc + coeffs[pos] * u) % n):
                return True
        return False

    if not search(0, 0):
        raise NoSolutionError(
            f"no diagonal unit tuple matches gcd for support {key} at n={n}"
        )
    return tuple(picked)


def is_prime_by_trial(m: int) -> bool:
    """Primality by factorize_by_trial."""
    return m >= 2 and factorize_by_trial(m) == [PrimePowerFactor(m, 1)]


def factorize_by_trial(m: int, order: str = "desc") -> list[PrimePowerFactor]:
    """Prime-power factorization of m >= 1 by trial division to the cofactor's square root,
    ordered by p**t as factorize orders it."""
    factors = []
    rest = m
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            t = 0
            while rest % d == 0:
                rest //= d
                t += 1
            factors.append(PrimePowerFactor(d, t))
        d += 1 if d == 2 else 2
    if rest > 1:
        factors.append(PrimePowerFactor(rest, 1))
    factors.sort(key=lambda f: f.value, reverse=(order == "desc"))
    return factors
