"""Dense univariate polynomial arithmetic over a field context.

Polynomials are tuples of field elements, little-endian (index u holds the
coefficient of x**u), with no trailing zeros; () is the zero polynomial.
The field context is duck-typed: anything exposing zero/one/add/sub/neg/
mul/inv/order and its characteristic p works (see fields.py).
"""

from __future__ import annotations


def trim(field, coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == field.zero:
        coeffs.pop()
    return tuple(coeffs)


def degree(poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(poly) - 1


def x(field) -> tuple:
    return (field.zero, field.one)


def add(field, a, b) -> tuple:
    n = max(len(a), len(b))
    out = []
    for u in range(n):
        ca = a[u] if u < len(a) else field.zero
        cb = b[u] if u < len(b) else field.zero
        out.append(field.add(ca, cb))
    return trim(field, out)


def neg(field, a) -> tuple:
    return tuple(field.neg(c) for c in a)


def sub(field, a, b) -> tuple:
    return add(field, a, neg(field, b))


def scale(field, c, a) -> tuple:
    return trim(field, (field.mul(c, ca) for ca in a))


def mul(field, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == field.zero:
            continue
        for j, cb in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ca, cb))
    return trim(field, out)


def divmod_(field, a, b) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by nonzero b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = field.one if b[-1] == field.one else field.inv(b[-1])
    rem = list(a)
    if len(rem) < len(b):
        return (), trim(field, rem)
    quot = [field.zero] * (len(rem) - len(b) + 1)
    for shift in range(len(rem) - len(b), -1, -1):
        c = field.mul(rem[shift + len(b) - 1], lead_inv)
        if c == field.zero:
            continue
        quot[shift] = c
        for u, cb in enumerate(b):
            rem[shift + u] = field.sub(rem[shift + u], field.mul(c, cb))
    return trim(field, quot), trim(field, rem)


def mod(field, a, b) -> tuple:
    return divmod_(field, a, b)[1]


def monic(field, a) -> tuple:
    if not a:
        return ()
    return scale(field, field.one if a[-1] == field.one else field.inv(a[-1]), a)


def gcd(field, a, b) -> tuple:
    while b:
        a, b = b, mod(field, a, b)
    return monic(field, a)


def resultant(field, f, g):
    """Res(f, g) by Euclid: (-1)**(deg f * deg g) * lc(g)**(deg f - deg r) * Res(g, r), r = f mod g.
    For monic irreducible f and g reduced mod f it is g's norm from field[x]/f to field."""
    out = field.one
    while degree(g) > 0:
        r = mod(field, f, g)
        if not r:
            return field.zero
        c = field.pow(g[-1], degree(f) - degree(r))
        out = field.mul(out, field.neg(c) if degree(f) * degree(g) % 2 else c)
        f, g = g, r
    return field.mul(out, field.pow(g[0], degree(f))) if g else field.zero


def pow_mod(field, base, exp: int, modulus) -> tuple:
    """base**exp reduced mod modulus, by square-and-multiply."""
    if exp < 0:
        raise ValueError("negative polynomial exponents are not supported")
    result = (field.one,)
    acc = mod(field, base, modulus)
    while exp:
        if exp & 1:
            result = mod(field, mul(field, result, acc), modulus)
        acc = mod(field, mul(field, acc, acc), modulus)
        exp >>= 1
    return result


def is_irreducible(field, f) -> bool:
    """Irreducibility over the coefficient field.

    A monic f of degree d is irreducible iff it shares no factor with
    x**(order**u) - x for any u <= d/2: a reducible f has a factor of such a
    degree u, which divides that split polynomial (M. Ben-Or, FOCS 1981).
    Degree-one polynomials are always irreducible.
    When f' = 0, every nonzero coefficient sits at an exponent divisible by
    the characteristic p, so f = g(x**p) = h**p (every element of a finite
    field is a p-th power) and f is reducible with no Frobenius step.
    """
    d = degree(f)
    if d < 1:
        return False
    if d == 1:
        return True
    if all(c == field.zero for u, c in enumerate(f) if u % field.p):
        return False
    if f[-1] != field.one:
        f = monic(field, f)
    acc = xp = x(field)
    for _ in range(d // 2):
        acc = pow_mod(field, acc, field.order, f)
        if gcd(field, sub(field, acc, xp), f) != (field.one,):
            return False
    return True
