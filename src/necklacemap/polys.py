"""Dense univariate polynomials over a field context: the set-up algebra that produces them.

Polynomials are tuples of field elements, little-endian (index u holds the
coefficient of x**u), with no trailing zeros; () is the zero polynomial.
The field context is duck-typed: anything exposing zero/one/add/sub/neg/
mul/inv/pow works (see fields.py).  Products, divisions, gcds and resultants
build and test moduli; arithmetic modulo a modulus, powers included, is the
field's own: an ExtensionField proves its modulus irreducible with its own
products, by a period certificate or by Ben-Or's test.
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
