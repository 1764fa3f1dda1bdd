import pytest

from necklacemap import polys
from necklacemap.fields import ExtensionField, PrimeField, build_field, extend_field
from reference import is_irreducible_by_trial, poly_add

F5 = PrimeField(5)
F3 = PrimeField(3)
F2 = PrimeField(2)


def test_trim_and_zero():
    assert polys.trim(F5, [1, 2, 0, 0]) == (1, 2)
    assert polys.trim(F5, [0, 0]) == ()
    assert polys.degree(()) == -1


def test_mul_known():
    # (x + 4)(x^2 + x + 1) = x^3 + 4 over F5, i.e. x^3 - 1
    assert polys.mul(F5, (4, 1), (1, 1, 1)) == (4, 0, 0, 1)


def test_divmod_inverts_mul():
    a = (2, 0, 1, 3)
    b = (1, 1)
    q, r = polys.divmod_(F5, a, b)
    assert poly_add(F5, polys.mul(F5, q, b), r) == a
    assert polys.degree(r) < polys.degree(b)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        polys.divmod_(F5, (1, 1), ())


def test_gcd_monic():
    # gcd((x-1)(x-2), (x-1)(x-3)) = x - 1 = x + 4
    a = polys.mul(F5, (4, 1), (3, 1))
    b = polys.mul(F5, (4, 1), (2, 1))
    assert polys.gcd(F5, a, b) == (4, 1)


def irreducible(field, f) -> bool:
    """Whether ExtensionField accepts f as a modulus: its cheap refusals, then Ben-Or."""
    try:
        ExtensionField(field, f)
    except ValueError:
        return False
    return True


def test_pow_mod_matches_naive():
    # a power in the field is the power of the polynomial mod the modulus
    modulus = (1, 0, 1)  # x^2 + 1 over F3
    field = ExtensionField(F3, modulus)
    acc = (F3.one,)
    for e in range(8):
        assert field.pow(field.from_poly((1, 1)), e) == field.from_poly(acc)
        acc = polys.mod(F3, polys.mul(F3, acc, (1, 1)), modulus)


@pytest.mark.parametrize(
    "field,poly,expected",
    [
        (F3, (1, 0, 1), True),  # x^2 + 1 has no root mod 3
        (F5, (1, 0, 1), False),  # x^2 + 1 = (x+2)(x+3) mod 5
        (F2, (1, 1, 1), True),
        (F2, (1, 0, 1), False),  # (x+1)^2
        (F2, (1, 1, 0, 1), True),  # x^3 + x + 1
        (F5, (3, 1), True),  # linear
        (F5, (2,), False),  # constant
    ],
)
def test_is_irreducible(field, poly, expected):
    assert irreducible(field, poly) is expected


def test_irreducible_count_degree2_mod2():
    # exactly one monic irreducible quadratic exists over F2
    hits = [
        (c0, c1)
        for c0 in range(2)
        for c1 in range(2)
        if irreducible(F2, (c0, c1, 1))
    ]
    assert hits == [(1, 1)]


@pytest.mark.parametrize(
    "p,t,degrees",
    [(2, 1, (2, 3, 4)), (3, 1, (2, 3, 4)), (5, 1, (2, 3, 4)), (2, 2, (2, 3, 4)), (3, 2, (2, 3))],
)
def test_is_irreducible_matches_trial_division(p, t, degrees):
    # every monic polynomial of each degree, p-th powers included
    field = build_field(p, t)
    for d in degrees:
        for i in range(field.order**d):
            f = tuple(field.from_index(i // field.order**u % field.order) for u in range(d)) + (field.one,)
            assert irreducible(field, f) == is_irreducible_by_trial(field, f), f


def test_pth_powers_take_no_frobenius_step(monkeypatch):
    # cubing permutes GF(3**10), so every x**3 + c is a cube and is refused at once
    field = build_field(3, 10)

    def refused(*args):
        raise AssertionError("ExtensionField.pow reached")

    with monkeypatch.context() as m:
        m.setattr(ExtensionField, "pow", refused)
        for c in range(field.order):
            assert not irreducible(field, (c, 0, 0, field.one))
    assert extend_field(field, 3).modulus == (3, 1, 0, 1)


def test_resultant_over_f5():
    # f = (x - 1)(x - 2)(x - 3) over F5, so for monic f Res(f, g) = g(1) * g(2) * g(3)
    f = (4, 1, 4, 1)
    for g in [(1, 1), (3,), (0, 2), (4, 1, 3), (2, 0, 0, 1), (1, 2, 3, 4, 2)]:
        expected = 1
        for root in (1, 2, 3):
            expected = expected * sum(c * root**u for u, c in enumerate(g)) % 5
        assert polys.resultant(F5, f, g) == expected, g
        # Res(g, f) = (-1)**(deg f * deg g) * Res(f, g), g not monic
        assert polys.resultant(F5, g, f) == expected * (-1) ** (3 * polys.degree(g)) % 5, g
    assert polys.resultant(F5, f, (3, 1)) == 0  # x + 3 = x - 2 divides f
    assert polys.resultant(F5, f, ()) == 0
