import itertools
import json
import math
import random
from pathlib import Path

import pytest

from necklacemap import cli, decomposition, fields, numtheory, polys
from necklacemap.bijection import map_necklace, unmap_function
from necklacemap.decomposition import build_tables, cyclotomic_cosets
from necklacemap.errors import (
    EnvelopeExceededError,
    InternalError,
    NotPrimeError,
    OrderMismatchError,
    ZeroElementError,
)
from necklacemap.fields import (
    ExtensionField,
    PrimeField,
    QuotientFieldCtx,
    TableField,
    _prime_power_tree,
    baby_table,
    build_field,
    discrete_log,
    extend_field,
    find_primitive,
    xn_minus_1,
)
from necklacemap.numtheory import RingParams, factorize
from reference import (
    element_order,
    generator_by_log,
    generator_by_walk,
    is_irreducible_by_trial,
    primitive_by_scan,
    residue_by_power,
)

INVERSE_LADDER = [(5, 6), (7, 10), (13, 6), (63, 2), (11, 12), (33, 4), (17, 3)]


def small_prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        t = 1
        while p**t <= limit:
            out.append((p, t))
            t += 1
    return out


class TestBuildField:
    def test_prime_field_is_plain_residues(self):
        f = build_field(5, 1)
        assert isinstance(f, PrimeField)
        assert f.order == 5 and f.one == 1

    def test_gf4_modulus(self):
        f = build_field(2, 2)
        assert f.modulus == (1, 1, 1)

    def test_gf9_modulus(self):
        f = build_field(3, 2)
        assert f.modulus == (1, 0, 1)

    def test_rejects_composite(self):
        with pytest.raises(NotPrimeError):
            build_field(6, 1)

    def test_modulus_reverified_independently(self):
        # no root in the base field, and no monic factor of degree up to half
        for p, t in [(2, 3), (3, 2), (5, 2), (2, 6)]:
            f = build_field(p, t)
            base = f.base
            # f mod (x - a) is f(a)
            assert all(
                polys.mod(base, f.modulus, (base.neg(a), base.one)) != () for a in range(p)
            )
            assert is_irreducible_by_trial(base, f.modulus)


class TestArithmetic:
    def test_inv_in_f5(self):
        assert PrimeField(5).inv(3) == 2

    def test_gf4_square_of_root(self):
        # x is index 2 and x + 1 is index 3
        f = build_field(2, 2)
        assert f.mul(2, 2) == 3

    @pytest.mark.parametrize("p,t", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 4)])
    def test_lagrange(self, p, t):
        f = build_field(p, t)
        for i in range(1, f.order):
            a = f.from_index(i)
            assert f.pow(a, f.order - 1) == f.one

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(7).inv(0)
        f = build_field(2, 2)
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero)

    def test_inverse_exhaustive_small_orders(self):
        for p, t in small_prime_powers(256):
            f = build_field(p, t)
            for i in range(1, f.order):
                a = f.from_index(i)
                assert f.mul(a, f.inv(a)) == f.one

    def test_index_round_trip(self):
        f = build_field(3, 3)
        for i in range(f.order):
            assert f.to_index(f.from_index(i)) == i

    def test_pow_multiplication_count(self, monkeypatch):
        # left-to-right binary powering: one squaring per bit after the top
        # one and one multiplication per further set bit, nothing for e = 1
        f = extend_field(PrimeField(3), 4)
        a = f.from_index(5)
        powers = [f.one]
        for _ in range(160):
            powers.append(f.mul(powers[-1], a))
        inv_powers = [f.one]
        for _ in range(80):
            inv_powers.append(f.mul(inv_powers[-1], f.inv(a)))
        for e in range(-80, 161):
            assert f.pow(a, e) == (powers[e] if e >= 0 else inv_powers[-e]), e
        calls = []
        mul = ExtensionField.mul
        monkeypatch.setattr(
            ExtensionField, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y)
        )
        for e, expected in [(0, 0), (1, 0), (2, 1), (193, 9)]:
            calls.clear()
            f.pow(a, e)
            assert len(calls) == expected, e

    def test_extension_tests_each_candidate_once(self, monkeypatch):
        # the canonical degree-4 modulus over F3 is the sixth candidate; as 4 | 4 and
        # 3 = 3 mod 4, no binomial x**4 + c is irreducible, and the scan constructs
        # only the fourth to the sixth
        calls = []
        init = ExtensionField.__init__
        monkeypatch.setattr(
            ExtensionField, "__init__", lambda self, base, m: calls.append(m) or init(self, base, m)
        )
        f = extend_field(PrimeField(3), 4)
        assert calls == [(0, 1, 0, 0, 1), (1, 1, 0, 0, 1), (2, 1, 0, 0, 1)]
        assert calls[-1] == f.modulus

    @pytest.mark.parametrize(
        "base,d", [(PrimeField(3), 4), (build_field(2, 2), 5), (PrimeField(2), 6)]
    )
    def test_remainder_matches_polys(self, base, d):
        # polys is the reference for the one remainder that from_poly and mul share
        f = extend_field(base, d)
        rng = random.Random(100 * base.order + d)

        def reference(coeffs):
            r = polys.mod(base, polys.trim(base, coeffs), f.modulus)
            return r + (base.zero,) * (d - len(r))

        for length in range(3 * d + 3):
            for _ in range(5):
                coeffs = [base.from_index(rng.randrange(base.order)) for _ in range(length)]
                assert f.from_poly(coeffs) == reference(coeffs), (length, coeffs)
        for _ in range(50):
            a, b = f.from_index(rng.randrange(f.order)), f.from_index(rng.randrange(f.order))
            product = polys.mul(base, polys.trim(base, a), polys.trim(base, b))
            assert f.mul(a, b) == reference(product)

    @pytest.mark.parametrize(
        "base,d",
        [(PrimeField(2), 7), (PrimeField(3), 5), (PrimeField(5), 4), (build_field(2, 2), 3), (build_field(3, 2), 3)],
    )
    def test_square_matches_product(self, base, d):
        # mul(a, a) squares; a copy that is not the same object takes the full product
        f = extend_field(base, d)
        rng = random.Random(10 * base.order + d)
        for _ in range(200):
            a = f.from_index(rng.randrange(f.order))
            b = tuple(list(a))
            assert b is not a and b == a
            assert f.mul(a, a) == f.mul(a, b), a

    def test_sparse_factor_costs_the_same_on_either_side(self, monkeypatch, tables_for):
        # GF(3**16) modulo Phi_17: a dense a and a b with one nonzero coefficient
        f = tables_for(17, 3).blocks[0].quotients[1].field
        assert f.degree == 16
        a, b = tuple(1 + i % 2 for i in range(16)), (0,) * 5 + (2,) + (0,) * 10
        calls = []
        mul = PrimeField.mul
        monkeypatch.setattr(PrimeField, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y))
        ab = f.mul(a, b)
        ab_calls = len(calls)
        calls.clear()
        assert f.mul(b, a) == ab and len(calls) == ab_calls

    def test_sparse_factor_costs_the_same_below_the_limit(self, monkeypatch, tables_for):
        # GF(5**6) modulo Phi_7 keeps the schoolbook loop: a dense a and a b with one
        # nonzero coefficient make one base product per nonzero a_i, in either order
        f = tables_for(7, 10).blocks[0].quotients[1].field
        assert f.degree == 6 and f.order <= fields.TABLE_LIMIT
        a, b = tuple(1 + i % 4 for i in range(6)), (0, 0, 3, 0, 0, 0)
        calls = []
        mul = PrimeField.mul
        monkeypatch.setattr(PrimeField, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y))
        ab = f.mul(a, b)
        ab_calls = len(calls)
        calls.clear()
        assert f.mul(b, a) == ab and len(calls) == ab_calls <= 6

    def test_tower_field(self):
        # degree-2 extension of GF(4): 16 elements, arithmetic closes
        base = build_field(2, 2)
        f = extend_field(base, 2)
        assert f.order == 16
        a = f.from_index(7)
        b = f.from_index(11)
        assert f.mul(a, f.inv(a)) == f.one
        assert f.sub(f.add(a, b), b) == a


class TestPackedProduct:
    """Above TABLE_LIMIT a field over F_p multiplies by one int product of its packed
    coefficients (Kronecker substitution); polys is the reference, at slots of one byte
    (translated) and of several, with and without the fold by x**R = 1."""

    @pytest.mark.parametrize(
        "p,t,period,slot",
        [
            (2, 21, 0, 1),  # GF(2**21), the tuple base of (5, 2097152)
            (2, 100, 101, 1),  # GF(2**100) modulo Phi_101, folded
            (3, 16, 17, 1),  # GF(3**16) modulo Phi_17, folded
            (7, 12, 13, 2),  # GF(7**12) modulo Phi_13, folded
            (5, 16, 17, 2),  # GF(5**16) modulo Phi_17: slot 15 of (4, ..., 4)**2 is 256
            (2**20 + 7, 2, 0, 6),
            (2**32 + 15, 2, 0, 9),
        ],
    )
    def test_products_and_squares_match_polys(self, p, t, period, slot):
        base = PrimeField(p)
        f = ExtensionField(base, (1,) * (t + 1), period) if period else extend_field(base, t)
        assert f.degree == t and f.order > fields.TABLE_LIMIT and f._slot == slot
        rng = random.Random(p + t)
        elements = [f.zero, f.one, (p - 1,) * t]  # all p - 1 fills every slot to its bound
        elements += [tuple(rng.randrange(p) for _ in range(t)) for _ in range(12)]

        def reference(a, b):
            r = polys.mod(base, polys.mul(base, polys.trim(base, a), polys.trim(base, b)), f.modulus)
            return r + (base.zero,) * (t - len(r))

        for a in elements:
            copy = tuple(list(a))
            assert copy is not a and f.mul(a, a) == f.mul(a, copy) == reference(a, a), a
            for b in elements[:5]:
                assert f.mul(a, b) == f.mul(b, a) == reference(a, b), (a, b)

    def test_only_fields_above_the_limit_pack(self, monkeypatch, tables_for):
        # GF(5**6) of (7,10) and GF(2**20), at or below TABLE_LIMIT, multiply by base
        # products; GF(2**21) and GF(3**16) modulo Phi_17 make none
        small = [tables_for(7, 10).blocks[0].quotients[1].field, extend_field(PrimeField(2), 20)]
        big = [extend_field(PrimeField(2), 21), tables_for(17, 3).blocks[0].quotients[1].field]
        assert small[1].order == fields.TABLE_LIMIT and big[1].degree == 16
        calls = []
        mul = PrimeField.mul
        monkeypatch.setattr(PrimeField, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y))
        for f in small + big:
            a = tuple(1 + i % (f.p - 1) for i in range(f.degree))
            calls.clear()
            f.mul(f.mul(a, a), a)
            assert bool(calls) == (f in small), f


class TestPackedKernel:
    """With TABLE_LIMIT at 1 every field over F_p with slots of one or two bytes packs, so
    the kernel's shapes meet polys on small fields: a fold then Barrett (Phi_9), one row
    with its top slot unreduced and Barrett on a fold to t + 1 slots (Phi_5), Barrett with a
    period too long to fold (a cubic factor of Phi_7), Barrett alone, and two-byte slots;
    pow is checked against repeated products."""

    FIELDS = [
        (2, (1, 0, 0, 1, 0, 0, 1), 9),  # GF(2**6) modulo Phi_9
        (3, (1, 1, 1, 1, 1), 5),  # GF(3**4) modulo Phi_5
        (7, (1, 1, 1, 1, 1), 5),  # GF(7**4) modulo Phi_5: one row, but 7 * 4 * 6**2 > 255
        (2, (1, 1, 0, 1), 7),  # x**3 + x + 1, a factor of Phi_7 over F_2
        (7, 3, 0),  # extend_field(PrimeField(7), 3)
        (11, 3, 0),  # two-byte slots: 3 * 10**2 > 255
    ]

    @staticmethod
    def packed(monkeypatch, p, modulus, period):
        monkeypatch.setattr(fields, "TABLE_LIMIT", 1)
        base = PrimeField(p)
        if isinstance(modulus, int):
            return extend_field(base, modulus)
        return ExtensionField(base, modulus, period)

    @pytest.mark.parametrize("p,modulus,period", FIELDS)
    def test_products_and_squares_match_polys(self, monkeypatch, p, modulus, period):
        f = self.packed(monkeypatch, p, modulus, period)
        base, t = f.base, f.degree
        assert f._slot == (1 if p < 11 else 2) and f._codec
        mu = f._kernel[5]  # 0 where the one slot above x**t is the quotient
        assert bool(mu) == (p in (2, 7, 11)), mu
        if f.order <= 81:
            elements = [f.from_index(i) for i in range(f.order)]
        else:
            rng = random.Random(p * t)
            elements = [f.zero, f.one, (p - 1,) * t]
            elements += [f.from_index(rng.randrange(f.order)) for _ in range(40)]

        def reference(a, b):
            r = polys.mod(base, polys.mul(base, polys.trim(base, a), polys.trim(base, b)), f.modulus)
            return r + (base.zero,) * (t - len(r))

        for a in elements:
            assert f.mul(a, a) == reference(a, a), a
            for b in elements:
                assert f.mul(a, b) == reference(a, b), (a, b)

    @pytest.mark.parametrize("p,modulus,period", FIELDS)
    def test_powers_match_repeated_products(self, monkeypatch, p, modulus, period):
        f = self.packed(monkeypatch, p, modulus, period)
        n_units, rng = f.order - 1, random.Random(f.order)
        for a in [f.one, f.from_index(f.order - 1)] + [
                f.from_index(rng.randrange(2, f.order)) for _ in range(2)]:
            powers = [f.one]
            for _ in range(n_units):
                powers.append(f.mul(powers[-1], a))
            assert powers[-1] == f.one, a
            exponents = [0, 1, 2, n_units - 1, n_units, -1]
            exponents += [rng.randrange(-3 * n_units, 3 * n_units) for _ in range(8)]
            for e in exponents:
                assert f.pow(a, e) == powers[e % n_units], (a, e)
        assert f.pow(f.zero, 0) == f.one and f.pow(f.zero, 5) == f.zero
        with pytest.raises(ZeroDivisionError):
            f.pow(f.zero, -1)

    @staticmethod
    def count(monkeypatch, owner, name):
        calls, real = [], getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, a, b: calls.append(1) or real(self, a, b))
        return calls

    def test_wider_slots_keep_the_loop(self, monkeypatch):
        # three-byte slots (GF(257**2)) and the six-byte slots of GF(1048583**3), reduced
        # one by one, lose to the schoolbook loop, which they keep above TABLE_LIMIT too
        wide = [self.packed(monkeypatch, 257, 2, 0), extend_field(PrimeField(1048583), 3)]
        assert [f._slot for f in wide] == [3, 6] and wide[1].order > 1 << 60
        products = self.count(monkeypatch, PrimeField, "mul")
        for f in wide:
            a = f.from_index(f.order // 3)
            assert f._codec is None and f.mul(a, f.inv(a)) == f.one
        assert products

    def test_fields_built_before_a_patch_are_counted(self, monkeypatch, tables_for):
        # pow reads mul, or the kernel, off the class at each call, so a guard that patches
        # either after the field is built still counts its products
        small = tables_for(7, 10).blocks[0].quotients[1].field
        big = tables_for(17, 3).blocks[0].quotients[1].field
        muls = self.count(monkeypatch, ExtensionField, "mul")
        kernel = self.count(monkeypatch, ExtensionField, "_product")
        a = small.from_index(12345 % small.order)
        small.pow(a, 100)
        assert len(muls) >= 7 and kernel == []
        del muls[:]
        big.pow(big.from_index(12345), 100)
        assert muls == [] and len(kernel) >= 7


class TestTableField:
    """TableField against the one-level tuple field with the same modulus,
    extend_field(PrimeField(p), t), compared through from_index/to_index."""

    @staticmethod
    def table_and_flat(p, t):
        f, flat = build_field(p, t), extend_field(PrimeField(p), t)
        assert isinstance(f, TableField) and f.modulus == flat.modulus and f.order == flat.order
        return f, flat

    def check_pair(self, f, flat, a, b):
        up, down = flat.from_index, flat.to_index
        assert f.add(a, b) == down(flat.add(up(a), up(b))), (a, b)
        assert f.sub(a, b) == down(flat.sub(up(a), up(b))), (a, b)
        assert f.mul(a, b) == down(flat.mul(up(a), up(b))), (a, b)

    def check_element(self, f, flat, a):
        up, down = flat.from_index, flat.to_index
        assert f.neg(a) == down(flat.neg(up(a))), a
        if a:
            assert f.inv(a) == down(flat.inv(up(a))), a
        for e in (-3, 0, 1, 2, f.order):
            if a or e >= 0:
                assert f.pow(a, e) == down(flat.pow(up(a), e)), (a, e)
            else:
                with pytest.raises(ZeroDivisionError):
                    f.pow(a, e)

    @pytest.mark.parametrize("p,t", [(p, t) for p, t in small_prime_powers(64) if t > 1])
    def test_exhaustive_up_to_64(self, p, t):
        f, flat = self.table_and_flat(p, t)
        for a in range(f.order):
            for b in range(f.order):
                self.check_pair(f, flat, a, b)
            self.check_element(f, flat, a)
        with pytest.raises(ZeroDivisionError):
            f.inv(f.zero)

    @pytest.mark.parametrize(
        "p,t", [(p, t) for p, t in small_prime_powers(256) if t > 1 and p**t > 64] + [(2, 16)]
    )
    def test_seeded_samples(self, p, t):
        f, flat = self.table_and_flat(p, t)
        rng = random.Random(1000 * p + t)
        for _ in range(300):
            self.check_pair(f, flat, rng.randrange(f.order), rng.randrange(f.order))
            self.check_element(f, flat, rng.randrange(f.order))
        for a in (0, 1, f.order - 1):
            self.check_element(f, flat, a)

    def test_tuple_base_above_the_limit(self, monkeypatch, tables_for):
        # past TABLE_LIMIT a base field keeps coefficient tuples, with the same images
        assert isinstance(build_field(2, 21), ExtensionField)
        monkeypatch.setattr(fields, "TABLE_LIMIT", 3)
        tables = build_tables(RingParams.create(5, 4))
        assert isinstance(tables.blocks[0].field, ExtensionField)
        reference = tables_for(5, 4)
        rng = random.Random(54)
        for _ in range(50):
            word = tuple(rng.randrange(4) for _ in range(5))
            assert map_necklace(tables, word) == map_necklace(reference, word), word


def golden_instances():
    """Every (n, q) that a golden case builds tables for and that exits 0."""
    cases = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())
    out = set()
    for case in cases:
        args = [a for a in case["argv"] if not a.startswith("-")]
        if case["exit"] == 0 and args[0] in ("cosets", "factors", "map", "unmap", "verify"):
            out.add((int(args[1]), int(args[2])))
    return sorted(out)


def golden_fields(monkeypatch):
    """(quotient fields, splitting fields) built for every golden instance."""
    quotients, splitting = [], []

    def recording(base, t):
        splitting.append(extend_field(base, t))
        return splitting[-1]

    monkeypatch.setattr(decomposition, "extend_field", recording)
    for n, q in golden_instances():
        for block in build_tables(RingParams.create(n, q)).blocks:
            quotients.extend(qctx.field for qctx in block.quotients)
    return quotients, splitting


class TestOneLevel:
    def test_no_extension_has_an_extension_base(self, monkeypatch):
        # quotient fields and splitting fields sit one level over an int-valued base
        instances = golden_instances()
        assert (33, 4) in instances and (11, 12) in instances
        quotients, splitting = golden_fields(monkeypatch)
        assert quotients and splitting
        assert not any(isinstance(f.base, ExtensionField) for f in quotients + splitting)

    def test_products_never_recurse(self, monkeypatch, tables_for):
        tables = tables_for(33, 4)
        depth, calls, nested = [0], [0], [0]
        mul = ExtensionField.mul

        def counted(self, a, b):
            calls[0] += 1
            nested[0] += depth[0] > 0
            depth[0] += 1
            try:
                return mul(self, a, b)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(ExtensionField, "mul", counted)
        rng = random.Random(33)
        for _ in range(5):
            word = tuple(rng.randrange(4) for _ in range(33))
            assert unmap_function(tables, map_necklace(tables, word)) == min(
                word[k:] + word[:k] for k in range(33)
            )
        assert calls[0] > 0 and nested[0] == 0


class TestOrders:
    def test_order_of_one(self):
        assert element_order(PrimeField(5), 1) == 1

    def test_order_of_two_mod_five(self):
        assert element_order(PrimeField(5), 2) == 4

    def test_order_of_root_in_gf4(self):
        f = build_field(2, 2)
        assert element_order(f, 2) == 3

    def test_zero_rejected(self):
        with pytest.raises(ZeroElementError):
            element_order(PrimeField(5), 0)

    @pytest.mark.parametrize("p,t,expected", [(2, 1, 1), (5, 1, 2), (7, 1, 3)])
    def test_find_primitive(self, p, t, expected):
        assert find_primitive(build_field(p, t))[0] == expected

    def test_primitive_in_extension(self):
        f = build_field(2, 4)
        g, _ = find_primitive(f)
        assert element_order(f, g) == 15

    def test_primitive_matches_scan_from_one(self, monkeypatch):
        # skipping a proper extension's base constants keeps every first hit
        quotients, splitting = golden_fields(monkeypatch)
        small = [extend_field(PrimeField(p), t) for p, t in small_prime_powers(256)]
        assert splitting and any(f.degree > 1 for f in quotients)
        for f in quotients + splitting + small:
            assert find_primitive(f)[0] == primitive_by_scan(f), f

    def test_prime_power_tree_matches_element_order(self):
        gf4 = build_field(2, 2)
        cases = [extend_field(PrimeField(p), t) for p, t in [(2, 6), (3, 4), (5, 2)]]
        for f in cases + [extend_field(gf4, 3)]:
            n_units = f.order - 1
            divisors = [d for d in range(1, n_units + 1) if n_units % d == 0]
            for i in range(1, f.order):
                a = f.from_index(i)
                order = element_order(f, a)
                for d in divisors:
                    if f.pow(a, d) == f.one:
                        tree = _prime_power_tree(f, a, factorize(d))
                        assert (tree is not None) == (order == d), (f, i, d)


class TestNorm:
    @staticmethod
    def assert_norm(f, a):
        q = f.base.order
        power = f.pow(a, (f.order - 1) // (q - 1))  # a**(1 + q + ... + q**(d-1)) lies in the base
        assert power[1:] == f.zero[1:]
        assert polys.resultant(f.base, f.modulus, polys.trim(f.base, a)) == power[0], a

    def test_every_unit_of_small_extensions(self):
        gf4 = build_field(2, 2)
        for f in [extend_field(PrimeField(3), 4), extend_field(PrimeField(5), 3), extend_field(gf4, 3)]:
            for i in range(1, f.order):
                self.assert_norm(f, f.from_index(i))

    def test_seeded_units_of_gf_3_16(self):
        f = extend_field(PrimeField(3), 16)
        rng = random.Random(316)
        for _ in range(200):
            self.assert_norm(f, f.from_index(rng.randrange(1, f.order)))


class TestDiscreteLog:
    def test_prime_field_group(self):
        f = PrimeField(101)
        g, _ = find_primitive(f)
        steps = baby_table(f, g, 100)
        for k in range(0, 100, 7):
            assert discrete_log(f, f.pow(g, k), 100, *steps) == k

    def test_bsgs_path(self):
        f = build_field(2, 11)  # unit group of order 2047, a 46-entry baby table
        g, _ = find_primitive(f)
        babies, giant = baby_table(f, g, 2047)
        assert len(babies) == 46 and f.mul(giant, f.pow(g, 46)) == f.one
        for k in [0, 1, 2, 100, 1023, 2046]:
            assert discrete_log(f, f.pow(g, k), 2047, babies, giant) == k

    def test_zero_rejected(self):
        f = PrimeField(5)
        with pytest.raises(ZeroElementError):
            discrete_log(f, 0, 4, *baby_table(f, 2, 4))


class TestQuotientCtx:
    def test_trivial_unit_group(self):
        # F2 modulo x+1: one-element unit group, generator is 1
        q = QuotientFieldCtx(PrimeField(2), (1, 1), n=3, rep=0)
        assert q.group_order == 1
        assert q.generator == q.field.one
        assert q.x_exponent == 1

    def test_rep_zero_gets_smallest_primitive(self):
        # F5 modulo x-1: class of x is 1, exponent is the full group order
        q = QuotientFieldCtx(PrimeField(5), (4, 1), n=3, rep=0)
        assert q.x_exponent == 4
        assert q.x_class == q.field.one
        assert q.generator == (2,)

    def test_constrained_generator_degree_two(self):
        # F5 modulo x^2+x+1 at rep 1: generator g with g^8 = class of x
        q = QuotientFieldCtx(PrimeField(5), (1, 1, 1), n=3, rep=1)
        assert q.group_order == 24
        assert q.x_exponent == 8
        assert element_order(q.field, q.generator) == 24
        assert q.field.pow(q.generator, 8) == q.x_class

    def test_group_order_is_factored_once(self, monkeypatch):
        # the walk that proves the primitive builds the tree its logs take, so the
        # one factorization of group_order serves both
        seen = []

        def counted(m, *args, **kwargs):
            seen.append(m)
            return factorize(m, *args, **kwargs)

        monkeypatch.setattr(fields, "factorize", counted)
        monkeypatch.setattr(numtheory, "factorize", counted)
        q = QuotientFieldCtx(PrimeField(5), (1, 1, 1), n=3, rep=1)
        assert seen.count(q.group_order) == 1, seen

    @pytest.mark.parametrize("n,q,order", [(7, 2, 7), (31, 2, 31)])
    def test_one_factorization_per_order_per_build(self, monkeypatch, n, q, order):
        # the splitting field GF(2^s) and every degree-s quotient share the group order
        # 2^s - 1, which is also each quotient's rotation order: the build factors every
        # number once, and a second build factors them all again
        seen = []

        def counted(m, *args, **kwargs):
            seen.append(m)
            return factorize(m, *args, **kwargs)

        monkeypatch.setattr(fields, "factorize", counted)
        tables = build_tables(RingParams.create(n, q))
        assert sum(qctx.group_order == order for qctx in tables.blocks[0].quotients) > 1
        assert seen.count(order) == 1 and len(seen) == len(set(seen)), seen
        first = list(seen)
        seen.clear()
        build_tables(RingParams.create(n, q))
        assert seen == first

    @pytest.mark.parametrize("n,q", [(5, 6), (9, 2), (63, 2), (13, 6), (17, 3)])
    def test_folded_remainder_matches_polys(self, n, q, tables_for):
        # a quotient folds by x**R = 1, R its rotation order, before it divides
        for block in tables_for(n, q).blocks:
            for qctx in block.quotients:
                f, base, period = qctx.field, qctx.field.base, qctx.rotation_order
                assert f.period == period
                rng = random.Random(1000 * n + 10 * q + qctx.rep)

                def reference(coeffs):
                    r = polys.mod(base, polys.trim(base, coeffs), f.modulus)
                    return r + (base.zero,) * (f.degree - len(r))

                for length in range(2 * period + 3):
                    for _ in range(2):
                        coeffs = [base.from_index(rng.randrange(base.order)) for _ in range(length)]
                        assert f.from_poly(coeffs) == reference(coeffs), (qctx, length, coeffs)
                for _ in range(50):
                    a, b = f.from_index(rng.randrange(f.order)), f.from_index(rng.randrange(f.order))
                    for x, y in [(a, b), (a, a)]:
                        product = polys.mul(base, polys.trim(base, x), polys.trim(base, y))
                        assert f.mul(x, y) == reference(product), (qctx, x, y)

    @pytest.mark.parametrize("n,q", INVERSE_LADDER + [(35, 2), (5, 59049), (5, 2097152)])
    def test_powers_of_x_follow_the_shift_law(self, n, q, tables_for):
        # x_powers[k] is x**k, and x**turn * g**offset is g**(turn * x_exponent + offset)
        for block in tables_for(n, q).blocks:
            for qctx in block.quotients:
                f, e, r = qctx.field, qctx.x_exponent, qctx.rotation_order
                assert len(qctx.x_powers) == r
                assert all(qctx.x_powers[k] == f.pow(qctx.x_class, k) for k in range(r))
                for offset in sorted({0, 1 % e, e - 1}):
                    g_offset = f.pow(qctx.generator, offset)
                    for turn in range(r):
                        assert f.mul(qctx.x_powers[turn], g_offset) == residue_by_power(
                            qctx, turn * e + offset), (n, q, qctx.rep, turn, offset)

    def test_powers_of_x_must_close(self, monkeypatch):
        # x**4 + x + 1 over F2 has degree ord_5(2) = 4 and no root 1, so the period
        # certificate takes it for R = 5; x has order 15 there, so with the division
        # made to pass, x**5 != 1 refuses it before any log is taken
        divmod_, x5_minus_1 = polys.divmod_, xn_minus_1(PrimeField(2), 5)

        def passed(f, a, b):
            quot, rem = divmod_(f, a, b)
            return quot, () if a == x5_minus_1 else rem

        monkeypatch.setattr(polys, "divmod_", passed)
        with pytest.raises(OrderMismatchError, match="powers of x do not close"):
            QuotientFieldCtx(PrimeField(2), (1, 1, 0, 0, 1), n=5, rep=1)

    def test_order_mismatch_guard(self):
        # x+1 over F5 puts -1 in place of x, order 2, but rep=0 demands order 1
        with pytest.raises(OrderMismatchError):
            QuotientFieldCtx(PrimeField(5), (1, 1), n=3, rep=0)
        # x-1 over F7 puts 1 in place of x: its log 0 is a multiple of
        # x_exponent 2, but 1 has order 1, not 3
        with pytest.raises(OrderMismatchError):
            QuotientFieldCtx(PrimeField(7), (6, 1), n=3, rep=1)
        # F5 has no unit of order 3 at all
        with pytest.raises(OrderMismatchError):
            QuotientFieldCtx(PrimeField(5), (1, 1), n=3, rep=1)

    def test_wrong_log_of_x_is_caught(self, monkeypatch):
        # GF(25) modulo x^2+x+1: a log of x_class off by the unit factor 5 keeps its
        # gcd 8 with the group order 24, so only the generator check can see it
        real = QuotientFieldCtx._log_of_x

        def off_by_a_unit(qctx, primitive):
            log = real(qctx, primitive)
            return log * 5 % 24 if qctx.group_order == 24 else log

        monkeypatch.setattr(QuotientFieldCtx, "_log_of_x", off_by_a_unit)
        with pytest.raises(InternalError, match="generator does not reach the class of x"):
            QuotientFieldCtx(PrimeField(5), (1, 1, 1), n=3, rep=1)

    def test_generator_constraint_across_reps(self):
        # all quotients of x^5 - 1 over F4
        base = build_field(2, 2)
        from necklacemap.decomposition import factor_xn_minus_1

        cosets = cyclotomic_cosets(5, 4)
        for coset, poly in zip(cosets, factor_xn_minus_1(5, base, cosets)):
            q = QuotientFieldCtx(base, poly, n=5, rep=coset.rep)
            assert element_order(q.field, q.generator) == q.group_order
            assert q.field.pow(q.generator, q.x_exponent) == q.x_class
            assert element_order(q.field, q.x_class) == 5 // math.gcd(5, coset.rep)

    def test_generator_matches_log_derivation(self):
        # every coprime (n, q) with n <= 15, q <= 10 whose quotient unit
        # groups all stay at most 728 (3^6 - 1): the tree's log, the walk and
        # the whole-group log give the same generator in every quotient field
        seen_t, shared_gcd, rep_zero, compared = set(), 0, 0, 0
        for q in range(2, 11):
            for n in range(1, 16):
                if math.gcd(n, q) != 1:
                    continue
                params = RingParams.create(n, q)
                sizes = [
                    f.value**c.size - 1 for f in params.factors for c in cyclotomic_cosets(n, f.value)
                ]
                if max(sizes) > 728:
                    continue
                for block in build_tables(params).blocks:
                    for qctx in block.quotients:
                        assert qctx.generator == generator_by_log(qctx), (n, q, qctx.rep)
                        assert qctx.generator == generator_by_walk(qctx), (n, q, qctx.rep)
                        seen_t.add(block.factor.t)
                        shared_gcd += qctx.rep_gcd > 1 and qctx.rep != 0
                        rep_zero += qctx.rep == 0
                        compared += 1
        assert {1, 2, 3} <= seen_t and shared_gcd and rep_zero and compared > 100


def zero_sum_functions(n, q, count, seed):
    """Seeded functions on Z_n with weighted sum 0: f(n-1) = sum(v * f(v), v < n-1) mod n."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        head = [rng.randrange(q) for _ in range(n - 1)]
        last = sum(v * c for v, c in enumerate(head)) % n
        if last < q:
            out.append((*head, last))
    return out


def leaf_orders(node):
    return [node[0]] if len(node) == 2 else leaf_orders(node[3]) + leaf_orders(node[4])


class TestLogTables:
    @staticmethod
    def forbid_logs(monkeypatch):
        def forbidden(*args):
            raise AssertionError("a log table was filled or a log taken")

        monkeypatch.setattr(fields, "baby_table", forbidden)
        monkeypatch.setattr(fields, "_log_in_tree", forbidden)

    @pytest.mark.parametrize("n,q", INVERSE_LADDER)
    def test_build_and_unmap_take_no_log(self, monkeypatch, n, q):
        # x's log is read from x_powers, and unmap needs only generators and x_powers
        functions = zero_sum_functions(n, q, 5, 1000 * n + q)
        with monkeypatch.context() as patched:
            self.forbid_logs(patched)
            tables = build_tables(RingParams.create(n, q))
            words = [unmap_function(tables, f) for f in functions]
        assert [map_necklace(tables, w) for w in words] == functions

    @pytest.mark.parametrize("n,q", INVERSE_LADDER)
    def test_first_dlog_fills_each_tree_once(self, monkeypatch, n, q):
        tables = build_tables(RingParams.create(n, q))
        filled = []
        real = fields.baby_table
        monkeypatch.setattr(
            fields, "baby_table", lambda f, g, order: filled.append(order) or real(f, g, order))
        trivial = 0
        for qctx in (qctx for block in tables.blocks for qctx in block.quotients):
            if qctx.group_order == 1:  # one element, one log, no table
                assert qctx.dlog(qctx.field.one) == 0 and filled == []
                trivial += 1
                continue
            assert qctx.dlog(qctx.generator) == 1
            assert sorted(filled) == sorted(leaf_orders(qctx._tree)), (n, q, qctx.rep)
            del filled[:]
            assert qctx.dlog(qctx.x_class) == qctx.x_exponent % qctx.group_order
            assert filled == [], (n, q, qctx.rep)
        assert trivial == (q % 4 == 2)  # x - 1 over F_2, where 2 exactly divides q

    @pytest.mark.parametrize(
        "n,q,orders", [(7, 10, [5, 5**6, 8, 8]), (11, 12, [4, 4**5, 4**5, 3, 3**5, 3**5])]
    )
    def test_oversized_table_is_refused_before_any_is_filled(self, monkeypatch, n, q, orders):
        # each nontrivial quotient needs entries * F_p digits for its leaf of most entries,
        # the whole subgroup up to WHOLE_TABLE_ORDER and ceil(sqrt(order)) above it, the
        # digits counted over F_p also over the table base GF(4): one below that, its
        # first log is refused, naming the field and the prime power, and no table is
        # filled; at that value, the log is taken
        def entries(order):
            return order if order <= fields.WHOLE_TABLE_ORDER else math.isqrt(order - 1) + 1

        quotients = [qctx for block in build_tables(RingParams.create(n, q)).blocks
                     for qctx in block.quotients if qctx.group_order > 1]
        assert [qctx.field.order for qctx in quotients] == orders
        for qctx in quotients:
            f, largest = qctx.field, max(pp.value for pp in factorize(qctx.group_order))
            digits = f.degree * (1 if isinstance(f.base, PrimeField) else f.base.degree)
            widest = max(leaf_orders(qctx._tree), key=entries)
            need = entries(widest) * digits
            assert f.p**digits == f.order and largest == max(leaf_orders(qctx._tree))
            with monkeypatch.context() as patched:
                self.forbid_logs(patched)
                patched.setattr(fields, "BABY_TABLE_DIGITS", need - 1)
                with pytest.raises(EnvelopeExceededError) as refused:
                    qctx.dlog(qctx.generator)
            assert f"GF({f.p}^{digits})" in str(refused.value)
            assert f"order {widest}," in str(refused.value)
            monkeypatch.setattr(fields, "BABY_TABLE_DIGITS", need)
            assert qctx.dlog(qctx.generator) == 1

    def test_cli_refusal_exits_1_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(fields, "BABY_TABLE_DIGITS", 1)
        self.forbid_logs(monkeypatch)
        assert cli.main(["map", "7", "10", "1,2,3,4,5,6,7"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: a log in GF(")
        assert cli.main(["unmap", "7", "10", "0,0,0,0,0,0,0"]) == 0

    def test_107_2_needs_a_table_past_the_limit(self, monkeypatch):
        # GF(2**106) has a subgroup of prime order 28059810762433: about 5.3 M baby
        # entries of 106 digits.  Set-up and unmap still run; the first log in it is
        # refused, and the trivial group of x - 1 needs no table
        self.forbid_logs(monkeypatch)
        tables = build_tables(RingParams.create(107, 2))
        assert unmap_function(tables, (1,) * 107) == (0,) * 107
        refusal = r"GF\(2\^106\).* order 28059810762433,"
        for word in [(1,) + (0,) * 106, (0, 1) + (0,) * 105]:
            with pytest.raises(EnvelopeExceededError, match=refusal):
                map_necklace(tables, word)


class TestPeriodCertificate:
    @pytest.mark.parametrize(
        "p,t,untried", [(2, 1, []), (3, 1, [23, 25, 29]), (2, 2, [19, 23, 25, 27, 29])]
    )
    def test_matches_trial_division(self, p, t, untried):
        # every monic divisor P of x**R - 1, R <= 30, as a product of a subset of its
        # factors: a period field accepts P iff P is irreducible and x has order R
        # mod P.  Trial division would try more than 3**9 candidates of one degree
        # only at P = Phi_R for the `untried` R, which are left out
        field, skipped = build_field(p, t), []
        for R in range(1, 31):
            if R % p == 0:
                continue
            factors = decomposition.factor_xn_minus_1(R, field)
            for mask in range(1, 1 << len(factors)):
                chosen = [f for i, f in enumerate(factors) if mask >> i & 1]
                P = (field.one,)
                for f in chosen:
                    P = polys.mul(field, P, f)
                if field.order ** min(polys.degree(P) // 2, *map(polys.degree, chosen)) > 3**9:
                    skipped.append(R)
                    continue
                order = next(e for e in range(1, R + 1) if not polys.mod(field, xn_minus_1(field, e), P))
                try:
                    ExtensionField(field, P, period=R)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == (is_irreducible_by_trial(field, P) and order == R), (R, P)
        assert skipped == untried

    @pytest.mark.parametrize("p,max_degree,factors", [(2, 6, 10), (3, 4, 19)])
    def test_every_monic_modulus(self, p, max_degree, factors):
        # every monic P of degree 1..max_degree and every R <= 30 prime to p, divisors of
        # x**R - 1 or not: a period field accepts P iff P | x**R - 1, P is irreducible by
        # trial and x has order R mod P; so it accepts each of the phi(R) / ord_R(p)
        # factors of Phi_R whose degree ord_R(p) is at most max_degree, and nothing else
        field, accepted = PrimeField(p), 0
        monics = [(*(i // p**u % p for u in range(d)), 1)
                  for d in range(1, max_degree + 1) for i in range(p**d)]
        for P in monics:
            irreducible = is_irreducible_by_trial(field, P)
            divides = {e for e in range(1, 31) if not polys.mod(field, xn_minus_1(field, e), P)}
            for R in range(1, 31):
                if R % p == 0:
                    continue
                expected = irreducible and R in divides and min(divides) == R
                try:
                    ExtensionField(field, P, period=R)
                    found = True
                except ValueError:
                    found = False
                assert found == expected, (P, R)
                accepted += found
        assert accepted == factors

    def test_modulus_must_divide_x_r_minus_1(self):
        # x**4 + x + 1 over F2 has degree ord_5(2) = 4 and no root 1, yet x has order 15
        # mod it, so x**5 != 1 and the period 5 is refused
        with pytest.raises(ValueError, match="powers of x do not close"):
            ExtensionField(PrimeField(2), (1, 1, 0, 0, 1), period=5)

    def test_only_the_gcd_refuses_phi_7_at_period_21(self):
        # Phi_7 = (x**3 + x + 1)(x**3 + x**2 + 1) over F_2 has degree 6 = ord_21(2)
        F2 = PrimeField(2)
        phi_7 = (1,) * 7
        assert polys.gcd(F2, phi_7, xn_minus_1(F2, 3)) == (1,)
        assert polys.gcd(F2, phi_7, xn_minus_1(F2, 7)) == phi_7
        assert not is_irreducible_by_trial(F2, phi_7)
        with pytest.raises(ValueError):
            ExtensionField(F2, phi_7, period=21)


class TestModulusScan:
    @pytest.mark.parametrize(
        "base",
        [PrimeField(p) for p in (2, 3, 5, 7, 11, 13)]
        + [build_field(p, t) for p, t in ((2, 2), (2, 3), (3, 2), (5, 2))],
        ids=repr,
    )
    def test_binomial_skip_keeps_the_first_hit(self, base):
        # the scan from candidate 0, binomials x**t + c included, finds the same modulus
        # as extend_field; every base**min(t, 3) here is at most 25**3
        skipped = 0
        for t in range(1, 9):
            for k in itertools.count():
                digits = tuple(base.from_index(k // base.order**u % base.order) for u in range(t))
                try:
                    first = ExtensionField(base, (*digits, base.one))
                    break
                except ValueError:
                    continue
            assert extend_field(base, t).modulus == first.modulus, t
            skipped += k >= base.order
        assert skipped

    def test_no_binomial_cubic_over_a_large_prime(self, monkeypatch):
        # 3 does not divide 1048582, so every x**3 + c has a root; the scan starts at x**3 + x
        calls = []
        init = ExtensionField.__init__
        monkeypatch.setattr(
            ExtensionField, "__init__", lambda self, base, m: calls.append(m) or init(self, base, m)
        )
        extend_field(PrimeField(1048583), 3)
        assert calls == [(0, 1, 0, 1), (1, 1, 0, 1)]

    @pytest.mark.parametrize(
        "p,t,d,modulus",
        [
            (2, 1, 21, {0: 1, 2: 1}),  # packed
            (3, 1, 13, {0: 1, 1: 2}),  # packed
            (1048583, 1, 2, {0: 1}),  # packed, three bytes a slot
            (2, 2, 11, {0: 2, 1: 1}),  # over the table base GF(4)
            (3, 10, 3, {0: 3, 1: 1}),  # over the table base GF(3**10)
            (2, 21, 4, {0: 1, 1: 1}),  # over the tuple base GF(2**21)
        ],
    )
    def test_canonical_moduli(self, p, t, d, modulus):
        # moduli that Ben-Or proves on the candidate ring's own products: x**d plus the
        # listed terms, coefficients as base indices
        base = build_field(p, t)
        f = extend_field(base, d)
        assert [base.to_index(c) for c in f.modulus] == [modulus.get(u, 0) for u in range(d)] + [1]


def test_extension_requires_monic():
    with pytest.raises(ValueError):
        ExtensionField(PrimeField(5), (1, 2))
    with pytest.raises(ValueError):
        ExtensionField(PrimeField(5), (1, 0, 1))  # reducible over F5


def test_extension_degree_must_be_positive():
    with pytest.raises(ValueError):
        extend_field(PrimeField(2), 0)
