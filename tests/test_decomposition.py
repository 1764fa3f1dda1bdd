import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necklacemap import decomposition, fields, polys
from necklacemap.bijection import map_necklace, unmap_function
from necklacemap.decomposition import (
    SplitTable,
    build_tables,
    crt_combine,
    crt_split,
    cyclotomic_cosets,
    cyclotomic_polynomial,
    factor_xn_minus_1,
    orbit_canonical,
    shift,
)
from necklacemap.dlog import split_support
from necklacemap.errors import InternalError, NotCoprimeError
from necklacemap.fields import (
    ExtensionField,
    PrimeField,
    QuotientFieldCtx,
    TableField,
    build_field,
    xn_minus_1,
)
from necklacemap.numtheory import RingParams, euler_phi, factorize
from reference import (
    element_order,
    factor_by_splitting_field,
    poly_add,
    split_by_division,
    support_by_division,
    x_data_by_tree,
)
from test_fields import golden_instances


class TestCosets:
    def test_three_five(self):
        cosets = cyclotomic_cosets(3, 5)
        assert [c.members for c in cosets] == [(0,), (1, 2)]
        assert [c.rep for c in cosets] == [0, 1]

    def test_single_class(self):
        cosets = cyclotomic_cosets(1, 9)
        assert len(cosets) == 1 and cosets[0].members == (0,)

    def test_seven_two(self):
        cosets = cyclotomic_cosets(7, 2)
        assert [c.members for c in cosets] == [(0,), (1, 2, 4), (3, 5, 6)]

    def test_orbit_is_multiplication_order(self):
        zero, big, small = cyclotomic_cosets(9, 2)
        assert big.orbit == (1, 2, 4, 8, 7, 5)
        assert big.members == tuple(sorted(big.orbit))
        assert small.members == (3, 6)

    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprimeError):
            cyclotomic_cosets(6, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_cosets(0, 2)

    @pytest.mark.parametrize("n,qi", [(3, 5), (7, 2), (9, 2), (5, 4), (12, 5), (15, 2)])
    def test_partition(self, n, qi):
        cosets = cyclotomic_cosets(n, qi)
        seen = [m for c in cosets for m in c.members]
        assert sorted(seen) == list(range(n))
        assert sum(c.size for c in cosets) == n
        for c in cosets:
            assert c.rep == min(c.members)
            assert all(m * qi % n in c.members for m in c.members)


class TestFactorXnMinus1:
    def test_n3_f2(self):
        f2 = build_field(2, 1)
        assert factor_xn_minus_1(3, f2) == [(1, 1), (1, 1, 1)]

    def test_n3_f5(self):
        f5 = build_field(5, 1)
        assert factor_xn_minus_1(3, f5) == [(4, 1), (1, 1, 1)]

    def test_n1(self):
        f7 = build_field(7, 1)
        assert factor_xn_minus_1(1, f7) == [(6, 1)]

    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprimeError):
            factor_xn_minus_1(4, build_field(2, 1))

    def test_root_of_unity_needs_n_to_divide_the_group_order(self):
        # GF(2**4) has 15 units: an element of order 5, and none of order 7
        ext = fields.extend_field(PrimeField(2), 4)
        assert element_order(ext, decomposition._root_of_unity(ext, 5)) == 5
        with pytest.raises(InternalError, match="no root of unity of order n"):
            decomposition._root_of_unity(ext, 7)

    @pytest.mark.parametrize(
        "n,p,t",
        [
            (3, 2, 1),
            (5, 2, 2),
            (7, 3, 1),
            (9, 2, 1),
            (15, 2, 1),
            (8, 3, 2),
            (21, 2, 1),
            (11, 3, 1),
            (64, 3, 1),
            (63, 2, 1),
        ],
    )
    def test_product_and_degrees(self, n, p, t):
        field = build_field(p, t)
        cosets = cyclotomic_cosets(n, field.order)
        factors = factor_xn_minus_1(n, field, cosets)
        assert [polys.degree(f) for f in factors] == [c.size for c in cosets]
        prod = (field.one,)
        for f in factors:
            assert f[-1] == field.one
            prod = polys.mul(field, prod, f)
        xn1 = [field.zero] * (n + 1)
        xn1[0] = field.neg(field.one)
        xn1[n] = field.one
        assert prod == polys.trim(field, xn1)


def splitting_field_instances(qi):
    """Every n <= 40 coprime to qi whose splitting field GF(qi**d) has at most 2**16 elements."""
    return [
        n
        for n in range(1, 41)
        if math.gcd(n, qi) == 1 and qi ** max(c.size for c in cyclotomic_cosets(n, qi)) <= 1 << 16
    ]


class TestWholeCyclotomicFactors:
    @pytest.mark.parametrize("qi", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_matches_splitting_field_oracle(self, qi):
        (f,) = factorize(qi)
        field = build_field(f.p, f.t)
        whole = split = 0
        for n in splitting_field_instances(qi):
            cosets = cyclotomic_cosets(n, qi)
            assert factor_xn_minus_1(n, field, cosets) == factor_by_splitting_field(n, field, cosets), n
            for c in cosets:
                is_whole = c.size == euler_phi(n // math.gcd(n, c.rep))
                whole, split = whole + is_whole, split + (not is_whole)
        assert whole and split

    @pytest.mark.parametrize("n,q", [(17, 3), (13, 2), (5, 6)])
    def test_whole_classes_build_no_splitting_field(self, monkeypatch, n, q):
        def refuse(base, t):
            raise AssertionError(f"splitting field of degree {t} built")

        monkeypatch.setattr(decomposition, "extend_field", refuse)
        for f in RingParams.create(n, q).factors:
            field = build_field(f.p, f.t)
            factors = factor_xn_minus_1(n, field)
            sizes = [c.size for c in cyclotomic_cosets(n, f.value)]
            assert [polys.degree(p) for p in factors] == sizes

    def test_split_classes_still_build_one(self, monkeypatch):
        # over F2 the six residues of order 7 fall into two cosets of size 3
        degrees, extend = [], decomposition.extend_field

        def recording(base, t):
            degrees.append(t)
            return extend(base, t)

        monkeypatch.setattr(decomposition, "extend_field", recording)
        assert factor_xn_minus_1(7, build_field(2, 1)) == [(1, 1), (1, 1, 0, 1), (1, 0, 1, 1)]
        assert degrees == [3]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cyclotomic_products(self, p):
        field, memo = PrimeField(p), {}
        for m in range(1, 61):
            phi = cyclotomic_polynomial(field, m, memo)
            assert phi[-1] == field.one and polys.degree(phi) == euler_phi(m)
            prod = (field.one,)
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = polys.mul(field, prod, memo[d])
            assert prod == (field.neg(field.one),) + (field.zero,) * (m - 1) + (field.one,), m
        # Phi_6 = x**2 - x + 1, Phi_12 = x**4 - x**2 + 1, Phi_30 = x**8 + x**7 - x**5 - x**4 - x**3 + x + 1
        minus = field.neg(field.one)
        assert memo[6] == (1, minus, 1)
        assert memo[12] == (1, 0, minus, 0, 1)
        assert memo[30] == (1, 1, 0, minus, minus, minus, 0, 1, 1)


def split_instances(qi):
    """Every n <= 130 coprime to qi with a split class (a coset smaller than euler_phi of its
    order) whose splitting field GF(qi**d) has at most 2**12 elements."""
    out = []
    for n in range(1, 131):
        if math.gcd(n, qi) == 1:
            cosets = cyclotomic_cosets(n, qi)
            small = qi ** max(c.size for c in cosets) <= 1 << 12
            if small and any(c.size < euler_phi(n // math.gcd(n, c.rep)) for c in cosets):
                out.append(n)
    return out


class TestSplitFactors:
    """A split class's factor is the minimal polynomial of w**rep, solved from its powers."""

    @pytest.mark.parametrize("qi", [2, 3, 4, 5, 7])
    def test_matches_splitting_field_oracle(self, qi):
        (f,) = factorize(qi)
        field = build_field(f.p, f.t)
        ns = split_instances(qi) + [129] * (qi == 2)  # GF(2**14) splits (129, 2)
        for n in ns:
            cosets = cyclotomic_cosets(n, qi)
            assert factor_xn_minus_1(n, field, cosets) == factor_by_splitting_field(n, field, cosets), n
        assert {2: {63}, 3: {91}, 4: {93}}.get(qi, set()) <= set(ns)

    @pytest.mark.parametrize("n", [15, 5])
    def test_tuple_base_matches_oracle(self, monkeypatch, n):
        # past TABLE_LIMIT the base GF(4) keeps tuples, and the solve runs on them
        monkeypatch.setattr(fields, "TABLE_LIMIT", 3)
        field = build_field(2, 2)
        assert isinstance(field, ExtensionField)
        assert factor_xn_minus_1(n, field) == factor_by_splitting_field(n, field)

    def test_perturbed_power_escapes_the_base_field(self):
        # w**9 of order 7 has degree 3 in GF(2**6); b**3 + w lies outside the span of
        # 1, b, b**2, so the three rows left over do not vanish
        field = PrimeField(2)
        ext = fields.extend_field(field, 6)
        w = decomposition._root_of_unity(ext, 63)
        powers = [ext.pow(w, 9 * k) for k in range(4)]
        assert decomposition._minimal_polynomial(field, powers) == (1, 0, 1, 1)  # x**3 + x**2 + 1
        powers[3] = ext.add(powers[3], w)
        with pytest.raises(InternalError, match="escaped the base field"):
            decomposition._minimal_polynomial(field, powers)


class TestLogOfX:
    @pytest.mark.parametrize("qi", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_matches_the_tree(self, qi):
        # set-up reads x's log from x_powers; the log down the tree, as set-up once took
        # it, gives the same x_exponent, generator and log of x_class in every quotient
        (f,) = factorize(qi)
        field = build_field(f.p, f.t)
        compared = set()
        for n in splitting_field_instances(qi):
            cosets = cyclotomic_cosets(n, qi)
            for coset, poly in zip(cosets, factor_xn_minus_1(n, field, cosets)):
                qctx = QuotientFieldCtx(field, poly, n, coset.rep)
                found = (qctx.x_exponent, qctx.generator, qctx.dlog(qctx.x_class))
                assert found == x_data_by_tree(qctx), (n, coset.rep)
                compared.add((qctx.rotation_order > 1, qctx.x_exponent > 1))
        assert {(False, qi > 2), (True, True)} <= compared  # x - 1 has x_exponent qi - 1


class TestSetupCost:
    def test_multiplications_per_build(self, monkeypatch):
        # the whole order-17 class takes Phi_17 with no GF(3**16) splitting
        # field; the quotient's primitive search rejects squares by their norm
        calls = 0
        mul = ExtensionField.mul

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return mul(self, a, b)

        monkeypatch.setattr(ExtensionField, "mul", counted)
        build_tables(RingParams.create(17, 3))
        assert calls <= 1600

    def test_base_products_per_build(self, monkeypatch):
        # squares take half the products, and the dense Phi_17 modulus folds by
        # x**17 = 1 so that a product needs one division row
        counts = {"mul": 0, "sub": 0}
        for name in counts:
            op = getattr(PrimeField, name)

            def counted(self, a, b, name=name, op=op):
                counts[name] += 1
                return op(self, a, b)

            monkeypatch.setattr(PrimeField, name, counted)
        build_tables(RingParams.create(17, 3))
        assert counts["mul"] <= 110_000 and counts["sub"] <= 30_000, counts

    def test_norm_proved_primes_are_not_proved_again(self, monkeypatch):
        # GF(4**5): a candidate whose norm passes has order divisible by 3, so
        # the tree walk's check at the leaf 3, pow(h, 1), makes no product
        calls = 0
        mul = ExtensionField.mul

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return mul(self, a, b)

        monkeypatch.setattr(ExtensionField, "mul", counted)
        build_tables(RingParams.create(33, 4))
        assert calls <= 1579

    def test_subtractions_per_build_of_63_2(self, monkeypatch):
        # a quotient divides nothing by its P: the CRT cofactor is (x**R - 1) / P, read off
        # the walk of x's powers and repeated, so x**63 - 1 is never divided by a factor
        calls = 0
        sub = PrimeField.sub

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return sub(self, a, b)

        monkeypatch.setattr(PrimeField, "sub", counted)
        build_tables(RingParams.create(63, 2))
        assert calls <= 8500

    @pytest.mark.parametrize("n,q", [(63, 2), (91, 3), (255, 2)])
    def test_quotients_divide_nothing_by_their_modulus(self, monkeypatch, n, q):
        # a quotient proves P | x**R - 1 and reads (x**R - 1) / P off one walk of x's
        # powers, and its gcds take x**(R/r) - 1 mod P from that walk: while it is built,
        # no division is by its own P (other quotients' moduli may turn up as remainders)
        building, hits = [], []
        divmod_, init = polys.divmod_, QuotientFieldCtx.__init__

        def recorded(field, a, b):
            if building and tuple(b) == building[-1]:
                hits.append(b)
            return divmod_(field, a, b)

        def built(self, base_field, modulus, *args):
            building.append(tuple(modulus))
            try:
                init(self, base_field, modulus, *args)
            finally:
                building.pop()

        monkeypatch.setattr(polys, "divmod_", recorded)
        monkeypatch.setattr(QuotientFieldCtx, "__init__", built)
        tables = build_tables(RingParams.create(n, q))
        assert sum(len(b.quotients) for b in tables.blocks) > 10
        assert hits == []

    def test_extension_products_per_build_of_63_2(self, monkeypatch):
        # each generator's order follows from its exponent, with no proof of its
        # own, and the split cosets read the n powers of one root of unity
        calls = 0
        mul = ExtensionField.mul

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return mul(self, a, b)

        monkeypatch.setattr(ExtensionField, "mul", counted)
        build_tables(RingParams.create(63, 2))
        assert calls <= 1100

    def test_split_factors_take_no_root_products(self, monkeypatch):
        # each split coset's factor is solved from the powers of w**rep over F2: the
        # products left are the n - 1 powers of w and the root of unity's own search
        calls = 0
        mul = ExtensionField.mul

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return mul(self, a, b)

        monkeypatch.setattr(ExtensionField, "mul", counted)
        factor_xn_minus_1(63, PrimeField(2))
        assert calls <= 100

    def test_extension_products_per_build_of_inverse_ladder(self, monkeypatch):
        # one tree walk proves each primitive and holds its logs' tables, and
        # walks the small prime powers first, so most candidates fail early
        calls = 0
        mul = ExtensionField.mul

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return mul(self, a, b)

        monkeypatch.setattr(ExtensionField, "mul", counted)
        for n, q in [(5, 6), (7, 10), (13, 6), (63, 2), (11, 12), (33, 4), (17, 3)]:
            build_tables(RingParams.create(n, q))
        assert calls <= 4100

    def test_products_skip_zero_terms_of_17_3(self, monkeypatch):
        # a product runs over the nonzero coefficients of one factor only
        calls = 0
        mul = PrimeField.mul

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return mul(self, a, b)

        monkeypatch.setattr(PrimeField, "mul", counted)
        build_tables(RingParams.create(17, 3))
        assert calls <= 70_000

    @pytest.mark.parametrize("n,q,bound", [(17, 3, 850), (101, 2, 9200)])
    def test_kernel_products_per_build(self, monkeypatch, n, q, bound):
        # GF(3**16) and GF(2**100) modulo Phi_17 and Phi_101 are above TABLE_LIMIT: their
        # products and powers run in the packed kernel, which the ExtensionField.mul and
        # PrimeField guards above do not see (measured: 783 and 8731 kernel products)
        calls = 0
        product = ExtensionField._product

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return product(self, a, b)

        monkeypatch.setattr(ExtensionField, "_product", counted)
        build_tables(RingParams.create(n, q))
        assert 0 < calls <= bound

    def test_base_products_per_build_below_the_limit(self, monkeypatch):
        # GF(5**6) modulo Phi_7 of (7,10) keeps the schoolbook loop: squares take
        # half the products, and Phi_7 folds by x**7 = 1 to one division row
        counts = {"mul": 0, "sub": 0}
        for name in counts:
            op = getattr(PrimeField, name)

            def counted(self, a, b, name=name, op=op):
                counts[name] += 1
                return op(self, a, b)

            monkeypatch.setattr(PrimeField, name, counted)
        build_tables(RingParams.create(7, 10))
        assert counts["mul"] <= 1900 and counts["sub"] <= 700, counts

    def test_products_skip_zero_terms_below_the_limit(self, monkeypatch):
        # GF(2**12) modulo Phi_13 of (13,6) keeps the schoolbook loop, which runs
        # over the nonzero coefficients of one factor only
        calls = 0
        mul = PrimeField.mul

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return mul(self, a, b)

        monkeypatch.setattr(PrimeField, "mul", counted)
        build_tables(RingParams.create(13, 6))
        assert calls <= 3600


class TestSetupProofs:
    def test_quotients_prove_by_cyclotomic_order(self, monkeypatch):
        # over the inverse ladder, (17,3) included, set-up inverts no element, and a
        # quotient proves its modulus irreducible by its period, with no Frobenius test
        tests, inversions = [], []
        ben_or, inv = ExtensionField._ben_or, ExtensionField.inv
        monkeypatch.setattr(
            ExtensionField, "inv", lambda self, a: inversions.append(a) or inv(self, a)
        )
        quotients = [
            qctx
            for n, q in [(5, 6), (7, 10), (13, 6), (63, 2), (11, 12), (33, 4), (17, 3)]
            for block in build_tables(RingParams.create(n, q)).blocks
            for qctx in block.quotients
        ]
        monkeypatch.setattr(
            ExtensionField, "_ben_or", lambda self: tests.append(self.modulus) or ben_or(self)
        )
        for qctx in quotients:
            QuotientFieldCtx(qctx.field.base, qctx.field.modulus, qctx.n, qctx.rep)
        assert inversions == [] and tests == []

    def test_tuple_base_inverts_no_one(self, monkeypatch):
        # past TABLE_LIMIT the base GF(4) keeps tuples; a division by a monic
        # modulus and a gcd whose last remainder is monic invert nothing
        monkeypatch.setattr(fields, "TABLE_LIMIT", 3)
        inversions = []
        inv = ExtensionField.inv
        monkeypatch.setattr(
            ExtensionField, "inv", lambda self, a: inversions.append(a == self.one) or inv(self, a)
        )
        tables = build_tables(RingParams.create(15, 4))
        assert isinstance(tables.blocks[0].field, ExtensionField)
        assert inversions and not any(inversions)


def assert_cofactors(tables) -> int:
    """Every quotient's cofactor is (x**n - 1) / P exactly, and cofactor_inv
    inverts it; returns how many cofactors tile with gaps (period < n, degree > 1)."""
    n, gapped = tables.params.n, 0
    for block in tables.blocks:
        for qctx in block.quotients:
            quot, rem = polys.divmod_(block.field, xn_minus_1(block.field, n), qctx.field.modulus)
            assert rem == () and qctx.cofactor == quot
            cofactor = qctx.field.from_poly(qctx.cofactor)
            assert qctx.field.mul(cofactor, qctx.cofactor_inv) == qctx.field.one
            gapped += qctx.rotation_order < n and qctx.field.degree > 1
    return gapped


class TestCofactors:
    @pytest.mark.parametrize("n,q", sorted(set(golden_instances()) | {(9, 2), (21, 4), (255, 2)}))
    def test_cofactor_is_the_quotient_of_x_n_minus_1(self, tables_for, n, q):
        gapped = assert_cofactors(tables_for(n, q))
        if (n, q) in ((63, 2), (33, 4), (21, 4), (255, 2)):
            assert gapped

    def test_tuple_base_zeros_fill_the_gaps(self, monkeypatch):
        # past TABLE_LIMIT the base GF(4) keeps tuples; coset {3, 12} of
        # (15, 4) has period 5 and degree 2, so its cofactor tiles with a gap
        monkeypatch.setattr(fields, "TABLE_LIMIT", 3)
        t = build_tables(RingParams.create(15, 4))
        assert isinstance(t.blocks[0].field, ExtensionField)
        assert assert_cofactors(t)
        word = tuple(range(4)) * 3 + (3, 1, 2)
        assert crt_combine(t, crt_split(t, word)) == word


class TestCrt:
    def test_worked_split(self, tables_for):
        t = tables_for(3, 10)
        residues = crt_split(t, (1, 1, 1))
        assert residues == (((3,), (0, 0)), ((1,), (0, 0)))

    def test_zero_and_one(self, tables_for):
        t = tables_for(3, 10)
        zeros = crt_split(t, (0, 0, 0))
        assert all(r == q.field.zero for grp, blk in zip(zeros, t.blocks) for r, q in zip(grp, blk.quotients))
        ones = crt_split(t, (1, 0, 0))
        assert all(r == q.field.one for grp, blk in zip(ones, t.blocks) for r, q in zip(grp, blk.quotients))

    def test_combine_inverts_worked_split(self, tables_for):
        t = tables_for(3, 10)
        assert crt_combine(t, crt_split(t, (1, 1, 1))) == (1, 1, 1)

    def test_combine_takes_residues_by_class(self, tables_for):
        # any polynomial congruent to r_j mod P_j combines like r_j itself
        t = tables_for(5, 6)
        word = (1, 4, 0, 5, 2)
        lifted = tuple(
            tuple(
                poly_add(b.field, r, polys.mul(b.field, qc.field.modulus, (b.field.one,) * 3))
                for r, qc in zip(group, b.quotients)
            )
            for group, b in zip(crt_split(t, word), t.blocks)
        )
        assert any(len(r) > qc.field.degree for r, qc in zip(lifted[0], t.blocks[0].quotients))
        assert crt_combine(t, lifted) == word

    @pytest.mark.parametrize("n,q", [(3, 10), (5, 6), (4, 3), (5, 4), (3, 8)])
    def test_round_trip_exhaustive(self, tables_for, n, q):
        t = tables_for(n, q)
        for word in product(range(q), repeat=n):
            assert crt_combine(t, crt_split(t, word)) == word

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_sampled_tower(self, tables_for, data):
        # q = 12 exercises a t > 1 factor (4 = 2**2) beside a prime one
        t = tables_for(5, 12)
        word = tuple(data.draw(st.integers(0, 11)) for _ in range(5))
        assert crt_combine(t, crt_split(t, word)) == word

    @pytest.mark.parametrize("n,q", [(5, 6), (63, 2), (33, 4)])
    def test_words_never_reach_polys(self, tables_for, monkeypatch, n, q):
        # after set-up, both CRT directions run on the quotient fields alone
        t = tables_for(n, q)

        def refuse(*args):
            raise AssertionError("a per-word call reached polys")

        for name in ("divmod_", "mod", "mul", "trim"):
            monkeypatch.setattr(polys, name, refuse)
        rng = random.Random(1000 * n + q)
        for _ in range(20):
            word = tuple(rng.randrange(q) for _ in range(n))
            assert crt_combine(t, crt_split(t, word)) == word
            assert unmap_function(t, map_necklace(t, word)) == orbit_canonical(word)

    def test_split_of_shift_scales_by_x_class(self, tables_for):
        t = tables_for(3, 10)
        for word in [(1, 2, 3), (9, 0, 4), (7, 7, 1), (0, 0, 5)]:
            base = crt_split(t, word)
            for k in range(3):
                shifted = crt_split(t, shift(word, k))
                for grp_s, grp_b, blk in zip(shifted, base, t.blocks):
                    for r_s, r_b, qc in zip(grp_s, grp_b, blk.quotients):
                        scale = qc.field.pow(qc.x_class, k)
                        assert r_s == qc.field.mul(scale, r_b)

    def test_word_validation(self, tables_for):
        t = tables_for(3, 10)
        with pytest.raises(ValueError):
            crt_split(t, (1, 1))
        with pytest.raises(ValueError):
            crt_split(t, (1, 1, 10))

    def test_combine_validation(self, tables_for):
        t = tables_for(3, 10)
        residues = crt_split(t, (1, 1, 1))
        with pytest.raises(ValueError):
            crt_combine(t, residues[:1])
        with pytest.raises(ValueError):
            crt_combine(t, (residues[0], residues[1][:1]))


# (n, q) -> per factor (slot bytes, F_p digits per base coefficient), None where it divides
SPLIT_KINDS = {
    (63, 2): [(1, 1)],  # p = 2: entries XOR
    (91, 3): [(1, 1)],  # odd p, 91 * 2 < 256
    (13, 6): [(1, 1), (1, 1)],
    (43, 7): [(2, 1)],  # 43 * 6 = 258
    (11, 12): [(1, 2), (1, 1)],  # table base GF(4)
    (33, 4): [(1, 2)],
    (5, 59049): [None],  # table base GF(3**10): q_i > 256
    (5, 2097152): [None],  # tuple base GF(2**21)
    (7, 1048583): [None],  # p > 2**20
}


class TestPackedSplit:
    @pytest.mark.parametrize("n,q", [(5, 6), (5, 4), (9, 2), (3, 10), (7, 4)])
    def test_every_word_matches_division(self, tables_for, n, q):
        t = tables_for(n, q)
        for word in product(range(q), repeat=n):
            assert crt_split(t, word) == split_by_division(t, word), word
            assert split_support(t, word) == support_by_division(t, word), word

    @pytest.mark.parametrize("n,q", list(SPLIT_KINDS))
    def test_seeded_words_match_division(self, tables_for, n, q):
        t = tables_for(n, q)
        kinds = [b.split.rows and (b.split.w, b.split.t) for b in t.blocks]
        assert kinds == SPLIT_KINDS[(n, q)]
        rng = random.Random(100 * n + q)
        words = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(25)]
        for word in words + [(0,) * n, (q - 1,) * n, (1,) + (0,) * (n - 1)]:
            assert crt_split(t, word) == split_by_division(t, word), word
            assert split_support(t, word) == support_by_division(t, word), word

    def test_tables_take_no_field_products(self, tables_for, monkeypatch):
        # the rows come from the quotients' x_powers by int arithmetic alone
        built = {key: tables_for(*key) for key in SPLIT_KINDS}

        def refuse(*args):
            raise AssertionError("a split table took a field product")

        for owner, name in [(PrimeField, "mul"), (PrimeField, "sub"), (ExtensionField, "mul"),
                            (TableField, "mul")]:
            monkeypatch.setattr(owner, name, refuse)
        for (n, _), t in built.items():
            for block in t.blocks:
                assert SplitTable(block.field, block.quotients, n).rows == block.split.rows

    def test_rows_stay_inside_their_byte_budget(self, tables_for):
        # q_i * n**2 * t * w bytes: (255, 2) holds 130 050, while (255, 256), whose GF(256)
        # rows would take 133 MB, and (45, 256), 4.1 MB, divide
        for (n, q), rows in [((255, 2), 2 * 255 * 255), ((45, 256), None), ((255, 256), None)]:
            t = tables_for(n, q)
            split = t.blocks[0].split
            assert split.rows is None if rows is None else split.qi * n * split.size == rows
            word = tuple(random.Random(n).randrange(q) for _ in range(n))
            assert crt_split(t, word) == split_by_division(t, word)
            assert split_support(t, word) == support_by_division(t, word)
        table = tables_for(21, 256).blocks[0].split  # 256 * 21**2 * 8 = 903 168 bytes
        assert sum(map(len, table.rows)) == 256 * 21 and table.size == 21 * 8

    def test_no_table_inside_the_budget_needs_a_wider_slot(self):
        # a slot past two bytes needs max(n, 2) * (p - 1) >= 2**16; for every odd p**t <= 256
        # the least such n puts the rows, q_i * n**2 * t * 2 bytes, past SPLIT_TABLE_BYTES
        powers = [f for qi in range(3, 257) for f in factorize(qi) if f.value == qi and f.p > 2]
        assert len(powers) == 62  # 53 odd primes and 9 higher powers
        for f in powers:
            n = -(-(1 << 16) // (f.p - 1))
            assert f.value * n * n * f.t * 2 > decomposition.SPLIT_TABLE_BYTES, f
            table = SplitTable(build_field(f.p, f.t), (), n)
            assert (table.w, table.rows) == (2, None), f


class TestCheckWord:
    def test_ints_in_range_come_back_as_the_tuple(self, tables_for):
        t = tables_for(3, 10)
        word = (0, 9, 4)
        assert t.check_word(word) is word
        assert t.check_word([0, 9, 4]) == word

    @pytest.mark.parametrize("entries,message", [
        ((1.5, 0, 0), "word color 1.5 is not an integer"),
        ((0, -1, 0), "color -1 outside [0, 10)"),
        ((0, 0, 10), "color 10 outside [0, 10)"),
        ((12, 0, 2.5), "color 12 outside [0, 10)"),  # the first offending entry is named
        ((0, 2.5, 12), "word color 2.5 is not an integer"),
    ])
    def test_messages_name_the_first_offending_entry(self, tables_for, entries, message):
        with pytest.raises(ValueError) as excinfo:
            tables_for(3, 10).check_word(entries)
        assert str(excinfo.value) == message

    def test_bools_and_int_subclasses_read_as_ints(self, tables_for):
        class Color(int):
            pass

        checked = tables_for(3, 10).check_word((True, Color(7), False))
        assert checked == (1, 7, 0) and all(type(c) is int for c in checked)


class TestShift:
    def test_basic(self):
        assert shift((1, 0, 0), 1) == (0, 1, 0)

    def test_rotation_invariant_word(self):
        for k in range(3):
            assert shift((1, 1, 1), k) == (1, 1, 1)

    def test_group_law(self):
        w = (0, 1, 2, 3, 4)
        for a in range(5):
            for b in range(5):
                assert shift(shift(w, a), b) == shift(w, (a + b) % 5)
        # the slice form agrees with the per-index definition, and lists
        # come back as tuples
        for k in range(-10, 11):
            assert shift(w, k) == tuple(w[(v - k) % 5] for v in range(5))
            assert shift(list(w), k) == shift(w, k)
            assert type(shift(list(w), k)) is tuple


class TestOrbitCanonical:
    @pytest.mark.parametrize(
        "word,expected",
        [((0, 1, 0), (0, 0, 1)), ((1, 1, 1), (1, 1, 1)), ((2, 0, 1), (0, 1, 2))],
    )
    def test_examples(self, word, expected):
        assert orbit_canonical(word) == expected

    @pytest.mark.parametrize("n,q", [(5, 4), (9, 2)])
    def test_every_word_is_the_least_shift(self, n, q):
        for word in product(range(q), repeat=n):
            assert orbit_canonical(word) == min(shift(word, k) for k in range(n)), word

    def test_is_minimum_of_all_rotations(self):
        word = (3, 1, 4, 1, 5)
        rotations = [shift(word, k) for k in range(5)]
        assert orbit_canonical(word) == min(rotations)
        for r in rotations:
            assert orbit_canonical(r) == orbit_canonical(word)
