import math
import random
from itertools import product

import pytest

from necklacemap import fields
from necklacemap.decomposition import build_tables, shift
from necklacemap.dlog import profile, rotate_profile, split_log
from necklacemap.errors import EnvelopeExceededError, ZeroElementError
from necklacemap.fields import ExtensionField, PrimeField, QuotientFieldCtx, discrete_log
from necklacemap.numtheory import RingParams, factorize
from reference import dlog_by_bsgs


def all_quotients(tables):
    return [(i, j, q) for i, b in enumerate(tables.blocks) for j, q in enumerate(b.quotients)]


class TestDlog:
    def test_log_of_one_is_zero(self, tables_for):
        for _, _, qc in all_quotients(tables_for(3, 10)):
            assert qc.dlog(qc.field.one) == 0

    def test_log_of_generator_is_one(self, tables_for):
        for _, _, qc in all_quotients(tables_for(3, 10)):
            if qc.group_order > 1:
                assert qc.dlog(qc.generator) == 1

    def test_worked_value(self, tables_for):
        qc = tables_for(3, 10).blocks[0].quotients[0]
        assert qc.generator == (2,)
        assert qc.dlog((3,)) == 3

    def test_zero_rejected(self, tables_for):
        qc = tables_for(3, 10).blocks[0].quotients[0]
        with pytest.raises(ZeroElementError):
            qc.dlog(qc.field.zero)

    @pytest.mark.parametrize("n,q", [(3, 10), (5, 4), (9, 2), (2, 9), (5, 6)])
    def test_exhaustive_small_groups(self, tables_for, n, q):
        for _, _, qc in all_quotients(tables_for(n, q)):
            acc = qc.field.one
            for k in range(qc.group_order):
                assert qc.dlog(acc) == k
                acc = qc.field.mul(acc, qc.generator)

    def test_exhaustive_bsgs_group(self, tables_for):
        # (13,2) has a quotient of order 4095 = 3^2*5*7*13: every unit is
        # logged through the prime-power split and by whole-group BSGS
        tables = tables_for(13, 2)
        qc = tables.blocks[0].quotients[1]
        assert qc.group_order == 4095
        acc = qc.field.one
        for k in range(qc.group_order):
            assert qc.dlog(acc) == k == dlog_by_bsgs(qc.field, qc.generator, acc, 4095)
            acc = qc.field.mul(acc, qc.generator)


class TestPohligHellman:
    @pytest.mark.parametrize(
        "n,q,order",
        [
            (5, 3, 80),  # GF(81), 2^4 * 5
            (5, 9, 80),  # GF(81) over GF(9)
            (11, 3, 242),  # GF(3^5), 2 * 11^2
            (31, 2, 31),  # GF(2^5), prime order
            (13, 2, 1),  # GF(2) modulo x + 1, the trivial group
        ],
    )
    def test_every_unit_matches_whole_group_bsgs(self, tables_for, n, q, order):
        quotients = [qc for _, _, qc in all_quotients(tables_for(n, q)) if qc.group_order == order]
        assert quotients
        for qc in quotients:
            field = qc.field
            for i in range(1, field.order):
                y = field.from_index(i)
                assert qc.dlog(y) == dlog_by_bsgs(field, qc.generator, y, order)

    def test_trivial_group_rejects_zero(self):
        qc = QuotientFieldCtx(PrimeField(2), (1, 1), n=3, rep=0)
        assert qc.group_order == 1 and qc.dlog(qc.field.one) == 0
        with pytest.raises(ZeroElementError):
            qc.dlog(qc.field.zero)

    def test_seeded_units_of_large_group(self, tables_for):
        # (17,3): one quotient of order 3^16 - 1 = 2^6*5*17*41*193
        qc = tables_for(17, 3).blocks[0].quotients[1]
        assert qc.group_order == 3**16 - 1
        rng = random.Random(9)
        for _ in range(200):
            k = rng.randrange(qc.group_order)
            assert qc.dlog(qc.field.pow(qc.generator, k)) == k

    def test_multiplications_per_log(self, tables_for, monkeypatch):
        # a whole-group BSGS log here averages about 4700 multiplications
        qc = tables_for(17, 3).blocks[0].quotients[1]
        rng = random.Random(20)
        units = [qc.field.from_index(rng.randrange(1, qc.field.order)) for _ in range(20)]
        calls = 0
        mul = ExtensionField.mul

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return mul(self, a, b)

        monkeypatch.setattr(ExtensionField, "mul", counted)
        for y in units:
            qc.dlog(y)
        assert calls / len(units) < 1000

    def test_kernel_products_per_log(self, tables_for, monkeypatch):
        # GF(3**16) packs: a log's giant steps and the tree's powers run in the kernel, which
        # test_multiplications_per_log no longer sees (measured: 85.8 products per log)
        qc = tables_for(17, 3).blocks[0].quotients[1]
        rng = random.Random(20)
        units = [qc.field.from_index(rng.randrange(1, qc.field.order)) for _ in range(20)]
        qc.dlog(units[0])  # the baby tables are filled at the first log
        calls = 0
        product = ExtensionField._product

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return product(self, a, b)

        monkeypatch.setattr(ExtensionField, "_product", counted)
        for y in units:
            qc.dlog(y)
        assert 0 < calls / len(units) < 95


def tree_leaves(node):
    """The leaves of a log tree: (order, h), or (order, babies, giant) once filled."""
    return [node] if len(node) < 5 else tree_leaves(node[3]) + tree_leaves(node[4])


class TestLeafTables:
    @pytest.mark.parametrize("n,q,order", [(5, 6, 81), (7, 10, 5**6)])
    def test_small_leaf_logs_by_one_lookup(self, tables_for, monkeypatch, n, q, order):
        # every leaf here is at most WHOLE_TABLE_ORDER: its table holds its whole subgroup,
        # and after the first log a leaf's log makes no product
        (qc,) = [qc for _, _, qc in all_quotients(tables_for(n, q)) if qc.field.order == order]
        qc.dlog(qc.generator)
        leaves = tree_leaves(qc._log_tree)
        assert all(leaf[0] <= fields.WHOLE_TABLE_ORDER for leaf in leaves)
        field, calls, mul = qc.field, 0, ExtensionField.mul

        def counted(self, a, b):
            nonlocal calls
            calls += 1
            return mul(self, a, b)

        for leaf_order, babies, giant in leaves:
            assert len(babies) == leaf_order and giant == field.one
            h = next(y for y, j in babies.items() if j == 1)
            powers = [field.pow(h, k) for k in range(leaf_order)]
            with monkeypatch.context() as patched:
                patched.setattr(ExtensionField, "mul", counted)
                logs = [discrete_log(field, y, leaf_order, babies, giant) for y in powers]
            assert logs == list(range(leaf_order)) and calls == 0

    def test_refusal_names_the_leaf_of_most_entries(self, monkeypatch):
        # (17,3)'s GF(3**16) has leaves 64, 5, 17, 41 and 193: the leaf of order 64 tables
        # its whole subgroup, 64 entries, and the largest leaf only ceil(sqrt(193)) = 14, so
        # the bound is checked against the widest table, not the largest leaf
        def entries(order):
            return order if order <= fields.WHOLE_TABLE_ORDER else math.isqrt(order - 1) + 1

        qc = build_tables(RingParams.create(17, 3)).blocks[0].quotients[1]
        orders = [leaf[0] for leaf in tree_leaves(qc._tree)]
        assert sorted(orders) == [5, 17, 41, 64, 193]
        widest = max(orders, key=entries)
        assert widest != 193
        monkeypatch.setattr(fields, "BABY_TABLE_DIGITS", entries(widest) * 16 - 1)
        with pytest.raises(EnvelopeExceededError, match=f"order {widest},"):
            qc.dlog(qc.generator)
        monkeypatch.setattr(fields, "BABY_TABLE_DIGITS", entries(widest) * 16)
        assert qc.dlog(qc.generator) == 1

    def test_giant_steps_log_a_whole_group(self, monkeypatch):
        # with no leaf small enough to table whole, GF(81)'s leaves 16 and 5 take giant
        # steps, and every unit's log still matches whole-group BSGS
        monkeypatch.setattr(fields, "WHOLE_TABLE_ORDER", 1)
        qc = build_tables(RingParams.create(5, 3)).blocks[0].quotients[1]
        assert qc.group_order == 80
        leaves = tree_leaves(qc._log_tree)
        assert sorted((order, len(babies)) for order, babies, _ in leaves) == [(5, 3), (16, 4)]
        for i in range(1, qc.field.order):
            y = qc.field.from_index(i)
            assert qc.dlog(y) == dlog_by_bsgs(qc.field, qc.generator, y, 80)


def small_split_groups(tables):
    """(block, index, quotient) for each unit group of at most WHOLE_TABLE_ORDER elements
    with two or more prime factors, whose primitive find_primitive proves at a tree node."""
    return [(i, j, qc) for i, j, qc in all_quotients(tables)
            if qc.group_order <= fields.WHOLE_TABLE_ORDER and len(factorize(qc.group_order)) > 1]


SMALL_SPLIT_PAIRS = [(5, 2), (3, 10), (9, 2), (7, 4)]  # GF(16), GF(25), GF(64), GF(64) twice


class TestWholeGroupLeaf:
    @pytest.mark.parametrize("n,q", SMALL_SPLIT_PAIRS)
    def test_whole_group_logs_by_one_lookup(self, tables_for, monkeypatch, n, q):
        # the log tree is one leaf of the whole group, and after the first log a log makes
        # no product and no power
        quotients = small_split_groups(tables_for(n, q))
        assert quotients
        for _, _, qc in quotients:
            field, order = qc.field, qc.group_order
            assert len(qc._tree) == 2 and qc._tree[0] == order
            assert qc.dlog(qc.generator) == 1
            units = [field.from_index(i) for i in range(1, field.order)]
            calls = []
            with monkeypatch.context() as patched:
                for name in ("mul", "pow"):
                    patched.setattr(ExtensionField, name, lambda *a, name=name: calls.append(name))
                logs = [qc.dlog(y) for y in units]
            assert calls == []
            assert logs == [dlog_by_bsgs(field, qc.generator, y, order) for y in units]

    @pytest.mark.parametrize("n,q", SMALL_SPLIT_PAIRS)
    def test_tree_walk_below_the_whole_table_order(self, tables_for, monkeypatch, n, q):
        # with WHOLE_TABLE_ORDER below every such group, the same quotients log down
        # find_primitive's tree, with CRT joins, and every unit's log and the generator agree
        whole = small_split_groups(tables_for(n, q))
        below = min(qc.group_order for *_, qc in whole) - 1
        monkeypatch.setattr(fields, "WHOLE_TABLE_ORDER", below)
        tables = build_tables(RingParams.create(n, q))
        for i, j, qc in whole:
            walked = tables.blocks[i].quotients[j]
            assert len(walked._tree) == 5 and walked.generator == qc.generator
            for k in range(1, qc.field.order):
                y = qc.field.from_index(k)
                assert walked.dlog(y) == qc.dlog(y)


class TestSplitLog:
    def test_quotient_remainder(self, tables_for):
        t = tables_for(3, 10)
        qc_lin = t.blocks[0].quotients[0]  # x_exponent 4
        assert split_log(qc_lin, 3) == (0, 3)
        assert split_log(qc_lin, 0) == (0, 0)
        qc_quad = t.blocks[0].quotients[1]  # x_exponent 8
        assert split_log(qc_quad, 10) == (1, 2)

    def test_ranges(self, tables_for):
        for _, _, qc in all_quotients(tables_for(5, 4)):
            for log in range(qc.group_order):
                turns, offset = split_log(qc, log)
                assert 0 <= turns < qc.rotation_order
                assert 0 <= offset < qc.x_exponent
                assert turns * qc.x_exponent + offset == log

    def test_out_of_range(self, tables_for):
        qc = tables_for(3, 10).blocks[0].quotients[0]
        with pytest.raises(ValueError):
            split_log(qc, qc.group_order)


class TestProfile:
    def test_worked_support(self, tables_for):
        prof = profile(tables_for(3, 10), (1, 1, 1))
        assert prof.support == ((0,), (0,))
        assert prof.entry(0, 0).turns == 0 and prof.entry(0, 0).offset == 3

    def test_zero_word(self, tables_for):
        prof = profile(tables_for(3, 10), (0, 0, 0))
        assert prof.support == ((), ())
        assert prof.entries == {}

    def test_constant_one_polynomial(self, tables_for):
        t = tables_for(3, 10)
        prof = profile(t, (1, 0, 0))
        assert prof.support == ((0, 1), (0, 1))
        assert all(e.turns == 0 and e.offset == 0 for e in prof.entries.values())


def unit_words(tables):
    """Words whose residues are nonzero in every quotient."""
    n, q = tables.params.n, tables.params.q
    full = tuple(tuple(range(len(b.cosets))) for b in tables.blocks)
    return [w for w in product(range(q), repeat=n) if profile(tables, w).support == full]


@pytest.mark.parametrize("n,q", [(3, 10), (5, 4), (4, 3)])
def test_rotation_law_exhaustive(tables_for, n, q):
    """Rotating by k adds k to every turns value and fixes every offset."""
    tables = tables_for(n, q)
    for word in unit_words(tables):
        base = profile(tables, word)
        for k in range(1, n):
            rotated = profile(tables, shift(word, k))
            assert rotated.support == base.support
            for i, block in enumerate(tables.blocks):
                for j, qc in enumerate(block.quotients):
                    b0, bk = base.entry(i, j), rotated.entry(i, j)
                    assert bk.turns == (k + b0.turns) % qc.rotation_order
                    assert bk.offset == b0.offset


@pytest.mark.parametrize("n,q", [(3, 10), (5, 4), (9, 2)])
def test_rotate_profile_matches_shifted_word(tables_for, n, q):
    """The shift law on every support: partial supports and words whose
    period is shorter than n included, which the verifier does not check."""
    tables = tables_for(n, q)
    profiles = {w: profile(tables, w) for w in product(range(q), repeat=n)}
    for word, prof in profiles.items():
        for k in range(n):
            assert rotate_profile(tables, prof, k) == profiles[shift(word, k)]
