"""verify_bijection under five fixed faults, each injected by patching one name in oracle.

Every fault is pinned on (3,2), (5,4) and (3,10): which of the map-side checks fail,
and the first counterexample each names.  The rotation law (shift_lemma_ok) is left
out; its own tests judge it.  With a, b the necklaces at a third and two thirds of
the enumeration:

- shared image: b maps to a's image;
- stray image: a maps to 0,...,0,1, whose weighted sum is n - 1, not 0;
- wrong unmap: a's image unmaps to b;
- moved offset: the first fully supported necklace with an offset (its log mod
  x_exponent) that can move by one inside its quotient's x_exponent has its log
  moved by one; (3,2) has none, and its log moved past group_order makes the map
  raise;
- missing stratum: stratum_keys leaves out its last key.
"""

from dataclasses import replace

import pytest

from necklacemap import dlog, oracle
from necklacemap.bijection import map_necklace
from necklacemap.errors import RangeViolationError
from necklacemap.oracle import enum_necklaces, verify_bijection

MAP_SIDE = ("total", "injective", "surjective", "inverse_ok", "stratum_ok")
PAIRS = [(3, 2), (5, 4), (3, 10)]
FAULTS = ["shared image", "stray image", "wrong unmap", "moved offset", "missing stratum"]


def _third_and_two_thirds(n, q):
    necklaces = enum_necklaces(n, q)
    return necklaces[len(necklaces) // 3], necklaces[2 * len(necklaces) // 3]


def _moved_offset(tables, n, q):
    """(necklace, (i, j)) of the first offset that moves by one inside x_exponent, or the
    first fully supported necklace and its first quotient where none can."""
    full = oracle._full_support(tables)
    supported = [(w, prof) for w in enum_necklaces(n, q)
                 if (prof := dlog.profile(tables, w)).support == full]
    for w, prof in supported:
        for (i, j), log in prof.logs.items():
            x_exponent = tables.blocks[i].quotients[j].x_exponent
            if log % x_exponent + 1 < x_exponent:
                return w, (i, j)
    return supported[0][0], (0, 0)


def install(fault, tables, monkeypatch):
    n, q = tables.params.n, tables.params.q
    a, b = _third_and_two_thirds(n, q)
    genuine_map, genuine_unmap = oracle.map_profiled, oracle.unmap_function
    if fault == "shared image":
        image = map_necklace(tables, a)
        monkeypatch.setattr(oracle, "map_profiled",
                            lambda t, w, p: image if w == b else genuine_map(t, w, p))
    elif fault == "stray image":
        stray = (0,) * (n - 1) + (1,)
        monkeypatch.setattr(oracle, "map_profiled",
                            lambda t, w, p: stray if w == a else genuine_map(t, w, p))
    elif fault == "wrong unmap":
        image = map_necklace(tables, a)
        monkeypatch.setattr(oracle, "unmap_function",
                            lambda t, v: b if v == image else genuine_unmap(t, v))
    elif fault == "moved offset":
        target, (i, j) = _moved_offset(tables, n, q)
        genuine_profile = oracle.profile

        def moved(tables_arg, word):
            prof = genuine_profile(tables_arg, word)
            if tuple(word) != target:
                return prof
            return replace(prof, logs={**prof.logs, (i, j): prof.logs[i, j] + 1})

        monkeypatch.setattr(oracle, "profile", moved)
    else:
        genuine_keys = oracle.stratum_keys
        monkeypatch.setattr(oracle, "stratum_keys", lambda t: list(genuine_keys(t))[:-1])


# the parent's outcome of each fault, check by check
EXPECTED = {
    ("shared image", (3, 2)): {
        "injective": "necklaces 0,0,1 and 0,1,1 both map to 0,0,0",
        "surjective": "no necklace maps to 1,0,0",
        "inverse_ok": "necklace 0,1,1 maps to 0,0,0, which unmaps to 0,0,1",
    },
    ("shared image", (5, 4)): {
        "injective": "necklaces 0,1,2,0,2 and 0,3,1,3,3 both map to 0,2,3,0,3",
        "surjective": "no necklace maps to 1,3,1,2,1",
        "inverse_ok": "necklace 0,3,1,3,3 maps to 0,2,3,0,3, which unmaps to 0,1,2,0,2",
    },
    ("shared image", (3, 10)): {
        "injective": "necklaces 1,3,7 and 3,3,8 both map to 0,1,7",
        "surjective": "no necklace maps to 5,8,8",
        "inverse_ok": "necklace 3,3,8 maps to 0,1,7, which unmaps to 1,3,7",
    },
    ("stray image", (3, 2)): {
        "total": "necklace 0,0,1 maps to 0,0,1, not a function",
        "surjective": "no necklace maps to 0,0,0",
        "inverse_ok": "necklace 0,0,1 maps to 0,0,1, not a function",
    },
    ("stray image", (5, 4)): {
        "total": "necklace 0,1,2,0,2 maps to 0,0,0,0,1, not a function",
        "surjective": "no necklace maps to 0,2,3,0,3",
        "inverse_ok": "necklace 0,1,2,0,2 maps to 0,0,0,0,1, not a function",
    },
    ("stray image", (3, 10)): {
        "total": "necklace 1,3,7 maps to 0,0,1, not a function",
        "surjective": "no necklace maps to 0,1,7",
        "inverse_ok": "necklace 1,3,7 maps to 0,0,1, not a function",
    },
    ("wrong unmap", (3, 2)): {
        "inverse_ok": "necklace 0,0,1 maps to 0,0,0, which unmaps to 0,1,1",
    },
    ("wrong unmap", (5, 4)): {
        "inverse_ok": "necklace 0,1,2,0,2 maps to 0,2,3,0,3, which unmaps to 0,3,1,3,3",
    },
    ("wrong unmap", (3, 10)): {
        "inverse_ok": "necklace 1,3,7 maps to 0,1,7, which unmaps to 3,3,8",
    },
    ("moved offset", (3, 2)): RangeViolationError,
    ("moved offset", (5, 4)): {
        "injective": "necklaces 0,0,0,0,1 and 2,3,3,3,3 both map to 1,0,0,0,0",
        "surjective": "no necklace maps to 0,0,0,0,0",
        "inverse_ok": "necklace 0,0,0,0,1 maps to 1,0,0,0,0, which unmaps to 2,3,3,3,3",
    },
    ("moved offset", (3, 10)): {
        "injective": "necklaces 0,0,1 and 2,2,3 both map to 2,0,0",
        "surjective": "no necklace maps to 0,0,0",
        "inverse_ok": "necklace 0,0,1 maps to 2,0,0, which unmaps to 2,2,3",
    },
    ("missing stratum", (3, 2)): {
        "stratum_ok": "the strata's formulas sum to 3 for 4 necklaces and 4 functions",
    },
    ("missing stratum", (5, 4)): {
        "stratum_ok": "the strata's formulas sum to 73 for 208 necklaces and 208 functions",
    },
    ("missing stratum", (3, 10)): {
        "stratum_ok": "the strata's formulas sum to 244 for 340 necklaces and 340 functions",
    },
}


@pytest.mark.parametrize("n,q", PAIRS)
@pytest.mark.parametrize("fault", FAULTS)
def test_fault_is_named(tables_for, monkeypatch, fault, n, q):
    install(fault, tables_for(n, q), monkeypatch)
    expected = EXPECTED[fault, (n, q)]
    if expected is RangeViolationError:
        with pytest.raises(RangeViolationError):
            verify_bijection(n, q)
        return
    report = verify_bijection(n, q)
    assert {c: report.flags[c] for c in MAP_SIDE} == {c: c not in expected for c in MAP_SIDE}
    assert {c: t for c, t in report.counterexamples.items() if c in MAP_SIDE} == expected
