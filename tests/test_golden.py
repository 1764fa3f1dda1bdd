"""Byte-for-byte replay of the golden corpus through the CLI.

Every case in tests/golden/cases.json runs through `cli.main` in-process,
and its exit code and stdout (`--json` or text) must equal the recorded
ones, and so must its stderr where the case exits nonzero.  The
corpus pins the canonical choices (moduli, primitives, generators,
calibration units, element indices), so a refactor that changes any of
them fails here.  See tests/golden/generate.py for how it was made.
"""

import gzip
import json
from pathlib import Path

import pytest

from necklacemap import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _expected(case) -> bytes:
    data = (GOLDEN / case["file"]).read_bytes()
    return gzip.decompress(data) if case["file"].endswith(".gz") else data


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_matches_golden(case, capsys, monkeypatch, tables_for):
    # share the session's table builds; builds are deterministic
    monkeypatch.setattr(
        cli, "build_tables", lambda p: tables_for(p.n, p.q, p.factor_order)
    )
    code = cli.main(list(case["argv"]))
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out.encode() == _expected(case)
    if "stderr" in case:
        assert err == case["stderr"]
