"""Write the golden corpus: stdout of the CLI on fixed inputs.

Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py

It rewrites `cases.json` (argv, exit code and output file of every case,
plus the exact stderr of every case that exits nonzero) and one file per
case holding the exact stdout bytes: `<name>.json` for `--json` runs,
`<name>.txt` for text runs, or `<name>.json.gz` for outputs above
GZIP_ABOVE bytes (gzip with a zero mtime, so regenerating unchanged
outputs leaves the files unchanged).  `tests/test_golden.py` replays every
case through `cli.main` and compares the bytes.  Regenerate only when an
output is meant to change.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import random
from pathlib import Path

from necklacemap.bijection import weighted_sum
from necklacemap.cli import main

HERE = Path(__file__).resolve().parent

INSTANCES = [
    (3, 10), (5, 4), (9, 2), (5, 6), (7, 10),
    (13, 6), (63, 2), (11, 12), (33, 4), (17, 3),
]
VERIFY_INSTANCES = [(3, 10), (5, 4), (9, 2), (5, 6)]
TEXT_INSTANCES = [(3, 10), (5, 4)]
# one case per error exit status: 1, 1, 2, 3; (4,6) also fails coprimality
# before verify checks its envelope
ERROR_CASES = [
    ("error_map_4_6", ["map", "4", "6", "1,1,1,1"]),
    ("error_verify_4_6", ["verify", "4", "6", "--envelope", "1"]),
    ("error_map_3_10", ["map", "3", "10", "1,1"]),
    ("error_map_4_5", ["map", "4", "5", "1,0,0,0"]),
]
WORDS_PER_INSTANCE = 3
GZIP_ABOVE = 1 << 16


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _zero_sum_function(rng: random.Random, n: int, q: int) -> tuple[int, ...]:
    while True:
        f = tuple(rng.randrange(q) for _ in range(n))
        if weighted_sum(n, f) == 0:
            return f


def cases() -> list[tuple[str, list[str]]]:
    rng = random.Random(20261018)
    out = []
    for n, q in INSTANCES:
        tag = f"{n}_{q}"
        out.append((f"cosets_{tag}", ["--json", "cosets", str(n), str(q)]))
        out.append((f"factors_{tag}", ["--json", "factors", str(n), str(q)]))
        out.append((f"count_strata_{tag}", ["--json", "count", str(n), str(q), "--strata"]))
        for k in range(WORDS_PER_INSTANCE):
            word = tuple(rng.randrange(q) for _ in range(n))
            out.append((f"map_{tag}_{k}", ["--json", "map", str(n), str(q), _csv(word)]))
        for k in range(WORDS_PER_INSTANCE):
            f = _zero_sum_function(rng, n, q)
            out.append((f"unmap_{tag}_{k}", ["--json", "unmap", str(n), str(q), _csv(f)]))
    for n, q in VERIFY_INSTANCES:
        out.append((f"verify_{n}_{q}", ["--json", "verify", str(n), str(q)]))

    rng = random.Random(20261019)
    for n, q in TEXT_INSTANCES:
        tag, nq = f"{n}_{q}", [str(n), str(q)]
        word = _csv(rng.randrange(q) for _ in range(n))
        f = _csv(_zero_sum_function(rng, n, q))
        out.append((f"text_cosets_{tag}", ["cosets", *nq]))
        out.append((f"text_factors_{tag}", ["factors", *nq]))
        out.append((f"text_count_{tag}", ["count", *nq]))
        out.append((f"text_count_strata_{tag}", ["count", *nq, "--strata"]))
        out.append((f"text_map_{tag}", ["map", *nq, word]))
        out.append((f"text_unmap_{tag}", ["unmap", *nq, f]))
        out.append((f"text_verify_{tag}", ["verify", *nq]))
        out.append((f"text_zero_sum_count_{n}", ["zero-sum-count", str(n)]))
    out.append(("text_cosets_1_1", ["cosets", "1", "1"]))
    out.append(("text_count_strata_1_1", ["count", "1", "1", "--strata"]))
    word = _csv(rng.randrange(10) for _ in range(3))
    f = _csv(_zero_sum_function(rng, 3, 10))
    asc = ["--json", "--factor-order", "asc"]
    out.append(("asc_cosets_3_10", [*asc, "cosets", "3", "10"]))
    out.append(("asc_map_3_10", [*asc, "map", "3", "10", word]))
    out.append(("asc_unmap_3_10", [*asc, "unmap", "3", "10", f]))
    out.append(("count_5_6", ["--json", "count", "5", "6"]))
    out.append(("zero_sum_count_9", ["--json", "zero-sum-count", "9"]))
    out.extend(ERROR_CASES)
    return out


def generate() -> None:
    manifest = []
    for name, argv in cases():
        code, stdout, stderr = run_cli(argv)
        data = stdout.encode()
        if len(data) > GZIP_ABOVE:
            file, data = f"{name}.json.gz", gzip.compress(data, 9, mtime=0)
        else:
            file = f"{name}.json" if "--json" in argv else f"{name}.txt"
        (HERE / file).write_bytes(data)
        entry = {"name": name, "argv": argv, "exit": code, "file": file}
        if code != 0:
            entry["stderr"] = stderr
        manifest.append(entry)
    lines = ",\n".join(json.dumps(entry) for entry in manifest)
    (HERE / "cases.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    generate()
