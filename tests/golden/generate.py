"""Write the golden corpus: `--json` stdout of the CLI on fixed inputs.

Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py

It rewrites `cases.json` (argv, exit code and output file of every case)
and one file per case holding the exact stdout bytes: `<name>.json`, or
`<name>.json.gz` for outputs above GZIP_ABOVE bytes (gzip with a zero
mtime, so regenerating unchanged outputs leaves the files unchanged).
`tests/test_golden.py` replays every case through `cli.main` and compares
the bytes.  Regenerate only when an output is meant to change.
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
WORDS_PER_INSTANCE = 3
GZIP_ABOVE = 1 << 16


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


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
    return out


def generate() -> None:
    manifest = []
    for name, argv in cases():
        code, stdout = run_cli(argv)
        data = stdout.encode()
        if len(data) > GZIP_ABOVE:
            file, data = f"{name}.json.gz", gzip.compress(data, 9, mtime=0)
        else:
            file = f"{name}.json"
        (HERE / file).write_bytes(data)
        manifest.append({"name": name, "argv": argv, "exit": code, "file": file})
    lines = ",\n".join(json.dumps(entry) for entry in manifest)
    (HERE / "cases.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    generate()
