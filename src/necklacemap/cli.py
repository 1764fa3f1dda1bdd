"""Command-line front door.

Subcommands: cosets, factors, map, unmap, count, verify, zero-sum-count.
Global flags --json and --factor-order work before or after the
subcommand.  Necklaces and functions travel as comma-separated decimal
colors, index 0 first.  Exit codes: 0 success, 1 domain errors, a failed
certification or exhausted memory, 2 argument errors, 3 broken internal
invariants; each error type in errors.py carries its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NamedTuple

from .bijection import map_necklace, unmap_function, weighted_sum
from .counting import (
    binary_zero_sum_count,
    necklace_count,
    stratum_count,
    stratum_keys,
    support_text,
)
from .decomposition import CosetTable, build_tables
from .errors import NecklaceMapError
from .numtheory import RingParams
from .oracle import DEFAULT_ENVELOPE, verify_bijection


@functools.cache  # one per process: parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="necklacemap",
        description=(
            "Explicit correspondence between q-colored necklaces of length n "
            "(gcd(n, q) = 1) and functions on Z_n with zero weighted sum."
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--factor-order",
        choices=("asc", "desc"),
        default="desc",
        help="ordering of the prime-power factors of q (default: desc)",
    )

    # same flags accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS
    )
    common.add_argument(
        "--factor-order",
        choices=("asc", "desc"),
        default=argparse.SUPPRESS,
        help=argparse.SUPPRESS,
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, with_q: bool = True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("n", type=int, help="necklace length")
        if with_q:
            p.add_argument("q", type=int, help="number of colors")
        return p

    add("cosets", "multiplication-by-q_i orbits on Z_n, per prime-power factor")
    add("factors", "irreducible factors of x^n - 1 over each F_{q_i}")

    p_map = add("map", "necklace word -> zero-weighted-sum function")
    p_map.add_argument("colors", help="comma-separated colors, e.g. 1,1,1")

    p_unmap = add("unmap", "zero-weighted-sum function -> canonical necklace word")
    p_unmap.add_argument("values", help="comma-separated values, e.g. 6,9,9")

    p_count = add("count", "closed-form necklace count, optionally per stratum")
    p_count.add_argument("--strata", action="store_true", help="include stratum counts")

    p_verify = add("verify", "exhaustively certify the correspondence for (n, q)")
    p_verify.add_argument(
        "--envelope",
        type=int,
        default=DEFAULT_ENVELOPE,
        help=f"refuse enumeration beyond n*q^n of this size (default {DEFAULT_ENVELOPE})",
    )

    add("zero-sum-count", "number of zero-sum subsets of Z_n (odd n)", with_q=False)
    return parser


def _parse_colors(text: str, n: int) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse {text!r} as comma-separated integers")
    if len(values) != n:
        raise ValueError(f"expected {n} comma-separated entries, got {len(values)}")
    return values


def _decimal(value: int) -> str:
    """Decimal digits of a count of any size.

    str() refuses ints past the interpreter's int-to-str digit limit (4300
    by default, 640 at the lowest); below 2000 bits it is used as is, above
    that the value is split at a power of ten into two halves that recurse.
    """
    if value.bit_length() < 2000:
        return str(value)
    k = value.bit_length() * 3 // 20  # about half of the decimal digits
    high, low = divmod(value, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _poly_str(coeffs, field) -> str:
    """Human form of a factor polynomial, coefficients as element indices."""
    terms = []
    for u in range(len(coeffs) - 1, -1, -1):
        c = field.to_index(coeffs[u])
        if c == 0:
            continue
        if u == 0:
            terms.append(str(c))
        else:
            x_part = "x" if u == 1 else f"x^{u}"
            terms.append(x_part if c == 1 else f"{c}{x_part}")
    return " + ".join(terms) if terms else "0"


class Outcome(NamedTuple):
    """What one subcommand computed; `main` prints it and exits with `code`.

    `result` is the JSON payload's "result", `lines` the text output, and
    `tables` (if any) supplies the generators of the JSON config.  `note`
    goes to stderr after the output.
    """

    result: object
    lines: list[str]
    tables: CosetTable | None = None
    code: int = 0
    note: str | None = None


def _run_cosets(args, params: RingParams) -> Outcome:
    tables = build_tables(params)
    result = []
    lines = []
    for i, block in enumerate(tables.blocks):
        f = block.factor
        lines.append(f"factor {i + 1}: q_{i + 1} = {f.value} (p={f.p}, t={f.t})")
        entry = {"i": i + 1, "q_i": f.value, "cosets": []}
        for j, coset in enumerate(block.cosets):
            members = "{" + ",".join(str(m) for m in coset.members) + "}"
            lines.append(
                f"  S[{i + 1},{j + 1}]: rep={coset.rep} size={coset.size} members={members}"
            )
            entry["cosets"].append(
                {
                    "j": j + 1,
                    "rep": coset.rep,
                    "size": coset.size,
                    "members": list(coset.members),
                    "orbit": list(coset.orbit),
                }
            )
        result.append(entry)
    return Outcome(result, lines, tables)


def _run_factors(args, params: RingParams) -> Outcome:
    tables = build_tables(params)
    result = []
    lines = []
    for i, block in enumerate(tables.blocks):
        lines.append(f"factor {i + 1}: q_{i + 1} = {block.factor.value}")
        entry = {"i": i + 1, "q_i": block.factor.value, "polys": []}
        for j, coeffs in enumerate(qctx.field.modulus for qctx in block.quotients):
            lines.append(f"  P[{i + 1},{j + 1}] = {_poly_str(coeffs, block.field)}")
            entry["polys"].append(
                {"j": j + 1, "coeffs": [block.field.to_index(c) for c in coeffs]}
            )
        result.append(entry)
    return Outcome(result, lines, tables)


def _run_map(args, params: RingParams) -> Outcome:
    word = _parse_colors(args.colors, args.n)
    tables = build_tables(params)
    image = map_necklace(tables, word)
    result = {
        "necklace": list(word),
        "function": list(image),
        "weighted_sum": weighted_sum(args.n, image),
    }
    return Outcome(result, [_csv(image)], tables)


def _run_unmap(args, params: RingParams) -> Outcome:
    values = _parse_colors(args.values, args.n)
    tables = build_tables(params)
    word = unmap_function(tables, values)
    return Outcome({"function": list(values), "necklace": list(word)}, [_csv(word)], tables)


def _run_count(args, params: RingParams) -> Outcome:
    total = _decimal(necklace_count(args.n, args.q))
    lines = [f"necklaces({args.n},{args.q}) = {total}"]
    result: dict = {"necklaces": total}
    if not args.strata:
        return Outcome(result, lines)
    tables = build_tables(params)
    result["strata"] = []
    lines.append("strata:")
    for key in stratum_keys(tables):
        size = _decimal(stratum_count(tables, key))
        lines.append(f"  {support_text(key)}: {size}")
        result["strata"].append(
            {"support": [[j + 1 for j in idxs] for idxs in key], "count": size}
        )
    return Outcome(result, lines, tables)


def _run_verify(args, params: RingParams) -> Outcome:
    report = verify_bijection(args.n, args.q, args.factor_order, args.envelope)
    lines = [f"{name}: {'ok' if ok else 'FAILED'}" for name, ok in report.flags.items()]
    if report.all_ok:
        lines.append(
            f"bijection certified: {report.necklace_total} <-> {report.function_total}"
        )
    else:
        lines.append(
            f"certification FAILED: {report.necklace_total} necklaces, "
            f"{report.function_total} functions"
        )
    stages = ", ".join(f"{name} {s:.3f}s" for name, s in report.stage_seconds.items())
    notes = [
        f"{name}: first counterexample: {text}"
        for name, text in report.counterexamples.items()
    ]
    notes.append(f"elapsed: {report.elapsed:.3f}s ({stages})")
    return Outcome(
        report.to_payload(),
        lines,
        report.tables,
        0 if report.all_ok else 1,
        "\n".join(notes),
    )


def _run_zero_sum_count(args, params: None) -> Outcome:
    total = _decimal(binary_zero_sum_count(args.n))
    return Outcome({"count": total}, [f"zero-sum subsets of Z_{args.n} = {total}"])


_HANDLERS = {
    "cosets": _run_cosets,
    "factors": _run_factors,
    "map": _run_map,
    "unmap": _run_unmap,
    "count": _run_count,
    "verify": _run_verify,
    "zero-sum-count": _run_zero_sum_count,
}

# stderr prefix per exit status; the status itself comes from the error type
_PREFIXES = {1: "error", 2: "argument error", 3: "internal invariant violated"}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # zero-sum-count takes no q and so has no ring
        params = RingParams.create(args.n, args.q, args.factor_order) if "q" in args else None
        out = _HANDLERS[args.command](args, params)
    except (NecklaceMapError, ValueError) as exc:
        code = getattr(exc, "exit_code", 2)
        print(f"{_PREFIXES[code]}: {exc}", file=sys.stderr)
        return code
    except MemoryError:
        print(f"{_PREFIXES[1]}: ran out of memory", file=sys.stderr)
        return 1
    if args.json:
        config: dict = {"factor_order": args.factor_order}
        if out.tables is not None:
            config["generators"] = [
                {
                    "i": i + 1,
                    "j": j + 1,
                    "generator": qctx.field.to_index(qctx.generator),
                    "x_exponent": qctx.x_exponent,
                }
                for i, block in enumerate(out.tables.blocks)
                for j, qctx in enumerate(block.quotients)
            ]
        payload = {
            "command": args.command,
            "n": args.n,
            "q": params.q if params else None,
            "factors": [
                {"p": f.p, "t": f.t, "q": f.value} for f in (params.factors if params else ())
            ],
            "result": out.result,
            "config": config,
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in out.lines:
            print(line)
    if out.note is not None:
        print(out.note, file=sys.stderr)
    return out.code


def entrypoint() -> None:
    """main, then exit with its code. A reader that closed stdout early gets exit 1 and no
    traceback (stdout then points at devnull, so the exit flush cannot raise again); a run
    started with stdout closed has sys.stdout None, prints nothing and exits with main's code."""
    try:
        code = main(sys.argv[1:])
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
