import gzip
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from necklacemap import cli, counting, errors, oracle
from necklacemap.cli import main
from necklacemap.decomposition import build_tables, crt_combine
from necklacemap.fields import QuotientFieldCtx
from necklacemap.numtheory import RingParams

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasics:
    def test_map_worked_instance(self, capsys):
        code, out, _ = run(capsys, "map", "3", "10", "1,1,1")
        assert code == 0 and out.strip() == "6,9,9"

    def test_unmap_worked_instance(self, capsys):
        code, out, _ = run(capsys, "unmap", "3", "10", "6,9,9")
        assert code == 0 and out.strip() == "1,1,1"

    def test_map_accepts_any_rotation(self, capsys):
        _, out1, _ = run(capsys, "map", "4", "3", "1,0,2,0")
        _, out2, _ = run(capsys, "map", "4", "3", "0,1,0,2")
        assert out1 == out2

    def test_cosets_display(self, capsys):
        code, out, _ = run(capsys, "cosets", "3", "10")
        assert code == 0
        assert "S[1,1]: rep=0 size=1 members={0}" in out
        assert "S[1,2]: rep=1 size=2 members={1,2}" in out
        assert "S[2,2]: rep=1 size=2 members={1,2}" in out

    def test_factors_display(self, capsys):
        code, out, _ = run(capsys, "factors", "3", "10")
        assert code == 0
        assert "P[1,1] = x + 4" in out
        assert "P[1,2] = x^2 + x + 1" in out
        assert "P[2,1] = x + 1" in out

    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", "3", "10")
        assert code == 0 and "necklaces(3,10) = 340" in out

    def test_count_strata(self, capsys):
        code, out, _ = run(capsys, "count", "3", "10", "--strata")
        assert code == 0
        assert "I_1={1} I_2={1}: 4" in out
        assert "I_1={} I_2={}: 1" in out

    def test_zero_sum_count(self, capsys):
        code, out, _ = run(capsys, "zero-sum-count", "5")
        assert code == 0 and "zero-sum subsets of Z_5 = 8" in out

    @pytest.mark.parametrize(
        "argv,prefix",
        [
            (("count", "20001", "2"), "necklaces(20001,2) = "),
            (("zero-sum-count", "20001"), "zero-sum subsets of Z_20001 = "),
        ],
    )
    def test_counts_past_the_int_to_str_digit_limit(self, capsys, argv, prefix):
        # 2-colored necklaces of odd length n and zero-sum subsets of Z_n
        # share the closed form (1/n) * sum over d | n of phi(d) * 2^(n/d)
        n = 20001  # 3 * 59 * 113
        phi = {1: 1, 3: 2, 59: 58, 113: 112, 177: 116, 339: 224, 6667: 6496, 20001: 12992}
        expected = sum(phi_d * 2 ** (n // d) for d, phi_d in phi.items()) // n
        code, out, _ = run(capsys, *argv)
        assert code == 0
        line = out.strip()
        assert line.startswith(prefix)
        digits = line[len(prefix) :]
        assert digits.isdigit() and digits[0] != "0" and len(digits) > 4300
        value = 0
        for start in range(0, len(digits), 1000):
            chunk = digits[start : start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == expected
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0 and digits in json.loads(out)["result"].values()

    def test_verify(self, capsys):
        code, out, err = run(capsys, "verify", "3", "2")
        assert code == 0
        assert "bijection certified: 4 <-> 4" in out
        assert "elapsed" in err

    def test_verify_times_each_check_on_stderr(self, capsys):
        code, out, err = run(capsys, "--json", "verify", "5", "4")
        assert code == 0 and "elapsed" not in out
        s = r"(\d+\.\d{3})s"
        pattern = rf"elapsed: {s} \(map {s}, inverse {s}, rotation law {s}, strata {s}\)\n"
        match = re.fullmatch(pattern, err)
        assert match, err
        elapsed, *stages = map(float, match.groups())
        assert sum(stages) <= elapsed + 0.002  # each printed to the millisecond

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process; no parse leaks into the next call, so each
        # output equals the same command's first call in a fresh process
        prefix, env = TestExitCodes.module_run()
        calls = [("--json", "verify", "3", "10"), ("verify", "3", "10"),
                 ("--factor-order", "asc", "count", "5", "6"), ("--json", "count", "5", "6")]
        in_process = [run(capsys, *argv)[:2] for argv in calls]
        assert cli.build_parser() is cli.build_parser()
        for argv, (code, out) in zip(calls, in_process):
            fresh = subprocess.run(prefix + list(argv), capture_output=True, text=True, env=env,
                                   timeout=60)
            assert (code, out) == (fresh.returncode, fresh.stdout), argv

    def test_failed_verify_reports_and_exits_1(self, capsys, monkeypatch):
        # the image (6, 9, 9) of the necklace (1, 1, 1) unmaps to a wrong word
        real = oracle.unmap_function

        def wrong_once(tables, image):
            word = real(tables, image)
            return (2, 1, 1) if image == (6, 9, 9) else word

        monkeypatch.setattr(oracle, "unmap_function", wrong_once)
        code, out, err = run(capsys, "verify", "3", "10")
        lines = out.splitlines()
        assert code == 1 and "elapsed:" in err
        assert [line for line in lines if "FAILED" in line] == [
            "inverse_ok: FAILED",
            "certification FAILED: 340 necklaces, 340 functions",
        ]
        assert lines[-1] == "certification FAILED: 340 necklaces, 340 functions"
        code, out, err = run(capsys, "--json", "verify", "3", "10")
        result = json.loads(out)["result"]
        assert code == 1 and "elapsed:" in err
        assert result["certified"] is False and result["flags"]["inverse_ok"] is False

    def test_failed_inverse_names_its_necklace_on_stderr(self, capsys, monkeypatch):
        # the image (6, 9, 9) of the necklace (1, 1, 1) unmaps to a wrong word; stdout is
        # the same as for any failed check, stderr names the necklace before the timings
        real = oracle.unmap_function
        monkeypatch.setattr(
            oracle, "unmap_function",
            lambda tables, image: (2, 1, 1) if image == (6, 9, 9) else real(tables, image),
        )
        code, _, err = run(capsys, "verify", "3", "10")
        first, last = err.splitlines()
        assert code == 1 and last.startswith("elapsed: ")
        assert first == (
            "inverse_ok: first counterexample: necklace 1,1,1 maps to 6,9,9, which unmaps to 2,1,1"
        )

    def test_a_stray_image_fails_total_and_exits_1(self, capsys, monkeypatch):
        # the necklace 0,0,1 of (3,2) maps to (2, 0, 0), which is not a function: a report,
        # not an argument error
        real = oracle.map_profiled
        monkeypatch.setattr(
            oracle, "map_profiled",
            lambda tables, word, prof: (2, 0, 0) if word == (0, 0, 1) else real(tables, word, prof),
        )
        code, out, err = run(capsys, "verify", "3", "2")
        assert code == 1 and "total: FAILED" in out.splitlines()
        assert (
            "total: first counterexample: necklace 0,0,1 maps to 2,0,0, not a function"
            in err.splitlines()
        )

    def test_failed_strata_name_their_support_on_stderr(self, capsys, monkeypatch):
        tables = build_tables(RingParams.create(3, 10))
        key = list(counting.stratum_keys(tables))[5]
        real = oracle.stratum_count
        monkeypatch.setattr(
            oracle, "stratum_count",
            lambda tables, support: real(tables, support) + (support == key),
        )
        code, out, err = run(capsys, "--json", "verify", "3", "10")
        first, last = err.splitlines()
        assert code == 1 and last.startswith("elapsed: ")
        rec = next(r for r in json.loads(out)["result"]["strata"]
                   if r["support"] == [[j + 1 for j in idxs] for idxs in key])
        n_side, f_side = rec["necklace_side"], rec["function_side"]
        assert first == (
            f"stratum_ok: first counterexample: support {counting.support_text(key)}: "
            f"formula {int(n_side) + 1}, {n_side} necklaces, {f_side} functions"
        )

    def test_verify_builds_the_tables_once(self, capsys, monkeypatch):
        built = []
        real = QuotientFieldCtx.__init__

        def counting(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(QuotientFieldCtx, "__init__", counting)
        assert run(capsys, "verify", "3", "10")[0] == 0
        # factors 5 and 2, each with the cosets {0} and {1, 2}: 4 quotient fields
        assert len(built) == 4


class TestExitCodes:
    def test_argument_errors_exit_2(self, capsys):
        assert run(capsys, "map", "3", "10", "1,1")[0] == 2
        assert run(capsys, "map", "3", "10", "1,1,x")[0] == 2
        assert run(capsys, "map", "3", "10", "1,1,11")[0] == 2
        assert run(capsys, "nonsense")[0] == 2
        assert run(capsys)[0] == 2

    def test_nonpositive_length_exits_2(self, capsys):
        code, out, err = run(capsys, "cosets", "0", "5")
        assert (code, out) == (2, "") and err.startswith("argument error:")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("map", "17", "3", "1,1"), "expected 17 comma-separated entries, got 2"),
            (("unmap", "33", "4", "1,x"), "could not parse '1,x' as comma-separated integers"),
            # int() reads both as 10 and 1; neither is comma-separated decimal
            (("map", "3", "20", "1_0,0,1"),
             "could not parse '1_0,0,1' as comma-separated integers"),
            (("map", "3", "20", "\u0661,0,1"),
             "could not parse '\u0661,0,1' as comma-separated integers"),
        ],
        ids=["map", "unmap", "underscore", "arabic-indic-digit"],
    )
    def test_malformed_colors_exit_2_before_any_build(self, capsys, monkeypatch, argv, message):
        def no_build(params):
            raise AssertionError("tables built for a malformed word")

        monkeypatch.setattr(cli, "build_tables", no_build)
        assert run(capsys, *argv) == (2, "", f"argument error: {message}\n")

    def test_domain_errors_exit_1(self, capsys):
        assert run(capsys, "map", "4", "2", "1,0,0,0")[0] == 1  # shared factor
        assert run(capsys, "unmap", "3", "10", "0,1,0")[0] == 1  # weighted sum 1
        assert run(capsys, "zero-sum-count", "6")[0] == 1  # even length
        assert run(capsys, "verify", "3", "10", "--envelope", "10")[0] == 1

    @pytest.mark.parametrize("n", ["5001", "20000001"])
    def test_verify_far_past_the_envelope_exits_1_fast(self, capsys, n):
        # q**n has more digits than int-to-str allows (n = 5001) or takes
        # minutes to build (n = 20000001); neither may be needed to refuse
        started = time.perf_counter()
        code, _, err = run(capsys, "verify", n, "10")
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert "exceeds the enumeration envelope" in err

    def test_invariant_violation_exits_3(self, capsys):
        # (4,15) stratum that defeats the diagonal unit search: the failure
        # must surface as an internal error, never get silently absorbed
        tables = build_tables(RingParams.create(4, 15))
        residues = []
        for block in tables.blocks:
            group = []
            for coset, qctx in zip(block.cosets, block.quotients):
                group.append(qctx.field.one if coset.rep == 1 else qctx.field.zero)
            residues.append(tuple(group))
        word = crt_combine(tables, residues)
        code, _, err = run(capsys, "map", "4", "15", ",".join(map(str, word)))
        assert code == 3
        assert "invariant" in err

    @pytest.mark.parametrize("argv", [("count", "--strata", "93", "4"),
                                      ("--json", "count", "--strata", "255", "2")])
    def test_strata_past_the_bound_exit_1_before_any_is_listed(self, capsys, argv):
        # 21 cosets (2**21 strata) and 35 (2**35), past STRATA_LIMIT = 2**18: listing
        # them once exhausted memory
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 2.0
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_strata_at_the_bound_are_listed_as_before(self, capsys, monkeypatch, tables_for):
        # (63, 2) has 13 cosets: with the bound at its 2**13 strata they print the golden
        # bytes, and one stratum below it they are refused
        monkeypatch.setattr(cli, "build_tables", lambda p: tables_for(p.n, p.q))
        golden = gzip.decompress((GOLDEN / "count_strata_63_2.json.gz").read_bytes())
        monkeypatch.setattr(counting, "STRATA_LIMIT", 1 << 13)
        assert run(capsys, "--json", "count", "63", "2", "--strata")[:2] == (0, golden.decode())
        monkeypatch.setattr(counting, "STRATA_LIMIT", (1 << 13) - 1)
        assert run(capsys, "--json", "count", "63", "2", "--strata")[:2] == (1, "")

    # every exception type of the package, with its exit status and prefix
    EXITS = {
        errors.NecklaceMapError: (2, "argument error: "),
        errors.NotCoprimeError: (1, "error: "),
        errors.NotPrimeError: (1, "error: "),
        errors.ZeroElementError: (2, "argument error: "),
        errors.EnvelopeExceededError: (1, "error: "),
        errors.NotInFError: (1, "error: "),
        errors.EvenNError: (1, "error: "),
        errors.InvariantViolationError: (3, "internal invariant violated: "),
        errors.OrderMismatchError: (3, "internal invariant violated: "),
        errors.NoSolutionError: (3, "internal invariant violated: "),
        errors.RangeViolationError: (3, "internal invariant violated: "),
        errors.UniquenessViolationError: (3, "internal invariant violated: "),
        errors.InternalError: (3, "internal invariant violated: "),
        ValueError: (2, "argument error: "),
    }

    def test_every_error_type_is_listed(self):
        defined = {
            obj
            for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
        }
        assert defined | {ValueError} == set(self.EXITS)

    @pytest.mark.parametrize("exc_type", list(EXITS), ids=lambda t: t.__name__)
    def test_exit_code_and_prefix_per_error_type(self, capsys, monkeypatch, exc_type):
        def raising(tables, word):
            raise exc_type("planted")

        monkeypatch.setattr(cli, "map_necklace", raising)
        code, out, err = run(capsys, "map", "3", "10", "1,1,1")
        assert (code, out) == (self.EXITS[exc_type][0], "")
        assert err == self.EXITS[exc_type][1] + "planted\n"

    def test_memory_error_exits_1_with_one_line(self, capsys, monkeypatch):
        def raising(tables, word):
            raise MemoryError

        monkeypatch.setattr(cli, "map_necklace", raising)
        code, out, err = run(capsys, "map", "3", "10", "1,1,1")
        assert (code, out) == (1, "")
        assert err == "error: ran out of memory\n"

    @staticmethod
    def module_run():
        """argv prefix and environment that run this checkout's package with python -m."""
        paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        return [sys.executable, "-m", "necklacemap"], env

    def test_closed_stdout_exits_1_with_nothing_on_stderr(self):
        # about 300 KB of strata, more than a pipe buffer holds, so a print meets the closed pipe
        prefix, env = self.module_run()
        argv = prefix + ["count", "--strata", "63", "2"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"necklaces(63,2) = 146402730743793240\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    def test_stdout_closed_at_start_exits_with_the_commands_code(self):
        # with fd 1 closed before start-up, sys.stdout is None and print writes nothing
        prefix, env = self.module_run()
        done = subprocess.run(
            prefix + ["count", "3", "10"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            preexec_fn=lambda: os.close(1),
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b"")


class TestJson:
    def test_envelope_shape(self, capsys):
        code, out, _ = run(capsys, "--json", "map", "3", "10", "1,1,1")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["command", "n", "q", "factors", "result", "config"]
        assert doc["command"] == "map"
        assert doc["factors"] == [{"p": 5, "t": 1, "q": 5}, {"p": 2, "t": 1, "q": 2}]
        assert doc["result"]["function"] == [6, 9, 9]
        assert doc["config"]["factor_order"] == "desc"
        gens = {(g["i"], g["j"]): g["generator"] for g in doc["config"]["generators"]}
        assert gens[(1, 1)] == 2

    def test_flag_after_subcommand(self, capsys):
        _, out1, _ = run(capsys, "--json", "count", "3", "10")
        _, out2, _ = run(capsys, "count", "3", "10", "--json")
        assert out1 == out2

    def test_counts_are_strings(self, capsys):
        _, out, _ = run(capsys, "--json", "count", "3", "10", "--strata")
        doc = json.loads(out)
        assert doc["result"]["necklaces"] == "340"
        assert all(isinstance(s["count"], str) for s in doc["result"]["strata"])

    def test_zero_sum_json(self, capsys):
        _, out, _ = run(capsys, "--json", "zero-sum-count", "3")
        doc = json.loads(out)
        assert doc["q"] is None and doc["result"]["count"] == "4"

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run(capsys, "map", "5", "4", "1,2,3,0,0")
        _, json_out, _ = run(capsys, "--json", "map", "5", "4", "1,2,3,0,0")
        doc = json.loads(json_out)
        assert text_out.strip() == ",".join(str(v) for v in doc["result"]["function"])


class TestFactorOrder:
    def test_asc_changes_weights_not_validity(self, capsys):
        code_desc, out_desc, _ = run(capsys, "map", "3", "10", "1,1,1")
        code_asc, out_asc, _ = run(capsys, "--factor-order", "asc", "map", "3", "10", "1,1,1")
        assert code_desc == code_asc == 0
        # both images are valid zero-sum functions, but differ in general
        for out in (out_desc, out_asc):
            values = [int(v) for v in out.strip().split(",")]
            assert sum(v * c for v, c in enumerate(values)) % 3 == 0

    def test_asc_round_trip(self, capsys):
        _, out, _ = run(capsys, "--factor-order", "asc", "map", "3", "10", "2,5,0")
        code, back, _ = run(capsys, "unmap", "3", "10", out.strip(), "--factor-order", "asc")
        assert code == 0
        assert back.strip() == "0,2,5"  # canonical rotation of the input


def test_end_to_end_pipe(capsys):
    for word in ["1,1,1", "0,0,1", "7,3,9"]:
        _, image, _ = run(capsys, "map", "3", "10", word)
        code, back, _ = run(capsys, "unmap", "3", "10", image.strip())
        assert code == 0
        colors = tuple(int(c) for c in word.split(","))
        rotations = {tuple(colors[(v - k) % 3] for v in range(3)) for k in range(3)}
        assert tuple(int(c) for c in back.strip().split(",")) == min(rotations)
