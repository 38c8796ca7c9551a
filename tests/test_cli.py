import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import networkx as nx
import pytest
import threecolor
from threecolor import counting, graphs, suites
from threecolor.cli import main
from threecolor.counting import MAX_FREE_VERTICES
from threecolor.gadgets import MAX_VERTICES

SRC = pathlib.Path(threecolor.__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv, timeout, budget_env=None, module="threecolor.cli"):
    """Run the CLI as `python -m module` in a fresh interpreter, with
    $THREECOLOR_BIT_BUDGET set to `budget_env`, or unset for the default bit budget."""
    env = {k: v for k, v in os.environ.items() if k != "THREECOLOR_BIT_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    if budget_env is not None:
        env["THREECOLOR_BIT_BUDGET"] = budget_env
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


class TestGenerate:
    def test_graph6_line(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--k", "1", "--ell", "1",
                               "--format", "graph6")
        assert code == 0
        line = out.strip()
        G = nx.from_graph6_bytes(line.encode("ascii"))
        assert G.number_of_nodes() == 13 and G.number_of_edges() == 18

    @pytest.mark.parametrize("extra", [(), ("--no-check",)])
    def test_faces_traced_once(self, extra, capsys, monkeypatch):
        # `Graph.from_rotation` walks the faces; the check and --faces read its walks.
        calls = []
        real = graphs._walk_faces

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(graphs, "_walk_faces", counted)
        code, out, _ = run_cli(capsys, "generate", "--k", "3", "--ell", "3",
                               "--faces", *extra)
        assert code == 0
        assert len(calls) == 1
        assert len(json.loads(out)["faces"]) == 27 * 6 + 3 * 26 + 1

    def test_dot_smallest_gadget(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--k", "1", "--ell", "0",
                               "--format", "dot")
        assert code == 0
        for needle in ('label="u"', 'label="v"', 'label="v1"', 'label="v2"'):
            assert needle in out

    def test_json_descriptor(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--k", "2", "--ell", "1",
                               "--format", "json", "--faces")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertex_count"] == 19
        assert (doc["k"], doc["ell"], doc["b"]) == (2, 1, 4)
        assert len(doc["leaf_pairs"]) == 3
        assert "faces" in doc

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--k", "0", "--ell", "1")
        assert code == 2
        assert "k must be >= 1" in err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "gadget.g6"
        code, _, _ = run_cli(capsys, "generate", "--k", "1", "--ell", "1",
                             "--format", "graph6", "-o", str(target))
        assert code == 0
        assert target.read_text().strip()

    @pytest.mark.parametrize("fmt", [("--format", "json", "--faces"),
                                     ("--format", "dot"), ("--format", "graph6")],
                             ids=lambda fmt: fmt[1])
    def test_output_file_holds_the_stdout_bytes(self, fmt, tmp_path, capsys):
        argv = ("generate", "--k", "2", "--ell", "1", *fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.endswith("\n") and not out.endswith("\n\n")
        target = tmp_path / "out"
        assert run_cli(capsys, *argv, "-o", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode("ascii")
        assert run_cli(capsys, *argv, "-o", "-") == (0, out, "")

    @pytest.mark.parametrize("argv, message", [
        (("--k", "21", "--ell", "0"), "T(21,0) has 2097154 vertices"),
        (("--k", "6", "--ell", "10"), "T(6,10) has 3926758 vertices"),
        (("--k", "6", "--ell", "5", "--format", "graph6"),
         "the graph6 line of 16159 vertices would take 21758098 bytes"),
    ], ids=["k21", "ell10", "graph6"])
    def test_oversize_refused_before_any_work(self, argv, message):
        proc = run_cli_process("generate", *argv, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert message in proc.stderr

    @pytest.mark.parametrize("fmt", ["json", "dot", "graph6"])
    def test_faces_only_with_json(self, fmt, capsys):
        code, out, err = run_cli(capsys, "generate", "--k", "2", "--ell", "1",
                                 "--format", fmt, "--faces")
        if fmt == "json":
            assert (code, err) == (0, "") and "faces" in json.loads(out)
        else:
            assert (code, out) == (2, "")
            assert err == f"error: --faces does not apply to --format {fmt}\n"

    def test_graph6_refused_past_the_four_byte_header(self):
        # T(17,1) has 393,223 vertices; graph6 would need its 8-byte header
        proc = run_cli_process("generate", "--k", "17", "--ell", "1",
                               "--format", "graph6", timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "the graph6 line of 393223 vertices" in proc.stderr

    def test_unwritable_output_exit_3(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--k", "1", "--ell", "0",
                               "-o", str(tmp_path / "no" / "such" / "dir" / "f"))
        assert code == 3
        assert "I/O error" in err


class TestCount:
    def test_dp_full(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--ell", "1",
                               "--method", "dp", "--full")
        assert code == 0
        assert "count: 1056" in out

    def test_brute_full(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--ell", "1",
                               "--method", "brute", "--full")
        assert code == 0
        assert "count: 1056" in out

    def test_bit_length_default(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--ell", "1")
        assert code == 0
        assert out.strip() == "bit_length: 11"
        assert "count:" not in out

    def test_brute_negative_ell_names_the_domain(self, capsys):
        code, out, err = run_cli(capsys, "count", "--k", "1", "--ell", "-1",
                                 "--method", "brute")
        assert code == 2
        assert out == "" and err == "error: ell must be >= 0\n"

    def test_brute_cutoff_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "count", "--k", "5", "--ell", "8",
                                 "--method", "brute")
        assert (code, out) == (2, "")
        assert err == f"error: 226354 free vertices exceed the limit of {MAX_FREE_VERTICES}\n"

    @pytest.mark.parametrize("method,option", [
        ("brute", ("--force",)),
        ("brute", ("--cutoff", "5")),
        ("dp", ("--force",)),
        ("dp", ("--cutoff", "0")),
    ], ids=["force", "cutoff", "dp-force", "dp-cutoff"])
    def test_removed_brute_options_are_unrecognized(self, capsys, method, option):
        with pytest.raises(SystemExit) as exit_info:
            main(["count", "--k", "1", "--ell", "1", "--method", method, *option])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    def test_brute_full_count_matches_dp(self, capsys):
        # T(3,0) has 10 vertices; brute counts it with no option to pass a cutoff
        outputs = [run_cli(capsys, "count", "--k", "3", "--ell", "0",
                           "--method", method, "--full") for method in ("brute", "dp")]
        assert outputs[0] == outputs[1] == (0, "bit_length: 9\ncount: 336\n", "")

    def test_help_lists_no_cutoff_options(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["count", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--method" in out and "--force" not in out and "--cutoff" not in out

    def test_fixed_terminals(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--ell", "1",
                               "--fix", "1,1", "--full")
        assert code == 0
        assert "count: 16" in out
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--ell", "1",
                               "--fix", "1,2", "--full", "--method", "brute")
        assert code == 0
        assert "count: 168" in out

    def test_bad_fix_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "--k", "1", "--ell", "1",
                               "--fix", "1,9")
        assert code == 2

    @pytest.mark.parametrize("fix", ["a,b", "1,x", "1", "1,2,3", ""])
    def test_fix_not_two_integers_exit_2(self, capsys, fix):
        code, out, err = run_cli(capsys, "count", "--k", "1", "--ell", "1", "--fix", fix)
        assert (code, out) == (2, "")
        assert err == "error: --fix expects two comma-separated colors, e.g. 1,2\n"

    @pytest.mark.parametrize("budget, error", [
        ("-5", "the bit budget must be >= 0, not -5"),  # refused before the count
        ("0", "the count of T(1,1) may need up to 11 bits, over the budget of 0"),
    ], ids=["-5", "0"])
    def test_nonpositive_bit_budget_flag_exit_2(self, capsys, budget, error):
        code, out, err = run_cli(capsys, "count", "--k", "1", "--ell", "1",
                                 "--bit-budget", budget)
        assert (code, out) == (2, "")
        assert err == f"error: {error}\n"

    def test_negative_bit_budget_env_exit_2(self):
        proc = run_cli_process("count", "--k", "1", "--ell", "1", timeout=10, budget_env="-1")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: the bit budget must be >= 0, not -1\n"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--ell", "1",
                               "--json", "--full")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == {"bit_length": 11, "decimal_string": "1056"}

    def test_json_output_without_full_has_no_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--ell", "1", "--json")
        assert code == 0
        assert '"count": {\n    "bit_length": 11\n  }' in out
        assert json.loads(out)["count"] == {"bit_length": 11}

    def test_dp_and_brute_agree(self, capsys):
        _, dp_out, _ = run_cli(capsys, "count", "--k", "2", "--ell", "1",
                               "--method", "dp", "--full")
        _, brute_out, _ = run_cli(capsys, "count", "--k", "2", "--ell", "1",
                                  "--method", "brute", "--full")
        assert dp_out == brute_out

    def test_forced_brute_matches_dp_past_the_cutoff(self):
        # T(2,3) has 175 vertices and about 2^68 colorings.
        outputs = [run_cli_process("count", "--k", "2", "--ell", "3", "--method", method,
                                   "--full", timeout=30) for method in ("brute", "dp")]
        assert [proc.returncode for proc in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout
        assert "count: 241610832445358211072" in outputs[0].stdout

    @pytest.mark.parametrize("argv,option", [
        (("--method", "brute", "--bit-budget", "100"), "--bit-budget"),
        (("--method", "brute", "--bit-budget", "0"), "--bit-budget"),  # 0 is given, not unset
    ])
    def test_option_of_the_other_method_exit_2(self, capsys, argv, option):
        code, out, err = run_cli(capsys, "count", "--k", "2", "--ell", "2", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {option} does not apply to --method {argv[1]}\n"

    def test_bit_budget_env_checked_for_brute(self):
        proc = run_cli_process("count", "--k", "1", "--ell", "1", "--method", "brute",
                               timeout=10, budget_env="junk")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: invalid THREECOLOR_BIT_BUDGET: 'junk'\n"

    def test_forced_brute_counts_T43(self):
        # T(4,3) has 499 vertices and no terminal fixed; its frontier cells
        # stay under the limit, and the count equals the DP's.
        proc = run_cli_process("count", "--k", "4", "--ell", "3", "--method", "brute",
                               timeout=15)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "bit_length: 133\n", "")

    def test_forced_brute_past_its_state_limit_stops(self):
        proc = run_cli_process("count", "--k", "2", "--ell", "4", "--method", "brute",
                               timeout=15)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: the search of 526 vertices may make more than {counting._MAX_CELLS}"
            " frontier cells\n")

    def test_huge_fan_refused_before_any_work(self):
        proc = run_cli_process("count", "--k", "40", "--ell", "0", timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == "" and "over the budget of 10000000" in proc.stderr

    @pytest.mark.parametrize("argv,free", [
        (("--k", "10", "--ell", "0", "--fix", "1,1"), 1024),
        (("--k", "10", "--ell", "1"), 3079),  # refused before build_T
    ], ids=["fixed-P1024", "unfixed-T(10,1)"])
    def test_brute_past_the_free_vertex_limit_exit_2(self, argv, free):
        proc = run_cli_process("count", "--method", "brute", *argv, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr == (
            f"error: {free} free vertices exceed the limit of {MAX_FREE_VERTICES}\n")

    @pytest.mark.parametrize("argv", [
        ("--k", "15000", "--ell", "0"),  # 2^15000 has over 4300 decimal digits
        ("--k", "1000000000", "--ell", "0"),
        ("--k", "1", "--ell", "1000000000"),
        ("--k", "40", "--ell", "0"),
    ], ids=["k15000", "k1e9", "ell1e9", "k40"])
    def test_brute_on_a_huge_gadget_refused_before_any_power(self, argv):
        # k + ell >= 22 is refused before 2^k or 3^ell is formed
        proc = run_cli_process("count", "--method", "brute", *argv, timeout=10)
        k, ell = int(argv[1]), int(argv[3])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: T({k},{ell}) has more than 2^{k + ell} vertices,"
                               f" over the limit of {MAX_VERTICES}\n")

    def test_bit_budget_env_applies_to_count(self, capsys, monkeypatch):
        monkeypatch.setenv("THREECOLOR_BIT_BUDGET", "1000")
        code, out, err = run_cli(capsys, "count", "--k", "1", "--ell", "14")
        assert code == 2
        assert out == "" and "over the budget of 1000" in err

    def test_bit_budget_flag_refuses_before_counting(self):
        proc = run_cli_process("count", "--k", "1", "--ell", "14", "--bit-budget", "1000",
                               timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr == (
            "error: the count of T(1,14) may need up to 7.212e+06 bits,"
            " over the budget of 1000\n")

    @pytest.mark.parametrize("env, flag, code", [
        ("1000", "10000000", 0),
        ("10000000", "1000", 2),
        ("junk", "10000000", 0),   # given the flag, the variable is not read
    ])
    def test_bit_budget_flag_wins_over_env(self, env, flag, code):
        proc = run_cli_process("count", "--k", "1", "--ell", "14", "--bit-budget", flag,
                               timeout=10, budget_env=env)
        assert proc.returncode == code
        if code == 0:
            assert proc.stdout == "bit_length: 7211279\n"
        else:
            assert proc.stdout == "" and proc.stderr.startswith("error: ")

    def test_largest_level_under_the_default_budget_runs(self, capsys, monkeypatch):
        monkeypatch.delenv("THREECOLOR_BIT_BUDGET", raising=False)
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--ell", "14")
        assert code == 0
        assert out.strip() == "bit_length: 7211279"


NEGATIVE_BUDGET_COMMANDS = [
    ("count", "--k", "1", "--ell", "1"),
    ("count", "--k", "1", "--ell", "1", "--method", "brute"),
    ("verify", "--suite", "lemma2"),
    ("verify", "--suite", "eq3", "--ell-max", "1"),
    ("report", "--ell-max", "1"),
]


@pytest.mark.parametrize("argv", NEGATIVE_BUDGET_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("budget", ["-1", "-5"])
def test_negative_bit_budget_env_refused(argv, budget, capsys, monkeypatch):
    monkeypatch.setenv("THREECOLOR_BIT_BUDGET", budget)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: the bit budget must be >= 0, not {budget}\n")


@pytest.mark.parametrize("argv", NEGATIVE_BUDGET_COMMANDS, ids=" ".join)
def test_negative_bit_budget_flag_refused(argv, capsys, monkeypatch):
    # Refused before the flag is checked against the method or suite.
    monkeypatch.delenv("THREECOLOR_BIT_BUDGET", raising=False)
    code, out, err = run_cli(capsys, *argv, "--bit-budget", "-1")
    assert (code, out, err) == (2, "", "error: the bit budget must be >= 0, not -1\n")


@pytest.mark.parametrize("argv", [("count", "--k", "1", "--ell", "1", "--method", "brute"),
                                  ("verify", "--suite", "lemma2")], ids=" ".join)
def test_zero_bit_budget_env_is_a_budget(argv, capsys, monkeypatch):
    monkeypatch.setenv("THREECOLOR_BIT_BUDGET", "0")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out


# SHA-256 of stdout, recorded before the closed forms and the divide-and-
# conquer decimal conversion replaced the transfer, the pattern sum and str().
GOLDEN_STDOUT_SHA256 = {
    ("report", "--ell-max", "12", "--full", "--json"):
        "552b928dca77c5523e2538201c89aaac981c1d1bdb15240b74055b8b6e313439",
    ("count", "--k", "3", "--ell", "6", "--full", "--json"):
        "1caa8e8e69050b98ab77ce49504270ec44598cd3f5897e8d8168f1c25cbda26e",
    # The largest default-budget report row (1,158,896 bytes), recorded
    # before the levels ran in ratio form.
    ("count", "--k", "8", "--ell", "13", "--full", "--json"):
        "b10d316df4a06dc321f90156ba4d24b5ed03049dee9497223599800903caeccc",
    ("generate", "--k", "2", "--ell", "3", "--format", "json", "--faces"):
        "fdd5cee41b683ef9526e39f7597750189e231f2f4b5e82834cb010d40a80c438",
    ("generate", "--k", "3", "--ell", "2", "--format", "dot"):
        "73e7868e503036fd1dbfe5a23946efb33253f0a6646466dc3d0dcc0b3870c1ed",
    ("generate", "--k", "2", "--ell", "2", "--format", "graph6"):
        "e61cc8d3ec66be36508a26362188bf7bed3598c409b9d01ff98727062b5a0546",
    ("verify", "--suite", "all"):
        "41f159e0cd185ff77cb68b7cd26f2a0c3e9ae0730c4c37a420fc4ff8c6c9eeb5",
    ("verify", "--suite", "eq3", "--ell-max", "8"):
        "072639be746da8ccda381a60c1b7160928c8aefd7fb75cbfefdaddc4cbf7f0ee",
    ("verify", "--suite", "theorem", "--ell-max", "8", "--json"):
        "77f72d28f45adfec6177fdfb4deee8265a80700cb74498e4e2203b6d3d1df7de",
    # Recorded while `report --json` still spliced each n into a json.dumps
    # text and `count --json` and `verify --json` called json.dumps.
    ("verify", "--suite", "all", "--json"):
        "01ce90cfcacc071fda35e9ba22dbe4241df97406d3a91f2a7bb5496f1bcdcd09",
    ("count", "--k", "3", "--ell", "2", "--fix", "1,2", "--full", "--json"):
        "46629d34f249c9abd7b25739b38c4afbfb636ab16d3160fe150c5414624f756d",
    ("count", "--k", "1", "--ell", "1", "--method", "brute", "--json"):  # fixed colors null
        "b1a7a26337614ebdd2ef1b0eb69a090b64203082d7e137692f444df328223f07",
    ("report", "--ell-min", "5", "--ell-max", "3", "--json"):  # no rows
        "e4dd91440397c613126d4c083297feff7fb5815c7231e225ee6f9c849180c55a",
    ("report", "--ell-min", "7", "--ell-max", "9", "--bit-budget", "30000", "--json"):
        "f291784f2187436209625c456c7fc34c3e67af07de743fbc6687f52ec4665943",
    # An n of 4,312 digits, past the default int-to-str limit.
    ("report", "--ell-min", "6600", "--ell-max", "6600", "--json"):
        "0b0a5cce9b2dfadcce87e71f4c4ea1ac15bcbd4284d2abb2012b55b9a83f2f45",
}
# The golden commands that exit other than 0: each has a refused level.
GOLDEN_EXIT_CODE = {
    ("report", "--ell-min", "7", "--ell-max", "9", "--bit-budget", "30000", "--json"): 1,
    ("report", "--ell-min", "6600", "--ell-max", "6600", "--json"): 1,
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_golden_stdout(argv, capsys, monkeypatch):
    monkeypatch.delenv("THREECOLOR_BIT_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == GOLDEN_EXIT_CODE.get(argv, 0)
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


class TestVerify:
    def test_lemma2_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma2")
        assert code == 0
        assert "84/84" in out
        assert "suite lemma2: PASS" in out

    def test_theorem_with_ell_max(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "theorem",
                               "--ell-max", "3")
        assert code == 0
        assert "ell=3" in out

    def test_lemma3_ell0_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "lemma3",
                               "--ell-max", "0")
        assert code == 2
        assert err == "error: the extension bound needs ell >= 1\n"

    def test_lemma3_past_its_sweep_exit_2(self, capsys):
        # Level 3 has about 1.1e9 inner colorings; the sweep stops at ell = 2.
        code, out, err = run_cli(capsys, "verify", "--suite", "lemma3",
                                 "--ell-max", "3")
        assert code == 2
        assert out == "" and err == "error: the lemma3 sweep covers ell <= 2 only\n"

    @pytest.mark.parametrize("suite, budget, power", [
        ("lemma3", "5", "2^7 needs 8 bits"),
        ("all", "25", "2^25 needs 26 bits"),
    ])
    def test_bit_budget_flag_reaches_every_budgeted_suite(self, suite, budget, power,
                                                          capsys, monkeypatch):
        monkeypatch.delenv("THREECOLOR_BIT_BUDGET", raising=False)
        code, out, err = run_cli(capsys, "verify", "--suite", suite,
                                 "--bit-budget", budget)
        assert code == 2
        assert out == "" and err == f"error: {power}, over the budget of {budget}\n"

    @pytest.mark.parametrize("argv, code, err", [
        (("--bit-budget", "26"), 2,
         "error: the count of T(2,2) may need up to 29 bits, over the budget of 26\n"),
        (("--bit-budget", "28"), 2,
         "error: the count of T(2,2) may need up to 29 bits, over the budget of 28\n"),
        (("--bit-budget", "29"), 0, ""),
        (("--ell-max", "1", "--bit-budget", "12"), 2,
         "error: the count of T(2,1) may need up to 13 bits, over the budget of 12\n"),
    ], ids=["26", "28", "29", "ell1-12"])
    def test_lemma3_charges_the_gadget_totals(self, argv, code, err, capsys):
        got, out, got_err = run_cli(capsys, "verify", "--suite", "lemma3", *argv)
        assert (got, got_err) == (code, err)
        assert out.endswith("suite lemma3: PASS\n") if code == 0 else out == ""

    def test_bit_budget_env_reaches_suite_all(self, capsys, monkeypatch):
        monkeypatch.setenv("THREECOLOR_BIT_BUDGET", "25")
        code, out, err = run_cli(capsys, "verify", "--suite", "all")
        assert code == 2
        assert out == "" and err == "error: 2^25 needs 26 bits, over the budget of 25\n"

    @pytest.mark.parametrize("suite, flag", [
        ("lemma2", "--ell-max"), ("lemma2", "--k-max"), ("lemma2", "--b-max"),
        ("lemma2", "--bit-budget"),
        ("remark", "--ell-max"), ("remark", "--k-max"), ("remark", "--bit-budget"),
        ("lemma3", "--k-max"), ("lemma3", "--b-max"),
        ("eq3", "--k-max"), ("eq3", "--b-max"),
        ("theorem", "--k-max"), ("theorem", "--b-max"),
        ("embedding", "--b-max"), ("embedding", "--bit-budget"),
        ("all", "--ell-max"), ("all", "--k-max"), ("all", "--b-max"),
    ])
    def test_option_the_suite_does_not_take_exit_2(self, suite, flag, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, "1")
        assert code == 2
        assert out == "" and err == f"error: {flag} does not apply to --suite {suite}\n"

    def test_first_foreign_option_is_named(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "lemma2", "--ell-max", "7",
                                 "--k-max", "0", "--b-max", "0")
        assert code == 2
        assert out == "" and err == "error: --ell-max does not apply to --suite lemma2\n"

    def test_env_budget_applies_to_every_suite(self, capsys, monkeypatch):
        monkeypatch.setenv("THREECOLOR_BIT_BUDGET", "5")
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma2")
        assert code == 0 and out.splitlines()[-1] == "suite lemma2: PASS"

    def test_remark_b0_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "remark",
                                 "--b-max", "0")
        assert code == 2
        assert out == "" and "b >= 1" in err

    def test_remark_past_the_free_vertex_limit_exit_2(self):
        proc = run_cli_process("verify", "--suite", "remark", "--b-max", "1200", timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr == (
            f"error: 1200 free vertices exceed the limit of {MAX_FREE_VERTICES}\n")

    def test_embedding_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "embedding",
                               "--ell-max", "1", "--k-max", "2")
        assert code == 0
        assert "T(2,1)" in out

    def test_embedding_sweep_over_the_vertex_limit_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "embedding",
                                 "--ell-max", "12", "--k-max", "1")
        assert (code, out) == (2, "")
        assert err == "error: T(1,12) has 2391484 vertices, over the limit of 2097152\n"

    def test_zero_bit_budget_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "eq3", "--bit-budget", "0")
        assert (code, out) == (2, "")
        assert err == "error: 2^16 needs 17 bits, over the budget of 0\n"

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "remark", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "remark"
        assert len(doc["suites"][0]["checks"]) == 12

    def test_eq3_prints_counts_past_the_int_str_limit(self):
        # A fresh interpreter keeps the default 4300-digit int-to-str limit,
        # which the ell = 10 inner count exceeds.
        proc = run_cli_process("verify", "--suite", "eq3", "--ell-max", "10", timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "suite eq3: PASS"

    def test_theorem_budget_at_the_eq3_exponent_passes(self, capsys):
        # At ell = 8 the eq3 exponent is 34,436 and c has 15,589 bits; the
        # budget must not be charged for 2^(6*3^8) = 2^39366 as well.
        code, out, err = run_cli(capsys, "verify", "--suite", "theorem",
                                 "--ell-max", "8", "--bit-budget", "35000")
        assert code == 0, err
        assert out.splitlines()[-1] == "suite theorem: PASS"

    def test_a_suite_takes_the_options_of_its_runner(self, capsys, monkeypatch):
        seen = []

        def run_fake(ell_max=1):
            seen.append(ell_max)
            return suites.SuiteResult("fake")

        monkeypatch.setitem(suites.SUITES, "fake", run_fake)
        code, out, err = run_cli(capsys, "verify", "--suite", "fake", "--ell-max", "3")
        assert (code, out, err, seen) == (0, "suite fake: PASS\n", "", [3])
        code, out, err = run_cli(capsys, "verify", "--suite", "fake", "--k-max", "1")
        assert (code, out, err, seen) == (
            2, "", "error: --k-max does not apply to --suite fake\n", [3])

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "eq3", "--ell-max", "2")
        _, second, _ = run_cli(capsys, "verify", "--suite", "eq3", "--ell-max", "2")
        assert first == second


class TestReport:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--ell-max", "3")
        assert code == 0
        assert "all checks pass" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--ell-max", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert [r["ell"] for r in doc["rows"]] == [1, 2]

    def test_python_m_threecolor_runs_the_cli(self, capsys, monkeypatch):
        monkeypatch.delenv("THREECOLOR_BIT_BUDGET", raising=False)
        code, out, _ = run_cli(capsys, "report", "--ell-max", "2")
        proc = run_cli_process("report", "--ell-max", "2", timeout=30, module="threecolor")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")

    def test_empty_range_succeeds(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--ell-min", "3",
                               "--ell-max", "2")
        assert code == 0
        assert "empty report" in out

    def test_bit_budget_flag_gives_row_error_and_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--ell-min", "8",
                               "--ell-max", "8", "--bit-budget", "1000")
        assert code == 1
        assert "ERROR" in out

    def test_negative_bit_budget_exit_2(self, capsys):
        # Refused before any row; a budget of 0 still gives error rows.
        code, out, err = run_cli(capsys, "report", "--ell-min", "1", "--ell-max", "2",
                                 "--bit-budget", "-1")
        assert (code, out, err) == (2, "", "error: the bit budget must be >= 0, not -1\n")
        code, out, _ = run_cli(capsys, "report", "--ell-min", "1", "--ell-max", "2",
                               "--bit-budget", "0")
        assert code == 1
        rows = out.splitlines()[2:]
        assert rows[0].endswith("ERROR: 2^16 needs 17 bits, over the budget of 0")
        assert rows[1].endswith("ERROR: 2^52 needs 53 bits, over the budget of 0")
        assert rows[2] == "result: FAILURES PRESENT"

    def test_budget_error_row_names_the_eq3_power(self, capsys, monkeypatch):
        monkeypatch.delenv("THREECOLOR_BIT_BUDGET", raising=False)
        code, out, _ = run_cli(capsys, "report", "--ell-min", "7", "--ell-max", "9",
                               "--bit-budget", "30000")
        assert code == 1
        line = next(row for row in out.splitlines() if row.split()[:1] == ["8"])
        assert line.endswith("ERROR: 2^34436 needs 34437 bits, over the budget of 30000")

    def test_far_level_is_an_error_row(self):
        # Its eq3 exponent and n exceed the default int-to-str limit of 4,300 digits.
        proc = run_cli_process("report", "--ell-min", "9100", "--ell-max", "9100", timeout=10)
        assert (proc.returncode, proc.stderr) == (1, "")
        rows = proc.stdout.splitlines()[2:]
        assert len(rows) == 2 and rows[-1] == "result: FAILURES PRESENT"
        assert rows[0].startswith("9100 5324 ") and " ERROR: 2^" in rows[0]

    def test_far_level_is_an_error_row_in_json(self):
        proc = run_cli_process("report", "--ell-min", "9100", "--ell-max", "9100", "--json",
                               timeout=10)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert '"ell": 9100,\n      "k": 5324,\n      "n": 3069' in proc.stdout
        assert '"c_bits": 0,\n      "checks": {},\n      "error": "2^' in proc.stdout

    @pytest.mark.parametrize("extra", [(), ("--json",)])
    def test_huge_range_refused_before_any_row(self, extra):
        proc = run_cli_process("report", "--ell-min", "1", "--ell-max", "100000", *extra,
                               timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: the n column of levels 1 to 100000 may take up to"
                               " 3333566666 digits, over the limit of 16777216\n")

    def test_bit_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("THREECOLOR_BIT_BUDGET", "1000")
        code, out, _ = run_cli(capsys, "report", "--ell-min", "8", "--ell-max", "8")
        assert code == 1
        assert "ERROR" in out

    def test_malformed_bit_budget_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("THREECOLOR_BIT_BUDGET", "abc")
        code, out, err = run_cli(capsys, "report")
        assert code == 2
        assert out == "" and "invalid THREECOLOR_BIT_BUDGET: 'abc'" in err

    def test_full_prints_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--ell-max", "1", "--full")
        assert code == 0
        assert "c(1) = 1056" in out

    def test_json_is_written_as_it_is_made(self, monkeypatch):
        class Sink:
            """Counts what it is given and keeps none of it."""
            length = 0

            def write(self, text):
                self.length += len(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        monkeypatch.delenv("THREECOLOR_BIT_BUDGET", raising=False)
        tracemalloc.start()
        try:
            code = main(["report", "--ell-max", "2000", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The rows are held, and their n of up to 1,300 digits; the text,
        # 1.7 MB, is not, so the peak stays under 2.5 times its length.
        assert code == 1 and sink.length > 1_600_000
        assert peak < 2.5 * sink.length
