import json

import networkx as nx
from threecolor.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_graph6_line(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--k", "1", "--ell", "1",
                               "--format", "graph6")
        assert code == 0
        line = out.strip()
        G = nx.from_graph6_bytes(line.encode("ascii"))
        assert G.number_of_nodes() == 13 and G.number_of_edges() == 18

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

    def test_brute_cutoff_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "--k", "5", "--ell", "8",
                               "--method", "brute")
        assert code == 2
        assert "cutoff" in err

    def test_brute_force_override(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--k", "3", "--ell", "0",
                               "--method", "brute", "--cutoff", "5",
                               "--force", "--full")
        assert code == 0
        assert "count: 336" in out

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

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--ell", "1",
                               "--json", "--full")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == {"bit_length": 11, "decimal_string": "1056"}

    def test_dp_and_brute_agree(self, capsys):
        _, dp_out, _ = run_cli(capsys, "count", "--k", "2", "--ell", "1",
                               "--method", "dp", "--full")
        _, brute_out, _ = run_cli(capsys, "count", "--k", "2", "--ell", "1",
                                  "--method", "brute", "--full")
        assert dp_out == brute_out


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

    def test_remark_b0_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "remark",
                                 "--b-max", "0")
        assert code == 2
        assert out == "" and "b >= 1" in err

    def test_embedding_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "embedding",
                               "--ell-max", "1", "--k-max", "2")
        assert code == 0
        assert "T(2,1)" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "remark", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "remark"
        assert len(doc["suites"][0]["checks"]) == 12

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
