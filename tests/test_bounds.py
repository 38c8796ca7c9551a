import contextlib
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deadline import deadline
from threecolor import (
    build_T,
    count_colorings_bruteforce,
    emit_report,
    gadget_pair_counts,
    report_to_text,
    theorem_chain_check,
    total_colorings,
)
from threecolor import bounds
from threecolor.bounds import (
    _BASE_BITS,
    BitBudgetExceededError,
    _below_pow2,
    int_to_decimal,
    lemma3_bound,
)
from threecolor.gadgets import choose_k, vertex_count_closed_form
from threecolor.serialize import report_chunks

# The seven checks of the chain, in the order every report writes them.
CHECK_NAMES = ("eq1", "eq2", "k_window", "lemma3_exponent", "eq3", "c_le_2pow6_3ell",
               "n_ge_9half_ell")


class TestLemma3Bound:
    def test_values(self):
        assert lemma3_bound(1, 1) == 128  # 2^(2^2 + 3)
        assert lemma3_bound(1, 2) == 2 ** 17
        assert lemma3_bound(2, 2) == 2 ** 25

    def test_monotone_in_both_arguments(self):
        for k in range(1, 5):
            for ell in range(1, 5):
                assert lemma3_bound(k, ell) < lemma3_bound(k + 1, ell)
                assert lemma3_bound(k, ell) < lemma3_bound(k, ell + 1)

    def test_domain_and_budget(self):
        with pytest.raises(ValueError):
            lemma3_bound(1, 0)
        with pytest.raises(BitBudgetExceededError):
            lemma3_bound(3, 10, bit_budget=1000)

    def test_far_exponent_refused_before_it_is_formed(self):
        # 2^(10^9 + 1) alone would take 125 MB, and its decimal 3 * 10^8 digits
        with deadline(0.1), pytest.raises(BitBudgetExceededError) as info:
            lemma3_bound(10 ** 9, 1)
        assert str(info.value) == ("2^(2^1000000001 + 3^1) needs over 2^1000000001 bits,"
                                   f" over the budget of {bounds.DEFAULT_BIT_BUDGET}")

    @pytest.mark.parametrize("k,ell,budget", [(1, 1, 5), (2, 2, 25), (60, 3, 2 ** 62)])
    def test_near_exponent_message_kept(self, k, ell, budget):
        exponent = 2 ** (k + ell) + 3 ** ell
        with pytest.raises(BitBudgetExceededError) as info:
            lemma3_bound(k, ell, bit_budget=budget)
        assert str(info.value) == (f"2^{exponent} needs {exponent + 1} bits,"
                                   f" over the budget of {budget}")

    def test_wide_budget_threshold(self):
        # a budget of 2^70 has bit length 71: k + l = 70 is near, 71 far
        budget = 2 ** 70
        with pytest.raises(BitBudgetExceededError) as near:
            lemma3_bound(69, 1, bit_budget=budget)
        with pytest.raises(BitBudgetExceededError) as far:
            lemma3_bound(70, 1, bit_budget=budget)
        assert str(near.value) == (f"2^{2 ** 70 + 3} needs {2 ** 70 + 4} bits,"
                                   f" over the budget of {budget}")
        assert str(far.value) == ("2^(2^71 + 3^1) needs over 2^71 bits,"
                                  f" over the budget of {budget}")


class TestTheoremChain:
    def test_worked_level(self):
        row = theorem_chain_check(1)
        assert (row.ell, row.k, row.n) == (1, 1, 13)
        assert row.c_bits == 11  # 1056 < 2^16
        assert row.inner_total == 84  # <= 3 * 2^6 = 192
        assert row.checks["eq3"]
        assert row.checks["n_ge_9half_ell"]  # 9 <= 26
        assert row.checks["c_le_2pow6_3ell"]  # 1056 <= 2^18
        assert row.ok

    def test_check_names_stable(self):
        assert tuple(theorem_chain_check(2).checks) == CHECK_NAMES

    def test_readme_exponent_bounds_in_integers(self):
        # g = log_{9/2} 3 > 0.73 iff 3^100 > (9/2)^73 = 3^146 / 2^73, and
        # g < 0.731 iff 3^1000 < (9/2)^731 = 3^1462 / 2^731.
        assert 3 ** 46 < 2 ** 73
        assert 2 ** 731 < 3 ** 462

    @pytest.mark.parametrize("ell", range(1, 9))
    def test_chain_passes(self, ell):
        row = theorem_chain_check(ell)
        assert row.k == choose_k(ell)
        assert row.ok, row.checks

    def test_ell0_rejected(self):
        with pytest.raises(ValueError):
            theorem_chain_check(0)

    def test_c_bits_matches_dp(self):
        row = theorem_chain_check(3)
        c = total_colorings(gadget_pair_counts(row.k, 3))
        assert row.c_bits == c.bit_length()

    def test_inner_total_verified_by_oracle_at_small_levels(self):
        from threecolor import inner_subgraph

        for ell in (1, 2, 3, 4):
            sub, _ = inner_subgraph(build_T(1, ell, check=False))
            assert theorem_chain_check(ell).inner_total == \
                count_colorings_bruteforce(sub)

    @staticmethod
    def assert_refused_row_at_8(monkeypatch, budget):
        """Level 8 under `budget` is a refused row, made before either DP runs."""
        def no_dp(*args, **kwargs):
            raise AssertionError("a DP ran before the budget check")

        monkeypatch.setattr(bounds, "gadget_pair_counts", no_dp)
        monkeypatch.setattr(bounds, "inner_subgraph_pair_counts", no_dp)
        row = theorem_chain_check(8, bit_budget=budget)
        assert row.error == f"2^34436 needs 34437 bits, over the budget of {budget}"
        assert (row.ell, row.k, row.n) == (8, 5, vertex_count_closed_form(5, 8))
        assert (row.checks, row.c, row.c_bits, row.inner_total) == ({}, None, 0, None)
        assert not row.ok

    def test_budget_guard_precedes_dp(self, monkeypatch):
        self.assert_refused_row_at_8(monkeypatch, 34436)

    def test_bit_budget_reaches_the_dp(self, monkeypatch):
        seen = []
        real = bounds.gadget_pair_counts
        monkeypatch.setattr(bounds, "gadget_pair_counts",
                            lambda k, ell, **kw: seen.append(kw) or real(k, ell, **kw))
        assert theorem_chain_check(2, bit_budget=53).ok
        assert seen == [{"bit_budget": 53}]

    def test_budget_window_is_the_eq3_exponent(self, monkeypatch):
        # eq3 exponent at ell = 8: 2^13 + 4*3^8 = 34436.  The count itself
        # has 15,589 bits and 2^(6*3^8) is never built.
        assert theorem_chain_check(8, bit_budget=34437).ok
        self.assert_refused_row_at_8(monkeypatch, 34436)

    def test_decimal_on_demand(self):
        row = theorem_chain_check(1)
        assert row.c == 1056
        assert row.c_bits == 11


class TestBelowPow2:
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 64, 1000])
    def test_agrees_with_the_built_power(self, m):
        for x in (0, 1, 2 ** m - 1, 2 ** m, 2 ** m + 1):
            assert _below_pow2(x, m) == (x < 2 ** m)
            assert _below_pow2(x - 1, m) == (x <= 2 ** m)


class TestEmitReport:
    def test_single_row(self):
        [row] = emit_report(range(1, 2))
        assert row.n == 13 and row.ok

    def test_six_rows_pass(self):
        rows = emit_report(range(1, 7))
        assert len(rows) == 6
        assert all(row.ok for row in rows)

    def test_empty_range(self):
        rows = emit_report(range(1, 1))
        assert rows == ()
        assert "empty report" in "".join(report_to_text(rows))

    def test_budget_error_isolated_per_row(self):
        # eq3 exponents: 12844 bits at ell=7, 34436 at ell=8
        rows = emit_report(range(7, 10), bit_budget=30000)
        assert [row.error is None for row in rows] == [True, False, False]
        assert [row.inner_total is None for row in rows] == [False, True, True]
        assert [row.ok for row in rows] == [True, False, False]
        assert "ERROR" in "".join(report_to_text(rows))

    def test_json_schema(self):
        doc = json.loads("".join(report_chunks(emit_report(range(1, 3)))))
        assert doc["version"] == 1
        assert [row["ell"] for row in doc["rows"]] == [1, 2]
        for row in doc["rows"]:
            assert set(row) == {"ell", "k", "n", "c_bits", "checks"}
            assert tuple(row["checks"]) == CHECK_NAMES
            assert all(isinstance(v, bool) for v in row["checks"].values())

    def test_json_decimal_roundtrip(self):
        doc = json.loads("".join(report_chunks(emit_report(range(1, 2)), full=True)))
        assert doc["rows"][0]["c_decimal"] == "1056"

    def test_json_decimal_only_on_counted_rows(self):
        # row 14's eq3 exponent, 2^23 + 4*3^14, is over the default budget
        text = "".join(report_chunks(emit_report(range(13, 15)), full=True))
        row13, row14 = json.loads(text)["rows"]
        assert row13["c_decimal"] == int_to_decimal(total_colorings(gadget_pair_counts(8, 13)))
        assert "error" not in row13
        assert row14["error"].startswith("2^") and "c_decimal" not in row14

    def test_refused_row_forms_k_and_n_once(self, monkeypatch):
        calls = []
        for name in ("choose_k", "vertex_count_closed_form"):
            real = getattr(bounds, name)
            monkeypatch.setattr(bounds, name,
                                lambda *args, _name=name, _real=real:
                                calls.append(_name) or _real(*args))
        [row] = emit_report(range(9, 10), bit_budget=30000)
        assert row.error is not None and (row.k, row.n) == (6, 1308919)
        assert sorted(calls) == ["choose_k", "vertex_count_closed_form"]

    def test_n_column_prediction_bounds_the_digits(self):
        for ell in range(1, 2000):
            assert len(str(vertex_count_closed_form(choose_k(ell), ell))) < 2 * ell / 3 + 2

    def test_range_over_the_digit_limit_refused_before_any_row(self, monkeypatch):
        rows = []
        monkeypatch.setattr(bounds, "theorem_chain_check", lambda ell, **_: rows.append(ell))
        # 1 to 7090 may take 16,772,576 digits, 1 to 7091 16,777,306.
        assert len(emit_report(range(1, 7091))) == 7090
        for ell_range in (range(1, 7092), range(1, 100001), range(10 ** 30, 10 ** 30 + 1)):
            rows.clear()
            with pytest.raises(ValueError, match="over the limit of 16777216$"):
                emit_report(ell_range)
            assert rows == []

    def test_text_table_lists_all_checks(self):
        text = "".join(report_to_text(emit_report(range(1, 2))))
        checks = text.splitlines()[2].split("  ")[-1].split()
        assert checks == [f"{name}=pass" for name in CHECK_NAMES]
        assert "all checks pass" in text

    def test_text_lines_end_in_newlines_and_full_counts_only_counted_rows(self):
        rows = emit_report(range(7, 10), bit_budget=30000)
        chunks = list(report_to_text(rows, full=True))
        assert all(chunk.endswith("\n") and chunk.count("\n") == 1 for chunk in chunks[1:])
        assert chunks[-2:] == ["result: FAILURES PRESENT\n",
                               f"c(7) = {int_to_decimal(rows[0].c)}\n"]
        assert "".join(report_to_text(rows)) == "".join(chunks[:-1])

    def test_text_is_written_as_it_is_made(self):
        rows = emit_report(range(1, 2001))  # held, as the CLI holds them
        tracemalloc.start()
        try:
            length = sum(map(len, report_to_text(rows)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The table is 1.51 MB; only one line, and its n, is held at a time.
        assert length > 1_500_000
        assert peak < length


@contextlib.contextmanager
def int_str_limit(digits):
    """Set the interpreter's int/str digit limit (0: none) for the block, if
    it has one."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    setter(digits)
    try:
        yield
    finally:
        setter(old)


def plain_str(value: int) -> str:
    """str(value) with the limit lifted only for this call, so that the
    conversion under test runs under the interpreter's own limit."""
    with int_str_limit(0):
        return str(value)


class TestFarLevels:
    """A level whose numbers outgrow the interpreter's int-to-str limit
    (4,300 digits by default) is one error row all the same, made fast."""

    @pytest.mark.parametrize("ell,power", [
        pytest.param(9_100, 14_424, id="9100"),
        pytest.param(100_000, 158_497, id="100000"),
        pytest.param(3_000_000, 4_754_888, id="3000000"),  # E has 1.4 M digits
    ])
    def test_one_error_row_rendered(self, ell, power):
        default = getattr(sys.int_info, "default_max_str_digits", 0)
        with int_str_limit(default), deadline(10):
            rows = emit_report(range(ell, ell + 1))
            text = "".join(report_to_text(rows))
        [row] = rows
        assert (row.k + ell, row.checks) == (power, {})
        assert row.error == (f"2^(2^{power} + 4*3^{ell}) needs over 2^{power} bits,"
                             f" over the budget of {bounds.DEFAULT_BIT_BUDGET}")
        lines = text.splitlines()
        assert len(lines) == 4 and lines[-1] == "result: FAILURES PRESENT"
        assert lines[2] == (f"{ell:>4} {row.k:>3} {int_to_decimal(row.n)} {'-':>10}"
                            f"  ERROR: {row.error}")

    def test_default_budget_threshold(self):
        # a level is far once k + l >= max(64, bit length of 10^7) = 64:
        # l = 39 has k + l = 62 and keeps the decimal text, l = 40 has 64
        row39, row40 = emit_report(range(39, 41))
        exponent = 2 ** 62 + 4 * 3 ** 39
        assert row39.error == (f"2^{exponent} needs {exponent + 1} bits,"
                               " over the budget of 10000000")
        assert row40.error == ("2^(2^64 + 4*3^40) needs over 2^64 bits,"
                               " over the budget of 10000000")

    def test_wide_budget_threshold(self):
        # a budget of 2^70 has bit length 71: k + l = 70 is near, 71 far; no
        # level has k + l = 71 (3^l skips that bit length), so l = 45 has 72
        budget = 2 ** 70
        row44, row45 = emit_report(range(44, 46), bit_budget=budget)
        exponent = 2 ** 70 + 4 * 3 ** 44
        assert row44.error == (f"2^{exponent} needs {exponent + 1} bits,"
                               f" over the budget of {budget}")
        assert row45.error == ("2^(2^72 + 4*3^45) needs over 2^72 bits,"
                               f" over the budget of {budget}")
        with pytest.raises(BitBudgetExceededError) as info:
            bounds.bound_exponent(70, 1, 4, budget)
        assert str(info.value) == ("2^(2^71 + 4*3^1) needs over 2^71 bits,"
                                   f" over the budget of {budget}")

    @pytest.mark.parametrize("ell", [6_600, 9_100])
    def test_one_error_row_in_json(self, ell):
        default = getattr(sys.int_info, "default_max_str_digits", 0)
        with int_str_limit(default), deadline(10):
            rows = emit_report(range(ell, ell + 1))
            text = "".join(report_chunks(rows))
        [row] = rows
        assert not row.ok and row.error is not None
        with int_str_limit(0):  # parsing n's digits needs no limit either
            doc = json.loads(text)
        assert doc == {"version": 1, "rows": [{
            "ell": ell, "k": row.k, "n": row.n, "c_bits": 0, "checks": {},
            "error": row.error}]}
        assert f'"n": {int_to_decimal(row.n)},' in text


class TestIntToDecimal:
    def test_small(self):
        assert int_to_decimal(1056) == "1056"

    def test_huge_value_converts(self):
        # exceeds the default int-to-str cap of newer interpreters
        big = 1 << 40000
        text = int_to_decimal(big)
        assert len(text) == 12042  # floor(40000*log10(2)) + 1
        with int_str_limit(0):
            assert int(text) == big

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the interpreter has no int-to-str limit")
    def test_leaves_the_int_str_limit_alone(self):
        before = sys.get_int_max_str_digits()
        text = int_to_decimal(10 ** 499_999 + 7)
        assert len(text) == 500_000
        assert text == "1" + "0" * 499_993 + "000007"
        assert sys.get_int_max_str_digits() == before

    @pytest.mark.parametrize("value", [
        0, 1, -1,
        *(sign * (10 ** j + d) for j in (1, 601, 602, 603, 2000)
          for d in (-1, 1) for sign in (1, -1)),
        *(2 ** w + d for w in (_BASE_BITS - 1, _BASE_BITS, _BASE_BITS + 1,
                               2 * _BASE_BITS - 1, 2 * _BASE_BITS, 2 * _BASE_BITS + 1)
          for d in (-1, 0, 1)),
    ])
    def test_matches_str_at_boundaries(self, value):
        assert int_to_decimal(value) == plain_str(value)

    @pytest.mark.parametrize("bits", [
        2_500, 7_919, 33_333, 123_457, 400_000, 1_000_000])
    def test_matches_str_on_large_values(self, bits):
        value = random.Random(bits).getrandbits(bits) | 1 << (bits - 1)
        expected = plain_str(value)
        assert int_to_decimal(value) == expected
        assert int_to_decimal(-value) == "-" + expected

    @given(st.integers(min_value=0, max_value=40_000), st.randoms(use_true_random=False))
    def test_matches_str_on_random_values(self, bits, rng):
        value = rng.getrandbits(bits) if bits else 0
        assert int_to_decimal(value) == plain_str(value)
