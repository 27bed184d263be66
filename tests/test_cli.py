import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import psmc
from psmc.cli import main, parse_word, format_word, _probability_digits
from psmc.constructions import masking_probability
from psmc.presets import PRESETS, get_preset
from psmc.sim import CSV_COLUMNS
from fractions import Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# word parsing
# ---------------------------------------------------------------------------

def test_parse_word_digits():
    assert parse_word("0210", 3).tolist() == [0, 2, 1, 0]
    assert format_word([0, 2, 1, 0], 3) == "0210"


def test_parse_word_commas_for_large_q():
    assert parse_word("10,0,11", 16).tolist() == [10, 0, 11]
    assert format_word([10, 0, 11], 16) == "10,0,11"


def test_parse_word_validation():
    from psmc.cli import UsageError

    with pytest.raises(UsageError):
        parse_word("0groan", 3)


@pytest.mark.parametrize("m", ["0390", "012"], ids=["out-of-range", "wrong-length"])
def test_encode_word_checked_once_as_usage_error(capsys, m):
    # parse_word only parses; encode's as_word checks the range and length.
    code, out, err = run_cli(capsys, "encode", "--preset", "table8-row3", "--m", m, "--stuck", "1")
    assert code == 1 and out == ""
    assert err.startswith("usage error")


def test_probability_digits_exact():
    assert _probability_digits(Fraction(381, 2187), 12) == "0.174211248285"
    assert _probability_digits(Fraction(21, 27), 12) == "0.777777777778"
    assert _probability_digits(Fraction(1, 1), 12) == "1"
    assert _probability_digits(Fraction(1, 1000), 3) == "0.00100"


def probability_digits_oracle(frac, digits):
    """The expansion with its leading zeros counted one power of ten per zero."""
    if frac in (0, 1):
        return str(frac)
    num, den = frac.numerator, frac.denominator
    scale = 0
    while num * 10 ** (scale + 1) < den:
        scale += 1
    quotient, rem = divmod(num * 10 ** (scale + digits), den)
    quotient += 2 * rem >= den
    if quotient == 10**digits:
        quotient //= 10
        scale -= 1
        if scale < 0:
            return "1"
    return "0." + "0" * scale + str(quotient).rjust(digits, "0")


@settings(max_examples=300, deadline=None)
@given(den=st.integers(2, 10**60), data=st.data(), digits=st.integers(1, 15))
def test_probability_digits_match_oracle(den, data, digits):
    frac = Fraction(data.draw(st.integers(1, den - 1)), den)
    assert _probability_digits(frac, digits) == probability_digits_oracle(frac, digits)


def test_probability_digits_at_powers_of_ten():
    cases = [Fraction(1, 10**k) for k in range(1, 40)]
    cases += [Fraction(10**k - 1, 10 ** (k + 1)) for k in range(1, 40)]
    cases += [Fraction(10**k + 1, 10 ** (k + 1)) for k in range(1, 40)]
    cases += [masking_probability(3, u) for u in (3, 50, 500, 5000)]
    for frac in cases:
        for digits in (1, 3, 6, 12):
            assert _probability_digits(frac, digits) == probability_digits_oracle(frac, digits)
    # Rounding that crosses a power of ten drops one leading zero, or reaches 1.
    assert _probability_digits(Fraction(1999999, 2000000), 6) == "1"
    assert _probability_digits(Fraction(24999999, 2500000000), 6) == "0.0100000"


def test_probability_digits_needs_one_digit():
    from psmc.cli import UsageError

    for digits in (0, -1):
        with pytest.raises(UsageError, match=r"^digits must be >= 1$"):
            _probability_digits(Fraction(1, 3), digits)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_prob_command(capsys):
    code, out, _ = run_cli(capsys, "prob", "--q", "3", "--u", "7")
    assert code == 0
    assert out.strip() == "0.174211248285"


def test_prob_command_u_below_q(capsys):
    code, out, _ = run_cli(capsys, "prob", "--q", "5", "--u", "2")
    assert code == 0 and out.strip() == "1"


def test_prob_command_over_budget_exits_2_with_json(capsys):
    code, out, err = run_cli(capsys, "prob", "--q", "4099", "--u", "4099")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "BudgetExceeded" and "exceeds budget" in payload["message"]


def test_factor_command(capsys):
    code, out, _ = run_cli(capsys, "factor", "--n", "8", "--q", "3")
    assert code == 0
    assert "M_a={0}" in out
    assert "M_a={1,3}" in out
    assert "M_a={2,6}" in out
    assert "M_a={4}" in out
    assert "M_a={5,7}" in out
    assert out.count("M^(") == 5
    assert "2,1,1" in out  # x^2 + x + 2 in coefficient syntax


def factor_in_child(n):
    # A child process with a timeout, so that a hang fails the test
    # instead of stalling the suite.
    return subprocess.run(
        [sys.executable, "-m", "psmc", "factor", "--n", n, "--q", "3"],
        capture_output=True, text=True, timeout=20,
    )


def test_factor_length_one():
    proc = factor_in_child("1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1:] == ["a=0  M_a={0}  M^(0)(x) = 2,1  [x + 2]"]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_factor_rejects_nonpositive_length(n):
    proc = factor_in_child(n)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert f"n = {n} must be >= 1" in proc.stderr


def test_encode_command_demo_vectors(capsys):
    code, out, _ = run_cli(
        capsys, "encode", "--preset", "appendix-n14",
        "--m", "0210210210", "--stuck", "4,6",
    )
    assert code == 0 and out.strip() == "11021021021000"
    code, out, _ = run_cli(
        capsys, "encode", "--preset", "appendix-n14-r0",
        "--m", "0210210210210", "--stuck", "4,6",
    )
    assert code == 0 and out.strip() == "11021021021021"


def test_decode_command_corrects_single_error(capsys):
    code, out, _ = run_cli(
        capsys, "decode", "--preset", "appendix-n14", "--y", "11021021001000"
    )
    assert code == 0 and out.strip() == "0210210210"


def test_decode_failure_exits_2_with_json(capsys):
    # An error at position 0 shares a syndrome with an equal-weight pattern
    # at position 5, so bounded decoding reports failure.  On the zero
    # codeword the nearest codeword is at distance 1, but it is not unique.
    good = "11021021021000"
    for y in ("0" + good[1:], "10000000000000"):
        code, out, err = run_cli(capsys, "decode", "--preset", "appendix-n14", "--y", y)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "DecodingFailure",
            "message": "no unique codeword within distance 1",
        }


def test_encode_masking_impossible_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "encode", "--preset", "masking-n8-r0",
        "--m", "1200000", "--stuck", "0,1,2", "--probabilistic",
    )
    assert code == 2
    assert json.loads(err) == {
        "error": "MaskingImpossible",
        "message": "no masking vector z for positions (0, 1, 2)",
    }


def test_extension_field_above_2_pow_16_exits_2_with_json(capsys):
    # Array arithmetic over GF(2^17) would need exp/log arrays above its
    # limit: a resource error (exit 2), not a usage error (exit 1).
    code, out, err = run_cli(capsys, "encode", "--n", "3", "--q", "131072", "--factors", "", "--m", "1")
    assert code == 2 and out == ""
    assert err == (
        '{"error": "BudgetExceeded", "message": "array arithmetic over GF(2^17) needs order <= 65536"}\n'
    )


def test_field_above_2_pow_20_exits_2_with_json(capsys):
    # GF(2^21) is above the supported field order: a resource error (exit 2),
    # not a usage error (exit 1).
    code, out, err = run_cli(capsys, "encode", "--n", "3", "--q", "2097152", "--factors", "", "--m", "1")
    assert code == 2 and out == ""
    assert err == '{"error": "BudgetExceeded", "message": "GF(2^21) is above the supported order 2^20"}\n'


def test_budget_overrun_exits_2_with_json(capsys):
    # Deriving t for this [40, 20] code would enumerate 3^20 words on
    # either side, the code or its dual.
    code, out, err = run_cli(
        capsys, "decode", "--n", "40", "--q", "3", "--factors", "1,2,4,7,11", "--y", "0" * 40,
    )
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "BudgetExceeded"
    assert "exceeds budget" in payload["message"]


def test_splitting_field_too_large_exits_2_with_json(capsys):
    # x^29 - 1 over GF(2) splits in GF(2^28): valid n and q, beyond the field bound.
    for argv in (("factor",), ("encode", "--factors", "1", "--m", "0")):
        code, out, err = run_cli(capsys, *argv, "--n", "29", "--q", "2")
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "BudgetExceeded" and "GF(2^28)" in payload["message"]


def test_large_code_with_small_dual_decodes(capsys):
    # The [26, 23] code has 3^23 words but a dual of 27: t = 0 is exact.
    code, out, err = run_cli(
        capsys, "decode", "--n", "26", "--q", "3", "--factors", "1", "--y", "0" * 26,
    )
    assert code == 0 and err == ""
    assert out.strip() == "0" * 22


def test_non_prime_power_q_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "encode", "--n", "8", "--q", "6", "--m", "0")
    assert code == 1 and "not a prime power" in err


def test_out_of_range_seed_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--preset", "masking-n8-r0", "--u", "1",
        "--trials", "1", "--seed", "-1",
    )
    assert code == 1 and "seed" in err


def test_guaranteed_mode_overload_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "encode", "--preset", "masking-n8-r0",
        "--m", "1200000", "--stuck", "0,1,2",
    )
    assert code == 1
    assert "probabilistic" in err


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "encode", "--preset", "nope", "--m", "0")
    assert code == 1 and "unknown preset" in err


def test_bad_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "encode", "--m")
    assert code == 1


@pytest.mark.parametrize("argv", [["encode", "--m", "0"], ["encode", "--n", "8", "--m", "0"],
                                  ["decode", "--q", "3", "--y", "0"]])
def test_code_needs_a_preset_or_n_and_q(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "usage error: need --preset or both --n and --q\n")


@pytest.mark.parametrize("flags", [["--n", "5"], ["--q", "3"], ["--factors", ""], ["--n", "8", "--q", "3"]])
def test_preset_with_an_explicit_code_is_usage_error(capsys, tmp_path, flags):
    expected = (1, "", "usage error: --preset cannot be combined with --n, --q or --factors\n")
    assert run_cli(capsys, "encode", "--preset", "masking-n8-r0", *flags, "--m", "1111111") == expected
    assert run_cli(capsys, "decode", *flags, "--preset", "masking-n8-r0", "--y", "11111111") == expected
    # The same from a --config file, on either side.
    cfgfile = tmp_path / "campaign.cfg"
    cfgfile.write_text("preset=masking-n8-r0\nu=2\n")
    assert run_cli(capsys, "simulate", "--config", str(cfgfile), *flags) == expected
    cfgfile.write_text("u=2\n" + "".join(f"{k[2:]}={v}\n" for k, v in zip(flags[::2], flags[1::2])))
    assert run_cli(capsys, "simulate", "--config", str(cfgfile), "--preset", "masking-n8-r0") == expected


def test_config_line_without_equals_is_usage_error(capsys, tmp_path):
    cfgfile = tmp_path / "campaign.cfg"
    cfgfile.write_text("preset=table8-row3\nu 2\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfgfile))
    assert (code, out, err) == (1, "", "usage error: config line 'u 2' is not key=value\n")


def test_explicit_cyclic_code_selection(capsys):
    code, out, _ = run_cli(
        capsys, "encode", "--n", "8", "--q", "3", "--factors", "4,5",
        "--m", "0121", "--stuck", "2,7",
    )
    assert code == 0
    word = out.strip()
    assert len(word) == 8
    assert word[2] != "0" and word[7] != "0"
    code, out, _ = run_cli(capsys, "decode", "--n", "8", "--q", "3", "--factors", "4,5", "--y", word)
    assert code == 0 and out.strip() == "0121"


def test_tables_text_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "tables")
    code, out2, _ = run_cli(capsys, "tables")
    assert code == 0 and out1 == out2
    assert "6.387" in out1 and "0.613" in out1
    assert "Singleton" in out1


def test_tables_csv(capsys, tmp_path):
    dest = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "tables", "--csv", str(dest))
    assert code == 0
    lines = dest.read_text().splitlines()
    # The frozen column order the README documents.
    assert lines[0] == (
        "row,k1,k1_star,l,l_star,r,delta0,delta1_stated,bch_bound,d_measured,t,"
        "h0_label,g1_labels,published_h0,published_g1,g1_poly,flag"
    )
    assert len(lines) == 8


def test_tables_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "--json", "-")
    blob = json.loads(out)
    assert len(blob["rows"]) == 7
    assert blob["rows"][0]["k1"] == 6


@pytest.mark.parametrize("argv", [
    ["tables", "--csv"],
    ["tables", "--json"],
    ["simulate", "--preset", "masking-n8-r0", "--u", "7", "--trials", "20", "--json"],
    ["simulate", "--preset", "masking-n8-r0", "--u", "7", "--trials", "20", "--csv"],
])
def test_unwritable_output_path_is_usage_error(capsys, tmp_path, argv):
    # A missing parent directory: one usage line on stderr, no traceback.
    dest = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, *argv, str(dest))
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert str(dest) in err


def test_build_table_enumerates_each_row_once(monkeypatch):
    import psmc.constructions
    import psmc.linear
    import psmc.tables

    calls = []
    original = psmc.linear.min_distance

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (psmc.linear, psmc.constructions, psmc.tables):
        monkeypatch.setattr(module, "min_distance", counted)
    assert len(psmc.tables.build_table()) == 7
    assert len(calls) == 7


def test_table_row_invariants():
    from psmc.tables import build_table

    for r in build_table():
        assert r.k1 + r.l + r.r == 8
        assert r.t == (r.d_measured - 1) // 2
        assert r.d_measured >= r.bch_bound
        assert r.delta0 == 2


def test_build_table_flags_a_published_t_that_disagrees(monkeypatch):
    import psmc.tables

    specs = [dict(spec) for spec in psmc.tables.TABLE8_ROWS]
    specs[2]["stated_t"] = 2  # row 3 corrects one error
    monkeypatch.setattr(psmc.tables, "TABLE8_ROWS", specs)
    flags = {r.row: r.flag for r in psmc.tables.build_table()}
    assert flags[3] == "published t=2, exact t=1; labels permuted vs published"
    assert [row for row, flag in flags.items() if "published t=" in flag] == [3]


def test_simulate_command(capsys, tmp_path):
    jdest = tmp_path / "r.json"
    cdest = tmp_path / "r.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--preset", "table8-row3", "--u", "2",
        "--t-inj", "1", "--trials", "200", "--seed", "5",
        "--json", str(jdest), "--csv", str(cdest),
    )
    assert code == 0
    blob = json.loads(jdest.read_text())
    assert blob["masking_rate"] == 1.0
    assert blob["decode_rate"] == 1.0
    lines = cdest.read_text().splitlines()
    assert lines[0].startswith("n,q,u,t_inj")
    # Appending a second campaign must not repeat the header.
    run_cli(
        capsys, "simulate", "--preset", "table8-row3", "--u", "2",
        "--trials", "100", "--seed", "6", "--csv", str(cdest),
    )
    lines = cdest.read_text().splitlines()
    assert len(lines) == 3 and lines[2].split(",")[-1] == "6"
    # A file that exists but is empty gets the header too.
    empty = tmp_path / "empty.csv"
    empty.touch()
    run_cli(
        capsys, "simulate", "--preset", "masking-n8-r0", "--u", "2",
        "--trials", "10", "--csv", str(empty),
    )
    lines = empty.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == ",".join(CSV_COLUMNS)


def test_simulate_config_file(capsys, tmp_path):
    cfgfile = tmp_path / "campaign.cfg"
    cfgfile.write_text(
        "# batch defaults\npreset=table8-row3\nu=2\nt-inj=0\ntrials=60\nseed=11\n"
    )
    code, out1, _ = run_cli(capsys, "simulate", "--config", str(cfgfile))
    assert code == 0 and "seed=11" in out1  # --u satisfied from the file
    # Explicit flags override file values.
    code, out2, _ = run_cli(
        capsys, "simulate", "--config", str(cfgfile), "--u", "2", "--seed", "12"
    )
    assert code == 0 and "seed=12" in out2
    code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope"), "--u", "1")
    assert code == 1 and "does not exist" in err
    # Every spelling argparse accepts reads the file: --config=FILE and an
    # abbreviation, alone and with an = sign.
    for spelling in (["--config=" + str(cfgfile)], ["--conf", str(cfgfile)], ["--conf=" + str(cfgfile)]):
        code, out3, _ = run_cli(capsys, "simulate", *spelling)
        assert code == 0 and "trials=60 " in out3 and "seed=11" in out3, spelling
    code, _, err = run_cli(capsys, "simulate", "--config=" + str(tmp_path / "nope"), "--u", "1")
    assert code == 1 and "does not exist" in err
    code, _, err = run_cli(capsys, "simulate", "--config=", "--u", "1")
    assert code == 1 and "does not exist" in err
    # An abbreviation that argparse cannot resolve is a usage error.
    code, _, err = run_cli(capsys, "simulate", "--c", str(cfgfile), "--u", "1")
    assert code == 1 and "ambiguous" in err


def test_simulate_human_output(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--preset", "masking-n8-r0", "--u", "2",
        "--trials", "50", "--seed", "1",
    )
    assert code == 0
    assert "mask_rate=1.000000" in out


def test_simulate_human_output_without_expected_rate(capsys):
    # Above the guarantee of an l = 3 code no exact masking rate is known.
    code, out, _ = run_cli(
        capsys, "simulate", "--preset", "extended-n8-l3", "--u", "4",
        "--trials", "50", "--seed", "1",
    )
    assert code == 0
    assert "expected=n/a" in out


def test_presets_roundtrip_random_messages():
    rng = np.random.default_rng(2024)
    for name in sorted(PRESETS):
        code = get_preset(name)
        q = code.alphabet.q
        for _ in range(1000):
            m = rng.integers(0, q, size=code.k1)
            u = int(rng.integers(0, code.u_max + 1))
            phi = tuple(int(x) for x in np.sort(rng.choice(code.n, size=u, replace=False)))
            out = code.encode(m, phi)
            assert all(out.codeword[p] >= 1 for p in phi)
            assert (code.decode(out.codeword) == m).all()


def test_every_exported_name_resolves():
    assert len(set(psmc.__all__)) == len(psmc.__all__)
    for name in psmc.__all__:
        assert hasattr(psmc, name), name


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "psmc", "prob", "--q", "3", "--u", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.777777777778"


def test_tables_byte_stable_across_processes():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "psmc", "tables"], capture_output=True, text=True
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
