"""Command-line interface: exit codes, output shapes, byte-identical JSON
for a fixed flag set, and the argv preprocessing that lets option values
start with a minus sign."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qexpand.cli import RunConfig, _fold_negative_values, main
from qexpand.identities import check_names
from qexpand.numeric import DEFAULT_PRECISION, DEFAULT_TOLERANCE, numeric_check_names


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- plumbing -----------------------------------------------------------------


def test_run_config_defaults():
    config = RunConfig()
    assert config.order == 10
    assert config.output == "text"
    assert config.seed == 0
    assert config.precision == DEFAULT_PRECISION
    assert config.tolerance == DEFAULT_TOLERANCE


def test_fold_negative_values():
    assert _fold_negative_values(["--b", "-q"]) == ["--b=-q"]
    assert _fold_negative_values(["--coeffs", "-1, q"]) == ["--coeffs=-1, q"]
    # double dashes are options, not values, and other flags are untouched
    assert _fold_negative_values(["--b", "--output"]) == ["--b", "--output"]
    assert _fold_negative_values(["--n", "-1"]) == ["--n", "-1"]
    assert _fold_negative_values(["--a"]) == ["--a"]


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2
    assert run_cli(capsys, "matrix", "--n", "x")[0] == 2
    code, _, err = run_cli(capsys, "matrix", "--n", "-1")
    assert code == 2 and "--n must be >= 0" in err
    code, _, err = run_cli(capsys, "numeric-verify", "--precision", "4")
    assert code == 2 and "--precision" in err


# -- matrix -------------------------------------------------------------------


def test_matrix_json_symbolic(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--which", "B", "--n", "3",
                           "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["which"] == "B"
    assert data["n"] == 3
    assert data["a"] == "a" and data["b"] == "b"
    entries = data["entries"]
    assert len(entries) == 4 and [len(row) for row in entries] == [1, 2, 3, 4]
    assert all(entries[i][i] == "1" for i in range(4))
    assert entries[2][1] == "a - b"


def test_matrix_order_zero(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--n", "0", "--output", "json")
    assert code == 0
    assert json.loads(out)["entries"] == [["1"]]


def test_matrix_specialized_and_text(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--which", "A", "--a", "1",
                           "--b", "-q", "--n", "2")
    assert code == 0
    assert "(n = 2, a = 1, b = -q)" in out
    # A[2][1] = b - a at a = 1, b = -q
    assert "-q - 1" in out


def test_matrix_parse_error(capsys):
    code, _, err = run_cli(capsys, "matrix", "--a", "((")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "matrix", "--a", "z")
    assert code == 2 and "series variable" in err


# -- expand -------------------------------------------------------------------


def test_expand_coeff_list_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "--coeffs", "1, q, q^2",
                           "--n", "4", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["triangular_solve"] == data["theorem15"]
    assert data["triangular_solve"][0] == "1"
    assert len(data["triangular_solve"]) == 5


def test_expand_too_many_coeffs(capsys):
    code, _, err = run_cli(capsys, "expand", "--coeffs", "1,2,3", "--n", "1")
    assert code == 2 and "exceed" in err


def test_expand_builtin_coogan_ono_all_ones(capsys):
    code, out, _ = run_cli(capsys, "expand", "--builtin", "coogan_ono",
                           "--a", "1", "--b", "-q", "--n", "8",
                           "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["triangular_solve"] == ["1"] * 9
    assert data["agree"] is True


def test_expand_basek_unit_vector(capsys):
    code, out, _ = run_cli(capsys, "expand", "--builtin", "basek", "--k", "3",
                           "--n", "5", "--output", "json")
    assert code == 0
    assert json.loads(out)["triangular_solve"] == ["0", "0", "0", "1", "0", "0"]


def test_expand_basek_out_of_range(capsys):
    code, _, err = run_cli(capsys, "expand", "--builtin", "basek", "--k", "9",
                           "--n", "4")
    assert code == 2 and "--k must lie in 0..4" in err


@pytest.mark.parametrize("coeffs", ["", " , "])
def test_expand_empty_coeff_list_exits_2(capsys, coeffs):
    # an empty list once fell through to the coogan_ono builtin (or, spelled
    # " , ", expanded the zero series) and exited 0
    code, out, err = run_cli(capsys, "expand", "--coeffs", coeffs, "--n", "3")
    assert code == 2 and "--coeffs lists no coefficients" in err
    assert out == ""


@pytest.mark.parametrize("spaced, packed", [("a * q, 1", "a*q,1"), ("1 + q", "1+q")])
def test_expand_coeff_entries_may_contain_spaces(capsys, spaced, packed):
    # entries were once split on whitespace too, so "1 + q" exited 2
    want = run_cli(capsys, "expand", "--coeffs", packed, "--n", "3")
    assert want[0] == 0
    assert run_cli(capsys, "expand", "--coeffs", spaced, "--n", "3") == want


def test_expand_coeffs_split_on_commas_only(capsys):
    code, out, err = run_cli(capsys, "expand", "--coeffs", "1 q", "--n", "3")
    assert code == 2 and out == "" and "trailing input" in err


# sha256 of the stdout of each command: the closed-formula (theorem15) and
# triangular-solve strings, and the inverse matrix, byte for byte
GOLDEN_STDOUT_SHA256 = {
    ("expand", "--coeffs", "1/(1-q),a*q,b^2-q", "--n", "4", "--a", "q/b",
     "--b", "a*q", "--output", "json"):
        "d21886fb4cd4572fe3fe9f6cd1f2c2d5e0c1ed326041a2be7e1eb3420b18a0ad",
    ("expand", "--builtin", "coogan_ono", "--a", "1", "--b", "-q", "--n", "12"):
        "251522d937e754ff129edb80c25f1c0c6980f6287b730f80cbf2e7ecce3b4f92",
    ("matrix", "--which", "B", "--n", "6", "--a", "1", "--b", "-q"):
        "6d306e3ea250aa31f76794500d9a4624f2546d377e6fa6e7bb70feb1b58256a8",
    # sums over one-term denominators that share content and monomials
    ("matrix", "--which", "B", "--n", "8", "--output", "json"):
        "b6634ca101ced45eb03b301b948d10f29dc3b7bcd9c4d61608f8d5cf266398eb",
    ("expand", "--coeffs", "1/3,2/5,q/7,a/(9*q^2),b/4", "--n", "9", "--output", "json"):
        "aecd7d069ee684eac73304f560f7538302867d51999360d5ff4cc5dc4f318a94",
    ("matrix", "--which", "B", "--n", "9", "--a", "2/3", "--b", "q/5", "--output", "json"):
        "b2f5325eaae707396653c127439b302ba06f757df5e778cff71ca45820c00b72",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_SHA256))
def test_exact_output_is_byte_stable(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


@pytest.mark.parametrize("coeffs", ["q^16777216", "q^16777215*q"])
def test_expand_exponent_overflow_exits_2(capsys, coeffs):
    # 2**24 overflows a packed exponent field; it once printed c[0] = 1
    code, out, err = run_cli(capsys, "expand", "--coeffs", coeffs, "--n", "0")
    assert code == 2 and "2**24" in err
    assert out == ""


@pytest.mark.parametrize("coeffs", [
    "(" * 200 + "q" + ")" * 200, "2^16777216",
    pytest.param("2^20000", id="power_past_4300_digits"),
    pytest.param("9" * 5000, id="literal_of_5000_digits"),
    pytest.param("2^14000*2^14000", id="product_past_4300_digits"),
])
def test_expand_unbounded_expressions_exit_2(capsys, coeffs):
    # deep nesting once ended in a RecursionError, a literal power had no
    # bound on its size, and integers past CPython's 4300-digit conversion
    # limit ended in a ValueError traceback, a power's or a product's when
    # printed
    code, out, err = run_cli(capsys, "expand", "--coeffs", coeffs, "--n", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("coeffs", ["(1+q)^20000", "(1-q)^20000", "(a-b*q)^20000"])
def test_expand_power_of_a_sum_past_4300_digits_exits_2_at_once(capsys, coeffs):
    # a multi-term base had no bound on its power's size; (1+q)^20000 ran
    # for minutes.  Its value at a point of ones and minus ones, to the
    # power, over the number of terms, proves a coefficient too long
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "expand", "--coeffs", coeffs, "--n", "0")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "4300-digit" in err


def test_expand_power_of_a_sum_within_the_limit_prints(capsys):
    # (1+q)^2000's largest coefficient has 601 digits: no proof, so it
    # prints, 885 kB of it, with the bytes it always had
    code, out, err = run_cli(capsys, "expand", "--coeffs", "(1+q)^2000", "--n", "0")
    assert code == 0 and err == ""
    assert len(out) == 885349
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a926d8733e4ba0cf1d3d2f59fe24090baa8195917cd42a5ff43c6920f200ac4c")


def test_expand_power_of_a_power_exits_2_before_computing():
    # (2^16777215)^16777215 asks for a 2^48-bit int; the child's address
    # space is capped so that a missing size check fails instead of swapping
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "qexpand.cli", "expand", "--coeffs", "(2^16777215)^16777215",
         "--n", "0"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "4300-digit" in proc.stderr


def test_long_unary_minus_chains_parse(capsys):
    # 1200 unary minuses once ended in a RecursionError
    code, out, err = run_cli(capsys, "matrix", "--n", "1", "--a=" + "-" * 1200 + "q",
                             "--output", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["a"] == "q"


# -- gn -----------------------------------------------------------------------


def test_gn_json_frozen_values(capsys):
    code, out, _ = run_cli(capsys, "gn", "--n", "3", "--output", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "g": ["1", "-q + 1", "q^3 - 2*q^2 + 1"],
    }


# -- verify / verify-all ------------------------------------------------------


def test_verify_pass_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "coogan_ono", "--n", "6")
    assert code == 0
    assert "coogan_ono  (n = 6): pass" in out
    assert "1/1 checks passed" in out


def test_verify_perturbed_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "coogan_ono", "--n", "6",
                           "--perturb", "1")
    assert code == 1
    assert "FAIL at z^2" in out
    assert "0/1 checks passed" in out


def test_verify_unknown_name(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuch")
    assert code == 2 and "unknown check" in err


def _help_text(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    return " ".join(out.split())


def test_help_lists_every_check_name(capsys):
    # the lists are filled in when help is printed, not when the parser is built
    assert "one of: " + ", ".join(check_names()) + " " in _help_text(capsys, "verify")
    numeric = ", ".join(numeric_check_names() + ["qqq"])
    assert (f"one of: {numeric} (default: whole battery)"
            in _help_text(capsys, "numeric-verify"))


def test_verify_multiple_names_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma13", "coogan_ono",
                           "--n", "5", "--output", "json")
    assert code == 0
    names = [r["name"] for r in json.loads(out)]
    assert names == ["lemma13", "coogan_ono"]


def test_verify_all_json_deterministic(capsys):
    args = ("verify-all", "--n", "5", "--seed", "7", "--output", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    reports = json.loads(out1)
    assert [r["name"] for r in reports] == check_names()
    assert all(r["passed"] for r in reports)


def test_verify_all_filter(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--n", "4",
                           "--filter", "rogers", "--output", "json")
    assert code == 0
    assert [r["name"] for r in json.loads(out)] == ["rogers_fine"]


def test_verify_all_filter_without_a_match_exits_2(capsys):
    # a typo once passed vacuously with "0/0 checks passed"
    code, out, err = run_cli(capsys, "verify-all", "--n", "4", "--filter", "zzz")
    assert code == 2 and out == ""
    assert err.startswith("error: no check matches 'zzz'")
    assert all(name in err for name in check_names())


# -- numeric-verify -----------------------------------------------------------


def test_numeric_verify_battery(capsys):
    code, out, _ = run_cli(capsys, "numeric-verify")
    assert code == 0
    assert "18/18 points passed" in out


def test_numeric_verify_points_file(tmp_path, capsys):
    pf = tmp_path / "points.json"
    pf.write_text(json.dumps([{"q": "1/10", "z": "1/5"}]))
    code, out, _ = run_cli(capsys, "numeric-verify", "--identity", "coogan_ono",
                           "--points", str(pf), "--output", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["point"] == {"q": "1/10", "z": "1/5"}
    assert reports[0]["passed"] is True


def test_numeric_verify_qqq(capsys):
    code, out, _ = run_cli(capsys, "numeric-verify", "--identity", "qqq",
                           "--output", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 6
    assert {r["name"] for r in reports} == {"qqq"}


def test_numeric_verify_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "numeric-verify", "--points", "x.json")
    assert code == 2 and "--points requires --identity" in err

    code, _, err = run_cli(capsys, "numeric-verify", "--identity", "nosuch")
    assert code == 2 and "unknown identity" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "numeric-verify", "--identity", "lemma13",
                           "--points", str(bad))
    assert code == 2 and "points file" in err

    notlist = tmp_path / "notlist.json"
    notlist.write_text("{\"q\": \"1/2\"}")
    code, _, err = run_cli(capsys, "numeric-verify", "--identity", "lemma13",
                           "--points", str(notlist))
    assert code == 2 and "array of objects" in err

    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps([{"q": "1/2", "z": "2"}]))
    code, _, err = run_cli(capsys, "numeric-verify", "--identity", "coogan_ono",
                           "--points", str(outside))
    assert code == 2 and "convergence region" in err

    code, _, err = run_cli(capsys, "numeric-verify", "--identity", "lemma13",
                           "--points", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("command", ["numeric-verify", "bench"])
@pytest.mark.parametrize("tol", ["1/0", "0", "-1/3", "abc"])
def test_tol_must_be_a_positive_rational(capsys, command, tol):
    # 1/0 once ended in a traceback, and 0 summed 200 000 terms first
    code, out, err = run_cli(capsys, command, f"--tol={tol}")
    assert code == 2 and out == ""
    assert "argument --tol:" in err


@pytest.mark.parametrize("m", ["x", 2.5])
def test_numeric_verify_qqq_non_integer_m_exits_2(tmp_path, capsys, m):
    # a non-integer m once escaped as a ValueError traceback with exit 1
    pf = tmp_path / "points.json"
    pf.write_text(json.dumps([{"m": m, "q": "1/2"}]))
    code, out, err = run_cli(capsys, "numeric-verify", "--identity", "qqq",
                             "--points", str(pf))
    assert code == 2 and "m: not an integer" in err
    assert out == ""


@pytest.mark.parametrize("identity,point,extra", [
    ("lemma13", {"q": "1/2", "z": "1/2", "b": 7}, "['b']"),
    ("lemma13", {"q": "3/10", "z": "2/5", "a": "1/2"}, "['a']"),
    ("coogan_ono", {"q": "3/10", "z": "2/5", "a": "1", "m": "2"}, "['a', 'm']"),
    ("qqq", {"m": 2, "q": "1/2", "z": "1/3"}, "['z']"),
], ids=["lemma13_b", "lemma13_a", "coogan_ono_a_m", "qqq_z"])
def test_numeric_verify_extra_symbols_exit_2(tmp_path, capsys, identity, point, extra):
    # a symbol the identity does not have was once dropped, and the point passed
    pf = tmp_path / "points.json"
    pf.write_text(json.dumps([point]))
    code, out, err = run_cli(capsys, "numeric-verify", "--identity", identity,
                             "--points", str(pf))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"symbols {extra}" in err


@pytest.mark.parametrize("identity,point", [
    # b = 1/q: the factor (1 - bq^n) is exactly 0 at n = 1
    ("rogers_fine", {"q": "1/5", "a": "3/10", "b": "5", "z": "1/5"}),
    # a = q^2: the factor (1 - aq^-2) of the negative half is exactly 0
    ("ramanujan_1psi1", {"q": "1/5", "a": "1/25", "b": "1/100", "z": "1/2"}),
], ids=["rogers_fine", "ramanujan_1psi1"])
def test_numeric_verify_pole_points_exit_2(tmp_path, capsys, identity, point):
    # both once ended in a ZeroDivisionError traceback with exit 1
    pf = tmp_path / "points.json"
    pf.write_text(json.dumps([point]))
    code, out, err = run_cli(capsys, "numeric-verify", "--identity", identity,
                             "--points", str(pf))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "denominator factor vanishes" in err


# -- bench --------------------------------------------------------------------


def test_bench_small_order(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "2", "--output", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(row["ok"] for row in rows)
    tasks = [row["task"] for row in rows]
    # an identity row splits its time into the build and the compare phase
    for row in rows:
        phases = {"build_s", "compare_s"} if row["task"].startswith("identity ") else set()
        assert set(row) == {"task", "seconds", "ok"} | phases, row
        assert all(row[k] >= 0 for k in phases), row
    # one row per registered check, so bench covers the whole corpus
    for name in check_names():
        assert tasks.count(f"identity {name} (n = 2)") == 1, name
    assert tasks.count("base_matrix + lt_inverse + product check (n = 2)") == 1
    assert tasks.count("expansion, both routes, random series (n = 2)") == 1
    assert tasks.count("numeric default battery") == 1


# -- module entry point -------------------------------------------------------


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qexpand.cli", "gn", "--n", "2",
         "--output", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 2, "g": ["1", "-q + 1"]}


def _fresh_modules(code):
    """The sorted module names loaded after running `code` in a fresh interpreter."""
    import qexpand

    src = str(Path(qexpand.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_does_not_load_numpy():
    assert "numpy" not in _fresh_modules("import qexpand.cli")


def test_cli_import_does_not_load_mpmath_or_engines():
    loaded = _fresh_modules("import qexpand.cli")
    assert "mpmath" not in loaded
    assert not {"qexpand.ring", "qexpand.series", "qexpand.inversion",
                "qexpand.identities", "qexpand.numeric"} & loaded


def test_numeric_verify_does_not_load_the_symbolic_engine():
    loaded = _fresh_modules(
        "import qexpand.cli\n"
        "assert qexpand.cli.main(['numeric-verify', '--identity', 'lemma13']) == 0"
    )
    assert "qexpand.numeric" in loaded
    assert not {"qexpand.ring", "qexpand.series", "qexpand.inversion",
                "qexpand.identities"} & loaded
    # dataclasses would pull in inspect, ast, dis and tokenize
    assert not {"dataclasses", "inspect"} & loaded
