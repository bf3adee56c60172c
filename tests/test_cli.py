import ast
import io
import math
import pathlib
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

import randlab
import randlab.rtypes
import randlab.semantics
from conftest import sample_elements
from randlab import FinProbSpace, Randomization, default_formula_corpus, rtype_of, type_space
from randlab.axioms import _covering_bindings
from randlab.cli import _rounded, _types_identity_lines, fmt_rat, main
from randlab.errors import DEFAULT_BUDGET, SHOWN_BITS, show_count
from randlab.formulas import format_formula, free_vars, parse_formula
from randlab.randomization import event_of, mu

WS = """
structure m2 { universe = 2; }
structure c3 { universe = 3; relation E/2 = {(0,1), (1,2), (2,0)}; }
structure l3 { universe = 3; relation Lt/2 = {(0,1), (0,2), (1,2)}; }
space dy1 { weights = [1/2, 1/2]; }
space dy3 { weights = [1/8, 1/8, 1/8, 1/8, 1/8, 1/8, 1/8, 1/8]; }
space sk { weights = [1/2, 1/3, 1/6]; }
randomization r1 { structure = m2; space = dy1; }
randomization m2x8 { structure = m2; space = dy3; }
element f = r1 [0, 1];
element g = r1 [0, 0];
event e1 = m2x8 {0, 1, 2, 3};
event e2 = m2x8 {0, 1};
element h = m2x8 [0, 1, 0, 1, 0, 1, 0, 1];
rmeasure nu1 { structure = l3; arity = 1; params = (); rtype { q0: 1/3, q2: 2/3 }; }
rmeasure nu2 { structure = l3; arity = 1; params = (); rtype { q0: 1/1 }; }
"""


@pytest.fixture()
def ws_file(tmp_path):
    path = tmp_path / "ws.rl"
    path.write_text(WS)
    return str(path)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_eval_exact_output(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "eval", "--rand", "r1",
        "--cformula", "mu[[ x = y ]]", "--bind", "x=f,y=g",
    )
    assert code == 0 and out.strip() == "1/2"


def test_eval_theory_sentence_prints_one(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "eval", "--rand", "r1",
        "--cformula", "mu[[ forall z (z = z) ]]",
    )
    assert code == 0 and out.strip() == "1/1"


def test_exit_code_resolution(ws_file):
    code, _, err = run(
        "--workspace", ws_file, "eval", "--rand", "zzz",
        "--cformula", "mu[[ x = x ]]",
    )
    assert code == 2 and "zzz" in err


def test_exit_code_parse(ws_file):
    code, _, _ = run(
        "--workspace", ws_file, "eval", "--rand", "r1", "--cformula", "mu[[ = ]]"
    )
    assert code == 3


def test_exit_code_budget(ws_file):
    code, _, err = run(
        "--workspace", ws_file, "--budget", "3", "eval", "--rand", "m2x8",
        "--cformula", "sup x (mu[[ x = x ]])",
    )
    assert code == 4 and "required count" in err


def test_types_arity_is_budgeted(ws_file):
    code, out, err = run("--workspace", ws_file, "types", "--structure", "l3", "--arity", "20")
    assert code == 4 and out == "" and f"required count {3**20}" in err
    code, _, err = run(
        "--workspace", ws_file, "--budget", "8", "types", "--structure", "l3", "--arity", "2"
    )
    assert code == 4 and "required count 9" in err
    # the isolating formulas of pairs enumerate the 3**3 triples
    code, out, err = run(
        "--workspace", ws_file, "--budget", "26", "types", "--structure", "l3", "--arity", "2"
    )
    assert code == 4 and out == "" and f"required count {3**3}" in err
    code, out, _ = run(
        "--workspace", ws_file, "--budget", "27", "types", "--structure", "l3", "--arity", "2"
    )
    assert code == 0 and out.startswith("q0 ")


def test_check_axioms(ws_file):
    code, out, _ = run("--workspace", ws_file, "check", "axioms", "--rand", "m2x8")
    assert code == 0
    assert "PASS axiom-atomless defect 1/16" in out


def test_check_independence_failure(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "check", "independence",
        "--rand", "r1", "--c", "f", "--b", "f",
    )
    assert code == 1
    assert "witness x = y" in out


def test_check_types_and_categoricity(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "check", "types", "--structure", "m2"
    )
    assert code == 0 and "PASS" in out
    code, out, _ = run(
        "--workspace", ws_file, "check", "categoricity", "--structure", "c3",
        "--nmax", "2",
    )
    assert code == 0 and "|S_2|=3" in out


def test_budget_below_one_is_a_parse_error(ws_file):
    for value in ("0", "-5"):
        code, out, err = run(
            "--workspace", ws_file, "--budget", value, "types", "--structure", "c3"
        )
        assert (code, out, err) == (3, "", f"error: --budget must be at least 1, got {value}\n")


def test_budget_reaches_check_categoricity(ws_file):
    triples = 3**3
    argv = ["check", "categoricity", "--structure", "c3", "--nmax", "3"]
    code, out, err = run("--workspace", ws_file, "--budget", str(triples - 1), *argv)
    assert (code, out) == (4, "") and f"required count {triples}" in err
    code, out, _ = run("--workspace", ws_file, "--budget", str(triples), *argv)
    # the rotations act freely on triples: 9 types, and measures with
    # denominators up to 4 counted by the battery's closed form
    s = triples // 3
    count = math.comb(s + 3, 4) + math.comb(s + 2, 3) - s
    assert code == 0 and out.endswith(f"PASS realize-battery n=3 count={count}\n")


def _forget_groups():
    """Empty the caches through which a built group skips its search."""
    randlab.semantics._automorphisms_cached.cache_clear()
    randlab.semantics._type_space_cached.cache_clear()


def test_budget_reaches_the_automorphism_search(tmp_path):
    path = tmp_path / "p.rl"
    path.write_text("structure p8 { universe = 8; }\nstructure p9 { universe = 9; }\n")
    try:
        for n in (8, 9):
            # the generator search on a pure set of n looks, at each level
            # i < n-1, for the swap of i and i+1 under the identity on
            # 0..i-1, trying the n - i images i+1, i, i+2, ..., n-1:
            # 2 + 3 + ... + n = n(n+1)/2 - 1 candidates
            tries = n * (n + 1) // 2 - 1
            _forget_groups()
            argv = ["types", "--structure", f"p{n}"]
            code, out, err = run("--workspace", str(path), "--budget", str(tries - 1), *argv)
            assert (code, out) == (4, "")
            assert err == f"error: automorphism search over budget (required count {tries})\n"
            code, out, _ = run("--workspace", str(path), "--budget", str(tries), *argv)
            assert (code, out) == (0, f"q0 rep (0,) orbit-size {n} isolated-by x0 = x0\n")
    finally:
        _forget_groups()


def test_a_cached_group_is_refused_where_its_search_would_be(tmp_path):
    path = tmp_path / "p9.rl"
    path.write_text("structure p9 { universe = 9; }\n")
    tries = 9 * 10 // 2 - 1  # as in test_budget_reaches_the_automorphism_search
    types = ("--workspace", str(path), "types", "--structure", "p9")
    refused = (4, "", f"error: automorphism search over budget (required count {tries})\n")
    passed = (0, "q0 rep (0,) orbit-size 9 isolated-by x0 = x0\n", "")
    _forget_groups()
    try:
        # one candidate short before and after a run that built the group
        assert run("--budget", str(tries - 1), *types) == refused
        assert run("--budget", str(tries), *types) == passed
        assert run("--budget", str(tries - 1), *types) == refused
        with pytest.raises(randlab.BudgetError) as err:
            with randlab.errors.budget(tries - 1):
                randlab.automorphisms(randlab.pure_set(9))
        assert err.value.required == tries
    finally:
        _forget_groups()


@pytest.mark.parametrize("n", [9, 12])
def test_pure_sets_of_nine_and_more_build_under_the_default_budget(tmp_path, n):
    # their generator searches try n(n+1)/2 - 1 candidates, where the
    # backtrack over the whole group was refused at 200001
    path = tmp_path / "p.rl"
    path.write_text(f"structure p{n} {{ universe = {n}; }}\n")
    ws = ("--workspace", str(path))
    assert run(*ws, "types", "--structure", f"p{n}", "--arity", "2") == (0, (
        f"q0 rep (0, 0) orbit-size {n} isolated-by x0 = x1\n"
        f"q1 rep (0, 1) orbit-size {n * (n - 1)} isolated-by !x0 = x1\n"
    ), "")
    assert run(*ws, "check", "categoricity", "--structure", f"p{n}") == (0, (
        "PASS type-space-size n=1 |S_1|=1 (finite)\n"
        "PASS realize-battery n=1 count=1\n"
        "PASS type-space-size n=2 |S_2|=2 (finite)\n"
        "PASS realize-battery n=2 count=7\n"
    ), "")


def test_budget_reaches_the_axiom_covering(tmp_path):
    path = tmp_path / "u4.rl"
    path.write_text(
        WS + "space u4 { weights = [1/4, 1/4, 1/4, 1/4]; }\n"
        "randomization rc3 { structure = c3; space = u4; }\n"
    )
    # three variables over C3: ceil(3^3 / 4) bindings, each over 4 points
    slots = -(-(3**3) // 4) * 4
    argv = ["check", "axioms", "--rand", "rc3"]
    code, _, err = run("--workspace", str(path), "--budget", str(slots - 1), *argv)
    assert code == 4
    assert f"axiom covering over budget (required count {slots})" in err
    code, _, _ = run("--workspace", str(path), "--budget", str(slots), *argv)
    assert code == 0


def test_budget_reaches_rho(ws_file):
    # the 1-type space of C3 has its 3 elements as tuples
    code, out, err = run(
        "--workspace", ws_file, "--budget", "2", "rho", "--structure", "c3",
        "--phi", "E(x, y)", "--p", "q0", "--b", "1",
    )
    assert (code, out) == (4, "") and "required count 3" in err


def test_budget_reaches_the_trace_table(tmp_path):
    # one x and three y names: the trace table holds |M|^4 (a, b) pairs,
    # charged before any of them is evaluated
    path = tmp_path / "m.rl"
    path.write_text("structure m3 { universe = 3; }\nstructure m30 { universe = 30; }\n")
    argv = ["rho", "--phi", "x = y | y = z | z = u", "--y", "y,z,u", "--p", "q0", "--b", "0,1,2"]
    refused = "error: trace table over budget (required count {})\n"
    code, out, err = run("--workspace", str(path), "--budget", "500", *argv, "--structure", "m30")
    assert (code, out, err) == (4, "", refused.format(810000))
    code, out, err = run("--workspace", str(path), "--budget", "80", *argv, "--structure", "m3")
    assert (code, out, err) == (4, "", refused.format(81))
    code, out, _ = run("--workspace", str(path), "--budget", "81", *argv, "--structure", "m3")
    assert (code, out) == (0, "1/3\n")


def test_over_budget_commands_exit_4(tmp_path):
    path = tmp_path / "big.rl"
    path.write_text(
        WS + "structure big { universe = 59; }\n"
        "randomization rbig { structure = big; space = dy1; }\n"
    )
    # ceil(59^3 / 2) three-variable bindings over 2 points (or 59^3 / 4 over 4)
    covering = "axiom covering over budget (required count 205380)"
    for argv, message in [
        (["check", "axioms", "--rand", "rbig"], covering),
        (["convex", "--parts", "1/2:rbig,1/2:rbig"], covering),
        (["check", "types", "--structure", "big"], covering),
        (
            ["types", "--structure", "l3", "--arity", str(10**12)],
            f"(required count at least 2^{10**12})",
        ),
    ]:
        code, _, err = run("--workspace", str(path), *argv)
        assert code == 4 and message in err, argv


def test_check_categoricity_says_when_it_skips_the_battery(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "check", "categoricity", "--structure", "c3",
        "--nmax", "3",
    )
    assert code == 0
    assert out.splitlines() == [
        "PASS type-space-size n=1 |S_1|=1 (finite)",
        "PASS realize-battery n=1 count=1",
        "PASS type-space-size n=2 |S_2|=3 (finite)",
        "PASS realize-battery n=2 count=22",
        "PASS type-space-size n=3 |S_3|=9 (finite)",
        "PASS realize-battery n=3 count=651",
    ]


def test_rho_command(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "rho", "--structure", "m2",
        "--phi", "x = y", "--p", "q0", "--b", "0",
    )
    assert code == 0 and out.strip() == "1/2"


def test_dmetric_command(ws_file):
    code, out, _ = run("--workspace", ws_file, "dmetric", "--m1", "nu1", "--m2", "nu2")
    assert code == 0 and out.strip() == "2/3"


def test_realize_command(ws_file):
    code, out, _ = run("--workspace", ws_file, "realize", "--rmeasure", "nu1")
    assert code == 0 and "round-trip exact" in out


def test_fiber_command(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "fiber", "--mu", "dy1", "--nu", "sk",
        "--pix", "0,1", "--piy", "0,1,1",
    )
    assert code == 0 and "marginals exact" in out
    # mismatched images are rejected, naming the offending base point
    code, _, err = run(
        "--workspace", ws_file, "fiber", "--mu", "dy1", "--nu", "sk",
        "--pix", "0,1", "--piy", "0,0,1",
    )
    assert code == 2 and "differ at base point" in err
    # a map must have one entry per point of its space, no more and no fewer
    for pix, piy, message in (
        ("0,1", "0,1,1,1", "--piy has 4 entries for 3 points"),
        ("0", "0,1,1", "--pix has 1 entries for 2 points"),
    ):
        code, out, err = run(
            "--workspace", ws_file, "fiber", "--mu", "dy1", "--nu", "sk",
            "--pix", pix, "--piy", piy,
        )
        assert (code, out) == (2, "") and message in err


def test_extend_command(tmp_path, ws_file):
    prob = tmp_path / "prob.txt"
    prob.write_text("= 3/5 : 1,0\n= 2/5 : 0,1\n")
    code, out, _ = run("--workspace", ws_file, "extend", "--problem", str(prob))
    assert code == 0 and "FEASIBLE" in out and "3/5" in out

    prob2 = tmp_path / "prob2.txt"
    prob2.write_text("<= 1/4 : 1,0\n<= 1/4 : 0,1\n")
    code, out, _ = run("--workspace", ws_file, "extend", "--problem", str(prob2))
    assert code == 0 and "INFEASIBLE" in out and "verifies" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("= 1 : \n", "empty ground set"),
        ("<= 1 : \n", "empty ground set"),
        ("<= 1/2 : 1,0\n= 1 : 1,1\n", "problem mixes <= and = constraints"),
    ],
)
def test_extend_bad_problem_exits_validation(tmp_path, ws_file, text, message):
    prob = tmp_path / "prob.txt"
    prob.write_text(text)
    code, out, err = run("--workspace", ws_file, "extend", "--problem", str(prob))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


def test_convex_command(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "convex", "--parts", "1/2:r1,1/2:r1"
    )
    assert code == 0
    assert "PASS axiom-measure" in out
    # a lopsided mix has a non-dyadic base: exact groups pass, atomless not
    code, out, _ = run(
        "--workspace", ws_file, "convex", "--parts", "1/2:r1,1/2:m2x8"
    )
    assert code == 1
    assert "FAIL axiom-atomless" in out and "FAIL axiom-measure" not in out


def test_approx_simple_refuses_another_randomizations_names(ws_file):
    code, out, err = run(
        "--workspace", ws_file, "approx-simple", "--rand", "m2x8",
        "--f", "f", "--algebra", "e1", "--eps", "1",
    )
    assert (code, out) == (2, "")
    assert err == "error: element 'f' belongs to 'r1', not 'm2x8'\n"
    code, out, err = run(
        "--workspace", ws_file, "approx-simple", "--rand", "r1",
        "--f", "f", "--algebra", "e1", "--eps", "1",
    )
    assert (code, out) == (2, "")
    assert err == "error: event 'e1' belongs to 'm2x8', not 'r1'\n"


def test_rho_hat_refuses_measures_on_another_structure(tmp_path):
    path = tmp_path / "ws2.rl"
    path.write_text(WS + (
        "rmeasure p2 { structure = m2; arity = 1; params = (); rtype { q0: 1/1 }; }\n"
        "rmeasure q2 { structure = m2; arity = 1; params = (); rtype { q0: 1/1 }; }\n"
    ))
    for mode in ("--rho-hat", "--certify"):
        code, out, err = run(
            "--workspace", str(path), "rho", "--structure", "c3", "--phi", "E(x, y)",
            mode, "--p-measure", "p2", "--q-measure", "q2",
        )
        assert (code, out) == (2, ""), mode
        assert err == "error: type measures live on a different structure than phi\n"


def test_check_axioms_decides_a_large_non_uniform_base(tmp_path):
    # 20 points, one heavy: the defect is half the heaviest atom
    path = tmp_path / "ws2.rl"
    weights = ", ".join(["1/2"] + ["1/38"] * 19)
    path.write_text(WS + (
        f"space big {{ weights = [{weights}]; }}\n"
        "randomization rbig { structure = m2; space = big; }\n"
    ))
    code, out, _ = run("--workspace", str(path), "check", "axioms", "--rand", "rbig")
    assert code == 1
    lines = out.splitlines()
    assert lines[-2] == "FAIL axiom-atomless defect 1/4 vs threshold 1/76"
    assert all(ln.startswith("PASS") for ln in lines if "atomless" not in ln)


def test_approx_simple_command(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "approx-simple", "--rand", "m2x8",
        "--f", "h", "--algebra", "e1;e2", "--eps", "1",
    )
    assert code == 0 and "dK" in out


def test_types_command(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "types", "--structure", "c3", "--arity", "2"
    )
    assert code == 0
    assert "q1 rep (0, 1)" in out and "E(x0, x1)" in out


def test_rho_hat_and_certify_commands(tmp_path):
    ws = WS + (
        "rmeasure pj { structure = m2; arity = 2; params = (); "
        "rtype { q0: 1/2, q1: 1/2 }; }\n"
        "rmeasure qj { structure = m2; arity = 2; params = (); "
        "rtype { q0: 1/1 }; }\n"
    )
    path = tmp_path / "ws2.rl"
    path.write_text(ws)
    code, out, _ = run(
        "--workspace", str(path), "rho", "--structure", "m2", "--phi", "x = y",
        "--w", "w", "--rho-hat", "--p-measure", "pj", "--q-measure", "qj",
    )
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(
        "--workspace", str(path), "rho", "--structure", "m2", "--phi", "x = y",
        "--w", "w", "--certify", "--p-measure", "pj", "--q-measure", "qj",
    )
    assert code == 0 and "FEASIBLE" in out


def test_empty_workspace_resolution_failure():
    code, _, err = run("check", "axioms", "--rand", "m2x8")
    assert code == 2 and "m2x8" in err


def test_determinism(ws_file):
    args = ("--workspace", ws_file, "check", "axioms", "--rand", "m2x8")
    assert run(*args) == run(*args)


def test_decimal_flag(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "--decimal", "3", "eval", "--rand", "r1",
        "--cformula", "mu[[ x = y ]]", "--bind", "x=f,y=g",
    )
    assert code == 0 and out.strip() == "1/2 (0.500)"


def test_decimal_digits_are_exact(ws_file):
    code, out, _ = run(
        "--workspace", ws_file, "--decimal", "30", "eval", "--rand", "r1", "--cformula", "1/3"
    )
    assert code == 0 and out.strip() == "1/3 (0.333333333333333333333333333333)"
    assert fmt_rat(Fraction(1, 3), 30) == "1/3 (0.333333333333333333333333333333)"


def test_decimal_ties_round_half_to_even():
    assert fmt_rat(Fraction(1, 2000), 3) == "1/2000 (0.000)"
    assert fmt_rat(Fraction(3, 2000), 3) == "3/2000 (0.002)"
    assert fmt_rat(Fraction(5, 2), 0) == "5/2 (2)"
    assert fmt_rat(Fraction(-1, 2000), 3) == "-1/2000 (-0.000)"


def _decimal_oracle(x, k):
    """x quantized to k places by `decimal`, at a precision that leaves no
    doubt about the rounding: a run of nines in n/d is shorter than d."""
    num, den = Decimal(x.numerator), Decimal(x.denominator)
    prec = len(str(abs(x.numerator) // x.denominator)) + k + len(str(x.denominator)) + 5
    with localcontext() as ctx:
        ctx.prec = prec
        exact = num / den
        return format(exact.quantize(Decimal(1).scaleb(-k), rounding=ROUND_HALF_EVEN), "f")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    hst.fractions(max_denominator=10**6).filter(lambda x: abs(x) < 10**6)
    | hst.integers(-10**4, 10**4).map(lambda n: Fraction(n, 2000)),
    hst.integers(0, 40),
)
def test_decimal_matches_decimal_quantization(x, k):
    assert fmt_rat(x, k) == f"{x.numerator}/{x.denominator} ({_decimal_oracle(x, k)})"


def _long_division(x, k):
    """x to k places by long division, rounded half to even on the
    remainder; a negative x keeps its sign, as `fmt_rat` does."""
    q, r = divmod(abs(x.numerator), x.denominator)
    digits = []
    for _ in range(k):
        d, r = divmod(10 * r, x.denominator)
        digits.append(d)
    last = digits[-1] if digits else q
    if 2 * r > x.denominator or (2 * r == x.denominator and last % 2):
        i = len(digits) - 1
        while i >= 0 and digits[i] == 9:
            digits[i] = 0
            i -= 1
        if i >= 0:
            digits[i] += 1
        else:
            q += 1
    return f"{'-' if x < 0 else ''}{q}." + "".join(map(str, digits))


def test_decimal_of_more_digits_than_str_converts(ws_file):
    # 5000 digits: past the interpreter's 4300-digit limit on str(int)
    code, out, err = run(
        "--workspace", ws_file, "--decimal", "5000", "eval", "--rand", "r1", "--cformula", "2/7"
    )
    assert (code, err) == (0, "") and out == f"2/7 ({_long_division(Fraction(2, 7), 5000)})\n"
    tiny = Fraction(1, 2 * 10**5000)
    for x in (
        Fraction(-2, 7),
        Fraction(10**5001 - 1, 10**5001),  # carries into the units
        tiny, 3 * tiny, -tiny,  # ties go to the even digit
    ):
        assert _rounded(x, 5000) == _long_division(x, 5000)
    assert _long_division(Fraction(10**5001 - 1, 10**5001), 5000) == "1." + "0" * 5000
    assert _long_division(3 * tiny, 5000).endswith("02")


def test_a_value_of_more_digits_than_str_converts_prints(ws_file):
    # each constant is under the interpreter's 4300-digit limit on str(int),
    # and the difference's denominator (about 7700 digits) is past it
    a, c = 3**8000, 2**13000
    code, out, err = run(
        "--workspace", ws_file, "eval", "--rand", "r1", "--cformula", f"{a}/{a + 1} -. 1/{c}"
    )
    assert (code, err) == (0, "")
    x = Fraction(a, a + 1) - Fraction(1, c)
    assert x.denominator > 10**4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{x.numerator}/{x.denominator}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_an_rtype_index_of_more_digits_than_int_converts_exits_parse(ws_file, tmp_path):
    path = tmp_path / "long.rl"
    for digits, code_want, message in (
        ("1" * 5000, 3, "error: integer with 5000 digits is too long"),
        ("9" * 4300, 2, "error: rmeasure nu3: entry q9999"),
    ):
        path.write_text(
            WS + f"rmeasure nu3 {{ structure = l3; arity = 1; rtype {{ q{digits}: 1 }}; }}\n"
        )
        code, out, err = run("--workspace", str(path), "types", "--structure", "c3")
        assert (code, out) == (code_want, "")
        assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--rand", "r1", "--cformula", "~" * 600 + "1/3"],
        ["eval", "--rand", "r1", "--cformula", "mu[[ " + "!" * 600 + " #0 = #0 ]]"],
        ["check", "stability", "--structure", "l3", "--phi", "!" * 600 + " Lt(x, y)"],
    ],
    ids=["cformula", "event-formula", "stability-phi"],
)
def test_a_formula_that_parses_but_is_too_deep_to_evaluate_exits_parse(ws_file, argv):
    code, out, err = run("--workspace", ws_file, *argv)
    assert (code, out, err) == (3, "", "error: formula nested too deeply to evaluate\n")


def test_zero_denominator_exits_parse(ws_file, tmp_path):
    code, out, err = run(
        "--workspace", ws_file, "eval", "--rand", "r1", "--cformula", "1/0"
    )
    assert (code, out) == (3, "") and "zero denominator" in err
    bad = tmp_path / "bad.rl"
    bad.write_text("space s { weights = [1/0, 1/2]; }\n")
    code, out, err = run(
        "--workspace", str(bad), "eval", "--rand", "r1", "--cformula", "1"
    )
    assert (code, out) == (3, "") and "zero denominator" in err


def test_element_outside_universe_exits_validation(tmp_path):
    bad = tmp_path / "bad.rl"
    bad.write_text(
        "structure c2 { universe = 2; relation E/2 = {(0,1)}; }\n"
        "space s { weights = [1/2, 1/2]; }\n"
        "randomization r { structure = c2; space = s; }\n"
        "element e = r [0, 5];\n"
    )
    code, out, err = run(
        "--workspace", str(bad), "eval", "--rand", "r",
        "--cformula", "mu[[ E(x, x) ]]", "--bind", "x=e",
    )
    assert (code, out) == (2, "") and "outside the universe" in err


def test_bad_numbers_in_arguments_exit_parse(ws_file, tmp_path):
    prob = tmp_path / "bad.txt"
    prob.write_text("= 1/2 : 1,0\n= 1/0 : 1\n")
    rho = ["rho", "--structure", "c3", "--phi", "E(x, y)"]
    cases = [
        (["extend", "--problem", str(prob)], "zero denominator"),
        (["convex", "--parts", "1/0:r1"], "zero denominator"),
        (rho + ["--p", "q0", "--b", "a"], "unexpected character 'a'"),
        (rho + ["--p", "q", "--b", "0"], "expected int"),
        (rho + ["--p", "q-1", "--b", "0"], "expected int"),
        (rho + ["--p", "0", "--b", "0", "--A", "1.5"], "unexpected character '.'"),
        (rho + ["--b", "0"], "needs --p and --b"),
        (rho + ["--x", "x,", "--p", "q0", "--b", "1"], "bad variable name ''"),
        (rho + ["--y", "Y", "--p", "q0", "--b", "1"], "bad variable name 'Y'"),
        (rho + ["--w", "w,,v", "--p", "q0", "--b", "1"], "bad variable name ''"),
        (["approx-simple", "--rand", "m2x8", "--f", "h", "--algebra", "e1", "--eps", "0.5"],
         "unexpected character '.'"),
        (["types", "--structure", "c3", "--params", "0,,1"], "expected int"),
        (["fiber", "--mu", "dy1", "--nu", "sk", "--pix", "0,1", "--piy", "0,1,x"],
         "unexpected character 'x'"),
    ]
    for argv, message in cases:
        code, out, err = run("--workspace", ws_file, *argv)
        assert (code, out) == (3, ""), argv
        assert message in err, (argv, err)


def test_rho_type_outside_the_space_exits_validation(ws_file):
    rho = ["--workspace", ws_file, "rho", "--structure", "c3", "--phi", "E(x, y)"]
    code, out, err = run(*rho, "--p", "q9", "--b", "0")
    assert (code, out) == (2, "") and "no type q9 in a space of 1 types" in err
    code, out, err = run(*rho, "--p", "7", "--b", "0")
    assert (code, out) == (2, "") and "outside the universe" in err
    code, out, err = run(*rho, "--p", "q0", "--b", "9")
    assert (code, out) == (2, "") and "b (9,) outside the universe of size 3" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "axioms"], "check axioms needs --rand"),
        (["check", "independence", "--c", "f", "--b", "f"], "check independence needs --rand"),
        (["check", "independence", "--rand", "r1", "--b", "f"], "check independence needs --c"),
        (["check", "independence", "--rand", "r1", "--c", "f"], "check independence needs --b"),
        (["check", "types"], "check types needs --structure"),
        (["check", "categoricity"], "check categoricity needs --structure"),
        (["check", "stability"], "check stability needs --structure"),
        (["check", "categoricity", "--structure", "c3", "--nmax", "0"],
         "--nmax must be at least 1, got 0"),
        (["rho", "--structure", "l3", "--phi", "Lt(x, y)", "--rho-hat"],
         "rho --rho-hat needs --p-measure, --q-measure"),
        (["rho", "--structure", "l3", "--phi", "Lt(x, y)", "--rho-hat", "--q-measure", "nu1"],
         "rho --rho-hat needs --p-measure"),
        (["rho", "--structure", "l3", "--phi", "Lt(x, y)", "--certify", "--p-measure", "nu1"],
         "rho --certify needs --q-measure"),
    ],
    ids=[
        "axioms-rand", "independence-rand", "independence-c", "independence-b",
        "types-structure", "categoricity-structure", "stability-structure",
        "categoricity-nmax", "rho-hat-measures", "rho-hat-p-measure",
        "certify-q-measure",
    ],
)
def test_check_without_a_needed_option_exits_parse(ws_file, argv, message):
    code, out, err = run("--workspace", ws_file, *argv)
    assert (code, out) == (3, "") and message in err


def test_negative_decimal_exits_parse(ws_file):
    argv = ["--workspace", ws_file, "--decimal", "-1", "eval", "--rand", "r1",
            "--cformula", "mu[[ x = x ]]", "--bind", "x=f"]
    code, out, err = run(*argv)
    assert (code, out) == (3, "") and "--decimal must be at least 0, got -1" in err
    argv[3] = "0"
    assert run(*argv)[:2] == (0, "1/1 (1)\n")


def test_uncaught_error_exits_internal(ws_file, monkeypatch):
    import randlab.cli

    def broken(args, ws):
        raise KeyError("lost")

    monkeypatch.setattr(randlab.cli, "cmd_types", broken)
    code, out, err = run("--workspace", ws_file, "types", "--structure", "c3")
    assert (code, out) == (5, "")
    assert err == "internal error: KeyError: 'lost'\n"


@pytest.mark.parametrize("bind", ["x=f,x=g", "x=g,x=f"])
def test_variable_bound_twice_exits_parse(ws_file, bind):
    code, out, err = run(
        "--workspace", ws_file, "eval", "--rand", "r1",
        "--cformula", "mu[[ x = #0 ]]", "--bind", bind,
    )
    assert (code, out) == (3, "") and "variable 'x' is bound twice" in err


def test_check_samples_flag_is_rejected(ws_file):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["--workspace", ws_file, "check", "types", "--structure", "c3",
              "--samples", "24"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples 24" in err.getvalue()


# --- check types: decided on the covering -----------------------------------------

def _flip_at(monkeypatch, phi0, reps):
    """Make randlab.rtypes.eval_formula answer wrong for phi0 at the valuations
    `reps`, given in sorted-variable order."""
    real = randlab.rtypes.eval_formula

    def faulty(m, phi, val):
        truth = real(m, phi, val)
        if phi == phi0 and tuple(val[v] for v in sorted(val)) in reps:
            return not truth
        return truth

    monkeypatch.setattr(randlab.rtypes, "eval_formula", faulty)


def _identity_holds(rand, phi, binding):
    fv = sorted(free_vars(phi))
    lhs = rtype_of(rand, [binding[v] for v in fv]).formula_mass(phi, fv)
    return lhs == mu(rand, event_of(rand, phi, binding))


def _seeded_draws(st):
    """The tuples `check types` used to draw: three per corpus formula from six
    elements over uniform(4), with one random.Random(7) throughout."""
    rand = Randomization.constant(st, FinProbSpace.uniform(4))
    pool = sample_elements(rand, 6, seed=7)
    rng = random.Random(7)
    draws = [
        (phi, [[rng.choice(pool) for _ in free_vars(phi)] for _ in range(3)])
        for phi in default_formula_corpus(st.signature)
    ]
    return rand, draws


def _failing_lines(st):
    return [line for line in _types_identity_lines(st) if not line.startswith("PASS")]


def test_check_types_catches_a_fault_the_seeded_draws_miss(monkeypatch, c3):
    rand, draws = _seeded_draws(c3)
    space = type_space(c3, 3, ())
    # a three-variable formula and a type that none of its draws takes at any point
    phi0, tuples, q = next(
        (phi, tuples, q)
        for phi, tuples in draws
        if len(free_vars(phi)) == 3
        for q in space.types
        if q not in {
            space.type_of(tuple(f(w) for f in tup)) for tup in tuples for w in rand.base.points
        }
    )
    _flip_at(monkeypatch, phi0, {q.rep})
    fv = sorted(free_vars(phi0))
    assert all(_identity_holds(rand, phi0, dict(zip(fv, tup))) for tup in tuples)
    assert _failing_lines(c3) == [f"FAIL types-identity {format_formula(phi0)}"]


def test_check_types_keeps_opposite_faults_apart(monkeypatch, c3):
    phi0 = parse_formula("x = y | x = z", c3.signature)
    # phi0 holds at the first type and fails at the second: opposite faults
    flips = {(0, 2, 0), (0, 2, 1)}
    assert flips <= {q.rep for q in type_space(c3, 3, ()).types}
    _flip_at(monkeypatch, phi0, flips)
    # every covering binding over uniform(4) meets the two types equally often
    uniform = Randomization.constant(c3, FinProbSpace.uniform(4))
    assert all(_identity_holds(uniform, phi0, b) for b in _covering_bindings(uniform, "xyz"))
    assert _failing_lines(c3) == ["FAIL types-identity x = y | x = z"]


def test_no_module_of_the_package_imports_random():
    for path in sorted(pathlib.Path(randlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "random"], path.name


def test_show_count_prints_the_count_or_its_order_of_magnitude():
    assert show_count(0) == "0"
    assert show_count(2**SHOWN_BITS - 1) == str(2**SHOWN_BITS - 1)
    assert show_count(2**SHOWN_BITS) == f"at least 2^{SHOWN_BITS}"
    assert show_count(None, 10**12 + 1) == f"at least 2^{10**12}"


def test_independence_over_a_large_fragment_prints_its_count(tmp_path):
    # L25 is rigid, so its 3-tuples form 25^3 orbits and the fragment has
    # 2^(25^3) orbit unions: too long a number for str()
    lt = ", ".join(f"({i},{j})" for i in range(25) for j in range(i + 1, 25))
    path = tmp_path / "l25.rl"
    path.write_text(
        f"structure l25 {{ universe = 25; relation Lt/2 = {{{lt}}}; }}\n"
        "space two { weights = [1/3, 2/3]; }\n"
        "randomization r { structure = l25; space = two; }\n"
        "element c = r [3, 3];\nelement b = r [7, 7];\nelement a = r [11, 11];\n"
    )
    code, out, err = run(
        "--workspace", str(path), "check", "independence", "--rand", "r",
        "--c", "c", "--b", "b", "--A", "a",
    )
    assert (code, out, err) == (0, f"PASS independence checked=at least 2^{25**3}\n", "")


_EVAL = ("eval", "--rand", "r1", "--cformula", "mu[[x = #0]]", "--bind")
_INDEPENDENCE = ("check", "independence", "--rand", "m2x8")
_APPROX = ("approx-simple", "--rand", "r1", "--eps", "1/2")


@pytest.mark.parametrize("argv, message", [
    ((*_EVAL, "x=h"), "element 'h' belongs to 'm2x8', not 'r1'"),
    ((*_EVAL, "x=e1"), "event 'e1' belongs to 'm2x8', not 'r1'"),
    ((*_EVAL, "x=zz"), "unknown element or event 'zz'"),
    ((*_INDEPENDENCE, "--c", "f", "--b", "h"), "element 'f' belongs to 'r1', not 'm2x8'"),
    ((*_INDEPENDENCE, "--c", "zz", "--b", "h"), "unknown element 'zz'"),
    ((*_INDEPENDENCE, "--c", "h", "--b", "h, g"), "element 'g' belongs to 'r1', not 'm2x8'"),
    ((*_INDEPENDENCE, "--c", "h", "--b", "zz"), "unknown element 'zz'"),
    ((*_INDEPENDENCE, "--c", "h", "--b", "h", "--A", "f"), "element 'f' belongs to 'r1', not 'm2x8'"),
    ((*_INDEPENDENCE, "--c", "h", "--b", "h", "--A", "zz"), "unknown element 'zz'"),
    ((*_APPROX, "--f", "h", "--algebra", "e1"), "element 'h' belongs to 'm2x8', not 'r1'"),
    ((*_APPROX, "--f", "zz", "--algebra", "e1"), "unknown element 'zz'"),
    ((*_APPROX, "--f", "f", "--algebra", "; e1 "), "event 'e1' belongs to 'm2x8', not 'r1'"),
    ((*_APPROX, "--f", "f", "--algebra", "zz"), "unknown event 'zz'"),
])
def test_a_name_from_another_randomization_or_none_is_refused(ws_file, argv, message):
    assert run("--workspace", ws_file, *argv) == (2, "", f"error: {message}\n")


def test_automorphism_search_over_budget_exits_4(tmp_path):
    path = tmp_path / "p9.rl"
    path.write_text("structure p9 { universe = 9; }\nstructure p8 { universe = 8; }\n")
    # p9's generator search tries 44 candidates (see
    # test_budget_reaches_the_automorphism_search); 43 refuses it
    code, out, err = run("--workspace", str(path), "--budget", "43", "types", "--structure", "p9")
    assert (code, out) == (4, "")
    assert err == "error: automorphism search over budget (required count 44)\n"
    code, out, _ = run("--workspace", str(path), "types", "--structure", "p8")
    assert (code, out) == (0, "q0 rep (0,) orbit-size 8 isolated-by x0 = x0\n")
