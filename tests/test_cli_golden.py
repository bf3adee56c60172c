"""Golden CLI test: literal stdout and exit code of every subcommand.

Each case runs `randlab.cli.main` in process on one fixed workspace and
compares the exact bytes printed to stdout and the exit code.  The cases
cover the four README commands, every subcommand and its flags, and one
case each for exit codes 2, 3 and 4.  The expected text is the reference:
a change that alters it changes what users see.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from randlab.cli import main

WS = """
structure m2 { universe = 2; }
structure c3 { universe = 3; relation E/2 = {(0,1), (1,2), (2,0)}; }
structure l3 { universe = 3; relation Lt/2 = {(0,1), (0,2), (1,2)}; }
structure s3 { universe = 3; function s/1 = {(0) -> 1, (1) -> 2, (2) -> 0}; constant z = 0; }
space dy1 { weights = [1/2, 1/2]; }
space dy3 { weights = [1/8, 1/8, 1/8, 1/8, 1/8, 1/8, 1/8, 1/8]; }
space sk { weights = [1/2, 1/3, 1/6]; }
randomization r1 { structure = m2; space = dy1; }
randomization m2x8 { structure = m2; space = dy3; }
randomization mixed { structures = [m2, m2, m2]; space = sk; }
element f = m2x8 [0, 1, 0, 1, 0, 1, 0, 1];
element g = m2x8 [0, 0, 0, 0, 1, 1, 1, 1];
element h = m2x8 [0, 1, 1, 0, 0, 1, 1, 0];
element a = r1 [0, 1];
element b = r1 [0, 0];
event e1 = m2x8 {0, 1, 2, 3};
event e2 = m2x8 {0, 1}
rmeasure nu1 { structure = l3; arity = 1; params = (); rtype { q0: 1/3, q2: 2/3 }; }
rmeasure nu2 { structure = l3; arity = 1; params = (); rtype { q0: 1/1 }; }
rmeasure pj { structure = m2; arity = 2; params = (); rtype { q0: 1/2, q1: 1/2 }; }
rmeasure qj { structure = m2; arity = 2; params = (); rtype { q0: 1/1 }; }
"""

PROBLEMS = {
    "feasible.txt": "= 3/5 : 1,0\n= 2/5 : 0,1\n",
    "infeasible.txt": "<= 1/4 : 1,0\n<= 1/4 : 0,1\n",
}

# (arguments after `--workspace ws.rl`, exit code, stdout)
CASES = [
    # the four README commands
    (
        ["eval", "--rand", "m2x8", "--cformula", "mu[[ x = y ]]", "--bind", "x=f,y=g"],
        0,
        "1/2\n",
    ),
    (
        ["check", "axioms", "--rand", "m2x8"],
        0,
        "PASS axiom-validity tautology corpus, per-point evaluation\n"
        "PASS axiom-boolean\n"
        "PASS axiom-distance\n"
        "PASS axiom-fullness\n"
        "PASS axiom-event 256 events, exact witnesses\n"
        "PASS axiom-measure\n"
        "PASS axiom-atomless defect 1/16 vs threshold 1/16\n"
        "PASS axiom-transfer\n",
    ),
    (
        ["rho", "--structure", "m2", "--phi", "x = y", "--p", "q0", "--b", "0"],
        0,
        "1/2\n",
    ),
    (
        ["check", "independence", "--rand", "m2x8", "--c", "f", "--b", "f"],
        1,
        "FAIL independence witness x = y lhs 1/1 rhs 1/2\n",
    ),
    # eval: connectives, events, distances, quantifiers, --decimal
    (
        ["eval", "--rand", "m2x8", "--cformula", "max(half(~1/3), min(dK(x, y), 1)) -. 0", "--bind", "x=f,y=h"],
        0,
        "1/2\n",
    ),
    (
        ["eval", "--rand", "m2x8", "--cformula", "mu[ (u & !v) | (u ^ top) ]", "--bind", "u=e1,v=e2"],
        0,
        "3/4\n",
    ),
    (
        ["eval", "--rand", "m2x8", "--cformula", "dB(u, [[ x = y ]])", "--bind", "u=e1,x=f,y=g"],
        0,
        "1/2\n",
    ),
    (
        ["eval", "--rand", "r1", "--cformula", "sup x (inf y (mu[[ x = y ]]))"],
        0,
        "0/1\n",
    ),
    (
        ["eval", "--rand", "mixed", "--cformula", "P[ forall z (exists u (!(z = u))) ] -. 1/3"],
        0,
        "2/3\n",
    ),
    (
        ["--decimal", "3", "eval", "--rand", "r1", "--cformula", "mu[[ x = y ]]", "--bind", "x=a,y=b"],
        0,
        "1/2 (0.500)\n",
    ),
    # check
    (
        ["check", "types", "--structure", "m2"],
        0,
        "PASS types-identity x = y\n"
        "PASS types-identity y = z\n"
        "PASS types-identity x = z\n"
        "PASS types-identity x = x\n"
        "PASS types-identity !x = y\n"
        "PASS types-identity !y = z\n"
        "PASS types-identity !x = z\n"
        "PASS types-identity !x = x\n"
        "PASS types-identity x = y & y = z\n"
        "PASS types-identity x = y | y = z\n"
        "PASS types-identity x = y -> y = z\n"
        "PASS types-identity x = y & x = z\n"
        "PASS types-identity x = y | x = z\n"
        "PASS types-identity x = y -> x = z\n"
        "PASS types-identity x = y & x = x\n"
        "PASS types-identity x = y | x = x\n"
        "PASS types-identity x = y -> x = x\n"
        "PASS types-identity y = z & x = z\n"
        "PASS types-identity y = z | x = z\n"
        "PASS types-identity y = z -> x = z\n"
        "PASS types-identity y = z & x = x\n"
        "PASS types-identity y = z | x = x\n"
        "PASS types-identity y = z -> x = x\n"
        "PASS types-identity x = z & x = x\n"
        "PASS types-identity x = z | x = x\n"
        "PASS types-identity x = z -> x = x\n"
        "PASS types-identity exists z (y = z)\n"
        "PASS types-identity forall z (y = z)\n"
        "PASS types-identity exists z (y = z & !z = x)\n"
        "PASS types-identity forall z (y = z | z = x)\n"
        "PASS types-identity exists z (x = z)\n"
        "PASS types-identity forall z (x = z)\n"
        "PASS types-identity exists z (x = z & !z = x)\n"
        "PASS types-identity forall z (x = z | z = x)\n"
        "PASS types-identity !(x = y & !y = z)\n"
        "PASS types-identity !x = y | x = y & y = z\n"
        "PASS types-identity !(x = y & !x = z)\n"
        "PASS types-identity !x = y | x = y & x = z\n"
        "PASS types-identity !(x = y & !x = x)\n"
        "PASS types-identity !x = y | x = y & x = x\n"
        "PASS types-identity !(y = z & !x = z)\n"
        "PASS types-identity !y = z | y = z & x = z\n"
        "PASS types-identity !(y = z & !x = x)\n"
        "PASS types-identity !y = z | y = z & x = x\n"
        "PASS types-identity !(x = z & !x = x)\n"
        "PASS types-identity !x = z | x = z & x = x\n",
    ),
    (
        ["check", "categoricity", "--structure", "c3", "--nmax", "2"],
        0,
        "PASS type-space-size n=1 |S_1|=1 (finite)\n"
        "PASS realize-battery n=1 count=1\n"
        "PASS type-space-size n=2 |S_2|=3 (finite)\n"
        "PASS realize-battery n=2 count=22\n",
    ),
    (
        ["check", "stability", "--structure", "m2"],
        0,
        "PASS rho-consistency x = y\n"
        "PASS rho-consistency !x = y\n"
        "PASS rho-consistency x = y & x = x\n"
        "PASS rho-consistency x = y | x = x\n"
        "PASS rho-consistency x = y -> x = x\n"
        "PASS rho-consistency exists z (y = z & !z = x)\n",
    ),
    (
        ["check", "stability", "--structure", "c3", "--phi", "E(x, y)"],
        0,
        "PASS rho-consistency E(x, y)\n",
    ),
    (
        ["check", "independence", "--rand", "m2x8", "--c", "f", "--b", "g"],
        0,
        "PASS independence checked=4\n",
    ),
    (
        ["check", "axioms", "--rand", "mixed"],
        1,
        "PASS axiom-validity tautology corpus, per-point evaluation\n"
        "PASS axiom-boolean\n"
        "PASS axiom-distance\n"
        "PASS axiom-fullness\n"
        "PASS axiom-event 8 events, exact witnesses\n"
        "PASS axiom-measure\n"
        "FAIL axiom-atomless defect 1/4 vs threshold 1/12\n"
        "PASS axiom-transfer\n",
    ),
    # rho
    (
        ["rho", "--structure", "c3", "--phi", "E(x, y)", "--p", "0", "--b", "1", "--A", "0"],
        0,
        "1/1\n",
    ),
    (
        ["rho", "--structure", "m2", "--phi", "x = y", "--w", "w", "--rho-hat", "--p-measure", "pj", "--q-measure", "qj"],
        0,
        "1/2\n",
    ),
    (
        ["rho", "--structure", "m2", "--phi", "x = y", "--w", "w", "--certify", "--p-measure", "pj", "--q-measure", "qj"],
        0,
        "FEASIBLE\n"
        "  q0: 1/2\n"
        "  q3: 1/2\n",
    ),
    # the other subcommands
    (
        ["realize", "--rmeasure", "nu1"],
        0,
        "space 1/3, 2/3\n"
        "element x0 = [0, 2]\n"
        "round-trip exact\n",
    ),
    (
        ["dmetric", "--m1", "nu1", "--m2", "nu2"],
        0,
        "2/3\n",
    ),
    (
        ["fiber", "--mu", "dy1", "--nu", "sk", "--pix", "0,1", "--piy", "0,1,1"],
        0,
        "(0,0): 1/2\n"
        "(1,1): 1/3\n"
        "(1,2): 1/6\n"
        "marginals exact\n",
    ),
    (
        ["extend", "--problem", "feasible.txt"],
        0,
        "FEASIBLE\n"
        "  mu = 3/5, 2/5\n"
        "certificate verifies\n",
    ),
    (
        ["extend", "--problem", "infeasible.txt"],
        0,
        "INFEASIBLE\n"
        "  certificate: InfeasibleIneqCertificate(multipliers=[2, 2], n=2)\n"
        "certificate verifies\n",
    ),
    (
        ["convex", "--parts", "1/2:r1,1/2:r1"],
        0,
        "space 1/4, 1/4, 1/4, 1/4\n"
        "PASS axiom-validity tautology corpus, per-point evaluation\n"
        "PASS axiom-boolean\n"
        "PASS axiom-distance\n"
        "PASS axiom-fullness\n"
        "PASS axiom-event 16 events, exact witnesses\n"
        "PASS axiom-measure\n"
        "PASS axiom-atomless defect 1/8 vs threshold 1/8\n"
        "PASS axiom-transfer\n",
    ),
    (
        ["convex", "--parts", "1/2:r1,1/2:m2x8"],
        1,
        "space 1/4, 1/4, 1/16, 1/16, 1/16, 1/16, 1/16, 1/16, 1/16, 1/16\n"
        "PASS axiom-validity tautology corpus, per-point evaluation\n"
        "PASS axiom-boolean\n"
        "PASS axiom-distance\n"
        "PASS axiom-fullness\n"
        "PASS axiom-event 1024 events, exact witnesses\n"
        "PASS axiom-measure\n"
        "FAIL axiom-atomless defect 1/8 vs threshold 1/32\n"
        "PASS axiom-transfer\n",
    ),
    (
        ["approx-simple", "--rand", "m2x8", "--f", "h", "--algebra", "e1;e2", "--eps", "1"],
        0,
        "g = [0, 0, 0, 0, 0, 0, 0, 0]\n"
        "dK 1/2\n",
    ),
    (
        ["types", "--structure", "c3", "--arity", "2"],
        0,
        "q0 rep (0, 0) orbit-size 3 isolated-by !E(x0, x1) & !E(x1, x0)\n"
        "q1 rep (0, 1) orbit-size 3 isolated-by E(x0, x1)\n"
        "q2 rep (0, 2) orbit-size 3 isolated-by E(x1, x0)\n",
    ),
    (
        ["types", "--structure", "s3", "--arity", "1", "--params", "0"],
        0,
        "q0 rep (0,) orbit-size 1 isolated-by s(x0) = s(z)\n"
        "q1 rep (1,) orbit-size 1 isolated-by !z = s(x0) & !s(x0) = s(z)\n"
        "q2 rep (2,) orbit-size 1 isolated-by z = s(x0)\n",
    ),
    # exit 2: unresolved name; exit 3: parse error; exit 4: budget
    (
        ["eval", "--rand", "zzz", "--cformula", "mu[[ x = x ]]"],
        2,
        "",
    ),
    (
        ["eval", "--rand", "r1", "--cformula", "mu[[ = ]]"],
        3,
        "",
    ),
    (
        ["--budget", "3", "eval", "--rand", "m2x8", "--cformula", "sup x (mu[[ x = x ]])"],
        4,
        "",
    ),
]


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    (tmp_path / "ws.rl").write_text(WS)
    for name, text in PROBLEMS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize(
    "argv, code, stdout", CASES, ids=[" ".join(c[0]) for c in CASES]
)
def test_cli_golden(workdir, argv, code, stdout):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        got = main(["--workspace", "ws.rl", *argv])
    assert (got, out.getvalue()) == (code, stdout)
