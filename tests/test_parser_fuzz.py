"""Fuzzing the text grammars: bad input raises a RandlabError, nothing else.

Inputs are arbitrary text, soups of each grammar's own tokens (numbers of
any size), deep nestings, and random edits of valid workspaces and
extension-problem lines.  The runs
are derandomized so every run checks the same examples.
"""

import re

from hypothesis import HealthCheck, given, settings, strategies as st

from randlab import (
    RandlabError,
    Signature,
    load_workspace,
    parse_cformula,
    parse_formula,
    parse_structure,
)
from randlab.extension import parse_problem

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

SIG = Signature(
    relations={"E": 2, "P": 1, "Q": 0},
    functions={"f": 1, "g": 2},
    constants=["c"],
)

NUMBERS = st.integers(min_value=0).map(str)


def soup(words):
    """Token soups: the grammar's words, numbers, and arbitrary text."""
    piece = st.one_of(st.sampled_from(words), NUMBERS, st.text(max_size=3))
    sep = st.sampled_from(["", " ", "\n"])
    return st.lists(st.tuples(piece, sep)).map(
        lambda parts: "".join(p + s for p, s in parts)
    )


def accepts_or_rejects(parse, text):
    try:
        parse(text)
    except RandlabError:
        pass


FORMULA_WORDS = [
    "x", "y", "z", "x1", "E", "P", "Q", "f", "g", "c", "exists", "forall",
    "#", "#0", "#12", "(", ")", ",", "=", "!", "&", "|", "->", "-", "X",
]

CFORMULA_WORDS = [
    "mu", "[[", "]]", "[", "]", "P", "dK", "dB", "half", "min", "max",
    "sup", "inf", "x", "y", "e", "top", "bot", "(", ")", ",", "~", "!",
    "&", "|", "^", "-.", "-", "/", "0", "1", "1/2", "3/0", "x = y",
    "E(x, y)", "exists z (", "#1",
]

STRUCTURE_WORDS = [
    "structure", "s", "{", "}", "universe", "relation", "function",
    "constant", "R", "f", "c", "=", ";", "/", "(", ")", ",", "->", "-",
    ":", "[", "]",
]

WORKSPACE_WORDS = STRUCTURE_WORDS + [
    "space", "randomization", "element", "event", "rmeasure", "weights",
    "structures", "arity", "params", "rtype", "q0", "q7", "m2", "r", "e",
]

WORKSPACE = """
structure m2 { universe = 2; }
structure c3 { universe = 3; relation E/2 = {(0,1), (1,2), (2,0)}; }
structure s3 { universe = 3; function s/1 = {(0) -> 1, (1) -> 2, (2) -> 0}; constant z = 0; }
space dy1 { weights = [1/2, 1/2]; }
space sk { weights = [1/2, 1/3, 1/6]; }
randomization r1 { structure = m2; space = dy1; }
randomization mixed { structures = [c3, c3, c3]; space = sk; }
element f = r1 [0, 1];
element g = mixed [2, 0, 1]
event e1 = r1 {0, 1};
"""

PROBLEM_WORDS = [
    "<=", "=", ":", ",", "/", "-", "#", "<", "0", "1", "1/2", "3/0", "-1/3",
    "0.5", "1e3", "x",
]

PROBLEM = "<= 1/2 : 1,0\n= 1 : 1,1\n# a comment\n"
PROBLEM_LINE = "<= -1/3 : 0,-2"

# Only the rmeasure is edited, over a fixed two-element structure: the type
# space of an edited arity k has 2**k tuples, enumerated up to the default
# budget.
M2 = "structure m2 { universe = 2; }\n"
RMEASURE = "rmeasure nu { structure = m2; arity = 2; params = (0); rtype { q0: 1/2, q1: 1/2 }; }"


def tokens(text):
    return re.findall(r"->|[A-Za-z_0-9]+|\S", text)


def edits(seed, extra):
    """`seed`'s tokens with random deletions, insertions and replacements,
    the new tokens drawn from the seed itself and `extra`."""
    base = tokens(seed)
    alphabet = sorted(set(base) | set(extra))
    edit = st.tuples(
        st.sampled_from(["delete", "insert", "replace"]),
        st.integers(min_value=0, max_value=len(base)),
        st.sampled_from(alphabet),
    )

    def apply(ops):
        out = list(base)
        for op, i, tok in ops:
            i = min(i, len(out))
            if op == "delete":
                del out[i : i + 1]
            elif op == "insert":
                out.insert(i, tok)
            else:
                out[i : i + 1] = [tok]
        return " ".join(out)

    return st.lists(edit, min_size=1).map(apply)


@FUZZ
@given(st.one_of(st.text(), soup(FORMULA_WORDS)))
def test_parse_formula_fuzz(text):
    accepts_or_rejects(lambda t: parse_formula(t, SIG), text)


@FUZZ
@given(st.one_of(st.text(), soup(CFORMULA_WORDS)))
def test_parse_cformula_fuzz(text):
    accepts_or_rejects(lambda t: parse_cformula(t, SIG), text)


@FUZZ
@given(st.one_of(st.text(), soup(STRUCTURE_WORDS), soup(STRUCTURE_WORDS).map(
    lambda body: "structure s { universe = 2; " + body
)))
def test_parse_structure_fuzz(text):
    accepts_or_rejects(parse_structure, text)


@FUZZ
@given(st.one_of(
    st.text(),
    soup(WORKSPACE_WORDS),
    edits(WORKSPACE, ["-", "q7", "9", "123456789012345678901234567890"]),
))
def test_load_workspace_fuzz(text):
    accepts_or_rejects(load_workspace, text)


@FUZZ
@given(edits(RMEASURE, ["-", "q7", "3", "9", "12"]))
def test_load_workspace_rmeasure_fuzz(text):
    accepts_or_rejects(load_workspace, M2 + text)


FORMULA_NESTS = [("(", ")"), ("!", ""), ("exists x ", ""), ("!(", ")"), ("forall y (", ")")]
CFORMULA_NESTS = [
    ("(", ")"), ("~", ""), ("half(", ")"), ("min(1, ", ")"), ("sup x (", ")"),
    ("mu[ !(", ") ]"),
]


@FUZZ
@given(
    st.integers(min_value=0, max_value=3000),
    st.sampled_from(FORMULA_NESTS),
    st.sampled_from(["x = y", "E(x, f(c))", ""]),
)
def test_parse_formula_deep_nesting(depth, nest, core):
    opener, closer = nest
    accepts_or_rejects(lambda t: parse_formula(t, SIG), opener * depth + core + closer * depth)


@FUZZ
@given(
    st.integers(min_value=0, max_value=3000),
    st.sampled_from(CFORMULA_NESTS),
    st.sampled_from(["1/2", "mu[[ x = y ]]", "mu[[ " + "(" * 300 + "x = y" + ")" * 300 + " ]]"]),
)
def test_parse_cformula_deep_nesting(depth, nest, core):
    opener, closer = nest
    accepts_or_rejects(lambda t: parse_cformula(t, SIG), opener * depth + core + closer * depth)


@FUZZ
@given(st.one_of(
    st.text(),
    soup(PROBLEM_WORDS),
    edits(PROBLEM_LINE, PROBLEM_WORDS + ["123456789012345678901234567890"]).map(
        lambda line: PROBLEM + line
    ),
))
def test_parse_problem_fuzz(text):
    accepts_or_rejects(parse_problem, text)
