"""The command-line parser against argparse.

`build_parser` is the argparse parser the CLI used before it read its
commands from `randlab.cli.COMMANDS`; it is kept here unchanged as the
reference.  Every argv either parses to the same dest values under both,
makes both print their help and exit 0, or makes both exit 2 with the
same `<prog>: error: <message>` line.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as hst

from conftest import run_fresh
from randlab.cli import (
    COMMANDS,
    GLOBAL_OPTIONS,
    cmd_approx_simple,
    cmd_check,
    cmd_convex,
    cmd_dmetric,
    cmd_eval,
    cmd_extend,
    cmd_fiber,
    cmd_realize,
    cmd_rho,
    cmd_types,
    main,
    parse_args,
)
from randlab.errors import DEFAULT_BUDGET


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="randlab",
        description="compute with randomizations of finite first-order structures",
    )
    ap.add_argument("--workspace", help="workspace file to load")
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ap.add_argument("--decimal", type=int, default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a continuous formula")
    p.add_argument("--rand", required=True)
    p.add_argument("--cformula", required=True)
    p.add_argument("--bind", help="var=element[,var=event,...]")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument(
        "what",
        choices=["axioms", "types", "categoricity", "stability", "independence"],
    )
    p.add_argument("--rand")
    p.add_argument("--structure")
    p.add_argument("--nmax", type=int, default=2)
    p.add_argument("--phi")
    p.add_argument("--c")
    p.add_argument("--b")
    p.add_argument("--A", default="")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("rho", help="nonforking instance probabilities")
    p.add_argument("--structure", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--p", help="type: qN or comma tuple")
    p.add_argument("--b", help="element tuple")
    p.add_argument("--A", default="")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--w")
    p.add_argument("--w-values", dest="w_values")
    p.add_argument("--rho-hat", dest="rho_hat", action="store_true")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--p-measure", dest="p_measure")
    p.add_argument("--q-measure", dest="q_measure")
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("realize", help="realize a type measure")
    p.add_argument("--rmeasure", required=True)
    p.add_argument("--rand")
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("dmetric", help="distance between type measures")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.set_defaults(fn=cmd_dmetric)

    p = sub.add_parser("fiber", help="fiber product of two spaces")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--pix", required=True, help="base index per mu point")
    p.add_argument("--piy", required=True, help="base index per nu point")
    p.set_defaults(fn=cmd_fiber)

    p = sub.add_parser("extend", help="measure extension with certificates")
    p.add_argument("--problem", required=True, help="constraint file")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("convex", help="convex combination of randomizations")
    p.add_argument("--parts", required=True, help="w1:r1,w2:r2,...")
    p.set_defaults(fn=cmd_convex)

    p = sub.add_parser("approx-simple", help="simple approximation of an element")
    p.add_argument("--rand", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--algebra", required=True, help="event names joined by ;")
    p.add_argument("--eps", required=True)
    p.set_defaults(fn=cmd_approx_simple)

    p = sub.add_parser("types", help="list a classical type space")
    p.add_argument("--structure", required=True)
    p.add_argument("--arity", type=int, default=1)
    p.add_argument("--params", default="")
    p.set_defaults(fn=cmd_types)

    return ap


REFERENCE = build_parser()


def outcome(parse, argv):
    """("ok", dest values) or ("exit", code, last stderr line), with stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            ns = parse(list(argv))
    except SystemExit as exc:
        lines = err.getvalue().splitlines()
        return ("exit", exc.code, lines[-1] if lines else ""), out.getvalue()
    return ("ok", vars(ns)), out.getvalue()


def assert_parity(argv):
    """Both parsers give the same dests, the same help exit, or the same error."""
    want, _ = outcome(REFERENCE.parse_args, argv)
    got, _ = outcome(parse_args, argv)
    assert got == want, argv
    return got


def flag(spec):
    return "--" + spec[0].replace("_", "-")


GOOD = {str: ["r1", "c3", "q0", "2,1", "a=b", "x y", "-1", "-0.5", "", "axioms"],
        int: ["3", "0", "-1", "12", " 7", "+2"]}
ODD = ["-x", "--rand", " -x", "-", "1.5", "0x1", "two", "--"]
VALUES = GOOD[str] + ODD
UNKNOWN = ["--samples", "-x", "--bogus=1", "-q", "--workspace", "--budget=3"]


@hst.composite
def option_tokens(draw, spec, valid=False):
    """One use of an option: its option string or a prefix of it (unique or
    not), then a separate value, `=value`, or no value."""
    full = flag(spec)
    spelled = draw(hst.sampled_from([full] * 3 + [full[:k] for k in range(3, len(full))]))
    good = GOOD[int if spec[1] is int else str]
    value = draw(hst.sampled_from(good if valid else good * 3 + ODD))
    if spec[1] is bool:
        form = draw(hst.sampled_from(["none"] * 7 + ["eq"]))
    else:
        form = "sep" if valid else draw(hst.sampled_from(["sep"] * 6 + ["eq"] * 2 + ["none"]))
    if form == "eq" and value == "--":
        form = "sep"  # argparse stores --rand=-- as [], a bug not copied
    return {"sep": [spelled, value], "eq": [f"{spelled}={value}"], "none": [spelled]}[form]


@hst.composite
def items(draw, options, positional):
    """A mix of options, positionals, unknown options, stray values and help."""
    kinds = ["option"] * 12 + ["unknown", "value", "help"]
    kinds += ["positional"] * 2 if positional else []
    kind = draw(hst.sampled_from(kinds))
    if kind == "option":
        return draw(option_tokens(draw(hst.sampled_from(options))))
    if kind == "positional":
        return [draw(hst.sampled_from(list(positional[1]) + ["bogus", "-1"]))]
    if kind == "unknown":
        return [draw(hst.sampled_from(UNKNOWN))]
    if kind == "value":
        return [draw(hst.sampled_from(VALUES))]
    return [draw(hst.sampled_from(["-h", "--help", "--he", "-hh", "-hx", "--help=1"]))]


@hst.composite
def argvs(draw):
    """argv over the table's grammar: global options, a command, then the
    command's required options (most of them valid), and a shuffled mix of
    everything else, its positional anywhere among them."""
    argv = []
    for _ in range(draw(hst.integers(0, 2))):
        argv += draw(items(GLOBAL_OPTIONS, None))
    name = draw(hst.sampled_from(list(COMMANDS) * 4 + ["bogus", None]))
    if name is None:
        return argv
    argv.append(name)
    if name not in COMMANDS:
        return argv + draw(hst.lists(hst.sampled_from(VALUES), max_size=2))
    _, positional, options = COMMANDS[name]
    parts = [draw(option_tokens(spec, valid=draw(hst.integers(0, 3)) > 0))
             for spec in options if spec[3] and draw(hst.integers(0, 11))]
    if positional and draw(hst.integers(0, 5)):
        parts.append([draw(hst.sampled_from(list(positional[1])))])
    parts += draw(hst.lists(items(options, positional), max_size=3))
    for part in draw(hst.permutations(parts)):
        argv += part
    return argv


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(argvs())
def test_parser_agrees_with_argparse(argv):
    assert_parity(argv)


@pytest.mark.parametrize("argv, kind", [
    (["eval", "--rand", "r1", "--cformula", "mu[[x=x]]"], "ok"),
    (["--workspace=w.rl", "--budget", "7", "eval", "--rand=r1", "--cformula=a=b"], "ok"),
    (["--work", "w.rl", "--dec", "2", "eval", "--ra", "r1", "--cf", "c"], "ok"),
    (["rho", "--structure", "c3", "--phi", "E(x,y)", "--rho", "--p-m", "p", "--q", "q"], "ok"),
    (["rho", "--structure", "c3", "--phi", "E(x,y)", "--w-v", "1", "--w", "2", "--p", "q0"], "ok"),
    (["check", "axioms", "--rand", "r1"], "ok"),
    (["check", "--rand", "r1", "axioms"], "ok"),
    (["check", "--rand", "r1", "independence", "--c", "f", "--b", "-1"], "ok"),
    (["check", "--nmax", "-3", "categoricity", "--nmax", "5"], "ok"),
    (["types", "--structure", "c3", "--structure", "l3", "--arity=2"], "ok"),
    (["rho", "--structure", "c3", "--phi", "E(x,y)", "--certify", "--certify"], "ok"),
    (["check", "--b", "-x", "axioms"], "expected one argument"),
    (["eval", "--rand"], "expected one argument"),
    (["fiber", "--mu", "a", "--nu", "b", "--pi", "0", "--piy", "0"], "ambiguous option"),
    (["realize", "--r", "nu"], "ambiguous option"),
    (["dmetric", "-h", "--m", "x"], "ambiguous option"),
    (["-h", "dmetric", "--m", "x"], "help"),
    (["types", "--structure", "c3", "--arity", "two"], "invalid int value"),
    (["--budget=", "types", "--structure", "c3"], "invalid int value"),
    (["check", "axiom"], "invalid choice"),
    (["evaluate"], "invalid choice"),
    (["eval", "--cformula", "c"], "the following arguments are required"),
    (["check", "--rand", "r1"], "the following arguments are required"),
    ([], "the following arguments are required"),
    (["check", "types", "--structure", "c3", "--samples", "24"], "unrecognized arguments"),
    (["check", "types", "extra", "--structure", "c3"], "unrecognized arguments"),
    (["types", "--structure", "c3", "--budget", "3"], "unrecognized arguments"),
    (["rho", "--structure", "c3", "--phi", "p", "--certify=yes"], "ignored explicit argument"),
    (["eval", "--bogus", "-h"], "help"),
    (["-h", "--budget", "x"], "help"),
    (["check", "-h", "bogus"], "help"),
    (["check", "bogus", "-h"], "invalid choice"),
    (["types", "--arity", "x", "-h"], "invalid int value"),
])
def test_parser_cases(argv, kind):
    got = assert_parity(argv)
    if kind == "ok":
        assert got[0] == "ok"
    elif kind == "help":
        assert got[:2] == ("exit", 0)
    else:
        assert got[:2] == ("exit", 2) and ": error: " in got[2] and kind in got[2]


def test_usage_errors_exit_two_before_running(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "x", "types", "--structure", "c3"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines()[-1] == "randlab: error: argument --budget: invalid int value: 'x'"
    with pytest.raises(SystemExit) as exc:
        main(["check", "axioms", "--rand"])
    err = capsys.readouterr().err.splitlines()
    assert exc.value.code == 2
    assert err[-1] == "randlab check: error: argument --rand: expected one argument"
    assert err[0].startswith("usage: randlab check [-h] [--rand RAND]")


def test_an_explicit_double_dash_is_a_value():
    """argparse drops it and stores [], so `--budget=--` ran and exited 5."""
    assert parse_args(["eval", "--rand=--", "--cformula", "c"]).rand == "--"
    got, _ = outcome(parse_args, ["--budget=--", "types", "--structure", "c3"])
    assert got == ("exit", 2, "randlab: error: argument --budget: invalid int value: '--'")


def test_help_names_every_command_and_option():
    got, out = outcome(parse_args, ["-h"])
    assert got[:2] == ("exit", 0)
    for name, (about, _, _) in COMMANDS.items():
        assert f"  {name} " in out and about in out
    for spec in GLOBAL_OPTIONS:
        assert flag(spec) in out
    for name, (about, positional, options) in COMMANDS.items():
        got, out = outcome(parse_args, [name, "-h"])
        assert got[:2] == ("exit", 0)
        assert out.startswith(f"usage: randlab {name} [-h]") and about in out
        for spec in options:
            assert flag(spec) in out and (spec[4] or flag(spec)) in out
        for choice in positional[1] if positional else ():
            assert choice in out


def test_importing_the_cli_loads_neither_argparse_nor_gettext():
    code = "import sys, randlab.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    assert run_fresh(code) == "[]\n"
