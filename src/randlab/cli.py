"""Batch command-line front end.

Exit codes: 0 success, 1 check failure, 2 unresolved name or file, input
that fails validation (weights that do not sum to 1, an element value
outside its universe), or a usage error (below), 3 parse error (a formula
that parses but is nested too deeply to evaluate among them), 4 budget
exceeded, 5 internal error (a bug in randlab: one `internal error: <type>:
<message>` line on stderr instead of a traceback).  All numeric output is
exact `p/q`; `--decimal N` adds a rounded rendering with N >= 0 digits
for humans without affecting exit codes (a negative N is a parse error).
`--budget N` (N >= 1) bounds every enumeration of the command, the
workspace load included: `main` runs both inside `errors.budget(N)`.

A usage error is found before anything runs: an unknown or ambiguous
option, a missing option that `COMMANDS` marks required, or a bad int or
choice.  It prints a usage line and `randlab[ <cmd>]: error: <message>`
(argparse's wording) on stderr and raises SystemExit(2).  An option only
some `check` suites or `rho` modes need is checked by the command, and its
absence is a parse error (3).
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

from .axioms import check_axioms, covering_failures, default_formula_corpus
from .cformulas import eval_cformula, parse_cformula
from .errors import (
    DEFAULT_BUDGET,
    BudgetError,
    ParseError,
    RandlabError,
    ResolutionError,
    ValidationError,
    budget,
    show_count,
)
from .extension import (
    FeasibleCertificate,
    extend_measure_eq,
    extend_measure_ineq,
    parse_problem,
)
from .formulas import _VAR_RE, format_formula, free_vars, parse_formula
from .lexer import Lexer, parse_numbers
from .measure import FinProbSpace, FiberSpace, MeasurableMap, fiber_product, image_measure
from .randomization import (
    EventAlgebra,
    Randomization,
    _events_of,
    approximate_by_simple,
    convex_combination,
    d_k,
    mu,
)
from .rtypes import (
    check_omega_categoricity,
    d_metric,
    realize,
    rtype_of,
    rtype_of_over,
)
from .semantics import isolating_formula, type_space
from .stability import (
    PhiContext,
    check_independence,
    certify_nonforking,
    rho,
    rho_by_multiplicity,
    rho_hat,
)
from .structures import FinStructure
from .workspace import Workspace, load_workspace

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_RESOLVE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


def fmt_rat(x: Fraction, decimal: int | None) -> str:
    base = f"{_digits(x.numerator)}/{_digits(x.denominator)}"
    if decimal is not None:
        return f"{base} ({_rounded(x, decimal)})"
    return base


def _digits(n: int) -> str:
    """The decimal digits of n: `format` of a Decimal has no digit limit,
    unlike str of an int."""
    return format(Decimal(n), "f")


def _rounded(x: Fraction, k: int) -> str:
    """x rounded half to even to k decimals, with every digit exact; a
    negative x keeps its sign when it rounds to zero, as `format` does."""
    digits = _digits(round(abs(x) * 10**k)).rjust(k + 1, "0")
    sign = "-" if x < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}" if k else sign + digits


def _load_ws(path: str | None) -> Workspace:
    if path is None:
        return Workspace()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_workspace(fh.read())
    except OSError as exc:
        raise ResolutionError(f"cannot read workspace {path!r}: {exc}") from exc


def _parse_bindings(ws: Workspace, rand_name: str, spec: str | None):
    env = {}
    if not spec:
        return env
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"binding {chunk!r} must look like var=name")
        var, _, obj = chunk.partition("=")
        var, obj = var.strip(), obj.strip()
        if var in env:
            raise ParseError(f"variable {var!r} is bound twice")
        env[var] = _owned(ws, rand_name, obj, "element", "event")
    return env


def _owned(ws: Workspace, rand_name: str, name: str, *kinds: str):
    """The workspace entry `name` of the first kind in `kinds` ("element"
    or "event") that has one, which must belong to `rand_name`."""
    for kind in kinds:
        table = ws.elements if kind == "element" else ws.events
        if name in table:
            owner, value = table[name]
            if owner != rand_name:
                raise ResolutionError(
                    f"{kind} {name!r} belongs to {owner!r}, not {rand_name!r}"
                )
            return value
    raise ResolutionError(f"unknown {' or '.join(kinds)} {name!r}")


def _elements_by_names(ws: Workspace, rand_name: str, spec: str):
    return [_owned(ws, rand_name, s.strip(), "element") for s in spec.split(",") if s.strip()]


def _int_list(spec: str) -> tuple[int, ...]:
    return tuple(parse_numbers(spec, lambda tk: tk.separated(tk.integer)))


def _rational(text: str) -> Fraction:
    return parse_numbers(text, Lexer.rational)


def _var_names(spec: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in spec.split(","))
    for name in names:
        if not _VAR_RE.match(name):
            raise ParseError(f"bad variable name {name!r} in {spec!r}")
    return names


def _require(args, command: str, options) -> None:
    """Raise a ParseError naming every option in `options` that is missing."""
    missing = ["--" + o.replace("_", "-") for o in options if getattr(args, o) is None]
    if missing:
        raise ParseError(f"{command} needs {', '.join(missing)}")


# --- Commands ---------------------------------------------------------------------

def cmd_eval(args, ws: Workspace) -> int:
    rand = ws.randomization(args.rand)
    cf = parse_cformula(args.cformula, rand.signature)
    env = _parse_bindings(ws, args.rand, args.bind)
    value = eval_cformula(rand, cf, env)
    print(fmt_rat(value, args.decimal))
    return EXIT_OK


def _report_lines(lines: list[str]) -> int:
    failed = False
    for line in lines:
        print(line)
        if line.startswith("FAIL"):
            failed = True
    return EXIT_CHECK if failed else EXIT_OK


_CHECK_NEEDS = {
    "axioms": ("rand",),
    "types": ("structure",),
    "categoricity": ("structure",),
    "stability": ("structure",),
    "independence": ("rand", "c", "b"),
}


def cmd_check(args, ws: Workspace) -> int:
    _require(args, f"check {args.what}", _CHECK_NEEDS[args.what])
    if args.what == "axioms":
        rand = ws.randomization(args.rand)
        report = check_axioms(rand)
        return _report_lines(report.lines())
    if args.what == "types":
        st = ws.structure(args.structure)
        return _report_lines(_types_identity_lines(st))
    if args.what == "categoricity":
        if args.nmax < 1:
            raise ParseError(f"--nmax must be at least 1, got {args.nmax}")
        st = ws.structure(args.structure)
        report = check_omega_categoricity(st, args.nmax)
        return _report_lines(report.lines())
    if args.what == "stability":
        st = ws.structure(args.structure)
        return _report_lines(_stability_lines(st, args.phi))
    if args.what == "independence":
        rand = ws.randomization(args.rand)
        c = _elements_by_names(ws, args.rand, args.c)
        b = _elements_by_names(ws, args.rand, args.b)
        a = _elements_by_names(ws, args.rand, args.A) if args.A else []
        verdict = check_independence(rand, c, b, a)
        if verdict.independent:
            print(f"PASS independence checked={show_count(verdict.checked)}")
            return EXIT_OK
        print(
            f"FAIL independence witness {format_formula(verdict.witness)} "
            f"lhs {fmt_rat(verdict.lhs, args.decimal)} "
            f"rhs {fmt_rat(verdict.rhs, args.decimal)}"
        )
        return EXIT_CHECK


def _types_identity_lines(st: FinStructure) -> list[str]:
    """The types-as-measures identity per corpus formula at every covering
    binding, on weights 1/15, 2/15, 4/15, 8/15: a point moves the sides
    apart by its weight or not, by its valuation alone, and distinct powers
    of two with signs never sum to 0, so this decides every tuple.  At each
    binding, one r-type and one pass over the points serve every formula
    still passing."""
    base = FinProbSpace([(i, Fraction(2**i, 15)) for i in range(4)])
    rand = Randomization.constant(st, base)

    def holds(phis, binding) -> list[bool]:
        fv = sorted(binding)
        rtype = rtype_of(rand, [binding[v] for v in fv])
        events = _events_of(rand, phis, binding)
        return [rtype.formula_mass(phi, fv) == mu(rand, e) for phi, e in zip(phis, events)]

    corpus = default_formula_corpus(st.signature)
    failing = set(covering_failures(rand, ((phi, free_vars(phi)) for phi in corpus), holds))
    return [f"{'FAIL' if phi in failing else 'PASS'} types-identity {format_formula(phi)}"
            for phi in corpus]


def _stability_lines(st: FinStructure, phi_text: str | None) -> list[str]:
    lines = []
    if phi_text:
        formulas = [parse_formula(phi_text, st.signature)]
    else:
        formulas = [
            phi
            for phi in default_formula_corpus(st.signature)
            if free_vars(phi) == {"x", "y"}
        ][:6]
    for phi in formulas:
        ctx = PhiContext(st, phi, ("x",), ("y",), (), ())
        ok = True
        for a_set in ((), (0,)):
            space = type_space(st, 1, a_set)
            for p in space.types:
                for b in st.elements:
                    if rho(ctx, space, p, b) != rho_by_multiplicity(ctx, space, p, b):
                        ok = False
        lines.append(
            f"{'PASS' if ok else 'FAIL'} rho-consistency {format_formula(phi)}"
        )
    return lines


def cmd_rho(args, ws: Workspace) -> int:
    st = ws.structure(args.structure)
    phi = parse_formula(args.phi, st.signature)
    x_vars = _var_names(args.x) if args.x else ("x",)
    y_vars = _var_names(args.y) if args.y else ("y",)
    w_vars = _var_names(args.w) if args.w else ()
    if args.rho_hat or args.certify:
        mode = "--certify" if args.certify else "--rho-hat"
        _require(args, f"rho {mode}", ("p_measure", "q_measure"))
        p_meas = ws.rmeasure(args.p_measure)
        q_meas = ws.rmeasure(args.q_measure)
        ctx = PhiContext(st, phi, x_vars, y_vars, w_vars)
        if args.certify:
            prob, cert = certify_nonforking(ctx, p_meas, q_meas)
            if isinstance(cert, FeasibleCertificate):
                print("FEASIBLE")
                for point, weight in cert.weights.items():
                    if weight:
                        print(f"  q{point.index}: {fmt_rat(weight, args.decimal)}")
            else:
                print("INFEASIBLE")
                print(f"  certificate: {cert}")
                return EXIT_CHECK
            return EXIT_OK
        print(fmt_rat(rho_hat(ctx, p_meas, q_meas), args.decimal))
        return EXIT_OK
    if args.p is None or args.b is None:
        raise ParseError("rho needs --p and --b")
    params = _int_list(args.A) if args.A else ()
    w_values = _int_list(args.w_values) if args.w_values else ()
    ctx = PhiContext(st, phi, x_vars, y_vars, w_vars, w_values or None)
    space = type_space(st, len(x_vars), params)
    if args.p.startswith("q"):
        index = parse_numbers(args.p[1:], Lexer.integer)
        if index >= len(space.types):
            raise ValidationError(f"no type q{index} in a space of {len(space.types)} types")
        p = space.types[index]
    else:
        p = space.type_of(_int_list(args.p))
    b = _int_list(args.b)
    print(fmt_rat(rho(ctx, space, p, b), args.decimal))
    return EXIT_OK


def cmd_realize(args, ws: Workspace) -> int:
    nu = ws.rmeasure(args.rmeasure)
    if args.rand:
        rand = ws.randomization(args.rand)
    else:
        rand = Randomization.constant(
            nu.space.structure, FinProbSpace([("w", Fraction(1))])
        )
    refined, elements = realize(rand, nu)
    base = refined.rand.base
    print("space " + ", ".join(fmt_rat(base.weight[p], None) for p in base.points))
    for i, el in enumerate(elements):
        print(f"element x{i} = [" + ", ".join(str(el(p)) for p in base.points) + "]")
    back = rtype_of_over(refined.rand, elements, nu.space)
    print(f"round-trip {'exact' if back == nu else 'MISMATCH'}")
    return EXIT_OK if back == nu else EXIT_CHECK


def cmd_dmetric(args, ws: Workspace) -> int:
    nu1 = ws.rmeasure(args.m1)
    nu2 = ws.rmeasure(args.m2)
    print(fmt_rat(d_metric(nu1, nu2), args.decimal))
    return EXIT_OK


def cmd_fiber(args, ws: Workspace) -> int:
    mu_sp = ws.space(args.mu)
    nu_sp = ws.space(args.nu)
    pix = _int_list(args.pix)
    piy = _int_list(args.piy)
    for option, image, space in (("--pix", pix, mu_sp), ("--piy", piy, nu_sp)):
        if len(image) != len(space.points):
            raise ValidationError(
                f"{option} has {len(image)} entries for {len(space.points)} points"
            )
    z_points = tuple(sorted(set(pix) | set(piy)))
    fx = MeasurableMap(mu_sp.points, z_points, dict(zip(mu_sp.points, pix)))
    fy = MeasurableMap(nu_sp.points, z_points, dict(zip(nu_sp.points, piy)))
    fib = FiberSpace(fx, fy)
    prod = fiber_product(mu_sp, nu_sp, fib)
    for p in prod.points:
        print(f"({p[0]},{p[1]}): {fmt_rat(prod.weight[p], args.decimal)}")
    mx = image_measure(prod, fib.proj_x())
    my = image_measure(prod, fib.proj_y())
    ok = mx.weight == mu_sp.weight and my.weight == nu_sp.weight
    print(f"marginals {'exact' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_CHECK


def cmd_extend(args, ws: Workspace) -> int:
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            prob = parse_problem(fh.read())
    except OSError as exc:
        raise ResolutionError(f"cannot read problem {args.problem!r}: {exc}") from exc
    rels = prob.relations()
    if len(rels) > 1:
        raise ValidationError("problem mixes <= and = constraints")
    cert = extend_measure_eq(prob) if rels == {"="} else extend_measure_ineq(prob)
    if isinstance(cert, FeasibleCertificate):
        print("FEASIBLE")
        print(
            "  mu = "
            + ", ".join(
                fmt_rat(cert.weights[p], args.decimal) for p in prob.ground
            )
        )
    else:
        print("INFEASIBLE")
        print(f"  certificate: {cert}")
    ok = cert.verify(prob)
    print(f"certificate {'verifies' if ok else 'DOES NOT VERIFY'}")
    return EXIT_OK if ok else EXIT_CHECK


def cmd_convex(args, ws: Workspace) -> int:
    parts = []
    for chunk in args.parts.split(","):
        weight_text, _, name = chunk.strip().partition(":")
        parts.append((_rational(weight_text), ws.randomization(name.strip())))
    combined = convex_combination(parts)
    base = combined.base
    print(
        "space "
        + ", ".join(fmt_rat(base.weight[p], None) for p in base.points)
    )
    report = check_axioms(combined)
    return _report_lines(report.lines())


def cmd_approx_simple(args, ws: Workspace) -> int:
    rand = ws.randomization(args.rand)
    f = _owned(ws, args.rand, args.f, "element")
    gens = [
        _owned(ws, args.rand, name.strip(), "event")
        for name in args.algebra.split(";")
        if name.strip()
    ]
    algebra = EventAlgebra(rand, gens)
    eps = _rational(args.eps)
    g = approximate_by_simple(rand, f, algebra, eps)
    print("g = [" + ", ".join(str(g(p)) for p in rand.base.points) + "]")
    print("dK " + fmt_rat(d_k(rand, f, g), args.decimal))
    return EXIT_OK


def cmd_types(args, ws: Workspace) -> int:
    st = ws.structure(args.structure)
    params = _int_list(args.params) if args.params else ()
    space = type_space(st, args.arity, params)
    for q in space.types:
        iso = isolating_formula(space, q)
        orbit = space.orbit(q)
        print(
            f"q{q.index} rep {q.rep} orbit-size {len(orbit)} "
            f"isolated-by {format_formula(iso)}"
        )
    return EXIT_OK


# --- Entry point -------------------------------------------------------------------
#
# One table holds every command and its options, and a small parser reads
# argv from it the way argparse would, without the cost of importing and
# building argparse parsers on every cold start.  An option is a tuple
# (dest, type, default, required, help): type is str, int, or bool for a flag
# that stores True; its option string is "--" + dest with "-" for "_".

def _opt(dest, type=str, default=None, required=False, help=""):
    return dest, type, default, required, help


GLOBAL_OPTIONS = (
    _opt("workspace", help="workspace file to load"),
    _opt("budget", int, DEFAULT_BUDGET),
    _opt("decimal", int),
)

# name: (help, positional (dest, {choice: help}) or None, options); the command
# runs as cmd_<name>, with "_" for "-", looked up when argv names it
COMMANDS = {
    "eval": ("evaluate a continuous formula", None, (
        _opt("rand", required=True),
        _opt("cformula", required=True),
        _opt("bind", help="var=element[,var=event,...]"),
    )),
    "check": ("run a verification suite", ("what", dict.fromkeys(_CHECK_NEEDS, "")), (
        _opt("rand"),
        _opt("structure"),
        _opt("nmax", int, 2),
        _opt("phi"),
        _opt("c"),
        _opt("b"),
        _opt("A", default=""),
    )),
    "rho": ("nonforking instance probabilities", None, (
        _opt("structure", required=True),
        _opt("phi", required=True),
        _opt("p", help="type: qN or comma tuple"),
        _opt("b", help="element tuple"),
        _opt("A", default=""),
        _opt("x"),
        _opt("y"),
        _opt("w"),
        _opt("w_values"),
        _opt("rho_hat", bool, False),
        _opt("certify", bool, False),
        _opt("p_measure"),
        _opt("q_measure"),
    )),
    "realize": ("realize a type measure", None, (
        _opt("rmeasure", required=True),
        _opt("rand"),
    )),
    "dmetric": ("distance between type measures", None, (
        _opt("m1", required=True),
        _opt("m2", required=True),
    )),
    "fiber": ("fiber product of two spaces", None, (
        _opt("mu", required=True),
        _opt("nu", required=True),
        _opt("pix", required=True, help="base index per mu point"),
        _opt("piy", required=True, help="base index per nu point"),
    )),
    "extend": ("measure extension with certificates", None, (
        _opt("problem", required=True, help="constraint file"),
    )),
    "convex": ("convex combination of randomizations", None, (
        _opt("parts", required=True, help="w1:r1,w2:r2,..."),
    )),
    "approx-simple": ("simple approximation of an element", None, (
        _opt("rand", required=True),
        _opt("f", required=True),
        _opt("algebra", required=True, help="event names joined by ;"),
        _opt("eps", required=True),
    )),
    "types": ("list a classical type space", None, (
        _opt("structure", required=True),
        _opt("arity", int, 1),
        _opt("params", default=""),
    )),
}
ABOUT = "compute with randomizations of finite first-order structures"
_HELP = ("help", bool, False, False, "show this help message and exit")
_MARK = ("--",)  # the first "--" of a level: every later token is a value


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


class _Level:
    """One level of the command line, read as argparse reads it: the top
    level (global options, then the command) or one command's own.

    `positional` is (dest, {choice: help}) or None.  A usage error prints
    the usage and `<prog>: error: <message>` to stderr and raises
    SystemExit(2); -h or --help prints the help to stdout and raises
    SystemExit(0).
    """

    def __init__(self, prog: str, about: str, options, positional):
        self.prog, self.about, self.options, self.positional = prog, about, options, positional
        self.table = {"-h": _HELP, "--help": _HELP}
        for spec in options:
            self.table[_flag(spec[0])] = spec
        self.top = positional is not None and positional[0] == "command"

    def fail(self, message: str):
        sys.stderr.write(f"{self.usage()}\n{self.prog}: error: {message}\n")
        raise SystemExit(2)

    def read(self, tok: str):
        """(spec, explicit value) for tok on its own: the spec of the option
        it names by option string or unique prefix, either with `=value`;
        tok itself for an unknown option; None for a value."""
        if not tok or tok[0] != "-" or tok in self.table:
            return self.table.get(tok), None
        if len(tok) == 1:
            return None, None
        name, eq, value = tok.partition("=")
        if eq and name in self.table:
            return self.table[name], value
        if tok[1] == "-":
            matches = [o for o in self.table if o.startswith(name)]
            if len(matches) > 1:
                self.fail(f"ambiguous option: {tok} could match {', '.join(matches)}")
            if matches:
                return self.table[matches[0]], value if eq else None
        elif tok[1] == "h":  # a short option runs into its value
            return _HELP, tok[2:]
        if re.match(r"^-\d+$|^-\d*\.\d+$", tok) or " " in tok:
            return None, None
        return tok, None

    def parse(self, argv: list[str], ns) -> list[str]:
        """Read argv into ns and return the tokens no level recognizes.

        Every token is read before any is consumed, so an ambiguous prefix
        fails even after -h.  Then the tokens are consumed in order: an
        option takes the next token, which must be a value, the first value
        that is no option's fills the positional, and a later one or an
        unknown option is unrecognized.  The command takes every token after
        it.  A "--" is skipped, except where the command belongs.
        """
        reads = []
        for tok in argv:
            if tok == "--":
                reads.append((_MARK, None))
                reads += [(None, None)] * (len(argv) - len(reads))
                break
            reads.append(self.read(tok))
        for spec in self.options:
            setattr(ns, spec[0], spec[2])
        seen = set()
        extras = []
        i = 0
        while i < len(argv):
            spec, explicit = reads[i]
            tok = argv[i]
            i += 1
            if spec is _MARK and not self.top:
                continue
            if spec is None or spec is _MARK:  # a value, not an option's
                if self.positional is None or self.positional[0] in seen:
                    extras.append(tok)
                    continue
                dest, choices = self.positional
                if tok not in choices:
                    shown = ", ".join(map(repr, choices))
                    self.fail(f"argument {dest}: invalid choice: {tok!r} (choose from {shown})")
                seen.add(dest)
                setattr(ns, dest, tok)
                if self.top:
                    about, positional, options = COMMANDS[tok]
                    ns.fn = globals()["cmd_" + tok.replace("-", "_")]
                    command = _Level(f"{self.prog} {tok}", about, options, positional)
                    extras += command.parse(argv[i:], ns)
                    break
                continue
            if isinstance(spec, str):
                extras.append(tok)
                continue
            dest, kind = spec[0], spec[1]
            name = "-h/--help" if spec is _HELP else _flag(dest)
            if kind is bool:
                if spec is _HELP and explicit and tok[1] == "h":
                    explicit = explicit.lstrip("h") or None  # -hh is -h -h
                if explicit is not None:
                    self.fail(f"argument {name}: ignored explicit argument {explicit!r}")
                if spec is _HELP:
                    sys.stdout.write(self.help())
                    raise SystemExit(0)
                value = True
            elif explicit is not None:
                value = explicit
            else:
                if i == len(argv) or reads[i][0] is not None:
                    self.fail(f"argument {name}: expected one argument")
                value = argv[i]
                i += 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    self.fail(f"argument {name}: invalid int value: {value!r}")
            seen.add(dest)
            setattr(ns, dest, value)
        missing = [_flag(spec[0]) for spec in self.options if spec[3] and spec[0] not in seen]
        if self.positional and self.positional[0] not in seen:
            missing.insert(0, self.positional[0])
        if missing:
            self.fail(f"the following arguments are required: {', '.join(missing)}")
        return extras

    def _shown(self, spec) -> str:
        return _flag(spec[0]) if spec[1] is bool else f"{_flag(spec[0])} {spec[0].upper()}"

    def usage(self) -> str:
        words = ["usage:", self.prog, "[-h]"]
        for spec in self.options:
            words.append(self._shown(spec) if spec[3] else f"[{self._shown(spec)}]")
        if self.positional:
            words.append("{" + ",".join(self.positional[1]) + "}")
        if self.top:
            words.append("...")
        return " ".join(words)

    def help(self) -> str:
        """Usage, what the level does, the positional's choices and the options."""
        sections = []
        if self.positional:
            dest, choices = self.positional
            sections.append((dest, list(choices.items())))
        rows = [("-h, --help", _HELP[4])]
        for spec in self.options:
            _, _, default, required, about = spec
            if required:
                about += " (required)"
            elif default not in (None, "", False):
                about += f" (default: {default})"
            rows.append((self._shown(spec), about.strip()))
        sections.append(("options", rows))
        width = max(len(left) for _, rows in sections for left, _ in rows) + 2
        out = [self.usage(), "", self.about]
        for title, rows in sections:
            out += ["", f"{title}:"]
            out += [f"  {left:<{width}}{right}".rstrip() for left, right in rows]
        return "\n".join(out) + "\n"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read from the command table as argparse would read it, into a
    namespace with the dests of the global options, `command`, `fn` and
    the dests of the command's options and positional."""
    args = SimpleNamespace()
    commands = {name: entry[0] for name, entry in COMMANDS.items()}
    top = _Level("randlab", ABOUT, GLOBAL_OPTIONS, ("command", commands))
    extras = top.parse(argv, args)
    if extras:
        top.fail(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.decimal is not None and args.decimal < 0:
            raise ParseError(f"--decimal must be at least 0, got {args.decimal}")
        if args.budget < 1:
            raise ParseError(f"--budget must be at least 1, got {args.budget}")
        with budget(args.budget):
            ws = _load_ws(args.workspace)
            return args.fn(args, ws)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RandlabError as exc:  # resolution and validation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOLVE
    except RecursionError:  # parsed, but too deep for the evaluator's recursion
        print("error: formula nested too deeply to evaluate", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
