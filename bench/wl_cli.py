"""Workload `cli`: cold `randlab` commands over one workspace, one after another.

Each command is a fresh interpreter running the installed entry point
(`from randlab.cli import main`), so it pays interpreter start, imports and
workspace parsing, and every lru cache is cold.  On its way out it writes
its own peak resident set (VmHWM) to stderr for `peak_rss_mb`.  The commands cover every
subcommand, including the expected negative outcomes: a failed
independence check and a failed atomless group exit 1, an exceeded budget
exits 4 and an unknown name exits 2.

The seed picks the random elements, events and type measures of the
workspace, the parameters of the rho queries, the fiber map, the extension
problems and the mixing weight of the convex combination.

Every expected stdout and exit code is derived by hand (see README.md),
and each command's stdout must be byte-identical on every repeat.  The
traced run calls `randlab.cli.main` in process instead, clearing the caches
before each command, because spans cannot be taken across processes.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import statistics
import subprocess
import sys
from fractions import Fraction

import oracles
from harness import Query, clear_caches

# The installed entry point, plus a report of the process's own peak
# resident set on its way out.  wait4's ru_maxrss cannot give it: it is
# raised to the spawning process's peak, which the child carries until exec.
PEAK_MARK = "bench-peak-rss-kb"
ENTRY = f"""import atexit, sys

def peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_MARK} " + kb + "\\n")

atexit.register(peak)
from randlab.cli import main
sys.exit(main())
"""
C3 = {"E": {(0, 1), (1, 2), (2, 0)}}
L3 = {"Lt": {(0, 1), (0, 2), (1, 2)}}


def rat(x: Fraction) -> str:
    """randlab's exact rendering: always p/q."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def fractions_of(text: str) -> list[Fraction]:
    return [Fraction(t) for t in re.findall(r"-?\d+(?:/\d+)?", text)]


class CliWorkload:
    def __init__(self, seed: int, root):
        rng = random.Random(seed)
        self.dir = os.path.join(str(root), ".bench_build", f"cli-seed{seed}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(str(root), "src"))
        self.rss_kb: dict[tuple, list[int]] = {}  # command: peak resident set of each run
        self.first_stdout: dict[int, str] = {}
        os.makedirs(self.dir, exist_ok=True)

        f_low = [0, 1]
        rng.shuffle(f_low)
        f_low += [rng.randrange(2), rng.randrange(2)]
        f = [f_low[w & 3] for w in range(8)]  # reads the two low bits of the point
        flip = rng.randrange(2)
        g = [(w >> 2 & 1) ^ flip for w in range(8)]  # reads the high bit, uniform
        e1 = sorted(rng.sample(range(4), 2))
        e2 = sorted(rng.sample(range(4), rng.randrange(1, 4)))
        cell_value = {}
        h = []
        for w in range(4):
            cell = (w in e1, w in e2)
            h.append(cell_value.setdefault(cell, rng.randrange(3)))
        alpha, beta = (rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]) for _ in range(2))
        self.f, self.g, self.h, self.alpha, self.beta = f, g, h, alpha, beta

        def ints(xs):
            return ", ".join(str(x) for x in xs)

        eighths = ", ".join(["1/8"] * 8)
        workspace = (
            "structure m2 { universe = 2; }\n"
            "structure c3 { universe = 3; relation E/2 = {(0,1), (1,2), (2,0)}; }\n"
            "structure l3 { universe = 3; relation Lt/2 = {(0,1), (0,2), (1,2)}; }\n"
            "space dy1 { weights = [1/2, 1/2]; }\n"
            "space dy2 { weights = [1/4, 1/4, 1/4, 1/4]; }\n"
            f"space dy3 {{ weights = [{eighths}]; }}\n"
            "randomization r1 { structure = m2; space = dy1; }\n"
            "randomization r2 { structure = c3; space = dy2; }\n"
            "randomization r3 { structure = m2; space = dy3; }\n"
            f"element f = r3 [{ints(f)}];\n"
            f"element g = r3 [{ints(g)}];\n"
            f"element h = r2 [{ints(h)}];\n"
            f"event e1 = r2 {{{ints(e1)}}};\n"
            f"event e2 = r2 {{{ints(e2)}}};\n"
            f"rmeasure p2 {{ structure = m2; arity = 2; params = (); rtype {{ q0: {alpha}, q1: {1 - alpha} }}; }}\n"
            f"rmeasure p3 {{ structure = m2; arity = 2; params = (); rtype {{ q0: {beta}, q1: {1 - beta} }}; }}\n"
        )
        self.ws = self._write("ws.rl", workspace)

        a, b = rng.choice([(Fraction(1, 4), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 5), Fraction(1, 4))])
        self.ineq = self._write("ineq.txt", f"<= {a} : 1,0\n<= {b} : 0,1\n")
        s, t = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]), rng.choice([Fraction(1, 2), Fraction(3, 4)])
        self.eq_feasible = self._write("eq_feasible.txt", f"= {s} : 1,1,0\n= {t} : 0,1,1\n")
        self.st_feasible = (s, t)
        u, v = rng.choice([(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 3))])
        self.eq_infeasible = self._write("eq_infeasible.txt", f"= {u} : 1,1,0\n= {v} : 0,1,1\n")
        self.pix = [0, 0, 1, 1]
        rng.shuffle(self.pix)
        self.mix = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        self.rho_case = (rng.randrange(3), rng.randrange(3), rng.randrange(3))  # (type index, b, parameter)
        self.commands = self._commands()

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    # -- commands and their expected outputs -------------------------------------------

    def _commands(self):
        """[(argv, check(exit code, stdout lines) -> bool)]"""
        alpha, beta = self.alpha, self.beta
        agree = Fraction(sum(1 for x, y in zip(self.f, self.g) if x == y), 8)
        rho_hat = alpha * beta + (1 - alpha) * (1 - beta)
        i, b, a = self.rho_case
        rho_ab = oracles.trace_fraction(3, C3, lambda r, x, y: (x, y) in r["E"], (a,), (i,), b)
        mix = self.mix
        mixed = [mix / 2, mix / 2, (1 - mix) / 2, (1 - mix) / 2]
        defect = oracles.atomless_defect(mixed)
        threshold = min(mixed) / 2
        s, t = self.st_feasible

        def exact(code, lines):
            return lambda c, out: c == code and out == lines

        def axiom_lines(out, atomless):
            groups = [ln.split()[1] for ln in out]
            return (
                groups == ["axiom-validity", "axiom-boolean", "axiom-distance", "axiom-fullness",
                           "axiom-event", "axiom-measure", "axiom-atomless", "axiom-transfer"]
                and all(ln.startswith("PASS") for ln in out if "atomless" not in ln)
                and atomless in out
            )

        def axioms_r2(c, out):
            return c == 0 and axiom_lines(out, "PASS axiom-atomless defect 1/8 vs threshold 1/8")

        def convex(c, out):
            ok = defect <= threshold
            want = f"{'PASS' if ok else 'FAIL'} axiom-atomless defect {defect} vs threshold {threshold}"
            return c == (0 if ok else 1) and out[0] == "space " + ", ".join(map(rat, mixed)) and axiom_lines(out[1:], want)

        def dependent(c, out):
            m = re.fullmatch(r"FAIL independence witness .+ lhs (\S+) rhs (\S+)", out[0]) if len(out) == 1 else None
            # either orbit of M2^2 (x = y, x != y) separates P[f = f] from rho_hat = 1/2
            return c == 1 and m is not None and m.groups() in {("1/1", "1/2"), ("0/1", "1/2")}

        def realized(c, out):
            if c != 0 or out[-1] != "round-trip exact" or not out[0].startswith("space "):
                return False
            weights = fractions_of(out[0][len("space "):])
            cols = [fractions_of(ln.split("=", 1)[1]) for ln in out[1:-1]]
            group = oracles.automorphisms(2, {})
            got = oracles.pushforward(group, weights, list(zip(*[[int(x) for x in col] for col in cols])))
            return sum(weights) == 1 and got == {(0, 0): alpha, (0, 1): 1 - alpha}

        def certified(c, out):
            if c != 0 or out[0] != "FEASIBLE":
                return False
            reps = oracles.orbit_reps(2, {}, 3)  # the joint (x, y, w) space
            weights = {}
            for ln in out[1:]:
                m = re.fullmatch(r"  q(\d+): (\S+)", ln)
                if m is None:
                    return False
                weights[reps[int(m.group(1))]] = Fraction(m.group(2))
            group = oracles.automorphisms(2, {})
            inst = sum((wt for r, wt in weights.items() if r[0] == r[1]), Fraction(0))
            return (
                all(wt > 0 for wt in weights.values())
                and sum(weights.values()) == 1
                and oracles.marginal(group, weights, (0, 2)) == {k: v for k, v in {(0, 0): alpha, (0, 1): 1 - alpha}.items() if v}
                and oracles.marginal(group, weights, (1, 2)) == {k: v for k, v in {(0, 0): beta, (0, 1): 1 - beta}.items() if v}
                and inst == rho_hat
            )

        def farkas(path, kind):
            rows = []
            with open(path, encoding="utf-8") as fh:
                for ln in fh:
                    head, _, tail = ln.partition(":")
                    rel = "<=" if head.startswith("<=") else "="
                    vals = fractions_of(tail)
                    rows.append(({k: x for k, x in enumerate(vals)}, Fraction(head.strip(" <=")), rel))

            def check(c, out):
                if c != 0 or out[0] != "INFEASIBLE" or out[2] != "certificate verifies":
                    return False
                nums = [int(x) for x in re.findall(r"-?\d+", out[1])]
                if kind == "ineq":
                    return out[1].startswith("  certificate: InfeasibleIneqCertificate(") and oracles.farkas_ineq_ok(rows, nums[:-1], nums[-1])
                return out[1].startswith("  certificate: InfeasibleEqCertificate(") and oracles.farkas_eq_ok(rows, nums[:-1], nums[-1])

            return check

        def types_listing(n, rels, arity):
            reps = oracles.orbit_reps(n, rels, arity)
            group = oracles.automorphisms(n, rels)
            variables = [f"x{k}" for k in range(arity)]

            def check(c, out):
                if c != 0 or len(out) != len(reps):
                    return False
                for k, (ln, rep) in enumerate(zip(out, reps)):
                    orbit = oracles.orbit(group, rep)
                    head = f"q{k} rep {rep} orbit-size {len(orbit)} isolated-by "
                    if not ln.startswith(head):
                        return False
                    if oracles.extension(ln[len(head):], n, rels, variables) != orbit:
                        return False
                return True

            return check

        levels = ", ".join(map(str, self.h))
        ws = ["--workspace", self.ws]
        s3 = oracles.orbit_reps(3, C3, 1), oracles.orbit_reps(3, C3, 2)
        categoricity = []
        for n, reps in enumerate(s3, start=1):
            categoricity.append(f"PASS type-space-size n={n} |S_{n}|={len(reps)} (finite)")
            categoricity.append(f"PASS realize-battery n={n} count={oracles.simplex_count(len(reps), 4)}")
        return [
            (ws + ["eval", "--rand", "r3", "--cformula", "mu[[ x = y ]]", "--bind", "x=f,y=g"], exact(0, [rat(agree)])),
            (ws + ["eval", "--rand", "r3", "--cformula", "sup x (min(mu[[x = #0]], mu[[x = #1]]))"], exact(0, ["1/2"])),
            (ws + ["eval", "--rand", "r1", "--cformula", "inf x (sup y (dK(x, y)))"], exact(0, ["1/1"])),
            (ws + ["--budget", "10", "eval", "--rand", "r3", "--cformula", "sup x (mu[[x = #0]])"], exact(4, [])),
            (ws + ["eval", "--rand", "r9", "--cformula", "mu[[ x = x ]]"], exact(2, [])),
            (ws + ["check", "axioms", "--rand", "r2"], axioms_r2),
            (ws + ["check", "types", "--structure", "c3"],
             lambda c, out: c == 0 and bool(out) and all(ln.startswith("PASS types-identity ") for ln in out)),
            (ws + ["check", "categoricity", "--structure", "c3"], exact(0, categoricity)),
            (ws + ["check", "stability", "--structure", "c3", "--phi", "E(x, y)"], exact(0, ["PASS rho-consistency E(x, y)"])),
            (ws + ["check", "independence", "--rand", "r3", "--c", "f", "--b", "g"], exact(0, ["PASS independence checked=4"])),
            (ws + ["check", "independence", "--rand", "r3", "--c", "f", "--b", "f"], dependent),
            (ws + ["rho", "--structure", "c3", "--phi", "E(x, y)", "--p", f"q{i}", "--b", str(b), "--A", str(a)], exact(0, [rat(rho_ab)])),
            (ws + ["rho", "--structure", "c3", "--phi", "exists z (E(x, z) & E(z, y))", "--p", "q0", "--b", str(b)], exact(0, ["1/3"])),
            (ws + ["rho", "--structure", "m2", "--phi", "x = y", "--rho-hat", "--p-measure", "p2", "--q-measure", "p3"], exact(0, [rat(rho_hat)])),
            (ws + ["rho", "--structure", "m2", "--phi", "x = y", "--certify", "--p-measure", "p2", "--q-measure", "p3"], certified),
            (ws + ["realize", "--rmeasure", "p2"], realized),
            (ws + ["dmetric", "--m1", "p2", "--m2", "p3"], exact(0, [rat(abs(alpha - beta))])),
            (ws + ["fiber", "--mu", "dy2", "--nu", "dy1", "--pix", ",".join(map(str, self.pix)), "--piy", "0,1"],
             exact(0, [f"({x},{y}): 1/4" for x, y in enumerate(self.pix)] + ["marginals exact"])),
            (ws + ["extend", "--problem", self.ineq], farkas(self.ineq, "ineq")),
            (ws + ["extend", "--problem", self.eq_feasible],
             exact(0, ["FEASIBLE", "  mu = " + ", ".join(map(rat, (1 - t, s + t - 1, 1 - s))), "certificate verifies"])),
            (ws + ["extend", "--problem", self.eq_infeasible], farkas(self.eq_infeasible, "eq")),
            (ws + ["convex", "--parts", f"{mix}:r1,{1 - mix}:r1"], convex),
            (ws + ["approx-simple", "--rand", "r2", "--f", "h", "--algebra", "e1;e2", "--eps", "1/2"],
             exact(0, [f"g = [{levels}]", "dK 0/1"])),
            (ws + ["types", "--structure", "c3", "--arity", "2"], types_listing(3, C3, 2)),
            (ws + ["types", "--structure", "l3"], types_listing(3, L3, 1)),
        ]

    # -- running them ----------------------------------------------------------------

    def _run_child(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.Popen(
            [sys.executable, "-c", ENTRY, *argv],
            cwd=self.dir, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        with proc.stdout, proc.stderr:
            out = proc.stdout.read()
            err = proc.stderr.read().decode()
        proc.wait()
        peak = [line.split()[1] for line in err.splitlines() if line.startswith(PEAK_MARK + " ")]
        self.rss_kb.setdefault(tuple(argv), []).append(int(peak[-1]))
        return proc.returncode, out.decode()

    def _run_in_process(self, argv: list[str]) -> tuple[int, str]:
        import randlab.cli

        clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = randlab.cli.main(argv)
        return code, out.getvalue()

    def _queries(self, run) -> list[Query]:
        def check(k, expect):
            def ok(result) -> bool:
                code, stdout = result
                same = self.first_stdout.setdefault(k, stdout) == stdout
                return same and expect(code, stdout.splitlines())

            return ok

        return [
            Query("cli.main", lambda argv=argv: run(argv), check(k, expect), in_child=run == self._run_child)
            for k, (argv, expect) in enumerate(self.commands)
        ]

    def queries(self) -> list[Query]:
        return self._queries(self._run_child)

    def warmup(self) -> list[Query]:
        return []  # each command is a fresh process; nothing here warms it

    def trace_queries(self) -> list[Query]:
        return self._queries(self._run_in_process)

    def peak_rss_mb(self) -> float:
        """Largest resident set of any command, as the median over its runs:
        the largest over single runs reads how the allocator happened to
        fall in the worst of a hundred processes."""
        return max(statistics.median(runs) for runs in self.rss_kb.values()) / 1024
