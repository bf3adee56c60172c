"""Reference computations the benchmark checks randlab's outputs against.

Nothing here imports randlab.  Structures are given as a universe size
plus a dict of relation tables (sets of int tuples); probability spaces as
lists of Fractions.  Every routine is the plain brute-force definition,
written for clarity over speed, so it can serve as an oracle.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

Rels = dict[str, set[tuple[int, ...]]]


# --- Automorphisms, orbits, traces -------------------------------------------------

def automorphisms(n: int, rels: Rels, fix=()) -> list[tuple[int, ...]]:
    """Every permutation of range(n) that preserves each relation table and
    fixes `fix` pointwise, in lexicographic order."""
    out = []
    for perm in itertools.permutations(range(n)):
        if any(perm[a] != a for a in fix):
            continue
        if all({tuple(perm[e] for e in t) for t in table} == table for table in rels.values()):
            out.append(perm)
    return out


def orbit(group, tup: tuple[int, ...]) -> set[tuple[int, ...]]:
    return {tuple(sigma[e] for e in tup) for sigma in group}


def canonical(group, tup: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least member of the orbit of `tup`."""
    return min(orbit(group, tup))


def orbit_reps(n: int, rels: Rels, arity: int, fix=()) -> list[tuple[int, ...]]:
    """Canonical representatives of the orbits of Aut(M/fix) on M^arity, sorted."""
    group = automorphisms(n, rels, fix)
    return sorted({canonical(group, t) for t in itertools.product(range(n), repeat=arity)})


def trace_fraction(n: int, rels: Rels, holds, params, p_rep, b) -> Fraction:
    """rho by its definition: over the orbit of p_rep under Aut(M/params),
    the share of distinct traces {b' : holds(a, b')} that contain b."""
    group = automorphisms(n, rels, params)
    traces = {
        frozenset(bb for bb in range(n) if holds(rels, a[0], bb))
        for a in orbit(group, tuple(p_rep))
    }
    return Fraction(sum(1 for t in traces if b in t), len(traces))


# --- Atomless defect ---------------------------------------------------------------

def atomless_defect(weights: list[Fraction]) -> Fraction:
    """max over nonempty events U of min over subevents V of |mu(V) - mu(U)/2|,
    by enumerating every U and every submask V of U."""
    n = len(weights)
    worst = Fraction(0)
    for u in range(1, 1 << n):
        half = sum(weights[i] for i in range(n) if u >> i & 1) / 2
        best = None
        v = u
        while True:
            gap = abs(sum(weights[i] for i in range(n) if v >> i & 1) - half)
            best = gap if best is None else min(best, gap)
            if v == 0:
                break
            v = (v - 1) & u
        worst = max(worst, best)
    return worst


def dyadic_defect(depth: int) -> Fraction:
    """Closed form on the uniform 2^depth base: a one-atom event misses its
    half by half an atom, and no event misses by more."""
    return Fraction(1, 2 ** (depth + 1))


# --- Linear feasibility certificates ------------------------------------------------

def feasible_witness_ok(rows, weights: dict) -> bool:
    """`rows` are (values: dict point -> Fraction, bound, relation) triples;
    `weights` must be a probability vector meeting every row exactly."""
    if any(w < 0 for w in weights.values()) or sum(weights.values(), Fraction(0)) != 1:
        return False
    for values, bound, rel in rows:
        total = sum((v * weights.get(p, Fraction(0)) for p, v in values.items()), Fraction(0))
        if (rel == "=" and total != bound) or (rel == "<=" and total > bound):
            return False
    return True


def farkas_ineq_ok(rows, multipliers, n) -> bool:
    """For rows `<f_i, mu> <= b_i`: m_i >= 0 with sum m_i f_i >= n at every
    point and sum m_i b_i < n proves that no probability vector exists."""
    if len(multipliers) != len(rows) or any(m < 0 for m in multipliers):
        return False
    points = rows[0][0].keys()
    pointwise = all(
        sum(m * values[p] for m, (values, _, _) in zip(multipliers, rows)) >= n for p in points
    )
    return pointwise and sum(m * b for m, (_, b, _) in zip(multipliers, rows)) < n


def farkas_eq_ok(rows, multipliers, constant) -> bool:
    """For rows `<f_i, mu> = b_i`: signed m_i and c with sum m_i f_i + c >= 0
    at every point and sum m_i b_i + c < 0 proves infeasibility."""
    if len(multipliers) != len(rows):
        return False
    points = rows[0][0].keys()
    pointwise = all(
        constant + sum(m * values[p] for m, (values, _, _) in zip(multipliers, rows)) >= 0
        for p in points
    )
    return pointwise and constant + sum(m * b for m, (_, b, _) in zip(multipliers, rows)) < 0


# --- Type measures -----------------------------------------------------------------

def pushforward(group, weights, tuples) -> dict[tuple[int, ...], Fraction]:
    """Mass of each orbit (by canonical representative) under the map
    point -> tuple, for parallel lists of point weights and tuples."""
    out: dict[tuple[int, ...], Fraction] = {}
    for w, t in zip(weights, tuples):
        rep = canonical(group, tuple(t))
        out[rep] = out.get(rep, Fraction(0)) + w
    return out


def marginal(group, joint: dict, coords) -> dict[tuple[int, ...], Fraction]:
    """Image of a measure on orbit representatives under a coordinate restriction."""
    out: dict[tuple[int, ...], Fraction] = {}
    for rep, w in joint.items():
        if w:
            key = canonical(group, tuple(rep[i] for i in coords))
            out[key] = out.get(key, Fraction(0)) + w
    return out


def simplex_count(k: int, max_denominator: int) -> int:
    """Number of distinct probability vectors on k points whose entries are
    multiples of 1/d for some d <= max_denominator."""
    vecs = set()
    for d in range(1, max_denominator + 1):
        for combo in itertools.product(range(d + 1), repeat=k):
            if sum(combo) == d:
                vecs.add(tuple(Fraction(c, d) for c in combo))
    return len(vecs)


# --- First-order formulas -----------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|#\d+|[A-Za-z_][A-Za-z0-9_]*|[()=,!&|])")


def fo_holds(text: str, n: int, rels: Rels, env: dict[str, int]) -> bool:
    """Evaluate a formula in randlab's printed grammar (`!`, `&`, `|`, `->`,
    `exists v (...)`, `forall v (...)`, `t = t`, `R(t, ...)`, literals `#k`)
    by direct recursion on the text.  Relations are read from `rels`."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read formula at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tree, rest = _fo_implies(tokens)
    if rest:
        raise ValueError(f"trailing tokens {rest}")
    return _fo_eval(tree, n, rels, env)


def _fo_implies(toks):
    left, toks = _fo_binary(toks, "|", _fo_and)
    if toks and toks[0] == "->":
        right, toks = _fo_implies(toks[1:])
        return ("->", left, right), toks
    return left, toks


def _fo_and(toks):
    return _fo_binary(toks, "&", _fo_unary)


def _fo_binary(toks, op, sub):
    left, toks = sub(toks)
    while toks and toks[0] == op:
        right, toks = sub(toks[1:])
        left = (op, left, right)
    return left, toks


def _fo_unary(toks):
    head = toks[0]
    if head == "!":
        body, toks = _fo_unary(toks[1:])
        return ("!", body), toks
    if head in ("exists", "forall"):
        var = toks[1]
        body, toks = _fo_unary(toks[2:])
        return (head, var, body), toks
    if head == "(":
        inner, toks = _fo_implies(toks[1:])
        return inner, toks[1:]
    if len(toks) > 1 and toks[1] == "(":
        args, toks = [], toks[2:]
        while toks[0] != ")":
            args.append(toks[0])
            toks = toks[2:] if toks[1] == "," else toks[1:]
        return ("rel", head, tuple(args)), toks[1:]
    return ("=", head, toks[2]), toks[3:]


def _fo_term(t: str, env):
    return int(t[1:]) if t.startswith("#") else env[t]


def _fo_eval(node, n, rels, env) -> bool:
    op = node[0]
    if op == "=":
        return _fo_term(node[1], env) == _fo_term(node[2], env)
    if op == "rel":
        return tuple(_fo_term(t, env) for t in node[2]) in rels[node[1]]
    if op == "!":
        return not _fo_eval(node[1], n, rels, env)
    if op == "&":
        return _fo_eval(node[1], n, rels, env) and _fo_eval(node[2], n, rels, env)
    if op == "|":
        return _fo_eval(node[1], n, rels, env) or _fo_eval(node[2], n, rels, env)
    if op == "->":
        return not _fo_eval(node[1], n, rels, env) or _fo_eval(node[2], n, rels, env)
    test = any if op == "exists" else all
    return test(_fo_eval(node[2], n, rels, {**env, node[1]: a}) for a in range(n))


def extension(text: str, n: int, rels: Rels, variables) -> set[tuple[int, ...]]:
    """The tuples over `variables` that satisfy the formula."""
    return {
        t
        for t in itertools.product(range(n), repeat=len(variables))
        if fo_holds(text, n, rels, dict(zip(variables, t)))
    }
