"""Stable-formula machinery over finite structures.

For a formula phi(x, y, w..) and a finite structure, the global phi-types
are exactly the traces {b : phi(a, b)} of elements, every orbit is
finite, and the algebraic closure of any parameter set is the whole
structure.  Consequently the definability-over-acl condition on
nonforking extensions is vacuous, local ranks collapse to 0, and the
probability that a random nonforking extension satisfies an instance is
a ratio of trace counts, computable exactly.

The randomized counterpart evaluates that probability in expectation
over a fiber product of type measures, yielding the definability
predicate of a randomized type and the canonical (stationary) extension
construction, certified independently by linear feasibility.

Two tables are kept, module-level functools caches that are emptied with
the others: `_trace`, one trace {b : phi(a, b, w)} per (context, a, w),
whose (a, b) pairs each reader charges on every call, kept or fresh, and
`_fibre`, one fibre product per (p, q, nx) for the measure level.  One
share count, `_trace_shares`, serves `rho` over p's orbit (kept),
`rho_by_multiplicity` over the solutions of p's isolating formula and
`rho_fn` over each fibre cell: the two rho routes differ only in where
their tuples come from.  `ladder_length` tests single instances, so that
its budget bounds the formula evaluations.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ValidationError, charge, limit
from .extension import (
    Certificate,
    LinFeasProblem,
    extend_measure_eq,
)
from .formulas import Formula, TypeIs, Var, free_vars, substitute
from .measure import (
    FinProbSpace,
    MeasurableMap,
    FiberSpace,
    RationalFn,
    fiber_product,
    image_measure,
    pair,
)
from .randomization import Randomization, RandomElement
from .record import Record
from .rtypes import RMeasure, rtype_of
from .semantics import TypeId, TypeSpace, eval_formula, isolating_formula, type_space
from .semantics import _extension
from .structures import FinStructure


class PhiContext(Record):
    """A formula with designated variable groups x, y and parameters w.

    `w_values` instantiates the parameter variables for the operations
    that work inside one structure (ladders, trace spaces, ranks, rho);
    the measure-level operations instantiate them per fiber point from
    the shared parameter coordinates instead.
    """

    structure: FinStructure
    phi: Formula
    x_vars: tuple[str, ...]
    y_vars: tuple[str, ...]
    w_vars: tuple[str, ...] = ()
    w_values: tuple[int, ...] | None = None

    def __post_init__(self):
        groups = [self.x_vars, self.y_vars, self.w_vars]
        flat = [v for g in groups for v in g]
        if len(set(flat)) != len(flat):
            raise ValidationError("variable groups must be disjoint")
        fv = free_vars(self.phi)
        if not fv <= set(flat):
            raise ValidationError(
                f"free variables {sorted(fv - set(flat))} not covered by the groups"
            )
        if self.w_values is not None and len(self.w_values) != len(self.w_vars):
            raise ValidationError("w_values must match w_vars")

    def instance_holds(
        self, a: tuple[int, ...], b: tuple[int, ...], w: tuple[int, ...]
    ) -> bool:
        val = dict(zip(self.x_vars, a))
        val.update(zip(self.y_vars, b))
        val.update(zip(self.w_vars, w))
        return eval_formula(self.structure, self.phi, val)

    def _w_or_raise(self) -> tuple[int, ...]:
        if self.w_vars and self.w_values is None:
            raise ValidationError("operation needs instantiated parameter values")
        return self.w_values or ()


# --- Ladders and trace spaces ----------------------------------------------------

def ladder_length(ctx: PhiContext, bound: int) -> int:
    """Largest n <= bound with tuples a_i, b_j such that phi(a_i, b_j)
    holds exactly when i < j.  Always finite over a finite structure.

    The search tries at most `limit()` (a, b) pairs; one more raises
    BudgetError."""
    if bound < 1:
        raise ValidationError("bound must be at least 1")
    m = ctx.structure
    w = ctx._w_or_raise()
    xs = list(itertools.product(m.elements, repeat=len(ctx.x_vars)))
    ys = list(itertools.product(m.elements, repeat=len(ctx.y_vars)))
    best = 0
    tried = 0
    cap = limit()

    def extend(a_list: list, b_list: list) -> None:
        nonlocal best, tried
        k = len(a_list)
        best = max(best, k)
        if k >= bound:
            return
        for a in xs:
            if any(ctx.instance_holds(a, b, w) for b in b_list):
                continue
            for b in ys:
                tried += 1
                if tried > cap:
                    charge("ladder search", tried)
                if ctx.instance_holds(a, b, w):
                    continue
                if all(ctx.instance_holds(ai, b, w) for ai in a_list):
                    extend(a_list + [a], b_list + [b])
                    if best >= bound:
                        return

    extend([], [])
    return best


class PhiType(Record):
    """A realized global phi-type, identified with its trace."""

    trace: frozenset[tuple[int, ...]]
    witness: tuple[int, ...]


@lru_cache(maxsize=None)
def _trace(ctx: PhiContext, a: tuple[int, ...], w: tuple[int, ...]) -> frozenset:
    """{b : phi(a, b, w)}: the extension of phi over the y names, with the
    x and w names bound as `instance_holds` binds them.  Kept per
    (ctx, a, w), so every reader evaluates each instance once; the table
    holds up to |M|**(|x| + |y|) tuples per context until
    `_trace.cache_clear()`, and each reader charges that count."""
    bound = [*zip(ctx.x_vars, a), *zip(ctx.w_vars, w)]
    return _extension(ctx.structure, ctx.phi, ctx.y_vars, bound)


_ZERO = Fraction(0)


def _trace_shares(ctx: PhiContext, tuples, w: tuple) -> tuple[Counter, int]:
    """How many distinct traces of the x tuples contain each b, a b in none
    being absent, and how many distinct traces there are: b's share of
    them is the ratio."""
    traces = {_trace(ctx, a, w) for a in tuples}
    return Counter(b for t in traces for b in t), len(traces)


def _share(ctx: PhiContext, tuples, w: tuple, b: tuple[int, ...]) -> Fraction:
    """The share of the distinct traces of the x tuples that contain b."""
    counts, n = _trace_shares(ctx, tuples, w)
    return Fraction(counts[b], n) if b in counts else _ZERO


def phi_type_space(ctx: PhiContext) -> list[PhiType]:
    """All distinct traces, each with its least witness, in a stable order.

    The |M|**(|x| + |y|) (a, b) pairs are charged to the budget first."""
    m = ctx.structure
    w = ctx._w_or_raise()
    charge("phi type space", m.size, len(ctx.x_vars) + len(ctx.y_vars))
    seen: dict[frozenset, tuple[int, ...]] = {}
    for a in itertools.product(m.elements, repeat=len(ctx.x_vars)):
        t = _trace(ctx, a, w)
        if t not in seen:
            seen[t] = a
    ordered = sorted(seen.items(), key=lambda kv: kv[1])
    return [PhiType(t, a) for t, a in ordered]


def cb_rank_mult(ctx: PhiContext, pi: Formula) -> tuple[int | None, int]:
    """Rank and multiplicity of the trace classes consistent with pi.

    The trace space of a finite structure is finite and discrete, so a
    consistent pi has rank 0 and multiplicity the number of distinct
    traces among its solutions; an inconsistent pi reports rank None.
    """
    w = ctx._w_or_raise()
    fv = free_vars(pi)
    if not fv <= set(ctx.x_vars):
        raise ValidationError(
            f"partial type may only use the x variables, got {sorted(fv)}"
        )
    charge("trace table", ctx.structure.size, len(ctx.x_vars) + len(ctx.y_vars))
    solutions = _extension(ctx.structure, pi, ctx.x_vars)
    mult = len({_trace(ctx, a, w) for a in solutions})
    if not mult:
        return (None, 0)
    return (0, mult)


# --- rho ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _isolated_solutions(
    p_space: TypeSpace, p: TypeId, x_vars: tuple[str, ...]
) -> frozenset[tuple[int, ...]]:
    """The solutions over M^|x| of p's isolating formula, renamed to x_vars.

    Found by evaluating the formula, not read from the orbit, so that
    `rho_by_multiplicity` stays independent of `rho`.  Only the tuples are
    cached: formulas are large and each is needed once per type.
    """
    iso = substitute(
        isolating_formula(p_space, p),
        {f"x{i}": Var(v) for i, v in enumerate(x_vars)},
    )
    return _extension(p_space.structure, iso, x_vars)


def _space_w(ctx: PhiContext, p_space: TypeSpace) -> tuple[int, ...]:
    """ctx's parameters w, validated against a type space of the x variables."""
    if p_space.structure != ctx.structure:
        raise ValidationError("type space belongs to a different structure")
    if p_space.arity != len(ctx.x_vars):
        raise ValidationError("p must be a type in the x variables")
    w = ctx._w_or_raise()
    if w and not set(w) <= set(p_space.params):
        raise ValidationError(
            "instantiated parameters must come from the type's parameter set"
        )
    return w


@lru_cache(maxsize=None)
def _orbit_traces(
    ctx: PhiContext, p_space: TypeSpace, p: TypeId
) -> dict[tuple[int, ...], Fraction]:
    """rho's values for p: the trace shares of p's orbit, checked and built
    once per (context, space, type).  Callers must not change the table."""
    counts, n = _trace_shares(ctx, p_space.orbit(p), _space_w(ctx, p_space))
    return {b: Fraction(k, n) for b, k in counts.items()}


def _b_tuple(ctx: PhiContext, p_space: TypeSpace, b) -> tuple[int, ...]:
    """The tuple b of a rho instance, validated against the y variables."""
    m = ctx.structure
    if isinstance(b, TypeId):
        # a type of the y variables over p's parameters; orbit refuses others
        type_space(m, len(ctx.y_vars), p_space.params).orbit(b)
        b = b.rep
    b = (b,) if isinstance(b, int) else tuple(b)
    if len(b) != len(ctx.y_vars):
        raise ValidationError("b must match the y variable group")
    if not all(e in m.elements for e in b):
        raise ValidationError(f"b {b} outside the universe of size {m.size}")
    return b


def rho(
    ctx: PhiContext,
    p_space: TypeSpace,
    p: TypeId,
    b,
) -> Fraction:
    """Probability that a random nonforking extension of p satisfies the
    phi-instance at b: the fraction of traces of p's orbit containing b.

    `b` is an element, a tuple, or a type of
    `type_space(ctx.structure, len(ctx.y_vars), p_space.params)`; a
    TypeId of any other space is refused.  `rho_by_multiplicity` computes
    the same value from other tuples, without the kept table.
    """
    charge("trace table", ctx.structure.size, len(ctx.x_vars) + len(ctx.y_vars))
    return _orbit_traces(ctx, p_space, p).get(_b_tuple(ctx, p_space, b), _ZERO)


def rho_by_multiplicity(
    ctx: PhiContext,
    p_space: TypeSpace,
    p: TypeId,
    b,
) -> Fraction:
    """rho as the ratio of multiplicities of (isolating formula of p) &
    phi(x, b) over the isolating formula alone.

    An independent check on `rho`, used by `randlab check stability`: the
    solutions come from evaluating the isolating formula, once per type,
    never from the orbit table.  Those satisfying phi(x, b) are exactly
    those whose trace contains b.
    """
    w = _space_w(ctx, p_space)
    b_tuple = _b_tuple(ctx, p_space, b)
    charge("trace table", ctx.structure.size, len(ctx.x_vars) + len(ctx.y_vars))
    solutions = _isolated_solutions(p_space, p, ctx.x_vars)
    return _share(ctx, solutions, w, b_tuple)


# --- Type-space plumbing for the measure level --------------------------------------

def restriction_map(space: TypeSpace, indices: Sequence[int], target: TypeSpace) -> MeasurableMap:
    """Coordinate restriction between parameter-free joint type spaces."""
    if space.params or target.params:
        raise ValidationError("restriction maps act on parameter-free spaces")
    if len(indices) != target.arity:
        raise ValidationError("index list must match the target arity")
    mapping = {
        q: target.type_of(tuple(q.rep[i] for i in indices)) for q in space.types
    }
    return MeasurableMap(space.types, target.types, mapping)


def _measure_space(nu: RMeasure) -> FinProbSpace:
    support = [(q, nu.weights[q]) for q in nu.space.types if nu.weights[q] > 0]
    return FinProbSpace(support)


def _heads(space: TypeSpace, q: TypeId, head: int, w: tuple) -> list[tuple]:
    """The leading `head` coordinates of the members of q's orbit whose
    tail is w, sorted: the realizations over w of q's head part."""
    return [t[:head] for t in space.orbit(q) if t[head:] == w]


def _widths(ctx: PhiContext, p: RMeasure, q: RMeasure) -> tuple[int, int, int]:
    """The widths of p's x block, q's y block and their shared W block."""
    if p.space.structure != ctx.structure or q.space.structure != ctx.structure:
        raise ValidationError("type measures live on a different structure than phi")
    nx = len(ctx.x_vars)
    nw = p.space.arity - nx
    ny = q.space.arity - nw
    if nw < 0 or ny < 0:
        raise ValidationError("measures do not share a parameter block")
    if len(ctx.w_vars) > nw:
        raise ValidationError(
            f"{len(ctx.w_vars)} w variables for {nw} parameter coordinates"
        )
    if p.space.params or q.space.params:
        raise ValidationError("measure-level operations use joint spaces over ()")
    return nx, ny, nw


@lru_cache(maxsize=None)
def _fibre(p: RMeasure, q: RMeasure, nx: int) -> tuple[FinProbSpace, dict]:
    """The fibre product of p and q over their shared trailing W block, and
    for each pair (p0, q0) of it: p0's realizations over p0's own W part w,
    one realization b of q0 over w, and w.

    q0's orbit meets that w because the pair lies in the fibre product,
    and rho is automorphism invariant, so any w of the fibre gives the
    same values.  Each p0's realizations are read once.  One fibre per
    (p, q, nx) serves `rho_fn`, `nonforking_extension` and, through
    `rho_hat`, `stationarity_problem`.  Callers must not change the cells.
    """
    nw = p.space.arity - nx
    ny = q.space.arity - nw
    w_space = type_space(p.space.structure, nw, ())
    mu_p, mu_q = _measure_space(p), _measure_space(q)

    def leg(mu: FinProbSpace, head: int) -> MeasurableMap:
        return MeasurableMap(
            mu.points, w_space.types, {t: w_space.type_of(t.rep[head:]) for t in mu.points}
        )

    joint = fiber_product(mu_p, mu_q, FiberSpace(leg(mu_p, nx), leg(mu_q, ny)))
    heads: dict[TypeId, list[tuple]] = {}
    cells = {}
    for p0, q0 in joint.points:
        w = p0.rep[nx:]
        if p0 not in heads:
            heads[p0] = _heads(p.space, p0, nx, w)
        cells[(p0, q0)] = (heads[p0], _heads(q.space, q0, ny, w)[0], w)
    return joint, cells


def rho_fn(ctx: PhiContext, p: RMeasure, q: RMeasure) -> tuple[RationalFn, FinProbSpace]:
    """rho materialised on the fiber product of the two measures; the w
    variables name w's leading coordinates."""
    nx, ny, nw = _widths(ctx, p, q)
    if ny != len(ctx.y_vars):
        raise ValidationError("measures do not share a parameter block")
    # charged on every call, as a fresh `_fibre` charges its base space first;
    # the other callers charge a larger space before theirs
    type_space(ctx.structure, nw, ())
    charge("trace table", ctx.structure.size, len(ctx.x_vars) + len(ctx.y_vars))
    joint, cells = _fibre(p, q, nx)
    named = len(ctx.w_vars)
    return RationalFn(joint.points, {
        pt: _share(ctx, realizations, w[:named], b)
        for pt, (realizations, b, w) in cells.items()
    }), joint


def rho_hat(ctx: PhiContext, p: RMeasure, q: RMeasure) -> Fraction:
    """Expected rho under the fiber product of the two type measures."""
    fn, joint = rho_fn(ctx, p, q)
    return pair(fn, joint)


# --- The canonical nonforking extension ----------------------------------------------

def nonforking_extension(ctx: PhiContext, p: RMeasure, q: RMeasure) -> RMeasure:
    """The joint measure extending p by the new parameters described by q.

    Over each fiber pair, the pair's mass is spread uniformly over the
    completions obtained from the realizations of the x-type, read from
    p0's orbit over p0's own W part; transitivity of the parameter-fixing
    group makes this the same as averaging over the trace classes, so
    every phi-instance value equals rho_hat.
    """
    nx, totaly, nw = _widths(ctx, p, q)
    target = type_space(ctx.structure, nx + totaly + nw, ())
    joint, cells = _fibre(p, q, nx)
    # masses as ints over the joint's denominator times the lcm of the counts
    scale = math.lcm(*(len(realizations) for realizations, _, _ in cells.values()))
    numerators = joint._numerators
    acc: dict[TypeId, int] = {}
    for pt, (realizations, b, w) in cells.items():
        share = numerators[pt] * (scale // len(realizations))
        for a in realizations:
            r0 = target.type_of(a + b + w)
            acc[r0] = acc.get(r0, 0) + share
    den = joint.denominator * scale
    return RMeasure(target, {r0: Fraction(n, den) for r0, n in acc.items()})


def stationarity_problem(ctx: PhiContext, p: RMeasure, q: RMeasure) -> LinFeasProblem:
    """The linear system a joint extension must satisfy: both marginals,
    plus every phi-instance pinned to its rho_hat value."""
    m = ctx.structure
    nx, total_y, nw = _widths(ctx, p, q)
    ny = len(ctx.y_vars)
    if total_y % ny != 0:
        raise ValidationError("q's arity is not a whole number of y blocks")
    copies = total_y // ny
    target = type_space(m, nx + total_y + nw, ())
    block = type_space(m, ny + nw, ())

    constraints: list[tuple[RationalFn, Fraction, str]] = []
    # each marginal's rows: the target types grouped by their restriction
    for nu, indices in (
        (p, list(range(nx)) + list(range(nx + total_y, target.arity))),
        (q, list(range(nx, target.arity))),
    ):
        restrict = restriction_map(target, indices, nu.space)
        fibres: dict[TypeId, list[TypeId]] = {}
        for t in target.types:
            fibres.setdefault(restrict(t), []).append(t)
        for s in nu.space.types:
            row = RationalFn.indicator(target.types, fibres.get(s, ()))
            constraints.append((row, nu.weights[s], "="))
    for i in range(copies):
        q_i = image_measure(
            _measure_space(q),
            restriction_map(
                q.space,
                list(range(i * ny, (i + 1) * ny)) + list(range(total_y, q.space.arity)),
                block,
            ),
        )
        value = rho_hat(ctx, p, RMeasure(block, q_i.weight))

        def holds(t: TypeId) -> bool:
            rep = t.rep
            a = rep[:nx]
            b = rep[nx + i * ny : nx + (i + 1) * ny]
            w = rep[nx + total_y : nx + total_y + len(ctx.w_vars)]
            return b in _trace(ctx, a, w)

        row = RationalFn.indicator(target.types, filter(holds, target.types))
        constraints.append((row, value, "="))
    return LinFeasProblem(target.types, constraints)


def certify_nonforking(
    ctx: PhiContext, p: RMeasure, q: RMeasure
) -> tuple[LinFeasProblem, Certificate]:
    """Feed the stationarity system to the equality extension solver."""
    prob = stationarity_problem(ctx, p, q)
    return prob, extend_measure_eq(prob)


# --- Independence ------------------------------------------------------------------

class IndependenceVerdict(Record):
    independent: bool
    witness: Formula | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None
    checked: int = 0


def check_independence(
    rand: Randomization,
    c: Sequence[RandomElement],
    b: Sequence[RandomElement],
    params: Sequence[RandomElement],
) -> IndependenceVerdict:
    """Decide whether c and b are independent over the parameters.

    Independence here means: for every formula phi(x, y, w), the measured
    probability of phi(c, b, params) equals the expected nonforking value
    rho_hat computed from the two type measures.  Over a finite structure
    the formulas are the unions of orbits of the joint type space, and both
    sides add up over disjoint orbits, so the single orbits decide them
    all: the first violating orbit, in index order, is the first violating
    union in the order empty, singles, pairs, ...  The expected mass of an
    orbit is read off the nonforking extension, whose mass there is rho_hat
    of the orbit's formula.  `checked` counts the unions up to the first
    violating orbit, or all 2^|orbits| of them.
    """
    if not rand.is_constant:
        raise ValidationError("independence checking needs a constant family")
    m = rand.structure

    def names(letter: str, count: int) -> tuple[str, ...]:
        return (letter,) if count == 1 else tuple(
            f"{letter}{i}" for i in range(count)
        )

    c, b, params = tuple(c), tuple(b), tuple(params)
    x_vars = names("x", len(c))
    y_vars = names("y", len(b))
    w_vars = names("w", len(params))
    args = tuple(Var(v) for v in x_vars + y_vars + w_vars)
    measured = rtype_of(rand, c + b + params)
    space = measured.space
    ctx = PhiContext(m, TypeIs(space, space.types[0], args), x_vars, y_vars, w_vars)
    expected = nonforking_extension(ctx, rtype_of(rand, c, params), rtype_of(rand, b, params))
    for t in space.types:
        lhs, rhs = measured.weights[t], expected.weights[t]
        if lhs != rhs:
            return IndependenceVerdict(False, TypeIs(space, t, args), lhs, rhs, t.index + 2)
    return IndependenceVerdict(True, None, None, None, 2 ** len(space))
