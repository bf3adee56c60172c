"""Tarskian evaluation, automorphism groups, and classical type spaces.

A formula is evaluated through its compiled form.  `_FORMULAS` (terms:
`_TERMS`) maps each node class to a compile function, which turns a node
into one closure `(m, val) -> value` over its children's closures.  The
closure is built the first time the node is evaluated and kept on the
node as `_holds` (terms: `_value`), outside its fields, as
`formulas.free_vars` keeps `_free_vars`, so equality, hashing and repr
ignore it.  All three are read with `getattr(node, name, None)`, so the
first compile of a fresh node raises and catches no `AttributeError`.
Errors wait for the call: an unassigned variable, a literal
out of range, a foreign `TypeIs` or a value that is not a node raises
only when evaluation reaches it, as a walk of the tree would.

Types of tuples are represented semantically as orbits of the
automorphism group fixing the parameters pointwise: over a finite
structure, two tuples satisfy the same formulas with parameters in A
exactly when some automorphism over A maps one to the other.  The group
is never listed on the way to a type space.  Backtracks, one for each
image of a base point that the generators found so far do not reach,
find a strong generating set along the stabiliser chain of 0, 1, ...
(Sims 1970; McKay and Piperno 2014); each generator is checked as a full
automorphism before it is used, and a type space closes each tuple under
the generators.  Refinement and the backtrack read the incidence lists
`FinStructure.through`, not whole tables.  `automorphisms` lists the
group only when asked.  Every reader of a kept generating set goes
through `_generators`, the one place that refuses it past the budget.
Isolating formulas are synthesised on demand and are not stored on the
type.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import itemgetter

from .errors import ValidationError, charge, limit
from .formulas import (
    And,
    App,
    Const,
    Elem,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Rel,
    Term,
    TypeIs,
    Var,
    conj,
    disj,
)
from .record import Keyed, Record
from .structures import FinStructure


def _not_a_term(t):
    def value(m, val):
        raise TypeError(f"not a term: {t!r}")

    return value


def _not_a_formula(phi):
    def holds(m, val):
        raise TypeError(f"not a formula: {phi!r}")

    return holds


def _value(t):
    """The closure `(m, val) -> element` of term t, compiled on first use
    and kept on the node as `_value`."""
    value = getattr(t, "_value", None)
    if value is not None:
        return value
    compile_term = _TERMS.get(type(t), _not_a_term)
    if compile_term is _not_a_term:
        return compile_term(t)
    if type(t) is App:  # the arguments first, as `_holds` does subformulas
        for a in t.args:
            _value(a)
    value = compile_term(t)
    object.__setattr__(t, "_value", value)
    return value


def _holds(phi):
    """The closure `(m, val) -> bool` of formula phi, compiled on first use
    and kept on the node as `_holds`.  It is read with a default, so a
    node's first compile raises and catches nothing.

    The subformulas are compiled first, from here, so compiling nests one
    call per level of phi, as evaluating does, and reaches as deep."""
    holds = getattr(phi, "_holds", None)
    if holds is not None:
        return holds
    compile_formula = _FORMULAS.get(type(phi), _not_a_formula)
    if compile_formula is _not_a_formula:
        return compile_formula(phi)
    for name in phi._fields:
        child = getattr(phi, name)
        if type(child) in _FORMULAS:
            _holds(child)
    holds = compile_formula(phi)
    object.__setattr__(phi, "_holds", holds)
    return holds


def _unassigned(val, names) -> ValidationError:
    """The error of the first of `names` that `val` does not assign."""
    missing = next(v for v in names if v not in val)
    return ValidationError(f"unassigned free variable {missing!r}")


def _var(t):
    name = t.name

    def value(m, val):
        try:
            return val[name]
        except KeyError:
            raise ValidationError(f"unassigned free variable {name!r}") from None

    return value


def _elem(t):
    a = t.value

    def value(m, val):
        if not 0 <= a < m.size:
            raise ValidationError(f"element literal #{a} out of range")
        return a

    return value


def _const(t):
    name = t.name
    return lambda m, val: m.constant(name)


def _arguments(args):
    """The closure `(m, val) -> tuple` of an argument list, left to right;
    a list of variables alone is read straight off the valuation.  (A set
    of the argument types, not `all` over a generator: one stopped early is
    closed by raising `GeneratorExit` in it.)"""
    if {type(a) for a in args} == {Var}:
        names = tuple(a.name for a in args)
        get = itemgetter(*names)
        single = len(names) == 1

        def read(m, val):
            try:
                got = get(val)
            except KeyError:
                raise _unassigned(val, names) from None
            return (got,) if single else got

        return read
    values = [_value(a) for a in args]
    return lambda m, val: tuple([value(m, val) for value in values])


def _app(t):
    func, args = t.func, _arguments(t.args)
    return lambda m, val: m.apply(func, args(m, val))


def _eq(phi):
    left, right = phi.left, phi.right
    if type(left) is Var and type(right) is Var:
        a, b = names = left.name, right.name

        def holds(m, val):
            try:
                return val[a] == val[b]
            except KeyError:
                raise _unassigned(val, names) from None

        return holds
    left, right = _value(left), _value(right)
    return lambda m, val: left(m, val) == right(m, val)


def _rel(phi):
    name, args = phi.name, _arguments(phi.args)
    return lambda m, val: m.holds(name, args(m, val))


def _not(phi):
    body = _holds(phi.body)
    return lambda m, val: not body(m, val)


def _and(phi):
    left, right = _holds(phi.left), _holds(phi.right)
    return lambda m, val: left(m, val) and right(m, val)


def _or(phi):
    left, right = _holds(phi.left), _holds(phi.right)
    return lambda m, val: left(m, val) or right(m, val)


def _implies(phi):
    left, right = _holds(phi.left), _holds(phi.right)
    return lambda m, val: not left(m, val) or right(m, val)


def _exists(phi):
    var, body = phi.var, _holds(phi.body)

    def holds(m, val):
        inner = dict(val)
        for a in m.elements:
            inner[var] = a
            if body(m, inner):
                return True
        return False

    return holds


def _forall(phi):
    var, body = phi.var, _holds(phi.body)

    def holds(m, val):
        inner = dict(val)
        for a in m.elements:
            inner[var] = a
            if not body(m, inner):
                return False
        return True

    return holds


def _type_is(phi):
    space, type_id, args = phi.space, phi.type_id, _arguments(phi.args)

    def holds(m, val):
        if space.structure != m:
            raise ValidationError("TypeIs atom evaluated in a foreign structure")
        return space.index_of(args(m, val)) == type_id.index

    return holds


_TERMS = {Var: _var, Elem: _elem, Const: _const, App: _app}
_FORMULAS = {
    Eq: _eq,
    Rel: _rel,
    Not: _not,
    And: _and,
    Or: _or,
    Implies: _implies,
    Exists: _exists,
    Forall: _forall,
    TypeIs: _type_is,
}


def eval_formula(m: FinStructure, phi: Formula, val: dict[str, int]) -> bool:
    """Classical satisfaction; quantifiers range over the whole universe.

    phi is compiled once, on its first evaluation, into a closure
    `(m, val) -> bool` kept on the node (see `_holds`); later calls, in
    any structure and under any valuation, only call it.  A quantifier
    copies the valuation once and rebinds its variable for each element,
    so no closure keeps `val`.
    """
    return _holds(phi)(m, val)


# --- Automorphisms -----------------------------------------------------------

def _refine_classes(m: FinStructure, fix: frozenset[int]) -> list[int]:
    """Partition-refinement colouring; automorphic elements share a colour.

    Fixed elements and constant values start as singleton classes, every
    other element in one class.  Each round splits a class by the relation
    tuples and function entries through its elements (`m.through`): their
    symbols, their colours, and the positions the element itself holds in
    them, marked -1.
    """
    pinned = fix | set(m.const_values.values())
    colour = [a + 1 if a in pinned else 0 for a in m.elements]
    # a function entry (sym, args, v) reads as sym over the tuple (*args, v)
    rows = [[(e[0], e[1] + e[2:]) for e in entries] for entries in m.through]
    while True:
        fresh: dict[tuple, int] = {}
        new_colour = []
        for a, row in enumerate(rows):
            sig = sorted((sym, tuple([-1 if e == a else colour[e] for e in t])) for sym, t in row)
            new_colour.append(fresh.setdefault((colour[a], tuple(sig)), len(fresh)))
        if len(fresh) == len(set(colour)):
            return colour
        colour = new_colour


def _is_partial_ok(m: FinStructure, img: list[int | None], a: int) -> bool:
    """Whether img still preserves m now that a is assigned.

    The parent node passed this check, so only the relation tuples and
    function entries through a are new.  Forward, each of `m.through[a]`
    over assigned elements maps to a tuple or an entry of m; backward, each
    relation tuple through img[a] inside the image comes from one.
    """
    rel, fn = m.rel_tables, m.fn_tables
    for entry in m.through[a]:
        mapped = tuple([img[e] for e in entry[1]])
        if None in mapped:
            continue
        if len(entry) == 2:
            if mapped not in rel[entry[0]]:
                return False
        else:
            v = img[entry[2]]
            if v is not None and fn[entry[0]][mapped] != v:
                return False
    preimage = {b: c for c, b in enumerate(img) if b is not None}
    for entry in m.through[img[a]]:
        if len(entry) == 2 and all(e in preimage for e in entry[1]):
            if tuple([preimage[e] for e in entry[1]]) not in rel[entry[0]]:
                return False
    return True


def _check_automorphism(m: FinStructure, fix: frozenset[int], sigma: tuple[int, ...]) -> None:
    """Raise AssertionError unless sigma is an automorphism of m that fixes
    `fix` and the constants: one pass over the relation tuples and the
    function entries (not `m.through`, which the search reads), as
    `FeasibleCertificate.verify` checks a witness."""
    image = sigma.__getitem__
    if sorted(sigma) != list(m.elements):
        raise AssertionError(f"generator {sigma} is not a permutation")
    for sym, table in m.rel_tables.items():
        for t in table:
            if tuple(map(image, t)) not in table:
                raise AssertionError(f"generator {sigma} sends {sym}{t} outside {sym}")
    for sym, table in m.fn_tables.items():
        for args, v in table.items():
            if table[tuple(map(image, args))] != sigma[v]:
                raise AssertionError(f"generator {sigma} does not commute with {sym} at {args}")
    for a in (*fix, *m.const_values.values()):
        if sigma[a] != a:
            raise AssertionError(f"generator {sigma} moves the fixed element {a}")


def _transversal(point: int, gens, size: int) -> dict[int, tuple[int, ...]]:
    """The orbit of `point` under the group that `gens` generate, each
    member with one element of that group that sends `point` to it."""
    reps = {point: tuple(range(size))}
    frontier = [point]
    for p in frontier:
        for g in gens:
            q = g[p]
            if q not in reps:
                reps[q] = tuple(map(g.__getitem__, reps[p]))
                frontier.append(q)
    return reps


@lru_cache(maxsize=None)
def _automorphisms_cached(
    m: FinStructure, fix: frozenset[int]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A strong generating set of Aut(m/fix) along the base 0, 1, ..., and
    the number of candidate images its searches tried.

    The levels are taken deepest first.  At level i the generators found
    so far fix 0..i-1; each b > i in i's refinement class that their
    group does not already send i to gets one backtrack, under the
    identity on 0..i-1, for an automorphism that sends i to b.  The first
    one found becomes a generator once `_check_automorphism` passes it.
    So the generators fixing 0..i-1 reach every image of i that the
    stabiliser of 0..i-1 reaches, and by induction from the deepest level
    they generate that stabiliser.  Each backtrack walks a subtree of the
    search over the whole group, and none walks another's.  A kept result
    is read only through `_generators`, which refuses it past the limit.
    """
    for a in fix:
        if a not in m.elements:
            raise ValidationError(f"fixed element {a} not in universe")
    colours = _refine_classes(m, fix)
    n = m.size
    img: list[int | None] = [None] * n
    gens: list[tuple[int, ...]] = []
    tried = 0
    cap = limit()

    def extends(a: int, b: int) -> bool:
        """Whether img, with a sent to b, extends to an automorphism; on
        success img holds the first one the backtrack meets."""
        nonlocal tried
        tried += 1
        if tried > cap:
            charge("automorphism search", tried)
        img[a] = b
        if _is_partial_ok(m, img, a):
            if a + 1 == n:
                return True
            used = set(img[: a + 1])
            for c in m.elements:
                if colours[c] == colours[a + 1] and c not in used and extends(a + 1, c):
                    return True
        img[a] = None
        return False

    for i in reversed(m.elements):
        img[:] = [*range(i), *[None] * (n - i)]
        orbit = {i}  # the generators found so far fix i
        for b in m.elements[i + 1 :]:
            if colours[b] == colours[i] and b not in orbit and extends(i, b):
                sigma = tuple(img)  # type: ignore[arg-type]
                _check_automorphism(m, fix, sigma)
                gens.append(sigma)
                orbit = _transversal(i, gens, n).keys()
                img[i:] = [None] * (n - i)
    return tuple(gens), tried


def _generators(m: FinStructure, fix: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """The generators of `_automorphisms_cached`, refused where their search
    would be.  Every reader of a kept search goes through here: a kept set
    runs no search, but one whose search tried more than `limit()`
    candidates raises the error that search raises."""
    gens, tried = _automorphisms_cached(m, fix)
    if tried > limit():
        charge("automorphism search", limit() + 1)
    return gens


def automorphisms(m: FinStructure, fix: frozenset[int] | set[int] = frozenset()) -> list[tuple[int, ...]]:
    """All automorphisms of `m` fixing `fix` pointwise, sorted.

    They are listed from the strong generating set that `_generators`
    returns: the stabiliser of 0..i-1 is the product of a transversal of
    i's orbit under it with the stabiliser of 0..i, so the group's order is
    the product of those orbit lengths, which is charged to the budget as
    "automorphism group" before any element is formed."""
    gens = _generators(m, frozenset(fix))
    n = m.size
    moved = [next(a for a in m.elements if g[a] != a) for g in gens]
    transversals = [
        _transversal(i, [g for g, a in zip(gens, moved) if a >= i], n).values()
        for i in m.elements
    ]
    charge("automorphism group", math.prod(map(len, transversals)))
    group = [tuple(m.elements)]
    for reps in reversed(transversals):
        group = [tuple(map(u.__getitem__, h)) for u in reps for h in group]
    return sorted(group)


# --- Type spaces --------------------------------------------------------------

class TypeId(Record):
    """One orbit: canonical (lexicographically least) representative + index."""

    rep: tuple[int, ...]
    index: int

    def __str__(self):
        return f"q{self.index}"


class TypeSpace(Keyed):
    """The orbits of Aut(M/A) acting on M^n, in canonical order.

    Build it with `type_space`, which caches it and checks the budget.
    Each orbit is the closure of its least member under the strong
    generating set of Aut(M/A) from `_generators`, so the work is |M|^n
    times the number of generators, not times the group's order.

    Canonical order sorts orbits by their lexicographically least member,
    so output is deterministic across runs.
    """

    def __init__(self, structure: FinStructure, arity: int, params: tuple[int, ...]):
        self.structure = structure
        self.arity = arity
        self.params = params
        self._key_cache = (structure, arity, params)
        gens = _generators(structure, frozenset(params))
        images = [g.__getitem__ for g in gens]
        orbits: list[tuple[tuple[int, ...], ...]] = []
        seen: set[tuple[int, ...]] = set()
        # product() meets each orbit first at its least member, so the
        # orbits come out in canonical order
        for tup in itertools.product(structure.elements, repeat=arity):
            if tup in seen:
                continue
            seen.add(tup)
            orbit = [tup]
            for t in orbit:  # grows while it is read: the closure under gens
                for image in images:
                    u = tuple(map(image, t))
                    if u not in seen:
                        seen.add(u)
                        orbit.append(u)
            orbits.append(tuple(sorted(orbit)))
        self.types: tuple[TypeId, ...] = tuple(
            TypeId(orbit[0], i) for i, orbit in enumerate(orbits)
        )
        self._orbits = tuple(orbits)
        self._assign = {t: i for i, orbit in enumerate(orbits) for t in orbit}

    def __len__(self):
        return len(self.types)

    def __iter__(self):
        return iter(self.types)

    def index_of(self, tup: tuple[int, ...]) -> int:
        if len(tup) != self.arity:
            raise ValidationError(
                f"tuple arity {len(tup)} does not match type space arity {self.arity}"
            )
        try:
            return self._assign[tuple(tup)]
        except KeyError:
            raise ValidationError(
                f"tuple {tuple(tup)} outside the universe of size {self.structure.size}"
            ) from None

    def type_of(self, tup: tuple[int, ...]) -> TypeId:
        return self.types[self.index_of(tup)]

    def orbit(self, q: TypeId) -> list[tuple[int, ...]]:
        """The members of q's orbit, sorted; q must be a type of this space."""
        if not (0 <= q.index < len(self.types) and self.types[q.index] == q):
            raise ValidationError(f"{q!r} is not a type of {self!r}")
        return list(self._orbits[q.index])

    def __repr__(self):
        return (
            f"TypeSpace({self.structure!r}, n={self.arity}, "
            f"A={self.params}, |S|={len(self.types)})"
        )


@lru_cache(maxsize=None)
def _type_space_cached(m: FinStructure, n: int, params: tuple[int, ...]) -> TypeSpace:
    return TypeSpace(m, n, params)


def type_space(
    m: FinStructure,
    n: int,
    params: tuple[int, ...] | list[int] = (),
) -> TypeSpace:
    """S_n over the parameter tuple `params` (types = Aut(M/A)-orbits).

    Building the space enumerates all |M|**n tuples, which every call
    charges to the budget before any work, cached or not.  Every call then
    asks `_generators`, so a cached space is refused where the generator
    search it ran would be, and that search reruns if it was forgotten.
    """
    ptup = tuple(params)
    for a in ptup:
        if a not in m.elements:
            raise ValidationError(f"parameter {a} not in universe")
    if n < 0:
        raise ValidationError(f"negative arity {n}")
    charge("type space enumeration", m.size, n)
    _generators(m, frozenset(ptup))
    return _type_space_cached(m, n, ptup)


def type_of_tuple(m: FinStructure, tup: tuple[int, ...], params: tuple[int, ...] | list[int] = ()) -> TypeId:
    return type_space(m, len(tup), params).type_of(tuple(tup))


# --- Isolating formulas --------------------------------------------------------

def _literal_pool(m: FinStructure, variables: tuple[str, ...], params: tuple[int, ...]) -> list[Formula]:
    """Depth-one atoms over the given variables, parameters, and constants."""
    terms: list[Term] = [Var(v) for v in variables]
    terms += [Elem(a) for a in params]
    terms += [Const(c) for c in sorted(m.const_values)]
    base = list(terms)
    for f in sorted(m.fn_tables):
        k = m.signature.functions[f]
        for args in itertools.product(base, repeat=k):
            terms.append(App(f, args))
    atoms: list[Formula] = []
    for i, t1 in enumerate(terms):
        for t2 in terms[i + 1 :]:
            atoms.append(Eq(t1, t2))
    for r in sorted(m.rel_tables):
        k = m.signature.relations[r]
        for args in itertools.product(terms, repeat=k):
            atoms.append(Rel(r, args))
    return atoms


def _extension(
    m: FinStructure, phi: Formula, variables: tuple[str, ...], val=()
) -> frozenset[tuple[int, ...]]:
    """The tuples over `variables` that satisfy phi in m, with the other
    names bound by `val` (a dict or (name, element) pairs): phi's closure
    is fetched once and one valuation, seeded from `val`, is rebound for
    each tuple."""
    holds = _holds(phi)
    val = dict(val)
    out = []
    for tup in itertools.product(m.elements, repeat=len(variables)):
        val.update(zip(variables, tup))
        if holds(m, val):
            out.append(tup)
    return frozenset(out)


def _minimize_conjunction(
    parts: list[Formula],
    tables: list[frozenset[tuple[int, ...]]],
    target: frozenset[tuple[int, ...]],
) -> Formula:
    """Greedily drop conjuncts whose removal keeps the extension `target`.

    `tables[i]` is the extension of `parts[i]`, and the extension of a
    conjunction is the intersection of its conjuncts' extensions, so a
    trial costs an intersection of tables, not a walk over M^n.
    """
    kept = list(range(len(parts)))
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1 :]
        if trial and frozenset.intersection(*(tables[j] for j in trial)) == target:
            kept = trial
        else:
            i += 1
    return conj([parts[j] for j in kept])


def isolating_formula(space: TypeSpace, q: TypeId) -> Formula:
    """A formula (parameters from A allowed) whose extension is exactly q's orbit.

    Strategy: try the quantifier-free depth-one diagram of the canonical
    representative first; if that is too coarse, walk up the back-and-forth
    hierarchy, attaching one-step extension and covering conjuncts until the
    extension matches the orbit.  The result is then greedily pruned.
    """
    m = space.structure
    n = space.arity
    if n < 1:
        raise ValidationError("isolating formulas need at least one variable")
    variables = tuple(f"x{i}" for i in range(n))
    target = frozenset(space.orbit(q))
    rep = q.rep

    def qf_formula(tup: tuple[int, ...], varnames: tuple[str, ...]) -> list[Formula]:
        val = dict(zip(varnames, tup))
        return [
            atom if eval_formula(m, atom, val) else Not(atom)
            for atom in _literal_pool(m, varnames, space.params)
        ]

    # Back-and-forth levels: rank 0 is the quantifier-free diagram of the
    # representative; higher ranks build formulas for every orbit of
    # extended tuples and reuse them, so construction is polynomial in the
    # orbit count.
    for rank in range(m.size + 1):
        if rank:
            parts = _flatten_and(
                _hintikka(m, space.params, rep, variables, rank, qf_formula, {})
            )
        else:
            parts = qf_formula(rep, variables) or [Eq(Var(variables[0]), Var(variables[0]))]
        tables = [_extension(m, part, variables) for part in parts]
        if frozenset.intersection(*tables) == target:
            return _minimize_conjunction(parts, tables, target)
    raise AssertionError("back-and-forth rank |M| must isolate every orbit")


def _flatten_and(phi: Formula) -> list[Formula]:
    if isinstance(phi, And):
        return _flatten_and(phi.left) + _flatten_and(phi.right)
    return [phi]


def _hintikka(
    m: FinStructure,
    params: tuple[int, ...],
    tup: tuple[int, ...],
    varnames: tuple[str, ...],
    rank: int,
    qf_formula,
    memo: dict,
) -> Formula:
    key = (rank, varnames, type_of_tuple(m, tup, params).index, len(tup))
    # orbit index determines the formula up to the variable names used
    if key in memo:
        return memo[key]
    parts = qf_formula(tuple(tup), varnames)
    if rank > 0:
        fresh = f"z{len(varnames)}"
        inner_vars = varnames + (fresh,)
        seen: dict[int, Formula] = {}
        for b in m.elements:
            ext = tuple(tup) + (b,)
            idx = type_of_tuple(m, ext, params).index
            if idx not in seen:
                seen[idx] = _hintikka(
                    m, params, ext, inner_vars, rank - 1, qf_formula, memo
                )
        options = []
        for i in sorted(seen):
            if seen[i] not in options:
                options.append(seen[i])
        for opt in options:
            parts.append(Exists(fresh, opt))
        parts.append(Forall(fresh, disj(options)))
    result = conj(parts)
    memo[key] = result
    return result
