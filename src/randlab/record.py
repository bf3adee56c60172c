"""`Record` and `Keyed`: immutable value classes with generated methods.

A subclass lists its fields as class annotations, in order, and gives
defaults as class attributes:

    class Exists(Record):
        var: str
        body: Formula

    class PhiContext(Record):
        ...
        w_vars: tuple[str, ...] = ()

A Record class has `__init__`, `__eq__`, `__hash__` and `__repr__` in the
form `@dataclass(frozen=True)` gives them: positional or keyword arguments
with defaults, `==` only between instances of the same class, comparing
and hashing the tuple of fields, and `Name(field=value, ...)` as the repr.
A `__post_init__` method runs at the end of `__init__`.  Assigning or
deleting an attribute raises `AttributeError`.

`__init_subclass__` only checks the fields and keeps them as `_fields`,
with the defaults.  `__init__`, `__eq__` and `__hash__` are generated
source, not loops over the fields, so they cost what the dataclass ones
do, without importing `dataclasses` and `inspect`.  They are made on a
class's first use: `Record`'s own three methods are stubs that install the
generated ones on the instance's class and then forward the call, so every
later call goes straight to the generated method.  The source is compiled
once per distinct field list, and only for the field lists a process uses,
so importing randlab compiles nothing.  A Record class derives from
`Record` directly: a class below another would inherit its base's
methods once they were installed.  `__repr__` is one plain method on
`Record`; a repr is never hot.

A `Keyed` subclass sets the tuple `_key_cache` in its constructor, or
builds it lazily on first use (a `cached_property`, as `RandomElement`
does), from values that must not change after construction; its `__eq__`
tests identity first and then compares keys with instances of its own
class.

The first `__hash__` of a Record or a Keyed value keeps its value on the
instance as `_hash`, outside the fields, as `formulas.free_vars` keeps
`_free_vars`; later calls return it without rehashing the tree below.
The value is still `hash` of the field tuple (of `_key_cache`), so
equality, repr and the dataclass contract are unchanged.  This is safe
because fields and keys cannot change and the hashable values they hold
(nodes, strings, ints, tuples, `Fraction`s, Keyed values) never change
their hash; a Record with an unhashable field, such as a list, raises
`TypeError` on every call and keeps nothing.  String hashes differ from
one process to the next, so a kept hash must never leave its process:
neither kind is pickled, and a value that were would carry a stale `_hash`.
"""

from __future__ import annotations

_set = object.__setattr__
_makers: dict[tuple[tuple[str, ...], bool], object] = {}


def _tuple(obj: str, names: tuple[str, ...]) -> str:
    return "(" + "".join(f"{obj}.{n}," for n in names) + ")"


def _maker(names: tuple[str, ...], post_init: bool):
    """A function returning fresh `__init__`, `__eq__` and `__hash__` for
    these fields; compiled once per distinct field list."""
    key = (names, post_init)
    if key not in _makers:
        sets = "".join(f"  _set(self, {n!r}, {n})\n" for n in names)
        if post_init:
            sets += "  self.__post_init__()\n"
        mine, theirs = _tuple("self", names), _tuple("other", names)
        src = (
            "def make(_set):\n"
            f" def __init__(self, {', '.join(names)}):\n{sets or '  pass'}\n"
            " def __eq__(self, other):\n"
            "  if other.__class__ is self.__class__:\n"
            f"   return {mine} == {theirs}\n"
            "  return NotImplemented\n"
            " def __hash__(self):\n"
            "  h = self._hash\n"
            "  if h is None:\n"
            f"   h = hash({mine})\n"
            "   _set(self, '_hash', h)\n"
            "  return h\n"
            " return __init__, __eq__, __hash__\n"
        )
        namespace: dict = {}
        exec(src, namespace)
        _makers[key] = namespace["make"]
    return _makers[key]


def _install(cls):
    """Put cls's generated `__init__`, `__eq__` and `__hash__` on cls."""
    init, eq, hash_ = _maker(cls._fields, hasattr(cls, "__post_init__"))(_set)
    init.__defaults__ = cls._defaults
    cls.__init__, cls.__eq__, cls.__hash__ = init, eq, hash_
    return cls


class Record:
    _hash = None  # hash of the field tuple, kept on the instance by its first __hash__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = names
        defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
        if any(n not in cls.__dict__ for n in names[len(names) - len(defaults):]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        cls._defaults = defaults or None

    # The stubs run once per class: each installs the generated methods and forwards.
    def __init__(self, *args, **kwargs):
        _install(self.__class__).__init__(self, *args, **kwargs)

    def __eq__(self, other):
        return _install(self.__class__).__eq__(self, other)

    def __hash__(self):
        return _install(self.__class__).__hash__(self)

    def __repr__(self):
        # a loop: a comprehension's own frame would cut the depth a tree may print to by a third
        shown = []
        for n in self._fields:
            shown.append(f"{n}={getattr(self, n)!r}")
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Keyed:
    """Equal to a value of its own class with an equal `_key_cache`.

    Each subclass gets the two methods in its own namespace when it is
    defined, not on first use as a Record class does, so wrapping one in
    place (as `bench/tracer.py` wraps `FinProbSpace.__eq__`) leaves the
    other classes alone."""

    _key_cache: tuple
    _hash = None  # kept on the instance by its first __hash__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__eq__, cls.__hash__ = Keyed.__eq__, Keyed.__hash__

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._key_cache == other._key_cache
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self._key_cache)
        return h
