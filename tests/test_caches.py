"""The cold-round contract: every memoizing functools cache in randlab is a
module attribute with `cache_clear` and `cache_info`, which is how the
benchmark's `harness.clear_caches` finds and empties them."""

import ast
import importlib
import sys
from pathlib import Path

import randlab
import randlab.cli  # noqa: F401  (loads every module)
import randlab.stability as stability
from randlab import FinProbSpace, PhiContext, RandomElement, Randomization, parse_formula, pure_set, rtype_of

SRC = Path(randlab.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"
MEMOIZERS = {"lru_cache", "cache"}


def _cache_mentions(tree: ast.Module) -> list[ast.AST]:
    """Every name or attribute in the module that refers to functools'
    `lru_cache` or `cache`."""
    local, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            local |= {a.asname or a.name for a in node.names if a.name in MEMOIZERS}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    return [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in local)
        or (
            isinstance(node, ast.Attribute)
            and node.attr in MEMOIZERS
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )
    ]


def _module_level_caches(tree: ast.Module) -> dict[str, set[int]]:
    """For each def at module level, the ids of the decorator nodes (a call's
    function included) that could name a memoizer."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ids = set()
            for dec in node.decorator_list:
                ids.add(id(dec))
                if isinstance(dec, ast.Call):
                    ids.add(id(dec.func))
            out[node.name] = ids
    return out


def test_every_functools_cache_is_a_module_attribute_that_clear_caches_empties():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mentions = _cache_mentions(tree)
        defs = _module_level_caches(tree)
        module = importlib.import_module(f"randlab.{path.stem}" if path.stem != "__init__" else "randlab")
        for node in mentions:
            owner = next((name for name, ids in defs.items() if id(node) in ids), None)
            assert owner is not None, f"{path.name}:{node.lineno} caches outside a module-level def"
            value = getattr(module, owner)
            assert callable(value.cache_clear) and callable(value.cache_info), f"{path.name}: {owner}"
            found.append(f"{path.stem}.{owner}")
    assert {"stability._fibre", "stability._trace", "semantics._type_space_cached"} <= set(found)

    rand = Randomization.constant(pure_set(2), FinProbSpace.uniform(2))
    b = RandomElement.constant(rand.base, 0)
    ctx = PhiContext(rand.structure, parse_formula("x = y", rand.structure.signature), ("x",), ("y",), ("w",))
    stability._fibre.cache_clear()
    stability._trace.cache_clear()
    stability.rho_hat(ctx, rtype_of(rand, [rand.element([0, 1])], [b]), rtype_of(rand, [b], [b]))
    assert stability._fibre.cache_info().currsize == 1
    assert stability._trace.cache_info().currsize > 0

    sys.path.insert(0, str(BENCH))
    try:
        harness = importlib.import_module("harness")
    finally:
        sys.path.remove(str(BENCH))
    harness.clear_caches()
    for name in found:
        module, attr = name.split(".")
        assert getattr(importlib.import_module(f"randlab.{module}"), attr).cache_info().currsize == 0, name


def test_no_module_reads_past_a_cache_through_wrapped():
    """Each kept table has one read path: no module of randlab calls the
    function under a cache through `__wrapped__`."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "__wrapped__")
            or (isinstance(node, ast.Constant) and node.value == "__wrapped__")
        ]
        assert reads == [], f"{path.name} reads __wrapped__ at lines {reads}"
