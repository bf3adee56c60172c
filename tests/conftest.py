import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import randlab
from randlab import (
    FinProbSpace,
    RandomElement,
    Randomization,
    RMeasure,
    default_formula_corpus,
    directed_cycle,
    linear_order,
    pure_set,
)
from randlab.axioms import _closures


def run_fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this randlab."""
    src = str(Path(randlab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout


def sentence_corpus(sig) -> list:
    """Sentences (universal closures of corpus formulas) for transfer checks."""
    return _closures(default_formula_corpus(sig))


def sample_elements(
    rand: Randomization, count: int, seed: int = 2024
) -> list[RandomElement]:
    """Deterministic pool of random elements: constants first, then seeded draws."""
    rng = random.Random(seed)
    min_size = min(m.size for m in rand.family.values())
    pool = [RandomElement.constant(rand.base, a) for a in range(min(2, min_size))]
    while len(pool) < count:
        values = {w: rng.randrange(rand.family[w].size) for w in rand.base.points}
        pool.append(RandomElement(rand.base, values))
    return pool[:count]


def simplex_measures(space, max_denominator: int = 4) -> list[RMeasure]:
    """All type measures on `space` with denominators up to the bound."""
    s = len(space.types)
    seen: set[tuple[Fraction, ...]] = set()
    out: list[RMeasure] = []
    for d in range(1, max_denominator + 1):
        for combo in itertools.product(range(d + 1), repeat=s):
            if sum(combo) != d:
                continue
            vec = tuple(Fraction(k, d) for k in combo)
            if vec in seen:
                continue
            seen.add(vec)
            out.append(RMeasure(space, dict(zip(space.types, vec))))
    return out


@pytest.fixture(scope="session")
def m2():
    return pure_set(2)


@pytest.fixture(scope="session")
def m4():
    return pure_set(4)


@pytest.fixture(scope="session")
def c3():
    return directed_cycle(3)


@pytest.fixture(scope="session")
def c5():
    return directed_cycle(5)


@pytest.fixture(scope="session")
def l3():
    return linear_order(3)


@pytest.fixture(scope="session")
def skewed_base():
    return FinProbSpace(
        [(0, Fraction(1, 2)), (1, Fraction(1, 3)), (2, Fraction(1, 6))]
    )


@pytest.fixture
def coin_rand(m2):
    return Randomization.constant(m2, FinProbSpace.dyadic(1))
