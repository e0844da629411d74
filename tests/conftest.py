import functools
import random

import pytest

from garside import CoxeterSpec, GroupElement, build_context, context_from_token, parse_word


_CTX_CACHE = {}


def ctx(token: str):
    """Contexts are expensive enough to share across the whole session."""
    out = _CTX_CACHE.get(token)
    if out is None:
        out = context_from_token(token)
        _CTX_CACHE[token] = out
    return out


# Every spherical family with small W, plus a reducible matrix (A2 x A1).
FAMILIES = ("A3", "B3", "D4", "F4", "H3", "I2(5)", "I2(7)", "A2xA1")


@functools.cache
def family(name):
    if name == "A2xA1":
        matrix = [[1, 3, 2], [3, 1, 2], [2, 2, 1]]
        return build_context(CoxeterSpec.from_matrix(matrix, name=name))
    return ctx(name)


@pytest.fixture(scope="session")
def a2():
    return ctx("A2")


@pytest.fixture(scope="session")
def a3():
    return ctx("A3")


@pytest.fixture(scope="session")
def a4():
    return ctx("A4")


@pytest.fixture(scope="session")
def b2():
    return ctx("B2")


@pytest.fixture(scope="session")
def b3():
    return ctx("B3")


def random_word(context, rng: random.Random, max_len: int, signed: bool = True) -> str:
    letters = [f"s{i + 1}" for i in range(context.rank)]
    if signed:
        letters += [f"s{i + 1}^-1" for i in range(context.rank)]
    return " ".join(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def random_element(context, rng: random.Random, max_len: int,
                   signed: bool = True) -> GroupElement:
    return parse_word(context, random_word(context, rng, max_len, signed))
