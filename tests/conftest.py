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
A2XA1_MATRIX = [[1, 3, 2], [3, 1, 2], [2, 2, 1]]


@functools.cache
def family(name):
    if name == "A2xA1":
        return build_context(CoxeterSpec.from_matrix(A2XA1_MATRIX, name=name))
    return ctx(name)


# References for W facts that the context keeps no method for, built from
# products, inverses, lengths and least words alone.


def rcomp(c, a):
    """The right complement a^-1 Delta."""
    return c.w_mul(c.w_inv(a), c.delta)


def is_prefix(c, a, b):
    """Whether a divides b on the left in the weak order: l(a^-1 b) = l(b) - l(a)."""
    return c.lengths[c.w_mul(c.w_inv(a), b)] == c.lengths[b] - c.lengths[a]


def letters(c, a):
    """The support of a: the letters of a reduced word for it."""
    return frozenset(c.w_word(a))


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


def count_inits(monkeypatch):
    """A list that grows by one with each GroupElement built from now on."""
    built = []
    init = GroupElement.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupElement, "__init__", counted)
    return built


def random_word(context, rng: random.Random, max_len: int, signed: bool = True) -> str:
    letters = [f"s{i + 1}" for i in range(context.rank)]
    if signed:
        letters += [f"s{i + 1}^-1" for i in range(context.rank)]
    return " ".join(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def random_element(context, rng: random.Random, max_len: int,
                   signed: bool = True) -> GroupElement:
    return parse_word(context, random_word(context, rng, max_len, signed))
