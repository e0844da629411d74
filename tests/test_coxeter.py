import random
import weakref

import pytest

from garside import CoxeterSpec, build_context, context_from_token
from garside.errors import NonSphericalType, ParseError

from conftest import FAMILIES, ctx, family


SPHERICAL_TOKENS = [
    ("A1", 2, 1), ("A2", 6, 3), ("A3", 24, 6), ("A4", 120, 10), ("A5", 720, 15),
    ("B2", 8, 4), ("B3", 48, 9), ("B4", 384, 16), ("D4", 192, 12),
    ("F4", 1152, 24), ("H3", 120, 15),
    ("I2(3)", 6, 3), ("I2(4)", 8, 4), ("I2(5)", 10, 5), ("I2(6)", 12, 6),
    ("I2(7)", 14, 7), ("I2(8)", 16, 8),
]


@pytest.mark.parametrize("token,order,delta_len", SPHERICAL_TOKENS)
def test_spherical_contexts_build(token, order, delta_len):
    c = context_from_token(token)
    assert c.coxeter_order == order
    assert c.delta_length == delta_len
    assert c.num_positive == delta_len  # |Delta| = number of positive roots


def test_disjoint_union_builds():
    c = build_context(CoxeterSpec.from_matrix(
        [[1, 3, 2], [3, 1, 2], [2, 2, 1]]))
    assert c.coxeter_order == 12
    assert [sorted(comp) for comp in c.components_of_s] == [[0, 1], [2]]


@pytest.mark.parametrize("matrix", [
    # affine triangle
    [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
    # affine C2: path with two 4-labels
    [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
    # 5-label in the middle of a path on four vertices
    [[1, 3, 2, 2], [3, 1, 5, 2], [2, 5, 1, 3], [2, 2, 3, 1]],
    # label 6 on a path of length 3 (G2 tilde territory)
    [[1, 6, 2], [6, 1, 3], [2, 3, 1]],
    # two branch vertices
    [[1, 3, 2, 2, 2, 2],
     [3, 1, 3, 3, 2, 2],
     [2, 3, 1, 2, 2, 2],
     [2, 3, 2, 1, 3, 3],
     [2, 2, 2, 3, 1, 2],
     [2, 2, 2, 3, 2, 1]],
    # H5: 5-label at the end of a path of length 5
    [[1, 5, 2, 2, 2], [5, 1, 3, 2, 2], [2, 3, 1, 3, 2],
     [2, 2, 3, 1, 3], [2, 2, 2, 3, 1]],
])
def test_infinite_types_rejected(matrix):
    with pytest.raises(NonSphericalType):
        build_context(CoxeterSpec.from_matrix(matrix))


def test_rank_cap_enforced():
    with pytest.raises(NonSphericalType):
        build_context(CoxeterSpec.from_token("A5"), rank_cap=4)
    build_context(CoxeterSpec.from_token("A5"), rank_cap=5)


@pytest.mark.parametrize("bad", ["A0", "B1", "D3", "E5", "F5", "H5", "I2(2)", "G2x", ""])
def test_bad_tokens_rejected(bad):
    with pytest.raises(ParseError):
        CoxeterSpec.from_token(bad)


def test_matrix_validation():
    with pytest.raises(ParseError):
        CoxeterSpec.from_matrix([[1, 3], [2, 1]])  # not symmetric
    with pytest.raises(ParseError):
        CoxeterSpec.from_matrix([[1, 1], [1, 1]])  # off-diagonal < 2
    with pytest.raises(ParseError):
        CoxeterSpec.from_matrix([[2, 3], [3, 2]])  # diagonal must be 1


def test_longest_elements_in_a4():
    c = ctx("A4")
    assert c.w_word(c.delta_of(frozenset({0, 1}))) == (0, 1, 0)
    d123 = c.delta_of(frozenset({0, 1, 2}))
    assert c.w_len(d123) == 6
    # frozen from the brute-force join of the three generators
    assert c.w_word(d123) == (0, 1, 0, 2, 1, 0)
    assert c.delta_of(frozenset()) == c.identity
    assert c.delta_of(frozenset({2})) == c.gens[2]


def test_delta_monotone_under_inclusion():
    for token in ("A4", "B3", "D4"):
        c = ctx(token)
        full = frozenset(range(c.rank))
        for mask in range(1 << c.rank):
            x = frozenset(i for i in range(c.rank) if mask >> i & 1)
            assert c.w_is_prefix(c.delta_of(x), c.delta_of(full))
            for j in range(c.rank):
                assert c.w_is_prefix(c.delta_of(x), c.delta_of(x | {j}))


def test_delta_permutation():
    a2 = ctx("A2")
    assert a2.delta_permutation(frozenset({0, 1})) == {0: 1, 1: 0}
    b2 = ctx("B2")
    assert b2.delta_permutation(frozenset({0, 1})) == {0: 0, 1: 1}
    a4 = ctx("A4")
    assert a4.delta_permutation(frozenset({2})) == {2: 2}


def test_delta_permutation_is_involution():
    for token in ("A3", "A4", "B3", "H3", "D4"):
        c = ctx(token)
        for mask in range(1, 1 << c.rank):
            x = frozenset(i for i in range(c.rank) if mask >> i & 1)
            perm = c.delta_permutation(x)
            assert all(perm[perm[s]] == s for s in x)


def test_components():
    a4 = ctx("A4")
    assert sorted(map(sorted, a4.components(frozenset({0, 1, 3})))) == [[0, 1], [3]]
    assert sorted(map(sorted, a4.components(frozenset({0, 2})))) == [[0], [2]]
    assert a4.components(frozenset({0, 1, 2})) == [frozenset({0, 1, 2})]
    assert a4.components(frozenset()) == []


def test_central_exponent():
    assert ctx("A2").central_exponent(frozenset({0, 1})) == 2
    assert ctx("B2").central_exponent(frozenset({0, 1})) == 1
    assert ctx("A4").central_exponent(frozenset({2})) == 1
    # mixed union: one non-central component forces the square
    assert ctx("A4").central_exponent(frozenset({0, 2, 3})) == 2
    assert ctx("A4").central_exponent(frozenset({0, 2})) == 1


def test_tau_order_and_involution():
    for token, order in [("A2", 2), ("A3", 2), ("A4", 2), ("B2", 1), ("B3", 1),
                         ("D4", 1), ("F4", 1), ("H3", 1), ("I2(5)", 2), ("I2(6)", 1)]:
        c = ctx(token)
        assert c.tau_order == order, token
        for g in c.gens:
            assert c.w_tau(c.w_tau(g)) == g


def test_delta_conjugates_generators_to_generators():
    for token in ("A4", "B3", "H3"):
        c = ctx(token)
        for mask in range(1, 1 << c.rank):
            x = frozenset(i for i in range(c.rank) if mask >> i & 1)
            d = c.delta_of(x)
            for s in x:
                t = c.w_mul(c.w_mul(c.w_inv(d), c.gens[s]), d)
                assert t in [c.gens[u] for u in x]


def _descent_greedy_meet(c, a, b):
    """The greatest common prefix by stripping common left descents, each
    read off lengths: s divides x on the left iff l(s x) < l(x)."""
    def ldesc(x):
        return {s for s in range(c.rank) if c.w_len(c.w_mul(c.gens[s], x)) < c.w_len(x)}

    m = c.identity
    while common := ldesc(a) & ldesc(b):
        g = c.gens[min(common)]
        m, a, b = c.w_mul(m, g), c.w_mul(g, a), c.w_mul(g, b)
    return m


def _random_element(c, rng):
    out = c.identity
    for _ in range(rng.randint(0, 2 * c.delta_length)):
        out = c.w_mul(out, c.gens[rng.randrange(c.rank)])
    return out


@pytest.mark.parametrize("token", ["A3", "B3", "H3", "I2(5)", "A2xA1"])
def test_meet_matches_descent_greedy_on_every_pair(token):
    c = family(token)
    elements = c.all_elements()
    for a in elements:
        for b in elements:
            assert c.w_meet(a, b) == _descent_greedy_meet(c, a, b)


@pytest.mark.parametrize("token", ["E6", "H4"])
def test_meet_matches_descent_greedy_on_seeded_pairs(token):
    c = ctx(token)
    rng = random.Random(f"meet/{token}")
    for _ in range(2000):
        a, b = _random_element(c, rng), _random_element(c, rng)
        m = c.w_meet(a, b)
        assert m == _descent_greedy_meet(c, a, b)
        assert c.w_is_prefix(m, a) and c.w_is_prefix(m, b)


@pytest.mark.parametrize("token", FAMILIES)
def test_interned_elements_are_their_words(token):
    # Elements are keyed by their images of the simple roots; every id must
    # still stand for one element, stored as its full permutation.
    c = family(token)
    ids = c.all_elements()
    assert len(set(ids)) == c.coxeter_order
    gen_perms = [c._perms[g] for g in c.gens]
    perms = set()
    for a in ids:
        perm = tuple(range(2 * c.num_positive))
        for s in c.w_word(a):
            perm = tuple(perm[x] for x in gen_perms[s])
        assert c._perms[a] == perm
        perms.add(perm)
    assert len(perms) == c.coxeter_order


def test_context_has_slots_and_weak_references():
    c = context_from_token("A2")
    assert not hasattr(c, "__dict__")
    assert weakref.ref(c)() is c
