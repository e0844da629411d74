import math
import random
import time
import weakref

import pytest

from garside import (AdjacencyVerdict, ArrowType, CanonicalForm, Certificate, ComplexBall,
                     CoxeterSpec, GarsideStructure, MixedForm, PairCondition, ParabolicSubgroup,
                     PnForm, SummitGraph, SummitKind, TransportRecord, build_context,
                     context_from_token, parse_word)
from garside import coxeter
from garside.coxeter import _BYTE_RANGE
from garside.errors import BudgetExceeded, GarsideError, NonSphericalType, ParseError
from garside.oracle import Ball

from conftest import A2XA1_MATRIX, FAMILIES, ctx, family, is_prefix, rcomp


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
    assert c.lengths[d123] == 6
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
            assert is_prefix(c, c.delta_of(x), c.delta_of(full))
            for j in range(c.rank):
                assert is_prefix(c, c.delta_of(x), c.delta_of(x | {j}))


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
        return {s for s in range(c.rank) if c.lengths[c.w_mul(c.gens[s], x)] < c.lengths[x]}

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


@pytest.mark.parametrize("token", ["E6", "H4", "I2(129)", "I2(200)"])
def test_meet_matches_descent_greedy_on_seeded_pairs(token):
    # Above 256 roots (the two I2) the meet climbs on tuples, not bytes.
    c = ctx(token)
    rng = random.Random(f"meet/{token}")
    for _ in range(2000):
        a, b = _random_element(c, rng), _random_element(c, rng)
        m = c.w_meet(a, b)
        assert m == _descent_greedy_meet(c, a, b)
        assert is_prefix(c, m, a) and is_prefix(c, m, b)


def _right_to_left(c, word):
    """The element of a word, built by left multiplication, so that the
    suffixes of the word are interned and its proper prefixes in general not."""
    out = c.identity
    for s in reversed(word):
        out = c.w_mul(c.gens[s], out)
    return out


@pytest.mark.parametrize("token", ["E6", "H4", "D5"])
def test_meet_miss_interns_only_the_meet(token):
    # The climb to a meet interns none of the meet's proper prefixes.  (In
    # rank 2 the prefixes of an element form a chain, so a meet there is one
    # of its operands or the identity, never a new element.)
    c = context_from_token(token)
    rng = random.Random(f"meet-miss/{token}")
    new_meets = 0
    for _ in range(200):
        prefix = [rng.randrange(c.rank) for _ in range(rng.randint(2, c.delta_length))]
        a = _right_to_left(c, prefix + [rng.randrange(c.rank) for _ in range(4)])
        b = _right_to_left(c, prefix + [rng.randrange(c.rank) for _ in range(4)])
        size = len(c._perms)
        m = c.w_meet(a, b)
        assert len(c._perms) - size <= 1
        new_meets += len(c._perms) - size
        assert m == _descent_greedy_meet(c, a, b)
    assert new_meets > 0


def _compose(p, q):
    """The tuple permutation of p * q: first q, then p."""
    return tuple(p[x] for x in q)


@pytest.mark.parametrize("token", FAMILIES)
def test_unary_tables_match_permutations_on_all_of_w(token):
    c = family(token)
    n = c.num_positive
    perm = {a: tuple(c._perms[a]) for a in c.all_elements()}
    gens = [perm[g] for g in c.gens]
    identity = tuple(range(2 * n))
    delta = perm[c.delta]
    for a, p in perm.items():
        inverse = [0] * len(p)
        for i, j in enumerate(p):
            inverse[j] = i
        inverse = tuple(inverse)
        assert perm[c.w_inv(a)] == inverse
        assert _compose(p, perm[c.w_inv(a)]) == identity
        # Delta is an involution, so tau(a) = Delta a Delta.
        assert perm[c.w_tau(a)] == _compose(_compose(delta, p), delta)
        # The least reduced word: the strip by least left descent that
        # w_word ran before the inversion-set climb.  The least left descent
        # s is read off a^-1 sending its simple root negative, then the same
        # for s a.
        word, cur, inv = [], p, inverse
        while cur != identity:
            s = min(t for t in range(c.rank) if inv[t] >= n)
            word.append(s)
            cur = _compose(gens[s], cur)
            inv = _compose(inv, gens[s])
        assert c.w_word(a) == tuple(word)
        assert len(word) == c.lengths[a]


@pytest.mark.parametrize("token", FAMILIES + ("I2(129)",))
def test_tau_and_complements_match_products_and_intern_only_their_result(token):
    # tau(a) = Delta^-1 a Delta and lcomp(a) = Delta a^-1 compose
    # permutations: on a fresh context, holding a and little else, a call
    # interns its result and neither a^-1 nor Delta^-1 a.  The step's root
    # set N(a^-1 Delta) is read off a's permutation and interns nothing.
    c = family(token)
    d = c.delta
    definitions = {
        "w_tau": lambda a: c.w_mul(c.w_mul(c.w_inv(d), a), d),
        "w_lcomp": lambda a: c.w_mul(d, c.w_inv(a)),
    }
    for name, definition in definitions.items():
        fresh = build_context(c.spec)
        for a in c.all_elements():
            b = fresh._intern(c._perms[a])
            size = len(fresh._perms)
            out = getattr(fresh, name)(b)
            assert len(fresh._perms) <= size + 1, (name, a)
            assert fresh._perms[out] == c._perms[definition(a)], (name, a)
    fresh = build_context(c.spec)
    for a in c.all_elements():
        b = fresh._intern(c._perms[a])
        size = len(fresh._perms)
        assert fresh._rcomp_roots(b) == c.nsets[rcomp(c, a)], a
        assert len(fresh._perms) == size


def _check_tables(c, a, word):
    """The table entries of a against references read off its permutation,
    and a reduced word for a built without the tables.

    The support reference is the letters of that word.  The tables read it
    off N(a) instead, as the union of the supports of its roots, which is
    supp(a): a lies in W_J for J = supp(a), which sends a positive root
    outside the root subsystem of J to a positive root (its coefficients
    outside J do not change), so N(a) lies in that subsystem; and if s first
    occurs at place i of a reduced word s_1 ... s_k, the root
    s_1 ... s_(i-1)(alpha_s) of N(a) has alpha_s-coefficient 1, since no s_j
    with j < i changes it.  N(a) on the simple roots alone is only the left
    descent set, which misses letters of most supports."""
    perm, n = c._perms[a], c.num_positive
    inverse = [0] * len(perm)
    for i, j in enumerate(perm):
        inverse[j] = i
    length = sum(1 for i in range(n) if perm[i] >= n)
    assert c.lengths[a] == length == len(word)
    assert c.rdescs[a] == sum(1 << s for s in range(c.rank) if perm[s] >= n)
    assert c.ldescs[a] == sum(1 << s for s in range(c.rank) if inverse[s] >= n)
    assert c.nsets[a] == sum(1 << r for r in perm[n:] if r < n)
    assert c.supps[a] == sum(1 << s for s in set(word))


@pytest.mark.parametrize("token", FAMILIES)
def test_element_tables_match_references_on_all_of_w(token):
    c = family(token)
    words = {c.identity: ()}
    frontier = [c.identity]
    while frontier:  # breadth first, so each word found first is a shortest one
        nxt = []
        for a in frontier:
            for s, g in enumerate(c.gens):
                b = c.w_mul(a, g)
                if b not in words:
                    words[b] = words[a] + (s,)
                    nxt.append(b)
        frontier = nxt
    assert len(words) == c.coxeter_order
    for a, word in words.items():
        _check_tables(c, a, word)
    # Every family here has at most 256 roots, so its permutations are bytes.
    assert all(type(p) is bytes and len(p) == 2 * c.num_positive for p in c._perms)


@pytest.mark.parametrize("token,layout", [
    ("I2(128)", bytes), ("I2(129)", tuple), ("I2(200)", tuple),
])
def test_permutation_layouts_match_tuple_algebra(token, layout):
    # Up to 256 roots (I2(128) is the edge) a permutation is a bytes, composed
    # by translate and inverted by maketrans; above, a tuple.  Either way each
    # product by a generator, each inverse and each id must agree with
    # composition of plain tuples.
    c = context_from_token(token)
    size = 2 * c.num_positive
    gens = [tuple(c._perms[g]) for g in c.gens]
    perms = {c.identity: tuple(range(size))}
    frontier = [c.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g, gen in zip(c.gens, gens):
                b, perm = c.w_mul(a, g), tuple(perms[a][x] for x in gen)
                assert tuple(c._perms[b]) == perm
                if b not in perms:
                    perms[b] = perm
                    nxt.append(b)
        frontier = nxt
    assert len(perms) == len(set(perms.values())) == c.coxeter_order
    for a, perm in perms.items():
        assert c._ids[c._perms[a][:c.rank]] == a
        inverse = [0] * size
        for i, j in enumerate(perm):
            inverse[j] = i
        assert tuple(c._perms[c.w_inv(a)]) == tuple(inverse)
    assert len(c._perms) == c.coxeter_order
    assert all(type(p) is layout and len(p) == size for p in c._perms)


@pytest.mark.parametrize("token", ["E6", "H4"])
def test_element_tables_match_references_on_seeded_elements(token):
    c = ctx(token)
    n = c.num_positive
    rng = random.Random(f"tables/{token}")
    for _ in range(2000):
        a = _random_element(c, rng)
        # a reduced word, by stripping right descents read off the permutation
        word, x = [], a
        while descents := [s for s in range(c.rank) if c._perms[x][s] >= n]:
            s = rng.choice(descents)
            word.append(s)
            x = c.w_mul(x, c.gens[s])
        assert x == c.identity
        _check_tables(c, a, word[::-1])


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
        assert tuple(c._perms[a]) == perm
        perms.add(perm)
    assert len(perms) == c.coxeter_order


@pytest.mark.parametrize("token", FAMILIES + ("A5", "D5", "H4"))
def test_all_elements_is_w_sorted_by_length_and_least_word(token):
    # The breadth-first search keeps its discovery order; the reference sorts
    # W by least words from the climb.
    c = (build_context(CoxeterSpec.from_matrix(A2XA1_MATRIX)) if token == "A2xA1"
         else context_from_token(token))
    found = c.all_elements()
    assert len(set(found)) == len(found) == c.coxeter_order
    words = {a: c._climb(c.nsets[a])[1] for a in found}
    assert found == sorted(found, key=lambda a: (c.lengths[a], words[a]))
    assert all(c.w_word(a) == words[a] for a in found)


@pytest.mark.parametrize("token", ["A4", "F4", "I2(129)"])
def test_all_elements_writes_no_memo(token):
    # Listing W fills no least word: the climb behind w_word is their only
    # source.  I2(129) lists W on tuple permutations.
    c = context_from_token(token)
    found = c.all_elements()
    assert len(found) == c.coxeter_order
    assert all(word is None for word in c._words)
    assert all(c.w_word(a) == c._climb(c.nsets[a])[1] for a in found)


def test_climb_cap_refuses_a_context_before_building_roots(monkeypatch):
    # I2(10000) has 10,000 positive roots of 20,000 entries each, past the
    # cap: refused at once, though its roots would build exactly.
    start = time.process_time()
    with pytest.raises(BudgetExceeded, match=r"^I2\(10000\): 10000 positive roots times "
                                             r"20000 roots exceed the climb cap 10000000$"):
        context_from_token("I2(10000)")
    assert time.process_time() - start < 1
    # The cap bounds num_positive * num_roots: I2(5) has 5 * 10.
    monkeypatch.setattr(coxeter, "_CLIMB_CAP", 50)
    assert context_from_token("I2(5)").num_positive == 5
    monkeypatch.setattr(coxeter, "_CLIMB_CAP", 49)
    with pytest.raises(BudgetExceeded):
        context_from_token("I2(5)")


def test_root_pass_stops_past_its_count_of_roots():
    # A pass that finds more roots than its component has raises instead of
    # running on: with a count too small for A3, and on the affine matrix of
    # type A2~, whose roots never end.
    a3 = CoxeterSpec.from_token("A3")
    assert len(coxeter._exact_roots((0, 1, 2), a3, 6)[0]) == 6
    with pytest.raises(GarsideError, match=r"passed the 5 positive roots of component \[0, 1, 2\]"):
        coxeter._exact_roots((0, 1, 2), a3, 5)
    affine = CoxeterSpec.from_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    with pytest.raises(GarsideError, match="passed the 1000 positive roots"):
        coxeter._exact_roots((0, 1, 2), affine, 1000)


def test_delta_climb_is_bounded_by_the_number_of_reflections():
    # With identity tables as the generator steps, the climb's element never
    # moves, so its root test keeps passing; each climb (to Delta_X, to a meet,
    # to a least word) stops past num_positive letters instead of looping.
    c = context_from_token("A3")
    d01 = frozenset({0, 1})
    assert d01 not in c._delta_memo
    assert c._words[c.delta] is None
    c._gen_steps[:] = [_BYTE_RANGE] * c.rank
    for climb in (
        lambda: c.delta_of(d01),
        lambda: c.w_meet(c.gens[0], c.delta),
        lambda: c.w_word(c.delta),
    ):
        start = time.process_time()
        with pytest.raises(GarsideError, match="within 6 letters"):
            climb()
        assert time.process_time() - start < 5


def _descent_climb_delta(c, X):
    """Delta_X by the climb delta_of ran before the inversion-set climb:
    multiply on the right by the least letter of X that is not yet a right
    descent, until every letter of X is one."""
    cur = c.identity
    while up := [s for s in X if not c.rdescs[cur] >> s & 1]:
        cur = c.w_mul(cur, c.gens[min(up)])
    return cur


def _subsets(rank):
    return [frozenset(s for s in range(rank) if mask >> s & 1) for mask in range(1 << rank)]


@pytest.mark.parametrize("token", FAMILIES + ("E8", "H4", "I2(129)"))
def test_delta_and_its_permutation_match_products_on_every_subset(token):
    c = family(token) if token in FAMILIES else context_from_token(token)
    for X in _subsets(c.rank):
        d = c.delta_of(X)
        assert d == _descent_climb_delta(c, X)
        di = c.w_inv(d)
        conjugates = {s: c.w_mul(c.w_mul(di, c.gens[s]), d) for s in X}
        assert {s: c.gens.index(t) for s, t in conjugates.items()} == c.delta_permutation(X)


def _climbed_delta(c, X):
    """Delta_X by the climb over the positive roots of W_X alone."""
    inside = sum(1 << s for s in X)
    roots = sum(1 << r for r, supp in enumerate(c._root_supps) if not supp & ~inside)
    return c._intern(c._climb(roots)[0])


@pytest.mark.parametrize("token", ["I2(m), m = 2..40", "A1xI2(7)"])
def test_dihedral_delta_matches_the_climb_on_every_subset(token):
    # A rank-2 component of W takes its Delta from the closed form, the other
    # letters of X from the climb; the product is the climbed Delta_X.
    # The label 2 gives A1 x A1, with no rank-2 component.
    if token == "A1xI2(7)":
        contexts = [(build_context(CoxeterSpec.from_matrix(
            [[1, 2, 2], [2, 1, 7], [2, 7, 1]], name=token)), 1)]
    else:
        contexts = [(build_context(CoxeterSpec.from_matrix([[1, m], [m, 1]])), int(m > 2))
                    for m in range(2, 41)]
    for c, rank_2_components in contexts:
        assert len(c._dihedral_deltas) == rank_2_components
        for X in _subsets(c.rank):
            assert c.delta_of(X) == _climbed_delta(c, X), (c, X)


def test_dihedral_context_builds_without_the_climb(monkeypatch):
    # I2(2000)'s Delta once took m compositions of permutations of 2m roots.
    def no_climb(self, roots):
        raise AssertionError("climbed")

    monkeypatch.setattr(coxeter.GroupContext, "_climb", no_climb)
    c = context_from_token("I2(2000)")
    assert c.delta_length == 2000 and c.tau_order == 1


def test_least_word_interns_nothing():
    c = context_from_token("E6")
    rng = random.Random("word-miss/E6")
    for _ in range(200):
        a = _random_element(c, rng)
        size = len(c._perms)
        assert len(c.w_word(a)) == c.lengths[a]
        assert len(c._perms) == size


@pytest.mark.parametrize("token", ["A1", "A2xA1", "E8", "H4", "I2(5)", "I2(2000)"])
def test_construction_interns_only_identity_generators_and_delta(token):
    # Delta and tau come from one climb and one read of Delta's permutation,
    # so no prefix of Delta is interned: an I2(m) context once held m
    # permutations of 2m roots.
    start = time.process_time()
    if token == "A2xA1":
        c = build_context(CoxeterSpec.from_matrix(A2XA1_MATRIX, name=token))
    else:
        c = context_from_token(token)
    assert time.process_time() - start < 10
    assert len(c._perms) == len({c.identity, *c.gens, c.delta})


def test_context_has_slots_and_weak_references():
    c = context_from_token("A2")
    assert not hasattr(c, "__dict__")
    assert weakref.ref(c)() is c


def _float_reflection(spec):
    """The reflection s_i of a float vector over the unit-length simple
    roots: v - 2 (v, alpha_i) alpha_i."""
    n = spec.rank
    gram = [
        [1.0 if i == j else -math.cos(math.pi / spec.m(i, j)) for j in range(n)]
        for i in range(n)
    ]

    def reflect(vec, i):
        scale = 2.0 * sum(vec[j] * gram[j][i] for j in range(n))
        out = list(vec)
        out[i] -= scale
        return tuple(out)

    return reflect


def _ref_build_roots(spec):
    """The float BFS over the roots, keyed by 9-digit rounding, that the
    context ran before the exact pass: the roots as vectors over the simple
    roots, positive first and the simple roots at 0..rank-1, and the
    generator permutations."""
    n = spec.rank
    reflect = _float_reflection(spec)

    def key(vec):
        return tuple(round(c, 9) for c in vec)

    simple = [tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n)]
    index, roots, frontier = {}, [], []
    for v in simple:
        index[key(v)] = len(roots)
        roots.append(v)
        frontier.append(v)
    while frontier:
        v = frontier.pop()
        for i in range(n):
            w = reflect(v, i)
            if key(w) not in index:
                index[key(w)] = len(roots)
                roots.append(w)
                frontier.append(w)
    positive = [all(c >= -1e-7 for c in v) for v in roots]
    order = [i for i, p in enumerate(positive) if p] + [i for i, p in enumerate(positive) if not p]
    roots = [roots[i] for i in order]
    index = {key(v): i for i, v in enumerate(roots)}
    return roots, [tuple(index[key(reflect(v, i))] for v in roots) for i in range(n)]


_PRODUCT_MATRICES = {
    "A2xA1": A2XA1_MATRIX,
    # s1, s4 of label 5; s2 - s3 - s5 with labels 5 and 3.
    "I2(5)xH3": [[1, 2, 2, 5, 2], [2, 1, 5, 2, 2], [2, 5, 1, 2, 3], [5, 2, 2, 1, 2],
                 [2, 2, 3, 2, 1]],
}


@pytest.mark.parametrize("token", [
    "A1", "A4", "B4", "B6", "D5", "E6", "E7", "E8", "F4", "H3", "H4", "I2(5)", "I2(8)", "I2(129)",
    "A2xA1", "I2(5)xH3",
])
def test_root_table_matches_float_bfs(token):
    # Each exact root r, evaluated as a float vector w(alpha_s) by following
    # the generator table from a simple root, is one of the reference roots,
    # one to one, with the simple roots fixed and the positive roots first;
    # the generators permute both alike, and the supports are the nonzero
    # coordinates.  I2(5)xH3 interleaves its components' generators.
    if token in _PRODUCT_MATRICES:
        c = build_context(CoxeterSpec.from_matrix(_PRODUCT_MATRICES[token], name=token))
    else:
        c = context_from_token(token)
    ref_roots, ref_perms = _ref_build_roots(c.spec)
    n, size, reflect = c.num_positive, 2 * c.num_positive, _float_reflection(c.spec)
    assert len(ref_roots) == size
    perms = [c._perms[g] for g in c.gens]
    vecs = [tuple(1.0 if j == i else 0.0 for j in range(c.rank)) for i in range(c.rank)]
    vecs += [None] * (size - c.rank)
    frontier = list(range(c.rank))
    while frontier:
        r = frontier.pop()
        for i, perm in enumerate(perms):
            v = reflect(vecs[r], i)
            if vecs[perm[r]] is None:
                vecs[perm[r]] = v
                frontier.append(perm[r])
            assert max(abs(x - y) for x, y in zip(vecs[perm[r]], v)) < 1e-9
    match = []
    for v in vecs:
        near = [j for j, u in enumerate(ref_roots) if max(abs(x - y) for x, y in zip(u, v)) < 1e-9]
        assert len(near) == 1
        match.append(near[0])
    assert sorted(match) == list(range(size))
    assert match[:c.rank] == list(range(c.rank))
    assert all((r < n) == (j < n) for r, j in enumerate(match))
    assert all(ref[match[r]] == match[perm[r]]
               for perm, ref in zip(perms, ref_perms) for r in range(size))
    assert c._root_supps == [sum(1 << i for i, x in enumerate(v) if abs(x) > 1e-9)
                             for v in vecs[:n]]


VALUE_TYPES = ("CoxeterSpec", "MixedForm", "PnForm", "GarsideStructure", "CanonicalForm",
               "TransportRecord", "ArrowType", "AdjacencyVerdict", "SummitGraph", "Certificate",
               "ComplexBall", "Ball")


def _value_types():
    """Each value type by name: the class, whether it is frozen, its fields in
    order with sample values, and one field with another value."""
    c = ctx("A3")

    def w(text):
        return parse_word(c, text)

    def graph():
        return dict(kind=SummitKind.SSS, structure=GarsideStructure(c, 1), base=w("s1"),
                    vertices=[w("s1")], arrows=[(0, 0, w("s2"))], witnesses=[w("")],
                    metadata={"budget": 1})

    cases = [
        (CoxeterSpec, True, lambda: dict(rank=2, matrix=((1, 3), (3, 1)), name="A2"),
         ("name", "I2(3)")),
        (MixedForm, True, lambda: dict(negative=w("s1"), positive=w("s2 s3")),
         ("positive", w("s3"))),
        (PnForm, True, lambda: dict(positive=w("s2 s3"), negative=w("s1")),
         ("negative", w("s3"))),
        (GarsideStructure, True, lambda: dict(ctx=c, exponent=2), ("exponent", 3)),
        (CanonicalForm, True, lambda: dict(exponent=1, delta_power=-1, factor_words=((0, 1),)),
         ("delta_power", 0)),
        (TransportRecord, True, lambda: dict(v=w("s1"), w=w("s2"), x=w("s2 s1"), orbit_period=2),
         ("orbit_period", 1)),
        (ArrowType, True, lambda: dict(kind="ribbon", letter=1), ("letter", None)),
        (AdjacencyVerdict, True,
         lambda: dict(commute=True, condition=PairCondition.DISJOINT_COMMUTING),
         ("condition", None)),
        (SummitGraph, False, graph, ("metadata", {})),
        (Certificate, False,
         lambda: dict(operation="join", budget=3, witness="s1", candidates_examined=4,
                      verified_inclusions=["P<=R"], notes=["exact"]),
         ("witness", None)),
        (ComplexBall, False,
         lambda: dict(center=ParabolicSubgroup.standard(c, {0}), radius=1,
                      vertices=[ParabolicSubgroup.standard(c, {0})], edges=[(0, 0)]),
         ("radius", 2)),
        (Ball, False, lambda: dict(ctx=c, radius=1, elements=[w("s1")], words={w("s1"): ((0, 1),)}),
         ("elements", [])),
    ]
    return {case[0].__name__: case for case in cases}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_compare_hash_and_print_by_field(name):
    cls, frozen, fields, (changed, other) = _value_types()[name]
    a, b = cls(**fields()), cls(**fields())
    assert a == b and not a != b and a is not b
    assert a != cls(**{**fields(), changed: other})
    assert a != tuple(fields().values())
    assert not hasattr(a, "__dict__")
    body = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields())
    assert repr(a) == f"{cls.__name__}({body})"
    if frozen:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, changed, other)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, changed, other)
        assert a != b


def test_value_types_keep_defaults_and_checks():
    c = ctx("A3")
    assert CoxeterSpec(1, ((1,),)).name is None and ArrowType("inside").letter is None
    assert GarsideStructure(c).exponent == 1
    first, second = Certificate("join", 3), Certificate(operation="join", budget=3)
    assert (first.witness, first.candidates_examined) == (None, 0)
    first.notes.append("note")
    first.verified_inclusions.append("P<=R")
    assert second.notes == [] and second.verified_inclusions == []
    graphs = [SummitGraph(SummitKind.POSITIVE_CONJUGATES, GarsideStructure(c), None, [], [], [])
              for _ in range(2)]
    graphs[0].metadata["budget"] = 1
    assert graphs[1].metadata == {}
    with pytest.raises(ParseError, match="structure exponent must be >= 1"):
        GarsideStructure(c, 0)
    with pytest.raises(ParseError, match="Coxeter matrix must be symmetric"):
        CoxeterSpec(2, ((1, 3), (4, 1)))
    with pytest.raises(ParseError, match="rank must be positive"):
        CoxeterSpec(0, ())
