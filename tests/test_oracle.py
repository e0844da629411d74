import gc
import itertools
import random
import weakref

import pytest

from garside import (
    context_from_token,
    GroupElement,
    ParabolicSubgroup,
    contains_element,
    contains_subgroup,
    format_element,
    join_prefix,
    join_suffix,
    meet_prefix,
    meet_suffix,
    np_normal_form,
    parabolic_closure,
    parabolic_equal,
    parse_element,
    parse_word,
    pn_normal_form,
    prefix_le,
    suffix_le,
)
from garside.errors import BudgetExceeded
from garside.lattice import enumerate_parabolics
from garside.oracle import (
    _ball_membership,
    _includes,
    ball,
    closure_oracle,
    enumerate_simples,
    intersect_oracle,
    meet_oracle,
    symmetric_group_image,
    word_system,
)

from conftest import FAMILIES, ctx, family, random_element


def w(token, text):
    return parse_word(ctx(token), text)


# Large types, |W| 51840 and 14400, beside FAMILIES with a few seeded words.
LARGE = ("E6", "H4")


def signed(rng, rank, max_len):
    return tuple(
        (rng.randrange(rank), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))
    )


def test_word_rewriting_equality():
    ws = word_system(ctx("A2"))
    assert ws.equal_positive((0, 1, 0), (1, 0, 1))
    assert not ws.equal_positive((0, 0, 1), (1, 0, 0))
    assert not ws.equal_positive((0,), (0, 0))
    wsb = word_system(ctx("B2"))
    assert wsb.equal_positive((0, 1, 0, 1), (1, 0, 1, 0))
    assert not wsb.equal_positive((0, 1, 0), (1, 0, 1))


def test_word_equality_matches_engine():
    # The rewriting decision procedure and the normal-form engine must agree
    # on the word problem for positive words; in braid type the permutation
    # projection gives a third, coarser consistency check.
    rng = random.Random(60)
    for token in ("A2", "A3", "B2"):
        c = ctx(token)
        ws = word_system(c)
        pure_a = all(t[0] == "A" for t in c.component_types)
        for _ in range(150):
            n = rng.randint(0, 6)
            w1 = tuple(rng.randrange(c.rank) for _ in range(n))
            w2 = tuple(rng.randrange(c.rank) for _ in range(n))
            engine_eq = (
                GroupElement.from_letters(c, [(s, 1) for s in w1])
                == GroupElement.from_letters(c, [(s, 1) for s in w2])
            )
            assert ws.equal_positive(w1, w2) == engine_eq
            if pure_a and engine_eq:
                assert symmetric_group_image(c, tuple((s, 1) for s in w1)) == \
                    symmetric_group_image(c, tuple((s, 1) for s in w2))


def test_word_division():
    ws = word_system(ctx("A2"))
    assert ws.divide_left((0, 1, 0), (1,)) == (0, 1)
    assert ws.divide_left((0, 0), (1,)) is None
    assert ws.divide_left((0, 1, 0, 1), (1, 0)) == (1, 1)
    assert ws.divide_right((0, 1, 0), (0,)) == (0, 1)
    assert ws.first_letters((0, 1, 0)) == {0, 1}
    assert ws.first_letters((0, 0)) == {0}


def _rewriting_class(c, word):
    """Every positive word equal to `word`, by breadth-first application of
    the braid relations: the word problem as the oracle decided it before
    subword reversing."""
    rules = []
    for s in range(c.rank):
        for t in range(s + 1, c.rank):
            m = c.spec.m(s, t)
            lhs = tuple(s if i % 2 == 0 else t for i in range(m))
            rhs = tuple(t if i % 2 == 0 else s for i in range(m))
            rules += [(lhs, rhs), (rhs, lhs)]
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for v in frontier:
            for lhs, rhs in rules:
                k = len(lhs)
                for i in range(len(v) - k + 1):
                    if v[i:i + k] == lhs:
                        v2 = v[:i] + rhs + v[i + k:]
                        if v2 not in seen:
                            seen.add(v2)
                            nxt.append(v2)
        frontier = nxt
    return seen


def test_reversing_equality_matches_rewriting():
    for token in ("A2", "B2", "I2(5)"):
        c = ctx(token)
        ws = word_system(c)
        for n in range(6):
            words = list(itertools.product(range(c.rank), repeat=n))
            for w1 in words:
                cls = _rewriting_class(c, w1)
                for w2 in words:
                    assert ws.equal_positive(w1, w2) == (w2 in cls), (token, w1, w2)
    rng = random.Random(64)
    for token in ("A3", "H3"):
        c = ctx(token)
        ws = word_system(c)
        for _ in range(60):
            w1 = tuple(rng.randrange(c.rank) for _ in range(rng.randint(0, 8)))
            cls = _rewriting_class(c, w1)
            # half the partners are equal to w1, half are random
            w2 = rng.choice(sorted(cls)) if rng.random() < 0.5 else \
                tuple(rng.randrange(c.rank) for _ in w1)
            assert ws.equal_positive(w1, w2) == (w2 in cls), (token, w1, w2)
            assert not ws.equal_positive(w1, w1 + (0,))


@pytest.mark.parametrize("token", FAMILIES + LARGE)
def test_delta_word_is_the_engine_delta(token):
    c = family(token)
    ws = word_system(c)
    assert len(ws.delta_word) == c.delta_length
    assert GroupElement.from_letters(c, [(s, 1) for s in ws.delta_word]) == \
        GroupElement.delta_power(c, 1)


def test_reversing_membership_matches_contains_element():
    for token, radius in (("A2", 4), ("B2", 4), ("A3", 3)):
        c = ctx(token)
        elements = ball(c, radius).elements
        listing = enumerate_parabolics(c, 2)
        for P in listing:
            assert _ball_membership(P, radius) == \
                [contains_element(P, u) for u in elements], (token, P)
            for Q in listing:
                assert _includes(P, Q) == contains_subgroup(P, Q), (token, P, Q)


def _positive(c, word):
    return GroupElement.from_letters(c, [(s, 1) for s in word])


def test_oracle_normal_forms_match_engine():
    rng = random.Random(61)
    for token, words in [(t, 40) for t in FAMILIES] + [(t, 10) for t in LARGE]:
        c = family(token)
        ws = word_system(c)
        for _ in range(words):
            word = signed(rng, c.rank, 10)
            u = GroupElement.from_letters(c, word)
            p, factors = ws.left_normal_form(word)
            assert p == u.power, (token, word)
            assert len(factors) == u.canonical_length()
            for fw, fe in zip(factors, u.factor_words()):
                assert _positive(c, fw) == _positive(c, fe)
            x, y = ws.np_form(word)
            m = np_normal_form(u)
            assert _positive(c, x) == m.negative and _positive(c, y) == m.positive
            a, b = ws.pn_form(word)
            f = pn_normal_form(u)
            assert _positive(c, a) == f.positive and _positive(c, b) == f.negative


def test_enumerate_simples_counts():
    assert len(enumerate_simples(ctx("A2"))) == 6
    assert len(enumerate_simples(ctx("A1"))) == 2
    assert len(enumerate_simples(ctx("B2"))) == 8
    assert len(enumerate_simples(ctx("A3"))) == 24
    assert len(enumerate_simples(ctx("I2(5)"))) == 10
    assert len(enumerate_simples(ctx("D4"))) == 192
    assert len(enumerate_simples(ctx("H3"))) == 120
    assert len(enumerate_simples(ctx("F4"))) == 1152
    # they are exactly the Coxeter-group count and all divide Delta
    for token in ("A2", "B2"):
        c = ctx(token)
        simples = enumerate_simples(c)
        assert len(simples) == c.coxeter_order
        delta = GroupElement.delta_power(c, 1)
        for s in simples:
            assert s.is_positive() and s.sup() <= 1


def _engine_keyed_simples(c):
    """The divisors of Delta grown letter by letter through word division, with
    the engine's normal form deduplicating: the oracle's enumeration before it
    keyed each simple by its least word."""
    ws = word_system(c)
    seen = {GroupElement.identity(c)}
    queue = [(GroupElement.identity(c), ws.delta_word)]
    while queue:
        elt, rest = queue.pop()
        for s in range(c.rank):
            nxt = elt * GroupElement.generator(c, s)
            if nxt in seen:
                continue
            quotient = ws.divide_left(rest, (s,))
            if quotient is not None:
                seen.add(nxt)
                queue.append((nxt, quotient))
    return sorted(seen, key=GroupElement.sort_key)


def test_enumerate_simples_matches_engine_keyed_reference():
    for token in ("A3", "H3", "F4"):
        c = ctx(token)
        assert enumerate_simples(c) == _engine_keyed_simples(c), token


def test_enumerate_simples_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_simples(ctx("A5"), budget=100)


def test_ball_contents():
    c = ctx("A2")
    b = ball(c, 2)
    assert GroupElement.identity(c) in b.words
    assert w("A2", "s1 s2") in b.words
    assert all(len(word) <= 2 for word in b.words.values())
    assert len(b.elements) == len(set(b.elements))


def test_meet_oracle_examples():
    assert meet_oracle(w("A2", "s1 s2"), w("A2", "s1 s1")) == w("A2", "s1")
    u = w("A2", "s2 s1")
    assert meet_oracle(u, GroupElement.identity(ctx("A2"))).is_identity()
    assert meet_oracle(u, u) == u
    # mixed elements: the meet with 1 is the inverse of the np negative part
    v = w("A2", "s1 s2^-1")
    assert meet_oracle(v, GroupElement.identity(ctx("A2"))) == \
        np_normal_form(v).negative.inverse()


def _divisor_bfs_meet(u, v, order):
    """The maximum of the common divisors of u and v, grown letter by letter
    from the identity with engine products and ordered by prefix_le /
    suffix_le: the meet as the oracle found it before it read the meet off
    one np / pn form."""
    c = u.ctx
    k = min(u.power, v.power, 0)
    if order == "prefix":
        cap_u, cap_v = u.shift(-k), v.shift(-k)
        le, extend = prefix_le, lambda d, g: d * g
    else:
        cap_u = u * GroupElement.delta_power(c, -k)
        cap_v = v * GroupElement.delta_power(c, -k)
        le, extend = suffix_le, lambda d, g: g * d
    gens = [GroupElement.generator(c, i) for i in range(c.rank)]
    common = {GroupElement.identity(c)}
    frontier = list(common)
    while frontier:
        nxt = []
        for d in frontier:
            for g in gens:
                e = extend(d, g)
                if e not in common and le(e, cap_u) and le(e, cap_v):
                    common.add(e)
                    nxt.append(e)
        frontier = nxt
    best = None
    for e in sorted(common, key=GroupElement.sort_key):
        if best is None or le(best, e):
            best = e
    assert all(le(e, best) for e in common)
    if order == "prefix":
        return best.shift(k)
    return best * GroupElement.delta_power(c, k)


def test_meet_oracle_matches_engine():
    rng = random.Random(62)
    for token, pairs in [(t, 25) for t in FAMILIES] + [(t, 10) for t in LARGE]:
        c = family(token)
        for _ in range(pairs):
            a = random_element(c, rng, 6)
            b = random_element(c, rng, 6)
            assert meet_oracle(a, b, "prefix") == meet_prefix(a, b), token
            assert meet_oracle(a, b, "suffix") == meet_suffix(a, b), token
            # joins through the inversion duality
            assert meet_oracle(a.inverse(), b.inverse(), "suffix").inverse() == \
                join_prefix(a, b), token
            assert meet_oracle(a.inverse(), b.inverse(), "prefix").inverse() == \
                join_suffix(a, b), token
    # the divisor search it replaced, on every pair of two radius-2 balls
    for token in ("A2", "B2"):
        elements = ball(ctx(token), 2).elements
        for a in elements:
            for b in elements:
                for order in ("prefix", "suffix"):
                    assert meet_oracle(a, b, order) == _divisor_bfs_meet(a, b, order), \
                        (token, a, b, order)


def test_closure_oracle_examples():
    assert parabolic_equal(
        closure_oracle(w("A2", "s1")), ParabolicSubgroup.standard(ctx("A2"), {0})
    )
    assert parabolic_equal(
        closure_oracle(GroupElement.delta_power(ctx("A2"), 1)),
        ParabolicSubgroup.full(ctx("A2")),
    )
    assert parabolic_equal(
        closure_oracle(w("A4", "s1 s2"), 2),
        ParabolicSubgroup.standard(ctx("A4"), {0, 1}),
    )


def test_closure_oracle_agrees_with_engine_sampled():
    rng = random.Random(63)
    c = ctx("A2")
    for _ in range(40):
        u = random_element(c, rng, 5)
        assert parabolic_equal(closure_oracle(u, 3), parabolic_closure(u))


def test_closure_oracle_past_its_conjugator_bound():
    # The closure needs an 8-letter standardizer, beyond the oracle's ball of
    # radius 3: the oracle answers a larger subgroup as the unique minimum.
    c = ctx("A5")
    u = parse_element(c, "Δ^-2 · (s3 s2 s4 s3 s2 s1 s5 s4 s3 s2 s1)(s1 s4 s3 s2 s1 s5 s4)"
                         "(s1 s2 s1 s4 s3 s2 s1 s5)(s3 s2 s4)")
    P = parabolic_closure(u)
    assert P.base == frozenset({0, 2, 4}) and len(P.standardizer.as_signed_word()) == 8
    answer = closure_oracle(u, 3)
    assert answer.base == frozenset({0, 2, 3, 4})
    assert contains_subgroup(answer, P) and not parabolic_equal(answer, P)


def test_enumerate_parabolics_oracle():
    # the listing closure_oracle searches, against its word-by-word definition:
    # g A_X g^-1 for every subset X and every signed word g of length <= 1
    c = ctx("A2")
    listing = enumerate_parabolics(c, 1)
    assert len({P.z for P in listing}) == len(listing)
    letters = [()] + [((i, e),) for i in range(c.rank) for e in (1, -1)]
    conjugates = [
        ParabolicSubgroup.from_conjugator(c, GroupElement.from_letters(c, g), X)
        for mask in range(4)
        for X in [frozenset(i for i in range(2) if mask >> i & 1)]
        for g in letters
    ]
    for Q in conjugates:
        assert any(parabolic_equal(P, Q) for P in listing)
    for P in listing:
        assert any(parabolic_equal(P, Q) for Q in conjugates)
    # all standard subgroups are present
    for mask in range(4):
        base = frozenset(i for i in range(2) if mask >> i & 1)
        std = ParabolicSubgroup.standard(c, base)
        assert any(parabolic_equal(P, std) for P in listing)


def test_intersect_oracle_examples():
    c = ctx("A3")
    got = intersect_oracle(
        ParabolicSubgroup.standard(c, {0, 1}),
        ParabolicSubgroup.standard(c, {1, 2}),
        radius=4,
    )
    s2 = w("A3", "s2")
    assert set(got) <= {s2**k for k in range(-4, 5)}
    assert s2 in got and GroupElement.identity(c) in got
    got = intersect_oracle(
        ParabolicSubgroup.standard(ctx("A4"), {0}),
        ParabolicSubgroup.standard(ctx("A4"), {2}),
        radius=3,
    )
    assert got == [GroupElement.identity(ctx("A4"))]
    P = ParabolicSubgroup.standard(c, {0, 1})
    full_ball = ball(c, 3).elements
    self_int = intersect_oracle(P, P, radius=3)
    assert self_int == [u for u in full_ball if contains_element(P, u)]


def test_oracle_tables_are_freed_with_the_context():
    c = context_from_token("A2")
    P = ParabolicSubgroup.standard(c, {0})
    closure_oracle(parse_word(c, "s1 s2"), 2)
    intersect_oracle(P, P, radius=2)
    word_system(c).left_normal_form(((0, 1), (1, -1)))
    ref = weakref.ref(c)
    del c, P
    gc.collect()
    assert ref() is None
