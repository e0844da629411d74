import random
from itertools import product

import pytest

from garside import (
    GroupElement,
    PairCondition,
    ParabolicSubgroup,
    characterize_pair,
    complex_ball,
    complex_neighbors,
    conjugated_parabolic,
    contains_element,
    contains_subgroup,
    intersect,
    join,
    parabolic_closure,
    parabolic_equal,
    parse_word,
    phi,
    subsequence_invariance_check,
    z_commute,
)
from garside.elements import format_signed_word
from garside.errors import EqualSubgroups, InvalidPath, NotIrreducible, NotProper
from garside.lattice import (
    Certificate,
    _conjugates,
    _irreducible_proper_bases,
    _nested,
    _subsets,
    enumerate_parabolics,
    signed_ball,
)
from garside.oracle import ball

from conftest import FAMILIES, ctx, family, random_element


def std(token, base):
    return ParabolicSubgroup.standard(ctx(token), frozenset(base))


def w(token, text):
    return parse_word(ctx(token), text)


def test_z_commute_examples():
    assert z_commute(std("A2", {0}), ParabolicSubgroup.full(ctx("A2")))
    assert not z_commute(std("A2", {0}), std("A2", {1}))
    assert z_commute(std("A4", {0}), std("A4", {2}))


def test_characterize_pair_examples():
    with pytest.raises(NotProper):
        characterize_pair(std("A2", {0}), ParabolicSubgroup.full(ctx("A2")))
    with pytest.raises(NotIrreducible):
        characterize_pair(std("A4", {0, 2}), std("A4", {1}))
    with pytest.raises(EqualSubgroups):
        characterize_pair(std("A4", {0}), std("A4", {0}))
    v = characterize_pair(std("A4", {0}), std("A4", {2}))
    assert v.commute and v.condition is PairCondition.DISJOINT_COMMUTING
    v = characterize_pair(std("A4", {0}), std("A4", {0, 1}))
    assert v.commute and v.condition is PairCondition.PROPER_SUBSET_PQ
    v = characterize_pair(std("A4", {0, 1}), std("A4", {0}))
    assert v.condition is PairCondition.PROPER_SUBSET_QP
    v = characterize_pair(std("A4", {0}), std("A4", {1}))
    assert not v.commute and v.condition is None


def test_characterize_pair_is_conjugation_invariant():
    rng = random.Random(50)
    c = ctx("A4")
    bases = [frozenset(b) for b in ({0}, {1}, {2}, {3}, {0, 1}, {1, 2}, {2, 3})]
    for _ in range(25):
        bp, bq = rng.sample(bases, 2)
        g = random_element(c, rng, 3)
        h = random_element(c, rng, 3)
        P = ParabolicSubgroup.from_conjugator(c, g, bp)
        Q = ParabolicSubgroup.from_conjugator(c, h, bq)
        if parabolic_equal(P, Q):
            continue
        verdict = characterize_pair(P, Q)
        assert verdict.commute == z_commute(P, Q)


def test_intersect_examples():
    R, cert = intersect(std("A3", {0, 1}), std("A3", {1, 2}), budget=5)
    assert parabolic_equal(R, std("A3", {1}))
    assert cert.verified_inclusions == ["z(R) in P", "z(R) in Q"]
    P = std("A3", {0, 1})
    R, cert = intersect(P, P)
    assert parabolic_equal(R, P)
    R, _ = intersect(std("A4", {0}), std("A4", {2}), budget=4)
    assert R.is_trivial()


def test_intersect_respects_nesting():
    P = std("A4", {0, 1, 2})
    Q = ParabolicSubgroup.from_conjugator(ctx("A4"), w("A4", "s1 s2"), {0, 1, 2})
    R, cert = intersect(P, Q, budget=3)
    assert parabolic_equal(R, P) and parabolic_equal(R, Q)



def _ref_intersect(P, Q, budget):
    """The candidate loop intersect ran before it conjugated Q once per call:
    each ball element w of P's base gives b w b^-1, tested against Q."""
    cert = Certificate(operation="intersect", budget=budget)
    if nested := _nested(P, Q):
        cert.notes.append(nested[0])
        return nested[1], cert
    b = P.standardizer
    bi = b.inverse()
    best, best_key = None, (0, 0)
    for w in signed_ball(P.ctx, budget, P.base):
        if w.is_identity():
            continue
        cand = b * w * bi
        cert.candidates_examined += 1
        if not contains_element(Q, cand):
            continue
        key = (phi(cand), -len(cand.as_signed_word()))
        if key > best_key:
            best, best_key = cand, key
    if best is None:
        cert.notes.append("no nontrivial common element within budget")
        return ParabolicSubgroup.trivial(P.ctx), cert
    cert.witness = format_signed_word(best.as_signed_word()) or "1"
    cert.verified_inclusions += ["z(R) in P", "z(R) in Q"]
    return parabolic_closure(best), cert


def test_intersect_matches_candidate_loop_reference():
    rng = random.Random(52)
    pairs = 0
    for token in ("A3", "A4", "B3"):
        c = ctx(token)
        bases = [X for X in _subsets(c) if X and len(X) < c.rank]
        for _ in range(70):
            P = ParabolicSubgroup.from_conjugator(c, random_element(c, rng, 3), rng.choice(bases))
            Q = ParabolicSubgroup.from_conjugator(c, random_element(c, rng, 3), rng.choice(bases))
            for budget in (3, 4):
                R, cert = intersect(P, Q, budget)
                ref, ref_cert = _ref_intersect(P, Q, budget)
                assert R.to_json() == ref.to_json(), (token, P, Q, budget)
                assert cert.to_json() == ref_cert.to_json(), (token, P, Q, budget)
                pairs += 1
    assert pairs == 420

def test_join_examples():
    R, cert = join(std("A3", {0}), std("A3", {1}), budget=2)
    assert parabolic_equal(R, std("A3", {0, 1}))
    assert "minimal among all enumerated upper bounds" in cert.notes
    P = std("A3", {0})
    R, _ = join(P, P)
    assert parabolic_equal(R, P)
    R, _ = join(P, ParabolicSubgroup.full(ctx("A3")))
    assert parabolic_equal(R, ParabolicSubgroup.full(ctx("A3")))
    R, _ = join(std("A3", {0}), std("A3", {2}), budget=2)
    assert parabolic_equal(R, std("A3", {0, 2}))


def test_join_contains_both_and_absorption():
    rng = random.Random(51)
    c = ctx("A3")
    bases = [frozenset(b) for b in ({0}, {1}, {2}, {0, 1}, {1, 2})]
    for _ in range(12):
        P = ParabolicSubgroup.from_conjugator(c, random_element(c, rng, 2), rng.choice(bases))
        Q = ParabolicSubgroup.from_conjugator(c, random_element(c, rng, 2), rng.choice(bases))
        J, _ = join(P, Q, budget=2)
        assert contains_subgroup(J, P) and contains_subgroup(J, Q)
        M, _ = intersect(P, J, budget=4)
        assert parabolic_equal(M, P)  # absorption: P ^ (P v Q) = P


def test_nested_chains_are_short():
    # strictly nested parabolic chains cannot exceed rank+1 subgroups
    c = ctx("A4")
    chain = [ParabolicSubgroup.trivial(c)]
    for k in range(1, c.rank + 1):
        chain.append(std("A4", set(range(k))))
    for small, big in zip(chain, chain[1:]):
        assert contains_subgroup(big, small) and not parabolic_equal(small, big)
    assert len(chain) == c.rank + 1
    for P, Q in zip(chain, chain[1:]):
        base_p, base_q = len(P.base), len(Q.base)
        assert base_p < base_q


def test_complex_neighbors_examples():
    assert complex_neighbors(std("A2", {0}), 0) == []
    nb = complex_neighbors(std("A4", {0}), 0)
    bases = {tuple(sorted(Q.base)) for Q in nb}
    assert {(2,), (3,), (2, 3), (0, 1)} <= bases
    assert all(not parabolic_equal(Q, std("A4", {0})) for Q in nb)
    with pytest.raises(NotProper):
        complex_neighbors(ParabolicSubgroup.full(ctx("A4")), 0)
    with pytest.raises(NotIrreducible):
        complex_neighbors(std("A4", {0, 2}), 0)


def test_complex_neighbors_with_conjugates():
    nb0 = complex_neighbors(std("A3", {0}), 0)
    nb1 = complex_neighbors(std("A3", {0}), 1)
    assert len(nb1) >= len(nb0)
    assert all(z_commute(std("A3", {0}), Q) for Q in nb1)
    assert all(Q.is_proper() and Q.is_irreducible() for Q in nb1)


def test_complex_ball():
    ball = complex_ball(std("A4", {0}), radius=1, budget=0)
    assert any(parabolic_equal(V, std("A4", {0})) for V in ball.vertices)
    index = {V.z: i for i, V in enumerate(ball.vertices)}
    for i, j in ball.edges:
        assert z_commute(ball.vertices[i], ball.vertices[j])
    # every neighbor of the center is joined to it by an edge
    ci = next(i for i, V in enumerate(ball.vertices)
              if parabolic_equal(V, std("A4", {0})))
    neighbor_ids = {index[Q.z] for Q in complex_neighbors(std("A4", {0}), 0)}
    linked = {j for i, j in ball.edges if i == ci} | {i for i, j in ball.edges if j == ci}
    assert neighbor_ids <= linked


def test_complex_ball_builds_candidates_once(monkeypatch):
    center = std("A4", {0})
    layer, expected = [center], {center.z: center}
    for _ in range(2):
        layer = [W for V in layer for W in complex_neighbors(V, 1) if W.z not in expected]
        expected.update((W.z, W) for W in layer)
    calls = []
    real = ParabolicSubgroup.from_conjugator
    monkeypatch.setattr(ParabolicSubgroup, "from_conjugator",
                        staticmethod(lambda *a: calls.append(a) or real(*a)))
    ball = complex_ball(center, radius=2, budget=1)
    assert [V.z for V in ball.vertices] == sorted(
        expected, key=lambda z: expected[z].sort_key())
    assert (len(ball.vertices), len(ball.edges)) == (27, 99)
    # one candidate per irreducible proper base and signed word of length <= 1
    assert len(calls) <= 81


def test_enumerate_parabolics_dedupes():
    c = ctx("A2")
    ps = enumerate_parabolics(c, 1)
    assert len({P.z for P in ps}) == len(ps)
    assert any(P.is_trivial() for P in ps)
    assert any(not P.is_proper() for P in ps)
    # conjugating the full group or the trivial group gives nothing new
    full = [P for P in ps if not P.is_proper()]
    assert len(full) == 1
    # all standard subgroups are present
    for X in _subsets(c):
        assert ParabolicSubgroup.standard(c, X) in ps


def _ref_conjugates(c, bases, radius):
    """Every g A_X g^-1 over the whole signed ball, one per central element."""
    ball = signed_ball(c, radius)
    out = {}
    for X in bases:
        for g in ball:
            P = ParabolicSubgroup.from_conjugator(c, g, X)
            out.setdefault(P.z, P)
    return sorted(out.values(), key=ParabolicSubgroup.sort_key)


@pytest.mark.parametrize("token", FAMILIES)
def test_pruned_conjugates_match_whole_ball(token):
    # _conjugates skips conjugators whose last letter normalizes A_X; the
    # subgroups found must be those of every conjugator in the ball
    c = family(token)
    irreducible = _irreducible_proper_bases(c)
    for radius in range(4):
        for got, bases in ((enumerate_parabolics(c, radius), _subsets(c)),
                           (_conjugates(c, irreducible, radius), irreducible)):
            ref = _ref_conjugates(c, bases, radius)
            assert [(P.z, P.standardizer, P.base) for P in got] == \
                [(P.z, P.standardizer, P.base) for P in ref]


def signed_words(rank, max_len):
    """Every signed word of length <= max_len: shortest first, then in
    lexicographic order with generators before their inverses."""
    alphabet = [(i, 1) for i in range(rank)] + [(i, -1) for i in range(rank)]
    for n in range(max_len + 1):
        yield from product(alphabet, repeat=n)


def test_signed_ball_growth():
    # the breadth-first ball against the word-by-word definition: its elements
    # are the products of all signed words, each with its first word
    for token in ("A2", "B2", "A3", "I2(5)"):
        c = ctx(token)
        sizes = [len(signed_ball(c, r)) for r in range(4)]
        assert sizes[0] == 1
        assert sizes == sorted(sizes)
        first = {}
        for word in signed_words(c.rank, 3):
            first.setdefault(GroupElement.from_letters(c, word), word)
        for r in range(4):
            words = {u: word for u, word in first.items() if len(word) <= r}
            assert signed_ball(c, r) == sorted(words, key=GroupElement.sort_key)
            assert ball(c, r).words == words


def test_subsequence_invariance_check():
    a2 = ctx("A2")
    assert subsequence_invariance_check(a2, [0, 1, 0], [1, 0, 1], [0, 1])
    assert not subsequence_invariance_check(a2, [1, 1], [0, 1], [0, 1])
    a3 = ctx("A3")
    assert subsequence_invariance_check(a3, [0, 1, 0], [1, 0, 1], [0, 1])
    with pytest.raises(InvalidPath):
        subsequence_invariance_check(a3, [0], [0], [0, 2])  # commuting step
    with pytest.raises(InvalidPath):
        subsequence_invariance_check(a3, [0], [0], [0, 1, 0])  # backtrack
    with pytest.raises(InvalidPath):
        subsequence_invariance_check(a3, [0], [0], [0, 5])


def test_noncommuting_z_witnessed_by_subsequences():
    # the letter-order obstruction behind the adjacency characterization:
    # z_X z_Y admits the path as a subsequence, z_Y z_X does not
    a2 = ctx("A2")
    zx = std("A2", {0}).z
    zy = std("A2", {1}).z
    wxy = [s for s, _ in (zx * zy).as_signed_word()]
    path = [0, 1]
    assert subsequence_invariance_check(a2, wxy, wxy, path)
    wyx_raw = [s for s, _ in zy.as_signed_word()] + [s for s, _ in zx.as_signed_word()]
    from garside.lattice import is_subsequence
    assert not is_subsequence(wyx_raw, path)
    assert zx * zy != zy * zx


def test_adjacency_biconditional_standard_pairs_a3_b3():
    for token in ("A3", "B3"):
        c = ctx(token)
        bases = _irreducible_proper_bases(c)
        for X in bases:
            for Y in bases:
                if X == Y:
                    continue
                P = ParabolicSubgroup.standard(c, X)
                Q = ParabolicSubgroup.standard(c, Y)
                verdict = characterize_pair(P, Q, budget=4)
                assert verdict.commute == (verdict.condition is not None)
                assert verdict.commute == z_commute(P, Q)
