import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

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
from garside.elements import format_element, format_signed_word, support
from garside.errors import EqualSubgroups, InvalidPath, NotIrreducible, NotProper
from garside.lattice import (
    Certificate,
    _ball_words,
    _conjugators,
    _irreducible_proper_bases,
    _nested,
    _standardized,
    _subsets,
    enumerate_parabolics,
    signed_ball,
)
from garside import context_from_token, lattice, oracle, parabolic
from garside.oracle import ball
from garside.parabolic import central_element_of_standard

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


def _standard_condition(c, X, Y):
    """How A_X and A_Y relate, for distinct irreducible proper X and Y: nested
    when one base holds the other, disjoint-commuting when the bases are
    disjoint with no edge between them, and not adjacent otherwise."""
    if X < Y:
        return PairCondition.PROPER_SUBSET_PQ
    if Y < X:
        return PairCondition.PROPER_SUBSET_QP
    if not X & Y and all(c.spec.m(x, y) == 2 for x in X for y in Y):
        return PairCondition.DISJOINT_COMMUTING
    return None


@pytest.mark.parametrize("token", ("E6", "H4"))
def test_characterize_pair_on_planted_vertex_pairs(token):
    """P = gh A_X (gh)^-1 and Q = g A_Y g^-1 relate as A_X and A_Y do, with
    h a word in the letters of Y when X lies inside Y (so P stays inside Q)
    and h = 1 otherwise: eight planted pairs of each kind, both ways round."""
    c = ctx(token)
    rng = random.Random(f"planted vertex pairs {token}")
    bases = _irreducible_proper_bases(c)
    pairs = [(X, Y) for X in bases for Y in bases if X != Y]
    mirror = {PairCondition.PROPER_SUBSET_PQ: PairCondition.PROPER_SUBSET_QP,
              PairCondition.DISJOINT_COMMUTING: PairCondition.DISJOINT_COMMUTING, None: None}
    for kind in (PairCondition.PROPER_SUBSET_PQ, PairCondition.DISJOINT_COMMUTING, None):
        of_kind = [(X, Y) for X, Y in pairs if _standard_condition(c, X, Y) is kind]
        for X, Y in rng.sample(of_kind, 8):
            g = random_element(c, rng, 4)
            h = GroupElement.identity(c)
            if kind is PairCondition.PROPER_SUBSET_PQ:
                h = GroupElement.from_letters(
                    c, [(rng.choice(sorted(Y)), rng.choice((1, -1))) for _ in range(3)])
            P = ParabolicSubgroup.from_conjugator(c, g * h, X)
            Q = ParabolicSubgroup.from_conjugator(c, g, Y)
            for verdict, expected in ((characterize_pair(P, Q), kind),
                                      (characterize_pair(Q, P), mirror[kind])):
                assert verdict.condition is expected, (sorted(X), sorted(Y), format_element(g))
                assert verdict.commute == (expected is not None)


def _nesting_by_two_tests(P, Q):
    """The nesting classification characterize_pair made before it used
    _nested: both containment tests, P < Q read first."""
    p_in_q = contains_subgroup(Q, P)
    q_in_p = contains_subgroup(P, Q)
    if p_in_q:
        return PairCondition.PROPER_SUBSET_PQ
    if q_in_p:
        return PairCondition.PROPER_SUBSET_QP
    return None


@pytest.mark.parametrize("token", FAMILIES)
def test_characterize_pair_matches_two_test_nesting(token):
    vertices = [P for P in enumerate_parabolics(family(token), 1)
                if P.is_proper() and P.is_irreducible()]
    nested = 0
    for P, Q in product(vertices, repeat=2):
        if P == Q:
            continue
        condition = characterize_pair(P, Q).condition
        expected = _nesting_by_two_tests(P, Q)
        if expected is None:
            assert condition in (None, PairCondition.DISJOINT_COMMUTING)
        else:
            assert condition is expected
            nested += 1
    # nested pairs are there unless every vertex has one generator (I2(m))
    assert nested or all(len(P.base) == 1 for P in vertices)


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


# A pair whose intersection lies outside the default search ball:
# A[s1,s2] and g A[s1,s4] g^-1, g = s1 s1 s2 s2, share the rank-1 subgroup
# g A[s1] g^-1, but intersect finds it only from budget 7 on (1,232
# candidates) and answers the trivial subgroup at budgets 5 and 6 (262 and
# 576), with no label that the answer may be too small.


def _missed_intersection():
    c, g = ctx("A4"), w("A4", "s1 s1 s2 s2")
    return (std("A4", {0, 1}), ParabolicSubgroup.from_conjugator(c, g, {0, 3}),
            ParabolicSubgroup.from_conjugator(c, g, {0}))


def test_the_missed_intersection_is_common_and_found_at_budget_7():
    P, Q, R = _missed_intersection()
    assert contains_subgroup(P, R) and contains_subgroup(Q, R)
    assert parabolic_equal(intersect(P, Q, budget=7)[0], R)


@pytest.mark.xfail(strict=True, reason="intersect is a bounded search: budgets 5 and 6 "
                                       "miss the common subgroup and answer the trivial one")
def test_intersect_finds_the_missed_intersection_at_budgets_5_and_6():
    P, Q, R = _missed_intersection()
    for budget in (5, 6):
        assert parabolic_equal(intersect(P, Q, budget=budget)[0], R), budget


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
    real = lattice._conjugate
    monkeypatch.setattr(lattice, "_conjugate",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    ball = complex_ball(center, radius=2, budget=1)
    assert [V.z for V in ball.vertices] == sorted(
        expected, key=lambda z: expected[z].sort_key())
    assert (len(ball.vertices), len(ball.edges)) == (27, 99)
    # one conjugation per irreducible proper base and signed word of length <= 1
    assert 0 < len(calls) <= 81


def test_join_standardizes_only_upper_bounds(monkeypatch):
    # the standardizer's pn cut runs once per subgroup built; a fresh
    # context holds none
    c = context_from_token("A4")
    calls = []
    real = parabolic._pn_negative
    monkeypatch.setattr(parabolic, "_pn_negative", lambda u: calls.append(u) or real(u))
    P = ParabolicSubgroup.standard(c, {0})
    Q = ParabolicSubgroup.from_conjugator(c, parse_word(c, "s2"), {2})
    R, cert = join(P, Q, budget=1)
    built = len(calls)
    uppers = [T for T in enumerate_parabolics(c, 1)
              if contains_subgroup(T, P) and contains_subgroup(T, Q)]
    assert contains_subgroup(R, P) and contains_subgroup(R, Q)
    assert cert.candidates_examined == 3 + len(enumerate_parabolics(c, 1))
    # P, Q, the three product closures and the upper bounds
    assert built <= 2 + 3 + len(uppers) < cert.candidates_examined


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
    # _conjugators skips conjugators whose last letter normalizes A_X; the
    # subgroups found must be those of every conjugator in the ball
    c = family(token)
    irreducible = _irreducible_proper_bases(c)
    for radius in range(4):
        for got, bases in ((enumerate_parabolics(c, radius), _subsets(c)),
                           (_standardized(c, _conjugators(c, irreducible, radius)),
                            irreducible)):
            ref = _ref_conjugates(c, bases, radius)
            assert [(P.z, P.standardizer, P.base) for P in got] == \
                [(P.z, P.standardizer, P.base) for P in ref]


def _z_keyed_conjugates(c, bases, radius):
    """A reference for `enumerate_parabolics` with a dictionary of its own, keyed by
    central element: a subgroup is built only for a z not yet found."""
    words = _ball_words(c, radius)
    out = {}
    for X in bases:
        normalizing = {t for t in range(c.rank)
                       if t in X or all(c.spec.m(t, s) == 2 for s in X)}
        z_X = central_element_of_standard(c, X)
        for g, word in words.items():
            if word and word[-1][0] in normalizing:
                continue
            z = z_X.conjugate_by(g.inverse())
            if z not in out:
                out[z] = ParabolicSubgroup.from_central_element(c, z)
    return sorted(out.values(), key=ParabolicSubgroup.sort_key)


@pytest.mark.parametrize("token", FAMILIES)
def test_enumeration_matches_z_keyed_reference(token):
    c = family(token)
    got = enumerate_parabolics(c, 1)
    ref = _z_keyed_conjugates(c, _subsets(c), 1)
    assert [(P.z, P.standardizer, P.base) for P in got] == \
        [(P.z, P.standardizer, P.base) for P in ref]


def _ref_join(P, Q, budget):
    """join as it ran before the z-keyed enumerator: every enumerated subgroup
    standardized, then tested with contains_subgroup."""
    c = P.ctx
    cert = Certificate(operation="join", budget=budget)
    if nested := _nested(P, Q):
        cert.notes.append(nested[0])
        return nested[2], cert

    def is_upper(T):
        return contains_subgroup(T, P) and contains_subgroup(T, Q)

    candidates = [ParabolicSubgroup.full(c)]
    for k in (1, 2, 3):
        T = lattice.parabolic_closure(P.z * Q.z ** k)
        cert.candidates_examined += 1
        if is_upper(T) and T not in candidates:
            candidates.append(T)
    uppers = []
    for T in _ref_conjugates(c, _subsets(c), budget):
        cert.candidates_examined += 1
        if is_upper(T):
            uppers.append(T)
            if T not in candidates:
                candidates.append(T)
    result = candidates[0]
    for T in candidates[1:]:
        if contains_subgroup(result, T):
            result = T
        elif not contains_subgroup(T, result):
            refined, _ = intersect(result, T, budget=max(budget, 4))
            if is_upper(refined):
                result = refined
            else:
                cert.notes.append("incomparable upper bounds left unrefined")
    cert.verified_inclusions.extend(["z(P) in R", "z(Q) in R"])
    minimal = all(contains_subgroup(T, result) for T in uppers)
    cert.notes.append(
        "minimal among all enumerated upper bounds"
        if minimal
        else "minimality not certified against every enumerated upper bound"
    )
    return result, cert


def _random_subgroup(c, rng, bases, shared):
    return ParabolicSubgroup.from_conjugator(c, shared * random_element(c, rng, 2),
                                             rng.choice(bases))


# Pairs (conjugator, base) of subgroups whose join refines once the product
# closures are withheld, at budget 1 or 2.
_REFINING = {
    "D4": [(("", {3}), ("s1^-1 s3^-1", {1})), (("s3^-1 s2", {3}), ("s1^-1 s2", {1}))],
    "F4": [(("s1", {1}), ("s4 s1", {2})), (("s2^-1 s4^-1", {0}), ("s1 s4^-1", {2}))],
}


@pytest.mark.parametrize("token", FAMILIES)
def test_join_matches_standardizing_reference(token, monkeypatch):
    """Seeded non-nested pairs.  Some product closure is the join on every
    such pair, so join never refines; a second pass withholds the product
    closures (the first three closures a join takes each read as the trivial
    group, which holds neither P nor Q), which sends every pair through the
    enumeration and the pinned pairs in rank 4 through the refinement step
    (the reference calls intersect unpatched, so only join is counted)."""
    c = family(token)
    rng = random.Random(f"join-{token}")
    bases = [X for X in _subsets(c) if X and len(X) < c.rank]
    pairs = [tuple(ParabolicSubgroup.from_conjugator(c, parse_word(c, word), X)
                   for word, X in pq) for pq in _REFINING.get(token, [])]
    while len(pairs) < 6:
        P, Q = (ParabolicSubgroup.from_conjugator(c, random_element(c, rng, 2),
                                                  rng.choice(bases)) for _ in "PQ")
        if not _nested(P, Q):
            pairs.append((P, Q))
    refinements, closures = [], []
    real_intersect, real_closure = lattice.intersect, lattice.parabolic_closure
    withheld = False

    def closure(u):
        closures.append(u)
        if withheld and len(closures) <= 3:
            return ParabolicSubgroup.trivial(c)
        return real_closure(u)

    monkeypatch.setattr(lattice, "intersect",
                        lambda *a, **k: refinements.append(a) or real_intersect(*a, **k))
    monkeypatch.setattr(lattice, "parabolic_closure", closure)
    for withheld in (False, True):
        for P, Q in pairs:
            for budget in (1, 2):
                closures.clear()
                R, cert = join(P, Q, budget)
                closures.clear()
                ref, ref_cert = _ref_join(P, Q, budget)
                assert R.to_json() == ref.to_json(), (P, Q, budget, withheld)
                assert cert.to_json() == ref_cert.to_json(), (P, Q, budget, withheld)
        if not withheld:
            assert not refinements
    assert bool(refinements) == (token in _REFINING)


@pytest.mark.parametrize("token", FAMILIES + ("E6", "H4"))
def test_join_stops_at_the_proven_answer(token, monkeypatch):
    """On seeded non-nested pairs, join returns the first product closure
    that holds P and Q, which the lattice makes the join itself, without
    standardizing any enumerated subgroup or refining: the full search of
    `_ref_join` gives the same subgroup and the same certificate,
    `candidatesExamined` included."""
    c = family(token)
    rng = random.Random(f"exact join {token}")
    bases = [X for X in _subsets(c) if X and len(X) < c.rank]
    pairs = []
    while len(pairs) < 6:
        P, Q = (ParabolicSubgroup.from_conjugator(c, random_element(c, rng, 3),
                                                  rng.choice(bases)) for _ in "PQ")
        if not _nested(P, Q):
            pairs.append((P, Q))
    for P, Q in pairs:
        for budget in (1, 2):
            ref, ref_cert = _ref_join(P, Q, budget)
            built = []
            with monkeypatch.context() as m:
                m.setattr(lattice, "_standardized", lambda *a: built.append(a) or [])
                m.setattr(lattice, "intersect", lambda *a, **k: built.append(a))
                R, cert = join(P, Q, budget)
            assert not built, (token, P, Q, budget)
            assert R.to_json() == ref.to_json(), (token, P, Q, budget)
            assert cert.to_json() == ref_cert.to_json(), (token, P, Q, budget)


# Criterion 9, the adjacency biconditional, as a property in every family and
# in the large types: distinct vertices commute (their central elements do)
# iff they are nested or disjoint and commuting, each side recomputed apart
# from `characterize_pair` (products for commutation, the word oracle for
# inclusion).
LARGE = ("A6", "D6", "E6", "E7", "E8", "H4")


@hs.composite
def vertex_pairs(draw):
    c = family(draw(hs.sampled_from(FAMILIES + LARGE)))
    bases = _irreducible_proper_bases(c)
    words = hs.lists(hs.tuples(hs.integers(0, c.rank - 1), hs.sampled_from((1, -1))),
                     max_size=3)
    g = GroupElement.from_letters(c, draw(words))
    h = GroupElement.from_letters(c, draw(words) if draw(hs.booleans()) else [])
    P = ParabolicSubgroup.from_conjugator(c, g, draw(hs.sampled_from(bases)))
    Q = ParabolicSubgroup.from_conjugator(c, g * h, draw(hs.sampled_from(bases)))
    assume(not parabolic_equal(P, Q))
    return P, Q


@settings(max_examples=150, deadline=None, database=None)
@given(vertex_pairs())
def test_criterion_9_adjacency_biconditional_in_every_type(pair):
    P, Q = pair
    verdict = characterize_pair(P, Q)
    assert verdict.commute == (verdict.condition is not None)
    assert verdict.commute == (P.z * Q.z == Q.z * P.z)
    if oracle._includes(Q, P):
        expected = PairCondition.PROPER_SUBSET_PQ
    elif oracle._includes(P, Q):
        expected = PairCondition.PROPER_SUBSET_QP
    elif all(a * b == b * a for a in P.generators() for b in Q.generators()):
        expected = PairCondition.DISJOINT_COMMUTING
    else:
        expected = None
    assert verdict.condition is expected


@pytest.mark.parametrize("token", FAMILIES + LARGE)
def test_commute_is_one_conjugation(token):
    """`_commute` tests b^a == b; on seeded pairs, commuting ones planted
    (powers of one element, central Delta powers, standard central elements),
    it agrees with a b == b a."""
    c = family(token)
    rng = random.Random(f"commute {token}")
    seen = set()
    for i in range(30):
        a = random_element(c, rng, 6)
        b = (random_element(c, rng, 6), a ** rng.randint(-2, 2),
             GroupElement.delta_power(c, 2 * rng.randint(-1, 1)) * a,
             central_element_of_standard(c, rng.sample(range(c.rank), 1)))[i % 4]
        expected = a * b == b * a
        assert lattice._commute(a, b) == expected == lattice._commute(b, a), \
            (token, format_element(a), format_element(b))
        seen.add(expected)
    assert seen == {True, False}, token


def _ref_complex_ball(P, radius, budget):
    """complex_ball as it ran before the z-keyed enumerator: every candidate
    standardized, the walk run on subgroups."""
    c = P.ctx
    candidates = _ref_conjugates(c, _irreducible_proper_bases(c), budget) if radius else []
    layer, vertices = [P], {P}
    for _ in range(radius):
        nxt = []
        for V in layer:
            for W in candidates:
                if W not in vertices and z_commute(V, W):
                    vertices.add(W)
                    nxt.append(W)
        layer = nxt
    verts = sorted(vertices, key=ParabolicSubgroup.sort_key)
    edges = [(i, j) for i in range(len(verts)) for j in range(i + 1, len(verts))
             if z_commute(verts[i], verts[j])]
    return verts, edges


@pytest.mark.parametrize("token", FAMILIES)
def test_complex_matches_standardizing_reference(token):
    c = family(token)
    rng = random.Random(f"complex-{token}")
    bases = _irreducible_proper_bases(c)
    centers = [ParabolicSubgroup.standard(c, bases[0]),
               ParabolicSubgroup.from_conjugator(c, random_element(c, rng, 3), bases[-1])]
    for P in centers:
        for budget in (0, 1):
            nb = complex_neighbors(P, budget)
            ref = [Q for Q in _ref_conjugates(c, bases, budget)
                   if Q != P and z_commute(P, Q)]
            assert [(Q.z, Q.standardizer, Q.base) for Q in nb] == \
                [(Q.z, Q.standardizer, Q.base) for Q in ref]
            for radius in (1, 2):
                got = complex_ball(P, radius, budget)
                verts, edges = _ref_complex_ball(P, radius, budget)
                assert [(V.z, V.standardizer, V.base) for V in got.vertices] == \
                    [(V.z, V.standardizer, V.base) for V in verts]
                assert got.edges == edges


@pytest.mark.parametrize("token", FAMILIES)
def test_conjugated_support_decides_membership_for_every_conjugator(token):
    # u lies in g A_X g^-1 iff supp(g^-1 u g) is a subset of X, for any g,
    # not only the minimal standardizer that contains_element uses
    c = family(token)
    rng = random.Random(f"support-{token}")
    members = 0
    for _ in range(60):
        g = random_element(c, rng, 4)
        X = frozenset(rng.sample(range(c.rank), rng.randint(0, c.rank)))
        if rng.random() < 0.5 and X:
            word = [(s, rng.choice((1, -1))) for s in rng.choices(sorted(X), k=rng.randint(1, 5))]
            u = g * GroupElement.from_letters(c, word) * g.inverse()
        else:
            u = random_element(c, rng, 5)
        inside = support(u.conjugate_by(g)) <= X
        assert inside == contains_element(ParabolicSubgroup.from_conjugator(c, g, X), u)
        members += inside
    assert 0 < members < 60


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
                verdict = characterize_pair(P, Q)
                assert verdict.commute == (verdict.condition is not None)
                assert verdict.commute == z_commute(P, Q)


@pytest.mark.parametrize("token", ("A3", "A4", "B3"))
def test_disjoint_commuting_pairs_intersect_trivially(token):
    """characterize_pair proves a disjoint-commuting pair's intersection
    trivial through the centre; the bounded search finds nothing either."""
    c = ctx(token)
    vertices = [P for P in enumerate_parabolics(c, 1)
                if P.is_proper() and P.is_irreducible()]
    pairs = 0
    for P in vertices:
        for Q in vertices:
            if P != Q and characterize_pair(P, Q).condition is \
                    PairCondition.DISJOINT_COMMUTING:
                assert intersect(P, Q, 4)[0].is_trivial()
                pairs += 1
    assert pairs
