import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from garside import (
    GroupElement,
    ParabolicSubgroup,
    SummitKind,
    build_context,
    compute_summit_graph,
    conjugated_parabolic,
    contains_element,
    contains_subgroup,
    context_from_token,
    enumerate_parabolics,
    format_element,
    join_prefix,
    parabolic_closure,
    parabolic_equal,
    parse_word,
    phi,
    pn_normal_form,
    prefix_le,
    ribbon,
    support,
)
from garside import oracle, parabolic
from garside.conjugacy import cycle_to_max_inf, element_of_i_infinity
from garside.errors import ContextMismatch, GarsideError
from garside.lattice import _subsets
from garside.parabolic import central_element_of_standard

from conftest import FAMILIES, count_inits, ctx, family, random_element


def w(token, text):
    return parse_word(ctx(token), text)


def std(token, base):
    return ParabolicSubgroup.standard(ctx(token), frozenset(base))


# -------------------------------------------------------------------- ribbons


def test_ribbon_examples():
    a4 = ctx("A4")
    assert ribbon(a4, {0, 1}, 2) == w("A4", "s3 s2 s1")
    assert ribbon(a4, {0, 1}, 0).is_identity()
    assert ribbon(a4, {0}, 1) == w("A4", "s2 s1")


def test_ribbon_laws_small():
    for token in ("A3", "B2"):
        c = ctx(token)
        for mask in range(1, 1 << c.rank):
            x_set = frozenset(i for i in range(c.rank) if mask >> i & 1)
            for t in range(c.rank):
                r = ribbon(c, x_set, t)
                assert r.is_positive()
                if t in x_set:
                    assert r.is_identity()
                    continue
                # lcm characterization
                d_x = GroupElement.from_simple(c, c.delta_of(x_set))
                assert join_prefix(d_x, GroupElement.generator(c, t)) == d_x * r
                # X is carried into X + {t}
                allowed = {c.gens[s] for s in x_set | {t}}
                for s in x_set:
                    img = r.inverse() * GroupElement.generator(c, s) * r
                    assert img.is_positive() and img.sup() <= 1
                    assert img.simple_id() in allowed
                # t is the unique initial letter
                assert prefix_le(GroupElement.generator(c, t), r)
                for s in range(c.rank):
                    if s != t:
                        assert not prefix_le(GroupElement.generator(c, s), r)


# ---------------------------------------------------------- central elements


def test_z_examples():
    assert std("A4", {0, 1}).z == w("A4", "s1 s2 s1") ** 2
    assert std("A4", {2}).z == w("A4", "s3")
    assert std("B2", {0, 1}).z == w("B2", "s1 s2 s1 s2")
    g = w("A4", "s3")
    P = ParabolicSubgroup.from_conjugator(ctx("A4"), g, {0, 1})
    assert P.z == g * w("A4", "s1 s2 s1") ** 2 * g.inverse()


def test_z_is_conjugation_invariant_key():
    rng = random.Random(40)
    c = ctx("A3")
    for _ in range(25):
        x_set = frozenset(
            i for i in range(c.rank) if rng.random() < 0.6
        ) or frozenset({0})
        g1 = random_element(c, rng, 4)
        P = ParabolicSubgroup.from_conjugator(c, g1, x_set)
        # any element of P itself fixes the subgroup
        for member in P.generators()[:2] + [P.z]:
            assert parabolic_equal(P, conjugated_parabolic(P, member))
        # and an outside conjugation moves z exactly
        x = random_element(c, rng, 3)
        Q = conjugated_parabolic(P, x)
        assert Q.z == x.inverse() * P.z * x


def test_central_element_is_central_in_subgroup():
    for token, base in [("A4", {0, 1}), ("A4", {0, 2}), ("B3", {0, 1}),
                        ("A4", {0, 1, 2}), ("B3", {1, 2}), ("A4", {0, 2, 3})]:
        P = std(token, base)
        for g in P.generators():
            assert g * P.z == P.z * g


def test_parabolic_equal_examples():
    a2 = ctx("A2")
    assert not parabolic_equal(std("A2", {0}), std("A2", {1}))
    with pytest.raises(ContextMismatch):
        parabolic_equal(std("A2", {0}), std("A3", {0}))
    P = std("A2", {0, 1})
    assert parabolic_equal(
        P, conjugated_parabolic(P, parse_word(a2, "s1 s2 s1"))
    )


# ----------------------------------------------------------------- membership


def test_contains_element():
    assert contains_element(std("A4", {0, 1}), w("A4", "s1 s2^-1"))
    assert not contains_element(std("A4", {0, 1}), w("A4", "s3"))
    P = ParabolicSubgroup.from_conjugator(ctx("A4"), w("A4", "s3 s4^-1"), {0, 1})
    assert contains_element(P, P.z)
    assert contains_element(P, GroupElement.identity(ctx("A4")))
    for g in P.generators():
        assert contains_element(P, g * g) and contains_element(P, g.inverse())


# -------------------------------------------------------------- standardizer


def test_minimal_standardizer_examples():
    a2 = ctx("A2")
    P = ParabolicSubgroup.from_conjugator(a2, w("A2", "s1"), {1})
    b, base = P.standardizer, P.base
    assert b == w("A2", "s1") and base == frozenset({1})
    P = std("A3", {0, 2})
    assert (P.standardizer, P.base) == (GroupElement.identity(ctx("A3")), frozenset({0, 2}))


def test_minimal_standardizer_is_minimal():
    # no proper positive prefix of the standardizer standardizes the subgroup
    rng = random.Random(41)
    for token in ("A2", "A3"):
        c = ctx(token)
        for _ in range(20):
            x_set = frozenset(
                i for i in range(c.rank) if rng.random() < 0.5
            ) or frozenset({rng.randrange(c.rank)})
            P = ParabolicSubgroup.from_conjugator(c, random_element(c, rng, 3), x_set)
            b, base = P.standardizer, P.base
            assert conjugated_parabolic(P, b).is_standard()
            assert conjugated_parabolic(P, b).base == base
            # walk all strictly smaller positive prefixes
            prefixes = {GroupElement.identity(c)}
            frontier = [GroupElement.identity(c)]
            while frontier:
                cur = frontier.pop()
                for i in range(c.rank):
                    nxt = cur * GroupElement.generator(c, i)
                    if nxt != b and prefix_le(nxt, b) and nxt not in prefixes:
                        prefixes.add(nxt)
                        frontier.append(nxt)
            for p in prefixes:
                if p == b or (p.is_identity() and b.is_identity()):
                    continue
                assert not conjugated_parabolic(P, p).is_standard() or p == b


# ------------------------------------------------------------------- closure


def test_closure_examples():
    assert parabolic_equal(parabolic_closure(w("A4", "s1 s2")), std("A4", {0, 1}))
    a2 = ctx("A2")
    for k in (-2, 1, 3):
        assert parabolic_equal(
            parabolic_closure(GroupElement.delta_power(a2, k)),
            ParabolicSubgroup.full(a2),
        )
    g = w("A4", "s3")
    conj = parabolic_closure(g * w("A4", "s1 s2") * g.inverse())
    assert parabolic_equal(
        conj, ParabolicSubgroup.from_conjugator(ctx("A4"), g, {0, 1})
    )
    assert parabolic_closure(GroupElement.identity(a2)).is_trivial()


def test_closure_contains_element_and_is_conjugation_equivariant():
    rng = random.Random(42)
    for token in ("A2", "A3"):
        c = ctx(token)
        for _ in range(30):
            u = random_element(c, rng, 5)
            P = parabolic_closure(u)
            assert contains_element(P, u)
            x = random_element(c, rng, 3)
            assert parabolic_equal(
                parabolic_closure(u.conjugate_by(x)), conjugated_parabolic(P, x)
            )


def test_closure_of_powers_small():
    rng = random.Random(43)
    c = ctx("A2")
    for _ in range(20):
        u = random_element(c, rng, 4)
        if u.is_identity():
            continue
        P = parabolic_closure(u)
        for m in (-3, -2, -1, 2, 3):
            assert parabolic_equal(parabolic_closure(u**m), P)


# Elements for the closure properties: a Delta power times a word of one of
# three shapes, one per path of parabolic_closure.  A positive word closes on
# the positive path and a negative one on the negative path; a word times the
# inverse of a word of the same length has exponent sum 0, so neither it nor
# its inverse has a positive conjugate unless it is trivial: the i-infinity path.
_letters = hs.lists(hs.integers(0, 7), max_size=6)


@hs.composite
def closure_inputs(draw):
    c = family(draw(hs.sampled_from(FAMILIES)))
    shape = draw(hs.sampled_from(("positive", "negative", "exponent sum 0")))
    first = [(s % c.rank, 1) for s in draw(_letters)]
    u = GroupElement.from_letters(c, first)
    if shape == "negative":
        u = u.inverse()
    elif shape == "exponent sum 0":
        second = [(s % c.rank, 1) for s in draw(hs.lists(
            hs.integers(0, 7), min_size=len(first), max_size=len(first)))]
        u = u * GroupElement.from_letters(c, second).inverse()
    return u.shift(draw(hs.integers(-3, 3)))


@settings(max_examples=80, deadline=None, database=None)
@given(closure_inputs(), hs.sampled_from((1, 2, 3, -1, -2, -3)))
def test_closure_of_powers_and_inverse(u, m):
    P = parabolic_closure(u)
    assert contains_element(P, u)
    assert parabolic_equal(parabolic_closure(u.inverse()), P)
    if not u.is_identity():
        assert parabolic_equal(parabolic_closure(u**m), P)


@settings(max_examples=60, deadline=None, database=None)
@given(closure_inputs(), hs.lists(hs.tuples(hs.integers(0, 7), hs.sampled_from((1, -1))),
                                  max_size=4))
def test_closure_is_conjugation_equivariant(u, letters):
    c = u.ctx
    x = GroupElement.from_letters(c, [(s % c.rank, e) for s, e in letters])
    P = parabolic_closure(u)
    assert parabolic_equal(parabolic_closure(u.conjugate_by(x)), conjugated_parabolic(P, x))
    assert contains_element(conjugated_parabolic(P, x), u.conjugate_by(x))


LARGE = ("A6", "D6", "E6", "E7", "E8", "H4")


def _signed_word(c, rng, letters, length, sign):
    return GroupElement.from_letters(c, [(rng.choice(letters), sign) for _ in range(length)])


@pytest.mark.parametrize("token", LARGE)
def test_closure_theorems_on_planted_subgroups(token, monkeypatch):
    """In the large types, u = g w g^-1 with w a word in the letters of X lies
    in P = g A_X g^-1, so PC(u) lies in P; PC(u^2) = PC(u^-3) = PC(u), and
    PC(h^-1 u h) = h^-1 PC(u) h.  A positive w closes on the direct path or,
    conjugated, the positive one, a negative w on the direct or negative one,
    and a w of exponent sum 0 (a word times the inverse of one as long) has
    no positive or negative conjugate: the i-infinity path.  Every type
    reaches all four."""
    c = ctx(token)
    rng = random.Random(f"planted closures {token}")
    calls = []

    def counted(name, inner):
        def call(u):
            calls.append(name)
            return inner(u)
        return call

    monkeypatch.setattr(parabolic, "cycle_to_max_inf", counted("cycle", cycle_to_max_inf))
    monkeypatch.setattr(parabolic, "element_of_i_infinity",
                        counted("i-infinity", element_of_i_infinity))
    paths = {}
    everything = list(range(c.rank))
    for i in range(60):
        X = rng.sample(everything, rng.randint(2, 4))
        n = rng.randint(1, 4)
        w = _signed_word(c, rng, X, n, 1)
        if i % 3 == 1:
            w = w.inverse()
        elif i % 3 == 2:
            w = w * _signed_word(c, rng, X, n, 1).inverse()
        if w.is_identity():
            continue
        g = GroupElement.from_letters(
            c, [(rng.randrange(c.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))])
        P = ParabolicSubgroup.from_conjugator(c, g, X)
        u = w.conjugate_by(g.inverse())
        calls.clear()
        closure = parabolic_closure(u)
        path = ("i-infinity" if "i-infinity" in calls
                else ("direct", "positive", "negative")[len(calls)])
        paths[path] = paths.get(path, 0) + 1
        assert contains_element(closure, u) and contains_subgroup(P, closure), (i, path)
        assert parabolic_equal(parabolic_closure(u**2), closure), (i, path)
        assert parabolic_equal(parabolic_closure(u**-3), closure), (i, path)
        h = GroupElement.from_letters(
            c, [(rng.randrange(c.rank), rng.choice((1, -1))) for _ in range(rng.randint(1, 3))])
        assert parabolic_equal(parabolic_closure(u.conjugate_by(h)),
                               conjugated_parabolic(closure, h)), (i, path)
    assert set(paths) == {"direct", "positive", "negative", "i-infinity"}, paths


@pytest.mark.parametrize("token", LARGE)
def test_inclusion_is_membership_of_the_central_element(token):
    """P subseteq Q iff z_P lies in Q, both ways round, against the oracle's
    word-level inclusion test on the generators: P = gh A_X (gh)^-1 and
    Q = g A_Y g^-1 with X inside Y, so P lies in Q iff h A_X h^-1 lies in
    A_Y, which a short h keeps or breaks."""
    c = ctx(token)
    rng = random.Random(f"planted inclusions {token}")
    seen = set()
    for _ in range(40):
        Y = rng.sample(range(c.rank), rng.randint(2, c.rank - 1))
        X = rng.sample(Y, rng.randint(1, len(Y)))
        g, h = (GroupElement.from_letters(
            c, [(rng.randrange(c.rank), rng.choice((1, -1))) for _ in range(rng.randint(0, n))])
            for n in (3, 2))
        P = ParabolicSubgroup.from_conjugator(c, g * h, X)
        Q = ParabolicSubgroup.from_conjugator(c, g, Y)
        for forward, (small, big) in ((True, (P, Q)), (False, (Q, P))):
            inside = contains_element(big, small.z)
            assert inside == contains_subgroup(big, small) == oracle._includes(big, small), \
                (X, Y, format_element(g), format_element(h))
            seen.add((forward, inside))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}, seen


@pytest.mark.parametrize("token", FAMILIES)
def test_closure_paths(token, monkeypatch):
    """Each input takes the path its shape predicts: positive and negative
    elements and the identity are read off their support without cycling,
    the negative path agrees with the i-infinity path it skips, and a
    conjugate of a positive element is found by cycling."""
    c = family(token)
    i_infinity_calls = []
    cycle_calls = []

    def counted(u):
        i_infinity_calls.append(u)
        return element_of_i_infinity(u)

    def counted_cycle(u):
        cycle_calls.append(u)
        return cycle_to_max_inf(u)

    monkeypatch.setattr(parabolic, "element_of_i_infinity", counted)
    monkeypatch.setattr(parabolic, "cycle_to_max_inf", counted_cycle)
    conjugate = parse_word(c, "s2^-1 s1 s2")
    assert not conjugate.is_positive() and cycle_to_max_inf(conjugate)[0].is_positive()
    cases = [
        (parse_word(c, "s1 s2"), "positive"),
        (GroupElement.delta_power(c, 2), "positive"),
        (parse_word(c, "s1^-1 s2^-1 s1^-1"), "negative"),
        (GroupElement.delta_power(c, -3), "negative"),
        (GroupElement.identity(c), "identity"),
        (conjugate, "positive conjugate"),
        (parse_word(c, "s1 s2^-1"), "i-infinity"),
        (parse_word(c, "s2 s1 s1 s2^-1 s1^-1 s2^-1"), "i-infinity"),
    ]
    for u, path in cases:
        i_infinity_calls.clear()
        cycle_calls.clear()
        P = parabolic_closure(u)
        assert contains_element(P, u)
        assert i_infinity_calls == ([u] if path == "i-infinity" else [])
        if path in ("positive", "negative", "identity"):
            assert cycle_calls == []
        else:
            assert cycle_calls
        if path == "negative":
            beta, conj, _ = element_of_i_infinity(u)
            assert parabolic_equal(
                P, ParabolicSubgroup.from_conjugator(c, conj, support(beta)))


def _reference_closure(u):
    """parabolic_closure without its direct path: cycle u, cycle u^-1, then
    the element of i-infinity."""
    ctx = u.ctx
    if u.is_identity():
        return ParabolicSubgroup.trivial(ctx)
    beta, conj = cycle_to_max_inf(u)
    if not beta.is_positive():
        beta, conj = cycle_to_max_inf(u.inverse())
    if not beta.is_positive():
        beta, conj, _ = element_of_i_infinity(u)
    return ParabolicSubgroup.from_conjugator(ctx, conj, support(beta))


@pytest.mark.parametrize("token", FAMILIES + ("A5", "D5"))
def test_direct_closure_is_the_cycling_closure(token):
    """Positive and negative elements, Delta powers, the identity and positive
    words shifted down by Delta^k close on the very object that the cycling
    paths build."""
    c = family(token)
    rng = random.Random(f"direct closure {token}")
    positives = [random_element(c, rng, 10, signed=False) for _ in range(20)]
    cases = positives + [p.inverse() for p in positives]
    cases += [GroupElement.delta_power(c, k) for k in range(-3, 4)]
    cases += [p.shift(-k) for p in positives for k in (1, 2, 3)]
    for u in cases:
        P = parabolic_closure(u)
        assert P is _reference_closure(u), format_element(u)


def test_retained_closures_are_small():
    """A non-standard closure keeps two elements and the context's interned
    base set: 300 retained A3 closures stay under 400 bytes each.  Closures
    are interned, one live object per central element."""
    c = ctx("A3")
    assert parabolic_closure(w("A3", "s1 s2")) is parabolic_closure(w("A3", "s2^-1 s1^-1"))
    rng = random.Random(9)
    us = []
    while len(us) < 300:
        u = random_element(c, rng, 6).conjugate_by(random_element(c, rng, 3))
        if not parabolic_closure(u).is_standard():  # also fills the memo tables
            us.append(u)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [parabolic_closure(u) for u in us]
        gc.collect()
        per_closure = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_closure < 400, per_closure


def test_context_is_freed_without_cycle_collection():
    """Interned subgroups are held weakly under plain-tuple keys, standard
    central elements are memoized as plain tuples and the step table holds
    plain ints: closures, enumerations and summit graphs leave no reference
    cycle through the context."""
    c = context_from_token("A3")
    ref = weakref.ref(c)
    kept = [parabolic_closure(parse_word(c, t)) for t in ("s1 s2", "s2^-1 s1^-1", "s1 s2^-1")]
    kept += enumerate_parabolics(c, 1)
    kept.append(ParabolicSubgroup.from_conjugator(c, parse_word(c, "s2 s3^-1"), {0, 1}))
    graph = compute_summit_graph(parse_word(c, "s1 s2^-1 s3"), SummitKind.USS)
    memo = c.memo["standard z"]
    assert memo and all(type(v) is tuple for v in memo.values())
    live = c.memo["subgroups"]
    assert len(live) == len(set(kept))
    assert all(type(k) is tuple and type(k[1]) is tuple
               and {type(x) for x in (k[0], *k[1])} == {int} for k in live.keys())
    steps = [row for table in (c._step_rows, c._step_tails) for row in table if row is not None]
    assert steps and all({type(k), type(v)} == {int} for row in steps for k, v in row.items())
    del memo, live, steps
    gc.disable()
    try:
        del c, kept, graph
        assert ref() is None
    finally:
        gc.enable()


def _build(z):
    """The fields of the subgroup with central element z, computed without
    the live table: the pn cut b, the support of b^-1 z b, and z."""
    b = pn_normal_form(z).negative
    return b, support(z.conjugate_by(b)), z


@pytest.mark.parametrize("token", FAMILIES)
def test_interned_subgroups_match_a_fresh_build(token):
    c = family(token)
    rng = random.Random(71)
    bases = _subsets(c)
    kept = []  # every subgroup stays live, so later builds can hit the table
    for _ in range(80):
        z = central_element_of_standard(c, rng.choice(bases)).conjugate_by(
            random_element(c, rng, 4))
        P = ParabolicSubgroup.from_central_element(c, z)
        kept.append(P)
        assert (P.standardizer, P.base, P.z) == _build(z)
    assert len({P.base for P in kept}) < len(set(kept))


@pytest.mark.parametrize("token", FAMILIES)
def test_conjugators_of_one_subgroup_give_one_object(token):
    """g A_X g^-1 = (g t) A_X (g t)^-1 when t normalizes A_X: the second
    build, and every other route to the subgroup, returns the same object."""
    c = family(token)
    rng = random.Random(72)
    for X in _subsets(c):
        normalizing = [t for t in range(c.rank)
                       if t in X or all(c.spec.m(t, s) == 2 for s in X)]
        for _ in range(4):
            g = random_element(c, rng, 4)
            t = GroupElement.from_letters(
                c, [(rng.choice(normalizing), rng.choice((1, -1))) for _ in range(3)])
            P = ParabolicSubgroup.from_conjugator(c, g, X)
            assert ParabolicSubgroup.from_conjugator(c, g * t, X) is P
            assert ParabolicSubgroup.from_central_element(
                c, GroupElement(c, P.z.power, P.z.factors, normalized=True)) is P
            x = random_element(c, rng, 3)
            assert conjugated_parabolic(P, x) is ParabolicSubgroup.from_conjugator(
                c, x.inverse() * g, X)
            if X:
                assert parabolic_closure(P.z) is P
        assert ParabolicSubgroup.from_conjugator(c, GroupElement.identity(c), X) \
            is ParabolicSubgroup.standard(c, X)
    assert ParabolicSubgroup.trivial(c) is ParabolicSubgroup.standard(c, ())
    assert ParabolicSubgroup.full(c) is ParabolicSubgroup.standard(c, range(c.rank))


@pytest.mark.parametrize("token", FAMILIES)
def test_invalid_central_elements_raise(token):
    """z_X s (s in X), z_X^2 and their conjugates define no subgroup, whether
    or not a valid subgroup of the same base is live.  (A generator s is the
    valid central element of A_{s}.)"""
    c = build_context(family(token).spec)  # fresh: nothing is live yet
    rng = random.Random(73)
    invalid = []
    for X in _subsets(c)[1:]:
        z_X = central_element_of_standard(c, X)
        g = random_element(c, rng, 3)
        for z in [z_X * GroupElement.generator(c, s) for s in sorted(X)] + [z_X * z_X]:
            invalid += [z, z.conjugate_by(g)]

    def all_raise():
        for z in invalid:
            with pytest.raises(GarsideError):
                ParabolicSubgroup.from_central_element(c, z)

    all_raise()
    held = [ParabolicSubgroup.from_conjugator(c, g, X) for X in _subsets(c)
            for g in (GroupElement.identity(c), random_element(c, rng, 3))]
    all_raise()
    assert len(c.memo["subgroups"]) == len(set(held))


def test_z_closure_fixed_point():
    rng = random.Random(44)
    for token in ("A3", "B2"):
        c = ctx(token)
        for _ in range(15):
            x_set = frozenset(
                i for i in range(c.rank) if rng.random() < 0.5
            )
            P = ParabolicSubgroup.from_conjugator(c, random_element(c, rng, 3), x_set)
            assert parabolic_equal(parabolic_closure(P.z), P) or P.is_trivial()


def test_phi():
    assert phi(w("A4", "s1 s2")) == 3
    assert phi(w("A4", "s3")) == 1
    assert phi(GroupElement.delta_power(ctx("A2"), 1)) == 3
    assert phi(GroupElement.identity(ctx("A4"))) == 0
    # well-defined across conjugation
    rng = random.Random(45)
    c = ctx("A3")
    for _ in range(20):
        u = random_element(c, rng, 4)
        x = random_element(c, rng, 3)
        assert phi(u) == phi(u.conjugate_by(x))


def test_commutation_transfer_between_central_elements():
    # z_P and z_Q commute exactly when some (hence any) nonzero powers do
    rng = random.Random(46)
    c = ctx("A3")
    pairs = 0
    for _ in range(40):
        P = ParabolicSubgroup.from_conjugator(
            c, random_element(c, rng, 2),
            frozenset(i for i in range(c.rank) if rng.random() < 0.5) or frozenset({0}),
        )
        Q = ParabolicSubgroup.from_conjugator(
            c, random_element(c, rng, 2),
            frozenset(i for i in range(c.rank) if rng.random() < 0.5) or frozenset({1}),
        )
        base = P.z * Q.z == Q.z * P.z
        for m, n in ((1, 2), (2, 2), (-1, 3), (2, -3)):
            zp, zq = P.z**m, Q.z**n
            assert (zp * zq == zq * zp) == base
        pairs += 1
    assert pairs == 40


def test_normalizer_equals_z_centralizer_spot_check():
    rng = random.Random(47)
    for token in ("A2", "A3"):
        c = ctx(token)
        for _ in range(25):
            P = ParabolicSubgroup.from_conjugator(
                c, random_element(c, rng, 2),
                frozenset(i for i in range(c.rank) if rng.random() < 0.5)
                or frozenset({0}),
            )
            x = random_element(c, rng, 4)
            normalizes = parabolic_equal(conjugated_parabolic(P, x), P)
            centralizes = x * P.z == P.z * x
            assert normalizes == centralizes


def test_roots_stay_in_parabolic_small():
    # if beta^m lies in P then so does beta (checked on constructed instances)
    c = ctx("A3")
    rng = random.Random(48)
    for _ in range(25):
        beta = random_element(c, rng, 4)
        if beta.is_identity():
            continue
        m = rng.choice([-3, -2, 2, 3])
        P = parabolic_closure(beta**m)
        assert contains_element(P, beta)


def test_subgroup_serialization():
    P = ParabolicSubgroup.from_conjugator(ctx("A2"), w("A2", "s1"), {1})
    data = P.to_json()
    assert data == {
        "standardizer": "s1",
        "base": [2],
        "z": {"deltaPower": -1, "factors": [[2, 1], [1, 2]]},
    }


def test_reducible_central_element():
    # disjoint union base: z is the product of the component data, squared
    # when any component is non-central
    c = ctx("A4")
    z = central_element_of_standard(c, frozenset({0, 2, 3}))
    d = GroupElement.from_simple(c, c.delta_of(frozenset({0, 2, 3})))
    assert z == d * d
    z2 = central_element_of_standard(c, frozenset({0, 2}))
    d2 = GroupElement.from_simple(c, c.delta_of(frozenset({0, 2})))
    assert z2 == d2


# --------------------------------- constructors from z, against the code before
# Each subgroup is now built from its central element; the helpers below are
# the builds they replaced, through the conjugator and one product per step.


def _conjugated_by_conjugator(P, x):
    return ParabolicSubgroup.from_conjugator(P.ctx, x.inverse() * P.standardizer, P.base)


def _generators_by_products(P):
    b = P.standardizer
    return [b * GroupElement.generator(P.ctx, s) * b.inverse() for s in sorted(P.base)]


def _fields(P):
    return P.z, P.standardizer, P.base


def _seeded_subgroups(c, rng, n):
    for _ in range(n):
        X = frozenset(i for i in range(c.rank) if rng.random() < 0.5)
        yield ParabolicSubgroup.from_conjugator(c, random_element(c, rng, 3), X)


@pytest.mark.parametrize("token", FAMILIES)
def test_conjugated_parabolic_matches_conjugator_build(token):
    c = family(token)
    rng = random.Random(49)
    for P in _seeded_subgroups(c, rng, 25):
        x = random_element(c, rng, 3)
        assert _fields(conjugated_parabolic(P, x)) == _fields(_conjugated_by_conjugator(P, x))


@pytest.mark.parametrize("token", FAMILIES)
def test_standard_matches_identity_conjugator_build(token):
    c = family(token)
    one = GroupElement.identity(c)
    for mask in range(1 << c.rank):
        X = frozenset(i for i in range(c.rank) if mask >> i & 1)
        P = ParabolicSubgroup.standard(c, X)
        assert ParabolicSubgroup.from_conjugator(c, one, X) is P
        assert _fields(P) == (central_element_of_standard(c, X), one, X)


@pytest.mark.parametrize("token", FAMILIES)
def test_standard_is_the_central_element_build_for_any_iterable(token):
    c = family(token)
    for X in _subsets(c):
        P = ParabolicSubgroup.from_central_element(c, central_element_of_standard(c, X))
        for given in (X, sorted(X), set(X)):
            assert ParabolicSubgroup.standard(c, given) is P, sorted(given)


@pytest.mark.parametrize("token", FAMILIES)
def test_standard_hits_and_direct_closures_build_no_element(token, monkeypatch):
    c = family(token)
    rng = random.Random(f"no element {token}")
    positives = [random_element(c, rng, 10, signed=False) for _ in range(10)]
    direct = positives + [p.inverse() for p in positives]
    kept = [ParabolicSubgroup.standard(c, X) for X in _subsets(c)]
    kept += [parabolic_closure(u) for u in direct]
    built = count_inits(monkeypatch)
    for X, P in zip(_subsets(c), kept):
        assert ParabolicSubgroup.standard(c, X) is P
    for u, P in zip(direct, kept[len(_subsets(c)):]):
        assert parabolic_closure(u) is P
    assert not built


def test_standard_rebuilds_a_freed_subgroup():
    # The live table holds subgroups weakly: once the last one is gone, a
    # standard lookup misses and builds it again, here from a list.
    c = context_from_token("A3")
    live = c.memo.setdefault("subgroups", weakref.WeakValueDictionary())
    P = ParabolicSubgroup.standard(c, [0, 2])
    key = (P.z.power, P.z.factors)
    assert live[key] is P
    del P
    gc.collect()
    assert key not in live
    Q = ParabolicSubgroup.standard(c, [2, 0])
    assert live[key] is Q
    assert _fields(Q) == (central_element_of_standard(c, {0, 2}), GroupElement.identity(c),
                          frozenset({0, 2}))
    assert Q.is_standard() and Q.generators() == [parse_word(c, "s1"), parse_word(c, "s3")]


@pytest.mark.parametrize("token", FAMILIES)
def test_generators_match_two_products(token):
    c = family(token)
    rng = random.Random(51)
    for P in _seeded_subgroups(c, rng, 25):
        assert P.generators() == _generators_by_products(P)
