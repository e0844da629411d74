import random
from functools import reduce
from operator import mul

import pytest

from garside import (
    CoxeterSpec,
    GarsideStructure,
    GroupElement,
    build_context,
    complement,
    format_element,
    join_prefix,
    join_suffix,
    left_normal_form,
    meet_prefix,
    meet_suffix,
    np_normal_form,
    parse_element,
    parse_word,
    pn_normal_form,
    prefix_le,
    ribbon,
    simple_times_letter_rewrite,
    suffix_le,
    support,
)
from garside import elements
from garside.coxeter import GroupContext
from garside.elements import _normalize, format_signed_word
from garside.errors import ContextMismatch, NotSimple, ParseError
from garside.oracle import meet_oracle

from conftest import FAMILIES, ctx, family, random_element, random_word


def w(token, text):
    return parse_word(ctx(token), text)


# ----------------------------------------------------------------- arithmetic


def test_defining_relations():
    assert w("A2", "s1 s2 s1") == w("A2", "s2 s1 s2")
    assert w("B2", "s1 s2 s1 s2") == w("B2", "s2 s1 s2 s1")
    assert w("A4", "s1 s3") == w("A4", "s3 s1")
    assert w("A2", "s1 s1^-1").is_identity()


def test_group_axioms_sampled():
    rng = random.Random(11)
    for token in ("A2", "A3", "B2", "I2(5)"):
        c = ctx(token)
        for _ in range(60):
            a = random_element(c, rng, 5)
            b = random_element(c, rng, 5)
            d = random_element(c, rng, 5)
            assert (a * b) * d == a * (b * d)
            assert (a * a.inverse()).is_identity()
            assert (a * b).inverse() == b.inverse() * a.inverse()


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatch):
        w("A2", "s1") * w("A3", "s1")
    with pytest.raises(ContextMismatch):
        meet_prefix(w("A2", "s1"), w("A3", "s1"))


# --------------------------------------------------------------- normal forms


def test_normal_form_examples():
    u = w("A2", "s2 s1 s1 s2")
    assert u.power == 0
    assert u.factor_words() == ((1, 0), (0, 1))
    assert w("A2", "s1 s2 s1") == GroupElement.delta_power(ctx("A2"), 1)
    v = w("A2", "s1 s2 s2")
    assert v.factor_words() == ((0, 1), (1,))


def test_normal_form_uniqueness_under_reshuffling():
    # Rebuild the same element from arbitrary split points and permuted
    # bracketings; the stored form must come out identical.
    rng = random.Random(5)
    for token in ("A2", "A3", "B2"):
        c = ctx(token)
        for _ in range(40):
            u = random_element(c, rng, 7)
            letters = u.as_signed_word()
            cut = rng.randint(0, len(letters))
            rebuilt = (
                GroupElement.from_letters(c, letters[:cut])
                * GroupElement.from_letters(c, letters[cut:])
            )
            assert rebuilt.power == u.power and rebuilt.factors == u.factors


def test_left_greedy_condition_holds():
    rng = random.Random(6)
    for token in ("B2",) + FAMILIES:
        c = family(token)
        for _ in range(50):
            u = random_element(c, rng, 8)
            for x, y in zip(u.factors, u.factors[1:]):
                # left descents of the next factor must finish the previous one
                assert not c.ldescs[y] & ~c.rdescs[x]
            for f in u.factors:
                assert f not in (c.identity, c.delta)


def _fixpoint_normalize(c, power, factors):
    """Reference left normal form: repeat full left-to-right passes, making
    each adjacent pair left-weighted, until nothing changes."""
    fs = [f for f in factors if f != c.identity]
    changed = True
    while changed:
        changed = False
        for i in range(len(fs) - 1):
            x, y = fs[i], fs[i + 1]
            if y == c.identity:
                continue
            d = c.w_meet(c.w_rcomp(x), y)
            if d != c.identity:
                fs[i] = c.w_mul(x, d)
                fs[i + 1] = c.w_mul(c.w_inv(d), y)
                changed = True
        if changed:
            fs = [f for f in fs if f != c.identity]
    k = 0
    while k < len(fs) and fs[k] == c.delta:
        k += 1
    return power + k, tuple(fs[k:])


@pytest.mark.parametrize("token", FAMILIES + ("E6",))
def test_one_sweep_normalize_matches_fixpoint_oracle(token):
    # Up to 20 factors, so that one list forms and hoists several Deltas and
    # twists the factors before each; E6 adds one more family with tau != 1.
    c = family(token)
    elements = c.all_elements()
    rng = random.Random(f"one-sweep/{token}")
    for _ in range(300):
        # identity and Delta entries anywhere, the rest arbitrary simples
        factors = tuple(
            rng.choice((c.identity, c.delta)) if rng.random() < 0.25 else rng.choice(elements)
            for _ in range(rng.randint(0, 20))
        )
        power = rng.randint(-3, 3)
        assert _normalize(c, power, factors) == _fixpoint_normalize(c, power, factors)


@pytest.mark.parametrize("token", ["A3", "I2(5)", "B3"])
def test_delta_formed_mid_sweep_joins_the_power_at_once(token, monkeypatch):
    # a_1 ... a_k x rcomp(x) = a_1 ... a_k Delta = Delta tau(a_1) ... tau(a_k):
    # the sweep forms Delta at position k with one meet, and the factors
    # before it are twisted, not left-weighted against it one pair at a time.
    c = family(token)
    rng = random.Random(f"hoist/{token}")
    simples = [a for a in c.all_elements() if a not in (c.identity, c.delta)]
    chain = [rng.choice(simples)]
    while len(chain) < 13:  # a left-weighted chain
        chain.append(rng.choice([b for b in simples if not c.ldescs[b] & ~c.rdescs[chain[-1]]]))
    meets = []
    inner = GroupContext.w_meet

    def counted(self, a, b):
        meets.append((a, b))
        return inner(self, a, b)

    monkeypatch.setattr(GroupContext, "w_meet", counted)
    counts = set()
    for k in (2, 6, 12):
        x = chain[k]
        factors = chain[:k] + [x, c.w_rcomp(x)]
        meets.clear()
        out = _normalize(c, 0, factors)
        counts.add(len(meets))
        assert out == (1, tuple(c.w_tau_pow(a, 1) for a in chain[:k]))
        assert out == _fixpoint_normalize(c, 0, factors)
    assert len(counts) == 1


@pytest.mark.parametrize("token", FAMILIES)
def test_hoists_twist_each_factor_once(token, monkeypatch):
    # Each round forms a Delta mid-sweep (x rcomp(x) = Delta) and appends
    # one, so it hoists two; a last Delta leaves the prefix twisted once.
    # However many rounds, each factor of the result is twisted once, not
    # once per hoist.
    c = family(token)
    rng = random.Random(f"twist/{token}")
    simples = [a for a in c.all_elements() if a not in (c.identity, c.delta)]
    chain = [rng.choice(simples)]
    while len(chain) < 13:  # a left-weighted chain
        chain.append(rng.choice([b for b in simples if not c.ldescs[b] & ~c.rdescs[chain[-1]]]))
    prefix, x = chain[:12], chain[12]
    expected = tuple(c.w_tau(a) for a in prefix)
    calls = []
    inner = GroupContext.w_tau

    def counted(self, a):
        calls.append(a)
        return inner(self, a)

    monkeypatch.setattr(GroupContext, "w_tau", counted)
    for rounds in (1, 2, 5):
        factors = prefix + [x, c.w_rcomp(x), c.delta] * rounds + [c.delta]
        calls.clear()
        power, out = _normalize(c, 0, factors)
        assert len(calls) == (len(prefix) if c.tau_order == 2 else 0), rounds
        assert (power, out) == (2 * rounds + 1, expected)
        assert (power, out) == _fixpoint_normalize(c, 0, factors)


@pytest.mark.parametrize("token", FAMILIES)
def test_inverse_is_already_normal(token):
    c = family(token)
    rng = random.Random(f"inverse/{token}")
    for _ in range(60):
        v = random_element(c, rng, 10).inverse()
        assert _normalize(c, v.power, v.factors) == (v.power, v.factors)
        assert v * v.inverse() == GroupElement.identity(c)


def _sample_elements(c, rng, count):
    """Seeded elements: signed words (some inverted), Delta powers and the identity."""
    out = []
    for _ in range(count):
        r = rng.random()
        if r < 0.15:
            out.append(GroupElement.delta_power(c, rng.randint(-3, 3)))
        elif r < 0.25:
            out.append(GroupElement.identity(c))
        else:
            u = random_element(c, rng, 8)
            out.append(u.inverse() if rng.random() < 0.3 else u)
    return out


@pytest.mark.parametrize("token", FAMILIES)
def test_product_matches_chained_multiplication(token):
    c = family(token)
    identity = GroupElement.identity(c)
    rng = random.Random(f"product/{token}")
    assert elements._product(c, []) == identity
    for _ in range(80):
        xs = _sample_elements(c, rng, rng.randint(0, 7))
        expected = reduce(mul, xs, identity)
        assert elements._product(c, xs) == expected
        assert elements._product(c, tuple(xs)) == expected


def _letter_by_letter(c, letters):
    """The product loop `from_letters` used before it normalized once."""
    out = GroupElement.identity(c)
    for i, sign in letters:
        g = GroupElement.generator(c, i)
        out = out * (g if sign > 0 else g.inverse())
    return out


@pytest.mark.parametrize("token", FAMILIES)
def test_from_letters_matches_letter_by_letter_products(token):
    c = family(token)
    rng = random.Random(f"letters/{token}")
    for _ in range(60):
        letters = [(rng.randrange(c.rank), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 20))]
        expected = _letter_by_letter(c, letters)
        assert GroupElement.from_letters(c, letters) == expected
        assert GroupElement.from_letters(c, iter(letters)) == expected
    for bad in (c.rank, -1):
        with pytest.raises(ParseError):
            GroupElement.from_letters(c, [(0, 1), (bad, 1)])


def _one_factor_per_letter(c, letters):
    """The signed word as one generator or inverse per letter, normalized
    once by `_product`."""
    parts = []
    for i, sign in letters:
        g = GroupElement.generator(c, i)
        parts.append(g if sign > 0 else g.inverse())
    return elements._product(c, parts)


@pytest.mark.parametrize("token", FAMILIES)
def test_parse_word_matches_one_factor_per_letter(token):
    c = family(token)
    rng = random.Random(f"runs/{token}")
    delta_word = [(s, 1) for s in c.w_word(c.delta)]
    inverse_delta_word = [(s, -1) for s, _ in delta_word[::-1]]
    words = [
        [], [(0, 1), (0, 1)], [(0, -1), (0, -1)], [(0, 1), (0, -1)], [(0, -1), (0, 1)],
        [(1, 1), (0, 1), (0, -1), (1, -1)],
        delta_word, delta_word * 2, inverse_delta_word, inverse_delta_word * 2,
        delta_word + inverse_delta_word, inverse_delta_word + [(0, 1)] + delta_word,
    ]
    for _ in range(60):
        words.append([(rng.randrange(c.rank), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 40))])
        # Long same-sign stretches, so that runs end at descents.
        sign = rng.choice((1, -1))
        words.append([(rng.randrange(c.rank), sign) for _ in range(rng.randint(1, 30))])
    for letters in words:
        expected = _one_factor_per_letter(c, letters)
        assert parse_word(c, format_signed_word(letters)) == expected, letters
        assert GroupElement.from_letters(c, letters) == expected, letters
    assert parse_word(c, "") == GroupElement.identity(c)
    assert parse_word(c, "s1 s1^-1") == GroupElement.identity(c)
    for text in (f"s{c.rank + 1}", f"s1 s{c.rank + 1}^-1", "s0"):
        with pytest.raises(ParseError):
            parse_word(c, text)
    for bad in (c.rank, -1):
        with pytest.raises(ParseError):
            GroupElement.from_letters(c, [(0, -1), (bad, -1)])


@pytest.mark.parametrize("token", FAMILIES)
def test_power_matches_repeated_products(token):
    c = family(token)
    identity = GroupElement.identity(c)
    rng = random.Random(f"power/{token}")
    for u in _sample_elements(c, rng, 30):
        for m in range(-4, 5):
            base = u if m >= 0 else u.inverse()
            assert u ** m == reduce(mul, [base] * abs(m), identity)


@pytest.mark.parametrize("token", FAMILIES)
def test_reverse_matches_two_step_formula(token):
    c = family(token)
    rng = random.Random(f"reverse/{token}")
    xs = _sample_elements(c, rng, 60)
    for u, v in zip(xs, xs[1:]):
        two_step = GroupElement(
            c, 0, tuple(c.w_inv(f) for f in reversed(u.factors))
        ) * GroupElement.delta_power(c, u.power)
        assert u.reverse() == two_step
        assert u.reverse().reverse() == u
        assert (u * v).reverse() == v.reverse() * u.reverse()
        assert GroupElement.from_letters(c, u.as_signed_word()[::-1]) == u.reverse()


def _reduced_runs(c, letters):
    """How many maximal same-sign runs that stay reduced in W a signed word
    splits into, read greedily from the left by lengths."""
    runs, sign, run = 0, 0, c.identity
    for i, e in letters:
        g = c.gens[i]
        longer = c.w_mul(run, g) if e > 0 else c.w_mul(g, run)
        if e == sign and c.lengths[longer] > c.lengths[run]:
            run = longer
        else:
            runs, sign, run = runs + 1, e, g
    return runs


@pytest.mark.parametrize("token", FAMILIES)
def test_one_normalization_per_word_power_and_reverse(token, monkeypatch):
    # Wraps _normalize the way perfbench/tracer.py does.  A parsed word
    # reaches it as one simple factor per reduced same-sign run.
    c = family(token)
    calls = []
    inner = elements._normalize

    def counted(*args):
        calls.append(len(args[2]))
        return inner(*args)

    monkeypatch.setattr(elements, "_normalize", counted)
    rng = random.Random(f"count/{token}")
    letters = [(rng.randrange(c.rank), rng.choice((1, -1))) for _ in range(120)]
    u = parse_word(c, format_signed_word(letters))
    runs = _reduced_runs(c, letters)
    assert runs < 120
    assert calls == [runs]
    for op in (lambda: u ** 5, lambda: u ** -5, u.reverse):
        calls.clear()
        op()
        assert len(calls) == 1


@pytest.mark.parametrize("token", FAMILIES)
def test_structure_factors_match_multiplied_blocks(token):
    c = family(token)
    rng = random.Random(f"blocks/{token}")
    for _ in range(40):
        u = random_element(c, rng, 10)
        for n in (1, 2, 3):
            st = GarsideStructure(c, n)
            padded = [GroupElement.delta_power(c, 1)] * (u.power - n * st.inf(u)) + [
                GroupElement.from_simple(c, f) for f in u.factors
            ]
            expected = []
            for i in range(0, len(padded), n):
                block = GroupElement.identity(c)
                for piece in padded[i:i + n]:
                    block = block * piece
                expected.append(block)
            blocks = st.factors(u)
            assert blocks == expected
            assert all(st.is_simple(b) for b in blocks)


@pytest.mark.parametrize("token", FAMILIES)
def test_descent_sets_match_permutation_definition(token):
    # s is a right descent of w when w sends the simple root of s to a
    # negative root, and a left descent when w^-1 does.
    c = family(token)
    n = c.num_positive
    for a in c.all_elements():
        perm = c._perms[a]
        right = {s for s in range(c.rank) if perm[s] >= n}
        left = {s for s in range(c.rank) if perm.index(s) >= n}
        assert c.mask_set(c.rdescs[a]) == right
        assert c.mask_set(c.ldescs[a]) == left


def test_inf_sup_extremality():
    rng = random.Random(7)
    for token in ("A2", "B2"):
        c = ctx(token)
        for _ in range(30):
            u = random_element(c, rng, 5)
            p, q = u.inf(), u.sup()
            assert prefix_le(GroupElement.delta_power(c, p), u)
            assert not prefix_le(GroupElement.delta_power(c, p + 1), u)
            assert prefix_le(u, GroupElement.delta_power(c, q))
            assert not prefix_le(u, GroupElement.delta_power(c, q - 1))


def test_word_parsing_errors():
    with pytest.raises(ParseError):
        parse_word(ctx("A2"), "s3")
    with pytest.raises(ParseError):
        parse_word(ctx("A2"), "x1")
    with pytest.raises(ParseError):
        parse_word(ctx("A2"), "s1^2")


def test_format_parse_round_trip():
    rng = random.Random(8)
    for token in ("A2", "A3"):
        c = ctx(token)
        for _ in range(40):
            u = random_element(c, rng, 6)
            assert parse_element(c, format_element(u)) == u
            assert GroupElement.from_letters(c, u.as_signed_word()) == u


# -------------------------------------------------------- Delta^N structures


def test_structure_views():
    c = ctx("A2")
    st2 = GarsideStructure(c, 2)
    u = w("A2", "s2 s1 s1 s2")
    form = st2.canonical_form(u)
    assert form.delta_power == 0
    assert form.factor_words == ((1, 0, 0, 1),)
    assert st2.is_simple(u)
    assert not GarsideStructure(c, 1).is_simple(u)
    form1 = left_normal_form(c, "s2 s1 s1 s2")
    assert form1.text() == "Δ^0 · (s2 s1)(s1 s2)"
    assert form1.to_json() == {"deltaPower": 0, "factors": [[2, 1], [1, 2]]}


def test_structure_inf_sup():
    c = ctx("A2")
    rng = random.Random(9)
    for _ in range(40):
        u = random_element(c, rng, 6)
        for n in (1, 2, 3):
            st = GarsideStructure(c, n)
            p, q = st.inf(u), st.sup(u)
            assert prefix_le(GroupElement.delta_power(c, n * p), u)
            assert not prefix_le(GroupElement.delta_power(c, n * (p + 1)), u)
            assert prefix_le(u, GroupElement.delta_power(c, n * q))
            assert not prefix_le(u, GroupElement.delta_power(c, n * (q - 1)))
            blocks = st.factors(u)
            assert len(blocks) == st.canonical_length(u)
            rebuilt = GroupElement.delta_power(c, n * p)
            for b in blocks:
                assert st.is_simple(b)
                rebuilt = rebuilt * b
            assert rebuilt == u


# ----------------------------------------------------------------- lattice ops


def test_meet_join_examples():
    assert meet_prefix(w("A2", "s1 s2"), w("A2", "s1 s1")) == w("A2", "s1")
    assert join_prefix(w("A4", "s1"), w("A4", "s3")) == w("A4", "s1 s3")
    # ribbon characterization: Delta_X v t = Delta_X * r_{X,t}
    c = ctx("A2")
    assert join_prefix(w("A2", "s1"), w("A2", "s2")) == w("A2", "s1 s2 s1")
    assert join_prefix(w("A2", "s1"), w("A2", "s2")) == w("A2", "s1") * ribbon(c, {0}, 1)


def test_lattice_laws_sampled():
    rng = random.Random(10)
    for token in ("A2", "A3", "B2"):
        c = ctx(token)
        for _ in range(60):
            a = random_element(c, rng, 6)
            b = random_element(c, rng, 6)
            d = random_element(c, rng, 6)
            m, j = meet_prefix(a, b), join_prefix(a, b)
            assert m == meet_prefix(b, a) and j == join_prefix(b, a)
            assert prefix_le(m, a) and prefix_le(m, b)
            assert prefix_le(a, j) and prefix_le(b, j)
            assert meet_prefix(a, a) == a and join_prefix(a, a) == a
            assert meet_prefix(meet_prefix(a, b), d) == meet_prefix(a, meet_prefix(b, d))
            assert join_prefix(join_prefix(a, b), d) == join_prefix(a, join_prefix(b, d))
            # absorption
            assert meet_prefix(a, join_prefix(a, b)) == a
            assert join_prefix(a, meet_prefix(a, b)) == a
            ms, js = meet_suffix(a, b), join_suffix(a, b)
            assert suffix_le(ms, a) and suffix_le(ms, b)
            assert suffix_le(a, js) and suffix_le(b, js)


def test_translation_invariance_of_meet():
    rng = random.Random(12)
    c = ctx("A3")
    for _ in range(30):
        a, b, g = (random_element(c, rng, 5) for _ in range(3))
        assert g * meet_prefix(a, b) == meet_prefix(g * a, g * b)
        assert meet_suffix(a, b) * g == meet_suffix(a * g, b * g)


# ------------------------------------------------------------- np / pn forms


def test_np_form_examples():
    c = ctx("A2")
    u = w("A2", "s1 s2").inverse() * w("A2", "s1 s1")
    m = np_normal_form(u)
    assert m.negative == w("A2", "s2") and m.positive == w("A2", "s1")
    pos = w("A2", "s1 s2 s2")
    m = np_normal_form(pos)
    assert m.negative.is_identity() and m.positive == pos
    u = w("A4", "s1^-1 s3")
    m = np_normal_form(u)
    assert m.negative == w("A4", "s1") and m.positive == w("A4", "s3")


def test_pn_form_examples():
    u = w("A2", "s1 s2 s1^-1")
    f = pn_normal_form(u)
    assert f.positive == w("A2", "s1 s2") and f.negative == w("A2", "s1")
    pos = w("A2", "s2 s1")
    f = pn_normal_form(pos)
    assert f.positive == pos and f.negative.is_identity()
    f = pn_normal_form(w("A2", "s2^-1"))
    assert f.positive.is_identity() and f.negative == w("A2", "s2")


def test_np_pn_round_trip_and_disjointness():
    rng = random.Random(13)
    for token in ("A2", "A3", "B2"):
        c = ctx(token)
        for _ in range(60):
            u = random_element(c, rng, 7)
            m = np_normal_form(u)
            assert m.element() == u
            assert m.negative.is_positive() and m.positive.is_positive()
            assert meet_prefix(m.negative, m.positive).is_identity()
            f = pn_normal_form(u)
            assert f.element() == u
            assert meet_suffix(f.positive, f.negative).is_identity()


def test_np_regrouping_makes_parts_simple():
    rng = random.Random(14)
    c = ctx("A3")
    for _ in range(30):
        u = random_element(c, rng, 8)
        m = np_normal_form(u)
        n = max(m.negative.sup(), m.positive.sup(), 1)
        st = GarsideStructure(c, n)
        assert st.is_simple(m.negative) and st.is_simple(m.positive)


def test_support():
    assert support(w("A4", "s1 s3")) == frozenset({0, 2})
    assert support(w("A4", "s1^-1 s3")) == frozenset({0, 2})
    assert support(GroupElement.delta_power(ctx("A2"), 1)) == frozenset({0, 1})
    assert support(GroupElement.delta_power(ctx("A2"), -2)) == frozenset({0, 1})
    assert support(w("A4", "s2 s2 s2^-1")) == frozenset({1})
    assert support(GroupElement.identity(ctx("A4"))) == frozenset()


def test_equal_supports_are_one_set():
    c = ctx("A4")
    same = [w("A4", "s1 s3"), w("A4", "s3 s1 s1"), w("A4", "s1^-1 s3"),
            w("A4", "s3^-1 s1^-1 s3 s3")]
    sets = [support(u) for u in same] + [c.w_supp(c.w_mul(c.gens[0], c.gens[2]))]
    assert all(x is sets[0] for x in sets) and sets[0] == frozenset({0, 2})
    full = [support(GroupElement.delta_power(c, k)) for k in (1, -2)]
    assert full[0] is full[1] is support(w("A4", "s1 s2 s3 s4"))


@pytest.mark.parametrize("token", FAMILIES)
def test_equal_elements_hash_equal(token):
    c = family(token)
    rng = random.Random(23)
    for _ in range(30):
        word = random_word(c, rng, 10)
        u = parse_word(c, word)
        routes = [
            parse_element(c, format_element(u)),
            elements._product(c, [parse_word(c, t) for t in word.split()]),
            u.inverse().inverse(),
            u.conjugate_by(GroupElement.identity(c)),
            GroupElement(c, u.power, u.factors),
        ]
        for v in routes:
            assert v == u and hash(v) == hash(u)


def test_np_form_is_stable_under_parabolic_restriction():
    # The np-normal form of an element of A_X computed in A_X matches the one
    # computed in the ambient group, factor by factor.
    cases = [("A4", (0, 1)), ("A4", (1, 2, 3)), ("A4", (0, 2)), ("B3", (0, 1)),
             ("B3", (1, 2))]
    rng = random.Random(15)
    for token, sub in cases:
        big = ctx(token)
        submatrix = [[big.spec.m(a, b) for b in sub] for a in sub]
        small = build_context(CoxeterSpec.from_matrix(submatrix))
        promote = {i: s for i, s in enumerate(sub)}
        for _ in range(20):
            letters = [
                (rng.randrange(len(sub)), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 6))
            ]
            u_small = GroupElement.from_letters(small, letters)
            u_big = GroupElement.from_letters(
                big, [(promote[i], sgn) for i, sgn in letters]
            )
            m_small = np_normal_form(u_small)
            m_big = np_normal_form(u_big)
            for part_small, part_big in (
                (m_small.negative, m_big.negative),
                (m_small.positive, m_big.positive),
            ):
                small_words = [
                    tuple(promote[i] for i in fw) for fw in part_small.factor_words()
                ]
                if part_small.power:
                    # Delta of the subgroup shows up as an explicit factor upstairs
                    delta_word = tuple(
                        promote[i] for i in small.w_word(small.delta)
                    )
                    small_words = [delta_word] * part_small.power + small_words
                big_words = list(part_big.factor_words())
                assert part_big.power == 0 or not small_words
                rebuilt = GroupElement.identity(big)
                for word in small_words:
                    rebuilt = rebuilt * GroupElement.from_letters(
                        big, [(s, 1) for s in word]
                    )
                assert rebuilt == part_big
                assert len(small_words) == len(big_words) + part_big.power


def _ref_np_normal_form(u):
    """np form by stripping the meet of Delta^k and Delta^k u (k = -inf u)."""
    ctx = u.ctx
    if u.power >= 0:
        return GroupElement.identity(ctx), u
    beta = GroupElement.delta_power(ctx, -u.power)
    gamma = u.shift(-u.power)
    di = meet_prefix(beta, gamma).inverse()
    return di * beta, di * gamma


def _ref_support(u):
    """The old support: the letters of the two parts of the np form."""
    letters = set()
    for part in _ref_np_normal_form(u):
        letters |= {s for s, _ in part.as_signed_word()}
    return frozenset(letters)


def _np_cases(c, rng):
    """Seeded words, and seeded positive words shifted by every Delta^-k with
    k = 0 .. r + 1 (r the canonical length): cuts before, inside, at and past
    the last factor; plus Delta powers and the identity."""
    cases = [GroupElement.identity(c)] + [GroupElement.delta_power(c, k) for k in (-3, -1, 2)]
    cases += [random_element(c, rng, 10) for _ in range(30)]
    for _ in range(10):
        x = random_element(c, rng, 10, signed=False)
        cases += [x.shift(-k) for k in range(x.canonical_length() + 2)]
    return cases


@pytest.mark.parametrize("token", FAMILIES)
def test_np_cut_matches_meet_reference(token):
    c = family(token)
    rng = random.Random(41)
    for u in _np_cases(c, rng):
        m = np_normal_form(u)
        assert (m.negative, m.positive) == _ref_np_normal_form(u), format_element(u)
        neg, pos = _ref_np_normal_form(u.reverse())
        f = pn_normal_form(u)
        assert (f.positive, f.negative) == (pos.reverse(), neg.reverse())
        assert support(u) == _ref_support(u)


@pytest.mark.parametrize("token", ["A3", "B3", "I2(5)"])
def test_np_cut_parts_share_no_divisor(token):
    c = family(token)
    rng = random.Random(42)
    for u in _np_cases(c, rng):
        m = np_normal_form(u)
        assert meet_oracle(m.negative, m.positive).is_identity()
        f = pn_normal_form(u)
        assert meet_oracle(f.positive, f.negative, order="suffix").is_identity()


# ------------------------------------------------------------------ complement


def test_complement():
    c = ctx("A2")
    assert complement(w("A2", "s1 s2")) == w("A2", "s1")
    assert complement(GroupElement.identity(c)) == GroupElement.delta_power(c, 1)
    assert complement(GroupElement.delta_power(c, 1)).is_identity()
    with pytest.raises(NotSimple):
        complement(w("A2", "s1 s1"))
    st2 = GarsideStructure(c, 2)
    u = w("A2", "s1 s1")
    d2 = complement(u, st2)
    assert u * d2 == GroupElement.delta_power(c, 2)
    # complement squared is conjugation by the Garside element
    for text in ("s1", "s2", "s1 s2", "s2 s1", ""):
        v = w("A2", text) if text else GroupElement.identity(c)
        assert complement(complement(v)) == v.tau(1)


# -------------------------------------------- pushing letters through simples


def test_simple_times_letter_rewrite():
    c = ctx("A2")
    # t does not divide alpha*s here: inapplicable
    assert simple_times_letter_rewrite(w("A2", "s1"), t=1, s=1) is None
    out = simple_times_letter_rewrite(GroupElement.identity(c), t=0, s=0)
    assert out == w("A2", "s1")
    # applicable case: alpha = s1, s = s2 gives nothing, but alpha = s2 s1,
    # s = s2 satisfies t=s1 divides alpha*s
    alpha = w("A2", "s2 s1")
    out = simple_times_letter_rewrite(alpha, t=0, s=1)
    assert out == alpha * w("A2", "s2") == w("A2", "s1") * alpha


def test_simple_times_letter_rewrite_rejects_non_simple():
    b2 = ctx("B2")
    with pytest.raises(NotSimple):
        simple_times_letter_rewrite(parse_word(b2, "s1 s1 s2 s1"), t=1, s=1)
    # the underlying failure the hypothesis guards against: for the
    # non-simple aaba, b divides (aaba)b yet (aaba)b != b(aaba)
    alpha = parse_word(b2, "s1 s1 s2 s1")
    b = parse_word(b2, "s2")
    assert prefix_le(b, alpha * b)
    assert alpha * b != b * alpha


# ------------------------------------------------- products of Delta_X powers


def _padded_factor_words(u):
    """Classical factors with leading Delta copies made explicit."""
    c = u.ctx
    assert u.is_positive()
    return [c.delta] * u.power + list(u.factors)


@pytest.mark.parametrize("token,base", [("A3", (0, 1)), ("A3", (1, 2)), ("B2", (0,)),
                                        ("A3", (0, 2)), ("B2", (0, 1))])
def test_delta_power_times_short_element_has_periodic_middle(token, base):
    # For positive alpha with sup(alpha) = r and m > r, the normal form of
    # Delta_X^m * alpha is Delta_X^r rho, then m-r-1 copies of Delta_Y, then a
    # tail, where rho conjugates X to Y letterwise.
    c = ctx(token)
    x_set = frozenset(base)
    d_x = GroupElement.from_simple(c, c.delta_of(x_set))
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        alpha = random_element(c, rng, 4, signed=False)
        r = alpha.sup()
        if r == 0:
            continue
        for m in range(r + 1, 9):
            u = d_x**m * alpha
            fs = _padded_factor_words(u)
            assert len(fs) <= m + r
            fs = fs + [c.identity] * (m + r - len(fs))
            middle = fs[r:m - 1]
            if not middle:
                continue
            y_elt = middle[0]
            y_set = c.w_supp(y_elt)
            assert all(f == y_elt for f in middle)
            assert y_elt == c.delta_of(y_set)
            rho = (d_x**r).inverse() * GroupElement(
                c, 0, tuple(f for f in fs[:r] if f != c.identity)
            )
            assert rho.is_positive()
            gens_y = {c.gens[s] for s in y_set}
            for s in x_set:
                img = rho.inverse() * GroupElement.generator(c, s) * rho
                assert img.is_positive() and img.sup() <= 1
                assert img.simple_id() in gens_y
            checked += 1
    assert checked >= 20


def test_longest_element_op():
    from garside import longest_element
    a4 = ctx("A4")
    assert longest_element(a4, {0, 1}) == w("A4", "s1 s2 s1")
    d123 = longest_element(a4, {0, 1, 2})
    assert d123 == w("A4", "s1 s2 s1 s3 s2 s1")
    assert d123.word_length() == 6
    assert longest_element(a4, {2}) == w("A4", "s3")
    assert longest_element(a4, set()).is_identity()
    # it really is the join of the generators
    for base in ({0, 1}, {1, 3}, {0, 1, 2}, {0, 2, 3}):
        acc = GroupElement.identity(a4)
        for s in base:
            acc = join_prefix(acc, GroupElement.generator(a4, s))
        assert acc == longest_element(a4, base)
