import functools
import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from garside import (
    GarsideStructure,
    GroupElement,
    SummitKind,
    classify_arrow,
    compute_summit_graph,
    cycling,
    decycling,
    element_of_i_infinity,
    format_element,
    initial_factor,
    meet_prefix,
    np_normal_form,
    parabolic_closure,
    parse_element,
    parse_word,
    prefix_le,
    stable_twisted_conjugator,
    support,
    transport_orbit,
    twisted_cycling,
)
from garside.conjugacy import (
    _repeat,
    _walk,
    cycle_to_max_inf,
    cycling_conjugator_product,
    in_uss,
    summit_membership,
    summit_seed,
)
from garside import conjugacy
from garside.elements import _first_simple, _product
from garside.coxeter import ENUMERATION_BUDGET
from garside.errors import (
    BudgetExceeded, EmptySet, GarsideError, NotConjugating, NotInUSS, UnclassifiableLabel,
)
from garside.oracle import enumerate_simples

from conftest import FAMILIES, ctx, family, is_prefix, random_element


def w(token, text):
    return parse_word(ctx(token), text)


def test_initial_factor():
    c = ctx("A2")
    assert initial_factor(w("A2", "s1 s2 s2")) == w("A2", "s1 s2")
    assert initial_factor(GroupElement.delta_power(c, 3)).is_identity()
    v = GroupElement.delta_power(c, -1) * w("A2", "s1 s1")
    assert initial_factor(v) == w("A2", "s2")
    # decomposition alpha = iota(alpha) * Delta^p * tail
    rng = random.Random(20)
    for _ in range(40):
        u = random_element(c, rng, 6)
        if u.canonical_length() == 0:
            continue
        iota = initial_factor(u)
        tail = GroupElement(c, u.power, u.factors[1:])
        assert iota * tail == u


def test_cycling_examples():
    c = ctx("A2")
    res, conj = cycling(w("A2", "s1 s2 s2"))
    assert res == GroupElement.delta_power(c, 1)
    assert conj == w("A2", "s1 s2")
    for p in (-2, 0, 3):
        d = GroupElement.delta_power(c, p)
        assert cycling(d)[0] == d
        assert decycling(d)[0] == d


def test_conjugator_contracts():
    rng = random.Random(21)
    for token in ("A2", "A3", "B2"):
        c = ctx(token)
        for n in (1, 2):
            st = GarsideStructure(c, n)
            for _ in range(30):
                u = random_element(c, rng, 6)
                for op in (cycling, decycling, twisted_cycling):
                    res, conj = op(u, st)
                    assert res == u.conjugate_by(conj)


def test_twisted_cycling_conjugator_is_np_tail():
    # When the np-form has nontrivial negative part x, the twisted-cycling
    # conjugator is the inverse of the last factor of x.
    rng = random.Random(22)
    c = ctx("A3")
    checked = 0
    for _ in range(80):
        u = random_element(c, rng, 6)
        m = np_normal_form(u)
        if m.negative.is_identity() or m.negative.canonical_length() == 0:
            continue
        last = GroupElement(c, 0, m.negative.factors[-1:]) \
            if m.negative.power == 0 else None
        if last is None:
            continue
        _, conj = twisted_cycling(u)
        assert conj == last.inverse()
        checked += 1
    assert checked >= 20
    res, conj = twisted_cycling(w("A2", "s2^-1 s1"))
    assert conj == w("A2", "s2^-1")


def test_cycling_commutes_with_tau():
    rng = random.Random(23)
    for token in ("A2", "A3"):
        c = ctx(token)
        for _ in range(40):
            u = random_element(c, rng, 6)
            assert cycling(u.tau(1))[0] == cycling(u)[0].tau(1)


def test_decycling_is_inverse_twisted_cycling_of_inverse():
    rng = random.Random(24)
    for token in ("A2", "B2"):
        c = ctx(token)
        for _ in range(40):
            u = random_element(c, rng, 6)
            assert decycling(u)[0] == twisted_cycling(u.inverse())[0].inverse()


def test_cycling_preserves_parabolic_membership():
    # elements of A_X stay in A_X or A_tau(X) under ambient cycling/decycling
    c = ctx("A4")
    x_set = frozenset({0, 1})
    tau_x = frozenset({c.rank - 1 - s for s in x_set})  # tau reverses the A_n diagram
    rng = random.Random(25)
    for _ in range(40):
        letters = [(rng.choice([0, 1]), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 6))]
        u = GroupElement.from_letters(c, letters)
        for image, _ in (cycling(u), decycling(u)):
            assert support(image) <= x_set or support(image) <= tau_x


@settings(max_examples=200, deadline=None, database=None)
@given(hs.sampled_from(FAMILIES), hs.integers(1, 3),
       hs.lists(hs.tuples(hs.integers(0, 7), hs.sampled_from((1, -1))), max_size=10))
def test_max_inf_min_sup_are_idempotent(token, n, letters):
    c = family(token)
    st = GarsideStructure(c, n)
    u = GroupElement.from_letters(c, [(s % c.rank, e) for s, e in letters])
    v, conj = cycle_to_max_inf(u, st)
    assert u.conjugate_by(conj) == v
    assert st.inf(v) >= st.inf(u) and st.sup(v) <= st.sup(u)
    again, conj2 = cycle_to_max_inf(v, st)
    assert again == v and conj2.is_identity()
    s, conj3 = summit_seed(v, SummitKind.SSS, st)
    assert v.conjugate_by(conj3) == s
    assert st.inf(s) >= st.inf(v) and st.sup(s) <= st.sup(v)
    t, conj4 = summit_seed(s, SummitKind.SSS, st)
    assert t == s and conj4.is_identity()


# The loops that cycle_to_max_inf, the decycling to minimal sup, the walk to
# the first repeat and the closed-orbit test ran before they shared one orbit
# walker, and the seeds and membership tests written out per kind: the
# reference.


def _ref_cycle_to_max_inf(u, structure):
    best, best_conj = u, GroupElement.identity(u.ctx)
    cur, conj = best, best_conj
    seen = {cur}
    while structure.canonical_length(cur) > 0:
        cur, c = cycling(cur, structure)
        conj = conj * c
        if structure.inf(cur) > structure.inf(best):
            best, best_conj = cur, conj
            seen = {cur}
        elif cur in seen:
            break
        else:
            seen.add(cur)
    if structure.canonical_length(cur) == 0:
        return cur, conj
    return best, best_conj


def _ref_decycle_to_min_sup(u, structure):
    best, best_conj = u, GroupElement.identity(u.ctx)
    cur, conj = best, best_conj
    seen = {cur}
    while structure.canonical_length(cur) > 0:
        cur, c = decycling(cur, structure)
        conj = conj * c
        if structure.sup(cur) < structure.sup(best):
            best, best_conj = cur, conj
            seen = {cur}
        elif cur in seen:
            break
        else:
            seen.add(cur)
    if structure.canonical_length(cur) == 0:
        return cur, conj
    return best, best_conj


def _ref_orbit_to_repeat(u, structure, step):
    seen = {u: 0}
    trail = [u]
    prods = [GroupElement.identity(u.ctx)]
    cur = u
    for _ in range(100_000):
        nxt, c = step(cur, structure)
        acc = prods[-1] * c
        if nxt in seen:
            j = seen[nxt]
            return trail[j], prods[j]
        seen[nxt] = len(trail)
        trail.append(nxt)
        prods.append(acc)
        cur = nxt
    raise AssertionError("orbit iteration exceeded its cap")


def _ref_closed_orbit(u, structure, step):
    cur = u
    seen = {u}
    for _ in range(100_000):
        cur, _ = step(cur, structure)
        if cur == u:
            return True
        if cur in seen:
            return False
        seen.add(cur)
    raise AssertionError("orbit iteration exceeded its cap")


def _ref_uss_seed(u, structure):
    a, c1 = _ref_cycle_to_max_inf(u, structure)
    b, c2 = _ref_decycle_to_min_sup(a, structure)
    x, c3 = _ref_orbit_to_repeat(b, structure, cycling)
    return x, c1 * c2 * c3


def _ref_rsss_seed(u, structure):
    """The RSSS seed as four separate orbit walks, before walks were shared."""
    x, c = _ref_uss_seed(u, structure)
    y, c4 = _ref_orbit_to_repeat(x, structure, decycling)
    return y, c * c4


def _ref_in_uss(u, structure):
    a, _ = _ref_cycle_to_max_inf(u, structure)
    b, _ = _ref_decycle_to_min_sup(a, structure)
    return (structure.canonical_length(u) == structure.canonical_length(b)
            and _ref_closed_orbit(u, structure, cycling))


def _ref_su_seed(u, structure, power_bound):
    """The SU seed as it was written before the kinds table: test each power
    with in_uss, then conjugate it into the USS."""
    x, conj = _ref_rsss_seed(u, structure)
    exponents = [m for k in range(1, power_bound + 1) for m in (k, -k)]
    for _ in range(100):
        moved = False
        for m in exponents:
            y = x**m
            if not _ref_in_uss(y, structure):
                _, c = _ref_uss_seed(y, structure)
                x = x.conjugate_by(c)
                conj = conj * c
                moved = True
        if not moved:
            return x, conj
    raise AssertionError("stable-set conjugation did not stabilize")


def _ref_summit_membership(kind, structure, seed, power_bound):
    """summit_membership as the if-chain it was before the kinds table."""
    if kind is SummitKind.POSITIVE_CONJUGATES:
        return lambda w: w.is_positive()
    target = structure.canonical_length(seed)

    def member(w):
        if structure.canonical_length(w) != target:
            return False
        if kind is SummitKind.SSS:
            return True
        if not _ref_closed_orbit(w, structure, cycling):
            return False
        if kind is SummitKind.USS:
            return True
        if not _ref_closed_orbit(w, structure, decycling):
            return False
        if kind is SummitKind.RSSS:
            return True
        return all(_ref_in_uss(w**m, structure)
                   for k in range(1, power_bound + 1) for m in (k, -k))

    return member


# Large types, |W| 51840 and 14400, run beside FAMILIES with fewer inputs.
LARGE = ("E6", "H4")


def _walker_inputs(c, rng, words=100):
    """The identity, Delta powers and `words` seeded words, every fifth of
    them negative."""
    out = [GroupElement.identity(c)]
    out += [GroupElement.delta_power(c, k) for k in (-3, -1, 1, 2)]
    for i in range(words):
        u = random_element(c, rng, 8, signed=i % 5 != 0)
        out.append(u.inverse() if i % 5 == 0 else u)
    return out


@pytest.mark.parametrize("token", FAMILIES + LARGE)
def test_orbit_walker_matches_reference_loops(token):
    c = family(token)
    rng = random.Random(31)
    large = token in LARGE
    for n in (1, 2) if large else (1, 2, 3):
        st = GarsideStructure(c, n)
        for u in _walker_inputs(c, rng, 20 if large else 100):
            a, c1 = _ref_cycle_to_max_inf(u, st)
            assert cycle_to_max_inf(u, st) == (a, c1)
            b, c2 = _ref_decycle_to_min_sup(a, st)
            assert summit_seed(a, SummitKind.SSS, st) == (b, c2)
            x, c3 = _ref_orbit_to_repeat(b, st, cycling)
            assert summit_seed(u, SummitKind.USS, st) == (x, c1 * c2 * c3)
            y, c4 = _ref_orbit_to_repeat(x, st, decycling)
            assert summit_seed(u, SummitKind.RSSS, st) == (y, c1 * c2 * c3 * c4)
            assert summit_seed(y, SummitKind.RSSS, st) == _ref_rsss_seed(y, st) \
                == (y, GroupElement.identity(c))
            assert in_uss(u, st) == (
                st.canonical_length(u) == st.canonical_length(b)
                and _ref_closed_orbit(u, st, cycling)
            )
            for step, ref in ((conjugacy._CYCLING, cycling), (conjugacy._DECYCLING, decycling)):
                assert _walk(u, st, [(step, _repeat)]) == _ref_orbit_to_repeat(u, st, ref)
                assert (conjugacy._orbit(u, st, step[0])[1] == 0) == _ref_closed_orbit(u, st, ref)


def test_seed_walks_each_orbit_once(monkeypatch):
    """From a point of its own summit set, the RSSS seed walks the cycling and
    the decycling orbit once each and reuses them for the last two stages; so
    does in_uss on a USS element."""
    c = family("B3")
    rng = random.Random(8)
    walks = []

    def counted(u, structure, step):
        walks.append((u, step))
        return real(u, structure, step)

    real = conjugacy._orbit
    monkeypatch.setattr(conjugacy, "_orbit", counted)
    for n in (1, 2):
        st = GarsideStructure(c, n)
        for _ in range(20):
            y, _ = summit_seed(random_element(c, rng, 8), SummitKind.RSSS, st)
            walks.clear()
            assert summit_seed(y, SummitKind.RSSS, st) == (y, GroupElement.identity(c))
            assert walks == [(y, conjugacy._cycled), (y, conjugacy._decycled)]
            y, _ = summit_seed(random_element(c, rng, 8), SummitKind.USS, st)
            walks.clear()
            assert in_uss(y, st)
            assert walks == [(y, conjugacy._cycled), (y, conjugacy._decycled)]


_SEED_KINDS = [k for k in SummitKind if k is not SummitKind.POSITIVE_CONJUGATES]


def test_fixed_seeds_and_membership_build_no_conjugator(monkeypatch):
    """Orbits carry elements only: the RSSS seed of its own fixed point and
    every membership test, member or not, build no conjugator, while a seed
    that moves builds those of the steps it keeps."""
    c = family("B3")
    rng = random.Random(9)
    built, verdicts = [], {kind: set() for kind in _SEED_KINDS}

    def counted(ctx, factors):
        built.append(factors)
        return real(ctx, factors)

    real = conjugacy._block
    monkeypatch.setattr(conjugacy, "_block", counted)
    moved = 0
    for n in (1, 2):
        st = GarsideStructure(c, n)
        for i in range(8):
            y, _ = summit_seed(random_element(c, rng, 8, signed=i % 3 != 0), SummitKind.RSSS, st)
            pool = [y, cycling(y, st)[0], decycling(y, st)[0]]
            pool += [y.conjugate_by(random_element(c, rng, 3)) for _ in range(4)]
            for v in pool:
                built.clear()
                x, _ = summit_seed(v, SummitKind.RSSS, st)
                assert bool(built) == (x != v)
                moved += x != v
                built.clear()
                assert summit_seed(x, SummitKind.RSSS, st) == (x, GroupElement.identity(c))
                assert built == []
            for kind in _SEED_KINDS:
                member = summit_membership(kind, st, summit_seed(y, kind, st, 2)[0], 2)
                built.clear()
                verdicts[kind] |= {member(v) for v in pool}
                assert built == [], kind
    assert moved >= 10
    assert all(seen == {True, False} for seen in verdicts.values())


def test_traced_cycling_leaves_results_alone(monkeypatch):
    """A tracer rebinds the public cycling and decycling with functools.wraps
    wrappers; closures through i-infinity and the USS, RSSS and SU graphs come
    out as they do unwrapped, and the walks never call the wrappers."""
    import garside

    c = family("A4")
    rng = random.Random(12)
    words = []
    while len(words) < 8:
        u = random_element(c, rng, 10)
        if not u.is_identity() and not any(cycle_to_max_inf(v)[0].is_positive()
                                           for v in (u, u.inverse())):
            words.append(u)
    graph_inputs = [w("A4", "s1 s2^-1 s3"), w("A4", "s1 s2 s3 s4 s1"), words[0]]

    def results():
        closures = [parabolic_closure(u).to_json() for u in words]
        graphs = [compute_summit_graph(u, kind, GarsideStructure(c, n), power_bound=2).to_json()
                  for u in graph_inputs for n in (1, 2)
                  for kind in (SummitKind.USS, SummitKind.RSSS, SummitKind.SU)]
        return closures, graphs

    expected = results()
    calls = []
    for name in ("cycling", "decycling"):
        fn = getattr(conjugacy, name)

        def wrapper(*args, fn=fn, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        wrapped = functools.wraps(fn)(wrapper)
        monkeypatch.setattr(conjugacy, name, wrapped)
        monkeypatch.setattr(garside, name, wrapped)
    assert results() == expected
    assert calls == []


@pytest.mark.parametrize("token", FAMILIES)
def test_every_seed_is_a_fixed_point(token):
    """Each kind's seed returns (s, identity) on the element s it produced, so
    membership in a summit set is the seed's fixed point."""
    c = family(token)
    rng = random.Random(41)
    for n in (1, 2):
        st = GarsideStructure(c, n)
        for i in range(12):
            u = random_element(c, rng, 7, signed=i % 3 != 0)
            has_positive = cycle_to_max_inf(u, st)[0].is_positive()
            for kind in SummitKind if has_positive else _SEED_KINDS:
                s, _ = summit_seed(u, kind, st, power_bound=2)
                assert summit_seed(s, kind, st, power_bound=2) == (s, GroupElement.identity(c))
            s, _ = summit_seed(u, SummitKind.USS, st)
            assert in_uss(s, st) and in_uss(u, st) == (s == u)


@pytest.mark.parametrize("token", FAMILIES + LARGE)
def test_seeds_and_membership_match_reference(token):
    """The SU seed and every kind's membership test agree with the code they
    replaced, on seeds and on conjugates of them in and out of the set."""
    c = family(token)
    rng = random.Random(43)
    for n in (1, 2):
        st = GarsideStructure(c, n)
        for i in range(6):
            u = random_element(c, rng, 7, signed=i % 3 != 0)
            assert summit_seed(u, SummitKind.SU, st, power_bound=2) == _ref_su_seed(u, st, 2)
            pool = [u, cycling(u, st)[0], decycling(u, st)[0]]
            pool += [u.conjugate_by(random_element(c, rng, 3)) for _ in range(4)]
            for kind in _SEED_KINDS:
                seed, _ = summit_seed(u, kind, st, power_bound=2)
                member = summit_membership(kind, st, seed, power_bound=2)
                ref = _ref_summit_membership(kind, st, seed, 2)
                for v in pool + [seed, cycling(seed, st)[0], decycling(seed, st)[0]]:
                    assert member(v) == ref(v), (kind, format_element(v))


def _surgery_inputs(c, rng):
    """The identity, Delta^k for k = -3..3, canonical length 1 (a generator,
    the longest proper simple and both times Delta powers), negative words
    and mixed words."""
    out = [GroupElement.delta_power(c, k) for k in range(-3, 4)]
    simple = GroupElement.from_simple(c, c.delta_of(frozenset(range(c.rank - 1))))
    for x in (GroupElement.generator(c, c.rank - 1), simple):
        out += [x, x.shift(2), x.shift(-1), x.inverse()]
    for i in range(40):
        u = random_element(c, rng, 9, signed=i % 2 == 0)
        out.append(u if i % 4 else u.inverse())
    return out


@pytest.mark.parametrize("token", FAMILIES)
def test_cycling_and_decycling_are_their_conjugations(token):
    """The factor surgery in cycling and decycling equals conjugation by the
    initial factor and by the inverse of the last block."""
    c = family(token)
    rng = random.Random(17)
    for n in (1, 2, 3):
        st = GarsideStructure(c, n)
        for u in _surgery_inputs(c, rng):
            iota = initial_factor(u, st)
            assert cycling(u, st) == (u.conjugate_by(iota), iota)
            blocks = st.factors(u)
            last = blocks[-1].inverse() if blocks else GroupElement.identity(c)
            assert decycling(u, st) == (u.conjugate_by(last), last)


def test_summit_graph_sss_example():
    g = compute_summit_graph(w("A2", "s1"), SummitKind.SSS)
    assert {format_element(v) for v in g.vertices} == {"Δ^0 · (s1)", "Δ^0 · (s2)"}
    g = compute_summit_graph(GroupElement.delta_power(ctx("A2"), 1), SummitKind.USS)
    assert len(g.vertices) == 1


def test_positive_conjugates_graph_structure():
    c = ctx("A4")
    g = compute_summit_graph(w("A4", "s1 s2"), SummitKind.POSITIVE_CONJUGATES)
    assert len(g.vertices) == 6 and len(g.arrows) == 18
    for i, v in enumerate(g.vertices):
        assert w("A4", "s1 s2").conjugate_by(g.witnesses[i]) == v
    for a, b, label in g.arrows:
        assert label.is_positive()
        assert GarsideStructure(c, 1).is_simple(label)
        assert g.vertices[a].conjugate_by(label) == g.vertices[b]


def test_no_positive_conjugate_raises():
    with pytest.raises(EmptySet):
        compute_summit_graph(w("A2", "s1^-1"), SummitKind.POSITIVE_CONJUGATES)


def test_graph_determinism():
    g1 = compute_summit_graph(w("A4", "s1 s2"), SummitKind.POSITIVE_CONJUGATES)
    g2 = compute_summit_graph(w("A4", "s2 s3"), SummitKind.POSITIVE_CONJUGATES)
    assert [format_element(v) for v in g1.vertices] == \
        [format_element(v) for v in g2.vertices]
    assert g1.to_json()["arrows"] == g2.to_json()["arrows"]


def test_summit_graphs_for_delta_power_structures():
    c = ctx("A2")
    st2 = GarsideStructure(c, 2)
    u = w("A2", "s1 s1 s2")
    g = compute_summit_graph(u, SummitKind.SSS, st2)
    member = summit_membership(SummitKind.SSS, st2, g.vertices[0])
    assert all(member(v) for v in g.vertices)
    assert all(st2.is_simple(label) for _, _, label in g.arrows)


# The breadth-first enumeration of all the Delta^N simples, scanned by word
# length: the reference for the scan of the classical simples.


def _ref_structure_simples(structure):
    ctx, n = structure.ctx, structure.exponent
    frontier = [GroupElement.identity(ctx)]
    seen = {frontier[0]}
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(ctx.rank):
                v = u * GroupElement.generator(ctx, i)
                if v not in seen and v.sup() <= n:
                    seen.add(v)
                    nxt.append(v)
                    if len(seen) > ENUMERATION_BUDGET:
                        raise BudgetExceeded(
                            f"more than {ENUMERATION_BUDGET} simple elements for Delta^{n}"
                        )
        frontier = nxt
    out = [u for u in seen if not u.is_identity()]
    out.sort(key=lambda u: (len(u.as_signed_word()), u.sort_key()))
    return out


def _ref_atom_layers(simples, ctx, s):
    layers = {}
    for y in simples:
        if prefix_le(GroupElement.generator(ctx, s), y):
            layers.setdefault(len(y.as_signed_word()), []).append(y)
    return list(layers.values())


def _ref_atom_labels(v, member, layers_of_atoms):
    """For each atom, the one member of the first of its layers with any."""
    rho = []
    for layers in layers_of_atoms:
        found = []
        for layer in layers:
            found = [y for y in layer if member(v.conjugate_by(y))]
            if found:
                break
        assert len(found) == 1, v
        rho.append(found[0])
    return rho


def _with_conjugates(v, labels):
    """Each label with the conjugate v^label, as the engine hands them back."""
    return [(y, v.conjugate_by(y)) for y in labels]


def _ref_minimal_conjugators(v, member, layers_of_atoms):
    return _with_conjugates(v, conjugacy._minimal(_ref_atom_labels(v, member, layers_of_atoms)))


@functools.cache
def _ref_classical_layers(token):
    """The layers of the classical simples above each atom."""
    c = family(token)
    ref = _ref_structure_simples(GarsideStructure(c, 1))
    return [_ref_atom_layers(ref, c, s) for s in range(c.rank)]


# Iterating the layer step from a classical simple c gives the classical
# simples above c, one length at a time: those among the Delta^N simples at
# every N.


@pytest.mark.parametrize("token, n", [
    (token, n) for token in FAMILIES for n in (1, 2) if (token, n) != ("F4", 2)
] + [("A3", 3), ("I2(5)", 3)])
def test_structure_simples_match_reference(token, n):
    c = family(token)
    classical = [y for y in _ref_structure_simples(GarsideStructure(c, n)) if y.sup() <= 1]
    if n == 1:
        assert set(classical) == set(enumerate_simples(c)) - {GroupElement.identity(c)}
    # x =< y iff l(x^-1 y) = l(y) - l(x)
    simples = [c.identity] + [_first_simple(y) for y in classical]
    for x in simples:
        above = {}
        for y in simples:
            if is_prefix(c, x, y):
                above.setdefault(c.lengths[y], set()).add(y)
        got, layer = [], [x]
        while layer:
            got.append(set(layer))
            assert len(got[-1]) == len(layer), (token, n, x)
            layer = conjugacy._structure_simples(c, layer)
        assert got == [above[k] for k in sorted(above)], (token, n, x)


# USS, RSSS and SU graphs from the scan above the SSS labels against the same
# graphs from the scan of all the Delta^N simples above each atom.


@pytest.mark.parametrize("token, n", [
    (token, n) for token in FAMILIES for n in (1, 2) if (token, n) != ("F4", 2)
] + [("A3", 3), ("I2(5)", 3)])
def test_scan_labels_match_delta_n_reference(token, n, monkeypatch):
    c = family(token)
    st = GarsideStructure(c, n)
    ref = _ref_structure_simples(st)
    ref_layers = [_ref_atom_layers(ref, c, s) for s in range(c.rank)]
    rng = random.Random(f"scan/{token}/{n}")
    for kind in (SummitKind.USS, SummitKind.RSSS, SummitKind.SU):
        for _ in range(2):
            u = random_element(c, rng, 5)
            graph = compute_summit_graph(u, kind, st, power_bound=3)
            with monkeypatch.context() as m:
                m.setattr(conjugacy, "_minimal_conjugators", lambda v, member, low, high:
                          _ref_minimal_conjugators(v, member, ref_layers))
                scanned = compute_summit_graph(u, kind, st, power_bound=3)
            assert graph.to_json() == scanned.to_json(), (token, n, kind, u)


# Positive-conjugate labels come by convexity; the scan of the classical
# simples that found them before is the oracle.


@pytest.mark.parametrize("token, n", [(token, n) for token in FAMILIES for n in (1, 2)])
def test_convex_labels_match_scan(token, n, monkeypatch):
    c = family(token)
    st = GarsideStructure(c, n)
    layers = _ref_classical_layers(token)
    rng = random.Random(100 * FAMILIES.index(token) + n)
    for _ in range(4):
        u = random_element(c, rng, 6, signed=False)
        graph = compute_summit_graph(u, SummitKind.POSITIVE_CONJUGATES, st)
        member = summit_membership(SummitKind.POSITIVE_CONJUGATES, st, graph.vertices[0])

        def scan(v, low=0, high=math.inf):
            return _with_conjugates(v, _ref_atom_labels(v, member, layers))

        for v in graph.vertices:
            assert conjugacy._convex_conjugators(v, 0, math.inf) == scan(v), (token, n, v)
        with monkeypatch.context() as m:
            m.setattr(conjugacy, "_convex_conjugators", scan)
            scanned = compute_summit_graph(u, SummitKind.POSITIVE_CONJUGATES, st)
        assert graph.to_json() == scanned.to_json(), (token, n, u)


# SSS labels come by convexity too, from the inf and the sup condition; the
# scan is their oracle as well.  A 6-letter word can have an SSS of thousands
# of vertices at N = 2, so graphs of more than 150 vertices are compared at 30
# vertices spread over them.  F4 at N = 2 is left out for its cost alone: it
# takes about 23 s (Python 3.11, 2 vCPUs), a quarter of tier-1.


@pytest.mark.parametrize("token, n", [
    (token, n) for token in FAMILIES for n in (1, 2) if (token, n) != ("F4", 2)
])
def test_sss_convex_labels_match_scan(token, n, monkeypatch):
    c = family(token)
    st = GarsideStructure(c, n)
    layers = _ref_classical_layers(token)
    rng = random.Random(f"sss/{token}/{n}")
    for _ in range(4):
        u = random_element(c, rng, 6)
        graph = compute_summit_graph(u, SummitKind.SSS, st)
        member = summit_membership(SummitKind.SSS, st, graph.vertices[0])
        low, high = n * st.inf(graph.vertices[0]), n * st.sup(graph.vertices[0])

        def scan(v, low, high):
            return _with_conjugates(v, _ref_atom_labels(v, member, layers))

        vertices = graph.vertices
        if len(vertices) > 150:
            vertices = vertices[::len(vertices) // 30]
        for v in vertices:
            assert conjugacy._convex_conjugators(v, low, high) == scan(v, low, high), (token, n, v)
        if len(vertices) == len(graph.vertices):
            with monkeypatch.context() as m:
                m.setattr(conjugacy, "_convex_conjugators", scan)
                scanned = compute_summit_graph(u, SummitKind.SSS, st)
            assert graph.to_json() == scanned.to_json(), (token, n, u)


# The minimal labels were found by a prefix test of every pair of labels, one
# group product each: the reference for `_minimal`, which reads them off the
# atoms below each label.


def _ref_minimal(rho):
    uniq = list(dict.fromkeys(rho))
    return [y for y in uniq if not any(z != y and prefix_le(z, y) for z in uniq)]


@pytest.mark.parametrize("token, n, kind", [
    (token, n, kind) for token in FAMILIES for n in (1, 2) for kind in SummitKind
])
def test_minimal_matches_pairwise_reference(token, n, kind, monkeypatch):
    c = family(token)
    st = GarsideStructure(c, n)
    minimal, checked = conjugacy._minimal, []

    def compared(rho):
        out = minimal(rho)
        assert out == _ref_minimal(rho), (token, n, kind, rho)
        checked.append(rho)
        return out

    monkeypatch.setattr(conjugacy, "_minimal", compared)
    rng = random.Random(f"minimal/{token}/{n}/{kind.value}")
    vertices = 0
    for _ in range(3):
        u = random_element(c, rng, 5, signed=kind is not SummitKind.POSITIVE_CONJUGATES)
        vertices += len(compute_summit_graph(u, kind, st).vertices)
    assert len(checked) == vertices


# Each arrow's target is the conjugate that its label's climb or scan ended
# on.  The reference is the graph loop that conjugates each vertex by each
# label afresh, with the labels taken from the same engine.


def _ref_summit_graph(u, kind, st, power_bound=4):
    seed, witness = summit_seed(u, kind, st, power_bound)
    member = summit_membership(kind, st, seed, power_bound)
    n = st.exponent
    low, high = ((0, math.inf) if kind is SummitKind.POSITIVE_CONJUGATES
                 else (n * st.inf(seed), n * st.sup(seed)))
    scanned = kind not in (SummitKind.POSITIVE_CONJUGATES, SummitKind.SSS)
    witness_of, raw_arrows, order = {seed: witness}, [], [seed]
    for v in order:
        if scanned:
            labels = [y for y, _ in conjugacy._minimal_conjugators(v, member, low, high)]
        else:
            labels = conjugacy._minimal([c for c, _ in conjugacy._convex_conjugators(v, low, high)])
        for label in labels:
            x = v.conjugate_by(label)
            raw_arrows.append((v, x, label))
            if x not in witness_of:
                witness_of[x] = witness_of[v] * label
                order.append(x)
    vertices = sorted(witness_of, key=GroupElement.sort_key)
    index = {v: i for i, v in enumerate(vertices)}
    arrows = sorted(((index[a], index[b], label) for a, b, label in raw_arrows),
                    key=lambda t: (t[0], t[1], t[2].sort_key()))
    meta = {"budget": ENUMERATION_BUDGET}
    if kind is SummitKind.SU:
        meta["powerBound"] = power_bound
    return conjugacy.SummitGraph(kind, st, u, vertices, arrows,
                                 [witness_of[v] for v in vertices], meta)


@pytest.mark.parametrize("token, n", [(token, n) for token in FAMILIES + LARGE for n in (1, 2)])
def test_summit_arrows_take_the_conjugates_handed_back(token, n, monkeypatch):
    c = family(token)
    st = GarsideStructure(c, n)
    convex, scan, handed = conjugacy._convex_conjugators, conjugacy._minimal_conjugators, []

    def checked(engine):
        def call(v, *args):
            out = engine(v, *args)
            for label, x in out:
                assert x == v.conjugate_by(label), (token, n, v, label)
            handed.append(len(out))
            return out
        return call

    # At N = 2 a 5-letter word can have an SSS of tens of thousands of
    # vertices (52,082 for one in F4), so words there have 3 letters at most.
    rng = random.Random(f"conjugates/{token}/{n}")
    large = token in LARGE
    for kind in SummitKind:
        for _ in range(1 if large else 2):
            u = random_element(c, rng, 3 if large or n == 2 else 5,
                               signed=kind is not SummitKind.POSITIVE_CONJUGATES)
            handed.clear()
            with monkeypatch.context() as m:
                m.setattr(conjugacy, "_convex_conjugators", checked(convex))
                m.setattr(conjugacy, "_minimal_conjugators", checked(scan))
                graph = compute_summit_graph(u, kind, st, power_bound=3)
            assert handed, (token, n, kind, u)
            ref = _ref_summit_graph(u, kind, st, power_bound=3)
            assert graph.to_json() == ref.to_json(), (token, n, kind, u)


# Positive-conjugate and SSS labels take the scan of every kind, and its first
# layer, the end of the climb, is the answer: one member test per atom at each
# vertex, and no simple listed.  The graphs themselves are compared with the
# reference above, which takes these labels by the climb alone.


@pytest.mark.parametrize("token, n", [(token, n) for token in FAMILIES + LARGE for n in (1, 2)])
def test_pos_and_sss_labels_are_the_first_layer_of_the_scan(token, n, monkeypatch):
    c = family(token)
    st = GarsideStructure(c, n)
    tested = []

    def counted_membership(*args):
        member = summit_membership(*args)

        def counted(w):
            tested.append(w)
            return member(w)
        return counted

    def listed(ctx, layer):
        raise AssertionError(f"{token} N={n}: the scan listed simples above the climb")

    # Positive-conjugate graphs stay small, but a 3-letter word can have an
    # SSS of over 10,000 vertices (F4 at N = 2, H4 at N = 1), so SSS words
    # get one letter fewer at N = 2 and in the large types.
    rng = random.Random(f"first-layer/{token}/{n}")
    monkeypatch.setattr(conjugacy, "summit_membership", counted_membership)
    monkeypatch.setattr(conjugacy, "_structure_simples", listed)
    sss_length = 4 - n - (token in LARGE)
    for kind, length in ((SummitKind.POSITIVE_CONJUGATES, 6), (SummitKind.SSS, sss_length)):
        for _ in range(3):
            u = random_element(c, rng, length, signed=kind is SummitKind.SSS)
            tested.clear()
            graph = compute_summit_graph(u, kind, st)
            # the seed's own check, then one test per atom at every vertex
            assert len(tested) == 1 + c.rank * len(graph.vertices), (token, n, kind, u)


# Graphs larger than any the benchmark builds, pinned by the sha256 of their
# JSON, recorded when the minimal labels came from the pairwise reference and,
# for the USS and RSSS graphs, when their labels came from a scan of all of W.


@pytest.mark.parametrize("token, text, kind, n, digest", [
    ("A5", "s1 s2^-1 s3 s4 s5^-1 s1", SummitKind.SSS, 1,
     "9d5e757d999707e273463c77f9b7a9b0ab2db3317a6d56bfe0e47260b0e0d606"),
    ("E6", "s1 s2 s3 s4 s5 s6 s1 s2 s3 s4 s5 s6", SummitKind.POSITIVE_CONJUGATES, 1,
     "a9d2148f3d8a324c7bd12df2cf5ceb6926f27f07bf60f8ac02c3c0617161bd14"),
    ("B4", "s1 s2 s3^-1 s4", SummitKind.SSS, 2,
     "f3cb518cd633ef0bba7ee2a671e75da7c4491dcf276e81a465aea39b51e34bb4"),
    ("E6", "s1 s2 s3 s4 s5 s6 s1 s2", SummitKind.USS, 1,
     "904a95d33de9a86a384d2536d1ae9771773171e8f0e09c47981a70be68c14990"),
    ("A6", "s1 s2 s3 s4 s5 s6 s1 s2 s3", SummitKind.RSSS, 1,
     "e2fdcc5a45e6afd60d711dccd6a6b0c1148a2b7eab3f5af8a38a669ce43fa0bf"),
], ids=["A5-sss", "E6-pos", "B4-sss-N2", "E6-uss", "A6-rsss"])
def test_large_summit_graphs_pinned(token, text, kind, n, digest):
    c = ctx(token)
    graph = compute_summit_graph(parse_word(c, text), kind, GarsideStructure(c, n))
    got = hashlib.sha256(json.dumps(graph.to_json(), sort_keys=True).encode()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("kind", [SummitKind.POSITIVE_CONJUGATES, SummitKind.SSS,
                                  SummitKind.USS])
def test_equal_labels_are_one_object(kind):
    c = ctx("A4")
    graph = compute_summit_graph(parse_word(c, "s1 s2 s3 s4 s1"), kind)
    labels = {}
    for _, _, label in graph.arrows:
        assert labels.setdefault(label, label) is label
    assert len(labels) < len(graph.arrows)


def test_rsss_inverse_in_closed_cycling_orbit():
    rng = random.Random(27)
    c = ctx("A2")
    seen = 0
    for _ in range(25):
        u = random_element(c, rng, 6)
        v, _ = summit_seed(u, SummitKind.RSSS, GarsideStructure(c, 1))
        # inverse of an element closed under decycling is closed under cycling
        cur, start = v.inverse(), v.inverse()
        trail = {cur}
        for _ in range(10000):
            cur, _ = cycling(cur)
            if cur == start:
                break
            assert cur not in trail or cur == start
            trail.add(cur)
        assert cur == start
        seen += 1
    assert seen == 25


def test_su_contained_in_rsss():
    rng = random.Random(28)
    cases = [("A2", 1, 10)]
    cases += [(token, n, 3) for token in FAMILIES for n in (1, 2)]
    for token, n, count in cases:
        c = family(token)
        st = GarsideStructure(c, n)
        for _ in range(count):
            u = random_element(c, rng, 5)
            g = compute_summit_graph(u, SummitKind.SU, st, power_bound=3)
            rsss_member = summit_membership(
                SummitKind.RSSS, st, summit_seed(u, SummitKind.RSSS, st)[0]
            )
            assert all(rsss_member(v) for v in g.vertices), (token, n)


def test_i_infinity():
    c = ctx("A2")
    d = GroupElement.delta_power(c, -2)
    beta, conj, nstar = element_of_i_infinity(d)
    assert beta == d and conj.is_identity() and nstar >= 1
    u = w("A2", "s1 s1 s2")
    beta, conj, _ = element_of_i_infinity(u)
    assert u.conjugate_by(conj) == beta
    assert beta.is_positive() and support(beta) == frozenset({0, 1})
    rng = random.Random(29)
    for _ in range(10):
        v = random_element(c, rng, 5)
        beta, conj, _ = element_of_i_infinity(v)
        assert v.conjugate_by(conj) == beta


def _i_infinity_bound(beta):
    """max(2, M) with M = max(-inf, sup): from N = M on, whether a Delta^N pass
    fixes beta does not depend on N."""
    return max(2, -beta.inf(), beta.sup())


def _check_i_infinity_stop(u):
    """element_of_i_infinity(u) against the proven stop, run here pass by pass;
    returns the passes N >= 2 that moved the RSSS seed."""
    c = u.ctx
    identity = GroupElement.identity(c)
    beta, conj, n_star = element_of_i_infinity(u)
    assert beta.inf() < 0 < beta.sup()
    assert max(-beta.inf(), beta.sup()) <= beta.canonical_length()
    for n in range(_i_infinity_bound(beta), n_star + 4):
        st = GarsideStructure(c, n)
        assert summit_seed(beta, SummitKind.RSSS, st) == (beta, identity), n
    # stop at the first pass past the bound that leaves beta unchanged
    b, *conjs = summit_seed(u, SummitKind.RSSS, GarsideStructure(c, 1))
    moved = []
    for n in range(2, conjugacy._I_INFINITY_CAP + 1):
        nxt, x = summit_seed(b, SummitKind.RSSS, GarsideStructure(c, n))
        conjs.append(x)
        if nxt == b and n >= _i_infinity_bound(b):
            break
        if nxt != b:
            moved.append(n)
        b = nxt
    assert (b, _product(c, conjs)) == (beta, conj)
    return moved


@pytest.mark.parametrize("token", FAMILIES + LARGE)
def test_i_infinity_stop_is_final(token):
    # Elements with neither a positive nor a negative conjugate, the ones
    # parabolic_closure sends to element_of_i_infinity.
    c = family(token)
    rng = random.Random(f"i-infinity/{token}")
    checked = 0
    for _ in range(40):
        base = random_element(c, rng, 12)
        for u in (base, base ** -2, base ** 3):
            if u.is_identity() or any(cycle_to_max_inf(v)[0].is_positive()
                                      for v in (u, u.inverse())):
                continue
            _check_i_infinity_stop(u)
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("token,text,moved,seed_support,closure_base", [
    # g a b^-1 g^-1 with a, b, g positive words, found by a seeded search; in
    # rank >= 4 the N = 1 seed can move at a later pass
    ("A5", "Δ^-2 · (s3 s2 s4 s3 s2 s1 s5 s4 s3 s2 s1)(s1 s4 s3 s2 s1 s5 s4)"
           "(s1 s2 s1 s4 s3 s2 s1 s5)(s3 s2 s4)",
     [2], {0, 1, 2, 3, 4}, {0, 2, 4}),
    ("A5", "Δ^-3 · (s1 s3 s2 s1 s4 s3 s2 s1 s5 s4 s3 s2 s1)"
           "(s1 s2 s1 s3 s2 s1 s4 s3 s2 s1 s5 s4 s3)(s1 s3 s2 s1 s4 s3 s2 s1 s5 s4 s3 s2)"
           "(s2 s1 s4 s5)(s5)(s5 s4)(s4 s5)",
     [3], {0, 1, 3, 4}, {0, 3, 4}),
])
def test_i_infinity_stop_is_final_when_the_seed_moves(token, text, moved, seed_support,
                                                       closure_base):
    # Returning the N = 1 seed, or stopping after the N = 2 pass, fails here.
    # Stopping at the first unchanged pass past the canonical length does not:
    # by the proof in element_of_i_infinity, it is the same stop.
    c = ctx(token)
    u = parse_element(c, text)
    assert not any(cycle_to_max_inf(v)[0].is_positive() for v in (u, u.inverse()))
    assert _check_i_infinity_stop(u) == moved
    seed, _ = summit_seed(u, SummitKind.RSSS, GarsideStructure(c, 1))
    assert support(seed) == seed_support
    assert parabolic_closure(u).base == closure_base


def test_transport_examples():
    c = ctx("A2")
    d2 = GroupElement.delta_power(c, 2)
    rec = transport_orbit(d2, d2, GroupElement.identity(c))
    assert rec.orbit_period == 1
    v = w("A2", "s1")
    wv = w("A2", "s2")
    x = GroupElement.delta_power(c, 1)
    assert v.conjugate_by(x) == wv
    rec = transport_orbit(v, wv, x)
    assert rec.orbit_period >= 1
    # replay: after orbit_period transports everything returns
    from garside.conjugacy import transport
    cv, cw, cx = rec.v, rec.w, rec.x
    for _ in range(rec.orbit_period):
        cv, cw, cx = transport(cv, cw, cx, GarsideStructure(c, 1))
    assert (cv, cw, cx) == (rec.v, rec.w, rec.x)


def test_transport_errors():
    c = ctx("A2")
    with pytest.raises(NotConjugating):
        transport_orbit(w("A2", "s1"), w("A2", "s2"), GroupElement.identity(c))
    # s1 s2 s2 is conjugate to Delta but not in its own USS-normal position:
    bad = w("A2", "s1 s2 s2")
    conj = w("A2", "s1 s2")
    assert bad.conjugate_by(conj) == GroupElement.delta_power(c, 1)
    with pytest.raises(NotInUSS):
        transport_orbit(bad, GroupElement.delta_power(c, 1), conj)


def test_transport_orbit_that_misses_its_start(monkeypatch):
    """A triple whose transports enter a cycle away from the start fails at
    once rather than spinning to the orbit cap."""
    c = ctx("A2")
    d2 = GroupElement.delta_power(c, 2)
    d4 = d2 * d2

    def looping(v, w, x, structure):
        # x: identity -> Delta^2 -> Delta^4 -> Delta^2 -> ...; Delta^2 is
        # central, so each x still conjugates v to w.
        return v, w, d2 if x == d4 else x * d2

    monkeypatch.setattr(conjugacy, "transport", looping)
    with pytest.raises(GarsideError, match="does not return to its start"):
        transport_orbit(d2, d2, GroupElement.identity(c))

def test_stable_twisted_conjugator_cases():
    c = ctx("A2")
    d = GroupElement.delta_power(c, 2)
    m, cv, cw = stable_twisted_conjugator(d, d, GroupElement.identity(c))
    assert cv == cw
    v = w("A2", "s1")
    m, cv, cw = stable_twisted_conjugator(v, v, GroupElement.identity(c))
    assert cv == cw and cv * v == v * cv
    wv = w("A2", "s2")
    m, cv, cw = stable_twisted_conjugator(v, wv, GroupElement.delta_power(c, 1))
    assert cv * v == v * cv and cw * wv == wv * cw


def test_iterated_cycling_prefix_identity_small():
    # alpha^m * Delta^(-m p) ^ Delta^m equals the product of the first m
    # cycling conjugators, for ultra summit elements of length > 1
    rng = random.Random(30)
    c = ctx("A2")
    st = GarsideStructure(c, 1)
    checked = 0
    for _ in range(60):
        u = random_element(c, rng, 6)
        v, _ = summit_seed(u, SummitKind.USS, st)
        if v.canonical_length() <= 1:
            continue
        p = v.inf()
        for m in range(1, 5):
            lhs = meet_prefix(
                v**m * GroupElement.delta_power(c, -m * p),
                GroupElement.delta_power(c, m),
            )
            assert lhs == cycling_conjugator_product(v, m, st)
        checked += 1
    assert checked >= 10


def test_in_uss_detects_membership():
    c = ctx("A2")
    assert in_uss(GroupElement.delta_power(c, 5), GarsideStructure(c, 1))
    assert not in_uss(w("A2", "s1 s2 s2"), GarsideStructure(c, 1))


def test_classify_arrow_examples():
    g = compute_summit_graph(w("A4", "s1 s2"), SummitKind.POSITIVE_CONJUGATES)
    v12 = w("A4", "s1 s2")
    kinds = {}
    i = g.vertices.index(v12)
    for label in [label for a, _, label in g.arrows if a == i]:
        arrow = classify_arrow(v12, label)
        kinds[format_element(label)] = (arrow.kind, arrow.letter)
    assert kinds["Δ^0 · (s1)"] == ("inside", None)
    assert kinds["Δ^0 · (s4)"] == ("commuting-letter", 3)
    assert kinds["Δ^0 · (s3 s2 s1)"] == ("ribbon", 2)


@pytest.mark.parametrize("vertex, label, message", [
    ("s1^-1", "s2", "needs a positive vertex and label"),
    ("s1 s2 s3", "s1", "support must be a proper subset"),
    ("s1", "s3 s2", "matched 0 arrow types"),
])
def test_classify_arrow_raises(vertex, label, message):
    with pytest.raises(UnclassifiableLabel, match=message):
        classify_arrow(w("A3", vertex), w("A3", label))
