"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The heavy criteria state explicit wall-clock ceilings; those are asserted.
"""

import random
import time
import zlib

import pytest

from garside import (
    GarsideStructure,
    GroupElement,
    ParabolicSubgroup,
    SummitKind,
    classify_arrow,
    compute_summit_graph,
    conjugated_parabolic,
    contains_element,
    format_element,
    intersect,
    join_prefix,
    meet_prefix,
    parabolic_closure,
    parabolic_equal,
    parse_word,
    prefix_le,
    ribbon,
    support,
    stable_twisted_conjugator,
    z_commute,
)
from garside.conjugacy import (
    cycling_conjugator_product,
    summit_membership,
    summit_seed,
)
from garside.lattice import (
    _irreducible_proper_bases,
    _subsets,
    characterize_pair,
    enumerate_parabolics,
    signed_ball,
)
from garside.oracle import (
    _ball_membership,
    ball,
    closure_oracle,
    intersect_oracle,
    word_system,
)
from garside.parabolic import central_element_of_standard

from conftest import ctx, random_element


def report(criterion: str, detail: str) -> None:
    print(f"\n[PASS] {criterion}: {detail}")


def w(token, text):
    return parse_word(ctx(token), text)


# ---------------------------------------------------------------- criteria 1-3


@pytest.fixture(scope="module")
def positive_conjugate_graph():
    t0 = time.time()
    graph = compute_summit_graph(w("A4", "s1 s2"), SummitKind.POSITIVE_CONJUGATES)
    return graph, time.time() - t0


EXPECTED_ARROWS = [
    ("s1 s2", "s1", "s2 s1"),
    ("s1 s2", "s4", "s1 s2"),
    ("s1 s2", "s3 s2 s1", "s2 s3"),
    ("s2 s1", "s2", "s1 s2"),
    ("s2 s1", "s4", "s2 s1"),
    ("s2 s1", "s3 s2 s1", "s3 s2"),
    ("s2 s3", "s2", "s3 s2"),
    ("s2 s3", "s1 s2 s3", "s1 s2"),
    ("s2 s3", "s4 s3 s2", "s3 s4"),
    ("s3 s2", "s3", "s2 s3"),
    ("s3 s2", "s1 s2 s3", "s2 s1"),
    ("s3 s2", "s4 s3 s2", "s4 s3"),
    ("s3 s4", "s3", "s4 s3"),
    ("s3 s4", "s1", "s3 s4"),
    ("s3 s4", "s2 s3 s4", "s2 s3"),
    ("s4 s3", "s4", "s3 s4"),
    ("s4 s3", "s1", "s4 s3"),
    ("s4 s3", "s2 s3 s4", "s3 s2"),
]


def test_criterion_01_positive_conjugate_graph(positive_conjugate_graph):
    graph, elapsed = positive_conjugate_graph
    expected_vertices = {w("A4", t) for t in
                         ("s1 s2", "s2 s3", "s3 s4", "s2 s1", "s3 s2", "s4 s3")}
    assert set(graph.vertices) == expected_vertices
    got = sorted(
        (format_element(graph.vertices[a]), format_element(label),
         format_element(graph.vertices[b]))
        for a, b, label in graph.arrows
    )
    expected = sorted(
        (format_element(w("A4", u)), format_element(w("A4", x)), format_element(w("A4", v)))
        for u, x, v in EXPECTED_ARROWS
    )
    assert got == expected
    assert elapsed < 5.0
    report("criterion 1", f"graph of s1 s2 in A4: 6 vertices, 18 arrows "
                          f"exactly as expected, {elapsed:.2f}s")


def test_criterion_02_central_element_action(positive_conjugate_graph):
    graph, _ = positive_conjugate_graph
    c = ctx("A4")
    t0 = time.time()
    z_values = set()
    for a, b, label in graph.arrows:
        zu = central_element_of_standard(c, support(graph.vertices[a]))
        zv = central_element_of_standard(c, support(graph.vertices[b]))
        assert zu.conjugate_by(label) == zv
        z_values.update((zu, zv))
    expected = {w("A4", "s1 s2 s1") ** 2, w("A4", "s2 s3 s2") ** 2,
                w("A4", "s3 s4 s3") ** 2}
    assert z_values == expected
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report("criterion 2", f"all 18 labels conjugate the support central elements, "
                          f"{elapsed:.2f}s")


def test_criterion_03_arrow_classification(positive_conjugate_graph):
    graph, _ = positive_conjugate_graph
    counts = {"inside": 0, "commuting-letter": 0, "ribbon": 0}
    for a, _, label in graph.arrows:
        arrow = classify_arrow(graph.vertices[a], label)
        counts[arrow.kind] += 1
    assert sum(counts.values()) == 18
    assert counts == {"inside": 6, "commuting-letter": 4, "ribbon": 8}
    report("criterion 3", f"all arrows classified: {counts}")


# ---------------------------------------------------------------- criteria 4-6


@pytest.fixture(scope="module")
def closure_samples():
    samples = {
        "A2": signed_ball(ctx("A2"), 5),
        "B2": signed_ball(ctx("B2"), 5),
    }
    rng = random.Random(1234)
    a3 = ctx("A3")
    picked = set()
    while len(picked) < 500:
        picked.add(random_element(a3, rng, 5))
    samples["A3"] = sorted(picked, key=GroupElement.sort_key)
    return samples


@pytest.fixture(scope="module")
def closures(closure_samples):
    return {
        token: {u: parabolic_closure(u) for u in elements}
        for token, elements in closure_samples.items()
    }


def test_criterion_04_closure_matches_oracle(closure_samples, closures):
    t0 = time.time()
    total = 0
    for token, elements in closure_samples.items():
        for u in elements:
            assert parabolic_equal(closures[token][u], closure_oracle(u, 3)), \
                (token, format_element(u))
            total += 1
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("criterion 4", f"{total} closures equal the enumeration oracle "
                          f"(A2/B2 exhaustive length<=5, 500 random A3), {elapsed:.1f}s")


def test_criterion_05_closure_of_powers(closure_samples, closures):
    t0 = time.time()
    total = 0
    for token, elements in closure_samples.items():
        for u in elements:
            if u.is_identity():
                continue
            base = closures[token][u]
            for m in (-3, -2, -1, 2, 3):
                assert parabolic_equal(parabolic_closure(u**m), base), \
                    (token, format_element(u), m)
                total += 1
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("criterion 5", f"{total} power-closure identities held, {elapsed:.1f}s")


def test_criterion_06_closure_conjugation_equivariance():
    rng = random.Random(4321)
    a3 = ctx("A3")
    t0 = time.time()
    for _ in range(500):
        u = random_element(a3, rng, 5)
        x = random_element(a3, rng, 4)
        assert parabolic_equal(
            parabolic_closure(u.conjugate_by(x)),
            conjugated_parabolic(parabolic_closure(u), x),
        )
    elapsed = time.time() - t0
    report("criterion 6", f"500 conjugation-equivariance checks in A3, {elapsed:.1f}s")


# ---------------------------------------------------------------- criteria 7-8


def test_criterion_07_intersection_matches_oracle():
    t0 = time.time()
    pairs_checked = 0
    for token, radius in (("A2", 5), ("B2", 5), ("A3", 5)):
        c = ctx(token)
        listing = enumerate_parabolics(c, 2)
        for i, P in enumerate(listing):
            for Q in listing[i:]:
                R, cert = intersect(P, Q, budget=5)
                common = intersect_oracle(P, Q, radius=radius)
                in_r = _ball_membership(R, radius)
                elements = ball(c, radius).elements
                from_r = [u for u, flag in zip(elements, in_r) if flag]
                assert from_r == common, (token, repr(P), repr(Q), repr(R))
                pairs_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 900.0
    report("criterion 7", f"{pairs_checked} subgroup pairs: bounded intersection "
                          f"matches the ball oracle exactly, {elapsed:.1f}s")


def test_criterion_08_standard_intersections():
    t0 = time.time()
    checked = 0
    for token in ("A3", "A4", "B3"):
        c = ctx(token)
        subsets = _subsets(c)
        for X in subsets:
            for Y in subsets:
                R, _ = intersect(
                    ParabolicSubgroup.standard(c, X),
                    ParabolicSubgroup.standard(c, Y),
                    budget=4,
                )
                assert parabolic_equal(R, ParabolicSubgroup.standard(c, X & Y)), \
                    (token, sorted(X), sorted(Y))
                checked += 1
    elapsed = time.time() - t0
    report("criterion 8", f"{checked} standard pairs intersect to the standard "
                          f"intersection, {elapsed:.1f}s")


# ------------------------------------------------------------------ criterion 9


def test_criterion_09_adjacency_biconditional():
    c = ctx("A4")
    bases = _irreducible_proper_bases(c)
    t0 = time.time()
    standard_pairs = 0
    for X in bases:
        for Y in bases:
            if X == Y:
                continue
            verdict = characterize_pair(
                ParabolicSubgroup.standard(c, X),
                ParabolicSubgroup.standard(c, Y),
            )
            assert verdict.commute == (verdict.condition is not None)
            standard_pairs += 1
    rng = random.Random(2024)
    conjugated_pairs = 0
    while conjugated_pairs < 200:
        P = ParabolicSubgroup.from_conjugator(
            c, random_element(c, rng, 3), rng.choice(bases))
        Q = ParabolicSubgroup.from_conjugator(
            c, random_element(c, rng, 3), rng.choice(bases))
        if parabolic_equal(P, Q):
            continue
        verdict = characterize_pair(P, Q)
        assert verdict.commute == (verdict.condition is not None)
        conjugated_pairs += 1
    elapsed = time.time() - t0
    report("criterion 9", f"{standard_pairs} standard + {conjugated_pairs} conjugated "
                          f"pairs satisfy the three-way biconditional, {elapsed:.1f}s")


# ----------------------------------------------------------------- criterion 10


def test_criterion_10_iterated_cycling_prefixes():
    rng = random.Random(777)
    collected = []
    seen = set()
    for token, want in (("A2", 80), ("A3", 120)):
        c = ctx(token)
        st = GarsideStructure(c, 1)
        got = 0
        for _ in range(4000):
            if got >= want:
                break
            u = random_element(c, rng, 7)
            v, _ = summit_seed(u, SummitKind.USS, st)
            if v.canonical_length() <= 1 or v in seen:
                continue
            seen.add(v)
            collected.append((c, st, v))
            got += 1
        assert got >= want, (token, got)
    t0 = time.time()
    for c, st, v in collected:
        p = v.inf()
        for m in range(1, 7):
            lhs = meet_prefix(
                v**m * GroupElement.delta_power(c, -m * p),
                GroupElement.delta_power(c, m),
            )
            assert lhs == cycling_conjugator_product(v, m, st), format_element(v)
    elapsed = time.time() - t0
    report("criterion 10", f"{len(collected)} ultra summit elements x 6 powers: "
                           f"prefix identity exact, {elapsed:.1f}s")


# ----------------------------------------------------------------- criterion 11


def test_criterion_11_convexity_audit(positive_conjugate_graph):
    rng = random.Random(555)
    graphs = [positive_conjugate_graph[0]]
    for token, kinds in (("A2", (SummitKind.SSS, SummitKind.USS, SummitKind.RSSS)),
                         ("A3", (SummitKind.SSS, SummitKind.USS)),
                         ("B2", (SummitKind.RSSS,))):
        c = ctx(token)
        for kind in kinds:
            u = random_element(c, rng, 5)
            graphs.append(compute_summit_graph(u, kind))
    total_pairs = 0
    for graph in graphs:
        st = graph.structure
        member = summit_membership(graph.kind, st, graph.vertices[0])
        pool = list(graph.witnesses)
        pool += [x * GroupElement.delta_power(st.ctx, 2) for x in graph.witnesses]
        pool += [x * GroupElement.delta_power(st.ctx, -2) for x in graph.witnesses]
        pairs = 0
        while pairs < 100:
            x = rng.choice(pool)
            y = rng.choice(pool)
            conj = meet_prefix(x, y)
            assert member(graph.base.conjugate_by(conj)), repr(graph.kind)
            pairs += 1
        total_pairs += pairs
    report("criterion 11", f"{len(graphs)} graphs x 100 witness pairs: "
                           f"meet of conjugators stays in the set ({total_pairs} checks)")


# ----------------------------------------------------------------- criterion 12


def test_criterion_12_ribbon_suite():
    checked = 0
    for token in ("A4", "B3"):
        c = ctx(token)
        for X in _subsets(c):
            if len(X) == c.rank:
                continue
            for t in range(c.rank):
                if t in X:
                    continue
                r = ribbon(c, X, t)
                allowed = {c.gens[s] for s in X | {t}}
                for s in X:
                    img = r.inverse() * GroupElement.generator(c, s) * r
                    assert img.is_positive() and img.sup() <= 1
                    assert img.simple_id() in allowed
                assert prefix_le(GroupElement.generator(c, t), r)
                for s in range(c.rank):
                    if s != t:
                        assert not prefix_le(GroupElement.generator(c, s), r)
                checked += 1
    report("criterion 12", f"{checked} ribbons conjugate their base into the "
                           f"extended base and start only with the new letter")


# ----------------------------------------------------------------- criterion 13


def test_criterion_13_core_vs_oracle():
    from garside import np_normal_form, pn_normal_form

    t0 = time.time()
    forms_checked = 0
    for token, radius in (("A2", 5), ("A3", 4), ("B2", 4)):
        c = ctx(token)
        ws = word_system(c)
        b = ball(c, radius)
        for u in b.elements:
            word = b.words[u]
            p, factors = ws.left_normal_form(word)
            assert p == u.power and len(factors) == u.canonical_length()
            for fw, fe in zip(factors, u.factor_words()):
                assert GroupElement.from_letters(c, [(s, 1) for s in fw]) == \
                    GroupElement.from_letters(c, [(s, 1) for s in fe])
            x, y = ws.np_form(word)
            m = np_normal_form(u)
            assert GroupElement.from_letters(c, [(s, 1) for s in x]) == m.negative
            assert GroupElement.from_letters(c, [(s, 1) for s in y]) == m.positive
            a, neg = ws.pn_form(word)
            f = pn_normal_form(u)
            assert GroupElement.from_letters(c, [(s, 1) for s in a]) == f.positive
            assert GroupElement.from_letters(c, [(s, 1) for s in neg]) == f.negative
            forms_checked += 1

    # binary lattice operations: exhaustive on the radius-2 balls, sampled on
    # the full stated balls (all pairs there are computationally out of reach)
    from garside import join_suffix, meet_suffix
    from garside.oracle import meet_oracle
    lattice_checked = 0
    for token, radius in (("A2", 5), ("A3", 4), ("B2", 4)):
        c = ctx(token)
        small = ball(c, 2).elements
        for a in small:
            for bb in small:
                assert meet_prefix(a, bb) == meet_oracle(a, bb, "prefix")
                lattice_checked += 1
        rng = random.Random(zlib.crc32(token.encode()))
        elements = ball(c, radius).elements
        for _ in range(350):
            a = elements[rng.randrange(len(elements))]
            bb = elements[rng.randrange(len(elements))]
            assert meet_prefix(a, bb) == meet_oracle(a, bb, "prefix")
            assert meet_suffix(a, bb) == meet_oracle(a, bb, "suffix")
            assert join_prefix(a, bb) == \
                meet_oracle(a.inverse(), bb.inverse(), "suffix").inverse()
            assert join_suffix(a, bb) == \
                meet_oracle(a.inverse(), bb.inverse(), "prefix").inverse()
            lattice_checked += 4
    elapsed = time.time() - t0
    report("criterion 13", f"{forms_checked} normal/np/pn forms exhaustive, "
                           f"{lattice_checked} lattice comparisons, {elapsed:.1f}s")


# ----------------------------------------------------------------- criterion 14


def test_criterion_14_stable_twisted_conjugators():
    rng = random.Random(99)
    t0 = time.time()
    triples = 0
    for token in ("A2", "A3"):
        c = ctx(token)
        attempts = 0
        while triples < (60 if token == "A2" else 110) and attempts < 400:
            attempts += 1
            u = random_element(c, rng, 5)
            graph = compute_summit_graph(u, SummitKind.USS)
            if not graph.vertices:
                continue
            for _ in range(4):
                i = rng.randrange(len(graph.vertices))
                j = rng.randrange(len(graph.vertices))
                v, wv = graph.vertices[i], graph.vertices[j]
                x = graph.witnesses[i].inverse() * graph.witnesses[j]
                m, cv, cw = stable_twisted_conjugator(v, wv, x)
                # re-verify the returned identities independently of the
                # internal assertions
                xpos = x
                if not xpos.is_positive():
                    shift = -xpos.power
                    shift += (-shift) % c.tau_order
                    xpos = xpos * GroupElement.delta_power(c, shift)
                assert xpos.inverse() * cv * xpos == cw
                assert cv * v == v * cv
                assert cw * wv == wv * cw
                triples += 1
    assert triples >= 100
    elapsed = time.time() - t0
    report("criterion 14", f"{triples} ultra-summit transport triples verified, "
                           f"{elapsed:.1f}s")
