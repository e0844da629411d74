"""The lattice of parabolic subgroups and the complex of irreducible ones.

Containment between parabolic subgroups reduces to one membership test: Q is
contained in P exactly when the central element of Q lies in P, because Q is
the parabolic closure of its own central element.  Adjacency in the complex is
commutation of the central elements; the three-way characterization (nested or
disjoint-commuting) is decided through those membership tests plus commutation
of the generators, with the centre proving the intersection trivial.

A join is exact as soon as the closure of a product of the central elements
contains both subgroups (see `join`).  Otherwise, and for intersections, the
existence results are not effective, so both are bounded searches that
return a certificate recording the witness and the verified inclusions;
oracle tests pin down the budgets at which they are exact on small groups.
"""

from __future__ import annotations

from enum import Enum

from .coxeter import GroupContext, _FrozenValue, _Value
from .elements import GroupElement, _conjugate, _product, format_positive, format_signed_word
from .errors import (
    BudgetExceeded,
    ContextMismatch,
    EqualSubgroups,
    GarsideError,
    InvalidPath,
    NotIrreducible,
    NotProper,
)
from .parabolic import (
    ParabolicSubgroup,
    _conjugated_support,
    central_element_of_standard,
    conjugated_parabolic,
    contains_element,
    contains_subgroup,
    parabolic_closure,
    parabolic_equal,
)


def _require_same(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> None:
    if P.ctx is not Q.ctx:
        raise ContextMismatch("subgroups belong to different group contexts")


def _require_vertex(P: ParabolicSubgroup) -> None:
    """Refuse P unless it is a vertex of the complex: proper and irreducible."""
    if not P.is_proper():
        raise NotProper(f"{P!r} is the whole group")
    if not P.is_irreducible():
        raise NotIrreducible(f"{P!r} is reducible")


def _commute(a: GroupElement, b: GroupElement) -> bool:
    """ab = ba iff a^-1 b a = b: one conjugation, not two products."""
    return b.conjugate_by(a) == b


def z_commute(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> bool:
    """Adjacency test for the complex: do the central elements commute?"""
    _require_same(P, Q)
    return _commute(P.z, Q.z)


class PairCondition(Enum):
    PROPER_SUBSET_PQ = "P<Q"
    PROPER_SUBSET_QP = "Q<P"
    DISJOINT_COMMUTING = "disjoint-commuting"


class AdjacencyVerdict(_FrozenValue):
    __slots__ = ("commute", "condition")

    def __init__(self, commute: bool, condition: PairCondition | None) -> None:
        object.__setattr__(self, "commute", commute)
        object.__setattr__(self, "condition", condition)


def _pairwise_commuting(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> bool:
    gp, gq = P.generators(), Q.generators()
    return all(_commute(a, b) for a in gp for b in gq)


def characterize_pair(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> AdjacencyVerdict:
    """Decide which of the three adjacency conditions holds for a pair of
    distinct proper irreducible parabolic subgroups, and check that the answer
    matches commutation of the central elements.

    Disjoint-commuting needs no search for a common element.  Let P and Q be
    distinct, irreducible, not nested, with pairwise commuting generators.  An
    x in P ∩ Q commutes with all of P and all of Q, so it lies in
    Z(P) ∩ Z(Q) = <z_P> ∩ <z_Q>: the centre of an irreducible spherical
    Artin-Tits group is cyclic, generated by its z (Brieskorn & Saito, 1972).
    If x != 1 then x = z_P^m = z_Q^n with m, n != 0, and since PC(x^m) =
    PC(x), P = PC(z_P) = PC(x) = PC(z_Q) = Q, a contradiction."""
    _require_same(P, Q)
    _require_vertex(P)
    _require_vertex(Q)
    if parabolic_equal(P, Q):
        raise EqualSubgroups("the characterization needs distinct subgroups")

    commute = z_commute(P, Q)
    condition: PairCondition | None = None
    if nested := _nested(P, Q):
        condition = (PairCondition.PROPER_SUBSET_PQ if nested[1] is P
                     else PairCondition.PROPER_SUBSET_QP)
    elif _pairwise_commuting(P, Q):
        condition = PairCondition.DISJOINT_COMMUTING
    if commute != (condition is not None):
        raise GarsideError("adjacency characterization disagrees with z-commutation")
    return AdjacencyVerdict(commute, condition)


# ------------------------------------------------------------ bounded searches


class Certificate(_Value):
    """Audit trail of a bounded intersection/join search."""

    __slots__ = ("operation", "budget", "witness", "candidates_examined",
                 "verified_inclusions", "notes")

    def __init__(self, operation: str, budget: int, witness: str | None = None,
                 candidates_examined: int = 0, verified_inclusions: list[str] | None = None,
                 notes: list[str] | None = None) -> None:
        self.operation, self.budget = operation, budget
        self.witness, self.candidates_examined = witness, candidates_examined
        self.verified_inclusions = [] if verified_inclusions is None else verified_inclusions
        self.notes = [] if notes is None else notes

    def to_json(self) -> dict:
        return {
            "operation": self.operation,
            "budget": self.budget,
            "witness": self.witness,
            "candidatesExamined": self.candidates_examined,
            "verifiedInclusions": self.verified_inclusions,
            "notes": self.notes,
        }


# Most elements a signed ball may hold before BudgetExceeded; the ball grows
# exponentially with its radius.
_BALL_CAP = 20_000


def _ball_words(ctx: GroupContext, radius: int,
                letters=None) -> dict[GroupElement, tuple[tuple[int, int], ...]]:
    """Every element given by a signed word of length <= radius over the chosen
    generators (all of them by default), mapped to its first shortest word when
    generators come before their inverses.  Raises BudgetExceeded past
    _BALL_CAP elements."""
    gens = sorted(letters) if letters is not None else range(ctx.rank)
    steps = [((i, 1), GroupElement.generator(ctx, i)) for i in gens]
    steps += [((i, -1), g.inverse()) for (i, _), g in steps]
    words = {GroupElement.identity(ctx): ()}
    frontier = list(words)
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for letter, g in steps:
                v = u * g
                if v not in words:
                    words[v] = words[u] + (letter,)
                    nxt.append(v)
                    if len(words) > _BALL_CAP:
                        raise BudgetExceeded(
                            f"signed ball of radius {radius} holds more than {_BALL_CAP} elements"
                        )
        frontier = nxt
    return words


def signed_ball(ctx: GroupContext, radius: int, letters=None) -> list[GroupElement]:
    """All distinct elements given by signed words of length <= radius over the
    chosen generators (all of them by default), in a deterministic order."""
    return sorted(_ball_words(ctx, radius, letters), key=GroupElement.sort_key)


def _nested(P: ParabolicSubgroup, Q: ParabolicSubgroup):
    """(certificate note, smaller, larger) when one of P, Q contains the other."""
    if parabolic_equal(P, Q):
        return "subgroups equal", P, P
    if contains_subgroup(Q, P):
        return "P contained in Q", P, Q
    if contains_subgroup(P, Q):
        return "Q contained in P", Q, P
    return None


def intersect(P: ParabolicSubgroup, Q: ParabolicSubgroup,
              budget: int = 5) -> tuple[ParabolicSubgroup, Certificate]:
    """Bounded realization of the intersection of two parabolic subgroups.

    Enumerates elements of P within a word-length budget, keeps those lying in
    Q, and returns the parabolic closure of one maximizing the closure size
    measure; the closure of such a witness is the full intersection whenever
    the budget reaches far enough (the certificate records what was verified).
    """
    _require_same(P, Q)
    cert = Certificate(operation="intersect", budget=budget)
    if nested := _nested(P, Q):
        cert.notes.append(nested[0])
        return nested[1], cert

    # b w b^-1 lies in Q iff w lies in b^-1 Q b: one conjugation per call,
    # and a product only for the members.
    ctx, b = P.ctx, P.standardizer
    Qb = conjugated_parabolic(Q, b)
    bi = b.inverse()
    best = result = None
    best_key = (0, 0)
    for w in signed_ball(ctx, budget, P.base):
        if w.is_identity():
            continue
        cert.candidates_examined += 1
        if not contains_element(Qb, w):
            continue
        cand = _product(ctx, (b, w, bi))
        closure = parabolic_closure(cand)
        key = (ctx.delta_length_of(closure.base), -len(cand.as_signed_word()))
        if key > best_key:
            best, best_key, result = cand, key, closure
    if best is None:
        cert.notes.append("no nontrivial common element within budget")
        return ParabolicSubgroup.trivial(ctx), cert

    cert.witness = format_signed_word(best.as_signed_word()) or "1"
    for name, big in (("P", P), ("Q", Q)):
        if not contains_subgroup(big, result):
            raise GarsideError("intersection witness closure escaped the operands")
        cert.verified_inclusions.append(f"z(R) in {name}")
    return result, cert


def _subsets(ctx: GroupContext) -> list[frozenset[int]]:
    """Every subset of the generators, in binary-mask order."""
    return [frozenset(i for i in range(ctx.rank) if mask >> i & 1)
            for mask in range(1 << ctx.rank)]


def _conjugators(ctx: GroupContext, bases, radius: int) -> dict:
    """The subgroups g A_X g^-1 with X in bases and g in the signed ball of the
    given radius, as a map from each distinct central element g z_X g^-1 to
    the first (g, X) that gives it.  Nothing is standardized: one conjugation
    per pair.

    g is skipped when the last letter t of its shortest word normalizes A_X
    (t in X, or t commuting with every letter of X): then g = g' t^+-1 with g'
    one letter shorter, also in the ball, and g A_X g^-1 = g' A_X g'^-1.  By
    induction down to the identity, which is never skipped, every subgroup is
    still reached."""
    words = _ball_words(ctx, radius)
    found = {}
    for X in bases:
        normalizing = {t for t in range(ctx.rank)
                       if t in X or all(ctx.spec.m(t, s) == 2 for s in X)}
        z_X = central_element_of_standard(ctx, X)
        for g, word in words.items():
            if not word or word[-1][0] not in normalizing:
                found.setdefault(_conjugate(z_X, g, inverse_first=False), (g, X))
    return found


def _standardized(ctx: GroupContext, zs) -> list[ParabolicSubgroup]:
    """The subgroups with the given central elements, sorted."""
    return sorted((ParabolicSubgroup.from_central_element(ctx, z) for z in zs),
                  key=ParabolicSubgroup.sort_key)


def enumerate_parabolics(ctx: GroupContext, conjugator_bound: int) -> list[ParabolicSubgroup]:
    """All subgroups g A_X g^-1 with g in the signed ball of the given radius,
    deduplicated by their central elements."""
    return _standardized(ctx, _conjugators(ctx, _subsets(ctx), conjugator_bound))


def join(P: ParabolicSubgroup, Q: ParabolicSubgroup,
         budget: int = 3) -> tuple[ParabolicSubgroup, Certificate]:
    """The join P v Q: the first closure PC(z_P z_Q^k), k = 1, 2, 3, that
    contains P and Q, or else a bounded search for the minimal parabolic
    subgroup found that contains both.

    The first answer is exact.  Parabolic subgroups form a lattice
    (Cumplido, Gebhardt, Gonzalez-Meneses & Wiest, Adv. Math. 352 (2019)),
    so P v Q is a parabolic subgroup; it holds z_P and z_Q, hence z_P z_Q^k,
    and so PC(z_P z_Q^k) =< P v Q, the closure being the least parabolic
    subgroup holding the element.  A closure that contains P and Q is an
    upper bound, so it is P v Q.  Every upper bound then contains it: the
    note that it is minimal among the enumerated upper bounds needs no
    check, and none of them is standardized.  The enumeration of conjugate
    subgroups still runs, but only to count them: the certificate's
    `candidatesExamined` is 3 + their number either way.

    When no k works, every enumerated g A_X g^-1 within the conjugator
    budget that holds P and Q is a candidate; incomparable candidates are
    refined by bounded intersection, which by the lattice property is again
    an upper bound when the refinement is exact.  An enumerated g A_X g^-1
    holds P and Q iff it holds z_P and z_Q, read off their supports
    conjugated by g (`_conjugated_support`, exact for every conjugator), so
    only the upper bounds are standardized.
    """
    _require_same(P, Q)
    ctx = P.ctx
    cert = Certificate(operation="join", budget=budget)
    if nested := _nested(P, Q):
        cert.notes.append(nested[0])
        return nested[2], cert

    def is_upper(T: ParabolicSubgroup) -> bool:
        return contains_subgroup(T, P) and contains_subgroup(T, Q)

    closures = (parabolic_closure(_product(ctx, (P.z,) + (Q.z,) * k)) for k in (1, 2, 3))
    exact = next((T for T in closures if is_upper(T)), None)
    found = _conjugators(ctx, _subsets(ctx), budget)
    cert.candidates_examined = 3 + len(found)
    cert.verified_inclusions.extend(["z(P) in R", "z(Q) in R"])
    if exact is not None:
        cert.notes.append("minimal among all enumerated upper bounds")
        return exact, cert
    spans = {g: _conjugated_support(P.z, g) | _conjugated_support(Q.z, g)
             for g in {g for g, _ in found.values()}}
    uppers = _standardized(ctx, (z for z, (g, X) in found.items() if spans[g] <= X))

    result = ParabolicSubgroup.full(ctx)
    for T in uppers:
        if contains_subgroup(result, T):
            result = T
        elif contains_subgroup(T, result):
            continue
        else:
            refined, _ = intersect(result, T, budget=max(budget, 4))
            if is_upper(refined):
                result = refined
            else:
                cert.notes.append("incomparable upper bounds left unrefined")
    if not is_upper(result):
        raise GarsideError("join search produced a non-upper bound")
    minimal = all(contains_subgroup(T, result) for T in uppers)
    cert.notes.append(
        "minimal among all enumerated upper bounds"
        if minimal
        else "minimality not certified against every enumerated upper bound"
    )
    return result, cert


# ------------------------------------------------------------------ complex


def _irreducible_proper_bases(ctx: GroupContext) -> list[frozenset[int]]:
    return [X for X in _subsets(ctx)
            if X and len(X) < ctx.rank and ctx.is_irreducible(X)]


def complex_neighbors(P: ParabolicSubgroup, budget: int = 0) -> list[ParabolicSubgroup]:
    """Proper irreducible subgroups adjacent to P in the complex, among those
    with a conjugator in the signed ball of the given radius."""
    _require_vertex(P)
    candidates = _conjugators(P.ctx, _irreducible_proper_bases(P.ctx), budget)
    return _standardized(P.ctx, (z for z in candidates
                                 if z != P.z and _commute(P.z, z)))


class ComplexBall(_Value):
    """A radius-bounded piece of the graph of irreducible parabolic subgroups."""

    __slots__ = ("center", "radius", "vertices", "edges")

    def __init__(self, center: ParabolicSubgroup, radius: int,
                 vertices: list[ParabolicSubgroup], edges: list[tuple[int, int]]) -> None:
        self.center, self.radius, self.vertices, self.edges = center, radius, vertices, edges

    def to_json(self) -> dict:
        return {
            "radius": self.radius,
            "vertices": [V.to_json() for V in self.vertices],
            "edges": [[a, b] for a, b in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["graph complexball {"]
        for i, V in enumerate(self.vertices):
            base = " ".join(f"s{s + 1}" for s in sorted(V.base))
            word = format_positive(V.standardizer)
            label = f"{{{base}}}" if not word else f"({word})·{{{base}}}"
            lines.append(f'    v{i} [label="{label}"];')
        for a, b in self.edges:
            lines.append(f"    v{a} -- v{b};")
        lines.append("}")
        return "\n".join(lines)


def complex_ball(P: ParabolicSubgroup, radius: int, budget: int = 0) -> ComplexBall:
    """Neighbors-of-neighbors exploration to the given radius; edges are all
    commuting-z pairs among the vertices collected.  The walk runs on central
    elements, and only the vertices are standardized."""
    _require_vertex(P)
    ctx = P.ctx
    candidates = _conjugators(ctx, _irreducible_proper_bases(ctx), budget) if radius else {}
    layer = [P.z]
    vertices = {P.z}
    for _ in range(radius):
        nxt = []
        for v in layer:
            for w in candidates:
                if w not in vertices and _commute(v, w):
                    vertices.add(w)
                    nxt.append(w)
        layer = nxt
    verts = _standardized(ctx, vertices)
    edges = [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if _commute(verts[i].z, verts[j].z)
    ]
    return ComplexBall(P, radius, verts, edges)


# --------------------------------------------------------- word-level utility


def is_subsequence(word, path) -> bool:
    it = iter(word)
    return all(any(s == p for s in it) for p in path)


def subsequence_invariance_check(ctx: GroupContext, word1, word2, path) -> bool:
    """Whether both positive words contain the generator path as a subsequence.

    The path must have consecutive entries non-commuting and no equal entries
    two apart, the shape for which containment is invariant across all
    positive words representing the same element.
    """
    path = list(path)
    for s in path:
        if not 0 <= s < ctx.rank:
            raise InvalidPath(f"generator {s} out of range")
    for a, b in zip(path, path[1:]):
        if ctx.spec.m(a, b) <= 2:
            raise InvalidPath("consecutive path letters must not commute")
    for a, b in zip(path, path[2:]):
        if a == b:
            raise InvalidPath("path letters two apart must differ")
    return is_subsequence(word1, path) and is_subsequence(word2, path)
