"""The lattice of parabolic subgroups and the complex of irreducible ones.

Containment between parabolic subgroups reduces to one membership test: Q is
contained in P exactly when the central element of Q lies in P, because Q is
the parabolic closure of its own central element.  Adjacency in the complex is
commutation of the central elements; the three-way characterization (nested or
disjoint-commuting) is decided through those membership tests plus a budgeted
intersection search.

The existence results behind intersections and joins are not effective, so
both are bounded searches that return a certificate recording the witness and
the verified inclusions; oracle tests pin down the budgets at which they are
exact on small groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .coxeter import GroupContext
from .elements import GroupElement, _product, format_positive, format_signed_word
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
    central_element_of_standard,
    conjugated_parabolic,
    contains_element,
    contains_subgroup,
    parabolic_closure,
    parabolic_equal,
    phi,
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


def z_commute(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> bool:
    """Adjacency test for the complex: do the central elements commute?"""
    _require_same(P, Q)
    return P.z * Q.z == Q.z * P.z


class PairCondition(Enum):
    PROPER_SUBSET_PQ = "P<Q"
    PROPER_SUBSET_QP = "Q<P"
    DISJOINT_COMMUTING = "disjoint-commuting"


@dataclass(frozen=True)
class AdjacencyVerdict:
    commute: bool
    condition: PairCondition | None


def _pairwise_commuting(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> bool:
    gp, gq = P.generators(), Q.generators()
    return all(a * b == b * a for a in gp for b in gq)


def characterize_pair(P: ParabolicSubgroup, Q: ParabolicSubgroup,
                      budget: int = 4) -> AdjacencyVerdict:
    """Decide which of the three adjacency conditions holds for a pair of
    distinct proper irreducible parabolic subgroups, and check that the answer
    matches commutation of the central elements."""
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
        result, _ = intersect(P, Q, budget)
        if not result.is_trivial():
            raise GarsideError(
                "commuting pair with nontrivial bounded intersection: "
                "budget too small or internal inconsistency"
            )
        condition = PairCondition.DISJOINT_COMMUTING
    if commute != (condition is not None):
        raise GarsideError("adjacency characterization disagrees with z-commutation")
    return AdjacencyVerdict(commute, condition)


# ------------------------------------------------------------ bounded searches


@dataclass
class Certificate:
    """Audit trail of a bounded intersection/join search."""

    operation: str
    budget: int
    witness: str | None = None
    candidates_examined: int = 0
    verified_inclusions: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

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
    b = P.standardizer
    Qb = conjugated_parabolic(Q, b)
    bi = b.inverse()
    best = None
    best_key = (0, 0)
    for w in signed_ball(P.ctx, budget, P.base):
        if w.is_identity():
            continue
        cert.candidates_examined += 1
        if not contains_element(Qb, w):
            continue
        cand = _product(P.ctx, (b, w, bi))
        key = (phi(cand), -len(cand.as_signed_word()))
        if key > best_key:
            best, best_key = cand, key
    if best is None:
        cert.notes.append("no nontrivial common element within budget")
        return ParabolicSubgroup.trivial(P.ctx), cert

    result = parabolic_closure(best)
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


def _conjugates(ctx: GroupContext, bases, radius: int) -> list[ParabolicSubgroup]:
    """The subgroups g A_X g^-1 with X in bases and g in the signed ball of the
    given radius, one per central element, sorted.

    g is skipped when the last letter t of its shortest word normalizes A_X
    (t in X, or t commuting with every letter of X): then g = g' t^+-1 with g'
    one letter shorter, also in the ball, and g A_X g^-1 = g' A_X g'^-1.  By
    induction down to the identity, which is never skipped, every subgroup is
    still reached.  A subgroup is built only for a central element not yet
    found, so the first one found stays."""
    words = _ball_words(ctx, radius)
    out: dict[GroupElement, ParabolicSubgroup] = {}
    for X in bases:
        normalizing = {t for t in range(ctx.rank)
                       if t in X or all(ctx.spec.m(t, s) == 2 for s in X)}
        z_X = central_element_of_standard(ctx, X)
        for g, word in words.items():
            if word and word[-1][0] in normalizing:
                continue
            z = _product(ctx, (g, z_X, g.inverse()))
            if z not in out:
                out[z] = ParabolicSubgroup.from_central_element(ctx, z)
    return sorted(out.values(), key=ParabolicSubgroup.sort_key)


def enumerate_parabolics(ctx: GroupContext, conjugator_bound: int) -> list[ParabolicSubgroup]:
    """All subgroups g A_X g^-1 with g in the signed ball of the given radius,
    deduplicated by their central elements."""
    return _conjugates(ctx, _subsets(ctx), conjugator_bound)


def join(P: ParabolicSubgroup, Q: ParabolicSubgroup,
         budget: int = 3) -> tuple[ParabolicSubgroup, Certificate]:
    """Bounded realization of the join: the minimal parabolic subgroup found
    that contains both P and Q.

    Candidates are closures of products of the central elements plus every
    enumerated subgroup within the conjugator budget; incomparable candidates
    are refined by bounded intersection, which by the lattice property is
    again an upper bound when the refinement is exact.
    """
    _require_same(P, Q)
    ctx = P.ctx
    cert = Certificate(operation="join", budget=budget)
    if nested := _nested(P, Q):
        cert.notes.append(nested[0])
        return nested[2], cert

    def is_upper(T: ParabolicSubgroup) -> bool:
        return contains_subgroup(T, P) and contains_subgroup(T, Q)

    candidates: list[ParabolicSubgroup] = [ParabolicSubgroup.full(ctx)]
    for k in (1, 2, 3):
        T = parabolic_closure(_product(ctx, (P.z,) + (Q.z,) * k))
        cert.candidates_examined += 1
        if is_upper(T) and T not in candidates:
            candidates.append(T)
    uppers = []
    for T in enumerate_parabolics(ctx, budget):
        cert.candidates_examined += 1
        if is_upper(T):
            uppers.append(T)
            if T not in candidates:
                candidates.append(T)

    result = candidates[0]
    for T in candidates[1:]:
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
    cert.verified_inclusions.extend(["z(P) in R", "z(Q) in R"])
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
    candidates = _conjugates(P.ctx, _irreducible_proper_bases(P.ctx), budget)
    return [Q for Q in candidates if Q != P and z_commute(P, Q)]


@dataclass
class ComplexBall:
    """A radius-bounded piece of the graph of irreducible parabolic subgroups."""

    center: ParabolicSubgroup
    radius: int
    vertices: list[ParabolicSubgroup]
    edges: list[tuple[int, int]]

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
    commuting-z pairs among the vertices collected."""
    _require_vertex(P)
    candidates = _conjugates(P.ctx, _irreducible_proper_bases(P.ctx), budget) if radius else []
    layer = [P]
    vertices = {P.z: P}
    for _ in range(radius):
        nxt = []
        for V in layer:
            for W in candidates:
                if W.z not in vertices and z_commute(V, W):
                    vertices[W.z] = W
                    nxt.append(W)
        layer = nxt
    verts = sorted(vertices.values(), key=ParabolicSubgroup.sort_key)
    edges = [
        (i, j)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if z_commute(verts[i], verts[j])
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
