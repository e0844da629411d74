"""Cycling, summit sets, minimal-conjugator graphs and the transport map.

All conjugation here follows the convention u^x = x^-1 u x.  The summit sets
are computed with respect to an explicit Garside structure (Delta^N for some
N >= 1); the set of positive conjugates does not depend on N, only its arrow
labels do.

Seeds for the summit sets follow the standard recipe: iterated cycling raises
the infimum to its conjugacy-class maximum, iterated decycling then lowers the
supremum to its minimum, and repetition detection along the cycling (resp.
decycling) orbit lands in the closed-orbit subsets.  "Cannot be improved any
further" is detected by the orbit looping without a gain, which is conclusive
because cycling trajectories live in a finite set of conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import mul

from .coxeter import ENUMERATION_BUDGET
from .elements import (
    GarsideStructure,
    GroupElement,
    _first_simple,
    format_element,
    format_word,
    prefix_le,
    ribbon,
    support,
)
from .errors import (
    BudgetExceeded,
    EmptySet,
    GarsideError,
    NotConjugating,
    NotInUSS,
    UnclassifiableLabel,
)

_ORBIT_CAP = 100_000
_I_INFINITY_WINDOW = 3
_I_INFINITY_CAP = 64


class SummitKind(Enum):
    POSITIVE_CONJUGATES = "pos"
    SSS = "sss"
    USS = "uss"
    RSSS = "rsss"
    SU = "su"


# ------------------------------------------------------------------- cyclings


def initial_factor(u: GroupElement, structure: GarsideStructure | None = None) -> GroupElement:
    """The first simple factor of u pulled across Delta^(N p); identity when u
    is a power of the Garside element."""
    structure = structure or GarsideStructure(u.ctx, 1)
    blocks = structure.factors(u)
    if not blocks:
        return GroupElement.identity(u.ctx)
    return blocks[0].tau(-structure.exponent * structure.inf(u))


def cycling(u: GroupElement, structure: GarsideStructure | None = None):
    """Conjugate u by its initial factor; returns (result, conjugator)."""
    structure = structure or GarsideStructure(u.ctx, 1)
    iota = initial_factor(u, structure)
    if iota.is_identity():
        return u, iota
    return u.conjugate_by(iota), iota


def twisted_cycling(u: GroupElement, structure: GarsideStructure | None = None):
    """Conjugate u by initial_factor(u) * Delta^-N; returns (result, conjugator)."""
    structure = structure or GarsideStructure(u.ctx, 1)
    if structure.canonical_length(u) == 0:
        return u, GroupElement.identity(u.ctx)
    conj = initial_factor(u, structure) * GroupElement.delta_power(u.ctx, -structure.exponent)
    return u.conjugate_by(conj), conj


def decycling(u: GroupElement, structure: GarsideStructure | None = None):
    """Conjugate u by the inverse of its final factor; returns (result, conjugator)."""
    structure = structure or GarsideStructure(u.ctx, 1)
    blocks = structure.factors(u)
    if not blocks:
        return u, GroupElement.identity(u.ctx)
    conj = blocks[-1].inverse()
    return u.conjugate_by(conj), conj


def _orbit(u: GroupElement, structure: GarsideStructure, step):
    """Apply `step` (cycling or decycling) from u until an element repeats.

    Returns the trail of elements visited (u first), the conjugator of each
    step, and the index in the trail that the last step returned to.
    """
    index = {u: 0}
    cur, conjs = u, []
    for _ in range(_ORBIT_CAP):
        cur, c = step(cur, structure)
        conjs.append(c)
        j = index.setdefault(cur, len(conjs))
        if j < len(conjs):
            return list(index), conjs, j
    raise GarsideError("orbit iteration exceeded its cap")


def _product(u: GroupElement, conjs) -> GroupElement:
    return reduce(mul, conjs, GroupElement.identity(u.ctx))


def cycle_to_max_inf(u: GroupElement, structure: GarsideStructure | None = None):
    """Iterated cycling until the structure infimum is maximal in the
    conjugacy class; returns (element, accumulated conjugator).

    Cycling never lowers the infimum nor raises the supremum, so the
    trajectory stays inside a finite set and must revisit an element; once it
    loops without having improved the infimum, no further cycling ever will.
    The first element of the orbit with the largest infimum is returned, so
    the map is the identity on elements that already realize the maximum.
    """
    structure = structure or GarsideStructure(u.ctx, 1)
    trail, conjs, _ = _orbit(u, structure, cycling)
    i = max(range(len(trail)), key=lambda k: structure.inf(trail[k]))
    return trail[i], _product(u, conjs[:i])


def decycle_to_min_sup(u: GroupElement, structure: GarsideStructure | None = None):
    """Iterated decycling until the structure supremum is minimal; identity on
    elements already realizing the minimum."""
    structure = structure or GarsideStructure(u.ctx, 1)
    trail, conjs, _ = _orbit(u, structure, decycling)
    i = min(range(len(trail)), key=lambda k: structure.sup(trail[k]))
    return trail[i], _product(u, conjs[:i])


def _orbit_to_repeat(u: GroupElement, structure: GarsideStructure, step):
    """Iterate `step` until the first repeated element; returns that element
    and the conjugator from u to it."""
    trail, conjs, j = _orbit(u, structure, step)
    return trail[j], _product(u, conjs[:j])


def _closed_orbit(u: GroupElement, structure: GarsideStructure, step) -> bool:
    return _orbit(u, structure, step)[2] == 0


def sss_seed(u: GroupElement, structure: GarsideStructure):
    a, c1 = cycle_to_max_inf(u, structure)
    b, c2 = decycle_to_min_sup(a, structure)
    return b, c1 * c2


def uss_seed(u: GroupElement, structure: GarsideStructure):
    a, c1 = sss_seed(u, structure)
    b, c2 = _orbit_to_repeat(a, structure, cycling)
    return b, c1 * c2


def rsss_seed(u: GroupElement, structure: GarsideStructure):
    a, c1 = uss_seed(u, structure)
    b, c2 = _orbit_to_repeat(a, structure, decycling)
    return b, c1 * c2


def in_uss(u: GroupElement, structure: GarsideStructure) -> bool:
    """Whether u lies in the ultra summit set of its own conjugacy class."""
    seed, _ = sss_seed(u, structure)
    if structure.canonical_length(u) != structure.canonical_length(seed):
        return False
    return _closed_orbit(u, structure, cycling)


def su_seed(u: GroupElement, structure: GarsideStructure, power_bound: int = 4):
    """Conjugate into the stable ultra summit set, with the all-powers
    condition truncated to 0 < |m| <= power_bound."""
    x, conj = rsss_seed(u, structure)
    exponents = [m for k in range(1, power_bound + 1) for m in (k, -k)]
    for _ in range(100):
        moved = False
        for m in exponents:
            y = x**m
            if not in_uss(y, structure):
                _, c = uss_seed(y, structure)
                x, conj = x.conjugate_by(c), conj * c
                moved = True
        if not moved:
            return x, conj
    raise GarsideError("stable-set conjugation did not stabilize")


def summit_seed(u: GroupElement, kind: SummitKind, structure: GarsideStructure,
                power_bound: int = 4):
    if kind is SummitKind.POSITIVE_CONJUGATES:
        v, conj = cycle_to_max_inf(u, structure)
        if not v.is_positive():
            raise EmptySet(f"{u} has no positive conjugate")
        return v, conj
    if kind is SummitKind.SSS:
        return sss_seed(u, structure)
    if kind is SummitKind.USS:
        return uss_seed(u, structure)
    if kind is SummitKind.RSSS:
        return rsss_seed(u, structure)
    return su_seed(u, structure, power_bound)


def summit_membership(kind: SummitKind, structure: GarsideStructure,
                      seed: GroupElement, power_bound: int = 4):
    """Membership predicate for the summit set containing `seed`.

    Callers must only apply it to conjugates of the seed.
    """
    if kind is SummitKind.POSITIVE_CONJUGATES:
        return lambda w: w.is_positive()
    target = structure.canonical_length(seed)

    def member(w: GroupElement) -> bool:
        if structure.canonical_length(w) != target:
            return False
        if kind is SummitKind.SSS:
            return True
        if not _closed_orbit(w, structure, cycling):
            return False
        if kind is SummitKind.USS:
            return True
        if not _closed_orbit(w, structure, decycling):
            return False
        if kind is SummitKind.RSSS:
            return True
        return all(
            in_uss(w**m, structure)
            for k in range(1, power_bound + 1)
            for m in (k, -k)
        )

    return member


# -------------------------------------------------------------- summit graphs


def _structure_simples(structure: GarsideStructure):
    """All non-trivial simple elements for the structure, sorted by length.

    For the classical structure these are the Coxeter group elements; for
    Delta^N they are enumerated as the positive prefixes of Delta^N.
    """
    ctx, n = structure.ctx, structure.exponent
    if n == 1:
        return [
            GroupElement.from_simple(ctx, w)
            for w in ctx.all_elements()
            if w != ctx.identity
        ]
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
    out.sort(key=lambda u: (u.word_length(), u.sort_key()))
    return out


def _minimal_conjugators(v: GroupElement, member, simples) -> list[GroupElement]:
    """Arrow labels out of v: for each atom s, the unique minimal simple
    conjugator divisible by s that keeps the conjugate in the set, then the
    minimal elements of that family."""
    ctx = v.ctx
    rho: list[GroupElement] = []
    for s in range(ctx.rank):
        found: list[GroupElement] = []
        found_len = None
        for y in simples:
            ylen = y.word_length()
            if found_len is not None and ylen > found_len:
                break
            if not ctx.w_ldesc_mask(_first_simple(y)) >> s & 1:
                continue
            if member(v.conjugate_by(y)):
                found.append(y)
                found_len = ylen
        assert found, "every atom admits a minimal conjugator (Delta^N works)"
        assert len(found) == 1, "minimal conjugator above an atom must be unique"
        rho.append(found[0])
    uniq = []
    for y in rho:
        if y not in uniq:
            uniq.append(y)
    return [
        y for y in uniq
        if not any(z != y and prefix_le(z, y) for z in uniq)
    ]


@dataclass
class SummitGraph:
    """The directed graph of a summit set: vertices are the elements of the
    set, arrows the minimal positive conjugators between them, and every
    vertex carries a witness conjugating the base element to it."""

    kind: SummitKind
    structure: GarsideStructure
    base: GroupElement
    vertices: list[GroupElement]
    arrows: list[tuple[int, int, GroupElement]]
    witnesses: list[GroupElement]
    metadata: dict = field(default_factory=dict)

    def vertex_index(self, v: GroupElement) -> int:
        return self.vertices.index(v)

    def arrow_labels_from(self, v: GroupElement) -> list[GroupElement]:
        i = self.vertex_index(v)
        return [label for a, _, label in self.arrows if a == i]

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "structureExponent": self.structure.exponent,
            "base": format_element(self.base),
            "vertices": [format_element(v) for v in self.vertices],
            "arrows": [
                {
                    "from": a,
                    "to": b,
                    "label": format_word(
                        self.structure.ctx, [s for s, _ in label.as_signed_word()]
                    ),
                }
                for a, b, label in self.arrows
            ],
            "witnesses": [format_element(w) for w in self.witnesses],
            "metadata": self.metadata,
        }

    def to_dot(self) -> str:
        lines = ["digraph summit {", "    rankdir=LR;"]
        for i, v in enumerate(self.vertices):
            lines.append(f'    v{i} [label="{format_element(v)}"];')
        for a, b, label in self.arrows:
            word = format_word(self.structure.ctx, [s for s, _ in label.as_signed_word()])
            lines.append(f'    v{a} -> v{b} [label="{word}"];')
        lines.append("}")
        return "\n".join(lines)


def compute_summit_graph(
    u: GroupElement,
    kind: SummitKind,
    structure: GarsideStructure | None = None,
    power_bound: int = 4,
) -> SummitGraph:
    """Compute the full minimal-conjugator graph of the chosen summit set."""
    structure = structure or GarsideStructure(u.ctx, 1)
    seed, witness = summit_seed(u, kind, structure, power_bound)
    member = summit_membership(kind, structure, seed, power_bound)
    assert member(seed), "seed must land in its own summit set"
    simples = _structure_simples(structure)

    witness_of = {seed: witness}
    queue = [seed]
    raw_arrows = []
    while queue:
        v = queue.pop(0)
        for label in _minimal_conjugators(v, member, simples):
            w = v.conjugate_by(label)
            raw_arrows.append((v, w, label))
            if w not in witness_of:
                witness_of[w] = witness_of[v] * label
                queue.append(w)

    vertices = sorted(witness_of, key=GroupElement.sort_key)
    index = {v: i for i, v in enumerate(vertices)}
    arrows = sorted(
        ((index[a], index[b], label) for a, b, label in raw_arrows),
        key=lambda t: (t[0], t[1], t[2].sort_key()),
    )
    witnesses = [witness_of[v] for v in vertices]
    for v, w in zip(vertices, witnesses):
        assert u.conjugate_by(w) == v, "witness must conjugate the base to its vertex"
    meta = {"budget": ENUMERATION_BUDGET}
    if kind is SummitKind.SU:
        meta["powerBound"] = power_bound
    return SummitGraph(kind, structure, u, vertices, arrows, witnesses, meta)


# ----------------------------------------------------- intersection over N


def element_of_i_infinity(u: GroupElement):
    """Conjugate u into the rigid summit sets of every Garside structure
    Delta^N up to a detected stabilization index.

    Works up through N = 1, 2, ...; each pass uses only cycling/decycling
    conjugators, which preserve membership in the earlier summit sets, and
    stops once the element has been left unchanged for _I_INFINITY_WINDOW (3)
    consecutive exponents beyond its classical canonical length.  That stop
    is a heuristic, not a proven bound; past N = _I_INFINITY_CAP (64) it
    raises.  Returns the element, the accumulated conjugator, and the last
    exponent processed.
    """
    ctx = u.ctx
    beta, conj = summit_seed(u, SummitKind.RSSS, GarsideStructure(ctx, 1))
    stable = 0
    for n in range(2, _I_INFINITY_CAP + 1):
        nxt, c = summit_seed(beta, SummitKind.RSSS, GarsideStructure(ctx, n))
        conj = conj * c
        if nxt != beta:
            beta, stable = nxt, 0
        elif n > beta.canonical_length():
            stable += 1
        if stable >= _I_INFINITY_WINDOW:
            return beta, conj, n
    raise GarsideError("summit stabilization did not settle within the cap")


# ------------------------------------------------------------------ transport


@dataclass(frozen=True)
class TransportRecord:
    """Data of one full transport cycle: x conjugates v to w, both in the
    ultra summit set, and after orbit_period transports the triple returns."""

    v: GroupElement
    w: GroupElement
    x: GroupElement
    orbit_period: int


def transport(v: GroupElement, w: GroupElement, x: GroupElement,
              structure: GarsideStructure):
    """One transport step: (c(v), c(w), iota(v)^-1 x iota(w))."""
    iv = initial_factor(v, structure)
    iw = initial_factor(w, structure)
    return v.conjugate_by(iv), w.conjugate_by(iw), iv.inverse() * x * iw


def transport_orbit(v: GroupElement, w: GroupElement, x: GroupElement,
                    structure: GarsideStructure | None = None) -> TransportRecord:
    """Iterate transports of x along the cycling orbits of v and w until the
    triple (v, w, x) returns to itself; x is first made positive by a central
    power of the Garside element."""
    structure = structure or GarsideStructure(v.ctx, 1)
    ctx = v.ctx
    if v.conjugate_by(x) != w:
        raise NotConjugating(f"{x} does not conjugate {v} to {w}")
    if not (in_uss(v, structure) and in_uss(w, structure)):
        raise NotInUSS("transport endpoints must lie in the ultra summit set")
    if not x.is_positive():
        shift = -x.power
        shift += (-shift) % ctx.tau_order
        x = x * GroupElement.delta_power(ctx, shift)

    v0, w0, x0 = v, w, x
    cv, cw, cx = v, w, x
    for i in range(1, _ORBIT_CAP):
        cv, cw, cx = transport(cv, cw, cx, structure)
        assert cv.conjugate_by(cx) == cw, "transports must keep conjugating"
        if (cv, cw, cx) == (v0, w0, x0):
            return TransportRecord(v0, w0, x0, i)
    raise GarsideError("transport orbit exceeded its cap")


def cycling_conjugator_product(v: GroupElement, t: int,
                               structure: GarsideStructure) -> GroupElement:
    """Product of the conjugating elements of t consecutive cyclings of v."""
    out = GroupElement.identity(v.ctx)
    cur = v
    for _ in range(t):
        cur, c = cycling(cur, structure)
        out = out * c
    return out


def stable_twisted_conjugator(v: GroupElement, w: GroupElement, x: GroupElement,
                              structure: GarsideStructure | None = None):
    """Find M such that the products of M twisted-cycling conjugators at v and
    at w are exchanged by x and commute with v and w respectively.

    Returns (M, Cv, Cw) where Cv = C_M(v) * Delta^-M(structure) and likewise
    for w; all three claimed identities are verified before returning.
    """
    structure = structure or GarsideStructure(v.ctx, 1)
    ctx = v.ctx
    record = transport_orbit(v, w, x, structure)
    n = record.orbit_period
    k = 1 if (n * structure.exponent) % ctx.tau_order == 0 else ctx.tau_order
    m = k * n
    shift = GroupElement.delta_power(ctx, -m * structure.exponent)
    cv = cycling_conjugator_product(v, m, structure) * shift
    cw = cycling_conjugator_product(w, m, structure) * shift
    x = record.x
    assert x.inverse() * cv * x == cw, "stable conjugator must transport exactly"
    assert cv * v == v * cv, "stable conjugator must commute with its base"
    assert cw * w == w * cw, "stable conjugator must commute with its base"
    return m, cv, cw


# ------------------------------------------------------- arrow classification


@dataclass(frozen=True)
class ArrowType:
    """Classification of an arrow label out of a positive vertex with proper
    support X: inside A_X, a letter commuting with X, or the ribbon of a
    letter adjacent to X."""

    kind: str  # "inside" | "commuting-letter" | "ribbon"
    letter: int | None = None


def classify_arrow(v: GroupElement, label: GroupElement) -> ArrowType:
    ctx = v.ctx
    if not v.is_positive() or not label.is_positive():
        raise UnclassifiableLabel("classification needs a positive vertex and label")
    x_set = support(v)
    if len(x_set) >= ctx.rank:
        raise UnclassifiableLabel("vertex support must be a proper subset")
    matches = []
    if support(label) <= x_set:
        matches.append(ArrowType("inside"))
    letters = [s for s, _ in label.as_signed_word()]
    if len(letters) == 1 and letters[0] not in x_set:
        t = letters[0]
        if all(ctx.spec.m(t, s) == 2 for s in x_set):
            matches.append(ArrowType("commuting-letter", t))
    for t in range(ctx.rank):
        if t in x_set:
            continue
        if any(ctx.spec.m(t, s) > 2 for s in x_set) and label == ribbon(ctx, x_set, t):
            matches.append(ArrowType("ribbon", t))
    if len(matches) != 1:
        raise UnclassifiableLabel(
            f"label {label} at vertex {v} matched {len(matches)} arrow types"
        )
    return matches[0]
