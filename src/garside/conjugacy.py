"""Cycling, summit sets, minimal-conjugator graphs and the transport map.

All conjugation here follows the convention u^x = x^-1 u x.  The summit sets
are computed with respect to an explicit Garside structure (Delta^N for some
N >= 1); the set of positive conjugates and its arrow labels do not depend on
N (see `_convex_conjugators`), the other summit sets do.  The arrow label
above each atom is the least element of a meet-closed set of conjugators,
and every kind finds it on one path (`_minimal_conjugators`): a climb
bounded by the power and sup of the class (`_convex_conjugators`) ends on
the label of positive conjugates or of the super summit set, and a scan by
word length of the simples above it stops at the first layer with a member.
For positive conjugates and the SSS that is the climb's end; the ultra,
reduced and stable summit sets lie in the SSS, so their labels lie above it.
The minimal labels are read off the atoms below them (`_minimal`), each
with the conjugate the path ended on, the target of its arrow.

Seeds follow the standard recipe, one row of `_seed_stages` per kind:
iterated cycling raises the infimum to its conjugacy-class maximum, which
is all that positive conjugates need, iterated decycling lowers the
supremum to its minimum (the super summit set), and an orbit looping
without a gain is conclusive, because the trajectories live in a finite set
of conjugates.  Each further kind adds the steps whose orbits its elements
close; SU is RSSS plus the truncated power condition, which `summit_seed`
and `summit_membership` add.  Every stage stops at the first best element
of its trail and a closed orbit repeats at its start, so summit_seed(u) is
(u, identity) exactly when u lies in its set.  Orbits carry elements only: a
seed builds the conjugators of the steps it keeps, and the membership tests
build none.
"""

from __future__ import annotations

import math
from enum import Enum

from .coxeter import ENUMERATION_BUDGET, _FrozenValue, _Value
from .elements import (
    GarsideStructure,
    GroupElement,
    _block,
    _first_simple,
    _pn_negative,
    _product,
    format_element,
    format_positive,
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
_SU_ROUNDS_CAP = 100


class SummitKind(Enum):
    POSITIVE_CONJUGATES = "pos"
    SSS = "sss"
    USS = "uss"
    RSSS = "rsss"
    SU = "su"


# ------------------------------------------------------------------- cyclings


def _cycled(u: GroupElement, structure: GarsideStructure) -> GroupElement:
    """The element map of cycling: Delta^(Nq) P[N:] tau^(-Nq)(P[:N])."""
    ctx, n = u.ctx, structure.exponent
    shift, padded = structure.padded(u)
    if not padded:
        return u
    return GroupElement(ctx, shift, padded[n:] + [ctx.w_tau_pow(f, -shift) for f in padded[:n]])


def _decycled(u: GroupElement, structure: GarsideStructure) -> GroupElement:
    """The element map of decycling: Delta^(Nq) tau^(Nq)(last) P[:-len(last)]."""
    ctx, n = u.ctx, structure.exponent
    shift, padded = structure.padded(u)
    if not padded:
        return u
    cut = (len(padded) - 1) // n * n
    return GroupElement(ctx, shift, [ctx.w_tau_pow(f, shift) for f in padded[cut:]] + padded[:cut])


def _decycling_conjugator(u: GroupElement, structure: GarsideStructure) -> GroupElement:
    """The conjugator map of decycling: the inverse of the final block."""
    n, (_, padded) = structure.exponent, structure.padded(u)
    return _block(u.ctx, padded[(len(padded) - 1) // n * n:]).inverse()


def cycling(u: GroupElement, structure: GarsideStructure | None = None):
    """Conjugate u by its initial factor; returns (result, conjugator).

    With u = Delta^(Nq) P, P the padded classical factors, the result is
    Delta^(Nq) P[N:] tau^(-Nq)(P[:N]) and the conjugator tau^(-Nq)(P[:N]):
    one normalization of the factor list, no inverse and no triple product.
    """
    structure = structure or GarsideStructure(u.ctx, 1)
    return _cycled(u, structure), initial_factor(u, structure)


def initial_factor(u: GroupElement, structure: GarsideStructure | None = None) -> GroupElement:
    """tau^(-Nq)(P[:N]), the first simple factor of u pulled across Delta^(N q):
    the conjugator of its cycling; identity when u is a power of Delta^N."""
    ctx, structure = u.ctx, structure or GarsideStructure(u.ctx, 1)
    shift, padded = structure.padded(u)
    return _block(ctx, [ctx.w_tau_pow(f, -shift) for f in padded[:structure.exponent]])


def twisted_cycling(u: GroupElement, structure: GarsideStructure | None = None):
    """Conjugate u by initial_factor(u) * Delta^-N; returns (result, conjugator).
    The result is the cycling of u conjugated by Delta^-N."""
    structure = structure or GarsideStructure(u.ctx, 1)
    if structure.canonical_length(u) == 0:
        return u, GroupElement.identity(u.ctx)
    c, iota = cycling(u, structure)
    return structure.tau(c, -1), iota * GroupElement.delta_power(u.ctx, -structure.exponent)


def decycling(u: GroupElement, structure: GarsideStructure | None = None):
    """Conjugate u by the inverse of its final factor; returns (result, conjugator).

    With u = Delta^(Nq) P and `last` the final block of N padded factors, the
    result is Delta^(Nq) tau^(Nq)(last) P[:-len(last)], normalized once.
    """
    structure = structure or GarsideStructure(u.ctx, 1)
    return _decycled(u, structure), _decycling_conjugator(u, structure)


# The orbit steps: (element map, conjugator map).  The objects are bound here,
# so rebinding the public functions, as a tracer does, leaves the walks alone.
_CYCLING = (_cycled, initial_factor)
_DECYCLING = (_decycled, _decycling_conjugator)


def _orbit(u, structure: GarsideStructure, advance):
    """Apply the element map `advance` (of cycling, decycling, or transport of
    a triple) from u until an element repeats.  Orbits carry elements only.

    Returns the trail of elements visited (u first) and the index in the
    trail that the last step returned to.
    """
    index, cur = {u: 0}, u
    for k in range(1, _ORBIT_CAP + 1):
        cur = advance(cur, structure)
        j = index.setdefault(cur, k)
        if j < k:
            return list(index), j
    raise GarsideError("orbit iteration exceeded its cap")


# Where a walk stops on an orbit's trail: pick(trail, j, structure) -> index,
# j being the index the orbit returned to.
def _max_inf(trail, j, structure):
    return max(range(len(trail)), key=lambda k: structure.inf(trail[k]))


def _min_sup(trail, j, structure):
    return min(range(len(trail)), key=lambda k: structure.sup(trail[k]))


def _repeat(trail, j, structure):
    return j


def _walk(u: GroupElement, structure: GarsideStructure, stages):
    """Run each ((advance, conjugator), pick) stage from where the last one
    stopped: walk the orbit of `advance` and move to the trail element `pick`
    chooses.  Orbits carry elements only: the walk builds the conjugators of
    the steps it keeps from their trail elements and normalizes them once.

    Within one call each orbit is walked once per start element and step: a
    seed already in its summit set starts its last two walks where its first
    two did, and reuses their trails.
    """
    walks, cur, conjs = {}, u, []
    for (advance, conjugator), pick in stages:
        key = (cur, advance)
        if key not in walks:
            walks[key] = _orbit(cur, structure, advance)
        trail, j = walks[key]
        i = pick(trail, j, structure)
        conjs += [conjugator(x, structure) for x in trail[:i]]
        cur = trail[i]
    return cur, _product(u.ctx, conjs)


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
    return _walk(u, structure, [(_CYCLING, _max_inf)])


def _seed_stages(kind: SummitKind):
    """The walk of a kind's seed, a prefix of one walk: maximal inf, which is
    all positive conjugates need; minimal sup, for the SSS; then a closed
    orbit of each step that the kind's elements close, cycling for the USS
    and decycling too for the RSSS and SU."""
    stages = [(_CYCLING, _max_inf), (_DECYCLING, _min_sup),
              (_CYCLING, _repeat), (_DECYCLING, _repeat)]
    return stages[:{SummitKind.POSITIVE_CONJUGATES: 1, SummitKind.SSS: 2,
                    SummitKind.USS: 3, SummitKind.RSSS: 4, SummitKind.SU: 4}[kind]]


def in_uss(u: GroupElement, structure: GarsideStructure) -> bool:
    """Whether u lies in the ultra summit set of its class, on bare orbits: the
    USS walk stays at u iff u's cycling orbit is closed (so it keeps the inf)
    and no iterated decycling lowers u's sup; a stage that moves never returns."""
    return (_orbit(u, structure, _cycled)[1] == 0
            and _min_sup(*_orbit(u, structure, _decycled), structure) == 0)


def summit_seed(u: GroupElement, kind: SummitKind, structure: GarsideStructure,
                power_bound: int = 4):
    """Conjugate u into the summit set of `kind` by the walk of its
    `_seed_stages` row; returns (element, conjugator).  Maximal inf reaches a
    positive conjugate when u has one (EmptySet otherwise).  SU then moves
    each power x^m, 0 < |m| <= power_bound, into its USS."""
    x, conj = _walk(u, structure, _seed_stages(kind))
    if kind is SummitKind.POSITIVE_CONJUGATES and not x.is_positive():
        raise EmptySet(f"{u} has no positive conjugate")
    if kind is not SummitKind.SU:
        return x, conj
    conjs = [conj]
    exponents = [m for k in range(1, power_bound + 1) for m in (k, -k)]
    for _ in range(_SU_ROUNDS_CAP):
        moved = False
        for m in exponents:
            y = x**m
            z, c = _walk(y, structure, _seed_stages(SummitKind.USS))
            if z != y:
                x = x.conjugate_by(c)
                conjs.append(c)
                moved = True
        if not moved:
            return x, _product(u.ctx, conjs)
    raise GarsideError("stable-set conjugation did not stabilize")


def summit_membership(kind: SummitKind, structure: GarsideStructure,
                      seed: GroupElement, power_bound: int = 4):
    """Membership predicate for the summit set containing `seed`.

    Callers must only apply it to conjugates of the seed: those of its
    canonical length have maximal inf and minimal sup.
    """
    if kind is SummitKind.POSITIVE_CONJUGATES:
        return GroupElement.is_positive
    target = structure.canonical_length(seed)
    closed = [advance for (advance, _), pick in _seed_stages(kind) if pick is _repeat]
    exponents = ([m for k in range(1, power_bound + 1) for m in (k, -k)]
                 if kind is SummitKind.SU else [])
    if not closed:  # the SSS: the canonical length alone
        return lambda w: structure.canonical_length(w) == target

    def member(w: GroupElement) -> bool:
        return (structure.canonical_length(w) == target
                and all(_orbit(w, structure, advance)[1] == 0 for advance in closed)
                and all(in_uss(w**m, structure) for m in exponents))

    return member


# -------------------------------------------------------------- summit graphs


def _structure_simples(ctx, layer: list[int]) -> list[int]:
    """One step of the USS, RSSS and SU scan: the ids of y t, for y in
    `layer` and t outside rdesc(y), each once.  From the simples of one
    length above c, it gives the simples one letter longer above c: each
    y t is a simple of length l(y) + 1 with c =< y =< y t, and each simple
    z above c with l(z) > l(c) is z' t for t the last letter of a reduced
    word of z that starts with one of c, z' = z t a simple above c of
    length l(z) - 1 and t outside rdesc(z')."""
    gens, rdescs, out = ctx.gens, ctx.rdescs, {}
    for y in layer:
        for t, g in enumerate(gens):
            if not rdescs[y] >> t & 1:
                out.setdefault(ctx.w_mul(y, g))
    return list(out)


def _minimal_conjugators(v: GroupElement, member, low,
                         high) -> list[tuple[GroupElement, GroupElement]]:
    """Arrows out of a vertex v of any summit set: for each atom s, the least
    conjugator rho_s above s that keeps v^rho_s in the summit set `member`
    tests, then `_minimal` of them, each label with its conjugate v^rho_s.

    The scan starts at c = rho^SSS_s, or at the positive-conjugate label,
    that `_convex_conjugators(v, low, high)` climbs to, (low, high) being
    (0, inf) for positive conjugates and (N inf_N, N sup_N) of the set
    otherwise; the climb hands back v^c too, so the first layer costs no
    conjugation.  It tests c, then the simples one letter longer above it
    (`_structure_simples`), and stops at the first layer with a member,
    which holds rho_s alone.  For positive conjugates and the SSS the first
    layer is the answer: the climb ends on c with (v^c).power >= low and
    (v^c).sup() <= high.  So v^c is positive when low = 0.  For the SSS, v^c
    has N inf_N >= low and N sup_N <= high, the extremes of the class, so it
    has the seed's canonical length, the least in the class, and `member`
    holds at once: one member test per atom, and no simple is listed.  For
    the other kinds, let C be the set of positive c with v^c in the summit
    set of v.
      1. tau, conjugation by Delta, is an automorphism fixing Delta^N, so it
         commutes with Delta^N cycling, decycling and powers: the USS and
         the RSSS of v, and the USS of each power v^m, are tau-invariant, and
         Delta lies in C.  C is closed under meets: Gebhardt, J. Algebra 292
         (2005) for the USS, Birman, Gebhardt & Gonzalez-Meneses, Groups
         Geom. Dyn. 1 (2007) for the RSSS.  SU adds finitely many USS
         conditions, (v^m)^c in the USS of v^m, each tau-invariant, and an
         intersection of meet-closed sets holding Delta is one.
      2. So the members of C above s have a least one, rho_s, and
         meet(rho_s, Delta) is a member above s: rho_s = meet(rho_s, Delta)
         is a classical simple.
      3. These summit sets lie in the SSS, so rho_s is in the SSS set of
         conjugators above s, whose least element is c: c =< rho_s =< Delta.
         The layers of the scan are the simples above c of length l(c),
         l(c) + 1, ..., so rho_s lies in the layer of its length.  Every
         member y of a layer is in C above s, so rho_s =< y, and y is
         longer than rho_s unless y = rho_s: the first layer with a member
         is that of rho_s and holds rho_s alone.
    Equal labels conjugate v to equal elements, so the minimal labels keep
    their conjugates.  A scan that tries more than ENUMERATION_BUDGET simples
    above one atom raises BudgetExceeded.
    """
    ctx = v.ctx
    arrows = _convex_conjugators(v, low, high)
    for s, (c, w) in enumerate(arrows):
        if not member(w):
            layer, tried, found = [_first_simple(c)], 1, []
            while not found:
                assert layer != [ctx.delta], "every atom admits a minimal conjugator (Delta works)"
                layer = _structure_simples(ctx, layer)
                tried += len(layer)
                if tried > ENUMERATION_BUDGET:
                    raise BudgetExceeded(f"the scan above s{s + 1} tried more than "
                                         f"{ENUMERATION_BUDGET} simples")
                ys = [GroupElement.from_simple(ctx, y) for y in layer]
                found = [(y, x) for y in ys if member(x := v.conjugate_by(y))]
            assert len(found) == 1, "minimal conjugator above an atom must be unique"
            arrows[s] = found[0]
    target = dict(arrows)
    return [(y, target[y]) for y in _minimal([y for y, _ in arrows])]


def _minimal(rho: list[GroupElement]) -> list[GroupElement]:
    """The minimal elements of the labels rho_s, one per atom s, first
    occurrences in atom order, with no group product.

    Each rho_s is the least element above s of one set of conjugators closed
    under meets: those c for which v^c stays in the summit set.  The sets are
    meet-closed for positive conjugates and the SSS (`_convex_conjugators`),
    the USS (Gebhardt, J. Algebra 292 (2005)) and the RSSS (Birman, Gebhardt &
    Gonzalez-Meneses, Groups Geom. Dyn. 1 (2007)); SU adds finitely many USS
    conditions, (v^m)^c in the USS of v^m, and an intersection of meet-closed
    sets is one.  So rho_t is minimal exactly when rho_s = rho_t for every
    atom s =< rho_t, the left descents of its first simple factor:
      if some rho_u < rho_t, then u =< rho_u =< rho_t and rho_u != rho_t;
      if s =< rho_t, then rho_s =< rho_t, rho_t being in the set above s, so
      rho_s != rho_t means rho_s < rho_t.
    """
    ldesc = rho[0].ctx.ldescs
    return list(dict.fromkeys(
        y for y in rho
        if all(z == y for s, z in enumerate(rho) if ldesc[_first_simple(y)] >> s & 1)
    ))


def _convex_conjugators(v: GroupElement, low,
                        high) -> list[tuple[GroupElement, GroupElement]]:
    """For each atom s, rho_s, the least c >= s (prefix order) with
    (v^c).power >= low and (v^c).sup() <= high: the labels of positive
    conjugates or of the SSS above the atoms, one per atom, each with the
    conjugate v^rho_s that its climb ends on.

    Positive conjugates take (0, inf), and the super summit set (N inf_N,
    N sup_N) of any of its elements, the extremes of the class: inf_N(u) >= p
    iff u.power >= N p, and sup_N(u) <= q iff u.sup() <= N q (Franco &
    Gonzalez-Meneses, J. Algebra 266 (2003)).  Let m = low and M = high;
    tau^m is conjugation by Delta^m.  For the inf condition, let x =
    Delta^-m v, a positive element.
      (a) (v^c).power >= m iff Delta^-m v^c = tau^m(c)^-1 x c is positive,
          that is, iff tau^m(c) =< x c.  The set I of such c is closed under
          meets, since tau^m preserves them: tau^m(meet(a, b)) =
          meet(tau^m(a), tau^m(b)) =< meet(x a, x b) = x meet(a, b).  It
          holds Delta, whose conjugation tau keeps power and sup.
      (b) The step: with Delta^-m v^c = P Q^-1 in pn-normal form, c' = c Q.
          tau^m(c) P = x c Q is the least common multiple of tau^m(c) and
          x c: any common multiple tau^m(c) a = x c b writes Delta^-m v^c as
          a b^-1, so a = P d and b = Q d for a positive d (P and Q share no
          suffix).  If c =< rho for some rho in I, then tau^m(c) =<
          tau^m(rho) =< x rho and x c =< x rho, so x c Q =< x rho and c' =<
          rho.
      (c) c' >= c, and c' = c exactly when Q = 1, that is, when c is in I.
    (v^c).sup() <= M iff (v^c)^-1 = (v^-1)^c has power >= -M, so the sup
    condition is (a)-(c) for v^-1 and -M: its step reads Q off Delta^M
    (v^c)^-1, and its set S is closed under meets and holds Delta.
    Positive conjugates are the case m = 0, with no sup condition (M
    infinite, S every c).
    For an atom s, the members of I and S above s are closed under meets, so
    they have a least one, rho_s, and rho_s =< Delta, since meet(y, Delta) is
    such a member for every such y: a classical simple, a Delta^N simple for
    every N.  From c = s, take the step of a condition that c fails until it
    fails neither.  By (b) every c stays =< rho_s, by (c) each step grows
    it, so the chain stops, in I and S, on rho_s.  The steps run on the
    conjugate itself, v^(c Q) = (v^c)^Q, so each is one conjugation by Q and
    one pn cut that builds Q alone, and the chain ends holding v^rho_s.
    """
    ctx = v.ctx
    rho = []
    for s in range(ctx.rank):
        c = GroupElement.generator(ctx, s)
        w = v.conjugate_by(c)
        while True:
            if w.power < low:
                q = _pn_negative(w.shift(-low))
            elif w.sup() > high:
                q = _pn_negative(w.inverse().shift(high))
            else:
                break
            w, c = w.conjugate_by(q), c * q
        rho.append((c, w))
    return rho


class SummitGraph(_Value):
    """The directed graph of a summit set: vertices are the elements of the
    set, arrows the minimal positive conjugators between them, and every
    vertex carries a witness conjugating the base element to it."""

    __slots__ = ("kind", "structure", "base", "vertices", "arrows", "witnesses", "metadata")

    def __init__(self, kind: SummitKind, structure: GarsideStructure, base: GroupElement,
                 vertices: list[GroupElement], arrows: list[tuple[int, int, GroupElement]],
                 witnesses: list[GroupElement], metadata: dict | None = None) -> None:
        self.kind, self.structure, self.base = kind, structure, base
        self.vertices, self.arrows, self.witnesses = vertices, arrows, witnesses
        self.metadata = {} if metadata is None else metadata

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "structureExponent": self.structure.exponent,
            "base": format_element(self.base),
            "vertices": [format_element(v) for v in self.vertices],
            "arrows": [
                {"from": a, "to": b, "label": format_positive(label)}
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
            lines.append(f'    v{a} -> v{b} [label="{format_positive(label)}"];')
        lines.append("}")
        return "\n".join(lines)


def compute_summit_graph(
    u: GroupElement,
    kind: SummitKind,
    structure: GarsideStructure | None = None,
    power_bound: int = 4,
) -> SummitGraph:
    """Compute the full minimal-conjugator graph of the chosen summit set.

    Every kind takes its seed from `summit_seed` and its arrows from
    `_minimal_conjugators`, with bounds on power and sup read once off the
    seed: a climb from each atom by convexity, then, for USS, RSSS and SU,
    a scan by word length of the simples above the SSS label; no element of
    W is listed.  Each label comes back with the conjugate v^label that the
    climb or the scan ended on, which is the arrow's target, so no arrow
    conjugates v again.  Equal labels are one object per graph.  A summit
    set of more than ENUMERATION_BUDGET vertices raises BudgetExceeded.
    """
    structure = structure or GarsideStructure(u.ctx, 1)
    seed, witness = summit_seed(u, kind, structure, power_bound)
    member = summit_membership(kind, structure, seed, power_bound)
    assert member(seed), "seed must land in its own summit set"
    n = structure.exponent
    low, high = ((0, math.inf) if kind is SummitKind.POSITIVE_CONJUGATES
                 else (n * structure.inf(seed), n * structure.sup(seed)))
    witness_of = {seed: witness}
    raw_arrows = []
    shared: dict = {}
    order = [seed]
    for v in order:  # order grows as the search runs: it is the queue
        for label, w in _minimal_conjugators(v, member, low, high):
            label = shared.setdefault(label, label)
            raw_arrows.append((v, w, label))
            if w not in witness_of:
                witness_of[w] = witness_of[v] * label
                order.append(w)
                if len(order) > ENUMERATION_BUDGET:
                    raise BudgetExceeded(f"the {kind.value} summit set holds more "
                                         f"than {ENUMERATION_BUDGET} vertices")

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
    Delta^N up to a detected stabilization index; returns the element, the
    accumulated conjugator, and the last exponent processed.

    Works up through N = 1, 2, ...; each pass uses only cycling/decycling
    conjugators, which preserve membership in the earlier summit sets, and
    stops once the element beta is unchanged for _I_INFINITY_WINDOW (3)
    exponents past its classical canonical length l; past N = _I_INFINITY_CAP
    (64) it raises.  The stop is proven for u with no positive and no negative
    conjugate, the only u `parabolic_closure` sends here: inf beta < 0 < sup
    beta, so l >= M = max(-inf beta, sup beta).  For N >= M, the Delta^N
    cycling and decycling of beta = Delta^p x_1 ... x_l move Delta^(N+p) x_1
    ... x_-p and x_(-p+1) ... x_l, conjugations by the np parts of beta, which
    depend on N only through a power of tau.  So whether a pass fixes beta does
    not depend on N >= M, and the first unchanged pass past l is final.
    """
    ctx = u.ctx
    beta, *conjs = summit_seed(u, SummitKind.RSSS, GarsideStructure(ctx, 1))
    stable = 0
    for n in range(2, _I_INFINITY_CAP + 1):
        nxt, c = summit_seed(beta, SummitKind.RSSS, GarsideStructure(ctx, n))
        conjs.append(c)
        if nxt != beta:
            beta, stable = nxt, 0
        elif n > beta.canonical_length():
            stable += 1
        if stable >= _I_INFINITY_WINDOW:
            return beta, _product(ctx, conjs), n
    raise GarsideError("summit stabilization did not settle within the cap")


# ------------------------------------------------------------------ transport


class TransportRecord(_FrozenValue):
    """Data of one full transport cycle: x conjugates v to w, both in the
    ultra summit set, and after orbit_period transports the triple returns."""

    __slots__ = ("v", "w", "x", "orbit_period")

    def __init__(self, v: GroupElement, w: GroupElement, x: GroupElement,
                 orbit_period: int) -> None:
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "orbit_period", orbit_period)


def transport(v: GroupElement, w: GroupElement, x: GroupElement,
              structure: GarsideStructure):
    """One transport step: (c(v), c(w), iota(v)^-1 x iota(w))."""
    cv, iv = cycling(v, structure)
    cw, iw = cycling(w, structure)
    return cv, cw, _product(v.ctx, (iv.inverse(), x, iw))


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

    def step(triple, structure):
        cv, cw, cx = transport(*triple, structure)
        assert cv.conjugate_by(cx) == cw, "transports must keep conjugating"
        return cv, cw, cx

    trail, j = _orbit((v, w, x), structure, step)
    if j != 0:
        raise GarsideError("transport orbit does not return to its start")
    return TransportRecord(v, w, x, len(trail))


def cycling_conjugator_product(v: GroupElement, t: int,
                               structure: GarsideStructure) -> GroupElement:
    """Product of the conjugating elements of t consecutive cyclings of v."""
    cur, conjs = v, []
    for _ in range(t):
        cur, c = cycling(cur, structure)
        conjs.append(c)
    return _product(v.ctx, conjs)


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
    assert cv.conjugate_by(x) == cw, "stable conjugator must transport exactly"
    assert cv * v == v * cv, "stable conjugator must commute with its base"
    assert cw * w == w * cw, "stable conjugator must commute with its base"
    return m, cv, cw


# ------------------------------------------------------- arrow classification


class ArrowType(_FrozenValue):
    """Classification of an arrow label out of a positive vertex with proper
    support X: inside A_X, a letter commuting with X, or the ribbon of a
    letter adjacent to X."""

    __slots__ = ("kind", "letter")  # kind: "inside" | "commuting-letter" | "ribbon"

    def __init__(self, kind: str, letter: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "letter", letter)


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
