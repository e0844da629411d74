"""Brute-force oracles used to validate the engines on small groups.

The oracles recompute their answers at the level of words wherever they can:
multiplication is concatenation, two positive words are compared by
exhaustively applying defining relations, divisibility is a search for a
rewriting that starts (or ends) with a given letter, and normal forms are
rebuilt by greedy letter-by-letter extraction.  The search spaces (signed
balls and conjugate parabolic subgroups) come from lattice's enumerator, which
a test checks against the word-by-word definition.  A few engine pieces are
shared: `closure_oracle` and `intersect_oracle` decide membership with
`contains_element` (the np cut plus `support`), `brute_meet` and
`enumerate_simples` multiply through the engine's normal form, and
`brute_meet` orders divisors with `prefix_le` / `suffix_le`.  Tables are kept
in the context's memo and die with it.

The word searches are budget-bounded and raise BudgetExceeded rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import GroupContext
from .elements import GroupElement, prefix_le, suffix_le
from .errors import BudgetExceeded, NoMinimumFound
from .lattice import _ball_words, enumerate_parabolics
from .parabolic import ParabolicSubgroup, contains_element, contains_subgroup

_CLOSURE_CAP = 500_000

SignedWord = tuple[tuple[int, int], ...]
PositiveWord = tuple[int, ...]


def _alternating(s: int, t: int, m: int) -> PositiveWord:
    return tuple(s if i % 2 == 0 else t for i in range(m))


class WordSystem:
    """Positive-word combinatorics for one presentation: rewriting, equality,
    division and greedy normal forms, all independent of the element engine."""

    def __init__(self, ctx: GroupContext):
        self.ctx = ctx
        self.rules: list[tuple[PositiveWord, PositiveWord]] = []
        for s in range(ctx.rank):
            for t in range(s + 1, ctx.rank):
                m = ctx.spec.m(s, t)
                self.rules.append((_alternating(s, t, m), _alternating(t, s, m)))
                self.rules.append((_alternating(t, s, m), _alternating(s, t, m)))
        self.delta_word: PositiveWord = ctx.w_word(ctx.delta)
        self._tau_letter: dict[int, int] = {}
        self._lambda_word: dict[int, PositiveWord] = {}

    def neighbors(self, word: PositiveWord):
        for lhs, rhs in self.rules:
            k = len(lhs)
            for i in range(len(word) - k + 1):
                if word[i:i + k] == lhs:
                    yield word[:i] + rhs + word[i + k:]

    def _search(self, word: PositiveWord, goal, cap: int = _CLOSURE_CAP):
        """BFS over the rewriting class of `word` until `goal` hits."""
        hit = goal(word)
        if hit is not None:
            return hit
        seen = {word}
        frontier = [word]
        while frontier:
            nxt = []
            for w in frontier:
                for w2 in self.neighbors(w):
                    if w2 in seen:
                        continue
                    hit = goal(w2)
                    if hit is not None:
                        return hit
                    seen.add(w2)
                    nxt.append(w2)
                    if len(seen) > cap:
                        raise BudgetExceeded("word rewriting closure outgrew its cap")
            frontier = nxt
        return None

    def equal_positive(self, w1: PositiveWord, w2: PositiveWord) -> bool:
        """Word problem in the positive monoid, solved by exhaustive rewriting."""
        w1, w2 = tuple(w1), tuple(w2)
        if len(w1) != len(w2):
            return False
        return self._search(w1, lambda w: True if w == w2 else None) is True

    def divide_left(self, word: PositiveWord, s: int):
        """A word for s^-1 * word if s divides word on the left, else None."""
        return self._search(
            tuple(word), lambda w: w[1:] if w and w[0] == s else None
        )

    def divide_right(self, word: PositiveWord, s: int):
        return self._search(
            tuple(word), lambda w: w[:-1] if w and w[-1] == s else None
        )

    def divide_left_by_word(self, word: PositiveWord, prefix: PositiveWord):
        rest = tuple(word)
        for s in prefix:
            rest = self.divide_left(rest, s)
            if rest is None:
                return None
        return rest

    def first_letters(self, word: PositiveWord) -> set[int]:
        return {s for s in range(self.ctx.rank) if self.divide_left(word, s) is not None}

    def tau_letter(self, s: int) -> int:
        """The letter t with s * Delta = Delta * t."""
        out = self._tau_letter.get(s)
        if out is None:
            rest = self.divide_left_by_word((s,) + self.delta_word, self.delta_word)
            assert rest is not None and len(rest) == 1
            out = rest[0]
            self._tau_letter[s] = out
        return out

    def lambda_word(self, s: int) -> PositiveWord:
        """A word for Delta * s^-1."""
        out = self._lambda_word.get(s)
        if out is None:
            out = self.divide_right(self.delta_word, s)
            assert out is not None
            self._lambda_word[s] = out
        return out

    # ------------------------------------------------- normal forms by words

    def signed_to_pair(self, word: SignedWord) -> tuple[int, PositiveWord]:
        """Rewrite a signed word as Delta^-k * (positive word), with k as
        small as word-level division can make it.

        The positive part is kept short by stripping Delta divisors as they
        appear; otherwise its rewriting class quickly becomes too large to
        search."""
        k = 0
        w: tuple[int, ...] = ()
        for s, sign in word:
            if sign > 0:
                w = w + (s,)
            else:
                w = tuple(self.tau_letter(x) for x in w) + self.lambda_word(s)
                k += 1
            while k > 0:
                rest = self.divide_left_by_word(w, self.delta_word)
                if rest is None:
                    break
                w, k = rest, k - 1
        return k, w

    def is_simple_word(self, word: PositiveWord) -> bool:
        return self.divide_left_by_word(self.delta_word, word) is not None

    def greatest_simple_prefix(self, word: PositiveWord):
        """Greedy extraction of the maximal simple prefix; returns (prefix, rest)."""
        f: list[int] = []
        rest = tuple(word)
        grown = True
        while grown and rest:
            grown = False
            for s in range(self.ctx.rank):
                if not self.is_simple_word(tuple(f) + (s,)):
                    continue
                nxt = self.divide_left(rest, s)
                if nxt is not None:
                    f.append(s)
                    rest = nxt
                    grown = True
                    break
        return tuple(f), rest

    def left_normal_form(self, word: SignedWord) -> tuple[int, list[PositiveWord]]:
        """(delta power, factor words), rebuilt greedily from scratch."""
        k, w = self.signed_to_pair(word)
        factors: list[PositiveWord] = []
        while w:
            f, w = self.greatest_simple_prefix(w)
            factors.append(f)
        p = -k
        while factors and len(factors[0]) == len(self.delta_word):
            factors.pop(0)
            p += 1
        return p, factors

    def np_form(self, word: SignedWord) -> tuple[PositiveWord, PositiveWord]:
        """(negative part, positive part) as words, by middle cancellation."""
        k, y = self.signed_to_pair(word)
        x = self.delta_word * k
        stripped = True
        while stripped:
            stripped = False
            for s in range(self.ctx.rank):
                y2 = self.divide_left(y, s)  # probe the short side first
                if y2 is None:
                    continue
                x2 = self.divide_left(x, s)
                if x2 is None:
                    continue
                x, y = x2, y2
                stripped = True
                break
        return x, y

    def pn_form(self, word: SignedWord) -> tuple[PositiveWord, PositiveWord]:
        """(positive part, negative part) as words, via word reversal."""
        rev = tuple(reversed(word))
        x, y = self.np_form(rev)
        return tuple(reversed(y)), tuple(reversed(x))


def _memo(ctx: GroupContext, key, build):
    """ctx.memo[key], built on first use; it is freed with the context."""
    if key not in ctx.memo:
        ctx.memo[key] = build()
    return ctx.memo[key]


def word_system(ctx: GroupContext) -> WordSystem:
    return _memo(ctx, "word_system", lambda: WordSystem(ctx))


def symmetric_group_image(ctx: GroupContext, word: SignedWord):
    """Projection to the symmetric group with the letter count, for contexts of
    pure braid type; a necessary condition for equality of positive words."""
    assert all(t[0] == "A" for t in ctx.component_types), "type-A contexts only"
    n = ctx.rank + len(ctx.component_types)
    perm = list(range(n))
    offsets = []
    base = 0
    for comp, (_, r, _) in zip(ctx.components_of_s, ctx.component_types):
        for pos, s in enumerate(sorted(comp)):
            offsets.append((s, base + pos))
        base += r + 1
    slot = dict(offsets)
    for s, _ in word:
        i = slot[s]
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm), len(word)


# ------------------------------------------------------------------- elements


@dataclass
class Ball:
    """All distinct elements expressible by signed words of bounded length,
    each with a shortest witnessing word."""

    ctx: GroupContext
    radius: int
    elements: list[GroupElement]
    words: dict[GroupElement, SignedWord]


def ball(ctx: GroupContext, radius: int) -> Ball:
    def build():
        words = _ball_words(ctx, radius)
        return Ball(ctx, radius, sorted(words, key=GroupElement.sort_key), words)
    return _memo(ctx, ("ball", radius), build)


def brute_meet(u: GroupElement, v: GroupElement, order: str = "prefix",
               budget: int = 200_000) -> GroupElement:
    """Greatest common prefix (or suffix), found as the maximum of the
    exhaustively enumerated set of common divisors.

    A common power of the Garside element divides both operands and the meet,
    so after shifting by it both operands are positive and every remaining
    common divisor is positive; those form a finite set closed under letter
    chains from the identity, which a breadth-first search enumerates
    completely.  No approximation is involved.
    """
    ctx = u.ctx
    k = min(u.power, v.power, 0)
    if order == "prefix":
        cap_u, cap_v = u.shift(-k), v.shift(-k)
        le = prefix_le
        extend = lambda d, g: d * g
        assemble = lambda m: m.shift(k)
    else:
        cap_u = u * GroupElement.delta_power(ctx, -k)
        cap_v = v * GroupElement.delta_power(ctx, -k)
        le = suffix_le
        extend = lambda d, g: g * d
        assemble = lambda m: m * GroupElement.delta_power(ctx, k)
    gens = [GroupElement.generator(ctx, i) for i in range(ctx.rank)]
    common = {GroupElement.identity(ctx)}
    frontier = list(common)
    while frontier:
        nxt = []
        for d in frontier:
            for g in gens:
                c = extend(d, g)
                if c not in common and le(c, cap_u) and le(c, cap_v):
                    common.add(c)
                    nxt.append(c)
                    if len(common) > budget:
                        raise BudgetExceeded("common-divisor enumeration outgrew budget")
        frontier = nxt
    best = None
    for c in sorted(common, key=GroupElement.sort_key):
        if best is None or le(best, c):
            best = c
    assert all(le(c, best) for c in common), "common divisors must have a maximum"
    return assemble(best)


def enumerate_simples(ctx: GroupContext, budget: int = 100_000) -> list[GroupElement]:
    """All divisors of the Garside element, grown letter by letter through
    word-level division; the element engine only deduplicates.

    F4 is out of reach although |W| = 1152: the rewriting class of its
    24-letter Delta word outgrows _CLOSURE_CAP, and BudgetExceeded is raised."""
    if ctx.coxeter_order > budget:
        raise BudgetExceeded(f"|W| = {ctx.coxeter_order} exceeds budget {budget}")
    ws = word_system(ctx)
    identity = GroupElement.identity(ctx)
    out: dict[GroupElement, PositiveWord] = {identity: ()}
    queue: list[tuple[GroupElement, PositiveWord, PositiveWord]] = [
        (identity, (), ws.delta_word)
    ]
    while queue:
        elt, prefix, rest = queue.pop()
        for s in ws.first_letters(rest):
            nxt = elt * GroupElement.generator(ctx, s)
            if nxt in out:
                continue
            out[nxt] = prefix + (s,)
            queue.append((nxt, prefix + (s,), ws.divide_left(rest, s)))
    return sorted(out, key=GroupElement.sort_key)


# ------------------------------------------------------------------ subgroups


def closure_oracle(u: GroupElement, conjugator_bound: int = 3) -> ParabolicSubgroup:
    """The unique minimal enumerated parabolic subgroup containing u; raises
    NoMinimumFound when the bounded enumeration has no single minimum.

    The answer is exact only when PC(u) = g A_X g^-1 for some g of signed
    length <= conjugator_bound; otherwise it can return a larger subgroup as
    the unique minimum, with nothing to tell the two cases apart."""
    ctx = u.ctx
    containing = [
        P for P in _memo(ctx, ("parabolics", conjugator_bound),
                         lambda: enumerate_parabolics(ctx, conjugator_bound))
        if contains_element(P, u)
    ]
    minimal = [
        P for P in containing
        if not any(Q is not P and P != Q and contains_subgroup(P, Q) for Q in containing)
    ]
    if len(minimal) != 1:
        raise NoMinimumFound(
            f"{len(minimal)} minimal subgroups among {len(containing)} containing ones"
        )
    return minimal[0]


def _ball_membership(P: ParabolicSubgroup, radius: int) -> list[bool]:
    return _memo(P.ctx, ("membership", radius, P.z),
                 lambda: [contains_element(P, u) for u in ball(P.ctx, radius).elements])


def intersect_oracle(P: ParabolicSubgroup, Q: ParabolicSubgroup,
                     radius: int = 5) -> list[GroupElement]:
    """Every ball element lying in both subgroups."""
    elements = ball(P.ctx, radius).elements
    in_p = _ball_membership(P, radius)
    in_q = _ball_membership(Q, radius)
    return [u for u, a, b in zip(elements, in_p, in_q) if a and b]
