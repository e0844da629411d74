"""Word-level oracles used to validate the engines on small groups.

The oracles compute their answers on words, with one primitive: subword
reversing.  Right reversing rewrites s^-1 t to f(s,t) f(t,s)^-1, where
s f(s,t) = t f(t,s) is the alternating lcm that the Coxeter matrix gives, and
s^-1 s to the empty word, until the word reads p n^-1.  Artin-Tits
presentations are complete for reversing (Dehornoy, J. Algebra 268 (2003))
and reversing terminates in spherical type (Dehornoy et al., Foundations of
Garside Theory, EMS Tracts 22 (2015), ch. II), so reversing u^-1 v ends in
v' u'^-1 with u v' = v u' the least common right multiple of u and v.
Equality, division, the Garside word, np / pn forms, meets and membership in
a parabolic subgroup all come from it; normal forms are rebuilt by greedy
letter-by-letter extraction.  The engine is touched only at the boundary:
`GroupElement.as_signed_word` reads an input's word, and `from_letters` and
`sort_key` build and order the answers.  The search spaces
(signed balls and conjugate parabolic subgroups) come from lattice's
enumerator, which a test checks against the word-by-word definition, and a
subgroup is read by its standardizer's word and its base.  Tables are kept
in the context's memo and die with it.
"""

from __future__ import annotations

from functools import cache

from .coxeter import GroupContext, _Value
from .elements import GroupElement
from .errors import BudgetExceeded, NoMinimumFound
from .lattice import _ball_words, enumerate_parabolics
from .parabolic import ParabolicSubgroup

SignedWord = tuple[tuple[int, int], ...]
PositiveWord = tuple[int, ...]


def _alternating(s: int, t: int, m: int) -> PositiveWord:
    return tuple(s if i % 2 == 0 else t for i in range(m))


def _signed(word: PositiveWord) -> SignedWord:
    return tuple((s, 1) for s in word)


def _inverse(word: SignedWord) -> SignedWord:
    return tuple((s, -e) for s, e in reversed(word))


class WordSystem:
    """Word combinatorics for one presentation, all by subword reversing and
    independent of the element engine: equality, division, np / pn forms and
    greedy normal forms."""

    def __init__(self, ctx: GroupContext):
        self.ctx = ctx
        # f(s, t) with s f(s,t) = t f(t,s) = lcm(s, t); m(s, s) = 1 makes
        # f(s, s) empty, so s^-1 s reverses to nothing.
        f = [[_alternating(t, s, ctx.spec.m(s, t) - 1) for t in range(ctx.rank)]
             for s in range(ctx.rank)]
        # s^-1 t -> f(s,t) f(t,s)^-1 as pushed on reverse's stack of letters
        # still to read, last letter read first; ~x encodes x^-1.
        self._rewrite = [[tuple(~x for x in f[t][s]) + f[s][t][::-1]
                          for t in range(ctx.rank)] for s in range(ctx.rank)]
        delta: PositiveWord = ()
        for s in range(ctx.rank):  # Delta is the lcm of the atoms
            delta += self.reverse(_inverse(_signed(delta)) + ((s, 1),))[0]
        self.delta_word = delta
        self._tau_letter: dict[int, int] = {}
        self._lambda_word: dict[int, PositiveWord] = {}

    def reverse(self, word: SignedWord) -> tuple[PositiveWord, PositiveWord]:
        """Right reversing: positive words (p, n) with word = p n^-1."""
        rewrite = self._rewrite
        p: list[int] = []
        n: list[int] = []  # the letters of n^-1 read so far, as letters of n
        todo = [s if e > 0 else ~s for s, e in reversed(word)]
        while todo:
            x = todo.pop()
            if x < 0:
                n.append(~x)
            elif n:
                todo.extend(rewrite[n.pop()][x])
            else:
                p.append(x)
        return tuple(p), tuple(reversed(n))

    def reverse_left(self, word: SignedWord) -> tuple[PositiveWord, PositiveWord]:
        """Left reversing, the mirror of right reversing: (n, p) with
        word = n^-1 p."""
        p, n = self.reverse(tuple(reversed(word)))
        return n[::-1], p[::-1]

    def equal_positive(self, w1: PositiveWord, w2: PositiveWord) -> bool:
        """Word problem in the positive monoid: w1^-1 w2 reverses to nothing."""
        return self.reverse(_inverse(_signed(w1)) + _signed(w2)) == ((), ())

    def divide_left(self, word: PositiveWord, prefix: PositiveWord):
        """A word for prefix^-1 * word if prefix divides word on the left, else None."""
        p, n = self.reverse(_inverse(_signed(prefix)) + _signed(word))
        return None if n else p

    def divide_right(self, word: PositiveWord, suffix: PositiveWord):
        """A word for word * suffix^-1 if suffix divides word on the right, else None."""
        rest = self.divide_left(tuple(word)[::-1], tuple(suffix)[::-1])
        return None if rest is None else rest[::-1]

    def first_letters(self, word: PositiveWord) -> set[int]:
        return {s for s in range(self.ctx.rank) if self.divide_left(word, (s,)) is not None}

    def tau_letter(self, s: int) -> int:
        """The letter t with s * Delta = Delta * t."""
        out = self._tau_letter.get(s)
        if out is None:
            rest = self.divide_left((s,) + self.delta_word, self.delta_word)
            assert rest is not None and len(rest) == 1
            out = rest[0]
            self._tau_letter[s] = out
        return out

    def lambda_word(self, s: int) -> PositiveWord:
        """A word for Delta * s^-1."""
        out = self._lambda_word.get(s)
        if out is None:
            out = self.divide_right(self.delta_word, (s,))
            assert out is not None
            self._lambda_word[s] = out
        return out

    # ------------------------------------------------- normal forms by words

    def signed_to_pair(self, word: SignedWord) -> tuple[int, PositiveWord]:
        """Rewrite a signed word as Delta^-k * (positive word); Delta divisors
        are stripped as they appear, which keeps the positive part short."""
        k = 0
        w: tuple[int, ...] = ()
        for s, sign in word:
            if sign > 0:
                w = w + (s,)
            else:
                w = tuple(self.tau_letter(x) for x in w) + self.lambda_word(s)
                k += 1
            while k > 0:
                rest = self.divide_left(w, self.delta_word)
                if rest is None:
                    break
                w, k = rest, k - 1
        return k, w

    def is_simple_word(self, word: PositiveWord) -> bool:
        return self.divide_left(self.delta_word, word) is not None

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
                nxt = self.divide_left(rest, (s,))
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
        """(negative part, positive part) as words: right reversing gives
        p n^-1, and left reversing that gives x^-1 y with x y left-coprime,
        since x p = y n is the least common left multiple."""
        p, n = self.reverse(word)
        return self.reverse_left(_signed(p) + _inverse(_signed(n)))

    def pn_form(self, word: SignedWord) -> tuple[PositiveWord, PositiveWord]:
        """(positive part, negative part) as words: left, then right reversing."""
        n, p = self.reverse_left(word)
        return self.reverse(_inverse(_signed(n)) + _signed(p))


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


class Ball(_Value):
    """All distinct elements expressible by signed words of bounded length,
    each with a shortest witnessing word."""

    __slots__ = ("ctx", "radius", "elements", "words")

    def __init__(self, ctx: GroupContext, radius: int, elements: list[GroupElement],
                 words: dict[GroupElement, SignedWord]) -> None:
        self.ctx, self.radius, self.elements, self.words = ctx, radius, elements, words


def ball(ctx: GroupContext, radius: int) -> Ball:
    def build():
        words = _ball_words(ctx, radius)
        return Ball(ctx, radius, sorted(words, key=GroupElement.sort_key), words)
    return _memo(ctx, ("ball", radius), build)


def meet_oracle(u: GroupElement, v: GroupElement, order: str = "prefix") -> GroupElement:
    """Greatest common prefix (or suffix) of u and v, from one np (or pn) form
    of words.

    Let m = u meet v, so u = m n and v = m q with n and q left-coprime.  Then
    u^-1 v = n^-1 q is the np normal form of u^-1 v, which is unique, so
    reversing u^-1 v gives n and m = u n^-1.  In the mirror, u = n m and
    v = q m with n and q right-coprime, u v^-1 = n q^-1 is the pn form, and
    m = n^-1 u.
    """
    ws = word_system(u.ctx)
    a, b = tuple(u.as_signed_word()), tuple(v.as_signed_word())
    if order == "prefix":
        n, _ = ws.np_form(_inverse(a) + b)
        word = a + _inverse(_signed(n))
    else:
        n, _ = ws.pn_form(a + _inverse(b))
        word = _inverse(_signed(n)) + a
    return GroupElement.from_letters(u.ctx, word)


def enumerate_simples(ctx: GroupContext, budget: int = 100_000) -> list[GroupElement]:
    """All divisors of the Garside element, grown letter by letter through
    word-level division of the Delta word.  Each is keyed by its
    lexicographically least word, taken greedily: all positive words of an
    element have one length, so the least letter dividing it on the left
    starts that word.  Raises BudgetExceeded when |W| passes budget."""
    if ctx.coxeter_order > budget:
        raise BudgetExceeded(f"|W| = {ctx.coxeter_order} exceeds budget {budget}")
    ws = word_system(ctx)

    @cache
    def least_word(word: PositiveWord) -> PositiveWord:
        if not word:
            return ()
        for s in range(ctx.rank):
            rest = ws.divide_left(word, (s,))
            if rest is not None:
                return (s,) + least_word(rest)

    rests = {(): ws.delta_word}  # least word of d -> a word for d^-1 Delta
    queue = [()]
    while queue:
        d = queue.pop()
        for s in range(ctx.rank):
            quotient = ws.divide_left(rests[d], (s,))
            if quotient is not None:
                key = least_word(d + (s,))
                if key not in rests:
                    rests[key] = quotient
                    queue.append(key)
    return sorted((GroupElement.from_letters(ctx, _signed(d)) for d in rests),
                  key=GroupElement.sort_key)


# ------------------------------------------------------------------ subgroups


def _contains(P: ParabolicSubgroup, word: SignedWord) -> bool:
    """word lies in P = b A_X b^-1 iff the reduced np form of b^-1 word b,
    found by reversing, uses only letters of X."""
    b = tuple(P.standardizer.as_signed_word())
    x, y = word_system(P.ctx).np_form(_inverse(b) + tuple(word) + b)
    return P.base.issuperset(x + y)


def _includes(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> bool:
    """Q subseteq P, tested on the generators b_Q s b_Q^-1 of Q."""
    b = tuple(Q.standardizer.as_signed_word())
    return all(_contains(P, b + ((s, 1),) + _inverse(b)) for s in Q.base)


def closure_oracle(u: GroupElement, conjugator_bound: int = 3) -> ParabolicSubgroup:
    """The unique minimal enumerated parabolic subgroup containing u; raises
    NoMinimumFound when the bounded enumeration has no single minimum.

    The answer is exact only when PC(u) = g A_X g^-1 for some g of signed
    length <= conjugator_bound; otherwise it can return a larger subgroup as
    the unique minimum, with nothing to tell the two cases apart."""
    ctx = u.ctx
    # u is conjugated by every listed standardizer: reduce its word once
    x, y = word_system(ctx).np_form(tuple(u.as_signed_word()))
    word = _inverse(_signed(x)) + _signed(y)
    containing = [
        P for P in _memo(ctx, ("parabolics", conjugator_bound),
                         lambda: enumerate_parabolics(ctx, conjugator_bound))
        if _contains(P, word)
    ]
    minimal = [
        P for P in containing
        if not any(Q is not P and _includes(P, Q) for Q in containing)
    ]
    if len(minimal) != 1:
        raise NoMinimumFound(
            f"{len(minimal)} minimal subgroups among {len(containing)} containing ones"
        )
    return minimal[0]


def _ball_membership(P: ParabolicSubgroup, radius: int) -> list[bool]:
    b = ball(P.ctx, radius)
    return _memo(P.ctx, ("membership", radius, P.z),
                 lambda: [_contains(P, b.words[u]) for u in b.elements])


def intersect_oracle(P: ParabolicSubgroup, Q: ParabolicSubgroup,
                     radius: int = 5) -> list[GroupElement]:
    """Every ball element lying in both subgroups."""
    elements = ball(P.ctx, radius).elements
    in_p = _ball_membership(P, radius)
    in_q = _ball_membership(Q, radius)
    return [u for u, a, b in zip(elements, in_p, in_q) if a and b]
