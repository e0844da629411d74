"""Arithmetic and normal forms for elements of a spherical-type Artin-Tits group.

An element is stored once and for all in classical left normal form: a power
of the Garside element Delta plus a tuple of simple factors (ids of Coxeter
group elements), consecutive factors satisfying the left-greedy condition.
Views with respect to the derived Garside structures with Garside element
Delta^N are computed on demand and never stored, so equality is always a
comparison of classical forms.  Parsed words, powers, conjugates and
conjugator products are normalized once, not once per factor or operand:
`_product` is the one n-ary constructor, and `_conjugate` builds g^-1 u g
the same way from g's complements, with no element g^-1.  `_normalize` makes
that form in one sweep and moves each Delta it meets straight into the
power, twisting each factor once by the parity of the Deltas to its right.

The mixed normal forms are cuts of the left normal form, and so are the
lattice operations: a prefix meet or join of u and v is read off the np or
pn form of the one quotient u^-1 v, a suffix join off the np form of v u^-1,
and the suffix meet goes through the word-reversing anti-automorphism.  The
support, the letters of the np form, needs no cut: `support` reads it off
the context's support table, factor by factor, and builds no element.
"""

from __future__ import annotations

import re

from .coxeter import GeneratorSet, GroupContext, _FrozenValue
from .errors import ContextMismatch, NotSimple, ParseError

_TOKEN_RE = re.compile(r"s(\d+)(\^-1)?")
_DELTA_RE = re.compile(r"(?:Δ|D)\^(-?\d+)")


def _normalize(ctx: GroupContext, power: int, factors) -> tuple[int, tuple[int, ...]]:
    """Left normal form by the one-sweep algorithm (Epstein et al., ch. 9): append
    each factor, then left-weight pairs from the right end up to the first pair
    (x, y) already left-weighted, i.e. with ldesc(y) inside rdesc(x).  Trailing
    identities drop.  Each step (x, y) -> (x d, d^-1 y), d the meet of
    x^-1 Delta and y, is one memo read: of the context's step table, row x,
    or, when y divides x^-1 Delta, so that d = y and the step is the reduced
    product (x y, 1), of the product row of x.  x y is reduced iff
    l(x y) = l(x) + l(y), so a product row entry that fails that test is no
    step.  `GroupContext._step` makes the step on a miss of both.

    The list never holds Delta: a Delta joins the power as soon as it appears,
    appended as a factor or formed by a step x * d = Delta, and the factors
    a_1 ... a_j before it are twisted, since a_1 ... a_j Delta =
    Delta tau(a_1) ... tau(a_j) (El-Rifai & Morton, 1994).  tau is an
    automorphism of W that maps the generators to the generators, so
    rdesc(tau(a)) = tau(rdesc(a)) and ldesc(tau(a)) = tau(ldesc(a)): the
    twisted prefix is still left-weighted.  The pairs right of the Delta are
    those the sweep has already left-weighted, so the one pair in doubt is
    (tau(a_j), y'), and the sweep goes on from it as from any other.  Every
    pair ends left-weighted, so the result is the unique left normal form;
    the plain sweep reaches it too, walking Delta to the front one
    left-weighting step (a, Delta) -> (Delta, tau(a)) at a time.

    No hoist twists the prefix.  The list is kept in the frame of the Deltas
    hoisted so far: with h of them, it holds tau^h of the true factors.  A
    hoist twists the true prefix and the frame alike, so the prefix stays as
    it is, and only the factors right of the Delta, those this sweep has
    written, are twisted back; an appended factor enters the frame with one
    twist, and the result leaves it with one.  The left-weighting step
    commutes with tau, so the sweep runs on the frame unchanged.  tau has
    order 1 or 2, so the frame is tau^(h mod 2)."""
    e, delta, ldesc, rdesc = ctx.identity, ctx.delta, ctx.ldescs, ctx.rdescs
    rows, tails, muls, length = ctx._step_rows, ctx._step_tails, ctx._mul_rows, ctx.lengths
    tau = ctx.w_tau if ctx.tau_order != 1 else None
    odd = False  # the parity of the hoisted Deltas, when tau has order 2
    fs: list[int] = []
    for f in factors:
        if f == e:
            continue
        if f == delta:
            power += 1
            odd = tau is not None and not odd
            continue
        fs.append(tau(f) if odd else f)
        i = len(fs) - 1
        while i > 0 and ldesc[fs[i]] & ~rdesc[fs[i - 1]]:
            x, y = fs[i - 1], fs[i]
            row = rows[x]
            xd = None if row is None else row.get(y)
            if xd is not None:
                fs[i] = tails[x][y]
            else:
                row = muls[x]
                xd = None if row is None else row.get(y)
                if xd is not None and length[xd] == length[x] + length[y]:
                    fs[i] = e  # a reduced product: y divides x^-1 Delta
                else:
                    xd, fs[i] = ctx._step(x, y)
            i -= 1
            if xd == delta:
                power += 1
                del fs[i]
                if tau is not None:
                    odd = not odd
                    fs[i:] = [g if g == e else tau(g) for g in fs[i:]]
            else:
                fs[i] = xd
        while fs and fs[-1] == e:
            fs.pop()
    return power, tuple(map(tau, fs) if odd else fs)


def _product(ctx: GroupContext, elements) -> "GroupElement":
    """x_1 ... x_n from a list or tuple, with one normalization: each factor
    list is twisted by the Delta powers to its right."""
    total = shift = sum(x.power for x in elements)
    parts: list[int] = []
    for x in elements:
        shift -= x.power
        parts.extend(_twisted(ctx, x.factors, shift))
    return GroupElement(ctx, total, parts)


def _twisted(ctx: GroupContext, factors, k: int):
    """The factors twisted by tau^k."""
    return map(ctx.w_tau, factors) if k % ctx.tau_order else factors


def _inverse_factors(g: "GroupElement", shift: int = 0) -> list[int]:
    """The factors of g^-1 twisted by tau^shift: g's complements, reversed and
    twisted, are left-weighted (El-Rifai & Morton, 1994)."""
    ctx, a, fs = g.ctx, g.power, g.factors
    return [ctx.w_tau_pow(ctx.w_lcomp(fs[j]), shift - j - a) for j in range(len(fs) - 1, -1, -1)]


def _conjugate(u: "GroupElement", g: "GroupElement", inverse_first: bool = True) -> "GroupElement":
    """g^-1 u g, or g u g^-1 when not inverse_first, with one normalization as
    in `_product`.  g^-1 is never built: its power and its twisted complements
    go straight into the factor list.  Elements are immutable, so conjugation
    by the identity returns u itself."""
    if not g.power and not g.factors:
        return u
    ctx, p, q = u.ctx, g.power, -g.power - len(g.factors)  # q: the power of g^-1
    if inverse_first:
        parts = [*_inverse_factors(g, u.power + p), *_twisted(ctx, u.factors, p), *g.factors]
    else:
        parts = [*_twisted(ctx, g.factors, u.power + q), *_twisted(ctx, u.factors, q),
                 *_inverse_factors(g)]
    return GroupElement(ctx, p + u.power + q, parts)


class GroupElement:
    """An element of A_S in classical left normal form Delta^p x_1 ... x_r."""

    __slots__ = ("ctx", "power", "factors")

    def __init__(self, ctx: GroupContext, power: int = 0, factors=(), *, normalized: bool = False):
        self.ctx = ctx
        if normalized:
            self.power, self.factors = power, tuple(factors)
        else:
            self.power, self.factors = _normalize(ctx, power, factors)

    # ----------------------------------------------------------- constructors

    @staticmethod
    def identity(ctx: GroupContext) -> "GroupElement":
        return GroupElement(ctx, 0, (), normalized=True)

    @staticmethod
    def generator(ctx: GroupContext, i: int) -> "GroupElement":
        if not 0 <= i < ctx.rank:
            raise ParseError(f"generator index {i} out of range")
        return GroupElement(ctx, 0, (ctx.gens[i],), normalized=True)

    @staticmethod
    def delta_power(ctx: GroupContext, k: int = 1) -> "GroupElement":
        return GroupElement(ctx, k, (), normalized=True)

    @staticmethod
    def from_simple(ctx: GroupContext, wid: int) -> "GroupElement":
        if wid == ctx.identity:
            return GroupElement.identity(ctx)
        if wid == ctx.delta:
            return GroupElement.delta_power(ctx, 1)
        return GroupElement(ctx, 0, (wid,), normalized=True)

    @staticmethod
    def from_letters(ctx: GroupContext, letters) -> "GroupElement":
        """Build from a signed word: an iterable of (generator index, +-1).

        Each maximal run of same-sign letters that stays reduced in W is one
        simple: s_1 ... s_k grows by s while s is no right descent, and
        s_1^-1 ... s_k^-1 = (s_k ... s_1)^-1 = Delta^-1 lcomp(s_k ... s_1)
        grows while s is no left descent of s_k ... s_1.  The factors, one per
        run, are twisted by the Delta powers to their right and normalized
        once, as in `_product`."""
        gens, mul, rank, ldesc, rdesc = ctx.gens, ctx.w_mul, ctx.rank, ctx.ldescs, ctx.rdescs
        runs: list[tuple[int, int]] = []  # (sign, W element of the run)
        sign = run = 0
        for i, e in letters:
            if not 0 <= i < rank:
                GroupElement.generator(ctx, i)  # raises ParseError
            if e > 0:
                if sign > 0 and not rdesc[run] >> i & 1:
                    run = mul(run, gens[i])
                    continue
                e = 1
            else:
                if sign < 0 and not ldesc[run] >> i & 1:
                    run = mul(gens[i], run)
                    continue
                e = -1
            if sign:
                runs.append((sign, run))
            sign, run = e, gens[i]
        if sign:
            runs.append((sign, run))
        total = shift = -sum(1 for e, _ in runs if e < 0)
        parts: list[int] = []
        for e, run in runs:
            if e < 0:
                shift += 1
                run = ctx.w_lcomp(run)
            parts.append(ctx.w_tau(run) if shift % ctx.tau_order else run)
        return GroupElement(ctx, total, parts)

    # ------------------------------------------------------------- invariants

    def inf(self) -> int:
        return self.power

    def canonical_length(self) -> int:
        return len(self.factors)

    def sup(self) -> int:
        return self.power + len(self.factors)

    def is_identity(self) -> bool:
        return self.power == 0 and not self.factors

    def is_positive(self) -> bool:
        return self.power >= 0

    def is_simple(self) -> bool:
        """Simple for the classical structure: a positive prefix of Delta."""
        return self.is_positive() and self.sup() <= 1

    def simple_id(self) -> int:
        """The Coxeter element realizing this classical simple element."""
        if not self.is_simple():
            raise NotSimple(f"{self} is not simple for the classical structure")
        return _first_simple(self)

    # ------------------------------------------------------------- arithmetic

    def _require_same(self, other: "GroupElement") -> None:
        if self.ctx is not other.ctx:
            raise ContextMismatch("elements belong to different group contexts")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._require_same(other)
        return _product(self.ctx, (self, other))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.ctx, -self.power - len(self.factors),
                            _inverse_factors(self), normalized=True)

    def __pow__(self, m: int) -> "GroupElement":
        base = self if m >= 0 else self.inverse()
        return _product(self.ctx, [base] * abs(m))

    def conjugate_by(self, g: "GroupElement") -> "GroupElement":
        """g^-1 * self * g, normalized once."""
        self._require_same(g)
        return _conjugate(self, g)

    def shift(self, k: int) -> "GroupElement":
        """Left multiplication by Delta^k (the normal form just shifts)."""
        return GroupElement(self.ctx, self.power + k, self.factors, normalized=True)

    def tau(self, k: int = 1) -> "GroupElement":
        """Conjugation by Delta^k."""
        ctx = self.ctx
        return GroupElement(
            ctx, self.power, tuple(ctx.w_tau_pow(f, k) for f in self.factors), normalized=True
        )

    def reverse(self) -> "GroupElement":
        """The word-reversing anti-automorphism (reverse any representing word)."""
        ctx, p = self.ctx, self.power
        return GroupElement(ctx, p, [ctx.w_tau_pow(ctx.w_inv(f), p) for f in self.factors[::-1]])

    # ------------------------------------------------------------ comparisons

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.ctx is other.ctx
            and self.power == other.power
            and self.factors == other.factors
        )

    def __hash__(self) -> int:
        return hash((self.power, self.factors))

    def sort_key(self):
        ctx = self.ctx
        return (self.power, len(self.factors), tuple(ctx.w_word(f) for f in self.factors))

    # ------------------------------------------------------------- formatting

    def factor_words(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.ctx.w_word(f) for f in self.factors)

    def as_signed_word(self) -> list[tuple[int, int]]:
        """A signed word (generator, sign) representing this element."""
        ctx = self.ctx
        out: list[tuple[int, int]] = []
        dword = ctx.w_word(ctx.delta)
        if self.power > 0:
            out.extend((s, 1) for _ in range(self.power) for s in dword)
        elif self.power < 0:
            out.extend((s, -1) for _ in range(-self.power) for s in reversed(dword))
        for f in self.factors:
            out.extend((s, 1) for s in ctx.w_word(f))
        return out

    def __repr__(self) -> str:
        return format_element(self)


def format_word(word) -> str:
    return " ".join(f"s{s + 1}" for s in word)


def format_signed_word(letters) -> str:
    return " ".join(f"s{s + 1}" if sign > 0 else f"s{s + 1}^-1" for s, sign in letters)


def format_positive(u: GroupElement) -> str:
    """The letters of u's signed word with the signs dropped: a positive
    word for a positive element."""
    return format_word(s for s, _ in u.as_signed_word())


def format_element(u: GroupElement) -> str:
    """Render as 'Δ^p · (f1)(f2)...'; bare 'Δ^p' for powers of Delta."""
    head = f"Δ^{u.power}"
    if not u.factors:
        return head
    body = "".join(f"({format_word(w)})" for w in u.factor_words())
    return f"{head} · {body}"


def parse_word(ctx: GroupContext, text: str) -> GroupElement:
    """Parse a signed word: whitespace-separated tokens sK or sK^-1."""
    letters = []
    for tok in text.split():
        m = _TOKEN_RE.fullmatch(tok)
        if not m:
            raise ParseError(f"bad token {tok!r} (expected sK or sK^-1)")
        idx = int(m.group(1)) - 1
        if not 0 <= idx < ctx.rank:
            raise ParseError(f"generator {tok!r} out of range for rank {ctx.rank}")
        letters.append((idx, -1 if m.group(2) else 1))
    return GroupElement.from_letters(ctx, letters)


def parse_element(ctx: GroupContext, text: str) -> GroupElement:
    """Parse either plain signed words or the 'Δ^p · (..)(..)' rendering."""
    text = text.strip()
    m = _DELTA_RE.match(text)
    if not m:
        return parse_word(ctx, text)
    pieces = re.split(r"\(([^()]*)\)", text[m.end():].lstrip(" ·"))
    if "".join(pieces[::2]).strip():
        raise ParseError(f"bad element {text!r} (expected 'Δ^p · (..)(..)')")
    return parse_word(ctx, " ".join(pieces[1::2])).shift(int(m.group(1)))


# ----------------------------------------------------------------- lattice ops


def _first_simple(u: GroupElement) -> int:
    """Leading simple factor of a positive element, Delta factors included."""
    if u.power > 0:
        return u.ctx.delta
    return u.factors[0] if u.factors else u.ctx.identity


def meet_prefix(u: GroupElement, v: GroupElement) -> GroupElement:
    """Greatest common prefix: w with w =< u, w =< v, maximal such.

    Let m be that meet, so u = m x and v = m y with x and y positive; a
    common prefix d of x and y would make m d a larger common prefix, so x
    and y share none.  Then u^-1 v = x^-1 y is the np normal form of u^-1 v,
    which is unique, so x is its negative part and m = u x^-1.  (The product
    u^-1 v checks that u and v share a context.)"""
    return u * np_normal_form(u.inverse() * v).negative.inverse()


def meet_suffix(u: GroupElement, v: GroupElement) -> GroupElement:
    """Greatest common suffix: reversal exchanges the prefix and suffix orders."""
    return meet_prefix(u.reverse(), v.reverse()).reverse()


def join_prefix(u: GroupElement, v: GroupElement) -> GroupElement:
    """Least common right multiple for the prefix order: u a = v b with a
    and b positive and sharing no suffix (a common suffix d would make
    u a d^-1 a smaller common multiple), so u^-1 v = a b^-1 is the unique
    pn normal form of u^-1 v, and a is its positive part."""
    return u * _pn_positive(u.inverse() * v)


def join_suffix(u: GroupElement, v: GroupElement) -> GroupElement:
    """Least common left multiple for the suffix order: a u = b v with a and
    b positive and sharing no prefix, so v u^-1 = b^-1 a is the unique np
    normal form of v u^-1, b is its negative part, and the join is b v."""
    return np_normal_form(v * u.inverse()).negative * v


def prefix_le(u: GroupElement, v: GroupElement) -> bool:
    """u =< v in the prefix order (u^-1 v is positive)."""
    return (u.inverse() * v).is_positive()


def suffix_le(u: GroupElement, v: GroupElement) -> bool:
    """u =< v in the suffix order (v u^-1 is positive)."""
    return (v * u.inverse()).is_positive()


# ----------------------------------------------------------- mixed normal forms


class MixedForm(_FrozenValue):
    """np-normal form: the element is negative^-1 * positive, with no common
    prefix between the two positive parts."""

    __slots__ = ("negative", "positive")

    def __init__(self, negative: GroupElement, positive: GroupElement) -> None:
        object.__setattr__(self, "negative", negative)
        object.__setattr__(self, "positive", positive)

    def element(self) -> GroupElement:
        return self.negative.inverse() * self.positive


class PnForm(_FrozenValue):
    """pn-normal form: the element is positive * negative^-1, with no common
    suffix between the two positive parts."""

    __slots__ = ("positive", "negative")

    def __init__(self, positive: GroupElement, negative: GroupElement) -> None:
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negative", negative)

    def element(self) -> GroupElement:
        return self.positive * self.negative.inverse()


def np_normal_form(u: GroupElement) -> MixedForm:
    """Delta^-k x_1 ... x_r, k = max(-inf, 0), cut after x_k into head and
    tail: the negative part head^-1 begins with x_k^-1 Delta (see `inverse`),
    whose atoms lie outside rdesc(x_k); those of x_{k+1} lie inside, (x_k,
    x_{k+1}) being left-weighted, so the parts share no prefix."""
    ctx, k = u.ctx, max(-u.power, 0)
    head = GroupElement(ctx, -k, u.factors[:k], normalized=True)
    tail = GroupElement(ctx, u.power + k, u.factors[k:], normalized=True)
    return MixedForm(head.inverse(), tail)


def pn_normal_form(u: GroupElement) -> PnForm:
    """The np form of u's reversal, each part reversed back: reversal
    exchanges prefixes and suffixes.  A caller that reads one part takes
    `_pn_positive` or `_pn_negative`, which build only that part."""
    if u.power >= 0:
        return PnForm(u, GroupElement.identity(u.ctx))
    m = np_normal_form(u.reverse())
    return PnForm(m.positive.reverse(), m.negative.reverse())


def _pn_positive(u: GroupElement) -> GroupElement:
    """The positive part of `pn_normal_form`, the negative part never built."""
    if u.power >= 0:
        return u
    return np_normal_form(u.reverse()).positive.reverse()


def _pn_negative(u: GroupElement) -> GroupElement:
    """The negative part of `pn_normal_form`, the positive part never built."""
    if u.power >= 0:
        return GroupElement.identity(u.ctx)
    return np_normal_form(u.reverse()).negative.reverse()


def support(u: GroupElement) -> GeneratorSet:
    """The generators of the np-normal form of u, read off the factor tables;
    the context's one set for them.

    Take u = Delta^p x_1 ... x_r and k = max(-p, 0).  The np form is
    head^-1 tail with head^-1 = (Delta^-k x_1 ... x_k)^-1 and tail =
    Delta^(p + k) x_(k+1) ... x_r (see `np_normal_form`).  When p > 0 the
    tail holds Delta, and when k > r so does head^-1, whose power is k - r:
    the support is every generator.  Otherwise head^-1 has power 0 and the
    factors tau^(k-j+1)(lcomp(x_j)), j <= k (see `_inverse_factors`), the
    tail has power 0 and the factors x_j, j > k, and the support of a
    positive element is the union of its factors' supports.  No element is
    built."""
    ctx, p, fs = u.ctx, u.power, u.factors
    if p > 0 or -p > len(fs):
        return ctx.mask_set((1 << ctx.rank) - 1)
    supps, mask = ctx.supps, 0
    if p:  # k = -p
        lcomp, tau_pow = ctx.w_lcomp, ctx.w_tau_pow
        for j in range(-p):
            mask |= supps[tau_pow(lcomp(fs[j]), -p - j)]
        fs = fs[-p:]
    for f in fs:
        mask |= supps[f]
    return ctx.mask_set(mask)


# ------------------------------------------------------------ Delta^N structures


def _block(ctx: GroupContext, factors: list[int]) -> GroupElement:
    """The element of consecutive normal-form factors, Delta copies first."""
    k = factors.count(ctx.delta)
    return GroupElement(ctx, k, factors[k:], normalized=True)


class GarsideStructure(_FrozenValue):
    """The Garside structure of A_S with Garside element Delta^N."""

    __slots__ = ("ctx", "exponent")

    def __init__(self, ctx: GroupContext, exponent: int = 1) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "exponent", exponent)
        if exponent < 1:
            raise ParseError("structure exponent must be >= 1")

    def garside_element(self) -> GroupElement:
        return GroupElement.delta_power(self.ctx, self.exponent)

    def inf(self, u: GroupElement) -> int:
        return u.power // self.exponent

    def sup(self, u: GroupElement) -> int:
        return -((-u.sup()) // self.exponent)

    def canonical_length(self, u: GroupElement) -> int:
        return self.sup(u) - self.inf(u)

    def is_simple(self, u: GroupElement) -> bool:
        return u.is_positive() and u.sup() <= self.exponent

    def tau(self, u: GroupElement, k: int = 1) -> GroupElement:
        return u.tau(self.exponent * k)

    def padded(self, u: GroupElement) -> tuple[int, list[int]]:
        """u as Delta^(N inf(u)) times a list of classical simple factors: the
        leftover leading Delta copies (fewer than N), then u's own factors.
        Returns the Delta power N inf(u) and the list."""
        shift = self.exponent * self.inf(u)
        return shift, [self.ctx.delta] * (u.power - shift) + list(u.factors)

    def factors(self, u: GroupElement) -> list[GroupElement]:
        """The simple factors of u for this structure: the padded classical
        factors grouped left to right in blocks of N."""
        n = self.exponent
        _, padded = self.padded(u)
        return [_block(self.ctx, padded[i:i + n]) for i in range(0, len(padded), n)]

    def canonical_form(self, u: GroupElement) -> "CanonicalForm":
        blocks = self.factors(u)
        return CanonicalForm(
            exponent=self.exponent,
            delta_power=self.inf(u),
            factor_words=tuple(
                tuple(s for s, _ in b.as_signed_word()) for b in blocks
            ),
        )


class CanonicalForm(_FrozenValue):
    """A printable/serializable view of a left normal form w.r.t. Delta^N.  The
    power in `text()` counts copies of Delta^N, so only N = 1 text re-parses."""

    __slots__ = ("exponent", "delta_power", "factor_words")

    def __init__(self, exponent: int, delta_power: int,
                 factor_words: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "delta_power", delta_power)
        object.__setattr__(self, "factor_words", factor_words)

    def text(self) -> str:
        head = f"Δ^{self.delta_power}"
        if not self.factor_words:
            return head
        body = "".join(f"({format_word(w)})" for w in self.factor_words)
        return f"{head} · {body}"

    def to_json(self) -> dict:
        return {
            "deltaPower": self.delta_power,
            "factors": [[s + 1 for s in w] for w in self.factor_words],
        }


def left_normal_form(ctx: GroupContext, text: str, structure: GarsideStructure | None = None) -> CanonicalForm:
    """Parse a signed word and return its left normal form for the given
    structure (classical when none is given)."""
    structure = structure or GarsideStructure(ctx, 1)
    return structure.canonical_form(parse_word(ctx, text))


def complement(u: GroupElement, structure: GarsideStructure | None = None) -> GroupElement:
    """Right complement for the structure: u^-1 * Delta^N.  Requires u simple."""
    structure = structure or GarsideStructure(u.ctx, 1)
    if not structure.is_simple(u):
        raise NotSimple(f"{u} is not simple for exponent {structure.exponent}")
    return u.inverse() * structure.garside_element()


def longest_element(ctx: GroupContext, X) -> GroupElement:
    """Delta_X: the least common multiple of the generators of X under the
    prefix order; the identity for empty X."""
    return GroupElement.from_simple(ctx, ctx.delta_of(frozenset(X)))


def ribbon(ctx: GroupContext, X, t: int) -> GroupElement:
    """The positive element Delta_X^-1 * Delta_{X + {t}}.

    Trivial when t already lies in X; otherwise it conjugates the generator
    set X into X + {t} and starts with the letter t.
    """
    X = frozenset(X)
    d_x = ctx.delta_of(X)
    d_xt = ctx.delta_of(X | {t})
    return GroupElement.from_simple(ctx, ctx.w_mul(ctx.w_inv(d_x), d_xt))


def simple_times_letter_rewrite(
    alpha: GroupElement, t: int, s: int
) -> GroupElement | None:
    """When t does not divide the classical simple element alpha but divides
    alpha*s, the product alpha*s equals t*alpha; returns that common value,
    or None when the hypotheses fail."""
    ctx = alpha.ctx
    if not alpha.is_simple():
        raise NotSimple(f"{alpha} is not simple for the classical structure")
    wid = alpha.simple_id()
    if ctx.ldescs[wid] >> t & 1:
        return None
    rhs = alpha * GroupElement.generator(ctx, s)
    if not ctx.ldescs[_first_simple(rhs)] >> t & 1:
        return None
    lhs = GroupElement.generator(ctx, t) * alpha
    assert lhs == rhs, "letter-pushing identity must hold for simple elements"
    return rhs
