"""Parabolic subgroups: central elements, standardizers, membership, closure.

A parabolic subgroup g A_X g^-1 is pinned down by one element: the canonical
generator z of (the relevant power of) its center, conjugate of Delta_X or
Delta_X^2.  Conjugation moves z exactly as it moves the subgroup, and the
subgroup is the parabolic closure of z, so z is its identity: each context
keeps one live object per central element, and every constructor looks z up
there before any work.  On a miss, the negative part of the pn-normal form of
z is the minimal positive element standardizing the subgroup, and the
subgroup is stored re-based through it, which makes equality and
serialization canonical.
"""

from __future__ import annotations

from weakref import WeakValueDictionary

from .coxeter import GeneratorSet, GroupContext
from .conjugacy import cycle_to_max_inf, element_of_i_infinity
from .elements import (
    GroupElement,
    _conjugate,
    _product,
    format_element,
    format_positive,
    pn_normal_form,
    support,
)
from .errors import ContextMismatch, GarsideError

__all__ = [
    "ParabolicSubgroup",
    "central_element_of_standard",
    "parabolic_closure",
    "parabolic_equal",
    "conjugated_parabolic",
    "contains_element",
    "contains_subgroup",
    "phi",
]


def central_element_of_standard(ctx: GroupContext, X) -> GroupElement:
    """z for the standard subgroup A_X: Delta_X if central in A_X, else its square.

    Memoized per context as a raw (power, factors) pair: a stored element
    would hold the context and so keep it alive until a cycle collection."""
    X = frozenset(X)
    memo = ctx.memo.setdefault("standard z", {})
    if X not in memo:
        d = GroupElement.from_simple(ctx, ctx.delta_of(X))
        z = d ** ctx.central_exponent(X)
        memo[X] = (z.power, z.factors)
    return GroupElement(ctx, *memo[X], normalized=True)


class ParabolicSubgroup:
    """The subgroup b A_Y b^-1, stored through its minimal standardizer b."""

    __slots__ = ("ctx", "standardizer", "base", "z", "__weakref__")

    def __init__(self, ctx: GroupContext, standardizer: GroupElement,
                 base: GeneratorSet, z: GroupElement):
        self.ctx = ctx
        self.standardizer = standardizer
        self.base = base
        self.z = z

    @staticmethod
    def from_conjugator(ctx: GroupContext, g: GroupElement, X) -> "ParabolicSubgroup":
        """Build g A_X g^-1 and re-base it through its minimal standardizer."""
        z = _conjugate(central_element_of_standard(ctx, X), g, inverse_first=False)
        return ParabolicSubgroup.from_central_element(ctx, z)

    @staticmethod
    def from_central_element(ctx: GroupContext, z: GroupElement) -> "ParabolicSubgroup":
        """The subgroup with central element z; every constructor ends here.
        Raises GarsideError when z is not such a central element.  The context
        keeps one live object per z, held weakly under z's raw (power, factors)
        pair so that the context is still freed as soon as nothing uses it."""
        live = ctx.memo.get("subgroups")
        if live is None:
            live = ctx.memo["subgroups"] = WeakValueDictionary()
        key = (z.power, z.factors)
        P = live.get(key)
        if P is None:
            b = pn_normal_form(z).negative
            standard_z = z.conjugate_by(b)
            if not standard_z.is_positive():
                raise GarsideError("standardized central element must be positive")
            base = support(standard_z)
            if standard_z != central_element_of_standard(ctx, base):
                raise GarsideError("central element does not define a parabolic subgroup")
            P = live[key] = ParabolicSubgroup(ctx, b, base, z)
        return P

    @staticmethod
    def standard(ctx: GroupContext, X) -> "ParabolicSubgroup":
        return ParabolicSubgroup.from_central_element(ctx, central_element_of_standard(ctx, X))

    @staticmethod
    def trivial(ctx: GroupContext) -> "ParabolicSubgroup":
        return ParabolicSubgroup.standard(ctx, frozenset())

    @staticmethod
    def full(ctx: GroupContext) -> "ParabolicSubgroup":
        return ParabolicSubgroup.standard(ctx, frozenset(range(ctx.rank)))

    # ---------------------------------------------------------------- queries

    def is_trivial(self) -> bool:
        return not self.base

    def is_proper(self) -> bool:
        return len(self.base) < self.ctx.rank

    def is_standard(self) -> bool:
        return self.standardizer.is_identity()

    def is_irreducible(self) -> bool:
        return len(self.ctx.components(self.base)) == 1

    def generators(self) -> list[GroupElement]:
        b, ctx = self.standardizer, self.ctx
        bi = b.inverse()
        return [_product(ctx, (b, GroupElement.generator(ctx, s), bi))
                for s in sorted(self.base)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParabolicSubgroup)
            and self.ctx is other.ctx
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash(self.z)

    def sort_key(self):
        return (len(self.base), sorted(self.base), self.z.sort_key())

    def __repr__(self) -> str:
        names = ",".join(f"s{i + 1}" for i in sorted(self.base))
        if self.is_standard():
            return f"A[{names}]"
        return f"({format_element(self.standardizer)})·A[{names}]·(...)^-1"

    def to_json(self) -> dict:
        return {
            "standardizer": format_positive(self.standardizer),
            "base": [s + 1 for s in sorted(self.base)],
            "z": {
                "deltaPower": self.z.power,
                "factors": [[s + 1 for s in w] for w in self.z.factor_words()],
            },
        }


# --------------------------------------------------------- subgroup operations


def parabolic_equal(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> bool:
    if P.ctx is not Q.ctx:
        raise ContextMismatch("subgroups belong to different group contexts")
    return P.z == Q.z


def conjugated_parabolic(P: ParabolicSubgroup, x: GroupElement) -> ParabolicSubgroup:
    """x^-1 P x, the subgroup with central element x^-1 z x."""
    return ParabolicSubgroup.from_central_element(P.ctx, P.z.conjugate_by(x))


def contains_element(P: ParabolicSubgroup, u: GroupElement) -> bool:
    """Membership via supports: u lies in b A_Y b^-1 iff the np-normal form of
    b^-1 u b only involves letters of Y."""
    return support(u.conjugate_by(P.standardizer)) <= P.base


def contains_subgroup(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> bool:
    """Q subseteq P, tested through the central element of Q."""
    return contains_element(P, Q.z)


def parabolic_closure(u: GroupElement) -> ParabolicSubgroup:
    """The smallest parabolic subgroup containing u, by the first of three paths
    that applies:

    * positive: when cycling takes u to a positive conjugate beta = u^c, the
      closure is c A_X c^-1 with X the support of beta;
    * negative: otherwise, when cycling takes u^-1 to a positive beta, the same
      formula holds.  This is exact because PC(u) = PC(u^-1): a subgroup
      holds the inverse of each of its elements;
    * i-infinity: otherwise u is pushed into the summit sets of every Garside
      structure Delta^N (`element_of_i_infinity`) and the support there is used.
    """
    ctx = u.ctx
    if u.is_identity():
        return ParabolicSubgroup.trivial(ctx)
    beta, conj = cycle_to_max_inf(u)
    if not beta.is_positive():
        beta, conj = cycle_to_max_inf(u.inverse())
    if not beta.is_positive():
        beta, conj, _ = element_of_i_infinity(u)
    return ParabolicSubgroup.from_conjugator(ctx, conj, support(beta))


def phi(u: GroupElement) -> int:
    """Letter length of the Garside element of the standardized base of the
    parabolic closure; 0 for the identity."""
    if u.is_identity():
        return 0
    return u.ctx.delta_length_of(parabolic_closure(u).base)
