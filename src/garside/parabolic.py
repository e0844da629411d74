"""Parabolic subgroups: central elements, standardizers, membership, closure.

A parabolic subgroup g A_X g^-1 is pinned down by one element: the canonical
generator z of (the relevant power of) its center, conjugate of Delta_X or
Delta_X^2.  Conjugation moves z exactly as it moves the subgroup, so z is a
perfect dictionary key, and the negative part of its pn-normal form is the
minimal positive element standardizing the subgroup.  Every subgroup is
re-based through that standardizer at construction time, which makes equality
and serialization canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import GeneratorSet, GroupContext
from .conjugacy import cycle_to_max_inf, element_of_i_infinity
from .elements import (
    GroupElement,
    format_element,
    format_word,
    pn_normal_form,
    ribbon,
    support,
)
from .errors import ContextMismatch, GarsideError

__all__ = [
    "CentralElement",
    "ParabolicSubgroup",
    "central_element_of_standard",
    "minimal_standardizer",
    "parabolic_closure",
    "parabolic_equal",
    "conjugated_parabolic",
    "contains_element",
    "contains_subgroup",
    "phi",
    "ribbon",
    "z_of",
]


@dataclass(frozen=True)
class CentralElement:
    """Canonical central element z of a parabolic subgroup, in normal form."""

    value: GroupElement


def central_element_of_standard(ctx: GroupContext, X) -> GroupElement:
    """z for the standard subgroup A_X: Delta_X if central in A_X, else its square."""
    X = frozenset(X)
    d = GroupElement.from_simple(ctx, ctx.delta_of(X))
    return d ** ctx.central_exponent(X)


class ParabolicSubgroup:
    """The subgroup b A_Y b^-1, stored through its minimal standardizer b."""

    __slots__ = ("ctx", "standardizer", "base", "z")

    def __init__(self, ctx: GroupContext, standardizer: GroupElement,
                 base: GeneratorSet, z: GroupElement):
        self.ctx = ctx
        self.standardizer = standardizer
        self.base = base
        self.z = z

    @staticmethod
    def from_conjugator(ctx: GroupContext, g: GroupElement, X) -> "ParabolicSubgroup":
        """Build g A_X g^-1 and re-base it through its minimal standardizer."""
        z = g * central_element_of_standard(ctx, X) * g.inverse()
        return ParabolicSubgroup.from_central_element(ctx, z)

    @staticmethod
    def from_central_element(ctx: GroupContext, z: GroupElement) -> "ParabolicSubgroup":
        b = pn_normal_form(z).negative
        standard_z = z.conjugate_by(b)
        if not standard_z.is_positive():
            raise GarsideError("standardized central element must be positive")
        base = support(standard_z)
        if standard_z != central_element_of_standard(ctx, base):
            raise GarsideError("central element does not define a parabolic subgroup")
        return ParabolicSubgroup(ctx, b, base, z)

    @staticmethod
    def standard(ctx: GroupContext, X) -> "ParabolicSubgroup":
        return ParabolicSubgroup.from_conjugator(ctx, GroupElement.identity(ctx), X)

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
        b = self.standardizer
        return [
            b * GroupElement.generator(self.ctx, s) * b.inverse()
            for s in sorted(self.base)
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParabolicSubgroup)
            and self.ctx is other.ctx
            and self.z == other.z
        )

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

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
            "standardizer": format_word(
                self.ctx, [s for s, _ in self.standardizer.as_signed_word()]
            ),
            "base": [s + 1 for s in sorted(self.base)],
            "z": {
                "deltaPower": self.z.power,
                "factors": [[s + 1 for s in w] for w in self.z.factor_words()],
            },
        }


# --------------------------------------------------------- subgroup operations


def z_of(P: ParabolicSubgroup) -> CentralElement:
    return CentralElement(P.z)


def parabolic_equal(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> bool:
    if P.ctx is not Q.ctx:
        raise ContextMismatch("subgroups belong to different group contexts")
    return P.z == Q.z


def conjugated_parabolic(P: ParabolicSubgroup, x: GroupElement) -> ParabolicSubgroup:
    """x^-1 P x."""
    return ParabolicSubgroup.from_conjugator(
        P.ctx, x.inverse() * P.standardizer, P.base
    )


def contains_element(P: ParabolicSubgroup, u: GroupElement) -> bool:
    """Membership via supports: u lies in b A_Y b^-1 iff the np-normal form of
    b^-1 u b only involves letters of Y."""
    return support(u.conjugate_by(P.standardizer)) <= P.base


def contains_subgroup(P: ParabolicSubgroup, Q: ParabolicSubgroup) -> bool:
    """Q subseteq P, tested through the central element of Q."""
    return contains_element(P, Q.z)


def minimal_standardizer(P: ParabolicSubgroup) -> tuple[GroupElement, GeneratorSet]:
    """The smallest positive b with b^-1 P b standard, and the standard base."""
    return P.standardizer, P.base


def parabolic_closure(u: GroupElement) -> ParabolicSubgroup:
    """The smallest parabolic subgroup containing u.

    When u has a positive conjugate the closure is read off the support of any
    positive conjugate; otherwise the element is pushed into the summit sets
    of every Garside structure Delta^N and the support there is used.
    """
    ctx = u.ctx
    if u.is_identity():
        return ParabolicSubgroup.trivial(ctx)
    beta, conj = cycle_to_max_inf(u)
    if not beta.is_positive():
        beta, conj, _ = element_of_i_infinity(u)
    return ParabolicSubgroup.from_conjugator(ctx, conj, support(beta))


def phi(u: GroupElement) -> int:
    """Letter length of the Garside element of the standardized base of the
    parabolic closure; 0 for the identity."""
    if u.is_identity():
        return 0
    return u.ctx.delta_length_of(parabolic_closure(u).base)
