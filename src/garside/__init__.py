"""Garside-theoretic computations in Artin-Tits groups of spherical type.

Normal forms, prefix/suffix lattice operations, conjugacy summit sets and
their minimal-conjugator graphs, parabolic subgroups with their canonical
central elements, parabolic closures, and the lattice and simplicial complex
they form; plus the brute-force oracles that validate all of it on small
groups.
"""

from .coxeter import CoxeterSpec, GroupContext, build_context, context_from_token
from .elements import (
    CanonicalForm,
    GarsideStructure,
    GroupElement,
    MixedForm,
    PnForm,
    complement,
    format_element,
    join_prefix,
    join_suffix,
    left_normal_form,
    longest_element,
    meet_prefix,
    meet_suffix,
    np_normal_form,
    parse_element,
    parse_word,
    pn_normal_form,
    prefix_le,
    ribbon,
    simple_times_letter_rewrite,
    suffix_le,
    support,
)
from .conjugacy import (
    ArrowType,
    SummitGraph,
    SummitKind,
    TransportRecord,
    classify_arrow,
    compute_summit_graph,
    cycling,
    decycling,
    element_of_i_infinity,
    initial_factor,
    stable_twisted_conjugator,
    transport_orbit,
    twisted_cycling,
)
from .parabolic import (
    ParabolicSubgroup,
    conjugated_parabolic,
    contains_element,
    contains_subgroup,
    parabolic_closure,
    parabolic_equal,
    phi,
)
from .lattice import (
    AdjacencyVerdict,
    Certificate,
    ComplexBall,
    PairCondition,
    characterize_pair,
    complex_ball,
    complex_neighbors,
    enumerate_parabolics,
    intersect,
    join,
    subsequence_invariance_check,
    z_commute,
)

__version__ = "0.1.0"
