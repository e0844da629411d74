"""Spherical-type Coxeter presentations and the finite-group machinery behind them.

A group context holds one Coxeter presentation of spherical type together with
tables for its finite Coxeter group W.  Elements of W are realized faithfully
as permutations of the root system, which is built exactly, positive roots
only: one pass from the simple roots, each root carrying its coordinates over
the simple roots and its coroot pairings, so a reflection changes one
coordinate by one subtraction.  The coordinates are integers for labels 2, 3
and 4 and lie in Z[phi], pairs of ints with phi^2 = phi + 1, for label 5 (H3,
H4); a rank-2 component of any label m takes the closed form, its roots the
unit vectors at angles k pi / m.  No coordinate is a float, so no root key is
rounded.  The simple roots are numbered 0..rank-1, the positive roots come
first, and -beta is numbered beta + N for N positive roots, since s(-beta) =
-s(beta); nothing reads the numbering beyond that.  With at most 256 roots
(every irreducible type but I2(m) for m > 128) a permutation is a bytes: a
product is bytes.translate, an inverse bytes.maketrans, both in C; above 256
roots it is a tuple of ints.  An element is fixed by its images of the
simple roots, so it is interned under that short key, its full permutation is
built only the first time it is seen, and afterwards it is referred to by a
small integer id.  Interning a new element fills, in one pass over its images
of the negative roots, the tables of its inversion set, length, left and right
descents and support, lists indexed by id.  Inverses, tau, the left
complement and least reduced words are memoized as they are asked for, in
lists indexed by id; tau and the complement are composed from permutations,
so each interns only its result.  Products are memoized in one row per
left operand, a dict from the right operand's id, so no memo key is a
tuple.  The normal-form sweep has its own step table of that shape: for a
left factor x, one row maps y to x d and one to d^-1 y, d the meet of
x^-1 Delta and y, both holding ids alone; a step with d = y is the reduced
product x y, and the product row holds it.

A meet, a least reduced word and a longest element Delta_X are all the
element whose inversion set, a bitmask of positive roots, one greedy climb
fills: u is a prefix of w iff N(u) is inside N(w) (Bjorner & Brenti,
Combinatorics of Coxeter Groups, Prop. 3.1.3).  The one exception is the
longest element of a rank-2 component of W, which the closed form gives
directly.  The climb composes raw permutations and interns at most the
element it ends on, so building a context interns only 1, the generators
and Delta.  Everything is immutable after
construction apart from the tables, which only grow, and all operations are
pure.
"""

from __future__ import annotations

import math
import re
from functools import reduce

from .errors import BudgetExceeded, GarsideError, NonSphericalType, ParseError

GeneratorSet = frozenset[int]

# Most elements of W listed, vertices of one summit set, or simples scanned
# above one atom for a summit graph, before BudgetExceeded.
ENUMERATION_BUDGET = 200_000

# Most entries one climb may compose, num_positive permutations of num_roots
# entries each, checked before any root of a context is built: I2(2000) is
# under it and I2(10000) over it.
_CLIMB_CAP = 10_000_000

# (Order, Coxeter number) of the exceptional irreducible finite Coxeter groups.
_EXCEPTIONAL = {
    ("E", 6): (51840, 12),
    ("E", 7): (2903040, 18),
    ("E", 8): (696729600, 30),
    ("F", 4): (1152, 12),
    ("H", 3): (120, 10),
    ("H", 4): (14400, 30),
}

# Target of bytes.maketrans when it inverts a permutation stored as bytes, and
# the identity translation table.
_BYTE_RANGE = bytes(range(256))


class _Value:
    """A value type whose fields are its ``__slots__``: equal to an object of
    its own class with equal fields, shown as ``Name(field=value, ...)``.
    Defining == alone leaves it unhashable."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({body})"


class _FrozenValue(_Value):
    """A `_Value` that hashes by its fields and refuses assignment; its
    ``__init__`` sets each field with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CoxeterSpec(_FrozenValue):
    """A Coxeter matrix, i.e. the data of a presentation.

    ``matrix[i][j]`` is m(s_i, s_j): 1 on the diagonal and an integer >= 2
    off it (2 encodes a commuting pair, larger values a braid relation of
    that length).
    """

    __slots__ = ("rank", "matrix", "name")

    def __init__(self, rank: int, matrix: tuple[tuple[int, ...], ...],
                 name: str | None = None) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "name", name)
        if self.rank < 1:
            raise ParseError("rank must be positive")
        if len(self.matrix) != self.rank or any(len(row) != self.rank for row in self.matrix):
            raise ParseError("Coxeter matrix has wrong shape")
        for i in range(self.rank):
            if self.matrix[i][i] != 1:
                raise ParseError("Coxeter matrix diagonal must be 1")
            for j in range(self.rank):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ParseError("Coxeter matrix must be symmetric")
                if i != j and self.matrix[i][j] < 2:
                    raise ParseError("off-diagonal Coxeter entries must be >= 2")

    def m(self, i: int, j: int) -> int:
        return self.matrix[i][j]

    @staticmethod
    def from_matrix(matrix, name: str | None = None) -> "CoxeterSpec":
        try:
            rows = tuple(tuple(row) for row in matrix)
        except TypeError:
            rows = None
        if rows is None or any(type(x) is not int for row in rows for x in row):
            raise ParseError("Coxeter matrix must be a list of rows of integers")
        return CoxeterSpec(rank=len(rows), matrix=rows, name=name)

    @staticmethod
    def from_token(token: str) -> "CoxeterSpec":
        """Parse a family token such as ``A4``, ``B3``, ``I2(5)``."""
        token = token.strip()
        m = re.fullmatch(r"I2\((\d+)\)", token)
        if m:
            order = int(m.group(1))
            if order < 3:
                raise ParseError(f"I2({order}) is not a valid dihedral token (need m >= 3)")
            return CoxeterSpec.from_matrix([[1, order], [order, 1]], name=token)
        m = re.fullmatch(r"([ABDEFH])(\d+)", token)
        if not m:
            raise ParseError(f"unrecognized group token {token!r}")
        family, n = m.group(1), int(m.group(2))
        if family == "A" and n >= 1:
            return CoxeterSpec.from_matrix(_path_matrix(n, {}), name=token)
        if family == "B" and n >= 2:
            return CoxeterSpec.from_matrix(_path_matrix(n, {0: 4}), name=token)
        if family == "D" and n >= 4:
            mat = _path_matrix(n - 1, {})
            mat = [row + [2] for row in mat] + [[2] * (n - 1) + [1]]
            mat[n - 3][n - 1] = mat[n - 1][n - 3] = 3
            return CoxeterSpec.from_matrix(mat, name=token)
        if family == "E" and n in (6, 7, 8):
            mat = _path_matrix(n - 1, {})
            mat = [row + [2] for row in mat] + [[2] * (n - 1) + [1]]
            mat[2][n - 1] = mat[n - 1][2] = 3
            return CoxeterSpec.from_matrix(mat, name=token)
        if family == "F" and n == 4:
            return CoxeterSpec.from_matrix(_path_matrix(4, {1: 4}), name=token)
        if family == "H" and n in (3, 4):
            return CoxeterSpec.from_matrix(_path_matrix(n, {0: 5}), name=token)
        raise ParseError(f"unrecognized group token {token!r}")


def _path_matrix(n: int, labels: dict[int, int]) -> list[list[int]]:
    """Coxeter matrix of a path 0-1-...-(n-1); labels override edge (i, i+1)."""
    mat = [[2] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 1
    for i in range(n - 1):
        mat[i][i + 1] = mat[i + 1][i] = labels.get(i, 3)
    return mat


def _component_order(kind: str, n: int, label: int) -> int:
    if kind == "A":
        return math.factorial(n + 1)
    if kind == "B":
        return (2**n) * math.factorial(n)
    if kind == "D":
        return (2 ** (n - 1)) * math.factorial(n)
    if kind == "I2":
        return 2 * label
    return _EXCEPTIONAL[(kind, n)][0]


def _component_roots(kind: str, n: int, label: int) -> int:
    """Number of roots of an irreducible component: its rank times its
    Coxeter number h (Humphreys, Reflection Groups and Coxeter Groups, 3.18)."""
    if kind == "A":
        h = n + 1
    elif kind == "B":
        h = 2 * n
    elif kind == "D":
        h = 2 * n - 2
    elif kind == "I2":
        h = label
    else:
        h = _EXCEPTIONAL[(kind, n)][1]
    return n * h


def _classify_component(vertices: tuple[int, ...], spec: CoxeterSpec) -> tuple[str, int, int]:
    """Match one connected component of the Coxeter graph against the
    classification of finite Coxeter groups.

    Returns (family, rank, dihedral label); raises NonSphericalType when the
    component generates an infinite group.
    """
    k = len(vertices)
    if k == 1:
        return ("A", 1, 3)
    edges = [
        (u, v, spec.m(u, v))
        for a, u in enumerate(vertices)
        for v in vertices[a + 1:]
        if spec.m(u, v) > 2
    ]
    if k == 2:
        return ("I2", 2, edges[0][2])

    def reject() -> NonSphericalType:
        return NonSphericalType(
            f"component {sorted(vertices)} does not match any finite Coxeter type"
        )

    if len(edges) != k - 1:
        raise reject()  # a connected graph on k vertices with != k-1 edges has a cycle
    degree = {v: 0 for v in vertices}
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    if max(degree.values()) > 3:
        raise reject()
    branch = [v for v in vertices if degree[v] == 3]
    big = sorted(m for _, _, m in edges if m > 3)

    if len(branch) == 0:
        # The component is a path; walk it from one end.
        ends = [v for v in vertices if degree[v] == 1]
        adj = {v: [] for v in vertices}
        for u, v, m in edges:
            adj[u].append((v, m))
            adj[v].append((u, m))
        path_labels = []
        prev, cur = None, ends[0]
        for _ in range(k - 1):
            nxt, m = next((w, m) for w, m in adj[cur] if w != prev)
            path_labels.append(m)
            prev, cur = cur, nxt
        if not big:
            return ("A", k, 3)
        if big == [4]:
            if path_labels[0] == 4 or path_labels[-1] == 4:
                return ("B", k, 4)
            if k == 4 and path_labels[1] == 4:
                return ("F", 4, 4)
            raise reject()
        if big == [5] and k in (3, 4) and 5 in (path_labels[0], path_labels[-1]):
            return ("H", k, 5)
        raise reject()

    if len(branch) > 1 or big:
        raise reject()
    # One branch vertex, all labels 3: measure the three arm lengths.
    adj = {v: [] for v in vertices}
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    arms = []
    for start in adj[branch[0]]:
        length, prev, cur = 1, branch[0], start
        while degree[cur] == 2:
            nxt = next(w for w in adj[cur] if w != prev)
            prev, cur, length = cur, nxt, length + 1
        arms.append(length)
    arms.sort()
    if arms[0] == arms[1] == 1:
        return ("D", k, 3)
    if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
        return ("E", k, 3)
    raise reject()


def _connected_components(vertices, spec: CoxeterSpec) -> list[tuple[int, ...]]:
    remaining = set(vertices)
    out = []
    while remaining:
        seed = min(remaining)
        comp, frontier = {seed}, [seed]
        while frontier:
            v = frontier.pop()
            for w in remaining:
                if w not in comp and spec.m(v, w) > 2:
                    comp.add(w)
                    frontier.append(w)
        out.append(tuple(sorted(comp)))
        remaining -= comp
    out.sort()
    return out


class _Golden(tuple):
    """a + b phi in Z[phi], phi = (1 + sqrt 5) / 2, held as the pair (a, b):
    exact, with phi^2 = phi + 1, and hashed and compared as the pair."""

    __slots__ = ()

    def __sub__(self, other):
        return _Golden((self[0] - other[0], self[1] - other[1]))

    def __mul__(self, other):
        a, b = self
        c, d = other
        return _Golden((a * c + b * d, a * d + b * c + b * d))


def _dihedral_roots(comp: tuple[int, ...], spec: CoxeterSpec) -> tuple[list[int], list[list[int]]]:
    """The positive roots of a rank-2 component {u, v} of label m in closed
    form: the roots are the unit vectors rho_k at angle k pi / m, k mod 2m,
    with alpha_u = rho_0 and alpha_v = rho_(m-1), so rho_k is positive iff
    k < m, -rho_k = rho_(k+m), s_u: k -> m - k and s_v: k -> 3m - 2 - k.
    They are numbered alpha_u, alpha_v, rho_1, ..., rho_(m-2); the lists
    are as in `_exact_roots`, with a third row of images: those under the
    longest element Delta = s_u s_v s_u ... (m letters).  s_u s_v is the
    rotation k -> k + 2, so Delta is -1, k -> k + m, for even m, and the
    reflection k -> 2m - 1 - k for odd m."""
    u, v = comp
    m = spec.m(u, v)
    number = [0, *range(2, m), 1]  # the number of rho_k, k < m
    ks = [0, m - 1, *range(1, m - 1)]  # the k of each number
    images = [[number[m - k] if k else m for k in ks],
              [number[m - 2 - k] if k < m - 1 else m + 1 for k in ks],
              [number[m - 1 - k if m % 2 else k] + m for k in ks]]
    return [1 << u, 1 << v] + [1 << u | 1 << v] * (m - 2), images


def _exact_roots(comp: tuple[int, ...], spec: CoxeterSpec, count: int
                 ) -> tuple[list[int], list[list[int]]]:
    """The `count` positive roots of an irreducible component of rank 1 or at
    least 3 (labels 3, 4 and 5), by one exact pass from the simple roots.

    Returns their supports, as bitmasks of generators, and for each a in
    comp the list of the numbers of s_a(beta) over the positive roots beta,
    numbered in order of discovery, the simple roots first; -beta is
    numbered beta + (the number of positive roots).

    A root beta is held as its coordinates over the simple roots and its
    coroot pairings p_b = <beta, alpha_b^v>: s_a(beta) = beta - p_a alpha_a
    changes coordinate a alone, s_a fixes beta iff p_a = 0, and
    <s_a(beta), alpha_b^v> = p_b - p_a <alpha_a, alpha_b^v>.  s_a permutes
    the positive roots other than alpha_a, and each positive root is reached
    from a simple one through positive roots, so the pass never leaves them.
    The pairings of the simple roots are the Cartan matrix.  With labels 3
    and 4 (A, B, D, E, F) its entries are integers once the squared lengths
    are fixed along the tree: 1 at comp[0], equal across a 3-edge, in ratio
    2 across a 4-edge.  With label 5 (H3, H4) all roots have length 1 and
    the entries lie in Z[phi], as 2 cos(pi / 5) = phi (Humphreys, Reflection
    Groups and Coxeter Groups, 2.9 and 5.3).  So every coordinate is exact,
    and the roots are keyed by their coordinates with nothing rounded.  A
    fault that made the pass find more roots than `count` would make it run
    without end, so it raises GarsideError there."""
    k = len(comp)
    labels = [[spec.matrix[x][y] for y in comp] for x in comp]
    golden = any(5 in row for row in labels)
    scalar = (lambda c: _Golden((c, 0))) if golden else int
    lengths, stack = [1] + [0] * (k - 1), [0]
    while stack:
        a = stack.pop()
        for b, m in enumerate(labels[a]):
            if not lengths[b] and m > 2:
                lengths[b] = 3 - lengths[a] if m == 4 else lengths[a]
                stack.append(b)

    def cartan(a: int, b: int):
        """<alpha_a, alpha_b^v> = 2 (alpha_a, alpha_b) / (alpha_b, alpha_b)."""
        m = labels[a][b]
        if m == 5:
            return _Golden((0, -1))  # -phi
        return scalar(2 if m == 1 else 0 if m == 2 else -max(1, lengths[a] // lengths[b]))

    zero = scalar(0)
    rows = [[cartan(a, b) for b in range(k)] for a in range(k)]
    roots = [tuple(scalar(int(b == a)) for b in range(k)) for a in range(k)]
    pairings, supps = list(rows), [1 << x for x in comp]
    index = {v: r for r, v in enumerate(roots)}
    images = [[] for _ in comp]
    for r, v in enumerate(roots):  # roots grows as the pass finds them
        p = pairings[r]
        for a, row in enumerate(images):
            pa = p[a]
            if pa == zero:
                row.append(r)
            elif r == a:
                row.append(None)  # -alpha_a, numbered once the roots are counted
            else:
                c = v[a] - pa
                w = v[:a] + (c,) + v[a + 1:]
                j = index.get(w)
                if j is None:
                    if len(roots) == count:
                        raise GarsideError(f"root pass passed the {count} positive roots "
                                           f"of component {list(comp)}")
                    j = index[w] = len(roots)
                    roots.append(w)
                    pairings.append([q - pa * e for q, e in zip(p, rows[a])])
                    bit = 1 << comp[a]
                    supps.append(supps[r] | bit if c != zero else supps[r] & ~bit)
                row.append(j)
    for a, row in enumerate(images):
        row[a] = a + len(roots)
    return supps, images


def _build_roots(spec: CoxeterSpec, components: list[tuple[int, ...]],
                 types: list[tuple[str, int, int]]
                 ) -> tuple[list[int], list[list[int]], dict[int, list[int]]]:
    """The supports of the positive roots, as bitmasks of generators, the
    permutations of all the roots by the generators, and the permutation by
    the longest element of each rank-2 component, keyed by its bitmask.

    Each component's positive roots come from `_dihedral_roots` at rank 2
    and `_exact_roots` otherwise; `types` are the components' classes.  The
    simple roots are numbered 0..rank-1, then come the other positive roots,
    component by component, then the negative roots, -beta numbered beta + N
    for N positive roots: s(-beta) = -s(beta), so each generator's images of
    the negative roots are its images of the positive ones, negated."""
    supps = [1 << s for s in range(spec.rank)]
    parts = []
    for comp, kind in zip(components, types):
        if len(comp) == 2:
            local_supps, images = _dihedral_roots(comp, spec)
        else:
            local_supps, images = _exact_roots(comp, spec, _component_roots(*kind) // 2)
        first = len(supps)
        supps += local_supps[len(comp):]
        parts.append((comp, [*comp, *range(first, len(supps))], images))
    n = len(supps)
    perms = [list(range(n)) for _ in range(spec.rank)]
    deltas = {}
    for comp, number, images in parts:
        number += [r + n for r in number]
        targets = [perms[s] for s in comp]
        if len(images) > len(comp):  # the Delta row of a rank-2 component
            targets.append(list(range(n)))
            deltas[sum(1 << s for s in comp)] = targets[-1]
        for perm, row in zip(targets, images):
            for r, image in zip(number, row):
                perm[r] = number[image]

    def with_negatives(p):
        return p + [r + n if r < n else r - n for r in p]

    return (supps, [with_negatives(p) for p in perms],
            {c: with_negatives(p) for c, p in deltas.items()})


class GroupContext:
    """Shared read-only data for one Artin-Tits group of spherical type.

    Holds the root system of the Coxeter group W, built exactly by
    `_build_roots` (integer or Z[phi] coordinates, or the closed form of a
    rank-2 component; nothing rounded), the interned permutation
    table for elements of W (grown as elements are met), the tables of facts
    about each element that interning fills, the Garside element of every
    standard parabolic subgroup, and the memoized W-level operations that the
    normal-form engine is built from.  Meets, the d of each left-weighting
    step among them, least words and each Delta_X come from one climb,
    `_climb`, but for the rank-2 components of W, whose Deltas come in
    closed form from `_build_roots` (`_dihedral_deltas`, raw permutations
    keyed by the component's bitmask); construction interns only 1, the
    generators and Delta, and tau is read off Delta's permutation.

    `_perms[a]` is the permutation of the 2N roots (N = `num_positive`, the
    positive roots first, the simple roots at 0..rank-1, -beta numbered
    beta + N) by element a: a bytes
    of length 2N when 2N <= 256, a tuple otherwise.  With `_pad` the bytes
    2N..255, `pa + _pad` is a 256-entry translation table, so a * b is
    `pb.translate(pa + _pad)` and a^-1 is the first 2N bytes of
    `bytes.maketrans(pa + _pad, range(256))`.  `_pad` is None for tuples.

    The tables, lists indexed by element id, hold bitmasks: `nsets[a]` is the
    inversion set N(a) over the positive roots, `ldescs[a]`, `rdescs[a]` and
    `supps[a]` the left descents, right descents and support over the
    generators; `lengths[a]` is the length of a.

    The memos are lists indexed by element id too, which `_intern` extends
    with None: `_invs`, `_taus`, `_lcomps` and `_words` hold a^-1, tau(a),
    the left complement Delta a^-1, and the least reduced word of a once
    asked for; tau and the complement are composed straight from
    permutations.  `_mul_rows[a]` is None or a dict from b to a * b.  Meets
    are not memoized: `w_meet` climbs each time.  The step table,
    `_step_rows[x]` and `_step_tails[x]`, is None or two dicts from y to x d
    and to d^-1 y, the left-weighting step of `elements._normalize` with d
    the meet of x^-1 Delta and y, for each step with d != y that `_step` has
    made; a step with d = y is (x y, 1), held in the product row.
    """

    # Slots keep the table lookups on the hot path cheap; `__weakref__` lets
    # callers hold a context weakly.
    __slots__ = (
        "spec", "rank", "components_of_s", "component_types", "coxeter_order",
        "num_positive", "_root_supps", "_pad", "_digits", "_perms", "_ids", "identity",
        "gens",
        "nsets", "lengths", "ldescs", "rdescs", "supps",
        "_mul_rows", "_step_rows", "_step_tails",
        "_invs", "_taus", "_lcomps", "_words", "_gen_steps",
        "_mask_sets", "_dihedral_deltas", "_delta_memo", "_all_elements", "memo",
        "delta", "delta_length", "tau_order", "__weakref__",
    )

    DEFAULT_RANK_CAP = 10

    def __init__(self, spec: CoxeterSpec, rank_cap: int = DEFAULT_RANK_CAP):
        if spec.rank > rank_cap:
            raise NonSphericalType(
                f"rank {spec.rank} exceeds the configured cap {rank_cap}"
            )
        self.spec = spec
        self.rank = spec.rank
        self.components_of_s = _connected_components(range(self.rank), spec)
        self.component_types = [
            _classify_component(comp, spec) for comp in self.components_of_s
        ]
        self.coxeter_order = reduce(
            lambda acc, t: acc * _component_order(*t), self.component_types, 1
        )

        num_roots = sum(_component_roots(*t) for t in self.component_types)
        self.num_positive = num_roots // 2
        if self.num_positive * num_roots > _CLIMB_CAP:
            raise BudgetExceeded(
                f"{spec.name or f'rank-{self.rank} matrix'}: {self.num_positive} positive "
                f"roots times {num_roots} roots exceed the climb cap {_CLIMB_CAP}"
            )
        self._root_supps, gen_perms, deltas = _build_roots(
            spec, self.components_of_s, self.component_types)
        assert len(self._root_supps) == self.num_positive, "root system must have its size"
        self._pad = bytes(range(num_roots, 256)) if num_roots <= 256 else None
        # The binary digit of each root for `_rcomp_roots`: b"1" for a
        # positive root, b"0" for a negative one.
        self._digits = b"1" * self.num_positive + b"0" * (max(num_roots, 256) - self.num_positive)
        perm_type = tuple if self._pad is None else bytes

        # Element interning: images of the simple roots -> id, and id -> full
        # permutation, the tables and the memo slots.  Identity is id 0.
        self._perms: list[bytes | tuple[int, ...]] = []
        self._ids: dict[bytes | tuple[int, ...], int] = {}
        self.nsets: list[int] = []
        self.lengths: list[int] = []
        self.ldescs: list[int] = []
        self.rdescs: list[int] = []
        self.supps: list[int] = []
        self._mul_rows: list[dict[int, int] | None] = []
        self._step_rows: list[dict[int, int] | None] = []
        self._step_tails: list[dict[int, int] | None] = []
        self._invs: list[int | None] = []
        self._taus: list[int | None] = []
        self._lcomps: list[int | None] = []
        self._words: list[tuple[int, ...] | None] = []
        self.identity = self._intern(perm_type(range(num_roots)))
        self.gens = [self._intern(perm_type(p)) for p in gen_perms]
        # The generator permutations as _climb composes them.
        self._gen_steps = [p if self._pad is None else bytes(p) + self._pad for p in gen_perms]
        self._dihedral_deltas = {c: perm_type(p) for c, p in deltas.items()}
        self._mask_sets: dict[int, frozenset[int]] = {}
        self._delta_memo: dict[GeneratorSet, int] = {}
        self._all_elements: list[int] | None = None
        # Tables of the layers above W (the live subgroups by central
        # element, held weakly, the central elements of the standard
        # subgroups, and the oracles' tables), freed with the context.
        self.memo: dict = {}

        self.delta = self.delta_of(frozenset(range(self.rank)))
        self.delta_length = self.lengths[self.delta]
        # tau is trivial iff Delta sends each alpha_s to -alpha_s, numbered s + N.
        delta_perm, n = self._perms[self.delta], self.num_positive
        self.tau_order = 1 if all(delta_perm[s] == s + n for s in range(self.rank)) else 2

    # ------------------------------------------------------- W element algebra

    def _intern(self, perm: bytes | tuple[int, ...]) -> int:
        """The id of a permutation, keyed by its images of the simple roots.

        A new element a gets its table entries from its images of the
        negative roots, whose positive ones make up N(a): the roots that a^-1
        sends to negative roots.  l(a) = |N(a)|; s is a left descent iff
        alpha_s is in N(a), a right descent iff a(alpha_s) < 0.  The support
        of a is the union of the supports of the roots in N(a): N(a) lies in
        the root subsystem of W_supp(a), which permutes the other positive
        roots, and if s first occurs at place i of a reduced word s_1 ... s_k,
        then s_1 ... s_(i-1)(alpha_s), a root of N(a), has alpha_s-coefficient
        1, since no s_j with j < i changes it."""
        key = perm[:self.rank]
        eid = self._ids.get(key)
        if eid is None:
            eid = self._ids[key] = len(self._perms)
            self._perms.append(perm)
            n, root_supps = self.num_positive, self._root_supps
            nset = supp = 0
            for r in perm[n:]:
                if r < n:
                    nset |= 1 << r
                    supp |= root_supps[r]
            self.nsets.append(nset)
            self.lengths.append(nset.bit_count())
            self.ldescs.append(nset & ((1 << self.rank) - 1))
            self.rdescs.append(sum(1 << s for s, r in enumerate(key) if r >= n))
            self.supps.append(supp)
            for memo in (self._mul_rows, self._step_rows, self._step_tails,
                         self._invs, self._taus, self._lcomps, self._words):
                memo.append(None)
        return eid

    def w_mul(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        row = self._mul_rows[a]
        if row is None:
            row = self._mul_rows[a] = {}
        else:
            out = row.get(b)
            if out is not None:
                return out
        pa, pb, pad = self._perms[a], self._perms[b], self._pad
        if pad is None:
            out = self._ids.get(tuple(map(pa.__getitem__, pb[:self.rank])))
            if out is None:
                out = self._intern(tuple(map(pa.__getitem__, pb)))
        else:
            pa += pad
            out = self._ids.get(pb[:self.rank].translate(pa))
            if out is None:
                out = self._intern(pb.translate(pa))
        row[b] = out
        return out

    def _compose(self, p: bytes | tuple[int, ...], q: bytes | tuple[int, ...]
                 ) -> bytes | tuple[int, ...]:
        """The permutation p * q of the roots: first q, then p."""
        if self._pad is None:
            return tuple(map(p.__getitem__, q))
        return q.translate(p + self._pad)

    def _inverse(self, p: bytes | tuple[int, ...]) -> bytes | tuple[int, ...]:
        if self._pad is None:
            out = [0] * len(p)
            for i, j in enumerate(p):
                out[j] = i
            return tuple(out)
        return bytes.maketrans(p + self._pad, _BYTE_RANGE)[:len(p)]

    def w_inv(self, a: int) -> int:
        out = self._invs[a]
        if out is None:
            out = self._invs[a] = self._intern(self._inverse(self._perms[a]))
        return out

    def mask_set(self, mask: int) -> GeneratorSet:
        """The generator set of a bitmask, one interned frozenset per mask."""
        out = self._mask_sets.get(mask)
        if out is None:
            out = self._mask_sets[mask] = frozenset(s for s in range(self.rank) if mask >> s & 1)
        return out

    def _climb(self, roots: int) -> tuple[bytes | tuple[int, ...], tuple[int, ...]]:
        """The permutation of the greatest element m with N(m) inside roots,
        and its least reduced word, for roots an intersection of inversion
        sets.

        Greedy: m grows from 1 by the least letter t with m(alpha_t) in roots,
        since N(m t) = N(m) + {m(alpha_t)}, so each m t is still below the
        greatest element; when no letter is left, m is that element.  Meets
        climb N(a) & N(b), least words N(a), Delta_X the roots of W_X.  The
        climb composes raw permutations and interns nothing; its callers
        intern the element it ends on, if they need it."""
        # With bytes, m is a full translation table (the identity then the
        # pad), so each step is one translate.
        steps, pad = self._gen_steps, self._pad
        m = self._perms[0] if pad is None else _BYTE_RANGE
        letters = []
        for _ in range(self.num_positive + 1):  # no element is longer
            for t, step in enumerate(steps):
                if roots >> m[t] & 1:
                    m = step.translate(m) if pad is not None else tuple(map(m.__getitem__, step))
                    letters.append(t)
                    break
            else:
                return m[:2 * self.num_positive], tuple(letters)
        raise GarsideError(f"greedy climb did not end within {self.num_positive} letters")

    def w_meet(self, a: int, b: int) -> int:
        """Greatest common prefix of two simple elements: the climb over
        N(a) & N(b).  Not memoized: the library's own meets, the np cuts of
        `elements.meet_prefix` and the climb in `_step`, do not call it."""
        return self._intern(self._climb(self.nsets[a] & self.nsets[b])[0])

    def _rcomp_roots(self, x: int) -> int:
        """N(x^-1 Delta), the positive roots that x sends to positive roots,
        with no element interned: x's images of the positive roots, last
        first, become binary digits, 1 for a positive image, and int() reads
        them as the bitmask."""
        head = self._perms[x][self.num_positive - 1::-1]
        if self._pad is None:
            return int(bytes(map(self._digits.__getitem__, head)), 2)
        return int(head.translate(self._digits), 2)

    def _step(self, x: int, y: int) -> tuple[int, int]:
        """The left-weighting step (x, y) -> (x d, d^-1 y), d the meet of
        x^-1 Delta and y, as `elements._normalize` makes it on a miss.  When
        y divides x^-1 Delta, d is y and the step is (x y, 1), a product that
        `w_mul` makes and its row holds.  Otherwise one climb over
        N(x^-1 Delta) & N(y) gives d, both products are composed from its raw
        permutation, only they are interned, and row x of `_step_rows` and
        `_step_tails` records them."""
        roots, ny = self._rcomp_roots(x), self.nsets[y]
        if not ny & ~roots:
            return self.w_mul(x, y), self.identity
        d = self._climb(roots & ny)[0]
        xd = self._intern(self._compose(self._perms[x], d))
        dy = self._intern(self._compose(self._inverse(d), self._perms[y]))
        if self._step_rows[x] is None:
            self._step_rows[x], self._step_tails[x] = {}, {}
        self._step_rows[x][y], self._step_tails[x][y] = xd, dy
        return xd, dy

    def w_lcomp(self, a: int) -> int:
        """Left complement: Delta * a^-1."""
        out = self._lcomps[a]
        if out is None:
            out = self._lcomps[a] = self._intern(
                self._compose(self._perms[self.delta], self._inverse(self._perms[a])))
        return out

    def w_tau(self, a: int) -> int:
        """Delta^-1 a Delta = Delta a Delta, Delta being an involution."""
        out = self._taus[a]
        if out is None:
            d = self._perms[self.delta]
            out = self._taus[a] = self._intern(self._compose(d, self._compose(self._perms[a], d)))
        return out

    def w_tau_pow(self, a: int, k: int) -> int:
        if k % self.tau_order == 0:
            return a
        return self.w_tau(a)

    def w_word(self, a: int) -> tuple[int, ...]:
        """The lexicographically smallest reduced word for a: the letters of
        the climb over N(a)."""
        out = self._words[a]
        if out is None:
            out = self._words[a] = self._climb(self.nsets[a])[1]
        return out

    def all_elements(self) -> list[int]:
        """Every element of W, sorted by (length, least word); memoized.

        Breadth first from 1, each layer in order, each a times s for s = 0,
        1, ... outside rdesc(a).  The discovery order is the sorted order: a
        word of v ends in some s in rdesc(v), so least_word(v) is the least
        least_word(v s) + (s,), and for words of one length that is the least
        pair (rank of v s in its layer, s), by induction on the length.  The
        search meets v first at exactly that pair."""
        if self._all_elements is None:
            if self.coxeter_order > ENUMERATION_BUDGET:
                raise BudgetExceeded(
                    f"|W| = {self.coxeter_order} exceeds enumeration budget {ENUMERATION_BUDGET}"
                )
            rdescs = self.rdescs
            seen = {0}
            order = [0]
            for a in order:  # order grows as the search runs: it is the queue
                for s, g in enumerate(self.gens):
                    if rdescs[a] >> s & 1:
                        continue
                    b = self.w_mul(a, g)
                    if b not in seen:
                        seen.add(b)
                        order.append(b)
            self._all_elements = order
            assert len(order) == self.coxeter_order
        return self._all_elements

    # ------------------------------------------------- parabolic Coxeter data

    def _check_subset(self, X: GeneratorSet) -> GeneratorSet:
        X = frozenset(X)
        if any(s < 0 or s >= self.rank for s in X):
            raise ParseError(f"generator set {sorted(X)} out of range for rank {self.rank}")
        return X

    def delta_of(self, X: GeneratorSet) -> int:
        """The longest element of W_X (the Garside element of A_X); 0 for empty X.

        Delta_X is the product of the longest elements of the components of
        X, which commute.  A rank-2 component of W inside X takes its closed
        form from `_build_roots`; the rest, Delta_Y for the other letters Y,
        has for inversion set the positive roots of W_Y, those whose support
        lies in Y, and the climb fills exactly that set.  Only the product is
        interned."""
        X = self._check_subset(X)
        out = self._delta_memo.get(X)
        if out is None:
            inside, perm = sum(1 << s for s in X), None
            for comp, d in self._dihedral_deltas.items():
                if not comp & ~inside:
                    inside &= ~comp
                    perm = d if perm is None else self._compose(perm, d)
            if inside or perm is None:
                roots = sum(1 << r for r, supp in enumerate(self._root_supps)
                            if not supp & ~inside)
                d = self._climb(roots)[0]
                perm = d if perm is None else self._compose(perm, d)
            out = self._delta_memo[X] = self._intern(perm)
        return out

    def delta_length_of(self, X: GeneratorSet) -> int:
        return self.lengths[self.delta_of(X)]

    def delta_permutation(self, X: GeneratorSet) -> dict[int, int]:
        """The permutation s -> Delta_X^-1 s Delta_X of the letters of X.

        Delta_X is an involution sending alpha_s to -alpha_t for some t in X,
        and Delta_X s Delta_X is the reflection in that root, t; -alpha_t is
        numbered t + N."""
        X = self._check_subset(X)
        perm = self._perms[self.delta_of(X)]
        return {s: perm[s] - self.num_positive for s in X}

    def components(self, X: GeneratorSet) -> list[GeneratorSet]:
        """Connected components of the Coxeter graph restricted to X."""
        X = self._check_subset(X)
        return [frozenset(c) for c in _connected_components(sorted(X), self.spec)]

    def is_irreducible(self, X: GeneratorSet) -> bool:
        return len(self.components(X)) == 1

    def central_exponent(self, X: GeneratorSet) -> int:
        """1 if Delta_X is central in A_X, else 2."""
        X = self._check_subset(X)
        if not X:
            return 1
        perm = self.delta_permutation(X)
        return 1 if all(perm[s] == s for s in X) else 2

    def __repr__(self) -> str:
        name = self.spec.name or f"rank-{self.rank} matrix"
        return f"GroupContext({name})"


def build_context(spec: CoxeterSpec, rank_cap: int = GroupContext.DEFAULT_RANK_CAP) -> GroupContext:
    """Build the shared context for a spherical-type presentation.

    Raises NonSphericalType when some connected component of the Coxeter graph
    generates an infinite Coxeter group, or when the rank exceeds the cap.
    """
    return GroupContext(spec, rank_cap=rank_cap)


def context_from_token(token: str, rank_cap: int = GroupContext.DEFAULT_RANK_CAP) -> GroupContext:
    return build_context(CoxeterSpec.from_token(token), rank_cap=rank_cap)
