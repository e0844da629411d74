"""Spherical-type Coxeter presentations and the finite-group machinery behind them.

A group context holds one Coxeter presentation of spherical type together with
tables for its finite Coxeter group W.  Elements of W are realized faithfully
as permutations of the root system.  With at most 256 roots (every irreducible
type but I2(m) for m > 128) a permutation is a bytes: a product is
bytes.translate, an inverse bytes.maketrans, both in C; above 256 roots it is
a tuple of ints.  An element is fixed by its images of the simple roots, so
it is interned under that short key, its full permutation is built only the
first time it is seen, and afterwards it is referred to by a small integer
id.  Interning a new element fills, in one pass over its images
of the negative roots, the tables of its inversion set, length, left and right
descents and support, lists indexed by id.  Inverses, tau and least reduced
words are memoized as they are asked for, in lists indexed by id; products
and meets in one row per left operand (the lesser id, for a meet), a dict from
the other operand's id, so no memo key is a tuple.

A meet, a least reduced word and a longest element Delta_X are all the
element whose inversion set, a bitmask of positive roots, one greedy climb
fills: u is a prefix of w iff N(u) is inside N(w) (Bjorner & Brenti,
Combinatorics of Coxeter Groups, Prop. 3.1.3).  The climb composes raw
permutations and interns only the element it ends on, so building a context
interns only 1, the generators and Delta.  Everything is immutable after
construction apart from the tables, which only grow, and all operations are
pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from operator import mul

from .errors import BudgetExceeded, GarsideError, NonSphericalType, ParseError

GeneratorSet = frozenset[int]

# Most elements of W, or simples of Delta^N, enumerated before BudgetExceeded.
ENUMERATION_BUDGET = 200_000

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


@dataclass(frozen=True)
class CoxeterSpec:
    """A Coxeter matrix, i.e. the data of a presentation.

    ``matrix[i][j]`` is m(s_i, s_j): 1 on the diagonal and an integer >= 2
    off it (2 encodes a commuting pair, larger values a braid relation of
    that length).
    """

    rank: int
    matrix: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self) -> None:
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
            rows = tuple(tuple(int(x) for x in row) for row in matrix)
        except (TypeError, ValueError):
            raise ParseError("Coxeter matrix must be a list of rows of integers") from None
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


def _build_roots(spec: CoxeterSpec, num_roots: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """The supports of the positive roots, as bitmasks of generators, and the
    permutations of all the roots by the generators; `num_roots` is the size
    of the root system.

    One depth-first pass over the roots, from the simple roots, fills the
    table of their images under the generators as it finds them: s_i moves
    only coordinate i, so only that entry of the rounded key changes, and
    s_i fixes the root when that entry stays.  The pass stops once it finds
    more roots than there are: past about I2(10000) the rounded keys of one
    root stop matching and it would grow without end."""
    n = spec.rank
    # Columns of the Gram matrix of the reflection representation,
    # unit-length simple roots.
    cols = [
        [1.0 if i == j else -math.cos(math.pi / spec.m(j, i)) for j in range(n)]
        for i in range(n)
    ]
    roots = [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
    keys = [tuple(round(c, 9) for c in v) for v in roots]
    index = {k: r for r, k in enumerate(keys)}
    images = [[0] * n for _ in roots]  # images[r][i]: the root s_i(root r)
    frontier = list(range(n))
    while frontier:
        r = frontier.pop()
        v, k, row = roots[r], keys[r], images[r]
        for i in range(n):
            c = v[i] - 2.0 * sum(map(mul, v, cols[i]))
            ci = round(c, 9)
            if ci == k[i]:
                row[i] = r
                continue
            wk = k[:i] + (ci,) + k[i + 1:]
            j = index.get(wk)
            if j is None:
                j = index[wk] = len(roots)
                if j == num_roots:
                    raise GarsideError(
                        f"{spec.name or f'rank-{n} matrix'}: root enumeration passed the "
                        f"{num_roots} roots of the group; floating-point keys no longer match"
                    )
                w = list(v)
                w[i] = c
                roots.append(w)
                keys.append(wk)
                images.append([0] * n)
                frontier.append(j)
            row[i] = j

    positive = [all(c >= -1e-7 for c in v) for v in roots]
    assert len(roots) == num_roots == 2 * sum(positive), "root system must have its size"
    order = sorted(range(num_roots), key=lambda r: not positive[r])
    root_supps = [sum(1 << i for i, c in enumerate(keys[r]) if c) for r in order[:num_roots // 2]]
    # The simple roots keep indices 0..n-1, ahead of the other positive roots.
    new = [0] * num_roots
    for p, r in enumerate(order):
        new[r] = p
    return root_supps, [tuple(new[images[r][i]] for r in order) for i in range(n)]


class GroupContext:
    """Shared read-only data for one Artin-Tits group of spherical type.

    Holds the root system of the Coxeter group W, the interned permutation
    table for elements of W (grown as elements are met), the tables of facts
    about each element that interning fills, the Garside element of every
    standard parabolic subgroup, and the memoized W-level operations that the
    normal-form engine is built from.  Meets, least words and each Delta_X
    come from one climb, `_climb`, so construction interns only 1, the
    generators and Delta, and tau is read off Delta's permutation.

    `_perms[a]` is the permutation of the 2N roots (N = `num_positive`, the
    positive roots first, the simple roots at 0..rank-1) by element a: a bytes
    of length 2N when 2N <= 256, a tuple otherwise.  With `_pad` the bytes
    2N..255, `pa + _pad` is a 256-entry translation table, so a * b is
    `pb.translate(pa + _pad)` and a^-1 is the first 2N bytes of
    `bytes.maketrans(pa + _pad, range(256))`.  `_pad` is None for tuples.

    The tables, lists indexed by element id, hold bitmasks: `nsets[a]` is the
    inversion set N(a) over the positive roots, `ldescs[a]`, `rdescs[a]` and
    `supps[a]` the left descents, right descents and support over the
    generators; `lengths[a]` is the length of a.

    The memos are lists indexed by element id too, which `_intern` extends
    with None: `_invs`, `_taus`, `_rcomps`, `_lcomps` and `_words` hold a^-1,
    tau(a), the complements a^-1 Delta and Delta a^-1, and the least reduced
    word of a once asked for, and `_mul_rows[a]` and `_meet_rows[a]` are
    None or a dict from b to a * b, and to the meet of a and b for a < b.
    """

    # Slots keep the table lookups on the hot path cheap; `__weakref__` lets
    # callers hold a context weakly.
    __slots__ = (
        "spec", "rank", "components_of_s", "component_types", "coxeter_order",
        "num_positive", "_root_supps", "_pad", "_perms", "_ids", "identity", "gens",
        "nsets", "lengths", "ldescs", "rdescs", "supps",
        "_mul_rows", "_meet_rows", "_invs", "_taus", "_rcomps", "_lcomps", "_words", "_gen_steps",
        "_mask_sets", "_delta_memo", "_all_elements", "memo", "delta", "delta_length",
        "tau_order", "__weakref__",
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
        self._root_supps, gen_perms = _build_roots(spec, num_roots)
        self._pad = bytes(range(num_roots, 256)) if num_roots <= 256 else None
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
        self._meet_rows: list[dict[int, int] | None] = []
        self._invs: list[int | None] = []
        self._taus: list[int | None] = []
        self._rcomps: list[int | None] = []
        self._lcomps: list[int | None] = []
        self._words: list[tuple[int, ...] | None] = []
        self.identity = self._intern(perm_type(range(num_roots)))
        self.gens = [self._intern(perm_type(p)) for p in gen_perms]
        # The generator permutations as _climb composes them.
        self._gen_steps = [p if self._pad is None else bytes(p) + self._pad for p in gen_perms]
        self._mask_sets: dict[int, frozenset[int]] = {}
        self._delta_memo: dict[GeneratorSet, int] = {}
        self._all_elements: list[int] | None = None
        # Tables of the layers above W (the live subgroups by central
        # element, held weakly, the classical simples in word order for the
        # summit graphs, and the oracles' tables), freed with the context.
        self.memo: dict = {}

        self.delta = self.delta_of(frozenset(range(self.rank)))
        self.delta_length = self.lengths[self.delta]
        tau_on_s = self.delta_permutation(frozenset(range(self.rank)))
        self.tau_order = 1 if all(tau_on_s[s] == s for s in tau_on_s) else 2

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
            for memo in (self._mul_rows, self._meet_rows, self._invs, self._taus,
                         self._rcomps, self._lcomps, self._words):
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

    def w_inv(self, a: int) -> int:
        out = self._invs[a]
        if out is None:
            perm, pad = self._perms[a], self._pad
            if pad is None:
                ipm = [0] * len(perm)
                for i, j in enumerate(perm):
                    ipm[j] = i
                out = self._intern(tuple(ipm))
            else:
                out = self._intern(bytes.maketrans(perm + pad, _BYTE_RANGE)[:len(perm)])
            self._invs[a] = out
        return out

    def mask_set(self, mask: int) -> GeneratorSet:
        """The generator set of a bitmask, one interned frozenset per mask."""
        out = self._mask_sets.get(mask)
        if out is None:
            out = self._mask_sets[mask] = frozenset(s for s in range(self.rank) if mask >> s & 1)
        return out

    def w_is_prefix(self, a: int, b: int) -> bool:
        """Whether a divides b on the left, in the weak order on W."""
        return not self.nsets[a] & ~self.nsets[b]

    def _climb(self, roots: int) -> tuple[int, tuple[int, ...]]:
        """The greatest element m with N(m) inside roots, and its least
        reduced word, for roots an intersection of inversion sets.

        Greedy: m grows from 1 by the least letter t with m(alpha_t) in roots,
        since N(m t) = N(m) + {m(alpha_t)}, so each m t is still below the
        greatest element; when no letter is left, m is that element.  Meets
        climb N(a) & N(b), least words N(a), Delta_X the roots of W_X.  The
        climb composes raw permutations, so only the element it ends on is
        looked up and interned."""
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
                out = self._ids.get(m[:self.rank])
                if out is None:
                    out = self._intern(m[:2 * self.num_positive])
                return out, tuple(letters)
        raise GarsideError(f"greedy climb did not end within {self.num_positive} letters")

    def w_meet(self, a: int, b: int) -> int:
        """Greatest common prefix of two simple elements: the climb over
        N(a) & N(b)."""
        if a == b:
            return a
        if a > b:
            a, b = b, a
        row = self._meet_rows[a]
        if row is None:
            row = self._meet_rows[a] = {}
        else:
            out = row.get(b)
            if out is not None:
                return out
        out = row[b] = self._climb(self.nsets[a] & self.nsets[b])[0]
        return out

    def w_rcomp(self, a: int) -> int:
        """Right complement w.r.t. the classical structure: a^-1 * Delta."""
        out = self._rcomps[a]
        if out is None:
            out = self._rcomps[a] = self.w_mul(self.w_inv(a), self.delta)
        return out

    def w_lcomp(self, a: int) -> int:
        """Left complement: Delta * a^-1."""
        out = self._lcomps[a]
        if out is None:
            out = self._lcomps[a] = self.w_mul(self.delta, self.w_inv(a))
        return out

    def w_tau(self, a: int) -> int:
        out = self._taus[a]
        if out is None:
            d = self.delta
            out = self._taus[a] = self.w_mul(self.w_mul(self.w_inv(d), a), d)
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

    def w_supp(self, a: int) -> GeneratorSet:
        """Letters occurring in any (hence every) reduced word for a."""
        return self.mask_set(self.supps[a])

    def all_elements(self) -> list[int]:
        """Every element of W, sorted by (length, least word); memoized.

        Breadth first from 1, each layer in order, each a times s for s = 0,
        1, ... outside rdesc(a); a new b gets the word of a plus (s,).  The
        discovery order is the sorted order, and the words are the least
        ones: a word of v ends in some s in rdesc(v), so least_word(v) is the
        least least_word(v s) + (s,), and for words of one length that is the
        least pair (rank of v s in its layer, s), by induction on the length.
        The search meets v first at exactly that pair."""
        if self._all_elements is None:
            if self.coxeter_order > ENUMERATION_BUDGET:
                raise BudgetExceeded(
                    f"|W| = {self.coxeter_order} exceeds enumeration budget {ENUMERATION_BUDGET}"
                )
            words, rdescs = self._words, self.rdescs
            words[0] = ()
            seen = {0}
            order = [0]
            for a in order:  # order grows as the search runs: it is the queue
                for s, g in enumerate(self.gens):
                    if rdescs[a] >> s & 1:
                        continue
                    b = self.w_mul(a, g)
                    if b not in seen:
                        seen.add(b)
                        words[b] = words[a] + (s,)
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

        Its inversion set is the positive roots of W_X, those whose support
        lies in X, and the climb fills exactly that set."""
        X = self._check_subset(X)
        out = self._delta_memo.get(X)
        if out is None:
            inside = sum(1 << s for s in X)
            roots = sum(1 << r for r, supp in enumerate(self._root_supps) if not supp & ~inside)
            out = self._delta_memo[X] = self._climb(roots)[0]
        return out

    def delta_length_of(self, X: GeneratorSet) -> int:
        return self.lengths[self.delta_of(X)]

    def delta_permutation(self, X: GeneratorSet) -> dict[int, int]:
        """The permutation s -> Delta_X^-1 s Delta_X of the letters of X.

        Delta_X is an involution sending alpha_s to -alpha_t for some t in X,
        and Delta_X s Delta_X is the reflection in that root, t; the image of
        alpha_t under t, `_perms[gens[t]][t]`, is the index of -alpha_t."""
        X = self._check_subset(X)
        perm = self._perms[self.delta_of(X)]
        negatives = {self._perms[self.gens[t]][t]: t for t in X}
        return {s: negatives[perm[s]] for s in X}

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
