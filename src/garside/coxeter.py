"""Spherical-type Coxeter presentations and the finite-group machinery behind them.

A group context holds one Coxeter presentation of spherical type together with
tables for its finite Coxeter group W.  Elements of W are realized faithfully
as permutations of the root system.  An element is fixed by its images of the
simple roots, so it is interned under that short key, its full permutation is
built only the first time it is seen, and afterwards it is referred to by a
small integer id; multiplication, inversion, length and descent sets are then
dictionary lookups on ints.  Meets in the weak order are read off inversion
sets, stored as bitmasks of positive roots: u is a prefix of w iff
N(u) is inside N(w) (Bjorner & Brenti, Combinatorics of Coxeter Groups,
Prop. 3.1.3).  Everything is immutable after construction apart from internal
memo tables, and all operations are pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from operator import mul

from .errors import BudgetExceeded, NonSphericalType, ParseError

GeneratorSet = frozenset[int]

# Most elements of W, or simples of Delta^N, enumerated before BudgetExceeded.
ENUMERATION_BUDGET = 200_000

# Orders of the irreducible finite Coxeter groups, by family.
_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("H", 3): 120,
    ("H", 4): 14400,
}


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
    return _EXCEPTIONAL_ORDERS[(kind, n)]


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


class GroupContext:
    """Shared read-only data for one Artin-Tits group of spherical type.

    Holds the root system of the Coxeter group W, the interned permutation
    table for elements of W (grown lazily), the Garside element of every
    standard parabolic subgroup, and the memoized W-level operations that the
    normal-form engine is built from.
    """

    # Slots keep the memo lookups on the hot path cheap; `__weakref__` lets
    # callers hold a context weakly.
    __slots__ = (
        "spec", "rank", "components_of_s", "component_types", "coxeter_order",
        "num_positive", "_perms", "_ids", "identity", "gens",
        "_mul_memo", "_inv_memo", "_len_memo", "_nset_memo", "_ldesc_memo",
        "_rdesc_memo", "_supp_memo", "_mask_sets", "_word_memo", "_meet_memo",
        "_delta_memo", "_all_elements", "memo", "delta", "delta_length",
        "_tau_memo", "tau_order", "__weakref__",
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

        gen_perms = self._build_roots()

        # Element interning: images of the simple roots -> id, and id -> full
        # permutation.  Identity is id 0.
        self._perms: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self.identity = self._intern(tuple(range(2 * self.num_positive)))
        self.gens = [self._intern(p) for p in gen_perms]
        self._mul_memo: dict[tuple[int, int], int] = {}
        self._inv_memo: dict[int, int] = {0: 0}
        self._len_memo: dict[int, int] = {0: 0}
        self._nset_memo: dict[int, int] = {}
        self._ldesc_memo: dict[int, int] = {}
        self._rdesc_memo: dict[int, int] = {}
        self._supp_memo: dict[int, int] = {0: 0}
        self._mask_sets: dict[int, frozenset[int]] = {}
        self._word_memo: dict[int, tuple[int, ...]] = {0: ()}
        self._meet_memo: dict[tuple[int, int], int] = {}
        self._delta_memo: dict[GeneratorSet, int] = {frozenset(): 0}
        self._all_elements: list[int] | None = None
        # Tables of the layers above W (the live standard subgroups, held
        # weakly, the classical simples in word order for the summit graphs,
        # and the oracles' tables), freed with the context.
        self.memo: dict = {}

        self.delta = self.delta_of(frozenset(range(self.rank)))
        self.delta_length = self.w_len(self.delta)
        self._tau_memo: dict[int, int] = {}
        tau_on_s = self.delta_permutation(frozenset(range(self.rank)))
        self.tau_order = 1 if all(tau_on_s[s] == s for s in tau_on_s) else 2

    # ------------------------------------------------------------------ roots

    def _build_roots(self) -> list[tuple[int, ...]]:
        """Set `num_positive` and return the permutations of the generators.

        One depth-first pass over the roots, from the simple roots, fills the
        table of their images under the generators as it finds them: s_i moves
        only coordinate i, so only that entry of the rounded key changes, and
        s_i fixes the root when that entry stays."""
        n = self.rank
        # Columns of the Gram matrix of the reflection representation,
        # unit-length simple roots.
        cols = [
            [1.0 if i == j else -math.cos(math.pi / self.spec.m(j, i)) for j in range(n)]
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
                    w = list(v)
                    w[i] = c
                    roots.append(w)
                    keys.append(wk)
                    images.append([0] * n)
                    frontier.append(j)
                row[i] = j

        positive = [all(c >= -1e-7 for c in v) for v in roots]
        order = sorted(range(len(roots)), key=lambda r: not positive[r])
        self.num_positive = sum(positive)
        assert 2 * self.num_positive == len(roots), "root system must split evenly"
        # The simple roots keep indices 0..n-1, ahead of the other positive roots.
        new = [0] * len(roots)
        for p, r in enumerate(order):
            new[r] = p
        return [tuple(new[images[r][i]] for r in order) for i in range(n)]

    # ------------------------------------------------------- W element algebra

    def _intern(self, perm: tuple[int, ...]) -> int:
        """The id of a permutation, keyed by its images of the simple roots."""
        key = perm[:self.rank]
        eid = self._ids.get(key)
        if eid is None:
            eid = self._ids[key] = len(self._perms)
            self._perms.append(perm)
        return eid

    def w_mul(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        out = self._mul_memo.get((a, b))
        if out is None:
            pa, pb = self._perms[a], self._perms[b]
            out = self._ids.get(tuple(map(pa.__getitem__, pb[:self.rank])))
            if out is None:
                out = self._intern(tuple(map(pa.__getitem__, pb)))
            self._mul_memo[(a, b)] = out
        return out

    def w_inv(self, a: int) -> int:
        out = self._inv_memo.get(a)
        if out is None:
            perm = self._perms[a]
            ipm = [0] * len(perm)
            for i, j in enumerate(perm):
                ipm[j] = i
            out = self._intern(tuple(ipm))
            self._inv_memo[a] = out
        return out

    def w_inversions(self, a: int) -> int:
        """N(a) as a bitmask of positive roots: those that a^-1 sends to
        negative roots, i.e. the positive images of the negative roots."""
        out = self._nset_memo.get(a)
        if out is None:
            n = self.num_positive
            out = self._nset_memo[a] = sum(1 << r for r in self._perms[a][n:] if r < n)
        return out

    def w_len(self, a: int) -> int:
        out = self._len_memo.get(a)
        if out is None:
            perm, n = self._perms[a], self.num_positive
            out = sum(1 for i in range(n) if perm[i] >= n)
            self._len_memo[a] = out
        return out

    def w_rdesc_mask(self, a: int) -> int:
        out = self._rdesc_memo.get(a)
        if out is None:
            perm, n = self._perms[a], self.num_positive
            out = sum(1 << s for s in range(self.rank) if perm[s] >= n)
            self._rdesc_memo[a] = out
        return out

    def w_ldesc_mask(self, a: int) -> int:
        out = self._ldesc_memo.get(a)
        if out is None:
            out = self._ldesc_memo[a] = self.w_inversions(a) & ((1 << self.rank) - 1)
        return out

    def mask_set(self, mask: int) -> GeneratorSet:
        """The generator set of a bitmask, one interned frozenset per mask."""
        out = self._mask_sets.get(mask)
        if out is None:
            out = self._mask_sets[mask] = frozenset(s for s in range(self.rank) if mask >> s & 1)
        return out

    def w_right_descents(self, a: int) -> frozenset[int]:
        return self.mask_set(self.w_rdesc_mask(a))

    def w_left_descents(self, a: int) -> frozenset[int]:
        return self.mask_set(self.w_ldesc_mask(a))

    def w_is_prefix(self, a: int, b: int) -> bool:
        """Whether a divides b on the left, in the weak order on W."""
        return not self.w_inversions(a) & ~self.w_inversions(b)

    def w_meet(self, a: int, b: int) -> int:
        """Greatest common prefix of two simple elements.

        Greedy on inversion sets: m grows by the least letter t with m(alpha_t)
        in N(a) & N(b), which is exactly when m t is still a prefix of both,
        since N(m t) = N(m) + {m(alpha_t)}."""
        if a == b:
            return a
        key = (a, b) if a < b else (b, a)
        out = self._meet_memo.get(key)
        if out is None:
            common = self.w_inversions(a) & self.w_inversions(b)
            out, perms, letters = 0, self._perms, range(self.rank)
            while True:
                perm = perms[out]
                for t in letters:
                    if common >> perm[t] & 1:
                        out = self.w_mul(out, self.gens[t])
                        break
                else:
                    break
            self._meet_memo[key] = out
        return out

    def w_rcomp(self, a: int) -> int:
        """Right complement w.r.t. the classical structure: a^-1 * Delta."""
        return self.w_mul(self.w_inv(a), self.delta)

    def w_lcomp(self, a: int) -> int:
        """Left complement: Delta * a^-1."""
        return self.w_mul(self.delta, self.w_inv(a))

    def w_tau(self, a: int) -> int:
        out = self._tau_memo.get(a)
        if out is None:
            d = self.delta
            out = self.w_mul(self.w_mul(self.w_inv(d), a), d)
            self._tau_memo[a] = out
        return out

    def w_tau_pow(self, a: int, k: int) -> int:
        if k % self.tau_order == 0:
            return a
        return self.w_tau(a)

    def w_word(self, a: int) -> tuple[int, ...]:
        """The lexicographically smallest reduced word for a."""
        out = self._word_memo.get(a)
        if out is None:
            letters = []
            cur = a
            while cur != 0:
                s = min(self.w_left_descents(cur))
                letters.append(s)
                cur = self.w_mul(self.gens[s], cur)
            out = tuple(letters)
            self._word_memo[a] = out
        return out

    def w_supp_mask(self, a: int) -> int:
        """Bitmask of the letters occurring in any (hence every) reduced word for a."""
        out = self._supp_memo.get(a)
        if out is None:
            out = self._supp_memo[a] = sum(1 << s for s in set(self.w_word(a)))
        return out

    def w_supp(self, a: int) -> GeneratorSet:
        """Letters occurring in any (hence every) reduced word for a."""
        return self.mask_set(self.w_supp_mask(a))

    def all_elements(self) -> list[int]:
        """Every element of W, sorted by (length, word); enumeration is memoized."""
        if self._all_elements is None:
            if self.coxeter_order > ENUMERATION_BUDGET:
                raise BudgetExceeded(
                    f"|W| = {self.coxeter_order} exceeds enumeration budget {ENUMERATION_BUDGET}"
                )
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for a in frontier:
                    for g in self.gens:
                        b = self.w_mul(a, g)
                        if b not in seen:
                            seen.add(b)
                            nxt.append(b)
                frontier = nxt
            self._all_elements = sorted(seen, key=lambda e: (self.w_len(e), self.w_word(e)))
            assert len(self._all_elements) == self.coxeter_order
        return self._all_elements

    # ------------------------------------------------- parabolic Coxeter data

    def _check_subset(self, X: GeneratorSet) -> GeneratorSet:
        X = frozenset(X)
        if any(s < 0 or s >= self.rank for s in X):
            raise ParseError(f"generator set {sorted(X)} out of range for rank {self.rank}")
        return X

    def delta_of(self, X: GeneratorSet) -> int:
        """The longest element of W_X (the Garside element of A_X); 0 for empty X."""
        X = self._check_subset(X)
        out = self._delta_memo.get(X)
        if out is None:
            cur = 0
            while True:
                up = [s for s in X if s not in self.w_right_descents(cur)]
                if not up:
                    break
                cur = self.w_mul(cur, self.gens[min(up)])
            out = cur
            self._delta_memo[X] = out
        return out

    def delta_length_of(self, X: GeneratorSet) -> int:
        return self.w_len(self.delta_of(X))

    def delta_permutation(self, X: GeneratorSet) -> dict[int, int]:
        """The permutation s -> Delta_X^-1 s Delta_X of the letters of X."""
        X = self._check_subset(X)
        d = self.delta_of(X)
        di = self.w_inv(d)
        out = {}
        for s in X:
            t = self.w_mul(self.w_mul(di, self.gens[s]), d)
            matches = [u for u in X if self.gens[u] == t]
            assert len(matches) == 1, "Delta_X conjugation must permute X"
            out[s] = matches[0]
        return out

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
