"""The four benchmark workloads: their input pools, ops and output checks.

Each workload owns a fixed pool of cases, generated from a constant master
seed, whose canonical outputs were recorded once (digests/<name>.json, see
record.py).  A run's `--seed` picks the order in which the run walks the pool:
the pool is split into strata (one per generation spec, e.g. one group, or
one summit kind in one group), every stratum is shuffled with the seed, and
the run takes one case from each stratum in turn.  So every seed sees other
inputs in another order, while the mix of groups, kinds and commands stays
the one the specs fix.  A run longer than the pool starts a fresh shuffle.

A case runs one or more ops through `timed(op, fn, *args)`; everything else a
case does (parsing the short words of a summit or closure case, say) is not
an op and is not timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass

import garside
import garside.cli

# Library calls go through the package attributes, so that the tracer's
# patches (which replace those attributes) see the benchmark's own calls.


class OpError:
    """The outcome of an op that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"OpError({self.text})"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _word(rng: random.Random, rank: int, length: int, signed: bool = True) -> str:
    letters = [f"s{i + 1}" for i in range(rank)]
    if signed:
        letters += [f"s{i + 1}^-1" for i in range(rank)]
    return " ".join(rng.choice(letters) for _ in range(length))


_RANK = {"A3": 3, "A4": 4, "A5": 5, "A6": 6, "B3": 3, "B4": 4, "D4": 4,
         "E6": 6, "F4": 4, "H3": 3, "H4": 4}
# Connected proper subsets of the path diagrams used by the CLI cases
# (irreducible standard parabolics).
_IRREDUCIBLE = {
    tok: [list(range(a, b)) for a in range(_RANK[tok]) for b in range(a + 1, _RANK[tok] + 1)
          if b - a < _RANK[tok]]
    for tok in ("A3", "A4", "B3")
}


def _subgroup_text(rng: random.Random, rank: int, base: list[int], conj_len: int) -> str:
    gens = ",".join(f"s{i + 1}" for i in base)
    conj = _word(rng, rank, conj_len)
    return f"{conj} @ {gens}" if conj else gens


def parse_subgroup(ctx, text: str) -> garside.ParabolicSubgroup:
    """'BASE' or 'CONJ @ BASE', as the CLI reads it."""
    conj_text, _, base_text = text.rpartition("@")
    base = frozenset(int(tok[1:]) - 1 for tok in base_text.replace(",", " ").split())
    conj = garside.parse_word(ctx, conj_text)
    return garside.ParabolicSubgroup.from_conjugator(ctx, conj, base)


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[str, ...]  # contexts built in set-up (empty: CLI builds its own)
    specs: tuple  # one generation spec per stratum
    rounds: int  # cases per stratum in the pool

    # -------------------------------------------------------------- inputs

    def pool(self) -> list[dict]:
        """Every case, stratum-major within each round: case i is of stratum
        i % len(specs)."""
        rng = random.Random(f"garside-perfbench/{self.name}/pool-v1")
        return [self.make_case(rng, spec) for _ in range(self.rounds) for spec in self.specs]

    def stream(self, seed: int):
        """Pool indices in the order a run with this seed visits them."""
        rng = random.Random(seed)
        n = len(self.specs)
        while True:
            orders = [list(range(j, n * self.rounds, n)) for j in range(n)]
            for order in orders:
                rng.shuffle(order)
            for k in range(self.rounds):
                for order in orders:
                    yield order[k]

    def setup(self, ctxs: dict) -> None:
        """Lazy set-up that a workload's ops rely on, finished before timing."""

    # To be provided per workload.
    def make_case(self, rng, spec) -> dict:
        raise NotImplementedError

    def run(self, ctxs, case, timed) -> list:
        raise NotImplementedError

    def canonical(self, op: str, result) -> str:
        """The text whose digest stands for an op's output."""
        raise NotImplementedError

    def check(self, ctxs, case, results) -> list[bool]:
        """One independent invariant per op; True where it holds."""
        raise NotImplementedError

    def attrs(self, ctxs, case, results) -> dict:
        """Input-shape attributes of a case, recorded with its digests."""
        raise NotImplementedError


# ---------------------------------------------------------------- nf_arith


class NfArith(Workload):
    def make_case(self, rng, spec):
        group, = spec
        rank = _RANK[group]
        common = _word(rng, rank, 20, signed=False)
        return {
            "group": group,
            "a": _word(rng, rank, 120),
            "b": _word(rng, rank, 120),
            "p": common + " " + _word(rng, rank, 20, signed=False),
            "q": common + " " + _word(rng, rank, 20, signed=False),
        }

    def run(self, ctxs, case, timed):
        ctx = ctxs[case["group"]]
        a = timed("parse", garside.parse_word, ctx, case["a"])
        b = timed("parse", garside.parse_word, ctx, case["b"])
        p = timed("parse", garside.parse_word, ctx, case["p"])
        q = timed("parse", garside.parse_word, ctx, case["q"])
        return [
            ("parse", a), ("parse", b), ("parse", p), ("parse", q),
            ("mul", timed("mul", lambda: a * b)),
            ("inverse", timed("inverse", lambda: a.inverse())),
            ("meet", timed("meet", garside.meet_prefix, p, q)),
            ("join", timed("join", garside.join_prefix, p, q)),
            ("np", timed("np", garside.np_normal_form, a)),
        ]

    def canonical(self, op, result):
        if op == "np":
            negative, positive = result.negative, result.positive
            return f"{garside.format_element(negative)} | {garside.format_element(positive)}"
        return garside.format_element(result)

    def check(self, ctxs, case, results):
        ctx = ctxs[case["group"]]
        (_, a), (_, b), (_, p), (_, q) = results[:4]
        out = [garside.parse_element(ctx, garside.format_element(u)) == u
               for _, u in results[:4]]
        for op, r in results[4:]:
            if op == "mul":
                ok = r * b.inverse() == a
            elif op == "inverse":
                ok = (a * r).is_identity()
            elif op == "meet":
                ok = garside.prefix_le(r, p) and garside.prefix_le(r, q)
            elif op == "join":
                ok = garside.prefix_le(p, r) and garside.prefix_le(q, r)
            else:
                ok = r.element() == a and r.negative.is_positive() and r.positive.is_positive()
            out.append(ok)
        return out

    def attrs(self, ctxs, case, results):
        cls = [u.canonical_length() for _, u in results[:4]]
        return {"cl": sum(cls) / len(cls)}


# ----------------------------------------------------------- summit_graphs

_KINDS = {k.value: k for k in garside.SummitKind}


class SummitGraphs(Workload):
    def setup(self, ctxs):
        for ctx in ctxs.values():
            ctx.all_elements()

    def make_case(self, rng, spec):
        group, kind, n, lo, hi = spec
        # Positive words for "pos" so that the set is never empty.
        word = _word(rng, _RANK[group], rng.randint(lo, hi), signed=kind != "pos")
        return {"group": group, "kind": kind, "N": n, "word": word}

    def run(self, ctxs, case, timed):
        ctx = ctxs[case["group"]]
        base = garside.parse_word(ctx, case["word"])
        st = garside.GarsideStructure(ctx, case["N"])
        graph = timed("summit", garside.compute_summit_graph, base, _KINDS[case["kind"]], st)
        return [("summit", graph)]

    def canonical(self, op, graph):
        return json.dumps(graph.to_json(), sort_keys=True)

    def check(self, ctxs, case, results):
        graph = results[0][1]
        return [bool(graph.vertices) and all(
            graph.base.conjugate_by(w) == v for v, w in zip(graph.vertices, graph.witnesses)
        )]

    def attrs(self, ctxs, case, results):
        return {"cl": results[0][1].base.canonical_length()}


# ---------------------------------------------------------------- closures

_POWERS = (1, -2, 3)


class Closures(Workload):
    def make_case(self, rng, spec):
        group, lo, hi = spec
        return {"group": group, "word": _word(rng, _RANK[group], rng.randint(lo, hi))}

    def powers(self, ctxs, case):
        u = garside.parse_word(ctxs[case["group"]], case["word"])
        return [u ** m for m in _POWERS]

    def run(self, ctxs, case, timed):
        return [("closure", timed("closure", garside.parabolic_closure, v))
                for v in self.powers(ctxs, case)]

    def canonical(self, op, result):
        return json.dumps(result.to_json(), sort_keys=True)

    def check(self, ctxs, case, results):
        return [garside.contains_element(P, v)
                for v, (_, P) in zip(self.powers(ctxs, case), results)]

    def attrs(self, ctxs, case, results):
        vs = self.powers(ctxs, case)
        # The closure of an element without a positive conjugate goes through
        # element_of_i_infinity.
        ii = [not v.is_identity()
              and not garside.conjugacy.cycle_to_max_inf(v)[0].is_positive() for v in vs]
        return {"cl": sum(v.canonical_length() for v in vs) / len(vs),
                "ii": sum(ii) / len(ii)}


# ---------------------------------------------------------------- cli_cold


def _cli_argv(rng, spec) -> list[str]:
    cmd = spec[0]
    if cmd in ("intersect", "adjacent", "join", "complex-ball"):
        group = rng.choice(spec[1])
        rank, bases = _RANK[group], _IRREDUCIBLE[group]
    if cmd == "intersect":
        x, y = rng.sample(bases, 2)
        return [group, "intersect", _subgroup_text(rng, rank, x, rng.randint(0, 2)),
                _subgroup_text(rng, rank, y, rng.randint(0, 2)),
                "--budget", str(rng.choice(spec[2]))]
    if cmd == "adjacent":
        # Bases of different sizes, so the two subgroups are always distinct.
        x = rng.choice(bases)
        y = rng.choice([b for b in bases if len(b) != len(x)])
        return [group, "adjacent", _subgroup_text(rng, rank, x, rng.randint(0, 2)),
                _subgroup_text(rng, rank, y, rng.randint(0, 2))]
    if cmd == "join":
        x, y = rng.sample([b for b in bases if len(b) == 1], 2)
        return [group, "join", _subgroup_text(rng, rank, x, rng.randint(0, 1)),
                _subgroup_text(rng, rank, y, rng.randint(0, 1)),
                "--budget", str(rng.choice(spec[2]))]
    if cmd == "complex-ball":
        return [group, "complex-ball",
                _subgroup_text(rng, rank, rng.choice(bases), rng.randint(0, 2)),
                "--radius", "1", "--budget", str(rng.choice(spec[2]))]
    group = rng.choice(spec[1])
    rank = _RANK[group]
    if cmd == "closure":
        return [group, "closure", _word(rng, rank, rng.randint(2, 6)), "--format", "json"]
    if cmd == "summit":
        n = rng.choice(spec[2])
        return [group, "summit", "--kind", "pos", "--N", str(n),
                _word(rng, rank, rng.randint(2, 3), signed=False)]
    if cmd == "nf":
        return [group, "nf", _word(rng, rank, rng.randint(4, 12)),
                "--N", str(rng.randint(1, 3))]
    return [group, "figures", "--format", rng.choice(("json", "dot"))]


class CliCold(Workload):
    def make_case(self, rng, spec):
        return {"argv": _cli_argv(rng, spec)}

    def run(self, ctxs, case, timed):
        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = garside.cli.run(list(argv))
            return code, out.getvalue()

        return [(case["argv"][1], timed(case["argv"][1], call, case["argv"]))]

    def canonical(self, op, result):
        code, stdout = result
        return f"exit {code}\n{stdout}"

    def check(self, ctxs, case, results):
        code, stdout = results[0][1]
        if code != 0:
            return [False]
        argv = case["argv"]
        if argv[1] != "intersect":
            return [True]
        ctx = ctxs[argv[0]]
        z_line = next(line for line in stdout.splitlines() if line.startswith("z: "))
        z = garside.parse_element(ctx, z_line[3:])
        R = garside.ParabolicSubgroup.from_central_element(ctx, z)
        P, Q = parse_subgroup(ctx, argv[2]), parse_subgroup(ctx, argv[3])
        return [garside.contains_subgroup(P, R) and garside.contains_subgroup(Q, R)]

    def attrs(self, ctxs, case, results):
        # Canonical length of the word argument, or of the subgroup conjugators.
        argv = case["argv"]
        cmd, ctx = argv[1], ctxs[argv[0]]
        if cmd in ("closure", "nf"):
            words = [argv[2]]
        elif cmd == "summit":
            words = [argv[-1]]
        elif cmd == "figures":
            words = []
        else:
            words = [a.rpartition("@")[0] for a in argv[2:4] if not a.startswith("--")]
        cls = [garside.parse_word(ctx, w).canonical_length() for w in words]
        return {"cl": sum(cls) / len(cls) if cls else 0.0}


# ------------------------------------------------------------ the workloads

WORKLOADS = {
    w.name: w for w in (
        NfArith("nf_arith", ("E6", "H4", "A6"), (("E6",), ("H4",), ("A6",)), rounds=160),
        SummitGraphs(
            "summit_graphs", ("A4", "A5", "B4", "D4", "H3", "F4"),
            (
                ("A4", "pos", 1, 2, 4), ("A5", "pos", 1, 2, 3), ("B4", "pos", 1, 2, 4),
                ("D4", "pos", 1, 2, 4), ("H3", "pos", 1, 2, 4), ("F4", "pos", 1, 2, 3),
                ("A4", "sss", 1, 2, 2), ("D4", "sss", 1, 2, 2), ("H3", "sss", 1, 2, 2),
                ("A4", "uss", 1, 2, 3), ("A5", "uss", 1, 2, 2), ("B4", "uss", 1, 2, 2),
                ("D4", "uss", 1, 2, 3), ("H3", "uss", 1, 2, 3), ("F4", "uss", 1, 2, 2),
                ("A4", "rsss", 1, 2, 3), ("A5", "rsss", 1, 2, 2), ("B4", "rsss", 1, 2, 2),
                ("D4", "rsss", 1, 2, 3), ("H3", "rsss", 1, 2, 3), ("F4", "rsss", 1, 2, 2),
                ("A4", "su", 1, 2, 2), ("B4", "su", 1, 2, 2), ("H3", "su", 1, 2, 2),
                ("A4", "pos", 2, 2, 3), ("A4", "uss", 2, 2, 2), ("H3", "pos", 2, 2, 3),
            ),
            rounds=12,
        ),
        Closures("closures", ("A3", "A4", "B3", "D4"),
                 (("A3", 1, 6), ("A4", 1, 6), ("B3", 1, 6), ("D4", 1, 5)), rounds=40),
        CliCold(
            "cli_cold", (),
            (
                ("intersect", ("A3", "A4", "B3"), (3, 4)),
                ("adjacent", ("A3", "A4", "B3")),
                ("intersect", ("A3", "A4", "B3"), (3, 4)),
                ("join", ("A3", "B3"), (1, 2)),
                ("adjacent", ("A3", "A4", "B3")),
                ("complex-ball", ("A3", "A4", "B3"), (0, 1)),
                ("closure", ("A3", "A4", "B3")),
                ("intersect", ("A3", "A4", "B3"), (3, 4)),
                ("join", ("A4",), (1,)),
                ("adjacent", ("A3", "A4", "B3")),
                ("complex-ball", ("A3", "A4"), (0, 1)),
                ("summit", ("A3", "A4"), (1, 2)),
                ("nf", ("A4", "B3", "D4")),
                ("figures", ("A3", "A4")),
            ),
            rounds=16,
        ),
    )
}

# Contexts the CLI checks and shape attributes need; the CLI builds its own.
CLI_CHECK_GROUPS = ("A3", "A4", "B3", "D4")


def pool_sha(pool: list[dict]) -> str:
    return hashlib.sha256(json.dumps(pool, sort_keys=True).encode()).hexdigest()


def shape(workload: Workload, pool, indices, recorded_attrs) -> dict:
    """Input-shape report for the cases a run visited."""
    cases = [pool[i] for i in indices]
    n = len(cases) or 1
    out: dict = {"cases": len(cases)}
    cls = [recorded_attrs[i]["cl"] for i in indices]
    out["mean_canonical_length"] = round(sum(cls) / n, 3)

    def shares(values):
        counts = Counter(values)
        return {k: round(v / n, 4) for k, v in sorted(counts.items())}

    if workload.name == "cli_cold":
        out["groups"] = shares(c["argv"][0] for c in cases)
        out["commands"] = shares(c["argv"][1] for c in cases)
    else:
        out["groups"] = shares(c["group"] for c in cases)
    if workload.name == "summit_graphs":
        out["kinds"] = shares(c["kind"] for c in cases)
        out["N"] = shares(str(c["N"]) for c in cases)
    if workload.name == "closures":
        out["i_infinity_share"] = round(sum(recorded_attrs[i]["ii"] for i in indices) / n, 4)
    return out
