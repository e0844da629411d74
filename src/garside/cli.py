"""Command-line front end.

One invocation computes one thing: a normal form, a mixed form, a summit
graph, a parabolic closure, an intersection, and so on.  The group is named
by a family token (A4, B3, I2(5), ...) or by a JSON file carrying an explicit
Coxeter matrix.  Output is human-readable text by default; --format json
emits machine-readable artifacts, byte-identical across runs, and --format
dot draws the graph of summit, complex-ball and figures.

Exit codes: 0 on success, 1 on other library errors (a non-spherical
Coxeter matrix, a rank above the cap, ...) and on a closed stdout, 2 on
parse/usage errors (bad words, tokens, flags, group and config files or
output paths), 3 when a bounded enumeration outgrows its cap (one `budget
exhausted:` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import conjugacy, lattice, parabolic
from .coxeter import CoxeterSpec, GroupContext, build_context
from .elements import (
    GarsideStructure,
    GroupElement,
    format_element,
    format_positive,
    np_normal_form,
    parse_element,
    parse_word,
    pn_normal_form,
    support,
)
from .errors import BudgetExceeded, GarsideError, ParseError

_KINDS = {k.value: k for k in conjugacy.SummitKind}
_DOT_COMMANDS = ("summit", "complex-ball", "figures")


def _read_json(path: str, what: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise ParseError(f"cannot read {what} {path}: {e}") from None


def _read_config(path: str) -> dict:
    config = _read_json(path, "config file")
    if not isinstance(config, dict):
        raise ParseError(f"config file {path} must hold a JSON object")
    rank_cap = config.get("rankCap", GroupContext.DEFAULT_RANK_CAP)
    if type(rank_cap) is not int or rank_cap < 1:
        raise ParseError(f"config rankCap must be an integer >= 1, got {rank_cap!r}")
    budgets = config.get("budgets", {})
    if not isinstance(budgets, dict) or not all(
            type(v) is int and v >= 0 for v in budgets.values()):
        raise ParseError(f"config budgets must map names to integers >= 0, got {budgets!r}")
    return config


def _load_context(token: str, config: dict) -> GroupContext:
    rank_cap = config.get("rankCap", GroupContext.DEFAULT_RANK_CAP)
    if token.endswith(".json"):
        data = _read_json(token, "group file")
        if not isinstance(data, dict) or "matrix" not in data:
            raise ParseError(f"group file {token} has no \"matrix\" entry")
        spec = CoxeterSpec.from_matrix(data["matrix"], name=data.get("name"))
    else:
        spec = CoxeterSpec.from_token(token)
    return build_context(spec, rank_cap=rank_cap)


def _read_word_arg(ctx: GroupContext, text: str) -> GroupElement:
    if text == "-":
        text = sys.stdin.read()
    return parse_element(ctx, text)


def _parse_subgroup(ctx: GroupContext, text: str) -> parabolic.ParabolicSubgroup:
    """Subgroup syntax: 'BASE' or 'CONJ @ BASE', BASE a comma/space separated
    list of generators, CONJ a signed word (identity when omitted)."""
    if "@" in text:
        conj_text, base_text = text.split("@", 1)
    else:
        conj_text, base_text = "", text
    conj = parse_word(ctx, conj_text)
    base = []
    for tok in base_text.replace(",", " ").split():
        g = parse_word(ctx, tok)
        letters = g.as_signed_word()
        if len(letters) != 1:
            raise ParseError(f"base entries must be single generators, got {tok!r}")
        base.append(letters[0][0])
    return parabolic.ParabolicSubgroup.from_conjugator(ctx, conj, frozenset(base))


def _subgroup_text(P: parabolic.ParabolicSubgroup) -> str:
    data = P.to_json()
    base = ", ".join(f"s{i}" for i in data["base"]) or "-"
    std = data["standardizer"] or "1"
    return f"standardizer: {std}\nbase: {{{base}}}\nz: {format_element(P.z)}"


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w") as f:
                f.write(text + "\n")
        except OSError as e:
            raise ParseError(f"cannot write {args.output}: {e}") from None
    else:
        print(text)


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True))


def _emit_as(args, payload, text: str) -> None:
    if args.format == "json":
        _emit_json(args, payload)
    else:
        _emit(args, text)


def _structure(ctx: GroupContext, args) -> GarsideStructure:
    return GarsideStructure(ctx, getattr(args, "N", 1))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves no state in it, since each
    parse_args call fills a fresh Namespace."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file with budgets and rank cap")
    shared.add_argument("--format", choices=("text", "json", "dot"),
                        default=argparse.SUPPRESS)
    shared.add_argument("--output", default=argparse.SUPPRESS,
                        help="write output to this path instead of stdout")
    parser = argparse.ArgumentParser(
        prog="garside",
        description="Garside-theoretic computations in spherical-type Artin-Tits groups",
        parents=[shared],
    )
    parser.add_argument("group", help="group token (A4, B3, I2(5), ...) or a JSON matrix file")
    sub = parser.add_subparsers(dest="command", required=True)

    def word_cmd(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text, parents=[shared])
        p.add_argument("word", help="signed word over s1..sn, or - for stdin")
        return p

    word_cmd("nf", "left normal form").add_argument("--N", type=int, default=1,
                                                    help="Garside structure exponent")
    word_cmd("np", "negative-positive normal form")
    word_cmd("pn", "positive-negative normal form")
    word_cmd("supp", "support of the element")
    for name in ("cycle", "decycle", "twist"):
        word_cmd(name, f"{name} the element once").add_argument("--N", type=int, default=1)
    p = word_cmd("summit", "summit set graph")
    p.add_argument("--kind", choices=sorted(_KINDS), default="sss")
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--power-bound", type=int, default=4,
                   help="power truncation for the stable ultra summit set")
    word_cmd("closure", "parabolic closure of the element")
    word_cmd("phi", "Garside-element length of the closure's standard base")

    def subgroup_cmd(name: str, help_text: str, two: bool = False):
        p = sub.add_parser(name, help=help_text, parents=[shared])
        p.add_argument("subgroup", help="subgroup spec: 'BASE' or 'CONJ @ BASE'")
        if two:
            p.add_argument("subgroup2")
        return p

    subgroup_cmd("z", "canonical central element of a parabolic subgroup")
    subgroup_cmd("standardize", "minimal standardizer and standard base")
    subgroup_cmd("commute-z", "do the central elements commute?", two=True)
    subgroup_cmd("adjacent", "three-way adjacency characterization", two=True)
    subgroup_cmd("intersect", "bounded intersection with certificate", two=True) \
        .add_argument("--budget", type=int, default=argparse.SUPPRESS)
    subgroup_cmd("join", "bounded join with certificate", two=True) \
        .add_argument("--budget", type=int, default=argparse.SUPPRESS)
    p = subgroup_cmd("complex-ball", "ball in the complex of irreducible parabolic subgroups")
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--budget", type=int, default=argparse.SUPPRESS)

    sub.add_parser("figures", help="positive-conjugate graph of s1 s2 and its z-action",
                   parents=[shared])
    return parser


def _run_word_command(ctx: GroupContext, args) -> int:
    u = _read_word_arg(ctx, args.word)
    st = _structure(ctx, args)
    if args.command == "nf":
        form = st.canonical_form(u)
        _emit_as(args, form.to_json(), form.text())
    elif args.command in ("np", "pn"):
        f = np_normal_form(u) if args.command == "np" else pn_normal_form(u)
        keys = ("negative", "positive") if args.command == "np" else ("positive", "negative")
        shown = {k: format_element(getattr(f, k)) for k in keys}
        _emit_as(args, shown, "\n".join(f"{k}: {v}" for k, v in shown.items()))
    elif args.command == "supp":
        letters = " ".join(f"s{i + 1}" for i in sorted(support(u))) or "-"
        _emit_as(args, {"support": letters.split()}, letters)
    elif args.command in ("cycle", "decycle", "twist"):
        op = {"cycle": conjugacy.cycling, "decycle": conjugacy.decycling,
              "twist": conjugacy.twisted_cycling}[args.command]
        result, conj = op(u, st)
        shown = {"result": format_element(result), "conjugator": format_element(conj)}
        _emit_as(args, shown, "\n".join(f"{k}: {v}" for k, v in shown.items()))
    elif args.command == "summit":
        graph = conjugacy.compute_summit_graph(
            u, _KINDS[args.kind], st,
            power_bound=_non_negative("--power-bound", args.power_bound),
        )
        if args.format == "dot":
            _emit(args, graph.to_dot())
        elif args.format == "json":
            _emit_json(args, graph.to_json())
        else:
            lines = [f"{len(graph.vertices)} vertices, {len(graph.arrows)} arrows"]
            lines += [f"  [{i}] {format_element(v)}" for i, v in enumerate(graph.vertices)]
            for a, b, label in graph.arrows:
                lines.append(f"  [{a}] --({format_positive(label)})--> [{b}]")
            _emit(args, "\n".join(lines))
    elif args.command == "closure":
        P = parabolic.parabolic_closure(u)
        _emit_as(args, P.to_json(), _subgroup_text(P))
    elif args.command == "phi":
        value = parabolic.phi(u)
        _emit_as(args, {"phi": value}, str(value))
    return 0


def _non_negative(name: str, value: int) -> int:
    if value < 0:
        raise ParseError(f"{name} must be >= 0, got {value}")
    return value


def _default_budget(args, config: dict, key: str, fallback: int) -> int:
    if hasattr(args, "budget"):
        return _non_negative("--budget", args.budget)
    return config.get("budgets", {}).get(key, fallback)


def _run_subgroup_command(ctx: GroupContext, args, config: dict) -> int:
    P = _parse_subgroup(ctx, args.subgroup)
    Q = _parse_subgroup(ctx, args.subgroup2) if hasattr(args, "subgroup2") else None
    if args.command == "z":
        _emit_as(args, P.to_json()["z"], format_element(P.z))
    elif args.command == "standardize":
        data = P.to_json()
        _emit_as(args, {"standardizer": data["standardizer"], "base": data["base"]},
                 _subgroup_text(P))
    elif args.command == "commute-z":
        value = lattice.z_commute(P, Q)
        _emit_as(args, {"commute": value}, str(value).lower())
    elif args.command == "adjacent":
        verdict = lattice.characterize_pair(P, Q)
        payload = {
            "commute": verdict.commute,
            "condition": verdict.condition.value if verdict.condition else None,
        }
        _emit_as(args, payload, f"commute: {str(verdict.commute).lower()}\n"
                                f"condition: {payload['condition'] or '-'}")
    elif args.command in ("intersect", "join"):
        op = lattice.intersect if args.command == "intersect" else lattice.join
        budget = _default_budget(args, config, args.command,
                                 5 if args.command == "intersect" else 3)
        result, cert = op(P, Q, budget)
        _emit_as(args, {"subgroup": result.to_json(), "certificate": cert.to_json()},
                 _subgroup_text(result) + "\ncertificate: "
                 + json.dumps(cert.to_json(), sort_keys=True))
    elif args.command == "complex-ball":
        ball = lattice.complex_ball(
            P, _non_negative("--radius", args.radius),
            _default_budget(args, config, "complexBall", 0),
        )
        if args.format == "dot":
            _emit(args, ball.to_dot())
        elif args.format == "json":
            _emit_json(args, ball.to_json())
        else:
            lines = [f"{len(ball.vertices)} vertices, {len(ball.edges)} edges"]
            lines += [f"  [{i}] {V!r}" for i, V in enumerate(ball.vertices)]
            lines += [f"  [{a}] -- [{b}]" for a, b in ball.edges]
            _emit(args, "\n".join(lines))
    return 0


def figure_graphs(ctx: GroupContext):
    """The positive-conjugate graph of s1 s2 and the induced action on the
    central elements of the minimal standard parabolic subgroups."""
    base = parse_word(ctx, "s1 s2")
    graph = conjugacy.compute_summit_graph(base, conjugacy.SummitKind.POSITIVE_CONJUGATES)
    z_of_vertex = [
        parabolic.central_element_of_standard(ctx, support(v)) for v in graph.vertices
    ]
    z_vertices = sorted(set(z_of_vertex), key=GroupElement.sort_key)
    z_index = {z: i for i, z in enumerate(z_vertices)}
    z_arrows = sorted(
        {
            (z_index[z_of_vertex[a]], z_index[z_of_vertex[b]], label)
            for a, b, label in graph.arrows
        },
        key=lambda t: (t[0], t[1], t[2].sort_key()),
    )
    return graph, z_vertices, z_arrows


def _run_figures(ctx: GroupContext, args) -> int:
    graph, z_vertices, z_arrows = figure_graphs(ctx)
    action = {
        "vertices": [format_element(z) for z in z_vertices],
        "arrows": [
            {"from": a, "to": b, "label": format_positive(label)}
            for a, b, label in z_arrows
        ],
    }
    if args.format == "dot":
        lines = [graph.to_dot(), "", "digraph z_action {", "    rankdir=LR;"]
        for i, z in enumerate(z_vertices):
            lines.append(f'    z{i} [label="{format_element(z)}"];')
        for a, b, label in z_arrows:
            lines.append(f'    z{a} -> z{b} [label="{format_positive(label)}"];')
        lines.append("}")
        _emit(args, "\n".join(lines))
    else:
        _emit_json(args, {"positiveConjugates": graph.to_json(), "zAction": action})
    return 0


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    for name, default in (("config", None), ("format", "text"), ("output", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        if args.format == "dot" and args.command not in _DOT_COMMANDS:
            raise ParseError(f"--format dot applies to {', '.join(_DOT_COMMANDS)} only")
        config = _read_config(args.config) if args.config else {}
        ctx = _load_context(args.group, config)
        if args.command == "figures":
            return _run_figures(ctx, args)
        if hasattr(args, "subgroup"):
            return _run_subgroup_command(ctx, args, config)
        return _run_word_command(ctx, args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except GarsideError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: send what is left to devnull, so that the
        # flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
