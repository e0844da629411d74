"""Span and counter recorder that traces the garside package from outside.

Nothing under src/garside is edited: `install` replaces functions at run time,
at the module that defines them and at every other module of the package that
bound the same object with `from ... import`, because the engines call
through those bindings (lattice calls parabolic_closure through its own name,
cli calls build_context through its own name, and so on).

Two kinds of instrumentation:

* spans, around the workload ops and the public functions of conjugacy,
  parabolic, lattice and cli.  They are aggregated in memory per name: calls,
  inclusive time of the outermost call of that name, and self time (duration
  minus the time covered by direct child spans).
* hot counters, around the coxeter and elements functions called millions of
  times.  They count calls and inclusive time keyed by the enclosing span, and
  count nested calls per active hot ancestor (so "w_mul calls made inside
  _normalize" is measured where the work happens).

`Recorder.metrics()` turns the aggregates into the per-layer metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# Modules whose public functions get spans.
SPAN_MODULES = ("conjugacy", "parabolic", "lattice", "cli")
# Private functions that are layer boundaries in their own right.
EXTRA_SPANS = ("conjugacy._minimal_conjugators", "conjugacy._structure_simples")


class Recorder:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, start, child_time]
        self.hot: list[str] = []  # hot functions active inside the innermost span
        self.span_calls: dict[str, int] = defaultdict(int)
        self.span_time: dict[str, float] = defaultdict(float)
        self.span_self: dict[str, float] = defaultdict(float)
        self.hot_calls: dict[tuple, int] = defaultdict(int)  # (span, name)
        self.hot_time: dict[tuple, float] = defaultdict(float)
        self.nested: dict[tuple, int] = defaultdict(int)  # (ancestor, name)
        self.counts: dict[tuple, float] = defaultdict(float)  # (span, counter)
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ recording

    def enclosing(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def count(self, counter: str, amount: float = 1) -> None:
        self.counts[(self.enclosing(), counter)] += amount

    def span(self, name: str, fn, on_result=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = all(frame[0] != name for frame in rec.stack)
            frame = [name, perf_counter(), 0.0]
            rec.stack.append(frame)
            saved_hot, rec.hot = rec.hot, []
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[1]
                rec.hot = saved_hot
                rec.stack.pop()
                rec.span_calls[name] += 1
                rec.span_self[name] += duration - frame[2]
                if outermost:
                    rec.span_time[name] += duration
                if rec.stack:
                    rec.stack[-1][2] += duration
            if on_result is not None:
                on_result(args, out)
            return out

        return wrapper

    def hot_counter(self, name: str, fn, on_call=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.stack[-1][0] if rec.stack else None
            hot = rec.hot
            for ancestor in hot:
                rec.nested[(ancestor, name)] += 1
            if on_call is not None:
                on_call(args)
            hot.append(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.hot_time[(span, name)] += perf_counter() - start
                hot.pop()
                rec.hot_calls[(span, name)] += 1

        return wrapper

    # -------------------------------------------------------------- patching

    def _rebind(self, orig, new, modules) -> None:
        """Replace `orig` by `new` at every module-level binding."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, new)

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- metrics

    def _hot_sum(self, table, name):
        return sum(v for (_, n), v in table.items() if n == name)

    def _count_sum(self, counter, span=None):
        return sum(
            v for (s, c), v in self.counts.items()
            if c == counter and (span is None or s == span)
        )

    def metrics(self) -> dict[str, float]:
        hc = functools.partial(self._hot_sum, self.hot_calls)
        ht = functools.partial(self._hot_sum, self.hot_time)
        calls, total = self.span_calls, self.span_time

        def ratio(a, b):
            return a / b if b else 0.0

        member_in_scan = self._count_sum("member_tests", "conjugacy._minimal_conjugators")
        factors_in = self._count_sum("normalize_factors_in")
        out = {
            "coxeter.w_mul_calls": hc("coxeter.w_mul"),
            "coxeter.w_mul_s": ht("coxeter.w_mul"),
            "coxeter.w_meet_calls": hc("coxeter.w_meet"),
            "coxeter.w_meet_s": ht("coxeter.w_meet"),
            "coxeter.all_elements_s": ht("coxeter.all_elements"),
            "elements.normalize_calls": hc("elements._normalize"),
            "elements.normalize_s": ht("elements._normalize"),
            "elements.normalize_factors_in": factors_in,
            "elements.w_mul_per_factor": ratio(
                self.nested[("elements._normalize", "coxeter.w_mul")], factors_in
            ),
            "elements.mul_calls": hc("elements.mul"),
            "elements.inverse_calls": hc("elements.inverse"),
            "elements.meet_prefix_calls": hc("elements.meet_prefix"),
            "elements.meet_prefix_s": ht("elements.meet_prefix"),
            "elements.structure_factors_calls": hc("elements.structure_factors"),
            "elements.structure_factors_s": ht("elements.structure_factors"),
            "conjugacy.minimal_conjugators_calls": calls["conjugacy._minimal_conjugators"],
            "conjugacy.minimal_conjugators_s": total["conjugacy._minimal_conjugators"],
            "conjugacy.member_tests": self._count_sum("member_tests"),
            "conjugacy.member_tests_per_vertex": ratio(
                member_in_scan, calls["conjugacy._minimal_conjugators"]
            ),
            "conjugacy.label_yield": ratio(self._count_sum("labels"), member_in_scan),
            "conjugacy.structure_simples_s": total["conjugacy._structure_simples"],
            "conjugacy.summit_seed_calls": calls["conjugacy.summit_seed"],
            "conjugacy.summit_seed_s": total["conjugacy.summit_seed"],
            "conjugacy.cycling_calls": calls["conjugacy.cycling"],
            "conjugacy.i_infinity_calls": calls["conjugacy.element_of_i_infinity"],
            "conjugacy.i_infinity_s": total["conjugacy.element_of_i_infinity"],
            "conjugacy.n_star_mean": ratio(
                self._count_sum("n_star"), calls["conjugacy.element_of_i_infinity"]
            ),
            "parabolic.closure_calls": calls["parabolic.parabolic_closure"],
            "parabolic.closure_s": total["parabolic.parabolic_closure"],
            "parabolic.closure_i_infinity_share": ratio(
                self._count_sum("closure_i_infinity"), calls["parabolic.parabolic_closure"]
            ),
            "parabolic.from_conjugator_calls": calls["parabolic.from_conjugator"],
            "parabolic.from_conjugator_s": total["parabolic.from_conjugator"],
            "parabolic.contains_element_calls": calls["parabolic.contains_element"],
            "parabolic.contains_element_s": total["parabolic.contains_element"],
            "lattice.intersect_s": total["lattice.intersect"],
            "lattice.join_s": total["lattice.join"],
            "lattice.complex_ball_s": total["lattice.complex_ball"],
            "lattice.signed_ball_s": total["lattice.signed_ball"],
            "lattice.candidates_examined": self._count_sum("candidates_examined"),
            "cli.run_s": total["cli.run"],
            "cli.context_build_s": total["coxeter.build_context"],
            "cli.self_s": sum(v for n, v in self.span_self.items() if n.startswith("cli.")),
        }
        return {k: float(v) for k, v in out.items()}


def _garside_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "garside" or n.startswith("garside.")) and m is not None]


def install() -> Recorder:
    """Patch the imported garside package and return the recorder.

    Call `Recorder.uninstall()` to restore every binding.
    """
    import garside  # noqa: F401  (loads every submodule)
    from garside import cli, conjugacy, coxeter, elements, lattice, parabolic

    rec = Recorder()
    mods = _garside_modules()

    # Hot counters: coxeter and elements.
    GC, GE, GS = coxeter.GroupContext, elements.GroupElement, elements.GarsideStructure
    rec._set(GC, "w_mul", rec.hot_counter("coxeter.w_mul", GC.w_mul))
    rec._set(GC, "w_meet", rec.hot_counter("coxeter.w_meet", GC.w_meet))
    rec._set(GC, "all_elements", rec.hot_counter("coxeter.all_elements", GC.all_elements))
    rec._set(GE, "__mul__", rec.hot_counter("elements.mul", GE.__mul__))
    rec._set(GE, "inverse", rec.hot_counter("elements.inverse", GE.inverse))
    rec._set(GS, "factors", rec.hot_counter("elements.structure_factors", GS.factors))
    rec._rebind(elements._normalize, rec.hot_counter(
        "elements._normalize", elements._normalize,
        on_call=lambda args: rec.count("normalize_factors_in", len(args[2]))), mods)
    rec._rebind(elements.meet_prefix,
                rec.hot_counter("elements.meet_prefix", elements.meet_prefix), mods)

    # Result hooks for the derived conjugacy, parabolic and lattice metrics.
    def on_summit_membership(args, member):
        @functools.wraps(member)
        def counted(w):
            rec.count("member_tests")
            return member(w)
        return counted

    hooks = {
        "conjugacy._minimal_conjugators":
            lambda args, labels: rec.count("labels", len(labels)),
        "conjugacy.element_of_i_infinity":
            lambda args, out: rec.count("n_star", out[2]),
        "lattice.intersect":
            lambda args, out: rec.count("candidates_examined", out[1].candidates_examined),
        "lattice.join":
            lambda args, out: rec.count("candidates_examined", out[1].candidates_examined),
    }
    module_of = {"conjugacy": conjugacy, "parabolic": parabolic,
                 "lattice": lattice, "cli": cli}
    targets = [
        (short, attr, fn) for short in SPAN_MODULES
        for attr, fn in vars(module_of[short]).items()
        if inspect.isfunction(fn) and fn.__module__ == module_of[short].__name__
        and not attr.startswith("_")
    ]
    for name in EXTRA_SPANS:
        short, attr = name.split(".")
        targets.append((short, attr, getattr(module_of[short], attr)))
    for short, attr, fn in targets:
        name = f"{short}.{attr}"
        if name == "conjugacy.summit_membership":
            wrapped = rec.span(name, _returning(fn, on_summit_membership))
        else:
            wrapped = rec.span(name, fn, hooks.get(name))
        rec._rebind(fn, wrapped, mods)

    PS = parabolic.ParabolicSubgroup
    rec._set(PS, "from_conjugator", staticmethod(
        rec.span("parabolic.from_conjugator", PS.from_conjugator)))

    # parabolic's own binding of element_of_i_infinity: closures that took
    # the path without a positive conjugate.
    via_closure = parabolic.element_of_i_infinity

    @functools.wraps(via_closure)
    def i_infinity_from_closure(*args, **kwargs):
        rec.count("closure_i_infinity")
        return via_closure(*args, **kwargs)

    rec._set(parabolic, "element_of_i_infinity", i_infinity_from_closure)
    # Context construction as called from the CLI.
    rec._set(cli, "build_context", rec.span("coxeter.build_context", cli.build_context))
    return rec


def _returning(fn, transform):
    """fn with its result passed through transform(args, result)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return transform(args, fn(*args, **kwargs))
    return wrapper
