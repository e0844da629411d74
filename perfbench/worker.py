"""One workload in one fresh interpreter; prints one JSON object on stdout.

Started by run.py with PYTHONHASHSEED fixed and PYTHONPATH pointing at the
checkout's src/, so that peak memory and cold memo tables belong to this
workload alone.  Modes:

  --setup-only   time `import garside` plus the workload's context set-up
  (default)      set up, run ops for --seconds, then check every output

Correctness checks (recorded digests and one invariant per op) run after the
timed loop, so they neither add to the timings nor warm the memo tables the
ops use.

Every time reported is process CPU time divided by the machine's speed
factor at that moment (speed.py), i.e. seconds at the reference speed.  The
workloads are single-threaded and do no I/O, so CPU time is what an op costs
on an otherwise idle machine; wall time on a shared virtual machine also
counts the time the host runs other guests, and CPU time itself drifts with
the host's load.  A probe runs between cases every PROBE_EVERY_S of workload
CPU time, and the ops between two probes are scaled by the median of the
probes around them.  `--seconds` is a budget in the same reference seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import process_time as clock

HERE = Path(__file__).resolve().parent
PROBE_EVERY_S = 0.1


def load_recorded(name: str) -> dict:
    path = HERE / "digests" / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import speed

    factor_before = speed.factor()
    t0 = clock()
    import garside
    from garside import context_from_token

    import_s = clock() - t0

    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    rec = tracer.install() if args.trace else None
    t1 = clock()
    ctxs = {g: context_from_token(g) for g in wl.groups}
    wl.setup(ctxs)
    setup_cpu_s = import_s + clock() - t1
    setup_s = setup_cpu_s / ((factor_before + speed.factor()) / 2)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
        return 0

    pool = wl.pool()
    latencies: list[tuple[float, int]] = []  # (CPU seconds, probe window)
    visited: list[tuple[int, list]] = []
    probes = [speed.sample()]  # ms; window w lies between probes w and w + 1
    window_cpu = [0.0]  # CPU seconds of ops and case glue per window

    def timed(op, fn, *fargs):
        call = rec.span(f"op.{op}", fn) if rec else fn
        start = clock()
        try:
            out = call(*fargs)
        except Exception as exc:  # an op that raises is counted, not fatal
            out = workloads.OpError(exc)
        latencies.append((clock() - start, len(probes) - 1))
        return out

    stream = wl.stream(args.seed)
    done = 0.0  # reference seconds so far
    while done < args.seconds:
        i = next(stream)
        start = clock()
        visited.append((i, wl.run(ctxs, pool[i], timed)))
        spent = clock() - start
        window_cpu[-1] += spent
        done += spent * speed.REFERENCE_MS / statistics.median(probes[-5:])
        if window_cpu[-1] >= PROBE_EVERY_S:
            probes.append(speed.sample())
            window_cpu.append(0.0)
    probes.append(speed.sample())
    factors = [statistics.median(probes[max(0, w - 2):w + 4]) / speed.REFERENCE_MS
               for w in range(len(window_cpu))]
    elapsed = sum(cpu / f for cpu, f in zip(window_cpu, factors))
    scaled = [cpu / factors[w] for cpu, w in latencies]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = rec.metrics() if rec else None
    if rec:
        rec.uninstall()

    # ------------------------------------------------ checks, outside timing
    recorded = load_recorded(wl.name)
    pool_ok = recorded.get("pool_sha") == workloads.pool_sha(pool)
    check_ctxs = ctxs or {g: context_from_token(g) for g in workloads.CLI_CHECK_GROUPS}
    attempted = failed = 0
    errors: list[str] = []
    for i, results in visited:
        attempted += len(results)
        want = recorded["digests"][i] if pool_ok else [None] * len(results)
        raised = [isinstance(r, workloads.OpError) for _, r in results]
        if any(raised):
            # Later ops of the case may depend on the one that raised.
            holds = [not r for r in raised]
        else:
            try:
                holds = wl.check(check_ctxs, pool[i], results)
            except Exception as exc:
                holds = [False] * len(results)
                errors.append(f"case {i}: check raised {type(exc).__name__}: {exc}")
        for k, (op, r) in enumerate(results):
            if raised[k]:
                failed += 1
                errors.append(f"case {i} op {k} ({op}): {r!r}")
                continue
            got = workloads.digest(wl.canonical(op, r))
            if got != want[k]:
                errors.append(f"case {i} op {k} ({op}): digest {got} != recorded {want[k]}")
            if not holds[k]:
                errors.append(f"case {i} op {k} ({op}): invariant failed")
            failed += got != want[k] or not holds[k]
    if not pool_ok:
        errors.insert(0, "generated pool does not match the recorded digests")

    indices = [i for i, _ in visited]
    shape = workloads.shape(wl, pool, indices, recorded["attrs"]) if pool_ok else {}
    shape["orders"] = {g: context_from_token(g).coxeter_order
                       for g in sorted(shape.get("groups", {}))}
    result = {
        "setup_s": setup_s,
        "ops": len(scaled),
        "elapsed_s": elapsed,
        "cpu_s": sum(window_cpu),
        "speed_factor": sum(window_cpu) / elapsed,
        "ops_per_s": len(scaled) / elapsed,
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p90_ms": statistics.quantiles(scaled, n=10)[8] * 1e3
        if len(scaled) >= 2 else scaled[0] * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "shape": shape,
        "garside_file": garside.__file__,
    }
    if layers is not None:
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
