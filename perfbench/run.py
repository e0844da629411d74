"""Benchmark of the garside library: four seeded workloads, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload nf_arith --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh interpreter (worker.py) with PYTHONHASHSEED=0
and PYTHONPATH=<root>/src, so it measures the library in this checkout and
nothing installed elsewhere.  With --trace 0 the last line of stdout holds the
end-to-end metrics; set-up time is the median of several fresh set-ups.  With
--trace 1 it holds the per-layer metrics of a traced run, plus the tracing
overhead against an untraced run of the same seed.  The lines before it give
every metric with its unit, the error rate, the input shape and the
environment (Python version, CPU count, commit, sha256 of src/garside).

End-to-end times are CPU seconds scaled to a reference machine speed, and
--seconds is a budget in those reference seconds (see worker.py, speed.py).

Exit status: 0 when every op's output matched its recorded digest and
invariant, 1 otherwise, 2 when the checkout holds no src/garside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("nf_arith", "summit_graphs", "closures", "cli_cold")
SETUP_PROBES = 5
TIME_BUDGET_S = 170.0  # the whole command, per workload


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    timeout = max(1.0, deadline - monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"fatal": f"worker timed out after {timeout:.0f} s: {' '.join(args)}"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"fatal": f"worker exited {proc.returncode}: {' | '.join(tail)}"}
    out = json.loads(lines[-1])
    if "garside_file" in out and not Path(out["garside_file"]).resolve().is_relative_to(SRC):
        return {"fatal": f"imported garside from {out['garside_file']}, not {SRC}"}
    return out


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "garside").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Measure one workload; returns metrics, counts and the report lines."""
    deadline = monotonic() + TIME_BUDGET_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    runs = [spawn(base + ["--trace", "0"], deadline)]
    if trace:
        runs.append(spawn(base + ["--trace", "1"], deadline))
    fatal = [r["fatal"] for r in runs if "fatal" in r]
    probes = []
    if not trace and not fatal:
        for _ in range(SETUP_PROBES):
            probe = spawn(["--workload", name, "--setup-only"], deadline)
            if "fatal" in probe:
                fatal.append(probe["fatal"])
                break
            probes.append(probe["setup_s"])
    if fatal:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "lines": [f"{name}: FAILED: {msg}" for msg in fatal]}

    plain = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    correct = failed == 0 and not errors
    if trace:
        traced = runs[1]
        values = dict(traced["layers"])
        values["trace.untraced_ops_per_s"] = plain["ops_per_s"]
        values["trace.traced_ops_per_s"] = traced["ops_per_s"]
        values["trace.ops_per_s_ratio"] = traced["ops_per_s"] / plain["ops_per_s"]
        wanted = spec["per_layer"]
    else:
        values = {k: plain[k] for k in
                  ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(probes)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    verdict = "correct" if correct else "INCORRECT"
    lines = [f"{name} seed {seed}: {plain['ops']} ops, {verdict}",
             f"  {plain['cpu_s']:.2f} CPU s at speed factor {plain['speed_factor']:.3f}"
             f" = {plain['elapsed_s']:.2f} reference s"]
    for key, m in metrics.items():
        lines.append(f"  {key:<40} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'error_rate':<40} {failed / attempted:.6g} "
                 f"({failed} of {attempted} ops)")
    if not trace:
        lines.append(f"  {'setup_s samples':<40} " + " ".join(f"{p:.4f}" for p in probes))
    lines.append("  shape " + json.dumps(plain["shape"], sort_keys=True))
    lines += [f"  error: {e}" for e in errors[:10]]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps the worker it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "garside" / "__init__.py").is_file():
        print(f"error: no garside package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, spec) for n in names}
    for res in results.values():
        print("\n".join(res["lines"]))
    print("environment " + json.dumps(environment(), sort_keys=True))

    correct = all(r["correct"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
