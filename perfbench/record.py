"""Record the canonical outputs of a workload's whole pool.

Runs every case of the pool once, checks each op's invariant, and writes
digests/<workload>.json: the pool's sha256, one digest per op and the
input-shape attributes of each case.  The digests committed with the
benchmark were recorded at the commit that introduced it; the benchmark
compares every later run against them, so re-record only when an output is
meant to change, and say why.

Usage, from the repository root:

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/record.py --workload closures
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from garside import context_from_token

import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    ctxs = {g: context_from_token(g) for g in wl.groups}
    wl.setup(ctxs)
    check_ctxs = ctxs or {g: context_from_token(g) for g in workloads.CLI_CHECK_GROUPS}
    pool = wl.pool()
    by_stratum = defaultdict(list)
    latencies: list[float] = []

    def timed(op, fn, *fargs):
        start = perf_counter()
        out = fn(*fargs)
        latencies.append(perf_counter() - start)
        return out

    digests, attrs, bad = [], [], 0
    for i, case in enumerate(pool):
        first = len(latencies)
        results = wl.run(ctxs, case, timed)
        by_stratum[i % len(wl.specs)].extend(latencies[first:])
        holds = wl.check(check_ctxs, case, results)
        bad += holds.count(False)
        digests.append([workloads.digest(wl.canonical(op, r)) for op, r in results])
        attrs.append(wl.attrs(check_ctxs, case, results))
    if bad:
        print(f"{bad} ops failed their invariant; nothing written", file=sys.stderr)
        return 1
    out = {"pool_sha": workloads.pool_sha(pool), "digests": digests, "attrs": attrs}
    (HERE / "digests").mkdir(exist_ok=True)
    (HERE / "digests" / f"{wl.name}.json").write_text(json.dumps(out, separators=(",", ":")))
    for j, lat in sorted(by_stratum.items()):
        print(f"stratum {j} {wl.specs[j]}: ops {len(lat)} mean {statistics.mean(lat) * 1e3:.1f} ms"
              f" max {max(lat) * 1e3:.1f} ms")
    print(f"{wl.name}: {len(pool)} cases, {len(latencies)} ops, {sum(latencies):.1f} s, "
          f"mean {statistics.mean(latencies) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
