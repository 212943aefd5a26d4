"""Run one workload of the mvcert benchmark and print its metrics.

    python3 perfbench/run.py --workload hot-8c --seed 1 --seconds 40 --trace 0

Run it from the root of a source tree: it imports mvcert from ``src/`` and
exits with status 2, printing no result, when that is missing.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones (measure.py).

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  ``attempted``
counts the committed transactions of one unit; ``failed`` counts those the
oracle puts inside a dependency cycle.  An aborted attempt is retried, so it
is no failed operation; ``abort_ratio`` reports it.  A structural failure
(store chains, committed count, unreadable trace, counts that do not repeat)
stops the run with ``correct`` false and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "mvcert" / "__init__.py").is_file():
        print("error: no mvcert sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    measure.OUT.mkdir(exist_ok=True)
    run = measure.Run(workload, args.seed, args.seconds)
    try:
        metrics = run.traced() if args.trace else run.untraced()
    except workloads.StructuralFailure as failure:
        print("structural failure: %s" % failure, file=sys.stderr)
        done = max(1, run.reference.committed if run.reference else 0)
        print(json.dumps({"correct": False, "attempted": done,
                          "failed": done, "metrics": {}}))
        return 1
    spec = measure.PER_LAYER if args.trace else measure.END_TO_END
    meta = {"workload": workload.name, "seed": args.seed,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "src_lines": measure.src_lines(ROOT / "src" / "mvcert"),
            "seconds": round(run.elapsed(), 3)}
    result = {
        "correct": True,
        "attempted": run.reference.committed,
        "failed": run.reference.anomaly_txns,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in spec},
    }
    path = measure.OUT / ("result-%s-seed%d-trace%d.json"
                          % (workload.name, args.seed, args.trace))
    path.write_text(json.dumps(dict(meta=meta, unit_tps=run.unit_tps,
                                    **result), indent=1) + "\n")
    print("meta " + " ".join("%s=%s" % kv for kv in meta.items()))
    for line in run.lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
