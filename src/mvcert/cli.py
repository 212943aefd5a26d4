"""Command-line surface: bench, check, replay, enumerate.

Exit codes: 0 ok, 1 usage or input error, 2 serializability violation
found by check.
"""

from __future__ import annotations

import argparse
import sys

from .bench import ClientGroup, WorkloadConfig, run_bench
from .kernel import Scheme, UsageError
from .oracle import (  # noqa: F401  perfbench/spans.py wraps build_graph here
    build_graph, check_trace, enumerate_interleavings, parse_script,
    replay_scripted,
)
from .schedulers import CertifierMode
from .trace import MalformedTrace, read_trace, write_trace


def _group_from_spec(spec: str) -> ClientGroup:
    """Parse one --group option: comma-separated key=value pairs.

    Keys: threads, fmin, fmax, writes, read_only, read_mostly.
    """
    fields = {}
    for part in spec.split(","):
        if "=" not in part:
            raise UsageError("bad group field %r" % part)
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        group = ClientGroup(
            threads=int(fields.pop("threads", 1)),
            footprint_min=int(fields.pop("fmin")),
            footprint_max=int(fields.pop("fmax")),
            writes_per_txn=int(fields.pop("writes", 0)),
            read_only=bool(int(fields.pop("read_only", "0"))),
            read_mostly=bool(int(fields.pop("read_mostly", "0"))),
        )
    except KeyError as missing:
        raise UsageError("group spec needs %s" % missing) from None
    # Only a complete parse has popped every known field.
    if fields:
        raise UsageError("unknown group fields %s" % sorted(fields))
    return group


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvcert",
        description="multi-version store with commit-time serializability "
                    "certification, offline checker, and microbenchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the microbenchmark")
    bench.add_argument("--db", type=int, default=1000, help="record count")
    bench.add_argument("--threads", type=int, default=1)
    bench.add_argument("--footprint", default="8:12",
                       help="accesses per transaction, MIN:MAX")
    bench.add_argument("--writes", type=int, default=3,
                       help="trailing writes per transaction")
    bench.add_argument("--txns", type=int, default=1000,
                       help="transactions per thread")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--scheme", choices=[s.value for s in Scheme],
                       default="si")
    bench.add_argument("--certifier",
                       choices=[c.value for c in CertifierMode], default="ssn")
    bench.add_argument("--commit-path", choices=["serial", "parallel"],
                       default="parallel")
    bench.add_argument("--no-retry", action="store_true",
                       help="drop aborted transactions instead of retrying")
    bench.add_argument("--safe-snapshot-interval", type=int, default=0,
                       help="take a safe snapshot every N commits")
    bench.add_argument("--read-mostly-threshold", type=int, default=0,
                       help="staleness threshold in timestamp ticks")
    bench.add_argument("--distinct-writes", action="store_true",
                       help="keep write targets out of the read footprint")
    bench.add_argument("--group", action="append", default=[],
                       help="extra client group, e.g. "
                            "threads=2,fmin=100,fmax=200,writes=1,read_mostly=1 "
                            "(replaces the default single group)")
    bench.add_argument("--emit-trace", metavar="PATH",
                       help="write the execution trace to PATH")

    check = sub.add_parser("check", help="test a trace for dependency cycles")
    check.add_argument("trace", help="trace file to analyze")

    replay = sub.add_parser("replay", help="run a schedule script")
    replay.add_argument("script", help="schedule script file")
    replay.add_argument("--scheme", choices=[s.value for s in Scheme],
                        default="si")
    replay.add_argument("--certifier",
                        choices=[c.value for c in CertifierMode],
                        default="ssn")
    replay.add_argument("--emit-trace", metavar="PATH")

    enum = sub.add_parser(
        "enumerate",
        help="replay every interleaving of the scripts' programs under "
             "observe-mode rc and report cyclic histories")
    enum.add_argument("scripts", nargs="+",
                      help="one script file per transaction program")

    return parser


def _cmd_bench(args) -> int:
    try:
        fmin, fmax = (int(part) for part in args.footprint.split(":"))
    except ValueError:
        print("bad --footprint %r, want MIN:MAX" % args.footprint,
              file=sys.stderr)
        return 1
    if args.group:
        groups = [_group_from_spec(spec) for spec in args.group]
    else:
        groups = [ClientGroup(args.threads, fmin, fmax, args.writes)]
    config = WorkloadConfig(
        db_size=args.db, groups=groups, txns_per_thread=args.txns,
        seed=args.seed, scheme=Scheme(args.scheme),
        certifier=CertifierMode(args.certifier),
        serial_commit=args.commit_path == "serial",
        retry=not args.no_retry,
        safe_snapshot_interval=args.safe_snapshot_interval,
        read_mostly_threshold=args.read_mostly_threshold,
        distinct_writes=args.distinct_writes,
        emit_trace=bool(args.emit_trace))
    stats, events = run_bench(config)
    sys.stdout.write(stats.render())
    if args.emit_trace:
        write_trace(events, args.emit_trace)
    return 0


def _cmd_check(args) -> int:
    report = check_trace(read_trace(args.trace))
    sys.stdout.write(report.render())
    return 0 if report.clean else 2


def _cmd_replay(args) -> int:
    with open(args.script) as handle:
        steps = parse_script(handle.read())
    result = replay_scripted(steps, Scheme(args.scheme),
                             CertifierMode(args.certifier))
    for label in sorted(result.outcomes):
        outcome = result.outcomes[label]
        if outcome[0] == "committed":
            print("%s committed cstamp=%d" % (label, outcome[1]))
        else:
            print("%s aborted reason=%s" % (label, outcome[1]))
    if args.emit_trace:
        write_trace(result.trace, args.emit_trace)
    return 0


def _cmd_enumerate(args) -> int:
    # One key map for all the scripts: a key names one record in each.  A
    # cycle with no flagged member raises AttributionFailure in the oracle.
    keys: dict[str, int] = {}
    programs = []
    for path in args.scripts:
        with open(path) as handle:
            steps = parse_script(handle.read(), keys)
        programs.append([(step.op, step.key) for step in steps])
    histories = cyclic = 0
    for history in enumerate_interleavings(programs):
        histories += 1
        cyclic += history.cyclic
    print("histories=%d cyclic=%d" % (histories, cyclic))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"bench": _cmd_bench, "check": _cmd_check,
                "replay": _cmd_replay, "enumerate": _cmd_enumerate}
    try:
        return handlers[args.command](args)
    except (UsageError, ValueError, OSError, MalformedTrace) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
