"""In-memory multi-version record store with commit-time serializability
certification, an offline dependency-graph checker, and a microbenchmark
harness."""

from .bench import ClientGroup, RunStats, WorkloadConfig, run_bench
from .certifier import Certifier, ExclusionCertifier, SsiCertifier
from .kernel import (
    INFINITY, GlobalClock, Scheme, Status, TableMode, TransactionAborted,
    TransactionContext, TransactionTable, UsageError,
)
from .oracle import (
    DependencyGraph, ViolationReport, build_graph, check_trace,
    enumerate_interleavings, find_violations, parse_script, replay_scripted,
    strongly_connected_components,
)
from .schedulers import CertifierMode, Engine
from .store import Store, VersionMeta, WriteConflict
from .trace import TraceEvent, TraceLog, parse_trace, read_trace, write_trace

__all__ = [
    "ClientGroup", "RunStats", "WorkloadConfig", "run_bench",
    "Certifier", "ExclusionCertifier", "SsiCertifier",
    "INFINITY", "GlobalClock", "Scheme", "Status", "TableMode",
    "TransactionAborted", "TransactionContext", "TransactionTable",
    "UsageError", "DependencyGraph", "ViolationReport",
    "build_graph", "check_trace", "enumerate_interleavings",
    "find_violations", "parse_script", "replay_scripted",
    "strongly_connected_components", "CertifierMode", "Engine",
    "Store", "VersionMeta", "WriteConflict", "TraceEvent", "TraceLog",
    "parse_trace", "read_trace", "write_trace",
]
