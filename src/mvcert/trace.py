"""Execution traces: one logged event per transactional action.

The trace is the only thing the offline checker consumes, so it has to be
complete (every read and write, including untracked ones) and self-contained
(versions are identified by their creator's transaction id plus the record
key, which never changes, unlike the creation stamp).

File format is line-delimited text with a fixed field order:

    begin <tid> <thread>
    read <tid> <thread> <key> <creator_tid> <version_cstamp>
    write <tid> <thread> <key> <prev_creator_tid> <prev_cstamp>
    commit <tid> <thread> <cstamp>
    abort <tid> <thread> <reason>

For writes the version columns describe the overwritten version; the new
version's identity is (key, tid) implicitly.  Multi-threaded runs log into
per-thread buffers; a global sequence number taken at emit time lets the
merge preserve real-time order, so any referenced version was created by an
earlier line.  The sequence is an itertools.count: under the GIL, next() on
it is a single C call, so concurrent emitters never draw the same number.

Files stream both ways: write_trace renders one line at a time, and
parse_trace and read_trace yield one event at a time, so neither the trace
text nor a list of parsed events is ever held; the oracle's graph builder
consumes the events as they come.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .kernel import MAX_WORKERS

ABORT_REASONS = ("cc_conflict", "ssn_exclusion", "ssi_dangerous",
                 "safe_snapshot", "user")


class TraceEvent(NamedTuple):
    seq: int
    kind: str            # begin | read | write | commit | abort
    tid: int
    thread: int
    key: int | None = None
    ver_creator: int | None = None
    ver_cstamp: int | None = None
    cstamp: int | None = None
    reason: str | None = None


_new = tuple.__new__


class MalformedTrace(ValueError):
    def __init__(self, index: int, message: str):
        super().__init__("event %d: %s" % (index, message))
        self.index = index


class TraceLog:
    """Per-thread append-only buffers with a shared emit sequence.

    Each emit builds its TraceEvent with tuple.__new__ on all nine fields,
    which skips the named tuple's generated constructor and its defaults.
    """

    def __init__(self):
        self._buffers = [[] for _ in range(MAX_WORKERS)]
        self._seq = itertools.count()

    def begin(self, tid, thread):
        self._buffers[thread].append(_new(TraceEvent, (
            next(self._seq), "begin", tid, thread,
            None, None, None, None, None)))

    def read(self, tid, thread, key, ver_creator, ver_cstamp):
        self._buffers[thread].append(_new(TraceEvent, (
            next(self._seq), "read", tid, thread,
            key, ver_creator, ver_cstamp, None, None)))

    def write(self, tid, thread, key, prev_creator, prev_cstamp):
        self._buffers[thread].append(_new(TraceEvent, (
            next(self._seq), "write", tid, thread,
            key, prev_creator, prev_cstamp, None, None)))

    def commit(self, tid, thread, cstamp):
        self._buffers[thread].append(_new(TraceEvent, (
            next(self._seq), "commit", tid, thread,
            None, None, None, cstamp, None)))

    def abort(self, tid, thread, reason):
        self._buffers[thread].append(_new(TraceEvent, (
            next(self._seq), "abort", tid, thread,
            None, None, None, None, reason)))

    def merged(self) -> list[TraceEvent]:
        events = [event for buffer in self._buffers for event in buffer]
        events.sort(key=lambda event: event.seq)
        return events


def render_event(event: TraceEvent) -> str:
    if event.kind == "begin":
        return "begin %d %d" % (event.tid, event.thread)
    if event.kind == "read":
        return "read %d %d %d %d %d" % (event.tid, event.thread, event.key,
                                        event.ver_creator, event.ver_cstamp)
    if event.kind == "write":
        return "write %d %d %d %d %d" % (event.tid, event.thread, event.key,
                                         event.ver_creator, event.ver_cstamp)
    if event.kind == "commit":
        return "commit %d %d %d" % (event.tid, event.thread, event.cstamp)
    if event.kind == "abort":
        return "abort %d %d %s" % (event.tid, event.thread, event.reason)
    raise ValueError("unknown event kind %r" % (event.kind,))


def render_trace(events) -> str:
    return "".join(render_event(event) + "\n" for event in events)


def write_trace(events, path) -> None:
    """Write the trace line by line; no rendered copy of it is held."""
    with open(path, "w") as handle:
        for event in events:
            handle.write(render_event(event) + "\n")


_REASONS = {reason: reason for reason in ABORT_REASONS}


class _Numbers(dict):
    """Numeral text -> its int, made once; int() raises on a bad numeral."""

    def __missing__(self, text):
        value = self[text] = int(text)
        return value


def parse_trace(lines) -> Iterator[TraceEvent]:
    """Yield the events of trace text lines, one at a time.

    Raises MalformedTrace with the line index when iteration reaches a line
    that does not parse.  Events are built like TraceLog's, with
    tuple.__new__ on all nine fields.  Their kind and abort reason are this
    module's constant strings, and every distinct number is one int object
    shared by all the lines that carry it.
    """
    number = _Numbers().__getitem__
    for index, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "begin" and len(fields) == 3:
                tid, thread = map(number, fields[1:])
                event = _new(TraceEvent, (
                    index, "begin", tid, thread,
                    None, None, None, None, None))
            elif kind in ("read", "write") and len(fields) == 6:
                tid, thread, key, creator, cstamp = map(number, fields[1:])
                event = _new(TraceEvent, (
                    index, "read" if kind == "read" else "write", tid, thread,
                    key, creator, cstamp, None, None))
            elif kind == "commit" and len(fields) == 4:
                tid, thread, cstamp = map(number, fields[1:])
                event = _new(TraceEvent, (
                    index, "commit", tid, thread,
                    None, None, None, cstamp, None))
            elif kind == "abort" and len(fields) == 4:
                tid, thread = map(number, fields[1:3])
                reason = _REASONS.get(fields[3])
                if reason is None:
                    raise MalformedTrace(index, "unknown abort reason %r" % fields[3])
                event = _new(TraceEvent, (
                    index, "abort", tid, thread,
                    None, None, None, None, reason))
            else:
                raise MalformedTrace(index, "unparseable line %r" % line)
        except MalformedTrace:
            raise
        except ValueError:
            raise MalformedTrace(index, "non-numeric field in %r" % line) from None
        yield event


def read_trace(path) -> Iterator[TraceEvent]:
    """Yield the events of a trace file; the file opens on the first next()."""
    with open(path) as handle:
        yield from parse_trace(handle)
