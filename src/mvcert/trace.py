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
version's identity is (key, tid) implicitly.  Every thread logs into one
shared array('q') of five words per event:

    (thread << 3 | kind code, tid, key or abort reason index, creator, stamp)

Each emit packs its row into 40 bytes and appends them with one
array.frombytes call.  That call runs no bytecode, so under the GIL no
other thread can run between the first and the last word of a row: rows
never interleave, and array order is real-time emit order, so any
referenced version was created by an earlier line.  The thread is packed
into the kind word rather than taken from the tid's low bits, so
hand-built logs may use any tids.

Files stream both ways: write_trace renders one line at a time, and
parse_trace and read_trace yield one event at a time, so neither the trace
text nor a list of parsed events is ever held; the oracle's graph builder
consumes the events as they come.
"""

from __future__ import annotations

import struct
from typing import Iterator, NamedTuple

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
    """index is the offending event's seq: its 0-based line index in a file,
    blank and comment lines included, or its row index in a TraceView."""

    def __init__(self, index: int, message: str):
        super().__init__("event %d: %s" % (index, message))
        self.index = index


# Kind codes of the log's first word; the thread sits above its low 3 bits.
_KINDS = ("begin", "read", "write", "commit", "abort")
_BEGIN, _READ, _WRITE, _COMMIT, _ABORT = range(len(_KINDS))
_pack = struct.Struct("5q").pack   # one row, in array("q")'s byte layout
_REASON_INDEX = {reason: index for index, reason in enumerate(ABORT_REASONS)}


class TraceLog:
    """One shared array of five int64 words per emitted event.

    The abort reason is stored as its index into ABORT_REASONS; unused
    fields are 0.  A field that is no int64 makes the emit raise before
    anything is appended, so a row is always whole.
    """

    def __init__(self):
        # Imported here, so untraced runs never load the array module,
        # which adds about 0.3 MB to their peak RSS.
        from array import array
        self._words = array("q")
        self._append = self._words.frombytes

    def begin(self, tid, thread):
        self._append(_pack(thread << 3, tid, 0, 0, 0))

    def read(self, tid, thread, key, ver_creator, ver_cstamp):
        self._append(_pack(thread << 3 | _READ, tid, key, ver_creator,
                           ver_cstamp))

    def write(self, tid, thread, key, prev_creator, prev_cstamp):
        self._append(_pack(thread << 3 | _WRITE, tid, key, prev_creator,
                           prev_cstamp))

    def commit(self, tid, thread, cstamp):
        self._append(_pack(thread << 3 | _COMMIT, tid, 0, 0, cstamp))

    def abort(self, tid, thread, reason):
        self._append(_pack(thread << 3 | _ABORT, tid, _REASON_INDEX[reason],
                           0, 0))

    def merged(self) -> TraceView:
        """A read-only view of the events emitted so far, in emit order."""
        return TraceView(self._words)


class TraceView:
    """The first len(self) events of a TraceLog, as TraceEvents on demand.

    Iteration decodes one row at a time, so no list of events is held; an
    event's seq is its row index.  Events are built like parse_trace's,
    with tuple.__new__ on all nine fields and this module's constant
    strings for the kind and the abort reason.
    """

    def __init__(self, words):
        self._words = words
        self._count = len(words) // 5

    def __len__(self):
        return self._count

    def __iter__(self) -> Iterator[TraceEvent]:
        words = iter(self._words)
        for seq, head, tid, field, creator, stamp in zip(
                range(self._count), words, words, words, words, words):
            code, thread = head & 7, head >> 3
            if code == _READ or code == _WRITE:
                yield _new(TraceEvent, (
                    seq, _KINDS[code], tid, thread,
                    field, creator, stamp, None, None))
            elif code == _BEGIN:
                yield _new(TraceEvent, (
                    seq, "begin", tid, thread,
                    None, None, None, None, None))
            elif code == _COMMIT:
                yield _new(TraceEvent, (
                    seq, "commit", tid, thread,
                    None, None, None, stamp, None))
            else:
                yield _new(TraceEvent, (
                    seq, "abort", tid, thread,
                    None, None, None, None, ABORT_REASONS[field]))


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
    that does not parse.  Events are built like TraceView's, with
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
