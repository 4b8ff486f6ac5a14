"""Test oracles: helpers that only tests call.

They re-render, recount or re-read what the parser, the tracker and the
pipeline built, so a test can compare it with its input or with a checkout.
"""

from __future__ import annotations

import codecs
import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from linechurn.diffstream import CommitHeader, CommitStart, Hunk, StreamParseError, _hunk_counts
from linechurn.tracker import FileState, HistoryReplayer, TrackedLine

NO_NEWLINE = b"\\ No newline at end of file"


def parse_hunk_header(header_line: bytes | str) -> tuple[int, int, int, int]:
    """Parse ``@@ -X,Y +A,B @@`` into (X, Y, A, B), as the stream parser does.

    Omitted counts default to 1 per the unified diff format; section text
    after the closing ``@@`` is ignored.
    """
    raw = header_line.encode("utf-8", "surrogateescape") if isinstance(header_line, str) else header_line
    raw = raw.rstrip(b"\n")
    if not raw.startswith(b"@@"):
        raise StreamParseError("hunk header must start with '@@'", line=raw)
    counts = _hunk_counts(raw)
    if counts is None:
        raise StreamParseError("unparseable hunk header", line=raw)
    return counts


def render_hunk_body(hunk: Hunk) -> bytes:
    """Re-render a parsed hunk body, no-newline markers included.

    Inverse of the body reader: for any hunk parsed from a valid stream the
    result is byte-identical to the input body.
    """
    old, new = hunk.lines[:hunk.old_count], hunk.lines[hunk.old_count:]
    marker = [NO_NEWLINE]
    out = old + ([] if hunk.old_newline else marker) + new + ([] if hunk.new_newline else marker)
    return b"".join(ln + b"\n" for ln in out)


def hunk_tallies(hunk: Hunk) -> tuple[int, int]:
    """Recompute (old, new) line counts from the parsed body."""
    old = sum(1 for ln in hunk.lines if ln.startswith(b"-"))
    new = sum(1 for ln in hunk.lines if ln.startswith(b"+"))
    return old, new


def reconstruct_snapshot(state: FileState) -> list[bytes]:
    """Content of all live lines in positional order."""
    return [ln.content for ln in state.file_lines]


def snapshot_bytes(state: FileState) -> bytes:
    """Byte-exact file image of the live lines, honouring final newlines."""
    return b"".join(
        ln.content + (b"\n" if ln.had_newline else b"") for ln in state.file_lines
    )


def tracked_line(revisions: Iterable[tuple[CommitHeader, bytes]]) -> TrackedLine:
    """A line whose revisions are the given (commit, content) pairs, the birth first."""
    commits, contents = zip(*revisions)
    return TrackedLine(list(commits), bytearray(b"\n".join(contents)))


def replay_by_commit(replayer: HistoryReplayer, events: Iterable[object]) -> Iterator[CommitHeader]:
    """Run ``events`` through ``replayer`` one commit at a time, yielding
    each commit's header once its events are applied."""
    commit: list[object] = []
    for event in events:
        if isinstance(event, CommitStart) and commit:
            replayer.run(commit)
            yield commit[0].header
            commit = []
        commit.append(event)
    if commit:
        replayer.run(commit)
        yield commit[0].header


@dataclass(frozen=True)
class LineReport:
    line_number: int  # 1-based final position
    content: bytes  # the line's bytes, the report's escapes undone
    mod_count: int
    birth_ts: int
    history: tuple[tuple[str, int], ...]  # (commit_hash, timestamp) incl. birth


def read_line_report(path: str | Path) -> list[LineReport]:
    """Parse a line-report CSV back into rows.  ``display_text`` doubled
    each backslash and wrote each undecodable byte as ``\\xNN``, so Python's
    own escape decoding gives the content's bytes back exactly."""
    out: list[LineReport] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            hashes = rec["commit_hashes"].split("|") if rec["commit_hashes"] else []
            stamps = [int(t) for t in rec["timestamps"].split("|")] if rec["timestamps"] else []
            out.append(LineReport(
                line_number=int(rec["line_number"]),
                content=codecs.escape_decode(rec["content"].encode("utf-8"))[0],
                mod_count=int(rec["mod_count"]),
                birth_ts=int(rec["birth_ts"]),
                history=tuple(zip(hashes, stamps)),
            ))
    return out
