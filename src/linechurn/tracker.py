"""Per-line history tracking over a replayed patch stream.

Maintains, for every tracked file, a dense vector of live canonical line
objects.  Every hunk is one zero-context change group, a run of deletions
then a run of additions, and is applied by pairing the two runs
positionally.  A hunk is placed by git's new-file numbering (``Hunk.base``):
the parser has checked that the hunks of one file diff ascend without
overlap and that both sides agree, so after the earlier hunks of the file
diff are applied the new side names the hunk's place in the current state,
and nothing carries from one hunk or commit to the next.  Paired lines keep
their identity (the same object) and gain a revision; surplus deletions die
(they are counted and leave the file's state), surplus additions are born
fresh.  A line is its history: its content is the last revision's, its birth
the first revision's commit.

Line identity is strictly positional: moving an unchanged block shows up as
deaths at the old location and fresh births at the new one.  No
content-similarity matching is attempted, which keeps replay deterministic.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .diffstream import (
    CommitHeader,
    CommitStart,
    FileAborted,
    FileDiffHeader,
    FileStart,
    Hunk,
    HunkEvent,
    display_text,
)

logger = logging.getLogger(__name__)


class HunkOutOfBounds(Exception):
    """Hunk coordinates exceed the current tracked file length.

    Tracking of the affected file is aborted and reported, never silently
    clamped.
    """


@dataclass(slots=True)
class Revision:
    commit: CommitHeader
    content: bytes


@dataclass(slots=True)
class TrackedLine:
    history: list[Revision]  # the birth first; content is history[-1].content
    had_newline: bool = True

    @property
    def mod_count(self) -> int:
        return len(self.history) - 1


@dataclass
class FileState:
    """Mutable tracking state for a single file path."""

    path: str
    file_lines: list[TrackedLine] = field(default_factory=list)
    births_total: int = 0
    deaths_total: int = 0


def apply_hunk(state: FileState, hunk: Hunk, commit: CommitHeader) -> FileState:
    """Apply one hunk, the file diff's earlier hunks applied, at ``hunk.base``.

    Paired lines stay the same objects and gain a revision, that is one
    modification; unmatched deletions are counted in deaths_total and leave
    the state; unmatched additions are born fresh.
    """
    base = hunk.base
    live = len(state.file_lines)
    if base + hunk.old_count > live:
        raise HunkOutOfBounds(
            f"{state.path}: hunk @@ -{hunk.old_start},{hunk.old_count} "
            f"+{hunk.new_start},{hunk.new_count} @@ reaches line {base + hunk.old_count} "
            f"but only {live} live lines")

    consumed = hunk.old_count
    updated = _replace_run(state, commit, state.file_lines[base:base + consumed],
                           hunk.lines[consumed:])
    if not hunk.new_newline:
        updated[-1].had_newline = False

    state.file_lines[base : base + consumed] = updated
    return state


def _replace_run(state: FileState, commit: CommitHeader, deleted: list[TrackedLine],
                 added: list[bytes]) -> list[TrackedLine]:
    """Pair the i-th deleted line with the i-th added line; return the new lines.

    ``added`` holds the addition lines as git printed them, ``+`` included.
    Surplus deletions die, surplus additions are born; every resulting line
    ends in a newline.
    """
    added = [raw[1:] for raw in added]
    for line, text in zip(deleted, added):
        line.history.append(Revision(commit, text))
        line.had_newline = True
    if len(deleted) > len(added):
        state.deaths_total += len(deleted) - len(added)
        return deleted[:len(added)]
    born = len(added) - len(deleted)
    if born > 0:
        deleted += [TrackedLine([Revision(commit, text)]) for text in added[len(deleted):]]
        state.births_total += born
    return deleted


@dataclass(frozen=True)
class LineReport:
    line_number: int  # 1-based final position
    content: bytes
    mod_count: int
    birth_ts: int
    history: tuple[tuple[str, int], ...]  # (commit_hash, timestamp) incl. birth


def finalize(state: FileState) -> list[LineReport]:
    """One report row per live line; dead lines are excluded."""
    return [
        LineReport(
            line_number=i + 1,
            content=ln.history[-1].content,
            mod_count=ln.mod_count,
            birth_ts=ln.history[0].commit.committer_timestamp,
            history=tuple((rev.commit.hash, rev.commit.committer_timestamp)
                          for rev in ln.history),
        )
        for i, ln in enumerate(state.file_lines)
    ]


LINE_REPORT_COLUMNS = ["line_number", "content", "mod_count", "birth_ts",
                       "commit_hashes", "timestamps"]


def write_line_report(rows: Iterable[LineReport], out_path: str | Path) -> None:
    """Write one file's line reports as CSV (history sub-fields '|'-joined)."""
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LINE_REPORT_COLUMNS)
        for row in rows:
            writer.writerow([
                row.line_number,
                display_text(row.content),
                row.mod_count,
                row.birth_ts,
                "|".join(h for h, _ in row.history),
                "|".join(str(t) for _, t in row.history),
            ])


def read_line_report(path: str | Path) -> list[LineReport]:
    """Parse a line-report CSV back into rows (content as displayed text).

    The pipeline never calls it: it reads an artifact back, the inverse of
    ``write_line_report``, for whoever consumes the reports.
    """
    out: list[LineReport] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            hashes = rec["commit_hashes"].split("|") if rec["commit_hashes"] else []
            stamps = [int(t) for t in rec["timestamps"].split("|")] if rec["timestamps"] else []
            out.append(LineReport(
                line_number=int(rec["line_number"]),
                content=rec["content"].encode("utf-8", "surrogateescape"),
                mod_count=int(rec["mod_count"]),
                birth_ts=int(rec["birth_ts"]),
                history=tuple(zip(hashes, stamps)),
            ))
    return out


class HistoryReplayer:
    """Drives FileStates for every path seen in one parsed event stream.

    Renames carry the existing state forward under the new path; the walk
    detects no copies, so a copy is an added file whose lines are all born
    in its first commit.  A file whose hunks go out of bounds, whose patch
    the parser could not read, or whose diff is binary is aborted and
    reported; other files continue.
    """

    def __init__(self):
        self.states: dict[str, FileState] = {}
        self.aborted: dict[str, str] = {}  # path -> reason

    def run(self, events: Iterable[object]) -> None:
        """Apply the events in order.  A later call continues the same
        states, so a stream may be fed one commit's events at a time."""
        current_commit: CommitHeader | None = None
        current_path: str | None = None

        for event in events:
            if isinstance(event, HunkEvent):
                if current_commit is None:
                    raise ValueError("hunk event before any commit")
                if current_path is None or current_path in self.aborted:
                    continue
                state = self.states.get(current_path)
                if state is None:
                    state = self.states[current_path] = FileState(current_path)
                try:
                    apply_hunk(state, event.hunk, current_commit)
                except HunkOutOfBounds as exc:
                    self._abort(current_path, str(exc))
            elif isinstance(event, CommitStart):
                current_commit = event.header
                current_path = None
            elif isinstance(event, FileStart):
                current_path = self._on_file_start(event.header)
            elif isinstance(event, FileAborted):
                if current_path is not None and current_path not in self.aborted:
                    self._abort(current_path, event.reason)

    def _abort(self, path: str, reason: str) -> None:
        logger.warning("aborting %s: %s", path, reason)
        self.aborted[path] = reason
        self.states.pop(path, None)

    def _on_file_start(self, header: FileDiffHeader) -> str:
        old, new = header.old_path, header.new_path
        if old != new:
            if old in self.states:
                state = self.states.pop(old)
                state.path = new
                self.states[new] = state
            if old in self.aborted:
                self.aborted[new] = self.aborted.pop(old)
        return new
