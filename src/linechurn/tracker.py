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
fresh.  A line is its history: one commit per revision, the birth first,
and every revision's content in one buffer joined by ``\\n``, which no
content line holds since the parser splits on it.  Its content is the
buffer's last segment, its birth the first commit.

Line identity is strictly positional: moving an unchanged block shows up as
deaths at the old location and fresh births at the new one.  No
content-similarity matching is attempted, which keeps replay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .diffstream import (
    CommitHeader,
    CommitStart,
    FileAborted,
    FileStart,
    Hunk,
    HunkEvent,
)


class HunkOutOfBounds(Exception):
    """Hunk coordinates exceed the current tracked file length.

    Tracking of the affected file is aborted and reported, never silently
    clamped.
    """


@dataclass(slots=True)
class TrackedLine:
    history: list[CommitHeader]  # one commit per revision, the birth first
    texts: bytearray  # every revision's content in order, joined by b"\n"
    had_newline: bool = True

    @property
    def mod_count(self) -> int:
        return len(self.history) - 1

    @property
    def content(self) -> bytes:
        """The last revision's content."""
        return bytes(self.texts[self.texts.rfind(b"\n") + 1:])

    def contents(self) -> list[bytes]:
        """Every revision's content, the birth first."""
        return bytes(self.texts).split(b"\n")


@dataclass
class FileState:
    """Mutable tracking state for a single file path."""

    file_lines: list[TrackedLine] = field(default_factory=list)
    births_total: int = 0
    deaths_total: int = 0


def apply_hunk(state: FileState, hunk: Hunk, commit: CommitHeader) -> None:
    """Apply one hunk, the file diff's earlier hunks applied, at ``hunk.base``.

    The i-th deleted line is paired with the i-th added one: it stays the same
    object and gains a revision, that is one modification.  Surplus deletions
    die (counted in deaths_total); surplus additions are born fresh.
    """
    base, consumed = hunk.base, hunk.old_count
    live = len(state.file_lines)
    if base + consumed > live:
        raise HunkOutOfBounds(f"hunk @@ -{hunk.old_start},{consumed} +{hunk.new_start},"
                              f"{hunk.new_count} @@ reaches line {base + consumed} "
                              f"but only {live} live lines (commit {commit.hash})")

    lines = state.file_lines[base:base + consumed]
    added = [raw[1:] for raw in hunk.lines[consumed:]]  # git's ``+`` dropped
    for line, text in zip(lines, added):
        line.history.append(commit)
        line.texts += b"\n"
        line.texts += text
        line.had_newline = True
    if consumed > len(added):
        state.deaths_total += consumed - len(added)
        del lines[len(added):]
    elif len(added) > consumed:
        lines += [TrackedLine([commit], bytearray(text)) for text in added[consumed:]]
        state.births_total += len(added) - consumed
    if not hunk.new_newline:
        lines[-1].had_newline = False
    state.file_lines[base:base + consumed] = lines


class HistoryReplayer:
    """Drives FileStates for every path seen in one parsed event stream.

    Renames carry the existing state forward under the new path; the walk
    detects no copies, so a copy is an added file whose lines are all born
    in its first commit.  A file whose hunks go out of bounds, whose patch
    the parser could not read, or whose diff is binary is aborted, its
    reason recorded in ``aborted``; other files continue.
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
                    state = self.states[current_path] = FileState()
                try:
                    apply_hunk(state, event.hunk, current_commit)
                except HunkOutOfBounds as exc:
                    self._abort(current_path, str(exc))
            elif isinstance(event, CommitStart):
                current_commit = event.header
                current_path = None
            elif isinstance(event, FileStart):
                old, current_path = event.old_path, event.new_path
                if old != current_path:  # a rename carries the state or the abort
                    if old in self.states:
                        self.states[current_path] = self.states.pop(old)
                    if old in self.aborted:
                        self.aborted[current_path] = self.aborted.pop(old)
            elif isinstance(event, FileAborted):
                if current_path is not None and current_path not in self.aborted:
                    self._abort(current_path, event.reason)

    def _abort(self, path: str, reason: str) -> None:
        self.aborted[path] = reason
        self.states.pop(path, None)
