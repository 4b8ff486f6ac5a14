"""Streaming parser for git's patch-ordered log output.

Consumes the byte stream of the patch walk that ``log_command(rev,
file_paths)`` builds, and turns it into a flat sequence of typed events:
commit headers, file-diff headers, hunks, and abort notices.  (A run's
manifest records both walks' full commands, as ``git.stage1_walk`` and
``git.stage2_walk``.)  A commit line names only the committer,
whom bot attribution reads; the author is never asked for.  The input is any
iterable of byte chunks, split anywhere: the parser cuts them into lines
itself, a block at a time.  It is strictly streaming: it holds one chunk's
lines plus at most one hunk, so memory use is bounded by the chunk size and
the largest single hunk rather than by stream length.  The walk asks for no
context lines, which replay does not need, so every hunk is one change
group: a run of deletions, then a run of additions, each optionally followed
by a ``\\ No newline`` marker.  Its body is taken as one slice of lines; a
body of any other shape aborts its file.

Line content is kept as raw bytes throughout; no transcoding happens here so
that content hashing and equality stay byte-stable across mixed encodings.

``parse_name_status_stream`` reads the whole-history ``--name-status`` walk
instead, and yields plain per-commit tuples rather than events.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

COMMIT_PRETTY_FORMAT = "commit %H %ct%x00%cn%x00%ce"

# Pinned so that whether renames are detected does not depend on a user's
# config or a git version's default (1000 since git 2.33).  git reports on
# stderr when a commit exceeds it.
RENAME_LIMIT = 1000

# git's cache of inflated delta bases, pinned below its 96 MiB default,
# which is most of the whole-history walk's memory.  The cache decides only
# how often git inflates a base again, never what it prints.
DELTA_BASE_CACHE_LIMIT = "8m"

# How much of a pack file git maps at once: windows of PACKED_GIT_WINDOW_SIZE,
# at most PACKED_GIT_LIMIT in all.  git's 64-bit defaults (1 GiB windows, no
# practical limit) keep every page of the pack that a walk reads resident,
# so git's memory grew with the pack.  Like the cache above, they decide
# only how git reads the pack, never what it prints.
PACKED_GIT_WINDOW_SIZE = "1m"
PACKED_GIT_LIMIT = "4m"

# Set in the walks' environment.  GIT_ATTR_NOSYSTEM keeps a system-wide
# attributes file from giving tracked files a diff driver, a textconv or a
# binary mark (log_command pins the user's file).  GIT_FLUSH=0 lets git fill
# its stdout buffer: otherwise, writing to a pipe, git flushes after every
# commit, so a walk of 10,000 commits reached the parser in about 9,600
# reads (desk's whole-history walk; 111 with the pin).  Only the read sizes
# change, never the bytes.
GIT_ENV = {"GIT_ATTR_NOSYSTEM": "1", "GIT_FLUSH": "0"}
# Dropped from git's environment: the pathspec variables, each of which makes git exit
# on --literal-pathspecs; GIT_DIFF_OPTS, whose --unified=N overrides the walk's -U0; and
# what `git rev-parse --local-env-vars` prints on git 2.39.5, which would point git at
# another repository than --repo (GIT_DIR, as a hook gets it).
_DROPPED_ENV = frozenset((
    "GIT_GLOB_PATHSPECS", "GIT_NOGLOB_PATHSPECS", "GIT_ICASE_PATHSPECS", "GIT_DIFF_OPTS",
    "GIT_ALTERNATE_OBJECT_DIRECTORIES", "GIT_CONFIG", "GIT_CONFIG_PARAMETERS", "GIT_CONFIG_COUNT",
    "GIT_OBJECT_DIRECTORY", "GIT_DIR", "GIT_WORK_TREE", "GIT_IMPLICIT_WORK_TREE", "GIT_GRAFT_FILE",
    "GIT_INDEX_FILE", "GIT_NO_REPLACE_OBJECTS", "GIT_REPLACE_REF_BASE", "GIT_PREFIX",
    "GIT_INTERNAL_SUPER_PREFIX", "GIT_SHALLOW_FILE", "GIT_COMMON_DIR",
))

# A patch walk's commit line: "commit ", hash, timestamp, then the committer's
# name and email, each after a NUL, which git cannot write into an identity.
_IDENTITY_SEP = b"\0"

# git's numbers are unsigned 64-bit decimals: at most 20 digits.
_HUNK_HEADER_RE = re.compile(
    rb"^@@ -(\d{1,20})(?:,(\d{1,20}))? \+(\d{1,20})(?:,(\d{1,20}))? @@(?:[ ]|$)")
_DIFF_GIT_RE = re.compile(rb'^diff --git ("a/.*"|a/.*) ("b/.*"|b/.*)$')
_BINARY_RE = re.compile(rb"^Binary files .* differ$")
_SECTION_STARTS = (b"@@", b"diff --git ", b"commit ")  # no hunk body line starts so

# Extended header lines that may appear between "diff --git" and the first
# hunk (or the next diff).  Order and presence vary by change kind.
_EXT_HEADERS = (
    b"old mode ",
    b"new mode ",
    b"new file mode ",
    b"deleted file mode ",
    b"index ",
    b"similarity index ",
    b"dissimilarity index ",
    b"mode ",
    b"--- ",  # paths already known from the diff --git / rename lines
    b"+++ ",
)


class StreamParseError(Exception):
    """Malformed input in either walk's stream.

    Carries the byte offset of the offending line, and quotes the line in
    its message, so failures can be located in multi-megabyte streams.
    """

    def __init__(self, message: str, byte_offset: int = -1, line: bytes = b""):
        self.byte_offset = byte_offset
        detail = message
        if byte_offset >= 0:
            detail += f" (byte offset {byte_offset}, line {line[:200]!r})"
        super().__init__(detail)


@dataclass(frozen=True, slots=True)
class CommitHeader:
    hash: str
    committer_timestamp: int
    committer_name: str
    committer_email: str


@dataclass
class Hunk:
    """One zero-context hunk.

    ``lines`` holds the body lines as git printed them, each with its ``-``
    or ``+``: ``old_count`` deletions, then ``new_count`` additions.
    ``old_newline`` and ``new_newline`` are false when a ``\\ No newline``
    marker followed the last deletion or the last addition.
    """

    old_start: int
    old_count: int
    new_start: int
    new_count: int
    lines: list[bytes] = field(default_factory=list)
    old_newline: bool = True
    new_newline: bool = True

    @property
    def base(self) -> int:
        """Where the hunk goes: the 0-based index of its first deleted line,
        or of the line its additions go before.

        git numbers the new side in the file with the file diff's earlier
        hunks applied, which is the state replay holds when it reaches this
        hunk.  A side without lines names the line before the change.
        """
        return self.new_start - 1 if self.new_count else self.new_start


# Event types yielded by parse_log_stream.

@dataclass(frozen=True)
class CommitStart:
    header: CommitHeader


@dataclass(frozen=True)
class FileStart:
    """One file diff's paths: they differ only for a rename."""

    old_path: str
    new_path: str


@dataclass(frozen=True)
class HunkEvent:
    hunk: Hunk


@dataclass(frozen=True)
class FileAborted:
    """The rest of one file diff was skipped: it is binary, or it did not parse."""

    path: str
    reason: str  # the parse error with its byte offset, or the binary diff's commit
    byte_offset: int


def _hunk_counts(line: bytes) -> tuple[int, int, int, int] | None:
    m = _HUNK_HEADER_RE.match(line)
    if m is None:
        return None
    old_start, old_count, new_start, new_count = m.groups()
    return (int(old_start), 1 if old_count is None else int(old_count),
            int(new_start), 1 if new_count is None else int(new_count))


def parse_commit_line(line: bytes, identities: dict[bytes, tuple[str, str]]) -> CommitHeader:
    """Parse one patch walk's commit line into a CommitHeader.

    Expected shape: ``commit <hash> <epoch>\\0<committer name>\\0<committer email>``.
    An unparseable timestamp is an error, never a silent zero.  ``identities``
    maps the raw identity fields of lines already parsed to their decoded
    name and email; a new identity is checked, decoded and added, so the
    headers of one committer share one string pair.
    """
    raw = line.rstrip(b"\n")
    if not raw.startswith(b"commit "):
        raise StreamParseError("commit line must start with 'commit '", line=raw)
    body = raw[len(b"commit "):]
    head, sep, identity = body.partition(_IDENTITY_SEP)
    parts = head.split()
    if len(parts) != 2:
        raise StreamParseError("expected '<hash> <timestamp>' after 'commit'", line=raw)
    hash_b, ts_b = parts
    if hash_b.strip(b"0123456789abcdef"):
        raise StreamParseError("commit hash is not hexadecimal", line=raw)
    timestamp = _commit_time(ts_b)
    if timestamp is None:
        raise StreamParseError("commit timestamp is not an integer", line=raw)
    if not sep:
        raise StreamParseError("missing identity fields", line=raw)
    pair = identities.get(identity)
    if pair is None:
        fields = identity.split(_IDENTITY_SEP)
        if len(fields) != 2:
            raise StreamParseError(f"expected 2 identity fields, got {len(fields)}", line=raw)
        pair = identities[identity] = tuple(map(_decode, fields))
    return CommitHeader(hash_b.decode("ascii"), timestamp, *pair)


def _commit_time(raw: bytes) -> int | None:
    """Both walks' ``%ct``, git's unsigned decimal; None unless 1 to 20 ASCII digits."""
    return int(raw) if len(raw) <= 20 and raw.isdigit() else None


def _decode(raw: bytes) -> str:
    return raw.decode("utf-8", "surrogateescape")


# The escapes git's C quoting writes: a byte as three octal digits, or one of these.
_C_ESCAPE_RE = re.compile(rb'\\([0-3][0-7][0-7]|[abtnvfr"\\])')
_C_ESCAPES = {b"a": b"\a", b"b": b"\b", b"t": b"\t", b"n": b"\n", b"v": b"\v", b"f": b"\f",
              b"r": b"\r", b'"': b'"', b"\\": b"\\"}


def _unquote_c_path(raw: bytes) -> bytes:
    """Undo git's C-style path quoting; any other backslash reads as itself."""
    return _C_ESCAPE_RE.sub(lambda m: _C_ESCAPES.get(m[1]) or bytes((int(m[1], 8),)), raw)


def _header_path(raw: bytes) -> str:
    """A path as a patch header prints it: verbatim, or C-quoted in ``"..."``."""
    if len(raw) >= 2 and raw.startswith(b'"') and raw.endswith(b'"'):
        raw = _unquote_c_path(raw[1:-1])
    return _decode(raw)


def _records(chunks: Iterable[bytes], sep: bytes) -> Iterator[tuple[int, list[bytes]]]:
    """Split a chunked byte stream at ``sep``, one block per chunk.

    Yields ``(offset, records)`` for each chunk that completes a record:
    the records without their separators, and the stream byte offset of
    the first.  A record without a final separator ends the stream.
    """
    offset = total = 0  # offset: where the record being completed began
    head: list[bytes] = []  # pieces of that record from earlier chunks
    for chunk in chunks:
        total += len(chunk)
        records = chunk.split(sep)
        if len(records) == 1:
            if chunk:
                head.append(chunk)
            continue
        if head:
            head.append(records[0])
            records[0] = b"".join(head)
            head = []
        tail = records.pop()
        if tail:
            head.append(tail)
        yield offset, records
        offset = total - len(tail)
    if head:
        yield offset, [b"".join(head)]


def _fill(blocks: Iterator[tuple[int, list[bytes]]], lines: list[bytes], offset: int, i: int,
          need: int) -> tuple[list[bytes], int, int]:
    """Drop ``lines[:i]`` and append blocks until ``need`` lines remain, the
    stream ends, or a line after ``lines[i]`` starts a section.

    Returns the lines, the byte offset of their first line and the index
    of the line that was ``lines[i]``.
    """
    rest = lines[i:]
    fresh = rest[1:]  # the lines not yet searched for a section start
    first_offset = None
    while len(rest) < need and not any(ln.startswith(_SECTION_STARTS) for ln in fresh):
        block = next(blocks, None)
        if block is None:
            break
        if first_offset is None:
            first_offset = block[0] - sum(map(len, rest)) - len(rest)
        fresh = block[1]
        rest += fresh
    if first_offset is None:  # the stream had already ended
        return lines, offset, i
    return rest, first_offset, 0


def _offset_at(lines: list[bytes], offset: int, k: int) -> int:
    """Byte offset of ``lines[k]``, given that of ``lines[0]``."""
    return offset + sum(map(len, lines[:k])) + k


def parse_log_stream(chunks: Iterable[bytes]) -> Iterator[object]:
    """Parse a patch-ordered log byte stream into an event sequence.

    Yields CommitStart, FileStart, HunkEvent and FileAborted events in stream
    order.  Every HunkEvent belongs to the most recent FileStart, every
    FileStart to the most recent CommitStart.  A FileStart is the header a
    ``diff --git`` line starts, with its ``rename from``/``rename to`` lines
    folded in; the header is read, and its FileStart yielded, at that line.
    A binary file diff, a malformed hunk, a hunk out of order, or a
    malformed line inside a file diff yields FileAborted for that file, and
    parsing resumes at the next ``diff --git`` or ``commit`` line; errors
    outside any file diff raise.
    A hunk is out of order when it starts before the end of the file diff's
    previous hunk, or when its old start, shifted by the line-count change
    of the hunks before it, does not give its ``base``.

    ``chunks`` is any iterable of byte strings, split at arbitrary points:
    reads of a binary pipe, the lines of an open binary file, or one bytes
    object in a list.  Every split of one stream gives the same events.
    """
    blocks = _records(chunks, b"\n")
    lines: list[bytes] = []
    offset = 0  # byte offset of lines[0] in the stream
    i = 0  # the next line to read
    commit_hash: str | None = None
    current_file: FileStart | None = None
    skipping = False  # after FileAborted: until the next diff or commit line
    end = shift = 0  # the new-side end and the line-count change of the file diff's hunks
    identities: dict[bytes, tuple[str, str]] = {}  # see parse_commit_line

    while True:
        if i == len(lines):
            lines, offset, i = _fill(blocks, lines, offset, i, 1)
            if i == len(lines):
                break
        line = lines[i]

        if line.startswith(b"@@") and not skipping:
            if current_file is None:
                raise StreamParseError("hunk outside of a file diff",
                                       _offset_at(lines, offset, i), line)
            try:
                counts = _hunk_counts(line)
                if counts is None:
                    raise StreamParseError("unparseable hunk header",
                                           _offset_at(lines, offset, i), line)
                # The header, the body, at most two no-newline markers (one
                # after the last deletion, one after the last addition) and
                # the line after them.
                need = counts[1] + counts[3] + 4
                if i + need > len(lines):
                    lines, offset, i = _fill(blocks, lines, offset, i, need)
                hunk, j = _read_hunk(lines, i, offset, *counts)
                # Replay places a hunk by its new side, so the old side must
                # agree with it, and the hunks must ascend without overlap.
                base = hunk.base
                if base < end:
                    raise StreamParseError("hunk starts before the start of the file or "
                                           "the end of the previous hunk",
                                           _offset_at(lines, offset, i), line)
                old_base = hunk.old_start - 1 if hunk.old_count else hunk.old_start
                if base != old_base + shift:
                    raise StreamParseError("hunk's new start disagrees with its old start "
                                           "and the previous hunks",
                                           _offset_at(lines, offset, i), line)
                end = base + hunk.new_count
                shift += hunk.new_count - hunk.old_count
                i = j
                yield HunkEvent(hunk)
                continue
            except StreamParseError as exc:
                yield FileAborted(current_file.new_path, str(exc), exc.byte_offset)
                skipping = True
                i += 1
                continue

        if line.startswith(b"commit "):
            try:
                commit = parse_commit_line(line, identities)
            except StreamParseError as exc:
                raise StreamParseError(str(exc), _offset_at(lines, offset, i), line) from None
            yield CommitStart(commit)
            commit_hash = commit.hash
            current_file = None
            skipping = False
        elif line.startswith(b"diff --git "):
            if commit_hash is None:
                raise StreamParseError("file diff before any commit header",
                                       _offset_at(lines, offset, i), line)
            current_file = _diff_git_paths(line)
            if current_file is None:
                raise StreamParseError("unparseable 'diff --git' line",
                                       _offset_at(lines, offset, i), line)
            while True:  # fold in the extended header lines that follow
                i += 1
                if i == len(lines):
                    lines, offset, i = _fill(blocks, lines, offset, i, 1)
                folded = _header_line(current_file, lines[i]) if i < len(lines) else None
                if folded is None:
                    break
                current_file = folded
            yield current_file
            end = shift = 0
            skipping = False
            continue
        elif line and not skipping:
            exc = StreamParseError("unexpected line between sections",
                                   _offset_at(lines, offset, i), line)
            if current_file is None:
                raise exc
            binary = _BINARY_RE.match(line) or line.startswith(b"GIT binary patch")
            reason = f"binary diff in commit {commit_hash}" if binary else str(exc)
            yield FileAborted(current_file.new_path, reason, exc.byte_offset)
            skipping = True
        i += 1


def _diff_git_paths(line: bytes) -> FileStart | None:
    """The file diff header that one ``diff --git`` line starts, if it parses.

    A path that contains " b/" can fool the regex.  But a diff other than a
    rename names one path twice, as ``a/N b/N`` or ``"a/N" "b/N"``, so its
    two names meet at the space in the exact middle; that split is tried
    first.  A rename takes its true paths from ``rename from``/``rename to``.
    """
    names = line[len(b"diff --git "):]
    half = len(names) // 2
    old, new = names[:half], names[half + 1:]
    quoted = old[:1] == old[-1:] == new[:1] == new[-1:] == b'"'
    if quoted:
        old, new = old[1:-1], new[1:-1]
    if (names[half:half + 1] == b" " and old[:2] == b"a/" and new[:2] == b"b/"
            and old[2:] == new[2:]):
        path = _decode(_unquote_c_path(old[2:]) if quoted else old[2:])
        return FileStart(path, path)
    m = _DIFF_GIT_RE.match(line)
    if m is None:
        return None
    return FileStart(*(_header_path(side)[2:] for side in m.groups()))


def _header_line(header: FileStart, line: bytes) -> FileStart | None:
    """``header`` with one extended header line folded in; None if it is none."""
    if line.startswith(_EXT_HEADERS):
        return header
    if line.startswith(b"rename from "):
        return replace(header, old_path=_header_path(line.split(b" from ", 1)[1]))
    if line.startswith(b"rename to "):
        return replace(header, new_path=_header_path(line.split(b" to ", 1)[1]))
    return None


def _read_hunk(lines: list[bytes], h: int, offset: int, old_start: int, old_count: int,
               new_start: int, new_count: int) -> tuple[Hunk, int]:
    """Read the hunk headed by ``lines[h]``; return it and the index after it.

    The body is ``old_count`` deletions, an optional no-newline marker,
    ``new_count`` additions and an optional marker.  ``lines`` holds the
    header, the body and three more lines, or ends with the stream or
    after a section start.
    """
    j = h + 1 + old_count
    body = lines[h + 1:j]
    old_newline = new_newline = True
    if old_count and j < len(lines) and lines[j].startswith(b"\\"):
        old_newline = False
        j += 1
    body += lines[j:j + new_count]
    j += new_count
    # A short body holds every line after the header, but for a marker.
    short = len(body) < old_count + new_count
    if short and not any(ln.startswith(_SECTION_STARTS) for ln in body):
        raise StreamParseError("end of stream inside a hunk body",
                               _offset_at(lines, offset, h), lines[h])
    if short or b"".join([ln[:1] for ln in body]) != b"-" * old_count + b"+" * new_count:
        k = next(k for k, ln in enumerate(body) if ln[:1] != (b"-" if k < old_count else b"+"))
        bad = h + 1 + k + (k >= old_count and not old_newline)
        raise StreamParseError("hunk body is not a run of deletions then a run of additions",
                               _offset_at(lines, offset, bad), lines[bad])
    if new_count and j < len(lines) and lines[j].startswith(b"\\"):
        new_newline = False
        j += 1
    if j < len(lines) and lines[j].startswith(b"\\"):
        raise StreamParseError("more no-newline markers than a hunk body can hold",
                               _offset_at(lines, offset, j), lines[j])
    return Hunk(old_start, old_count, new_start, new_count, body, old_newline, new_newline), j


def parse_name_status_stream(
        chunks: Iterable[bytes]) -> Iterator[tuple[int, list[tuple[str, str]]]]:
    """Parse ``git log -z --name-status`` output, one commit at a time.

    Yields ``(committer_timestamp, [(old_path, new_path), ...])`` for every
    commit in stream order, a commit without file changes included.  The two
    paths differ only for a rename.  ``chunks`` is any iterable of byte
    strings, split at arbitrary points.

    Under ``-z`` every field ends in a NUL and paths are printed verbatim,
    never quoted: ``<status>\\0<path>\\0``, or ``<status>\\0<old>\\0<new>\\0``
    for renames.  A commit line, ``commit <time>`` with git's unsigned
    decimal ``%ct``, ends in a newline that the commit's first status
    follows, and an empty field separates commits.  The walk detects no
    copies, so a ``C`` status is rejected like any other unknown one.  Each
    error carries the byte offset of the field it quotes.
    """
    commit: tuple[int, list[tuple[str, str]]] | None = None  # the commit being read
    status = b""  # the status of the record whose paths are being read
    status_at = 0  # its byte offset
    paths: list[str] = []
    for at, fields in _records(chunks, b"\0"):
        for item in fields:
            item_at, at = at, at + len(item) + 1
            if status:
                paths.append(_decode(item))
                if len(paths) < (2 if status.startswith(b"R") else 1):
                    continue
                commit[1].append((paths[0], paths[-1]))
                status, paths = b"", []
                continue
            if item.startswith(b"commit "):
                time_b, _, item = item[len(b"commit "):].partition(b"\n")
                time = _commit_time(time_b)
                if time is None:
                    raise StreamParseError("commit time is not a decimal number",
                                           item_at, b"commit " + time_b)
                if commit is not None:
                    yield commit
                commit = (time, [])
                item_at += len(b"commit \n") + len(time_b)
            if not item:
                continue
            if item[:1] not in b"ADMRTUX" or (len(item) > 1 and not item[1:].isdigit()):
                raise StreamParseError("unparseable name-status field", item_at, item)
            if commit is None:
                raise StreamParseError("name-status record before any commit line", item_at, item)
            status, status_at = item, item_at
    if status:
        raise StreamParseError("name-status record without its path", status_at, status)
    if commit is not None:
        yield commit


def log_command(rev: str, file_paths: list[str] | None = None,
                name_status: bool = False) -> list[str]:
    """Build the git log invocation of ``rev``'s history that this module parses.

    Renames are detected and copies are not: the explicit ``-M`` also
    overrides a user's ``diff.renames=copies``, so a copy reads as an added
    file.  Pathspecs are literal: a file named ``:x`` or ``x[1]`` matches
    itself only.  Every setting that shapes the output is pinned on the
    command line, so a user's ``color.ui``, ``color.diff``, ``diff.noprefix``,
    ``diff.mnemonicPrefix``, ``log.showSignature``, ``log.follow``,
    ``diff.algorithm``, ``diff.indentHeuristic``, ``diff.renameLimit``,
    ``diff.context``, ``diff.interHunkContext``, ``log.showRoot`` or
    ``i18n.logOutputEncoding`` cannot colour the output or change the
    headers, the renames, the line pairing, the hunks or where a hunk that
    could slide sits, the root commit's diff or the committer names; a user's
    ``diff.orderFile`` cannot reorder the file diffs or, naming a missing
    file, fail the walk.  ``log_environment()`` drops ``GIT_DIFF_OPTS``, so
    it cannot add context lines either.  A gitlink's change is always a
    ``Subproject commit`` patch and a name-status record: neither a user's
    ``diff.submodule`` nor ``diff.ignoreSubmodules``, nor a repository's
    ``.gitmodules`` ``ignore``, can print it another way or hide it.
    A user's ``core.bigFileThreshold`` cannot turn a text file binary, and
    neither a user's attributes file nor a textconv driver can rewrite the
    lines; the repository's own ``.gitattributes`` still applies.  The
    delta-base cache and the pack windows are pinned small, so git's memory
    does not grow with the pack, and a user's ``core.deltaBaseCacheLimit``,
    ``core.packedGitWindowSize`` or ``core.packedGitLimit`` does not set it
    either.  Patches carry no context lines:
    replay only needs the changed ones.  A name-status commit line holds
    the committer time only; a patch commit line, the hash, the time and the
    committer's name and email, after NULs, and no author.  Name-status
    output is NUL-separated, so paths arrive unquoted.
    Walks given one commit hash read one history, whatever the branch does
    meanwhile.  Run the command in ``log_environment()``.
    """
    cmd = ["git", "--literal-pathspecs", "-c", "core.quotepath=off",
           "-c", "diff.noprefix=false", "-c", "diff.mnemonicPrefix=false",
           "-c", "log.showSignature=false", "-c", "log.follow=false",
           "-c", f"diff.renameLimit={RENAME_LIMIT}",
           "-c", "i18n.logOutputEncoding=UTF-8",
           "-c", f"core.deltaBaseCacheLimit={DELTA_BASE_CACHE_LIMIT}",
           "-c", f"core.packedGitWindowSize={PACKED_GIT_WINDOW_SIZE}",
           "-c", f"core.packedGitLimit={PACKED_GIT_LIMIT}",
           "-c", "core.bigFileThreshold=512m", "-c", f"core.attributesFile={os.devnull}", "log",
           "--no-color", "--first-parent", "--diff-merges=first-parent", "--root",
           "--no-ext-diff", "--no-textconv", "--diff-algorithm=myers", "--indent-heuristic",
           "--submodule=short", "--ignore-submodules=none",
           "-O", os.devnull, "-M",
           f"--pretty=format:{'commit %ct' if name_status else COMMIT_PRETTY_FORMAT}", "--reverse"]
    cmd += ["--name-status", "-z"] if name_status else ["-p", "-U0", "--inter-hunk-context=0"]
    return cmd + [rev, "--", *(file_paths or [])]  # ``--``: rev is never read as a path


def log_environment() -> dict[str, str]:
    """The environment every git process of a run starts in: this process's,
    less the pathspec and repository-local variables, plus ``GIT_ENV``."""
    return {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV} | GIT_ENV

