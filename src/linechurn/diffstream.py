"""Streaming parser for git's patch-ordered log output.

Consumes the byte stream produced by ``log_command(file_paths)``:

    git -c core.quotepath=off -c color.ui=false -c diff.noprefix=false \
        -c diff.mnemonicPrefix=false -c log.showSignature=false \
        log --first-parent --diff-merges=first-parent --no-ext-diff \
        --diff-algorithm=myers -M \
        --pretty=format:'commit %H %ct %x1f%an%x1f%ae%x1f%cn%x1f%ce' \
        --reverse -p -U0 --inter-hunk-context=0 -- <file_path>...

and turns it into a flat sequence of typed events: commit headers, file-diff
headers, hunks, skip notices, and a terminating end-of-stream marker.  The
parser is a small state machine (commit header -> file headers -> hunk range
-> hunk body) and is strictly streaming: it holds at most one hunk in memory
at a time, so memory use is bounded by the largest single hunk rather than by
stream length.  The walk asks for no context lines, which replay does not
need; hunks with context parse and replay the same way.

Line content is kept as raw bytes throughout; no transcoding happens here so
that content hashing and equality stay byte-stable across mixed encodings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

COMMIT_PRETTY_FORMAT = "commit %H %ct %x1f%an%x1f%ae%x1f%cn%x1f%ce"

# Fields of the commit line after "commit " are: hash, timestamp, then four
# identity fields joined by the ASCII unit separator.
_UNIT_SEP = b"\x1f"

_HUNK_HEADER_RE = re.compile(rb"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@(?:[ ](.*))?$")
_DIFF_GIT_RE = re.compile(rb'^diff --git (?:"a/(.*)"|a/(.*)) (?:"b/(.*)"|b/(.*))$')
_BINARY_RE = re.compile(rb"^Binary files .* differ$")
_NO_NEWLINE = b"\\ No newline at end of file"

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
)


class StreamParseError(Exception):
    """Base class for malformed log-stream input.

    Carries the byte offset of the offending line and the line itself so
    failures can be located in multi-megabyte streams.
    """

    def __init__(self, message: str, byte_offset: int = -1, line: bytes = b""):
        self.byte_offset = byte_offset
        self.line = line
        detail = message
        if byte_offset >= 0:
            detail += f" (byte offset {byte_offset}, line {line[:200]!r})"
        super().__init__(detail)


class MalformedCommitLine(StreamParseError):
    pass


class MalformedHunkHeader(StreamParseError):
    pass


class TruncatedStream(StreamParseError):
    pass


@dataclass(frozen=True)
class CommitHeader:
    hash: str
    committer_timestamp: int
    author_name: str
    author_email: str
    committer_name: str
    committer_email: str


@dataclass(frozen=True)
class FileDiffHeader:
    old_path: str
    new_path: str
    is_binary: bool = False
    is_rename_or_copy: bool = False
    is_copy: bool = False


class LineKind:
    CONTEXT = " "
    DELETION = "-"
    ADDITION = "+"


@dataclass
class HunkLine:
    kind: str  # one of LineKind
    text: bytes  # without the leading marker, without trailing newline
    had_newline: bool = True


@dataclass
class Hunk:
    old_start: int
    old_count: int
    new_start: int
    new_count: int
    lines: list[HunkLine] = field(default_factory=list)

    def tallies(self) -> tuple[int, int]:
        """Recompute (old, new) line counts from the parsed body."""
        old = sum(1 for ln in self.lines if ln.kind in (LineKind.CONTEXT, LineKind.DELETION))
        new = sum(1 for ln in self.lines if ln.kind in (LineKind.CONTEXT, LineKind.ADDITION))
        return old, new


# Event types yielded by parse_log_stream.

@dataclass(frozen=True)
class CommitStart:
    header: CommitHeader


@dataclass(frozen=True)
class FileStart:
    header: FileDiffHeader


@dataclass(frozen=True)
class HunkEvent:
    hunk: Hunk


@dataclass(frozen=True)
class FileSkipped:
    path: str
    reason: str


@dataclass(frozen=True)
class StreamEnd:
    pass


def parse_hunk_header(header_line: bytes | str) -> tuple[int, int, int, int]:
    """Parse ``@@ -X,Y +A,B @@`` into (X, Y, A, B).

    Omitted counts default to 1 per the unified diff format; section text
    after the closing ``@@`` is ignored.
    """
    raw = header_line.encode("utf-8", "surrogateescape") if isinstance(header_line, str) else header_line
    raw = raw.rstrip(b"\n")
    if not raw.startswith(b"@@"):
        raise MalformedHunkHeader("hunk header must start with '@@'", line=raw)
    m = _HUNK_HEADER_RE.match(raw)
    if m is None:
        raise MalformedHunkHeader("unparseable hunk header", line=raw)
    old_start = int(m.group(1))
    old_count = int(m.group(2)) if m.group(2) is not None else 1
    new_start = int(m.group(3))
    new_count = int(m.group(4)) if m.group(4) is not None else 1
    return old_start, old_count, new_start, new_count


def parse_commit_line(line: bytes | str) -> CommitHeader:
    """Parse one pretty-format commit line into a CommitHeader.

    Expected shape: ``commit <hash> <epoch> \\x1f<an>\\x1f<ae>\\x1f<cn>\\x1f<ce>``.
    An unparseable timestamp is an error, never a silent zero.
    """
    raw = line.encode("utf-8", "surrogateescape") if isinstance(line, str) else line
    raw = raw.rstrip(b"\n")
    if not raw.startswith(b"commit "):
        raise MalformedCommitLine("commit line must start with 'commit '", line=raw)
    body = raw[len(b"commit "):]
    head, sep, identity = body.partition(_UNIT_SEP)
    parts = head.split()
    if len(parts) != 2:
        raise MalformedCommitLine("expected '<hash> <timestamp>' after 'commit'", line=raw)
    hash_b, ts_b = parts
    try:
        commit_hash = hash_b.decode("ascii")
        int(commit_hash, 16)
    except (UnicodeDecodeError, ValueError):
        raise MalformedCommitLine("commit hash is not hexadecimal", line=raw) from None
    try:
        timestamp = int(ts_b)
    except ValueError:
        raise MalformedCommitLine("commit timestamp is not an integer", line=raw) from None
    if not sep:
        raise MalformedCommitLine("missing identity fields", line=raw)
    fields = identity.split(_UNIT_SEP)
    if len(fields) != 4:
        raise MalformedCommitLine(f"expected 4 identity fields, got {len(fields)}", line=raw)
    an, ae, cn, ce = (f.decode("utf-8", "replace") for f in fields)
    return CommitHeader(commit_hash, timestamp, an, ae, cn, ce)


def _decode_path(raw: bytes) -> str:
    return raw.decode("utf-8", "surrogateescape")


def _unquote_c_path(raw: bytes) -> bytes:
    """Undo git's C-style path quoting (octal escapes) when present."""
    out = bytearray()
    i = 0
    while i < len(raw):
        c = raw[i]
        if c == 0x5C and i + 1 < len(raw):  # backslash
            nxt = raw[i + 1]
            if 0x30 <= nxt <= 0x37 and i + 3 < len(raw):
                out.append(int(raw[i + 1 : i + 4], 8))
                i += 4
                continue
            escapes = {ord("n"): 0x0A, ord("t"): 0x09, ord("\\"): 0x5C, ord('"'): 0x22}
            if nxt in escapes:
                out.append(escapes[nxt])
                i += 2
                continue
        out.append(c)
        i += 1
    return bytes(out)


class _LineSource:
    """Lazy line reader with single-line pushback and byte-offset tracking."""

    def __init__(self, lines: Iterable[bytes]):
        self._it = iter(lines)
        self._pushed: bytes | None = None
        self.offset = 0  # byte offset of the line most recently returned
        self._next_offset = 0

    def next_line(self) -> bytes | None:
        if self._pushed is not None:
            line = self._pushed
            self._pushed = None
        else:
            line = next(self._it, None)
            if line is None:
                return None
        self.offset = self._next_offset
        self._next_offset = self.offset + len(line)
        return line

    def push_back(self, line: bytes) -> None:
        assert self._pushed is None
        self._pushed = line
        self._next_offset = self.offset


def parse_log_stream(lines: Iterable[bytes]) -> Iterator[object]:
    """Parse a patch-ordered log byte stream into an event sequence.

    Yields CommitStart, FileStart, HunkEvent, and FileSkipped events in
    stream order, terminated by a single StreamEnd.  Every HunkEvent belongs
    to the most recent FileStart, every FileStart to the most recent
    CommitStart.  Binary file diffs yield FileSkipped instead of hunks.

    ``lines`` is any iterable of newline-terminated byte strings, e.g. a
    binary subprocess pipe or an open binary file.
    """
    src = _LineSource(lines)
    in_commit = False
    current_file: FileDiffHeader | None = None

    while True:
        line = src.next_line()
        if line is None:
            break
        stripped = line.rstrip(b"\n")
        if stripped == b"":
            continue  # entry separator emitted by --pretty=format:

        if stripped.startswith(b"commit "):
            yield CommitStart(parse_commit_line(stripped))
            in_commit = True
            current_file = None
            continue

        if stripped.startswith(b"diff --git "):
            if not in_commit:
                raise StreamParseError("file diff before any commit header", src.offset, stripped)
            current_file = _parse_diff_header(src, stripped)
            yield FileStart(current_file)
            if current_file.is_binary:
                yield FileSkipped(current_file.new_path or current_file.old_path, "binary")
            continue

        if stripped.startswith(b"@@"):
            if current_file is None:
                raise StreamParseError("hunk outside of a file diff", src.offset, stripped)
            yield HunkEvent(_read_hunk(src, stripped))
            continue

        raise StreamParseError("unexpected line between sections", src.offset, stripped)

    yield StreamEnd()


def _parse_diff_header(src: _LineSource, diff_line: bytes) -> FileDiffHeader:
    """Consume the extended header lines that follow one ``diff --git``."""
    m = _DIFF_GIT_RE.match(diff_line)
    if m is None:
        raise StreamParseError("unparseable 'diff --git' line", src.offset, diff_line)
    old_raw = m.group(1) if m.group(1) is not None else m.group(2)
    new_raw = m.group(3) if m.group(3) is not None else m.group(4)
    if m.group(1) is not None:
        old_raw = _unquote_c_path(old_raw)
    if m.group(3) is not None:
        new_raw = _unquote_c_path(new_raw)
    old_path = _decode_path(old_raw)
    new_path = _decode_path(new_raw)
    is_binary = False
    is_rename_or_copy = False
    is_copy = False

    while True:
        line = src.next_line()
        if line is None:
            break
        stripped = line.rstrip(b"\n")
        if stripped.startswith(b"rename from ") or stripped.startswith(b"copy from "):
            is_rename_or_copy = True
            is_copy = stripped.startswith(b"copy from ")
            old_path = _decode_path(_unquote_c_path(stripped.split(b" from ", 1)[1]))
        elif stripped.startswith(b"rename to ") or stripped.startswith(b"copy to "):
            is_rename_or_copy = True
            new_path = _decode_path(_unquote_c_path(stripped.split(b" to ", 1)[1]))
        elif stripped.startswith(b"--- ") or stripped.startswith(b"+++ "):
            pass  # path already known from the diff --git / rename lines
        elif _BINARY_RE.match(stripped) or stripped.startswith(b"GIT binary patch"):
            is_binary = True
        elif any(stripped.startswith(h) for h in _EXT_HEADERS):
            pass
        else:
            src.push_back(line)
            break

    return FileDiffHeader(old_path, new_path, is_binary, is_rename_or_copy, is_copy)


def _read_hunk(src: _LineSource, header_line: bytes) -> Hunk:
    """Read one hunk body, driven by the counts promised in its header."""
    old_start, old_count, new_start, new_count = parse_hunk_header(header_line)
    hunk = Hunk(old_start, old_count, new_start, new_count)
    remaining_old = old_count
    remaining_new = new_count
    last: HunkLine | None = None

    while remaining_old > 0 or remaining_new > 0:
        line = src.next_line()
        if line is None:
            raise TruncatedStream("end of stream inside a hunk body", src.offset, header_line)
        had_newline = line.endswith(b"\n")
        body = line[:-1] if had_newline else line
        if body.startswith(b"\\"):
            if last is None:
                raise StreamParseError("'\\ No newline' marker before any hunk line", src.offset, body)
            last.had_newline = False
            continue
        if body.startswith(b" "):
            kind = LineKind.CONTEXT
            remaining_old -= 1
            remaining_new -= 1
        elif body.startswith(b"-"):
            kind = LineKind.DELETION
            remaining_old -= 1
        elif body.startswith(b"+"):
            kind = LineKind.ADDITION
            remaining_new -= 1
        elif body == b"" and remaining_old > 0 and remaining_new > 0:
            # Tolerate a bare empty line as an empty context line; some diff
            # producers drop the single space marker.
            kind = LineKind.CONTEXT
            body = b" "
            remaining_old -= 1
            remaining_new -= 1
        else:
            raise MalformedHunkHeader(
                "hunk body inconsistent with header counts", src.offset, body
            )
        if remaining_old < 0 or remaining_new < 0:
            raise MalformedHunkHeader(
                "hunk body overruns header counts", src.offset, body
            )
        last = HunkLine(kind, body[1:], True)
        hunk.lines.append(last)

    # A trailing no-newline marker may follow the final hunk line.
    line = src.next_line()
    if line is not None:
        if line.rstrip(b"\n").startswith(b"\\"):
            assert last is not None
            last.had_newline = False
        else:
            src.push_back(line)

    return hunk


def render_hunk_body(hunk: Hunk) -> bytes:
    """Re-render a parsed hunk body (markers, texts, no-newline notes).

    Inverse of the body reader: for any hunk parsed from a valid stream the
    result is byte-identical to the input body.
    """
    out = bytearray()
    for ln in hunk.lines:
        out += ln.kind.encode("ascii") + ln.text + b"\n"
        if not ln.had_newline:
            out += _NO_NEWLINE + b"\n"
    return bytes(out)


@dataclass(frozen=True)
class NameStatusEntry:
    status: str  # A, M, D, T, or R/C (similarity digits stripped)
    old_path: str
    new_path: str


def parse_name_status_stream(lines: Iterable[bytes]) -> Iterator[object]:
    """Parse ``git log --name-status`` output into the same event shapes.

    Yields CommitStart and FileStart events (with rename/copy flags, no
    hunks) plus a final StreamEnd, so file-level consumers can run on the
    cheap name-status log instead of a full patch stream.
    """
    for line in lines:
        stripped = line.rstrip(b"\n")
        if stripped == b"":
            continue
        if stripped.startswith(b"commit "):
            yield CommitStart(parse_commit_line(stripped))
            continue
        parts = stripped.split(b"\t")
        status = parts[0].decode("ascii", "replace")
        kind = status[:1]
        if kind in ("R", "C") and len(parts) >= 3:
            old_path = _decode_path(_unquote_c_path(parts[1]))
            new_path = _decode_path(_unquote_c_path(parts[2]))
            yield FileStart(FileDiffHeader(old_path, new_path,
                                           is_rename_or_copy=True, is_copy=(kind == "C")))
        elif len(parts) >= 2:
            path = _decode_path(_unquote_c_path(parts[1]))
            yield FileStart(FileDiffHeader(path, path))
        else:
            raise StreamParseError("unparseable name-status line", line=stripped)
    yield StreamEnd()


def log_command(file_paths: list[str] | None = None, first_parent: bool = True,
                name_status: bool = False) -> list[str]:
    """Build the git log invocation whose output this module parses.

    Copies (``-C``) are detected on whole-repository walks only: under a
    pathspec a copy's source could only be another listed path.  Every
    setting that shapes the output is pinned on the command line, so a
    user's ``diff.noprefix``, ``diff.mnemonicPrefix``, ``log.showSignature``,
    ``diff.algorithm``, ``diff.context`` or ``diff.interHunkContext`` cannot
    change the headers, the line pairing or the hunks.  Patches carry no
    context lines: replay only needs the changed ones.
    """
    cmd = ["git", "-c", "core.quotepath=off", "-c", "color.ui=false",
           "-c", "diff.noprefix=false", "-c", "diff.mnemonicPrefix=false",
           "-c", "log.showSignature=false", "log"]
    if first_parent:
        cmd += ["--first-parent", "--diff-merges=first-parent"]
    cmd += ["--no-ext-diff", "--diff-algorithm=myers", "-M"] + ([] if file_paths else ["-C"])
    cmd += [f"--pretty=format:{COMMIT_PRETTY_FORMAT}", "--reverse"]
    cmd += ["--name-status"] if name_status else ["-p", "-U0", "--inter-hunk-context=0"]
    if file_paths:
        cmd += ["--", *file_paths]
    return cmd


def display_text(raw: bytes) -> str:
    """Decode bytes for CSV/report output with raw-byte passthrough.

    Undecodable bytes become ``\\xNN`` escapes so output stays valid UTF-8
    while remaining deterministic for any input.
    """
    return raw.decode("utf-8", "backslashreplace")
