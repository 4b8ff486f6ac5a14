"""Parser tests: spec'd header/commit-line parsing, event sequencing on a
hand-built fixture stream, round-trip rendering, and streaming memory."""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linechurn.diffstream import (
    CommitStart,
    FileStart,
    Hunk,
    MalformedCommitLine,
    MalformedHunkHeader,
    StreamParseError,
    TruncatedStream,
    parse_commit_line,
    parse_log_stream,
    parse_name_status_stream,
)

from conftest import chunkings, run_fresh, split_at
from oracles import hunk_tallies, parse_hunk_header, render_hunk_body

COMMIT1 = b"commit aaaa1111 1700000000 \x1fAda\x1fada@x\n"
COMMIT2 = b"commit bbbb2222 1700000100 \x1fCarl\x1fcarl@x\n"

# Hand-built two-commit fixture: commit1 adds a 2-line file, commit2 modifies
# line 2 (zero-context hunk).
TWO_COMMIT_STREAM = (
    COMMIT1
    + b"diff --git a/f.txt b/f.txt\n"
    + b"new file mode 100644\n"
    + b"index 0000000..1111111\n"
    + b"--- /dev/null\n"
    + b"+++ b/f.txt\n"
    + b"@@ -0,0 +1,2 @@\n"
    + b"+one\n"
    + b"+two\n"
    + b"\n"
    + COMMIT2
    + b"diff --git a/f.txt b/f.txt\n"
    + b"index 1111111..2222222 100644\n"
    + b"--- a/f.txt\n"
    + b"+++ b/f.txt\n"
    + b"@@ -2,1 +2,1 @@\n"
    + b"-two\n"
    + b"+two!\n"
)


TRUNCATED_STREAM = (COMMIT1
                    + b"diff --git a/f b/f\n"
                    + b"index 1..2 100644\n"
                    + b"--- a/f\n"
                    + b"+++ b/f\n"
                    + b"@@ -1,2 +1,2 @@\n"
                    + b" ctx\n")

# File a's hunk header is malformed; b, later in the commit, and a, in the
# next commit, parse.
MALFORMED_STREAM = (COMMIT1
                    + b"diff --git a/a b/a\n--- a/a\n+++ b/a\n@@ -1,x +1 @@\n-x\n+y\n"
                    + b"diff --git a/b b/b\n--- a/b\n+++ b/b\n@@ -1 +1 @@\n-p\n+q\n"
                    + b"\n"
                    + COMMIT2
                    + b"diff --git a/a b/a\n--- a/a\n+++ b/a\n@@ -1 +1 @@\n-y\n+z\n")


def parse_all(data: bytes) -> list:
    return list(parse_log_stream(io.BytesIO(data)))


class TestParseHunkHeader:
    def test_full_fields(self):
        assert parse_hunk_header("@@ -3,2 +4,5 @@") == (3, 2, 4, 5)

    def test_omitted_count_defaults_to_one(self):
        assert parse_hunk_header("@@ -1 +1,2 @@") == (1, 1, 1, 2)

    def test_trailing_section_text_ignored(self):
        assert parse_hunk_header("@@ -0,0 +1,3 @@ void f()") == (0, 0, 1, 3)

    @pytest.mark.parametrize("bad", [
        "@@ -a,2 +1,2 @@",
        "@@ -1,2 +1,2",
        "@@-1,2 +1,2 @@",
        "@@ 1,2 +1,2 @@",
        "@@ -1,2 1,2 @@",
    ])
    def test_malformed_raises(self, bad):
        with pytest.raises(MalformedHunkHeader):
            parse_hunk_header(bad)

    def test_non_hunk_line_rejected(self):
        with pytest.raises(MalformedHunkHeader):
            parse_hunk_header("index 123..456")


class TestParseCommitLine:
    def test_fields_extracted(self):
        header = parse_commit_line(b"commit abc123 1700000000 \x1fAda\x1fada@x")
        assert header.hash == "abc123"
        assert header.committer_timestamp == 1700000000
        assert header.committer_name == "Ada"

    def test_missing_timestamp(self):
        with pytest.raises(MalformedCommitLine):
            parse_commit_line(b"commit xyz")

    def test_committer_fields(self):
        header = parse_commit_line(COMMIT2)
        assert (header.committer_name, header.committer_email) == ("Carl", "carl@x")

    def test_author_and_committer_fields_rejected(self):
        """A line that still carries the author's two fields is malformed."""
        with pytest.raises(MalformedCommitLine, match="expected 2 identity fields, got 4"):
            parse_commit_line(b"commit abc123 1700000000 \x1fBea\x1fbea@x\x1fCarl\x1fcarl@x")

    def test_non_integer_timestamp(self):
        with pytest.raises(MalformedCommitLine):
            parse_commit_line(b"commit abc123 notatime \x1fA\x1fa")

    def test_non_hex_hash(self):
        with pytest.raises(MalformedCommitLine):
            parse_commit_line(b"commit zzz 1700000000 \x1fA\x1fa")


class TestParseLogStream:
    def test_two_commit_fixture_event_sequence(self):
        events = parse_all(TWO_COMMIT_STREAM)
        kinds = [type(e).__name__ for e in events]
        assert kinds == ["CommitStart", "FileStart", "HunkEvent",
                         "CommitStart", "FileStart", "HunkEvent"]
        first_hunk = events[2].hunk
        assert (first_hunk.old_start, first_hunk.old_count,
                first_hunk.new_start, first_hunk.new_count) == (0, 0, 1, 2)
        second_hunk = events[5].hunk
        assert (second_hunk.old_start, second_hunk.old_count,
                second_hunk.new_start, second_hunk.new_count) == (2, 1, 2, 1)

    def test_empty_stream(self):
        assert parse_all(b"") == []

    def test_binary_file_skipped(self):
        """A binary diff aborts its file at its ``Binary files`` line."""
        stream = (COMMIT1
                  + b"diff --git a/x.bin b/x.bin\n"
                  + b"new file mode 100644\n"
                  + b"index 0000000..1234567\n"
                  + b"Binary files /dev/null and b/x.bin differ\n")
        for chunks in chunkings(stream):
            events = list(parse_log_stream(chunks))
            assert [type(e).__name__ for e in events] == [
                "CommitStart", "FileStart", "FileAborted"]
            assert events[2].path == "x.bin"
            assert events[2].reason == "binary diff in commit aaaa1111"
            assert events[2].byte_offset == stream.index(b"Binary files")

    def test_binary_patch_aborts_once(self):
        """A ``GIT binary patch`` body is skipped whole: one abort, and the
        next file diff parses."""
        stream = (COMMIT1
                  + b"diff --git a/x.bin b/x.bin\n"
                  + b"index 1111111..2222222 100644\n"
                  + b"GIT binary patch\n"
                  + b"literal 12\n"
                  + b"TcmZ?wbaZuP<mBP%00I60XaE2J\n"
                  + b"\n"
                  + b"literal 10\n"
                  + b"Rcmb1Q<mBP%00I60XaE2J\n"
                  + b"\n"
                  + b"diff --git a/f b/f\n--- a/f\n+++ b/f\n@@ -1 +1 @@\n-x\n+y\n")
        for chunks in chunkings(stream):
            events = list(parse_log_stream(chunks))
            assert [type(e).__name__ for e in events] == [
                "CommitStart", "FileStart", "FileAborted", "FileStart", "HunkEvent"]
            assert events[2].reason == "binary diff in commit aaaa1111"
            assert events[2].byte_offset == stream.index(b"GIT binary patch")
            assert events[4].hunk.lines == [b"-x", b"+y"]

    def test_mode_change_only_yields_filestart_no_hunks(self):
        stream = (COMMIT1
                  + b"diff --git a/run.sh b/run.sh\n"
                  + b"old mode 100644\n"
                  + b"new mode 100755\n")
        events = parse_all(stream)
        assert [type(e).__name__ for e in events] == ["CommitStart", "FileStart"]

    def test_rename_header(self):
        stream = (COMMIT1
                  + b"diff --git a/old.txt b/new.txt\n"
                  + b"similarity index 100%\n"
                  + b"rename from old.txt\n"
                  + b"rename to new.txt\n")
        events = parse_all(stream)
        header = events[1]
        assert (header.old_path, header.new_path) == ("old.txt", "new.txt")

    def test_no_newline_markers_set_flag(self):
        stream = (COMMIT1
                  + b"diff --git a/f b/f\n"
                  + b"index 1..2 100644\n"
                  + b"--- a/f\n"
                  + b"+++ b/f\n"
                  + b"@@ -1,1 +1,1 @@\n"
                  + b"-old\n"
                  + b"\\ No newline at end of file\n"
                  + b"+new\n"
                  + b"\\ No newline at end of file\n")
        hunk = parse_all(stream)[2].hunk
        assert hunk.lines == [b"-old", b"+new"]
        assert (hunk.old_newline, hunk.new_newline) == (False, False)

    def test_truncated_hunk_body(self):
        for chunks in chunkings(TRUNCATED_STREAM):
            events = list(parse_log_stream(chunks))
            assert [type(e).__name__ for e in events] == [
                "CommitStart", "FileStart", "FileAborted"]
            aborted = events[2]
            assert aborted.path == "f"
            assert "end of stream inside a hunk body" in aborted.reason
            assert aborted.byte_offset == TRUNCATED_STREAM.index(b"@@ -1,2")
            assert f"byte offset {aborted.byte_offset}," in aborted.reason

    def test_surplus_no_newline_markers_abort_the_file(self):
        stream = (COMMIT1 + b"diff --git a/f b/f\nindex 1..2 100644\n"
                  + b"@@ -1 +1 @@\n-x\n\\ No newline at end of file\n"
                  + b"\\ No newline at end of file\n\\ No newline at end of file\n+y\n")
        # The second marker stands where the addition should.
        second = stream.index(b"\\ No newline", stream.index(b"\\ No newline") + 1)
        for chunks in chunkings(stream):
            events = list(parse_log_stream(chunks))
            assert [type(e).__name__ for e in events] == [
                "CommitStart", "FileStart", "FileAborted"]
            assert "not a run of deletions then a run of additions" in events[2].reason
            assert events[2].byte_offset == second

    def test_malformed_hunk_aborts_only_its_file(self):
        for chunks in chunkings(MALFORMED_STREAM):
            events = list(parse_log_stream(chunks))
            assert [type(e).__name__ for e in events] == [
                "CommitStart", "FileStart", "FileAborted", "FileStart", "HunkEvent",
                "CommitStart", "FileStart", "HunkEvent"]
            assert events[2].path == "a"
            assert events[2].byte_offset == MALFORMED_STREAM.index(b"@@ -1,x")
            assert events[3].new_path == "b"
            assert events[4].hunk.lines == [b"-p", b"+q"]
            assert events[7].hunk.lines == [b"-y", b"+z"]

    @pytest.mark.parametrize("before, rest", [
        pytest.param(b"@@ -1,2 +1,2 @@\n", b" c\n-x\n+y\n", id="context-line"),
        pytest.param(b"@@ -1 +1 @@\n", b"+y\n-x\n", id="addition-first"),
        pytest.param(b"@@ -1,2 +1,2 @@\n-a\n", b"+A\n-b\n+B\n", id="interleaved"),
        pytest.param(b"@@ -1 +1 @@\n-x\n\\ No newline at end of file\n",
                     b"\\ No newline at end of file\n+y\n", id="second-marker-after-deletions"),
        pytest.param(b"@@ -1 +1 @@\n-x\n+y\n\\ No newline at end of file\n",
                     b"\\ No newline at end of file\n", id="second-marker-after-additions"),
    ])
    def test_hunk_out_of_shape_aborts_its_file(self, before, rest):
        """Only deletions, a marker, additions, a marker: anything else
        aborts the file at its first line out of shape."""
        head = COMMIT1 + b"diff --git a/f b/f\n--- a/f\n+++ b/f\n" + before
        stream = head + rest + b"diff --git a/g b/g\n--- a/g\n+++ b/g\n@@ -1 +1 @@\n-p\n+q\n"
        for chunks in chunkings(stream):
            events = list(parse_log_stream(chunks))
            assert [type(e).__name__ for e in events] == [
                "CommitStart", "FileStart", "FileAborted", "FileStart", "HunkEvent"]
            assert events[2].path == "f"
            assert events[2].byte_offset == len(head)
            assert events[3].new_path == "g"
            assert events[4].hunk.lines == [b"-p", b"+q"]

    @pytest.mark.parametrize("before, bad", [
        pytest.param(b"@@ -2,2 +2,2 @@\n-b\n-c\n+B\n+C\n", b"@@ -3 +3 @@\n-c\n+X\n",
                     id="overlapping"),
        pytest.param(b"@@ -3 +3 @@\n-c\n+C\n", b"@@ -1 +1 @@\n-a\n+A\n", id="out-of-order"),
        pytest.param(b"", b"@@ -0,2 +1,2 @@\n-a\n-b\n+A\n+B\n", id="old-start-zero"),
        pytest.param(b"", b"@@ -0,0 +0,2 @@\n+a\n+b\n", id="new-start-zero"),
        pytest.param(b"@@ -1,0 +2,2 @@\n+x\n+y\n", b"@@ -5 +5 @@\n-e\n+E\n",
                     id="new-start-off-shift"),
    ])
    def test_hunk_out_of_order_aborts_its_file(self, before, bad):
        """Replay places hunks by their new side, so a hunk that overlaps or
        precedes the one before it, or whose sides disagree, aborts its file
        at its header."""
        head = COMMIT1 + b"diff --git a/f b/f\n--- a/f\n+++ b/f\n" + before
        stream = head + bad + b"diff --git a/g b/g\n--- a/g\n+++ b/g\n@@ -1 +1 @@\n-p\n+q\n"
        kinds = ["CommitStart", "FileStart"] + ["HunkEvent"] * bool(before)
        for chunks in chunkings(stream):
            events = list(parse_log_stream(chunks))
            assert [type(e).__name__ for e in events] == kinds + [
                "FileAborted", "FileStart", "HunkEvent"]
            aborted = events[len(kinds)]
            assert aborted.path == "f"
            assert aborted.byte_offset == len(head)
            assert events[-1].hunk.lines == [b"-p", b"+q"]

    def test_unexpected_line_aborts_its_file(self):
        stream = (COMMIT1 + b"diff --git a/a b/a\nindex 1..2 100644\ngarbage\n"
                  + b"@@ -1 +1 @@\n-x\n+y\n")
        events = parse_all(stream)
        assert [type(e).__name__ for e in events] == [
            "CommitStart", "FileStart", "FileAborted"]
        assert events[2].byte_offset == stream.index(b"garbage")

    def test_copy_header(self):
        # The walk detects no copies, so a copy header aborts its file like
        # any other unexpected header line.
        stream = (COMMIT1
                  + b"diff --git a/src.txt b/dup.txt\n"
                  + b"similarity index 90%\n"
                  + b"copy from src.txt\n"
                  + b"copy to dup.txt\n"
                  + b"index 111..222 100644\n"
                  + b"--- a/src.txt\n"
                  + b"+++ b/dup.txt\n"
                  + b"@@ -1,1 +1,1 @@\n"
                  + b"-a\n"
                  + b"+b\n")
        events = parse_all(stream)
        assert [type(e).__name__ for e in events] == [
            "CommitStart", "FileStart", "FileAborted"]
        assert events[2].byte_offset == stream.index(b"copy from")

    def test_error_outside_file_diff_raises(self):
        with pytest.raises(StreamParseError, match="unexpected line"):
            parse_all(COMMIT1 + b"garbage\n")
        with pytest.raises(StreamParseError, match="diff --git"):
            parse_all(COMMIT1 + b"diff --git f f\n")

    def test_hunk_attribution_to_latest_file(self):
        stream = (COMMIT1
                  + b"diff --git a/a b/a\n--- a/a\n+++ b/a\n@@ -1,1 +1,1 @@\n-x\n+y\n"
                  + b"diff --git a/b b/b\n--- a/b\n+++ b/b\n@@ -1,1 +1,1 @@\n-p\n+q\n")
        events = parse_all(stream)
        assert [type(e).__name__ for e in events] == [
            "CommitStart", "FileStart", "HunkEvent", "FileStart", "HunkEvent"]

    def test_quoted_paths_unescaped(self):
        stream = (COMMIT1
                  + b'diff --git "a/sp ace.txt" "b/sp ace.txt"\n'
                  + b"index 1..2 100644\n"
                  + b'--- "a/sp ace.txt"\n'
                  + b'+++ "b/sp ace.txt"\n'
                  + b"@@ -1,1 +1,1 @@\n-x\n+y\n")
        assert parse_all(stream)[1].new_path == "sp ace.txt"

    @pytest.mark.parametrize("names,path", [
        (b"a/conf b/hot.cfg b/conf b/hot.cfg", "conf b/hot.cfg"),
        (b'"a/c b/\\"q\\".cfg" "b/c b/\\"q\\".cfg"', 'c b/"q".cfg'),
    ])
    def test_path_holding_b_slash_keeps_its_name(self, names, path):
        stream = (COMMIT1 + b"diff --git " + names + b"\n"
                  + b"@@ -1,1 +1,1 @@\n-x\n+y\n")
        header = parse_all(stream)[1]
        assert (header.old_path, header.new_path) == (path, path)

    def test_quoted_rename_paths_unescaped(self):
        stream = (COMMIT1
                  + b'diff --git "a/we\\"ird" "b/tab\\tcr\\r\\303\\251"\n'
                  + b"similarity index 100%\n"
                  + b'rename from "we\\"ird"\n'
                  + b'rename to "tab\\tcr\\r\\303\\251"\n')
        header = parse_all(stream)[1]
        assert (header.old_path, header.new_path) == ('we"ird', "tab\tcr\r\u00e9")


def random_hunk(rng: random.Random) -> Hunk:
    """A zero-context hunk of 1-9 lines; each side may end in a no-newline marker.

    Its header is one git prints: both sides start at one base ``k``, a
    side with lines at line ``k + 1``, a side without at ``k``.
    """
    def text() -> bytes:
        return bytes(rng.randrange(32, 127) for _ in range(rng.randrange(0, 30)))

    n = rng.randrange(1, 10)
    old = rng.randrange(0, n + 1)
    lines = [b"-" + text() for _ in range(old)] + [b"+" + text() for _ in range(n - old)]
    # A marker can only follow a side that has lines.
    old_newline = not (old and rng.random() < 0.2)
    new_newline = not (n - old and rng.random() < 0.2)
    k = rng.randrange(0, 500)
    return Hunk(k + 1 if old else k, old, k + 1 if n - old else k, n - old, lines,
                old_newline, new_newline)


def hunk_header_bytes(hunk: Hunk) -> bytes:
    return (f"@@ -{hunk.old_start},{hunk.old_count} "
            f"+{hunk.new_start},{hunk.new_count} @@\n").encode()


def test_roundtrip_fuzz_small():
    """Body re-rendering is byte-exact for randomly generated valid hunks."""
    rng = random.Random(7)
    for _ in range(500):
        hunk = random_hunk(rng)
        body = render_hunk_body(hunk)
        stream = (COMMIT1 + b"diff --git a/f b/f\n--- a/f\n+++ b/f\n"
                  + hunk_header_bytes(hunk) + body)
        events = parse_all(stream)
        parsed = events[2].hunk
        assert render_hunk_body(parsed) == body
        assert hunk_tallies(parsed) == (parsed.old_count, parsed.new_count)


_TEXTS = st.lists(st.binary(max_size=20).filter(lambda b: b"\n" not in b), max_size=8)


@settings(max_examples=60, deadline=None)
@given(_TEXTS, _TEXTS, st.booleans(), st.booleans())
def test_roundtrip_property(deleted, added, old_marker, new_marker):
    lines = [b"-" + text for text in deleted] + [b"+" + text for text in added]
    hunk = Hunk(1 if deleted else 0, len(deleted), 1 if added else 0, len(added), lines,
                not (deleted and old_marker), not (added and new_marker))
    body = render_hunk_body(hunk)
    stream = (COMMIT1 + b"diff --git a/f b/f\n--- a/f\n+++ b/f\n"
              + hunk_header_bytes(hunk) + body)
    parsed = parse_all(stream)[2].hunk
    assert parsed == hunk
    assert render_hunk_body(parsed) == body


FIXTURE_STREAMS = [
    TWO_COMMIT_STREAM,
    TRUNCATED_STREAM,
    MALFORMED_STREAM,
    COMMIT1 + b"diff --git a/x.bin b/x.bin\nnew file mode 100644\nindex 0000000..1234567\n"
    + b"Binary files /dev/null and b/x.bin differ\n",
    COMMIT1 + b"diff --git a/old.txt b/new.txt\nsimilarity index 100%\n"
    + b"rename from old.txt\nrename to new.txt\n",
    COMMIT1 + b'diff --git "a/we\\"ird" "b/we\\"ird2"\nsimilarity index 90%\n'
    + b'rename from "we\\"ird"\nrename to "we\\"ird2"\n--- "a/we\\"ird"\n+++ "b/we\\"ird2"\n'
    + b"@@ -1,1 +1,1 @@\n-a\n+b\n",
    COMMIT1 + b"diff --git a/f b/f\nindex 1..2 100644\n--- a/f\n+++ b/f\n@@ -1,1 +1,1 @@\n"
    + b"-old\n\\ No newline at end of file\n+new\n\\ No newline at end of file\n",
    COMMIT1 + b"diff --git a/f b/f\n--- a/f\n+++ b/f\n@@ -3,2 +2,0 @@\n-a\n-b\n"
    + b"@@ -9,0 +8,3 @@\n+c\n+d\n+e",  # the stream's last line has no newline
]


def fuzz_stream(rng: random.Random) -> bytes:
    """One file diff of 1-3 random hunks, each placed after the one before
    and numbered as git numbers it."""
    parts = [COMMIT1, b"diff --git a/f b/f\n--- a/f\n+++ b/f\n"]
    old_base = shift = 0
    for _ in range(rng.randrange(1, 4)):
        hunk = random_hunk(rng)
        old_base += rng.randrange(0, 200)
        hunk.old_start = old_base + 1 if hunk.old_count else old_base
        hunk.new_start = old_base + shift + 1 if hunk.new_count else old_base + shift
        old_base += hunk.old_count
        shift += hunk.new_count - hunk.old_count
        parts += [hunk_header_bytes(hunk), render_hunk_body(hunk)]
    return b"".join(parts)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_events_independent_of_chunking(data):
    """Any split of a stream into chunks gives the events of the whole stream."""
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    streams = FIXTURE_STREAMS + [fuzz_stream(rng) for _ in range(4)]
    for stream in streams:
        whole = list(parse_log_stream([stream]))
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=12), label="cuts")
        assert list(parse_log_stream(split_at(stream, cuts))) == whole
    for stream in streams:
        whole = list(parse_log_stream([stream]))
        assert list(parse_log_stream(stream[k:k + 1] for k in range(len(stream)))) == whole


def test_streaming_memory_bounded():
    """Parsing a million-hunk stream, fed one line per chunk, must not buffer
    the stream: the parsing interpreter's peak resident set grows by far
    less than the ~50 MB of stream text.  A fresh interpreter holds nothing
    else, so its peak growth is the parse's own."""
    proc = run_fresh("-c", f"""
import resource
from linechurn.diffstream import HunkEvent, parse_log_stream

def generate():
    yield {COMMIT1!r}
    yield b"diff --git a/f b/f\\n"
    yield b"--- a/f\\n"
    yield b"+++ b/f\\n"
    for i in range(1_000_000):
        yield b"@@ -%d,1 +%d,1 @@\\n" % (i + 1, i + 1)
        yield b"-old line %d\\n" % i
        yield b"+new line %d\\n" % i

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
count = sum(isinstance(event, HunkEvent) for event in parse_log_stream(generate()))
print(count, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
""")
    assert proc.returncode == 0, proc.stderr
    count, growth_kib = map(int, proc.stdout.split())
    assert count == 1_000_000
    assert growth_kib * 1024 < 64 * 1024 * 1024  # ru_maxrss counts KiB on Linux


def test_name_status_stream():
    stream = (COMMIT1
              + b"A\0a.txt\0"
              + b"M\0b.txt\0"
              + b"\0"
              + COMMIT2
              + b"R100\0a.txt\0c.txt\0"
              + b"M\0b.txt\0")
    for chunks in chunkings(stream):
        assert list(parse_name_status_stream(chunks)) == [
            (1700000000, [("a.txt", "a.txt"), ("b.txt", "b.txt")]),
            (1700000100, [("a.txt", "c.txt"), ("b.txt", "b.txt")])]
    # The walk detects no copies; a copy record is an unknown status.
    copy = stream + b"C075\0b.txt\0b2.txt\0"
    for chunks in chunkings(copy):
        with pytest.raises(StreamParseError, match="unparseable name-status field"):
            list(parse_name_status_stream(chunks))


def test_name_status_paths_verbatim():
    """-z prints paths unquoted; quotes, backslashes, tabs and newlines stay."""
    names = [b'we"ird.txt', b"back\\slash.txt", b"tab\tname.txt", b"new\nline.txt",
             b"commit 1 2.txt"]
    stream = (COMMIT1.rstrip(b"\n") + b"\0"  # a commit without file changes
              + COMMIT2 + b"".join(b"A\0" + name + b"\0" for name in names))
    for chunks in chunkings(stream):
        assert list(parse_name_status_stream(chunks)) == [
            (1700000000, []), (1700000100, [(n.decode(), n.decode()) for n in names])]


@pytest.mark.parametrize("stream, error", [
    pytest.param(b"commit zzz 1700000000 \x1fA\x1fa\nM\0f\0", MalformedCommitLine,
                 id="commit-line"),
    pytest.param(COMMIT1 + b"Q\0f\0", StreamParseError, id="unknown-status"),
    pytest.param(COMMIT1 + b"M\0", TruncatedStream, id="no-path"),
    pytest.param(COMMIT1 + b"R100\0a\0", TruncatedStream, id="rename-without-new-path"),
    pytest.param(b"M\0f\0" + COMMIT1, StreamParseError, id="record-before-commit"),
])
def test_name_status_checks(stream, error):
    for chunks in chunkings(stream):
        with pytest.raises(error):
            list(parse_name_status_stream(chunks))
