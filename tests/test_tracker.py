"""Line-tracker tests: hunk placement, positional pairing, hunk
application semantics, conservation, snapshots, and report round-trips."""

from __future__ import annotations

import csv
import io
import logging
import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linechurn.diffstream import (
    CommitHeader,
    CommitStart,
    FileStart,
    Hunk,
    HunkEvent,
    parse_log_stream,
)
from linechurn.tracker import (
    FileState,
    HistoryReplayer,
    HunkOutOfBounds,
    apply_hunk,
)
from linechurn.pipeline import LINE_REPORT_COLUMNS, display_text, emit_reports, finalize

from repogen import BlobReader, RepoBuilder, build_random_repo
from conftest import blame_commits, repo_log_events
from oracles import read_line_report, reconstruct_snapshot, replay_by_commit, snapshot_bytes
from test_diffstream import COMMIT1, COMMIT2


def make_commit(n: int) -> CommitHeader:
    return CommitHeader(f"{n:040x}", 1_700_000_000 + n * 100, "Ada", "ada@x")


def hunk(old_start, old_count, new_start, new_count, spec: str, texts: list[bytes]) -> Hunk:
    """spec is a marker string like '--+': one char per hunk line."""
    lines = [kind.encode() + text for kind, text in zip(spec, texts)]
    return Hunk(old_start, old_count, new_start, new_count, lines)


class TestRunningDelta:
    """Hunks of one commit land where git's new-file numbers put them: their
    old start plus the line-count change of the hunks before them."""

    def test_multi_hunk_commit_mixing_insertions_and_deletions(self):
        state = FileState()
        texts = [f"l{i}".encode() for i in range(1, 11)]
        apply_hunk(state, hunk(0, 0, 1, 10, "+" * 10, texts), make_commit(1))
        before = list(state.file_lines)
        commit = make_commit(2)
        # Zero-context hunks as git prints them, in the parent's coordinates:
        # insert two after l1, delete l3-l4, edit l6 into two lines, delete
        # l8, insert one after l10.
        for h in (hunk(1, 0, 2, 2, "++", [b"i1", b"i2"]),
                  hunk(3, 2, 4, 0, "--", [b"l3", b"l4"]),
                  hunk(6, 1, 6, 2, "-++", [b"l6", b"L6", b"L6b"]),
                  hunk(8, 1, 8, 0, "-", [b"l8"]),
                  hunk(10, 0, 11, 1, "+", [b"end"])):
            apply_hunk(state, h, commit)
        assert reconstruct_snapshot(state) == [
            b"l1", b"i1", b"i2", b"l2", b"l5", b"L6", b"L6b", b"l7", b"l9", b"l10", b"end"]
        kept = {0: 0, 1: 3, 4: 4, 5: 5, 6: 7, 8: 8, 9: 9}  # old index -> new index
        for old_index, new_index in kept.items():
            assert state.file_lines[new_index] is before[old_index]
        assert state.file_lines[5].mod_count == 1
        assert state.births_total - state.deaths_total == len(state.file_lines) == 11


def replace_run(n_del: int, n_add: int):
    """Apply one ``n_del`` deletions, ``n_add`` additions hunk to lines d1..dN.

    N is 4, or ``n_del`` when that is more.  The hunk replaces the first
    ``n_del`` lines, or inserts after d1 when it deletes none; its header is
    the one git prints, where a side without lines names the line before.
    """
    n_base = max(4, n_del)
    state = FileState()
    apply_hunk(state, hunk(0, 0, 1, n_base, "+" * n_base,
                           [f"d{k}".encode() for k in range(1, n_base + 1)]), make_commit(1))
    before = list(state.file_lines)
    added = [f"a{k}".encode() for k in range(1, n_add + 1)]
    base = 0 if n_del else 1
    apply_hunk(state, hunk(1, n_del, base + 1 if n_add else base, n_add, "-" * n_del + "+" * n_add,
                           [line.content for line in before[:n_del]] + added),
               make_commit(2))
    return state, before


class TestPairEdits:
    """The i-th deletion of a change group pairs with its i-th addition."""

    def test_equal_runs_pair_fully(self):
        state, before = replace_run(2, 2)
        assert state.file_lines[:2] == before[:2]
        assert [ln.content for ln in state.file_lines] == [b"a1", b"a2", b"d3", b"d4"]
        assert [ln.mod_count for ln in state.file_lines] == [1, 1, 0, 0]
        assert state.deaths_total == 0 and state.births_total == 4

    def test_surplus_deletions_die(self):
        state, before = replace_run(3, 1)
        assert state.file_lines == [before[0], before[3]]
        assert state.file_lines[0].content == b"a1"
        assert state.deaths_total == 2 and state.births_total == 4

    def test_pure_insertion(self):
        state, before = replace_run(0, 2)
        assert [ln.content for ln in state.file_lines] == [
            b"d1", b"a1", b"a2", b"d2", b"d3", b"d4"]
        assert state.file_lines[0] is before[0] and state.file_lines[3:] == before[1:]
        assert state.deaths_total == 0 and state.births_total == 6

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_sizes_always_consistent(self, n_del, n_add):
        state, before = replace_run(n_del, n_add)
        live = {id(ln) for ln in state.file_lines}
        paired = [ln for ln in before[:n_del] if id(ln) in live]
        assert len(paired) == min(n_del, n_add)
        assert all(ln.mod_count == 1 for ln in paired)
        assert state.deaths_total == n_del - len(paired)
        assert state.births_total - len(before) == n_add - len(paired)
        assert len(state.file_lines) == len(before) - n_del + n_add


class TestApplyHunk:
    def test_three_commit_modification_chain(self):
        state = FileState()
        apply_hunk(state, hunk(0, 0, 1, 1, "+", [b"x=1"]), make_commit(1))
        apply_hunk(state, hunk(1, 1, 1, 1, "-+", [b"x=1", b"x=2"]), make_commit(2))
        apply_hunk(state, hunk(1, 1, 1, 1, "-+", [b"x=2", b"x=3"]), make_commit(3))
        line = state.file_lines[0]
        assert line.mod_count == 2
        assert len(line.history) == 3
        assert line.history[0].committer_timestamp == make_commit(1).committer_timestamp
        assert line.content == b"x=3"
        assert reconstruct_snapshot(state) == [b"x=3"]

    def test_deletion_only_records_death(self):
        state = FileState()
        apply_hunk(state, hunk(0, 0, 1, 1, "+", [b"x=1"]), make_commit(1))
        apply_hunk(state, hunk(1, 1, 0, 0, "-", [b"x=1"]), make_commit(2))
        assert state.file_lines == []
        assert state.deaths_total == 1
        assert list(finalize(state)) == []

    def test_reconstruct_empty_history(self):
        assert reconstruct_snapshot(FileState()) == []
        assert snapshot_bytes(FileState()) == b""

    def test_untouched_slot_unchanged(self):
        state = FileState()
        texts = [b"l1", b"l2", b"l3", b"l4", b"l5", b"l6"]
        apply_hunk(state, hunk(0, 0, 1, 6, "++++++", texts), make_commit(1))
        slot5 = state.file_lines[4]
        before = (slot5.mod_count, len(slot5.history))
        apply_hunk(state, hunk(2, 1, 2, 1, "-+", [b"l2", b"l2x"]), make_commit(2))
        after = (slot5.mod_count, len(slot5.history))
        assert before == after
        assert state.file_lines[4] is slot5

    def test_offsets_within_one_commit(self):
        state = FileState()
        texts = [f"l{i}".encode() for i in range(1, 9)]
        apply_hunk(state, hunk(0, 0, 1, 8, "+" * 8, texts), make_commit(1))
        commit = make_commit(2)
        # First hunk inserts two lines after line 2; second hunk's raw
        # coordinates still address the parent state.
        apply_hunk(state, hunk(2, 0, 3, 2, "++", [b"i1", b"i2"]), commit)
        apply_hunk(state, hunk(6, 1, 8, 1, "-+", [b"l6", b"L6"]), commit)
        assert reconstruct_snapshot(state) == [
            b"l1", b"l2", b"i1", b"i2", b"l3", b"l4", b"l5", b"L6", b"l7", b"l8"]

    def test_offsets_reset_between_commits(self):
        state = FileState()
        apply_hunk(state, hunk(0, 0, 1, 3, "+++", [b"a", b"b", b"c"]), make_commit(1))
        apply_hunk(state, hunk(1, 0, 2, 2, "++", [b"x", b"y"]), make_commit(2))
        # New commit: coordinates are relative to the 5-line parent state.
        apply_hunk(state, hunk(5, 1, 5, 1, "-+", [b"c", b"C"]), make_commit(3))
        assert reconstruct_snapshot(state) == [b"a", b"x", b"y", b"b", b"C"]

    def test_out_of_bounds_raises(self):
        state = FileState()
        apply_hunk(state, hunk(0, 0, 1, 2, "++", [b"a", b"b"]), make_commit(1))
        with pytest.raises(HunkOutOfBounds):
            apply_hunk(state, hunk(2, 2, 2, 2, "--++", [b"b", b"x", b"B", b"X"]),
                       make_commit(2))

    def test_mod_count_equals_history_minus_one_always(self):
        state = FileState()
        rng = random.Random(3)
        apply_hunk(state, hunk(0, 0, 1, 3, "+++", [b"a", b"b", b"c"]), make_commit(1))
        for n in range(2, 20):
            position = rng.randrange(1, len(state.file_lines) + 1)
            old = state.file_lines[position - 1].content
            apply_hunk(state, hunk(position, 1, position, 1, "-+",
                                   [old, f"v{n}".encode()]), make_commit(n))
            for line in state.file_lines:
                assert line.mod_count == len(line.history) - 1

    @given(st.lists(st.lists(st.binary(max_size=8).filter(lambda text: b"\n" not in text),
                             min_size=1, max_size=6), min_size=1, max_size=4))
    @example([[b"", b"\r", b"\x00", b"\xff", b""], [b"\xff\r\x00"]])
    def test_line_reads_back_its_revisions(self, revisions):
        """Each line born in one hunk, then changed by one-line pairs, reads
        back as a plain list of its (commit, content) revisions."""
        state, n = FileState(), len(revisions)
        births = [contents[0] for contents in revisions]
        apply_hunk(state, hunk(0, 0, 1, n, "+" * n, births), make_commit(0))
        model = [[(make_commit(0), text)] for text in births]
        for position, contents in enumerate(revisions, 1):
            for text in contents[1:]:
                commit = make_commit(sum(map(len, model)))
                old = model[position - 1][-1][1]
                apply_hunk(state, hunk(position, 1, position, 1, "-+", [old, text]), commit)
                model[position - 1].append((commit, text))
        for line, revs in zip(state.file_lines, model, strict=True):
            assert line.history == [commit for commit, _ in revs]
            assert line.contents() == [text for _, text in revs]
            assert line.content == revs[-1][1]
            assert line.mod_count == len(revs) - 1

    def test_a_revision_costs_no_object(self):
        """20,000 modifications of one line hold under 40 bytes each beyond
        their 10-byte contents: a commit pointer and a separator, where a
        revision object and its own bytes object took about 99."""
        n = 20_000
        texts = [b"%010d" % k for k in range(n + 1)]
        commits = [make_commit(k) for k in range(n + 1)]
        hunks = [hunk(1, 1, 1, 1, "-+", texts[k - 1:k + 1]) for k in range(1, n + 1)]
        state = FileState()
        apply_hunk(state, hunk(0, 0, 1, 1, "+", texts[:1]), commits[0])
        tracemalloc.start()
        try:
            for h, commit in zip(hunks, commits[1:]):
                apply_hunk(state, h, commit)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert state.file_lines[0].mod_count == n
        assert state.file_lines[0].content == texts[-1]
        assert held / n - len(texts[0]) < 40

    def test_conservation_births_minus_deaths(self):
        state = FileState()
        apply_hunk(state, hunk(0, 0, 1, 4, "++++", [b"a", b"b", b"c", b"d"]),
                   make_commit(1))
        apply_hunk(state, hunk(2, 2, 2, 1, "--+", [b"b", b"c", b"bc"]), make_commit(2))
        apply_hunk(state, hunk(3, 0, 4, 2, "++", [b"e", b"f"]), make_commit(3))
        assert state.births_total - state.deaths_total == len(state.file_lines)


class TestFinalize:
    def _tracked_state(self) -> FileState:
        state = FileState()
        apply_hunk(state, hunk(0, 0, 1, 3, "+++", [b"a", b"b", b"c"]), make_commit(1))
        apply_hunk(state, hunk(2, 2, 2, 1, "--+", [b"b", b"c", b"bc"]), make_commit(2))
        return state

    def test_live_rows_only(self):
        rows = list(finalize(self._tracked_state()))
        assert len(rows) == 2  # one dead line excluded

    def test_line_numbers_dense(self):
        rows = list(finalize(self._tracked_state()))
        assert [r[0] for r in rows] == list(range(1, len(rows) + 1))

    def test_csv_roundtrip(self, tmp_path):
        state = self._tracked_state()
        (tmp_path / "line_reports").mkdir()
        [out] = emit_reports(tmp_path, {"f": state}, [], {})[:-1]
        back = read_line_report(out)
        lines = [(i, ln.mod_count, ln.history[0].committer_timestamp,
                  tuple((commit.hash, commit.committer_timestamp) for commit in ln.history))
                 for i, ln in enumerate(state.file_lines, 1)]
        assert [(r.line_number, r.mod_count, r.birth_ts, r.history) for r in back] == lines
        assert [r.content for r in back] == reconstruct_snapshot(state)

    def test_csv_escapes_undecodable_bytes(self, tmp_path):
        state = FileState()
        apply_hunk(state, hunk(0, 0, 1, 1, "+", [b"bad \xff byte"]), make_commit(1))
        (tmp_path / "line_reports").mkdir()
        [out] = emit_reports(tmp_path, {"f": state}, [], {})[:-1]
        text = out.read_text("utf-8")
        assert "\\xff" in text

    def test_report_is_csv_and_written_in_bounded_memory(self, tmp_path):
        """A line report equals ``csv.writer`` over rows whose revision fields
        are joined whole, and writing a line of 20,000 revisions allocates
        less than that line's row."""
        state = FileState()
        contents = [b"a,b", b'say "hi"', b" leading space", b"bad \xff byte", b"cr\rlf", b"x=0"]
        apply_hunk(state, hunk(0, 0, 1, 6, "+" * 6, contents), make_commit(0))
        last = state.file_lines[-1]
        last.history += map(make_commit, range(1, 20_000))
        last.texts += b"".join(f"\nx={n}".encode() for n in range(1, 20_000))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(LINE_REPORT_COLUMNS)
        writer.writerows(
            [n, display_text(line.content), line.mod_count,
             line.history[0].committer_timestamp,
             "|".join(commit.hash for commit in line.history),
             "|".join(str(commit.committer_timestamp) for commit in line.history)]
            for n, line in enumerate(state.file_lines, 1))
        longest = max(map(len, expected.getvalue().splitlines()))
        (tmp_path / "line_reports").mkdir()
        tracemalloc.start()
        try:
            [out] = emit_reports(tmp_path, {"f": state}, [], {})[:-1]
            growth = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == expected.getvalue().encode("utf-8")
        assert longest > 1_000_000
        assert growth < longest


class TestReplayer:
    def test_rename_carries_state(self, tmp_path):
        builder = RepoBuilder(tmp_path / "r")
        builder.commit({"a.txt": b"one\ntwo\n"}, "c1")
        # Delete+recreate with identical content: -M reports it as a rename.
        builder.commit({"a.txt": None, "b.txt": b"one\ntwo\n"}, "rename")
        builder.commit({"b.txt": b"one\ntwo2\n"}, "edit")
        builder.finish()

        replayer = HistoryReplayer()
        replayer.run(iter(repo_log_events(builder.path, ["a.txt", "b.txt"])))
        assert "b.txt" in replayer.states
        assert "a.txt" not in replayer.states
        line = replayer.states["b.txt"].file_lines[1]
        assert line.mod_count == 1  # identity survived the rename
        assert line.history[0].committer_timestamp == builder.start_ts

    def test_binary_diff_aborts_the_file(self, tmp_path):
        """A file that turns binary and back is aborted, never replayed from
        the lines it had before."""
        builder = RepoBuilder(tmp_path / "r")
        builder.commit({"f.txt": b"a\nb\nc\n"}, "text")
        builder.commit({"f.txt": b"a\nB\nc\n"}, "edit")
        builder.commit({"f.txt": b"\x00\x01blob\x00\n"}, "binary")
        builder.commit({"f.txt": b"x\ny\nz\nw\n"}, "text again")
        builder.commit({"f.txt": b"x\ny\nZ\nw\n"}, "edit line 3")
        hashes = builder.finish()

        replayer = HistoryReplayer()
        replayer.run(iter(repo_log_events(builder.path)))
        assert "f.txt" not in replayer.states
        reason = replayer.aborted["f.txt"]
        assert reason == f"binary diff in commit {hashes[2]}"

    def test_out_of_order_hunk_aborts_the_file(self):
        """A parse-time order abort reaches the replayer: the file is dropped
        with the header's byte offset, other files replay on."""
        bad = b"@@ -1 +1 @@\n-a\n+A\n"
        stream = (COMMIT1
                  + b"diff --git a/f b/f\n--- /dev/null\n+++ b/f\n@@ -0,0 +1,3 @@\n+a\n+b\n+c\n"
                  + b"diff --git a/g b/g\n--- /dev/null\n+++ b/g\n@@ -0,0 +1 @@\n+p\n"
                  + COMMIT2
                  + b"diff --git a/f b/f\n--- a/f\n+++ b/f\n@@ -3 +3 @@\n-c\n+C\n" + bad
                  + b"diff --git a/g b/g\n--- a/g\n+++ b/g\n@@ -1 +1 @@\n-p\n+q\n")
        replayer = HistoryReplayer()
        replayer.run(parse_log_stream([stream]))
        assert "f" not in replayer.states
        assert f"(byte offset {stream.index(bad)}," in replayer.aborted["f"]
        assert "end of the previous hunk" in replayer.aborted["f"]
        assert [ln.content for ln in replayer.states["g"].file_lines] == [b"q"]

    def test_type_change_replays(self):
        """A file that becomes a symlink is two file diffs of one path in one
        commit, a deletion then an addition; each is placed on its own."""
        stream = (COMMIT1
                  + b"diff --git a/f b/f\nnew file mode 100644\n--- /dev/null\n+++ b/f\n"
                  + b"@@ -0,0 +1,3 @@\n+a\n+b\n+c\n"
                  + COMMIT2
                  + b"diff --git a/f b/f\ndeleted file mode 100644\n--- a/f\n+++ /dev/null\n"
                  + b"@@ -1,3 +0,0 @@\n-a\n-b\n-c\n"
                  + b"diff --git a/f b/f\nnew file mode 120000\n--- /dev/null\n+++ b/f\n"
                  + b"@@ -0,0 +1 @@\n+target\n\\ No newline at end of file\n")
        replayer = HistoryReplayer()
        replayer.run(parse_log_stream([stream]))
        assert not replayer.aborted
        state = replayer.states["f"]
        assert snapshot_bytes(state) == b"target"
        assert (state.births_total, state.deaths_total) == (4, 3)

    def test_aborts_are_contained(self, caplog):
        events = [
            CommitStart(make_commit(1)),
            FileStart("good", "good"),
            HunkEvent(hunk(0, 0, 1, 1, "+", [b"ok"])),
            FileStart("broken", "broken"),
            HunkEvent(hunk(5, 2, 5, 2, "--++", [b"w", b"x", b"y", b"z"])),
            CommitStart(make_commit(2)),
            FileStart("good", "good"),
            HunkEvent(hunk(1, 1, 1, 1, "-+", [b"ok", b"ok2"])),
        ]
        replayer = HistoryReplayer()
        caplog.set_level(logging.DEBUG)
        replayer.run(iter(events))
        assert replayer.aborted == {
            "broken": "hunk @@ -5,2 +5,2 @@ reaches line 6 but only 0 live lines "
                      f"(commit {make_commit(1).hash})"}
        assert caplog.records == []  # the pipeline reports aborts of the files it selected
        assert replayer.states["good"].file_lines[0].content == b"ok2"

    def test_rename_carries_an_earlier_abort(self):
        """A file aborted under one name stays aborted under the next: its
        later hunks are not replayed from an empty state."""
        events = [
            CommitStart(make_commit(1)),
            FileStart("x", "x"),
            HunkEvent(hunk(5, 1, 5, 1, "-+", [b"a", b"b"])),
            CommitStart(make_commit(2)),
            FileStart("x", "y"),
            HunkEvent(hunk(0, 0, 1, 1, "+", [b"new"])),
        ]
        replayer = HistoryReplayer()
        replayer.run(iter(events))
        assert replayer.aborted == {
            "y": "hunk @@ -5,1 +5,1 @@ reaches line 5 but only 0 live lines "
                 f"(commit {make_commit(1).hash})"}
        assert replayer.states == {}

    def test_out_of_bounds_reason_names_the_commit(self):
        """The path is the key already: the reason says which commit's hunk
        ran past the file, and never repeats a non-UTF-8 name undisplayed."""
        stream = (COMMIT1 + b"diff --git a/h\xf6t.cfg b/h\xf6t.cfg\n--- a/h\xf6t.cfg\n"
                  + b"+++ b/h\xf6t.cfg\n@@ -5 +5 @@\n-old\n+new\n")
        replayer = HistoryReplayer()
        replayer.run(parse_log_stream([stream]))
        assert replayer.aborted == {"h\udcf6t.cfg": "hunk @@ -5,1 +5,1 @@ reaches line 5 but "
                                                    "only 0 live lines (commit aaaa1111)"}

    def test_hunk_before_any_commit_raises(self):
        replayer = HistoryReplayer()
        with pytest.raises(ValueError, match="before any commit"):
            replayer.run(iter([HunkEvent(hunk(0, 0, 1, 1, "+", [b"a"]))]))


def test_snapshot_matches_checkout_on_random_repo(tmp_path):
    """Spot check of the snapshot oracle (the full one is acceptance)."""
    repo = tmp_path / "r"
    hashes, paths = build_random_repo(repo, seed=11, n_commits=15)
    replayer = HistoryReplayer()
    reader = BlobReader(repo)
    events = repo_log_events(repo)
    for header in replay_by_commit(replayer, events):
        for path, state in replayer.states.items():
            expected = reader.read(header.hash, path)
            if expected is None:
                assert snapshot_bytes(state) == b""
            else:
                assert snapshot_bytes(state) == expected, (header.hash, path)
    reader.close()
    assert not replayer.aborted


def test_blame_oracle_ignores_the_users_diff_config(tmp_path, monkeypatch):
    """Under a user config that diffs with histogram and no indent heuristic,
    the blame oracle still names the last commits the replay does, for a
    file whose lines repeat (seed 0 of 60 such histories; 12 disagree with
    a blame that reads the config)."""
    config = tmp_path / "gitconfig"
    config.write_text("[diff]\n\talgorithm = histogram\n\tindentHeuristic = false\n")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    rng = random.Random(0)
    builder = RepoBuilder(tmp_path / "r")
    lines: list[bytes] = []
    for _ in range(8):
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice([b"a", b"b", b"", b"c", b"}"]))
        builder.commit({"f": b"\n".join(lines) + b"\n"})
    builder.finish()
    replayer = HistoryReplayer()
    replayer.run(iter(repo_log_events(builder.path)))
    assert ([ln.history[-1].hash for ln in replayer.states["f"].file_lines]
            == blame_commits(builder.path, "f"))


def test_move_semantics_death_and_rebirth(tmp_path):
    """Relocating an unmodified block yields deaths plus fresh births."""
    block = [f"moved block line {i}".encode() for i in range(5)]
    filler = [f"filler {i} {'x' * 20}".encode() for i in range(12)]
    before = filler[:6] + block + filler[6:]
    after = filler + block  # block relocated to the end, untouched
    builder = RepoBuilder(tmp_path / "r")
    ts1 = builder.commit({"f.txt": b"\n".join(before) + b"\n"}, "c1")
    ts2 = builder.commit({"f.txt": b"\n".join(after) + b"\n"}, "c2")
    builder.finish()

    replayer = HistoryReplayer()
    commits = replay_by_commit(replayer, repo_log_events(builder.path))
    next(commits)
    state = replayer.states["f.txt"]
    kept = list(state.file_lines)
    next(commits)
    assert next(commits, None) is None

    live = {id(ln) for ln in state.file_lines}
    dead = [ln for ln in kept if id(ln) not in live]
    assert sorted(ln.content for ln in dead) == sorted(block)
    assert len(dead) == 5
    fresh = [ln for ln in state.file_lines
             if ln.history[0].committer_timestamp == ts2 and len(ln.history) == 1]
    assert sorted(ln.content for ln in fresh) == sorted(block)
    assert snapshot_bytes(state) == b"\n".join(after) + b"\n"
