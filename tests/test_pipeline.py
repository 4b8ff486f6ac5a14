"""End-to-end pipeline and CLI behaviour on generated fixture repositories."""

from __future__ import annotations

import csv
import gc
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linechurn
import linechurn.cli as cli
import linechurn.diffstream as diffstream
import linechurn.pipeline as pipeline
import linechurn.selector as selector
from linechurn.churn import HotspotThresholds
from linechurn.diffstream import log_command
from linechurn.pipeline import AnalysisConfig, GitUnavailable, RepoNotFound, analyze_repo
from linechurn.selector import RepoMeta

from conftest import blame_commits, run_fresh
from oracles import read_line_report
from repogen import build_hotspot_repo, build_multi_hotspot_repo, run_git


@pytest.fixture(scope="module")
def hotspot_repo(tmp_path_factory):
    return build_hotspot_repo(tmp_path_factory.mktemp("fixture") / "repo")


@pytest.fixture(scope="module")
def analyzed(hotspot_repo, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    config = AnalysisConfig(repo_path=hotspot_repo["path"], output_dir=out)
    manifest = analyze_repo(config)
    return hotspot_repo, out, manifest


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestAnalyzeRepo:
    def test_manifest_counts(self, analyzed):
        fixture, out, manifest = analyzed
        counts = manifest.stage_counts
        assert counts["commits_scanned"] == 40
        assert counts["hotspot_files"] == 1
        assert counts["files_tracked"] == 1
        assert counts["hotspot_lines"] >= 1
        assert counts["files_total"] == fixture["n_files"]
        assert manifest.aborted == {}

    def test_expected_artifacts_present(self, analyzed):
        _, out, _ = analyzed
        for name in ["file_churn.csv", "labels.csv", "summary_stats.csv",
                     "committers.csv", "bot_share.csv", "saturation.csv",
                     "summary.json", "manifest.json"]:
            assert (out / name).exists(), name
        assert list((out / "line_reports").glob("*.csv"))

    def test_hotspot_file_flagged_in_churn_csv(self, analyzed):
        fixture, out, _ = analyzed
        rows = {r["path"]: r for r in read_csv(out / "file_churn.csv")}
        assert rows[fixture["hot_file"]]["is_hotspot_file"] == "true"
        assert rows[fixture["hot_file"]]["category"] == "administrative"
        assert rows["src/app.py"]["is_hotspot_file"] == "false"
        assert int(rows[fixture["hot_file"]]["commit_touch_count"]) == \
            fixture["hot_line_mods"] + 1

    def test_hotspot_line_labeled_pinned_bump(self, analyzed):
        fixture, out, _ = analyzed
        rows = read_csv(out / "labels.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["path"] == fixture["hot_file"]
        assert int(row["line_number"]) == fixture["hot_line_number"]
        assert row["label"] == "pinned-version-bump"
        assert row["category"] == "configuration-management"
        assert row["heuristic"] == "true"
        assert row["confidence"] == "1.0"

    def test_line_report_mod_count(self, analyzed):
        fixture, out, _ = analyzed
        report = next((out / "line_reports").glob("*.csv"))
        rows = read_csv(report)
        hot_row = rows[fixture["hot_line_number"] - 1]
        assert int(hot_row["mod_count"]) == fixture["hot_line_mods"]
        assert len(hot_row["commit_hashes"].split("|")) == fixture["hot_line_mods"] + 1

    def test_bot_attribution(self, analyzed):
        fixture, out, _ = analyzed
        committers = read_csv(out / "committers.csv")
        bots = [r for r in committers if r["is_bot"] == "true"]
        assert [b["name"] for b in bots] == ["dep-updater[bot]"]
        assert int(bots[0]["commit_count"]) == fixture["bot_bumps"]

        shares = {r["pattern"]: r for r in read_csv(out / "bot_share.csv")}
        share = shares["pinned-version-bump"]
        assert int(share["bot_commits"]) == fixture["bot_bumps"]
        # Line birth commit plus human bumps: 1 + 15 humans.
        assert int(share["human_commits"]) == fixture["hot_line_mods"] // 2 + 1

    def test_summary_document_keys(self, analyzed):
        fixture, out, _ = analyzed
        summary = json.loads((out / "summary.json").read_text("utf-8"))
        assert {"hotspot_file_fraction", "bot_commit_share", "labels"} <= set(summary)
        assert summary["labels"] == {"pinned-version-bump": 1}
        assert summary["hotspot_file_fraction"] == pytest.approx(1 / fixture["n_files"])

    def test_summary_stats_metric_rows(self, analyzed):
        _, out, _ = analyzed
        metrics = [r["metric"] for r in read_csv(out / "summary_stats.csv")]
        assert "hotspot_lines_per_file" in metrics
        assert "lifespan_years" in metrics
        assert "lifespan_days" in metrics
        assert "modification_count" in metrics

    def test_saturation_csv_shape(self, analyzed):
        _, out, _ = analyzed
        rows = read_csv(out / "saturation.csv")
        assert rows and rows[0]["k"] == "1"
        assert rows[-1]["s_obs"] == "1"

    def test_deterministic_outputs(self, hotspot_repo, tmp_path):
        outputs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            analyze_repo(AnalysisConfig(repo_path=hotspot_repo["path"], output_dir=out))
            outputs.append(out)
        first, second = outputs
        files1 = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            if rel.name == "manifest.json":
                continue  # timestamps differ by design
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel

    @pytest.mark.parametrize("where", ["subdirectory", "bare clone"])
    def test_repo_inside_a_work_tree_or_bare(self, where, analyzed, tmp_path):
        """Stage 1 prints paths from the top of the work tree, and stage 2's
        pathspecs must be read from there too, wherever ``repo_path`` is."""
        fixture, root_out, _ = analyzed
        repo = fixture["path"] / "sub"  # fast-import checks out no files: make a directory
        repo.mkdir(exist_ok=True)
        if where == "bare clone":
            repo = tmp_path / "bare.git"
            run_git(tmp_path, "clone", "--quiet", "--bare", str(fixture["path"]), str(repo))
        out = tmp_path / "out"
        manifest = analyze_repo(AnalysisConfig(repo_path=repo, output_dir=out))
        assert manifest.aborted == {}
        artifacts = [{p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*"))
                      if p.is_file() and p.name != "manifest.json"} for d in (root_out, out)]
        assert len(artifacts[0]) >= 7
        assert artifacts[1] == artifacts[0]

    def test_file_sample_caps_tracking(self, hotspot_repo, tmp_path):
        config = AnalysisConfig(repo_path=hotspot_repo["path"],
                                output_dir=tmp_path / "sampled",
                                file_sample=0)
        manifest = analyze_repo(config)
        assert manifest.stage_counts["files_selected_for_tracking"] == 0
        assert manifest.stage_counts["files_tracked"] == 0

    def test_reused_out_holds_only_this_runs_line_reports(self, hotspot_repo, tmp_path):
        out = tmp_path / "out"
        analyze_repo(AnalysisConfig(repo_path=hotspot_repo["path"], output_dir=out))
        assert len(list((out / "line_reports").iterdir())) == 1  # hot.cfg's
        analyze_repo(AnalysisConfig(repo_path=hotspot_repo["path"], output_dir=out,
                                    file_sample=0))
        assert json.loads((out / "summary.json").read_text("utf-8"))["n_tracked_files"] == 0
        assert list((out / "line_reports").iterdir()) == []

    def test_labels_override(self, hotspot_repo, tmp_path):
        override = tmp_path / "override.csv"
        override.write_text(
            "path,line_number,label\nhot.cfg,2,metadata-change\n", "utf-8")
        config = AnalysisConfig(repo_path=hotspot_repo["path"],
                                output_dir=tmp_path / "ovr",
                                labels_override=override)
        analyze_repo(config)
        rows = read_csv(tmp_path / "ovr" / "labels.csv")
        assert rows[0]["label"] == "metadata-change"
        assert rows[0]["heuristic"] == "false"

    def test_repo_not_found(self, tmp_path):
        with pytest.raises(RepoNotFound):
            analyze_repo(AnalysisConfig(repo_path=tmp_path / "nope",
                                        output_dir=tmp_path / "out"))

    def test_empty_repo_rejected(self, tmp_path):
        import subprocess
        repo = tmp_path / "empty"
        repo.mkdir()
        subprocess.run(["git", "init", "-q", repo], check=True)
        with pytest.raises(RepoNotFound):
            analyze_repo(AnalysisConfig(repo_path=repo, output_dir=tmp_path / "out"))

    def test_log_without_commits_rejected(self, hotspot_repo, tmp_path, monkeypatch):
        def no_output(repo, cmd, notes):  # a walk that prints nothing
            yield from ()

        monkeypatch.setattr(pipeline, "_git_lines", no_output)
        with pytest.raises(RepoNotFound, match="log produced no commits"):
            analyze_repo(AnalysisConfig(repo_path=hotspot_repo["path"],
                                        output_dir=tmp_path / "out"))

    def test_higher_sigma_threshold_excludes_hotspot(self, hotspot_repo, tmp_path):
        config = AnalysisConfig(
            repo_path=hotspot_repo["path"], output_dir=tmp_path / "strict",
            thresholds=HotspotThresholds(sigma_multiplier=40.0),
        )
        manifest = analyze_repo(config)
        assert manifest.stage_counts["hotspot_files"] == 0
        assert manifest.stage_counts["files_tracked"] == 0


def test_commit_share_counts_each_commit_once(tmp_path):
    """A commit that edits hotspot lines of two patterns is one commit overall.

    Line 2 of hot.cfg is a version bumped in 34 commits, alternating between
    a human and the bot; line 3 is a timestamp the bot changes in each of
    its 17 bumps.  The human initial import is the birth of both lines.
    """
    from repogen import BOT, RepoBuilder

    builder = RepoBuilder(tmp_path / "repo")
    hot = [b"[package]", b'version = "1.0.0"', b'built = "2017-07-14 00:00:00"'] + [
        f"option_{i} = {i}".encode() for i in range(57)]
    quiet = {f"src/quiet_{i:02d}.py": f"QUIET = {i}\n".encode() for i in range(15)}
    builder.commit({"hot.cfg": b"\n".join(hot) + b"\n", **quiet}, "initial import")
    for k in range(1, 35):
        hot[1] = f'version = "1.0.{k}"'.encode()
        if k % 2 == 0:
            hot[2] = f'built = "2017-07-14 {k:02d}:00:00"'.encode()
        builder.commit({"hot.cfg": b"\n".join(hot) + b"\n"}, f"bump {k}",
                       identity=BOT if k % 2 == 0 else None)
    builder.finish()
    out = tmp_path / "out"
    analyze_repo(AnalysisConfig(repo_path=builder.path, output_dir=out))

    labels = [(r["line_number"], r["label"]) for r in read_csv(out / "labels.csv")]
    assert labels == [("2", "pinned-version-bump"), ("3", "metadata-change")]
    shares = {r["pattern"]: (int(r["bot_commits"]), int(r["human_commits"]))
              for r in read_csv(out / "bot_share.csv")}
    assert shares == {"pinned-version-bump": (17, 18), "metadata-change": (17, 1)}
    summary = json.loads((out / "summary.json").read_text("utf-8"))
    assert summary["bot_commit_share"] == 17 / 35  # a sum over the rows gives 34/53
    assert summary["bot_edit_share"] == 34 / 51


def git_log_runs(monkeypatch) -> list[list[str]]:
    """Record every ``git log`` command the pipeline starts."""
    runs: list[list[str]] = []
    real = pipeline._git_lines

    def counting(repo, cmd, notes):
        if "log" in cmd:
            runs.append(cmd)
        return real(repo, cmd, notes)

    monkeypatch.setattr(pipeline, "_git_lines", counting)
    return runs


class TestSharedWalk:
    """Stage 2 replays every selected file in one walk."""

    @pytest.fixture(scope="class")
    def multi(self, tmp_path_factory):
        return build_multi_hotspot_repo(tmp_path_factory.mktemp("multi") / "repo")

    def test_one_walk_for_all_files(self, multi, tmp_path, monkeypatch):
        runs = git_log_runs(monkeypatch)
        manifest = analyze_repo(AnalysisConfig(repo_path=multi["path"], output_dir=tmp_path))
        assert len(runs) == 2
        # conf/ holds only the hot files and the renamed file's old name, so
        # its directory stands for them all.
        assert runs[1][runs[1].index("--") + 1:] == ["conf"]
        assert manifest.aborted == {}
        assert manifest.stage_counts["files_tracked"] == len(multi["hot_files"]) == 3

        reports = {}
        for path, lines in multi["lines"].items():
            rows = read_line_report(tmp_path / "line_reports" / pipeline._safe_report_name(path))
            checkout = subprocess.run(["git", "show", f"HEAD:{path}"], cwd=multi["path"],
                                      capture_output=True, check=True).stdout
            assert [r.content for r in rows] == checkout.splitlines(), path
            assert [(r.content, r.mod_count) for r in rows] == lines, path
            assert [r.history[-1][0] for r in rows] == blame_commits(multi["path"], path), path
            reports[path] = rows

        copy_target, edited_line = multi["copy"]
        assert reports[copy_target][edited_line - 1].mod_count == 0

    def test_covering_directory_gives_the_exact_walk(self, multi, tmp_path, monkeypatch):
        """Stage 2 names conf/ instead of its four files; git prints the same
        bytes, and every artifact is the same as under the exact list."""
        walks: list[tuple[list[str] | None, bytearray]] = []
        real = pipeline._git_lines

        def recording(repo, cmd, notes):
            printed = bytearray()
            walks.append((cmd[cmd.index("--") + 1:] if "-p" in cmd else None, printed))
            for chunk in real(repo, cmd, notes):
                printed += chunk
                yield chunk

        monkeypatch.setattr(pipeline, "_git_lines", recording)
        artifacts, counts = [], []
        for name, cover in (("cover", pipeline.pathspec_cover),
                            ("exact", lambda paths, named: sorted(paths))):
            monkeypatch.setattr(pipeline, "pathspec_cover", cover)
            out = tmp_path / name
            manifest = analyze_repo(AnalysisConfig(repo_path=multi["path"], output_dir=out))
            assert manifest.aborted == {}
            counts.append(manifest.stage_counts["stage2_pathspecs"])
            artifacts.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                              if p.is_file() and p.name != "manifest.json"})
        stage2 = [(specs, printed) for specs, printed in walks if specs is not None]
        assert [specs for specs, _ in stage2] == [
            ["conf"], ["conf/a.cfg", "conf/b.cfg", "conf/c.cfg", "conf/old.cfg"]]
        assert counts == [1, 4]
        assert stage2[0][1] == stage2[1][1]
        assert len(artifacts[0]) >= 7
        assert artifacts[0] == artifacts[1]

    def test_no_walk_without_selected_files(self, multi, tmp_path, monkeypatch):
        runs = git_log_runs(monkeypatch)
        manifest = analyze_repo(AnalysisConfig(repo_path=multi["path"], output_dir=tmp_path,
                                               file_sample=0))
        assert len(runs) == 1
        assert manifest.stage_counts["files_tracked"] == 0


def matched(specs, path: str) -> bool:
    """Whether a literal pathspec in ``specs`` matches ``path``: the path
    itself or one below it, compared by path component."""
    parts = path.split("/")
    return any(parts[:len(spec.split("/"))] == spec.split("/") for spec in specs)


# "a" and "ab" share a string prefix but no component.
PATH = st.lists(st.sampled_from(["a", "ab", "b", "sp ace", "x:y"]), min_size=1,
                max_size=3).map("/".join)


@settings(max_examples=300, deadline=None)
@given(st.sets(PATH, max_size=6), st.sets(PATH, max_size=12))
@example({"a"}, {"a/b"})  # a file whose name later became a directory
@example({"a/b"}, {"a"})  # the reverse: a/ holds a path the list does not match
@example({"a/b/sp ace", "a/x:y"}, {"ab/b"})  # a string prefix of a/, not a path in it
@example({"a/b/x:y", "a/b/sp ace"}, {"a/ab"})  # nested: a/b/ but not a/
def test_pathspec_cover_matches_what_the_exact_list_matches(exact, others):
    """Every named path is matched by the cover exactly when the exact list
    matches it, and the cover is never longer and never the root."""
    named = exact | others
    cover = pipeline.pathspec_cover(exact, named)
    for path in named:
        assert matched(cover, path) == matched(exact, path), path
    assert len(cover) <= len(exact)
    assert cover == sorted(set(cover)) and "" not in cover


@pytest.mark.parametrize("exact, named, cover", [
    ({"conf/a", "conf/b"}, {"conf/a", "conf/b", "src/c"}, ["conf"]),
    ({"conf/a"}, {"conf/a", "conf/b"}, ["conf/a"]),
    ({"d/e/f", "d/g"}, {"d/e/f", "d/g", "d/e/h"}, ["d/e/f", "d/g"]),
    ({"d/e/f", "d/g"}, {"d/e/f", "d/g", "h"}, ["d"]),
    ({"top.cfg", "x/y"}, {"top.cfg", "x/y", "other"}, ["top.cfg", "x"]),
    (set(), {"a/b"}, []),
])
def test_pathspec_cover_cases(exact, named, cover):
    assert pipeline.pathspec_cover(exact, named) == cover


def test_reused_name_keeps_the_exact_pathspecs(tmp_path, monkeypatch):
    """hot/z.cfg is renamed to hot/x.cfg, x.cfg is deleted, and hot/y.cfg is
    renamed to x.cfg.  Stage 1's counts and chains no longer hold z.cfg, but
    it lies under hot/ and the exact list does not match it, so stage 2 names
    the files: a walk of hot/ would pair z.cfg's rename and then replay
    x.cfg's edits onto a file it never saw born."""
    from repogen import RepoBuilder

    builder = RepoBuilder(tmp_path / "repo")
    lines = {"z": [f"zed_{i} = {i}".encode() for i in range(15)],
             "y": [f"why_{i} = {i}".encode() for i in range(15)]}

    def text(name: str) -> bytes:
        return b"\n".join(lines[name]) + b"\n"

    quiet = {f"src/quiet_{i:02d}.py": f"QUIET = {i}\n".encode() for i in range(50)}
    builder.commit({**quiet, "hot/z.cfg": text("z")}, "initial import")
    for k in range(1, 6):
        lines["z"][1] = f"zed_1 = {k}".encode()
        builder.commit({"hot/z.cfg": text("z")}, f"z edit {k}")
    builder.commit({"hot/z.cfg": None, "hot/x.cfg": text("z")}, "rename z to x")
    for k in range(1, 6):
        lines["z"][1] = f"zed_1 = x{k}".encode()
        builder.commit({"hot/x.cfg": text("z")}, f"x edit {k}")
    builder.commit({"hot/x.cfg": None}, "delete x")
    builder.commit({"hot/y.cfg": text("y")}, "add y")
    for k in range(1, 6):
        lines["y"][2] = f"why_2 = {k}".encode()
        builder.commit({"hot/y.cfg": text("y")}, f"y edit {k}")
    builder.commit({"hot/y.cfg": None, "hot/x.cfg": text("y")}, "rename y to x")
    for k in range(1, 36):
        lines["y"][2] = f"why_2 = x{k}".encode()
        builder.commit({"hot/x.cfg": text("y")}, f"x edit {k}")
    builder.finish()

    runs = git_log_runs(monkeypatch)
    out = tmp_path / "out"
    manifest = analyze_repo(AnalysisConfig(repo_path=builder.path, output_dir=out))
    assert runs[1][runs[1].index("--") + 1:] == ["hot/x.cfg", "hot/y.cfg"]
    assert manifest.aborted == {}
    assert manifest.stage_counts["files_tracked"] == 1
    report = read_line_report(out / "line_reports" / pipeline._safe_report_name("hot/x.cfg"))
    assert [r.content for r in report] == run_git(builder.path, "show", "HEAD:hot/x.cfg").stdout.splitlines()
    assert report[2].mod_count == 40



def test_unselected_reused_name_is_not_reported(tmp_path, monkeypatch, capsys):
    """hot/a.cfg is renamed to the hot file hot/b.cfg, and a new, binary
    hot/a.cfg is added later.  Stage 2 names hot/a.cfg for b.cfg's rename
    chain, so the replayer also sees, and aborts, the new file; nobody
    selected it, so the run neither reports it nor fails on it."""
    from repogen import RepoBuilder

    builder = RepoBuilder(tmp_path / "repo")
    lines = [f"key_{i} = {i}".encode() for i in range(15)]

    def text() -> bytes:
        return b"\n".join(lines) + b"\n"

    quiet = {f"src/quiet_{i:02d}.py": f"QUIET = {i}\n".encode() for i in range(50)}
    builder.commit({**quiet, "hot/a.cfg": text()}, "initial import")
    for k in range(1, 5):
        lines[1] = f"key_1 = a{k}".encode()
        builder.commit({"hot/a.cfg": text()}, f"a edit {k}")
    builder.commit({"hot/a.cfg": None, "hot/b.cfg": text()}, "rename a to b")
    for k in range(1, 40):
        lines[1] = f"key_1 = b{k}".encode()
        builder.commit({"hot/b.cfg": text()}, f"b edit {k}")
    builder.commit({"hot/a.cfg": b"\x00\x01 binary\n"}, "new binary a")
    builder.finish()

    runs = git_log_runs(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--repo", str(builder.path), "--out", str(out)]) == 0
    assert runs[1][runs[1].index("--") + 1:] == ["hot"]
    assert "hot/a.cfg" not in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["aborted"] == {}
    assert manifest["stage_counts"]["files_tracked"] == 1
    assert json.loads((out / "summary.json").read_text())["aborted_files"] == []
    report = read_line_report(out / "line_reports" / pipeline._safe_report_name("hot/b.cfg"))
    assert report[1].mod_count == 43

def test_user_git_config_changes_no_artifact(tmp_path, monkeypatch):
    """A global gitconfig that reshapes diffs and logs leaves every artifact as is."""
    clean = tmp_path / "clean.gitconfig"
    clean.write_text("")
    attributes = tmp_path / "attributes"
    attributes.write_text("* diff=tc\n")
    hostile = tmp_path / "hostile.gitconfig"
    hostile.write_text("[diff]\n\tnoprefix = true\n\talgorithm = histogram\n"
                       "\tmnemonicPrefix = true\n\tcontext = 10\n\tinterHunkContext = 10\n"
                       "\trenames = copies\n"
                       "[log]\n\tshowSignature = true\n\tshowRoot = false\n"
                       "[i18n]\n\tlogOutputEncoding = ISO-8859-1\n"
                       # every file binary, every line rewritten, a 1 GiB delta cache
                       "[core]\n\tbigFileThreshold = 10\n"
                       f"\tattributesFile = {attributes}\n\tdeltaBaseCacheLimit = 1g\n"
                       '[diff "tc"]\n\ttextconv = sed s/^/X/\n\tbinary = true\n'
                       # for the driver a repository's own .gitattributes names
                       '[diff "conv"]\n\ttextconv = sed s/^/Y/\n')

    def build_non_ascii_committer_repo(path: Path) -> dict:
        """A hot file that a committer with a non-ASCII name bumps in turns,
        and that the repository's attributes give a diff driver."""
        from repogen import RepoBuilder

        builder = RepoBuilder(path)
        lines = [f"key_{i} = {i}".encode() for i in range(15)]
        edits = {f"src/quiet_{i:02d}.py": f"QUIET = {i}\n".encode() for i in range(20)}
        builder.commit({**edits, ".gitattributes": b"hot.cfg diff=conv\n",
                        "hot.cfg": b"\n".join(lines) + b"\n"}, "initial import")
        for k in range(1, 31):
            lines[1] = f"key_1 = v{k}".encode()
            builder.commit({"hot.cfg": b"\n".join(lines) + b"\n"}, f"bump {k}",
                           identity=("J\u00fcrgen M\u00fcller", "jm@example.org") if k % 2 else None)
        builder.finish()
        run_git(path, "reset", "-q", "--hard")  # git reads .gitattributes from the work tree
        return {"path": path}

    for build in (build_hotspot_repo, build_multi_hotspot_repo, build_non_ascii_committer_repo):
        fixture = build(tmp_path / build.__name__ / "repo")
        artifacts, gits = [], []
        for config in (clean, hostile):
            monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
            if config is hostile:  # git refuses it beside --literal-pathspecs
                monkeypatch.setenv("GIT_ICASE_PATHSPECS", "1")
            out = tmp_path / build.__name__ / config.stem
            manifest = analyze_repo(AnalysisConfig(repo_path=fixture["path"], output_dir=out))
            assert manifest.aborted == {}
            artifacts.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                              if p.is_file() and p.name != "manifest.json"})
            gits.append(manifest.git)
        assert len(artifacts[0]) >= 7
        assert artifacts[0] == artifacts[1], build.__name__
        assert gits[0] == gits[1]  # the manifest records no user setting
    assert "J\u00fcrgen M\u00fcller,jm@example.org,15" in artifacts[0][Path("committers.csv")].decode()


def test_merged_side_branch_stays_out_of_line_histories(tmp_path, monkeypatch):
    """A --no-ff merge of a side branch that edits the hotspot file counts as
    one first-parent change; no side-branch commit enters a line history."""
    fixture = build_hotspot_repo(tmp_path / "repo")
    repo, hot = fixture["path"], fixture["hot_file"]
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)  # no user merge or signing policy
    for var in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{var}_NAME", "Ada Example")
        monkeypatch.setenv(f"GIT_{var}_EMAIL", "ada@example.org")
    clock = iter(range(1_500_200_000, 1_500_300_000, 3600))

    def commit(message: str) -> str:
        stamp = f"@{next(clock)} +0000"
        monkeypatch.setenv("GIT_AUTHOR_DATE", stamp)
        monkeypatch.setenv("GIT_COMMITTER_DATE", stamp)
        run_git(repo, "commit", "-q", "-am", message)
        return run_git(repo, "rev-parse", "HEAD").stdout.decode().strip()

    def edit(old: bytes, new: bytes) -> None:
        path = repo / hot
        path.write_bytes(path.read_bytes().replace(old, new))

    run_git(repo, "checkout", "-q", "-f", "main")
    run_git(repo, "checkout", "-q", "-b", "side")
    side = []
    edit(b"option_3 = 3\n", b"option_3 = side\n")
    side.append(commit("side edit 1"))
    edit(b"option_9 = 9\n", b"option_9 = side\noption_9b = side\n")
    side.append(commit("side edit 2"))
    run_git(repo, "checkout", "-q", "main")
    edit(b"option_12 = 12\n", b"option_12 = main\n")
    commit("main edit")
    monkeypatch.setenv("GIT_COMMITTER_DATE", f"@{next(clock)} +0000")
    run_git(repo, "merge", "-q", "--no-ff", "-m", "merge side", "side")
    merge = run_git(repo, "rev-parse", "HEAD").stdout.decode().strip()
    edit(b"option_3 = side\n", b"option_3 = after merge\n")
    commit("edit after merge")

    out = tmp_path / "out"
    manifest = analyze_repo(AnalysisConfig(repo_path=repo, output_dir=out))
    assert manifest.aborted == {}
    assert manifest.stage_counts["files_tracked"] == 1
    rows = read_line_report(out / "line_reports" / pipeline._safe_report_name(hot))
    checkout = run_git(repo, "show", f"HEAD:{hot}").stdout
    assert [r.content for r in rows] == checkout.splitlines()
    assert [r.history[-1][0] for r in rows] == blame_commits(repo, hot)
    histories = {h for r in rows for h, _ in r.history}
    assert merge in histories
    assert histories.isdisjoint(side)


def test_consumer_error_surfaces_alone(tmp_path, monkeypatch):
    """A consumer that stops a long walk by raising sees its own exception;
    git's exit on the closed pipe is no error and reaches no hook."""
    from repogen import RepoBuilder

    builder = RepoBuilder(tmp_path / "r")
    builder.commit({"big.txt": b"".join(b"line %d of a long file\n" % i
                                        for i in range(200_000))}, "big")
    builder.finish()
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    lines = pipeline._git_lines(builder.path, log_command("HEAD", file_paths=["big.txt"]), [])
    with pytest.raises(KeyError, match="consumer"):
        for i, _ in enumerate(lines):
            if i == 10:
                raise KeyError("consumer")
    del lines
    gc.collect()
    assert unraisable == []


def test_git_reads_no_system_attributes(tmp_path, monkeypatch):
    """A system-wide attributes file could mark files binary or give them a
    textconv; git is told to skip it whatever the environment says."""
    monkeypatch.setenv("GIT_ATTR_NOSYSTEM", "0")
    printed = b"".join(pipeline._git_lines(
        tmp_path, [sys.executable, "-c", "import os; print(os.environ['GIT_ATTR_NOSYSTEM'])"],
        []))
    assert printed == b"1\n"


def test_git_failure_raises_with_stderr(scratch_repo):
    repo, _ = scratch_repo
    with pytest.raises(RuntimeError, match="unknown revision"):
        list(pipeline._git_lines(repo, ["git", "log", "no-such-branch"], []))


@pytest.mark.parametrize("stage", [1, 2])
def test_git_failure_exits_without_traceback(stage, hotspot_repo, tmp_path, monkeypatch, capsys):
    """A git log that fails ends in exit 1 for the whole-history pass and in
    exit 2, with every selected file aborted, for the tracking walk.  The
    reasons name git's error, not the walk's pathspecs."""
    real = pipeline.log_command
    fixture = hotspot_repo if stage == 1 else build_multi_hotspot_repo(tmp_path / "multi")

    def failing(rev, file_paths=None, **kwargs):
        cmd = real(rev, file_paths, **kwargs)
        if (file_paths is None) == (stage == 1):
            cmd.insert(cmd.index("log") + 1, "--no-such-option")
        return cmd

    monkeypatch.setattr(pipeline, "log_command", failing)
    out = tmp_path / "out"
    code = cli.main(["analyze", "--repo", str(fixture["path"]), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if stage == 1:
        assert code == 1
        assert err.startswith("error: ") and "unrecognized argument: --no-such-option" in err
        assert not (out / "manifest.json").exists()
    else:
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        selected = sorted(fixture["hot_files"])
        assert sorted(manifest["aborted"]) == selected
        for reason in manifest["aborted"].values():
            assert reason.startswith("stage-2 log: ")
            assert reason.endswith("fatal: unrecognized argument: --no-such-option")
            assert not any(path in reason for path in [*selected, *fixture["renamed"]])
            assert " -- <1 paths> failed (" in reason  # conf/: 3 hot files and one earlier name
        assert manifest["stage_counts"]["files_tracked"] == 0


def test_quoted_paths_keep_their_names(tmp_path):
    """Paths git C-quotes in text output, or would read as pathspec magic
    or a glob, keep their names: all appear verbatim in file_churn.csv, and
    the hot ones are replayed to their checkouts."""
    from repogen import RepoBuilder

    hot = ['we"ird.txt', ":hot.cfg", "hot[1].cfg", "conf b/hot.cfg"]
    others = ["back\\slash.txt", "tab\tname.txt", "hot1.cfg"]  # hot1.cfg: what hot[1] globs
    builder = RepoBuilder(tmp_path / "repo")
    lines = [f"key_{i} = {i}".encode() for i in range(10)]
    edits = {**{name: b"\n".join(lines) + b"\n" for name in hot + others[-1:]},
             **{name: b"x\n" for name in others[:-1]}}
    edits.update({f"src/quiet_{i:02d}.py": f"QUIET = {i}\n".encode() for i in range(50)})
    builder.commit(edits, "initial import")
    for k in range(1, 35):
        lines[1] = f"key_1 = v{k}".encode()
        edits = {name: b"\n".join(lines) + b"\n" for name in hot}
        if k % 5 == 0:  # a different edit, so its patches cannot pass for hot[1].cfg's
            edits["hot1.cfg"] = b"\n".join(lines[:k // 5]) + b"\n"
        builder.commit(edits, f"bump {k}")
    builder.finish()

    out = tmp_path / "out"
    manifest = analyze_repo(AnalysisConfig(repo_path=builder.path, output_dir=out))
    assert manifest.aborted == {}
    rows = {r["path"]: r for r in read_csv(out / "file_churn.csv")}
    assert {*hot, *others} <= set(rows)
    assert [rows[name]["is_hotspot_file"] for name in hot + others] == ["true"] * len(hot) + ["false"] * 3
    assert manifest.stage_counts["files_tracked"] == len(hot)
    for name in hot:
        report = read_line_report(out / "line_reports" / pipeline._safe_report_name(name))
        checkout = run_git(builder.path, "show", f"HEAD:{name}").stdout
        assert [r.content for r in report] == checkout.splitlines(), name
        assert report[1].mod_count == 34, name


def test_git_stderr_and_rename_limit_in_manifest(tmp_path, monkeypatch):
    """Renames beyond the pinned limit go undetected, and git's warning about
    it reaches the manifest."""
    from repogen import RepoBuilder

    builder = RepoBuilder(tmp_path / "repo")
    texts = {name: b"".join(b"%s line %d\n" % (name.encode(), i) for i in range(8))
             for name in ("p.txt", "q.txt")}
    builder.commit(texts, "add")
    builder.commit({"p.txt": None, "q.txt": None,
                    "p2.txt": texts["p.txt"] + b"more\n", "q2.txt": texts["q.txt"] + b"more\n"},
                   "two inexact renames")
    builder.finish()

    def warnings_at(limit: int) -> list[str]:
        monkeypatch.setattr(diffstream, "RENAME_LIMIT", limit)
        out = tmp_path / f"limit{limit}"
        analyze_repo(AnalysisConfig(repo_path=builder.path, output_dir=out))
        return json.loads((out / "manifest.json").read_text())["warnings"]

    assert not any("rename" in w for w in warnings_at(diffstream.RENAME_LIMIT))
    assert any(w.startswith("git: ") and "rename detection was skipped" in w
               for w in warnings_at(1))



# Filtered here: under the suite's error filter the foreign warning would be
# raised in its own thread instead of reaching the warnings machinery.
@pytest.mark.filterwarnings("ignore:raised by another thread")
def test_other_threads_warnings_stay_out_of_the_manifest(hotspot_repo, tmp_path, monkeypatch):
    """A library user may run analyses on several threads; a warning another
    thread raises while stage 1 runs is not one of this run's notes."""
    count = pipeline.count_file_commits

    def count_while_another_thread_warns(commits):
        other = threading.Thread(
            target=warnings.warn, args=("raised by another thread", DeprecationWarning))
        other.start()
        other.join()
        return count(commits)

    monkeypatch.setattr(pipeline, "count_file_commits", count_while_another_thread_warns)
    manifest = analyze_repo(AnalysisConfig(repo_path=hotspot_repo["path"], output_dir=tmp_path))
    assert manifest.warnings == []
    assert json.loads((tmp_path / "manifest.json").read_text())["warnings"] == []


def test_uniform_counts_noted_in_the_manifest(tmp_path):
    """Every file touched the same number of times: the sigma filter cannot
    select a file, which the manifest notes, and no Python warning is raised."""
    from repogen import RepoBuilder

    builder = RepoBuilder(tmp_path / "repo")
    builder.commit({"a.txt": b"alpha\n", "b.txt": b"beta\n"}, "add a and b")
    builder.commit({"c.txt": b"gamma\n"}, "add c")
    builder.finish()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        manifest = analyze_repo(AnalysisConfig(repo_path=builder.path, output_dir=tmp_path / "out"))
    assert caught == []
    assert manifest.warnings == [
        "all files share one modification count; sigma filter selects nothing"]
    assert manifest.stage_counts["hotspot_files"] == 0


def test_both_walks_read_the_recorded_head(tmp_path, monkeypatch):
    """A commit made between the two walks is in no line report: stage 2
    reads the commit stage 1 read, the one the manifest records."""
    fixture = build_hotspot_repo(tmp_path / "repo")
    count = pipeline.count_file_commits
    late: list[str] = []

    def count_then_commit(commits):
        result = count(commits)
        edit = b'[package]\nversion = "9.9.9"\n'
        stream = (b"commit refs/heads/main\ncommitter Late <late@example.org> 1900000000 +0000\n"
                  b"data 4\nlate\nfrom refs/heads/main^0\n"
                  b"M 100644 inline hot.cfg\ndata %d\n%s\ndone\n" % (len(edit), edit))
        subprocess.run(["git", "fast-import", "--quiet", "--done"], cwd=fixture["path"],
                       input=stream, check=True)
        late.append(run_git(fixture["path"], "rev-parse", "HEAD").stdout.decode().strip())
        return result

    monkeypatch.setattr(pipeline, "count_file_commits", count_then_commit)
    out = tmp_path / "out"
    manifest = analyze_repo(AnalysisConfig(repo_path=fixture["path"], output_dir=out))
    assert late and late[0] != fixture["hashes"][-1]
    assert manifest.repo_head == fixture["hashes"][-1]
    assert manifest.stage_counts["files_tracked"] == 1
    report = read_line_report(out / "line_reports" / pipeline._safe_report_name("hot.cfg"))
    assert len(report) == 15
    assert report[1].history[-1][0] == fixture["hashes"][-6]
    assert late[0] not in {commit for row in report for commit, _ in row.history}


def test_file_named_like_the_head_commit(tmp_path):
    """The walks name HEAD's hash; a file of that name at the top of the
    work tree is not mistaken for it."""
    fixture = build_hotspot_repo(tmp_path / "repo")
    (fixture["path"] / fixture["hashes"][-1]).write_text("untracked\n")
    manifest = analyze_repo(AnalysisConfig(repo_path=fixture["path"], output_dir=tmp_path / "out"))
    assert manifest.stage_counts["files_tracked"] == 1

def corrupting_git_lines(monkeypatch, path: str) -> list[int]:
    """Make the stage-2 walk's last hunk header of ``path`` unparseable.

    Returns a list that receives the corrupted header's byte offset.
    """
    real = pipeline._git_lines
    offsets: list[int] = []

    def corrupted(repo, cmd, notes):
        data = b"".join(real(repo, cmd, notes))
        if "-p" in cmd:
            diff = data.rindex(b"diff --git a/%s b/%s\n" % (path.encode(), path.encode()))
            at = data.index(b"\n@@ ", diff) + 1
            data = data[:at] + b"@@ -x" + data[at + 4:]
            offsets.append(at)
        yield from (data[k:k + 4099] for k in range(0, len(data), 4099))

    monkeypatch.setattr(pipeline, "_git_lines", corrupted)
    return offsets


class TestMalformedPatch:
    """A malformed hunk in one file's patch aborts that file alone."""

    @pytest.fixture(scope="class")
    def multi(self, tmp_path_factory):
        fixture = build_multi_hotspot_repo(tmp_path_factory.mktemp("multi") / "repo")
        clean = tmp_path_factory.mktemp("clean")
        analyze_repo(AnalysisConfig(repo_path=fixture["path"], output_dir=clean))
        return fixture, clean

    def test_other_files_unchanged(self, multi, tmp_path, monkeypatch):
        fixture, clean = multi
        offsets = corrupting_git_lines(monkeypatch, "conf/a.cfg")
        manifest = analyze_repo(AnalysisConfig(repo_path=fixture["path"], output_dir=tmp_path))
        assert list(manifest.aborted) == ["conf/a.cfg"]
        assert "unparseable hunk header" in manifest.aborted["conf/a.cfg"]
        assert f"byte offset {offsets[0]}," in manifest.aborted["conf/a.cfg"]
        assert manifest.stage_counts["files_tracked"] == 2
        for path in ("conf/b.cfg", "conf/c.cfg"):
            name = pipeline._safe_report_name(path)
            assert (tmp_path / "line_reports" / name).read_bytes() == \
                (clean / "line_reports" / name).read_bytes(), path

    def test_error_outside_file_diffs_aborts_every_file(self, multi, tmp_path, monkeypatch):
        fixture, _ = multi
        real = pipeline._git_lines
        walk_ended = []

        def corrupted(repo, cmd, notes):
            data = b"".join(real(repo, cmd, notes))
            if "-p" in cmd:  # the last commit's hash is no longer hexadecimal
                at = data.rindex(b"\ncommit ") + len(b"\ncommit ")
                data = data[:at] + b"zz" + data[at:]
            try:
                yield data
            finally:
                walk_ended.append("-p" in cmd)

        # Stage 3 starts only after the walk that failed has been ended.
        aggregate = pipeline.aggregate_committers
        ended_before_stage3 = []
        monkeypatch.setattr(pipeline, "aggregate_committers",
                            lambda *a: ended_before_stage3.append(list(walk_ended)) or aggregate(*a))
        monkeypatch.setattr(pipeline, "_git_lines", corrupted)
        manifest = analyze_repo(AnalysisConfig(repo_path=fixture["path"], output_dir=tmp_path))
        assert ended_before_stage3 == [[False, True]]
        assert sorted(manifest.aborted) == fixture["hot_files"]
        for reason in manifest.aborted.values():
            assert reason.startswith("stage-2 log: commit hash is not hexadecimal (byte offset")
        assert manifest.stage_counts["files_tracked"] == 0

    def test_cli_exits_two(self, multi, tmp_path, monkeypatch, capsys):
        fixture, _ = multi
        corrupting_git_lines(monkeypatch, "conf/a.cfg")
        code = cli.main(["analyze", "--repo", str(fixture["path"]), "--out", str(tmp_path)])
        assert code == 2
        assert "conf/a.cfg: " in capsys.readouterr().err


def aborting_replayer(path: str, reason: str):
    """A stage-2 replayer that aborts ``path`` after an otherwise real replay."""

    class AbortingReplayer(pipeline.HistoryReplayer):
        def run(self, events):
            super().run(events)
            self.states.pop(path, None)
            self.aborted[path] = reason

    return AbortingReplayer


class TestCrashContainment:
    def test_aborted_file_reported_not_fatal(self, hotspot_repo, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "HistoryReplayer",
                            aborting_replayer("hot.cfg", "synthetic hunk out of bounds"))
        config = AnalysisConfig(repo_path=hotspot_repo["path"],
                                output_dir=tmp_path / "aborted")
        manifest = analyze_repo(config)
        assert manifest.aborted == {"hot.cfg": "synthetic hunk out of bounds"}
        assert manifest.stage_counts["files_tracked"] == 0
        assert (tmp_path / "aborted" / "manifest.json").exists()


    def test_selected_file_without_patches_is_aborted(self, hotspot_repo, tmp_path,
                                                      monkeypatch, capsys):
        real = pipeline.parse_log_stream

        def without_hot_file(chunks):  # drops hot.cfg's FileStart and its hunks
            dropping = False
            for event in real(chunks):
                if isinstance(event, (diffstream.CommitStart, diffstream.FileStart)):
                    dropping = (isinstance(event, diffstream.FileStart)
                                and event.new_path == "hot.cfg")
                if not dropping:
                    yield event

        monkeypatch.setattr(pipeline, "parse_log_stream", without_hot_file)
        out = tmp_path / "dropped"
        code = cli.main(["analyze", "--repo", str(hotspot_repo["path"]), "--out", str(out)])
        assert code == 2
        assert "partial failure" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["aborted"] == {"hot.cfg": "no patch for this path in the stage-2 walk"}
        assert manifest["stage_counts"]["files_tracked"] == 0


class TestCli:
    def test_version(self, capsys):
        assert cli.main(["version"]) == 0
        assert "linechurn" in capsys.readouterr().out

    def test_analyze_success_exit_zero(self, hotspot_repo, tmp_path, capsys):
        code = cli.main(["analyze", "--repo", str(hotspot_repo["path"]),
                         "--out", str(tmp_path / "cliout")])
        captured = capsys.readouterr()
        assert code == 0
        assert "hotspot files: 1" in captured.out
        assert "\x1b[" not in captured.out  # not a tty: no colour codes

    def test_analyze_missing_repo_exit_one(self, tmp_path, capsys):
        code = cli.main(["analyze", "--repo", str(tmp_path / "missing"),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("repo, reason", [("missing", "does not exist"),
                                              ("plain", "is not a git repository"),
                                              ("empty", "has no commits")])
    def test_fatal_repo_error_leaves_no_output(self, repo, reason, tmp_path, capsys):
        (tmp_path / "plain").mkdir()
        subprocess.run(["git", "init", "-q", tmp_path / "empty"], check=True)
        out = tmp_path / "o" / "p"
        code = cli.main(["analyze", "--repo", str(tmp_path / repo), "--out", str(out)])
        assert code == 1
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("git, reason", [
        (None, "git executable not found on PATH"),
        ("#!/bin/sh\necho hi\n", "git executable not found on PATH"),  # not executable
        ("#!/bin/sh\necho broken >&2\nexit 3\n", "git --version failed (3): broken"),
        ("#!/bin/sh\n", "git --version failed (0): no output"),
    ], ids=["missing", "not-executable", "failing", "silent"])
    def test_unusable_git_exit_one(self, git, reason, hotspot_repo, tmp_path, monkeypatch,
                                   capsys):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        if git is not None:
            (bin_dir / "git").write_text(git)
            (bin_dir / "git").chmod(0o644 if "hi" in git else 0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        out = tmp_path / "o"
        code = cli.main(["analyze", "--repo", str(hotspot_repo["path"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert reason in err
        assert not out.exists()
        with pytest.raises(GitUnavailable, match=re.escape(reason)):
            analyze_repo(AnalysisConfig(repo_path=hotspot_repo["path"], output_dir=out))
        assert not out.exists()

    def test_analyze_repo_is_a_file_exit_one(self, tmp_path, capsys):
        (tmp_path / "repo").write_text("not a repository\n")
        code = cli.main(["analyze", "--repo", str(tmp_path / "repo"),
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "is not a directory" in err

    def test_line_reports_not_a_directory_exit_one(self, hotspot_repo, tmp_path, monkeypatch,
                                                   capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "line_reports").write_text("")
        runs = git_log_runs(monkeypatch)
        code = cli.main(["analyze", "--repo", str(hotspot_repo["path"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "line_reports" in err
        assert runs == []  # no git walk ran

    def test_unwritable_output_exit_one(self, hotspot_repo, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["analyze", "--repo", str(hotspot_repo["path"]), "--out", str(out)]
        assert cli.main(args) == 0
        (out / "labels.csv").unlink()
        (out / "labels.csv").mkdir()
        capsys.readouterr()
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: output directory") and "Traceback" not in err
        assert not (out / "manifest.json").exists()  # the first run's is gone too

    def test_history_without_file_changes_exit_one(self, tmp_path, monkeypatch, capsys):
        from repogen import RepoBuilder

        builder = RepoBuilder(tmp_path / "repo")
        builder.commit({}, "empty 1")
        builder.commit({}, "empty 2")
        builder.finish()
        runs = git_log_runs(monkeypatch)
        code = cli.main(["analyze", "--repo", str(builder.path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "no commits that change a file" in err
        assert len(runs) == 1 and "--name-status" in runs[0]  # no stage-2 walk

    def test_analyze_partial_failure_exit_two(self, hotspot_repo, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "HistoryReplayer", aborting_replayer("hot.cfg", "boom"))
        code = cli.main(["analyze", "--repo", str(hotspot_repo["path"]),
                         "--out", str(tmp_path / "o2")])
        assert code == 2
        assert "partial failure" in capsys.readouterr().err

    @pytest.mark.parametrize("tty", ["stdout", "stderr"])
    def test_partial_failure_colour_follows_its_stream(self, tty, hotspot_repo, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setattr(pipeline, "HistoryReplayer", aborting_replayer("hot.cfg", "boom"))
        monkeypatch.setattr(getattr(sys, tty), "isatty", lambda: True)
        code = cli.main(["analyze", "--repo", str(hotspot_repo["path"]),
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        coloured = "\x1b[33mpartial failure: 1 file(s) aborted\x1b[0m"
        assert (coloured in err) == (tty == "stderr")
        assert "partial failure: 1 file(s) aborted" in err

    def test_select_with_stubbed_client(self, tmp_path, monkeypatch, capsys):
        calls = {}

        class FakeClient:
            def __init__(self, **kwargs):
                calls["init"] = kwargs

            def fetch_repo_meta(self, name, now=None):
                i = ["o/a", "o/b", "o/c"].index(name)
                return RepoMeta(name, stars=20 + 200 * i, forks=0, total_commits=12_000,
                                created_at=1_500_000_000, half_year_commit_buckets=(1, 1))

        monkeypatch.setattr(selector, "MetadataClient", FakeClient)
        out_file = tmp_path / "sel.csv"
        code = cli.main(["select", "o/a", "o/b", "o/c",
                         "--per-stratum", "2", "--seed", "3",
                         "--out", str(out_file)])
        assert code == 0
        rows = read_csv(out_file)
        assert {r["owner_and_name"] for r in rows} <= {"o/a", "o/b", "o/c"}
        assert len(rows) == 3  # two strata, populations under quota
        assert calls["init"]["api_base"] == selector.DEFAULT_API_BASE

    def test_select_requires_candidates(self, capsys):
        assert cli.main(["select", "--per-stratum", "2"]) == 1
        assert "no candidate" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        pytest.param(["--candidates-file", "missing.txt"], id="candidates-file-missing"),
        pytest.param(["--per-stratum", "0"], id="per-stratum-zero"),
        pytest.param(["--per-stratum", "-1"], id="per-stratum-negative"),
        pytest.param(["--min-commits", "0"], id="min-commits-zero"),
        pytest.param(["--min-popularity", "0"], id="min-popularity-zero"),
        pytest.param(["--out", "missing/sel.csv"], id="out-directory-missing"),
    ])
    def test_select_bad_input_exit_one(self, args, tmp_path, monkeypatch, capsys):
        requests = []

        class FakeClient:
            def __init__(self, **kwargs):
                pass

            def fetch_repo_meta(self, name, now=None):
                requests.append(name)

        monkeypatch.setattr(selector, "MetadataClient", FakeClient)
        monkeypatch.chdir(tmp_path)
        code = cli.main(["select", "o/a", "o/b", "--per-stratum", "2", *args])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert requests == []  # every input is checked before the first request

    @pytest.mark.parametrize("option, content", [
        pytest.param("--bot-config", None, id="bot-config-missing"),
        pytest.param("--bot-config", "keyword bot\n", id="bot-config-malformed"),
        pytest.param("--bot-config", "keyword=\n", id="bot-config-empty-keyword"),
        pytest.param("--labels-override", None, id="labels-missing"),
        pytest.param("--labels-override", "path,label\nhot.cfg,pinned-version-bump\n",
                     id="labels-columns"),
        pytest.param("--labels-override", "path,line_number,label\nhot.cfg,1,no-such\n",
                     id="labels-label"),
        pytest.param("--labels-override", "path,line_number,label\nhot.cfg\n",
                     id="labels-short-row"),
        pytest.param("--sigma", "0", id="sigma-zero"),
        pytest.param("--sigma", "nan", id="sigma-nan"),
        pytest.param("--sigma", "inf", id="sigma-inf"),
        pytest.param("--monthly-rate", "nan", id="monthly-rate-nan"),
        pytest.param("--file-sample", "-1", id="file-sample-negative"),
        pytest.param("--out", "input/out", id="out-below-a-file"),
    ])
    def test_analyze_bad_input_exit_one(self, option, content, hotspot_repo, tmp_path,
                                        monkeypatch, capsys):
        value = content
        if option == "--out":  # a directory that cannot be created: "input" is a file
            (tmp_path / "input").write_text("")
            value = tmp_path / content
        elif option in ("--bot-config", "--labels-override"):  # content of a file; None: none
            value = tmp_path / "input"
            if content is not None:
                value.write_text(content)
        runs = git_log_runs(monkeypatch)
        out = tmp_path / "out"
        code = cli.main(["analyze", "--repo", str(hotspot_repo["path"]), "--out", str(out),
                         option, str(value)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (out / "manifest.json").exists()
        assert runs == []  # every input is read before the first git walk


def test_analyze_imports_only_the_standard_library():
    proc = run_fresh("-c", "import sys, linechurn, linechurn.cli, linechurn.pipeline; "
                     "print(sorted({'numpy', 'requests'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("level, code", [("info", 0), ("Debug", 0), ("WARNING", 0), ("loud", 1),
                                         ("", 1)])
def test_log_level_names_in_any_case(level, code):
    proc = run_fresh("-c", "import sys, linechurn.cli; sys.exit(linechurn.cli.main(['version']))",
                     env={"LINECHURN_LOG": level})
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr.startswith("error: LINECHURN_LOG=") and not proc.stdout
    else:
        assert proc.stdout == f"linechurn {linechurn.__version__}\n"
