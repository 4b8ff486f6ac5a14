"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Expected values come from independent oracles: brute-force
statistics, a subprocess checkout oracle, hand-computed confusion matrices,
and reference seeded draws.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import subprocess
import time

import pytest

from linechurn.bots import CommitterIdentity, bot_share, flag_bot
from linechurn.churn import detect_hotspot_files, summarize
from linechurn.diffstream import MalformedHunkHeader, log_command, parse_log_stream
from linechurn.pipeline import AnalysisConfig, analyze_repo
from linechurn.taxonomy import (
    Chao1Input,
    PATTERN_CATEGORY,
    Pattern,
    chao1,
    classify_history,
    classify_pair,
    cohens_kappa,
)
from linechurn.tracker import HistoryReplayer

from conftest import blame_commits, repo_log_events, run_fresh
from oracles import (hunk_tallies, parse_hunk_header, render_hunk_body, replay_by_commit,
                     snapshot_bytes)
from repogen import (BlobReader, RepoBuilder, build_hotspot_repo, build_multi_hotspot_repo,
                     build_perf_repo, build_random_repo)
from test_diffstream import COMMIT1, hunk_header_bytes, random_hunk
from test_churn import brute_mean_std, brute_summary
from test_taxonomy import GOLDEN_PAIRS, STEPWISE_HISTORY, line_from_contents, pair_for


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def test_snapshot_replay_oracle(tmp_path):
    """Replay equals checkout byte-for-byte on >=50 synthetic repositories, and
    every live line's last revision is the commit first-parent git blame names."""
    with criterion("snapshot-replay-oracle"):
        started = time.monotonic()
        n_repos = 50
        checked = 0
        blamed = 0
        for seed in range(n_repos):
            rng = random.Random(1000 + seed)
            n_commits = rng.randrange(5, 41)
            repo = tmp_path / f"r{seed:02d}"
            hashes, _ = build_random_repo(repo, seed=seed, n_commits=n_commits,
                                          n_files=rng.randrange(1, 4))
            replayer = HistoryReplayer()
            reader = BlobReader(repo)
            events = iter(repo_log_events(repo))
            for header in replay_by_commit(replayer, events):
                for path, state in replayer.states.items():
                    expected = reader.read(header.hash, path)
                    actual = snapshot_bytes(state)
                    if expected is None:
                        assert actual == b"", (seed, header.hash, path)
                    else:
                        assert actual == expected, (seed, header.hash, path)
                    checked += 1
                # Conservation invariant, assertable after every commit.
                for state in replayer.states.values():
                    assert state.births_total - state.deaths_total == len(state.file_lines)
            assert not replayer.aborted, (seed, replayer.aborted)
            reader.close()
            for path, state in replayer.states.items():
                if state.file_lines:
                    assert ([ln.history[-1].commit.hash for ln in state.file_lines]
                            == blame_commits(repo, path)), (seed, path)
                    blamed += len(state.file_lines)
        elapsed = time.monotonic() - started
        assert checked > n_repos  # sanity: the loop actually compared snapshots
        assert blamed > n_repos
        assert elapsed < 120.0, f"snapshot oracle took {elapsed:.1f}s"


@pytest.mark.parametrize("placement", ["up", "down", "end"])
def test_move_semantics(tmp_path, placement):
    """Relocating an unmodified 5-line block: 5 deaths and 5 fresh births."""
    with criterion(f"move-semantics-{placement}"):
        block = [f"unique block line {i} zz{i}".encode() for i in range(5)]
        filler = [f"filler line {i} {'pad' * 4}{i}".encode() for i in range(14)]
        if placement == "up":
            before = filler[:10] + block + filler[10:]
            after = filler[:2] + block + filler[2:]
        elif placement == "down":
            before = filler[:2] + block + filler[2:]
            after = filler[:10] + block + filler[10:]
        else:
            before = filler[:4] + block + filler[4:]
            after = filler + block

        builder = RepoBuilder(tmp_path / f"mv-{placement}")
        builder.commit({"f.txt": b"\n".join(before) + b"\n"}, "c1")
        move_ts = builder.commit({"f.txt": b"\n".join(after) + b"\n"}, "c2")
        builder.finish()

        replayer = HistoryReplayer()
        commits = replay_by_commit(replayer, repo_log_events(builder.path))
        next(commits)
        state = replayer.states["f.txt"]
        kept = list(state.file_lines)
        next(commits)
        assert next(commits, None) is None
        assert snapshot_bytes(state) == b"\n".join(after) + b"\n"

        live = {id(ln) for ln in state.file_lines}
        deaths = [ln for ln in kept if id(ln) not in live]
        births = [ln for ln in state.file_lines
                  if ln.history[0].commit.committer_timestamp == move_ts
                  and len(ln.history) == 1]
        assert len(deaths) == 5, [d.history[-1].content for d in deaths]
        assert sorted(d.history[-1].content for d in deaths) == sorted(block)
        assert len(births) == 5
        assert sorted(b.history[-1].content for b in births) == sorted(block)


def test_chao1_exactness():
    with criterion("chao1-exactness"):
        assert chao1(Chao1Input(15, 2, 3)) == pytest.approx(15.6667, abs=5e-5)
        assert abs(chao1(Chao1Input(15, 2, 3)) - (15 + 2 / 3)) < 1e-9
        rng = random.Random(4)
        for _ in range(500):
            f2 = rng.randrange(0, 50)
            s_obs = f2 + rng.randrange(0, 50)
            assert chao1(Chao1Input(s_obs, 0, f2)) == float(s_obs)


def test_golden_taxonomy_fixtures():
    """Every before/after pair quoted for a pattern classifies to its label."""
    with criterion("golden-taxonomy-fixtures"):
        assert len(GOLDEN_PAIRS) >= 10
        hits = 0
        for expected, before, after, path in GOLDEN_PAIRS:
            label = classify_pair(pair_for(before, after, path))
            assert label.label is expected, (expected.value, label.label.value)
            assert label.category is PATTERN_CATEGORY[expected]
            hits += 1
        # Plus the history-level pattern, exercised through its aggregate rule.
        day = 86_400
        line = line_from_contents(
            STEPWISE_HISTORY, [0, 100 * day, 103 * day])
        history_label = classify_history(line, "programming", "app/charts.rb")
        assert history_label.label is Pattern.STEPWISE_REFACTORING
        assert hits + 1 == 15


def test_dual_filter_arithmetic():
    with criterion("dual-filter-arithmetic"):
        counts = {f"f{i}": 2 for i in range(19)}
        counts["hot"] = 100
        mean, std = brute_mean_std(list(counts.values()))
        cut = mean + 3 * std
        expected = {p for p, c in counts.items() if c > cut and c > 12.0}
        assert expected == {"hot"}  # brute-force confirmation
        assert detect_hotspot_files(counts, lifetime_months=12.0) == {"hot"}

        ten = {f"f{i}": 10 for i in range(9)}
        ten["out"] = 500
        mean10, std10 = brute_mean_std(list(ten.values()))
        assert not (500 > mean10 + 3 * std10)  # population-sigma boundary
        assert detect_hotspot_files(ten, lifetime_months=1e-6) == set()


TABLE_BOT_NAMES = [
    "skia-flutter-autoroll",
    "vercel-release-bot",
    "Electron Bot",
    "dependabot[bot]",
    "jenkins-x-bot",
    "GitHub Actions Bot / github-actions[bot]",
    "Sudowoodo Release Bot",
    "Confluent Jenkins Bot",
    "Protobuf Team Bot",
    "Netty Project Bot",
]


def test_bot_detection():
    with criterion("bot-detection"):
        for name in TABLE_BOT_NAMES:
            flagged = flag_bot(CommitterIdentity(name, "x@example.org", 1))
            assert flagged.is_bot, name
        assert not flag_bot(CommitterIdentity("Drobotov", "d@example.org", 1)).is_bot

        share = bot_share([("p", True)] * 739 + [("p", False)] * 261)
        assert abs(share["p"].ratio - 0.739) < 1e-9

        metadata = ([("metadata-change", True)] * 19 + [("metadata-change", False)])
        share = bot_share(metadata)
        assert abs(share["metadata-change"].ratio - 0.95) < 1e-9


def test_statistics_oracle():
    """summarize matches a sort-based reference on 1000 random vectors."""
    with criterion("statistics-oracle"):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randrange(1, 60)
            values = [rng.uniform(-1e4, 1e4) for _ in range(n)]
            stats = summarize(values)
            b_min, b_med, b_mean, b_max, b_iqr = brute_summary(values)
            assert abs(stats.min - b_min) < 1e-9
            assert abs(stats.median - b_med) < 1e-9
            assert abs(stats.mean - b_mean) < 1e-9
            assert abs(stats.max - b_max) < 1e-9
            assert abs(stats.iqr - b_iqr) < 1e-9


def test_parser_round_trip_fuzz():
    """>=10^4 random valid hunks re-render byte-identically; malformed
    headers always raise."""
    with criterion("parser-round-trip"):
        rng = random.Random(31337)
        for _ in range(10_000):
            hunk = random_hunk(rng)
            body = render_hunk_body(hunk)
            stream = (COMMIT1 + b"diff --git a/f b/f\n--- a/f\n+++ b/f\n"
                      + hunk_header_bytes(hunk) + body)
            events = list(parse_log_stream(iter(stream.splitlines(keepends=True))))
            parsed = events[2].hunk
            assert render_hunk_body(parsed) == body
            old, new = hunk_tallies(parsed)
            assert (old, new) == (parsed.old_count, parsed.new_count)

        for _ in range(2_000):
            mutation = rng.choice([
                b"@@ -%d +%d" % (rng.randrange(99), rng.randrange(99)),
                b"@@ -a,b +c,d @@",
                b"@@ %d,%d %d,%d @@" % tuple(rng.randrange(99) for _ in range(4)),
                b"@@-1,2 +1,2@@",
                b"@@ -1,2, +1,2 @@",
            ])
            with pytest.raises(MalformedHunkHeader):
                parse_hunk_header(mutation)


def test_kappa():
    with criterion("kappa"):
        labels_a = ["A"] * 20 + ["A"] * 5 + ["B"] * 5 + ["B"] * 20
        labels_b = ["A"] * 20 + ["B"] * 5 + ["A"] * 5 + ["B"] * 20
        result = cohens_kappa(labels_a, labels_b)
        assert abs(result.kappa - 0.6) < 1e-9
        assert cohens_kappa(["x", "y", "z"], ["x", "y", "z"]).kappa == 1.0


@pytest.fixture(scope="module")
def perf_repo(tmp_path_factory):
    path = tmp_path_factory.mktemp("perf") / "repo"
    build_perf_repo(path, n_commits=10_000, n_files=200)
    return path


def test_desk_scale_performance(perf_repo, tmp_path):
    """Full analyze of a 10,000-commit, 200-file repository in under 5 min."""
    with criterion("desk-scale-performance"):
        started = time.monotonic()
        manifest = analyze_repo(AnalysisConfig(repo_path=perf_repo,
                                               output_dir=tmp_path / "out"))
        elapsed = time.monotonic() - started
        counts = manifest.stage_counts
        assert counts["commits_scanned"] == 10_000
        assert counts["files_total"] == 200
        assert counts["hotspot_files"] == 3
        assert counts["hotspot_lines"] == 3
        assert counts["files_tracked"] == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert 0.0 < summary["bot_commit_share"] < 1.0
        assert elapsed < 300.0, f"analyze took {elapsed:.1f}s"


# Prints the peak resident set, in KiB, of the whole-history walk of the
# repository named by argv[1].  RUSAGE_CHILDREN also counts the size of the
# process that starts git, so the walk is started from a fresh interpreter.
_WALK_PEAK = """
import resource, subprocess, sys
from linechurn.diffstream import log_command, log_environment
subprocess.run(log_command("HEAD", name_status=True), cwd=sys.argv[1], env=log_environment(),
               stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_git_memory_bounded(perf_repo):
    """The whole-history walk of the desk-scale repository peaks under 48 MiB;
    git's default delta-base cache alone may take 96 MiB."""
    with criterion("git-memory-bounded"):
        walk = run_fresh("-c", _WALK_PEAK, str(perf_repo),
                         env={"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1"})
        assert walk.returncode == 0, walk.stderr
        peak_mib = int(walk.stdout) / 1024
        assert peak_mib < 48, f"the walk peaked at {peak_mib:.1f} MiB"


def test_determinism(tmp_path):
    """Identical config on an identical repo: byte-identical artifacts.

    The second fixture has several hotspot files replayed in one shared walk.
    """
    git_version = subprocess.run(["git", "--version"], capture_output=True,
                                 text=True).stdout.strip()
    with criterion("determinism"):
        for build in (build_hotspot_repo, build_multi_hotspot_repo):
            fixture = build(tmp_path / build.__name__ / "repo")
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=fixture["path"],
                                  capture_output=True, text=True, check=True).stdout.strip()
            outputs = []
            for name in ("one", "two"):
                out = tmp_path / build.__name__ / name
                analyze_repo(AnalysisConfig(repo_path=fixture["path"], output_dir=out))
                outputs.append(out)
                # the manifest names the git that ran and each walk's fixed
                # options, with the commit both walks read
                git = json.loads((out / "manifest.json").read_text())["git"]
                assert git == {"version": git_version, "environment": {"GIT_ATTR_NOSYSTEM": "1"},
                               "stage1_walk": log_command(head, name_status=True),
                               "stage2_walk": log_command(head)}
            first, second = outputs
            names1 = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
            names2 = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
            assert names1 == names2
            compared = 0
            for rel in names1:
                if rel.name == "manifest.json":
                    continue
                assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
                compared += 1
            assert compared >= 7
