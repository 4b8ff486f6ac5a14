"""End-to-end analysis driver.

Stages: (1) a cheap name-status pass over the whole first-parent history
computes per-file churn, each file's rename chain and the project lifetime,
which give the dual-filter hotspot files; (2) only those files, with their
rename chains, get the expensive patch log, one walk for all of them, and
line tracking; (3) hotspot lines are selected, classified, and attributed
to bot or human committers; (4) all CSV/JSON artifacts are written, the run
manifest last, so ``--out`` holds a manifest only after a finished run; an
output that cannot be written raises BadInput.

A single file whose replay goes out of bounds, or whose patch is malformed,
is aborted and recorded; the run completes and reports partial failure
instead of dying.  A stage-2 walk that git ends with an error aborts every
selected file the same way, and so does a walk that never patches a selected
file; no other file is reported.  Both walks read the commit the manifest
records, and what git prints on stderr joins the manifest's warnings.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import logging
import random
import subprocess
import threading
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .bots import BotConfig, BotShare, aggregate_committers, bot_share, flag_bot
from .churn import (
    HotspotThresholds,
    categorize_file,
    count_file_commits,
    detect_hotspot_files,
    lifespan_days,
    select_hotspot_lines,
    summarize,
)
from .diffstream import (
    GIT_ENV,
    StreamParseError,
    log_command,
    log_environment,
    parse_log_stream,
    parse_name_status_stream,
)
from .taxonomy import PatternLabel, chao1_curve, classify_history, load_label_overrides
from .tracker import FileState, HistoryReplayer

logger = logging.getLogger(__name__)


class RepoNotFound(Exception):
    pass


class GitUnavailable(Exception):
    pass


class GitFailed(RuntimeError):
    """A git command exited non-zero; the message ends with git's stderr."""


class BadInput(ValueError):
    """An input file the config names is missing or malformed."""


@dataclass
class AnalysisConfig:
    repo_path: Path
    output_dir: Path
    thresholds: HotspotThresholds = field(default_factory=HotspotThresholds)
    bot_config: BotConfig = field(default_factory=BotConfig)
    file_sample: int | None = None
    sample_seed: int = 0
    labels_override: Path | None = None

    def __post_init__(self) -> None:
        self.repo_path = Path(self.repo_path)
        self.output_dir = Path(self.output_dir)

    def snapshot(self) -> dict:
        return {
            "repo_path": str(self.repo_path),
            "output_dir": str(self.output_dir),
            **asdict(self.thresholds),
            "file_sample": self.file_sample,
            "sample_seed": self.sample_seed,
            "labels_override": str(self.labels_override) if self.labels_override else None,
            **{f"bot_{key}": value for key, value in asdict(self.bot_config).items()},
            "history": "first-parent",  # merge side branches are excluded
        }


@dataclass
class RunManifest:
    tool_version: str
    config: dict
    repo_head: str
    started_at: str
    finished_at: str
    stage_counts: dict
    warnings: list[str]
    aborted: dict[str, str]
    git: dict  # the git that ran, and the fixed options and environment of each walk

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"


# Bytes asked of git's stdout per read.  Larger reads cost fewer calls but
# hold more lines at once in the parser.
_READ_SIZE = 256 << 10


def _git_lines(repo: Path, cmd: list[str], notes: list[str]):
    """Run a git command, streaming stdout in chunks; raise GitFailed if git fails.

    Chunks end anywhere, not at line ends.  stderr is drained on a thread,
    so git never blocks on a full stderr pipe; what git printed there on
    success is appended to ``notes``, one ``git: <line>`` per line.  A
    consumer that stops early ends git, and git's exit then is no error: the
    consumer's own exception, if any, is the one that surfaces.
    """
    proc = subprocess.Popen(cmd, cwd=repo, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=log_environment())
    assert proc.stdout is not None and proc.stderr is not None
    # A 1 MiB pipe instead of 64 KiB lets git run ahead through commits that
    # are slow to diff but short to print while the parser works through long
    # patches.  Linux only; the kernel, not this process, holds the bytes.
    with contextlib.suppress(ImportError, OSError):
        from fcntl import F_SETPIPE_SZ, fcntl
        fcntl(proc.stdout, F_SETPIPE_SZ, 1 << 20)
    stderr: list[bytes] = []
    drain = threading.Thread(target=lambda: stderr.append(proc.stderr.read()), daemon=True)
    drain.start()
    read = proc.stdout.read1
    try:
        while chunk := read(_READ_SIZE):
            yield chunk
    except BaseException:  # GeneratorExit: the consumer stopped early
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
        drain.join()
        proc.stderr.close()
    message = b"".join(stderr).decode("utf-8", "replace").strip()
    if code != 0:
        if "--" in cmd:  # name the pathspecs by number: there may be thousands
            k = cmd.index("--")
            cmd = cmd[:k + 1] + [f"<{len(cmd) - k - 1} paths>"]
        raise GitFailed(f"{' '.join(cmd)} failed ({code}): {message}")
    notes.extend(f"git: {line}" for line in message.splitlines())


def _git_version() -> str:
    """The line ``git --version`` prints; raises GitUnavailable if no git on
    PATH can be started, or if it fails or prints nothing."""
    try:
        probe = subprocess.run(["git", "--version"], capture_output=True)
    except OSError as exc:
        raise GitUnavailable(f"git executable not found on PATH ({exc.strerror})") from None
    version = probe.stdout.decode("utf-8", "replace").strip()
    if probe.returncode != 0 or not version:
        message = probe.stderr.decode("utf-8", "replace").strip() or "no output"
        raise GitUnavailable(f"git --version failed ({probe.returncode}): {message}")
    return version


def _repo_head(repo: Path) -> tuple[str, Path]:
    """HEAD's hash, and where git's printed paths and read pathspecs share a
    root: the work tree's top, or ``repo`` itself if the repository is bare."""
    if not repo.exists():
        raise RepoNotFound(f"{repo} does not exist")
    if not repo.is_dir():
        raise RepoNotFound(f"{repo} is not a directory")
    # Exits 128 outside a repository and 1 when HEAD names no commit; else
    # prints the cdup line (none in a bare repository), then HEAD's hash.
    probe = subprocess.run(["git", "rev-parse", "--show-cdup", "--verify", "-q", "HEAD"],
                           cwd=repo, capture_output=True)
    if probe.returncode == 1:
        raise RepoNotFound(f"{repo} has no commits (empty repository)")
    if probe.returncode != 0:
        raise RepoNotFound(f"{repo} is not a git repository")
    *cdup, head = probe.stdout.decode().splitlines()
    return head, repo / "".join(cdup)


def pathspec_cover(paths: Iterable[str], named: Iterable[str]) -> list[str]:
    """Literal pathspecs that match the same ``named`` paths as ``paths``.

    Each path gives way to its highest ancestor directory under which every
    named path is matched by ``paths`` itself; a path without one stays.  A
    literal pathspec matches itself and every path below it, so a walk whose
    changed paths are all named sees the same file diffs under either list.
    The cover is never longer than ``paths`` and never the repository root.
    """
    exact = set(paths)
    blocked: set[str] = set()  # each named path outside ``exact``, and its directories
    for path in named:
        above = _directories(path)
        if path not in exact and exact.isdisjoint(above):
            blocked.add(path)
            blocked.update(above)
    return sorted({next((d for d in _directories(p) if d not in blocked), p) for p in exact})


def _directories(path: str) -> list[str]:
    """The directories that hold ``path``, outermost first."""
    parts = path.split("/")
    return ["/".join(parts[:i]) for i in range(1, len(parts))]


def analyze_repo(config: AnalysisConfig) -> RunManifest:
    """Run the full pipeline and write every artifact plus the manifest."""
    started = datetime.now(timezone.utc)
    try:
        overrides = load_label_overrides(config.labels_override) if config.labels_override else {}
    except (OSError, ValueError) as exc:
        raise BadInput(f"labels override {config.labels_override}: {exc}") from None
    if config.file_sample is not None and config.file_sample < 0:
        raise BadInput(f"file sample must not be negative, got {config.file_sample}")
    git_version = _git_version()
    head, root = _repo_head(config.repo_path)  # before --out exists: no tree is left on failure
    try:
        (config.output_dir / "line_reports").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BadInput(f"output directory {config.output_dir}: {exc}") from None
    notes: list[str] = []  # the manifest's warnings
    stage1 = _git_lines(root, log_command(head, name_status=True), notes)
    with contextlib.closing(stage1) as chunks:
        counts, chains, named, lifetime_months, n_commits = count_file_commits(
            parse_name_status_stream(chunks))
    if not counts:  # no commits at all, or none that changes a file
        raise RepoNotFound(f"{root} log produced no commits that change a file")
    if len(set(counts.values())) == 1:  # sigma is 0 under either estimator
        notes.append("all files share one modification count; sigma filter selects nothing")
    categories = {path: categorize_file(path) for path in counts}
    hotspot_files = detect_hotspot_files(counts, lifetime_months, config.thresholds)

    selected_files = sorted(hotspot_files)
    if config.file_sample is not None and config.file_sample < len(selected_files):
        rng = random.Random(config.sample_seed)
        selected_files = sorted(rng.sample(selected_files, config.file_sample))

    # Stage 2: line tracking of the selected files and their rename chains,
    # in one patch walk.  Stage 1 named every changed path, so the covering
    # directories let git print the same file diffs while matching tree
    # entries against fewer pathspecs.
    tracked_paths = {p for path in selected_files for p in chains.get(path, []) + [path]}
    pathspecs = pathspec_cover(tracked_paths, named)
    replayer = HistoryReplayer()
    unreplayed = "no patch for this path in the stage-2 walk"
    if pathspecs:  # without a pathspec the walk would read every file's patches
        walk = _git_lines(root, log_command(head, file_paths=pathspecs), notes)
        try:
            with contextlib.closing(walk):  # ends git if the parser stops early
                replayer.run(parse_log_stream(walk))
        except (StreamParseError, GitFailed) as exc:  # no replay is complete
            unreplayed = f"stage-2 log: {exc}"
            replayer.states.clear()
    # A selected file is tracked or aborted, never dropped; a file nobody
    # selected that reused a rename chain's name is replayed, not reported.
    tracked, aborted = {}, {}
    for path in selected_files:
        if path in replayer.states:
            tracked[path] = replayer.states[path]
        else:
            aborted[path] = replayer.aborted.get(path, unreplayed)

    # Stage 3: one (path, line number, line, label) record per hotspot line,
    # in file order; every artifact below is derived from this list.
    hot = []
    for path, state in tracked.items():
        for line_number, line in select_hotspot_lines(state.file_lines, config.thresholds):
            override = overrides.get((path, line_number))
            if override is None:
                label = classify_history(line, categories[path], path)
            else:
                label = PatternLabel(override, heuristic=False)
            hot.append((path, line_number, line, label))

    hotspot_commits = {rev.commit.hash: rev.commit for _, _, line, _ in hot for rev in line.history}
    committers = [flag_bot(identity, config.bot_config)
                  for identity in aggregate_committers(hotspot_commits.values())]
    bots = {(identity.name, identity.email) for identity in committers if identity.is_bot}
    is_bot = {h: (c.committer_name, c.committer_email) in bots for h, c in hotspot_commits.items()}

    # Commit-level share: a commit counts once per pattern, and once overall.
    commit_patterns = {
        (rev.commit.hash, label.label.value) for _, _, line, label in hot for rev in line.history
    }
    per_pattern = bot_share((label, is_bot[h]) for h, label in commit_patterns)
    # Edit-level share: every modification event counts, under its line's
    # one pattern, so the patterns' counts sum to the overall share.  Every
    # hotspot line has at least one, so both shares name the same patterns.
    edit_share = bot_share((label.label.value, is_bot[rev.commit.hash])
                           for _, _, line, label in hot for rev in line.history[1:])

    stats = []
    if hot:
        days = [lifespan_days(line) for _, _, line, _ in hot]
        stats = [
            summarize(Counter(path for path, *_ in hot).values(), "hotspot_lines_per_file"),
            summarize(days, "lifespan_days"),
            summarize([d / 365.25 for d in days], "lifespan_years"),
            summarize([line.mod_count for _, _, line, _ in hot], "modification_count"),
        ]
    curve = chao1_curve([label.label.value for *_, label in hot]) if hot else []
    tables = [
        ("file_churn.csv", ["path", "commit_touch_count", "category", "is_hotspot_file"],
         ([path, counts[path], categories[path], str(path in hotspot_files).lower()]
          for path in sorted(counts))),
        ("labels.csv", ["path", "line_number", "label", "category", "confidence", "heuristic",
                        "diagnostics"],
         ([path, line_number, label.label.value, label.category.value, f"{label.confidence:.1f}",
           str(label.heuristic).lower(), label.diagnostics]
          for path, line_number, _, label in hot)),
        ("summary_stats.csv", ["metric", "min", "median", "mean", "max", "iqr"],
         ([s.metric] + [f"{v:.6f}" for v in (s.min, s.median, s.mean, s.max, s.iqr)]
          for s in stats)),
        ("committers.csv", ["name", "email", "commit_count", "is_bot", "match_reason"],
         ([i.name, i.email, i.commit_count, str(i.is_bot).lower(), i.match_reason or ""]
          for i in committers)),
        ("bot_share.csv", ["pattern", "bot_commits", "human_commits", "ratio", "bot_edits",
                           "human_edits", "edit_ratio"],
         ([pattern, c.bot, c.human, f"{c.ratio:.6f}", e.bot, e.human, f"{e.ratio:.6f}"]
          for pattern, c in per_pattern.items() for e in [edit_share[pattern]])),
        ("saturation.csv", ["k", "s_obs", "s_est"],
         ([k, s_obs, f"{s_est:.6f}"] for k, s_obs, s_est in curve)),
    ]
    # summary.json: the headline numbers in one machine-readable document.
    summary = {
        "n_files": len(counts),
        "n_hotspot_files": len(hotspot_files),
        "n_tracked_files": len(tracked),
        "n_hotspot_lines": len(hot),
        "hotspot_file_fraction": len(hotspot_files) / len(counts),
        "bot_commit_share": sum(is_bot.values()) / len(is_bot) if is_bot else 0.0,
        "bot_edit_share": BotShare(sum(e.bot for e in edit_share.values()),
                                   sum(e.human for e in edit_share.values())).ratio,
        "labels": dict(sorted(Counter(label.label.value for *_, label in hot).items())),
        "lifetime_months": lifetime_months,
        "aborted_files": sorted(aborted),
    }

    try:
        written = emit_reports(config.output_dir, tracked, tables, summary)
    except OSError as exc:
        raise BadInput(f"output directory {config.output_dir}: {exc}") from None
    logger.info("wrote %d artifacts to %s", len(written), config.output_dir)

    finished = datetime.now(timezone.utc)
    manifest = RunManifest(
        tool_version=__version__,
        config=config.snapshot(),
        repo_head=head,
        started_at=started.isoformat(),
        finished_at=finished.isoformat(),
        stage_counts={
            "commits_scanned": n_commits,
            "files_total": len(counts),
            "files_programming": sum(1 for c in categories.values() if c == "programming"),
            "files_administrative": sum(1 for c in categories.values() if c == "administrative"),
            "hotspot_files": len(hotspot_files),
            "files_selected_for_tracking": len(selected_files),
            "files_tracked": len(tracked),
            "stage2_pathspecs": len(pathspecs),
            "files_aborted": len(aborted),
            "hotspot_lines": len(hot),
            "hotspot_commits": len(is_bot),
        },
        warnings=notes,
        aborted=aborted,
        git={"version": git_version, "environment": dict(GIT_ENV),
             "stage1_walk": log_command(head, name_status=True), "stage2_walk": log_command(head)},
    )
    try:  # last: --out holds a manifest only after a finished run
        (config.output_dir / "manifest.json").write_text(manifest.to_json(), "utf-8")
    except OSError as exc:
        raise BadInput(f"output directory {config.output_dir}: {exc}") from None
    return manifest


def _safe_report_name(path: str) -> str:
    digest = hashlib.sha1(path.encode("utf-8", "surrogateescape")).hexdigest()[:8]
    safe = "".join(c if c.isalnum() or c in "._-" else "__" for c in path)
    return f"{safe[:120]}-{digest}.csv"


def display_text(raw: bytes) -> str:
    """Decode bytes for CSV output with raw-byte passthrough.

    Undecodable bytes become ``\\xNN`` escapes so output stays valid UTF-8
    while remaining deterministic for any input.
    """
    return raw.decode("utf-8", "backslashreplace")


LINE_REPORT_COLUMNS = ["line_number", "content", "mod_count", "birth_ts",
                       "commit_hashes", "timestamps"]


def finalize(state: FileState) -> Iterator[list]:
    """Yield one line-report row per live line, in file order; dead lines
    are excluded.  The revisions' hashes and timestamps, the birth first,
    are each ``|``-joined."""
    for number, line in enumerate(state.file_lines, 1):
        commits = [rev.commit for rev in line.history]
        yield [number, display_text(line.history[-1].content), line.mod_count,
               commits[0].committer_timestamp, "|".join(c.hash for c in commits),
               "|".join(str(c.committer_timestamp) for c in commits)]


def emit_reports(output_dir: Path, tracked: dict[str, FileState], tables: list,
                 summary: dict) -> list[Path]:
    """Write each tracked file's line report into ``output_dir/line_reports``,
    which must exist, each ``(name, header, rows)`` CSV table and
    ``summary.json``; returns the written paths.  The manifest and line
    reports of an earlier run are deleted first.  Rows are built as they are
    written."""
    (output_dir / "manifest.json").unlink(missing_ok=True)
    for stale in (output_dir / "line_reports").glob("*.csv"):
        stale.unlink()
    reports = ((Path("line_reports", _safe_report_name(path)), LINE_REPORT_COLUMNS, finalize(state))
               for path, state in tracked.items())
    written: list[Path] = []
    for name, header, rows in itertools.chain(reports, tables):
        written.append(output_dir / name)
        with open(written[-1], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    written.append(output_dir / "summary.json")
    written[-1].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", "utf-8")
    return written
