"""Per-layer tracing around the functions ``linechurn.pipeline`` calls.

The wrappers replace names in the pipeline module's namespace, so the
program itself is unchanged.  Each wrapped call, and each step of a wrapped
iterator, is a frame on a per-thread stack; a frame's self time is its
duration minus the frames it encloses.  Spans -- one per call or per
stream -- keep name, start, end, parent, run id, self time and counts in
memory and are written out once the run has ended.

Stage-2 files are replayed on a thread pool, so frames of different threads
overlap in wall time.  ``layer_times`` shares each instant equally among
the top-level frames active at that instant, which makes the per-layer
times plus ``pipeline.self_s`` add up to the traced ``analyze_repo`` time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from pathlib import Path

clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "run_id", "thread", "start", "end", "self_s", "counts",
                 "hashes")

    def __init__(self, span_id, name, parent, run_id):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.run_id = run_id
        self.thread = threading.get_ident()
        self.start = self.end = None
        self.self_s = 0.0
        self.counts: Counter = Counter()
        self.hashes: set[str] = set()

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "run_id": self.run_id,
                "thread": self.thread, "start": self.start, "end": self.end,
                "self_s": self.self_s, "counts": dict(self.counts)}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        # (start, end, {span name: self time}) of every frame that had no
        # enclosing frame in its thread
        self.top_frames: list[tuple[float, float, dict]] = []
        self.analyze_span: Span | None = None  # the analyze_repo call, timed by the caller
        self.absent: list[str] = []
        self.timed: list[str] = []  # time metrics of the installed wrappers
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1][0].id if stack else (self.analyze_span.id if self.analyze_span else None)
        span = Span(next(self._ids), name, parent, self.run_id)
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> None:
        stack = self._stack()
        now = clock()
        if span.start is None:
            span.start = now
        stack.append([span, now, 0.0, stack[-1][3] if stack else {}])

    def exit(self) -> None:
        now = clock()
        stack = self._stack()
        span, start, child, breakdown = stack.pop()
        duration = now - start
        own = duration - child
        span.self_s += own
        span.end = now
        breakdown[span.name] = breakdown.get(span.name, 0.0) + own
        if stack:
            stack[-1][2] += duration
        else:
            self.top_frames.append((start, now, breakdown))

    def call(self, fn, name, after=None):
        """Wrap ``fn`` as one frame; ``after(span, args, result)`` adds counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(span, args, result)
            return result
        return wrapper

    def stream(self, iterable, name, on_item=None):
        """Iterate ``iterable`` with one frame per step, in one span."""
        it = iter(iterable)
        span = None
        while True:
            if span is None:
                span = self.open(name)
            self.enter(span)
            try:
                item = next(it)
                if on_item is not None:
                    on_item(span, item)
            except StopIteration:
                return
            finally:
                self.exit()
            yield item

    def lines(self, lines, name):
        """Time spent blocked on git's output: one frame per line read."""
        it = iter(lines)
        span = None
        stack = self._stack()
        while True:
            start = clock()
            line = next(it, None)
            now = clock()
            if span is None:
                span = self.open(name)
                span.start = start
            waited = now - start
            span.self_s += waited
            span.end = now
            if stack:
                frame = stack[-1]
                frame[2] += waited
                frame[3][name] = frame[3].get(name, 0.0) + waited
            else:
                self.top_frames.append((start, now, {name: waited}))
            if line is None:
                return
            span.counts["bytes"] += len(line)
            yield line


def install(tracer: Tracer, pipeline, diffstream) -> None:
    """Replace the names ``pipeline`` calls with traced wrappers.

    A name the pipeline no longer has is recorded in ``tracer.absent`` and
    its metrics are left out of the report.
    """
    commit_start = getattr(diffstream, "CommitStart", None)
    file_start = getattr(diffstream, "FileStart", None)
    hunk_event = getattr(diffstream, "HunkEvent", None)

    def name_status_item(span, event):
        if isinstance(event, file_start):
            span.counts["records"] += 1

    def patch_item(span, event):
        counts = span.counts
        if isinstance(event, hunk_event):
            counts["hunks"] += 1
            counts["hunk_lines"] += len(event.hunk.lines)
            counts["commit_hunks"] += 1
            if counts["commit_hunks"] > counts["max_commit_hunks"]:
                counts["max_commit_hunks"] = counts["commit_hunks"]
        elif isinstance(event, commit_start):
            counts["commits"] += 1
            counts["commit_hunks"] = 0
            span.hashes.add(event.header.hash)

    def parser(fn, name, wait_name, on_item):
        @functools.wraps(fn)
        def wrapper(lines, *args, **kwargs):
            return tracer.stream(fn(tracer.lines(lines, wait_name), *args, **kwargs), name, on_item)
        return wrapper

    def replayer(cls):
        class TracedReplayer(cls):
            def run(self, events):
                span = tracer.open("tracker.replay_s")
                tracer.enter(span)
                try:
                    return super().run(events)
                finally:
                    tracer.exit()
                    _replay_counts(span, self)
        TracedReplayer.__name__ = cls.__name__
        return TracedReplayer

    def classified(span, args, result):
        history = args[0].history
        span.counts["lines"] += 1
        span.counts["pairs"] += len(history) - 1
        span.counts["max_history"] = len(history)

    def aggregated(span, args, result):
        span.counts["commits"] += len(args[0])

    def emitted(span, args, result):
        span.counts["bytes"] += sum(Path(p).stat().st_size for p in result)

    wrappers = {
        "parse_name_status_stream": lambda fn: parser(
            fn, "diffstream.name_status_s", "git.stage1_wait_s", name_status_item),
        "parse_log_stream": lambda fn: parser(
            fn, "diffstream.patch_parse_s", "git.stage2_wait_s", patch_item),
        "count_file_commits": lambda fn: tracer.call(fn, "churn.count_s"),
        "select_hotspot_lines": lambda fn: tracer.call(fn, "churn.select_lines_s"),
        "HistoryReplayer": replayer,
        "finalize": lambda fn: tracer.call(fn, "tracker.finalize_s"),
        "classify_history": lambda fn: tracer.call(fn, "taxonomy.classify_s", classified),
        "aggregate_committers": lambda fn: _materialized(tracer.call(fn, "bots.s", aggregated)),
        "flag_bot": lambda fn: tracer.call(fn, "bots.s"),
        "bot_share": lambda fn: tracer.call(fn, "bots.s"),
        "emit_reports": lambda fn: tracer.call(fn, "pipeline.emit_s", emitted),
    }
    timed = {"parse_name_status_stream": ["diffstream.name_status_s", "git.stage1_wait_s"],
             "parse_log_stream": ["diffstream.patch_parse_s", "git.stage2_wait_s"],
             "count_file_commits": ["churn.count_s"],
             "select_hotspot_lines": ["churn.select_lines_s"],
             "HistoryReplayer": ["tracker.replay_s"],
             "finalize": ["tracker.finalize_s"],
             "classify_history": ["taxonomy.classify_s"],
             "aggregate_committers": ["bots.s"],
             "emit_reports": ["pipeline.emit_s"]}
    for attr, wrap in wrappers.items():
        if hasattr(pipeline, attr):
            setattr(pipeline, attr, wrap(getattr(pipeline, attr)))
            tracer.timed += timed.get(attr, [])
        else:
            tracer.absent.append(attr)


def _materialized(wrapper):
    """Pass the first argument as a list, so its length can be counted."""
    @functools.wraps(wrapper)
    def call(first, *args, **kwargs):
        return wrapper(list(first), *args, **kwargs)
    return call


def _replay_counts(span: Span, replayer) -> None:
    counts = span.counts
    counts["aborted_files"] += len(getattr(replayer, "aborted", ()))
    for state in getattr(replayer, "states", {}).values():
        for attr, key in (("births_total", "births"), ("deaths_total", "deaths")):
            if hasattr(state, attr):
                counts[key] += getattr(state, attr)
        dead = getattr(state, "dead_lines", ())
        counts["dead_lines_retained"] += len(dead)
        counts["pairs"] += sum(len(line.history) - 1 for line in [*state.file_lines, *dead])


def layer_times(tracer: Tracer) -> dict[str, float]:
    """Wall time per layer, plus ``pipeline.self_s``; sums to the analyze span.

    Each instant covered by top-level frames is shared equally among the
    frames active at that instant, and each frame's share is split over
    layers in proportion to the self times inside it.  Time no frame covers
    is ``pipeline.self_s``: the analyze span minus the union of its children.
    """
    points = sorted({t for start, end, _ in tracer.top_frames for t in (start, end)})
    share = [0.0] * len(tracer.top_frames)
    covered = 0.0
    for a, b in zip(points, points[1:]):
        active = [i for i, (start, end, _) in enumerate(tracer.top_frames) if start <= a and end >= b]
        if active:
            covered += b - a
            for i in active:
                share[i] += (b - a) / len(active)
    out: dict[str, float] = {}
    for (start, end, breakdown), part in zip(tracer.top_frames, share):
        if end > start:
            for name, own in breakdown.items():
                out[name] = out.get(name, 0.0) + own * part / (end - start)
    root = tracer.analyze_span
    out["pipeline.self_s"] = (root.end - root.start) - covered
    return out


def summarize(tracer: Tracer, times: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced call, given its ``layer_times``."""
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name, key):
        return sum(s.counts[key] for s in by_name.get(name, ()))

    out = {name: 0.0 for name in tracer.timed}
    out.update(times)
    out["trace.analyze_s"] = tracer.analyze_span.end - tracer.analyze_span.start
    if "parse_name_status_stream" not in tracer.absent:
        out["git.stage1_bytes"] = total("git.stage1_wait_s", "bytes")
        out["diffstream.name_status_records"] = total("diffstream.name_status_s", "records")
    if "parse_log_stream" not in tracer.absent:
        parse = by_name.get("diffstream.patch_parse_s", [])
        out["git.stage2_walks"] = len(parse)
        out["git.stage2_bytes"] = total("git.stage2_wait_s", "bytes")
        out["git.stage2_commits_read"] = total("diffstream.patch_parse_s", "commits")
        out["git.stage2_commits_distinct"] = len(set().union(*(s.hashes for s in parse)))
        hunks = total("diffstream.patch_parse_s", "hunks")
        out["diffstream.hunks"] = hunks
        out["diffstream.hunk_lines"] = total("diffstream.patch_parse_s", "hunk_lines")
        out["tracker.max_hunks_per_commit"] = max(
            (s.counts["max_commit_hunks"] for s in parse), default=0)
        if times.get("diffstream.patch_parse_s"):
            out["diffstream.hunks_per_s"] = hunks / times["diffstream.patch_parse_s"]
        if times.get("tracker.replay_s"):
            out["tracker.hunks_per_s"] = hunks / times["tracker.replay_s"]
    if "HistoryReplayer" not in tracer.absent:
        replays = by_name.get("tracker.replay_s", [])
        for key in ("pairs", "births", "deaths", "dead_lines_retained", "aborted_files"):
            if not replays or any(key in s.counts for s in replays):
                out[f"tracker.{key}"] = total("tracker.replay_s", key)
    if "classify_history" not in tracer.absent:
        classify = by_name.get("taxonomy.classify_s", [])
        out["taxonomy.lines"] = total("taxonomy.classify_s", "lines")
        out["taxonomy.pairs"] = total("taxonomy.classify_s", "pairs")
        out["taxonomy.max_history"] = max((s.counts["max_history"] for s in classify), default=0)
    if "aggregate_committers" not in tracer.absent:
        out["bots.commits"] = total("bots.s", "commits")
    if "emit_reports" not in tracer.absent:
        out["pipeline.emit_bytes"] = total("pipeline.emit_s", "bytes")
    return out
