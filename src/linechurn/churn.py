"""File-level churn counting, the dual-filter hotspot criterion, hotspot-line
selection, and descriptive statistics.

A file qualifies as a hotspot host when its commit-touch count both exceeds
the mean by a configurable number of standard deviations and exceeds a
minimum change rate over the project lifetime; either test alone produces
too many false positives.  Hotspot lines are then the outliers of the
modification-count distribution within each hotspot file.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

SECONDS_PER_MONTH = 30.44 * 86400


class EmptyInput(ValueError):
    pass


PROGRAMMING = "programming"
ADMINISTRATIVE = "administrative"


@dataclass(frozen=True)
class ChurnSummary:
    mean: float
    stddev: float
    n_files: int


@dataclass(frozen=True)
class HotspotThresholds:
    sigma_multiplier: float = 3.0
    monthly_rate: float = 1.0  # required changes per month of project lifetime
    min_line_mods: int = 3
    population_sigma: bool = True

    def __post_init__(self) -> None:
        values = (self.sigma_multiplier, self.monthly_rate, self.min_line_mods)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise ValueError("all thresholds must be finite and strictly positive")


@dataclass(frozen=True)
class DescriptiveStats:
    metric: str
    min: float
    median: float
    mean: float
    max: float
    iqr: float


@functools.cache
def _table() -> tuple[tuple[tuple[str, str], ...], dict[str, str], dict[str, str]]:
    """The category table's basename fragments, exact basenames and extensions."""
    fragments: list[tuple[str, str]] = []
    names: dict[str, str] = {}
    extensions: dict[str, str] = {}
    text = resources.files("linechurn.data").joinpath("file_categories.txt").read_text("utf-8")
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, pattern, category = line.split("\t")
        if kind == "frag":
            fragments.append((pattern, category))
        elif kind == "name":
            names[pattern] = category
        elif kind == "ext":
            extensions[pattern] = category
    return tuple(fragments), names, extensions


def categorize_file(path: str) -> str:
    """Deterministic programming/administrative lookup for a path.

    Resolution order: basename fragments, exact basenames, extension table;
    unknown extensions (and extensionless names) are administrative.
    """
    fragments, names, extensions = _table()
    basename = path.replace("\\", "/").rsplit("/", 1)[-1].lower()
    for fragment, category in fragments:
        if fragment in basename:
            return category
    if basename in names:
        return names[basename]
    if "." in basename:
        return extensions.get("." + basename.rsplit(".", 1)[-1], ADMINISTRATIVE)
    return ADMINISTRATIVE


def count_file_commits(
    commits: Iterable[tuple[int, list[tuple[str, str]]]],
) -> tuple[dict[str, int], dict[str, list[str]], set[str], float, int]:
    """Fold a name-status walk into per-file commit counts.

    ``commits`` holds ``(committer_timestamp, [(old_path, new_path), ...])``
    per commit.  Returns the counts, the rename chains (each renamed path's
    earlier names, oldest first), every path any record names, the lifetime
    in months between the earliest and the latest commit, and the number of
    commits.  A file touched several times within one commit counts once; a
    rename moves the accumulated tally and the earlier names to the new
    path, and the rename commit itself counts as a touch.  A rename onto a
    reused name drops the earlier names from counts and chains, but never
    from the named paths.
    """
    counts: dict[str, int] = {}
    chains: dict[str, list[str]] = {}
    named: set[str] = set()
    first = last = None
    n_commits = 0
    for timestamp, changes in commits:
        n_commits += 1
        first = timestamp if first is None else min(first, timestamp)
        last = timestamp if last is None else max(last, timestamp)
        seen_this_commit: set[str] = set()
        for old, new in changes:
            named.add(old)
            named.add(new)
            if new in seen_this_commit:
                continue
            seen_this_commit.add(new)
            if old != new:
                counts[new] = counts.pop(old, 0) + 1
                chains[new] = chains.pop(old, []) + [old]
            else:
                counts[new] = counts.get(new, 0) + 1
    months = max((last - first) / SECONDS_PER_MONTH, 1e-9) if n_commits else 0.0
    return counts, chains, named, months, n_commits


def churn_summary(counts: Iterable[int], population: bool = True) -> ChurnSummary:
    """Mean and population (or sample) sigma; the sigma of one value is 0."""
    values = list(counts)
    if not values:
        raise EmptyInput("no modification counts")
    sigma = statistics.pstdev if population else statistics.stdev
    std = sigma(values) if len(values) > 1 else 0.0
    return ChurnSummary(mean=statistics.fmean(values), stddev=std, n_files=len(values))


def detect_hotspot_files(
    counts: dict[str, int],
    lifetime_months: float,
    thresholds: HotspotThresholds = HotspotThresholds(),
) -> set[str]:
    """Paths passing both hotspot-host conditions (both strictly exceeded)."""
    if not counts:
        raise EmptyInput("no files counted")
    if lifetime_months <= 0:
        raise ValueError("lifetime_months must be positive")
    summary = churn_summary(counts.values(), population=thresholds.population_sigma)
    sigma_cut = summary.mean + thresholds.sigma_multiplier * summary.stddev
    rate_cut = lifetime_months * thresholds.monthly_rate
    return {
        path
        for path, count in counts.items()
        if count > sigma_cut and count > rate_cut
    }


def select_hotspot_lines(lines: list, thresholds: HotspotThresholds = HotspotThresholds()) -> list:
    """Outlier lines of one file by modification count, as ``(number, line)`` pairs.

    A line qualifies when its mod_count strictly exceeds the sigma cutoff
    computed over this file's live lines and meets the absolute floor.  Lines
    are numbered from 1 and returned in file order.
    """
    if not lines:
        return []
    summary = churn_summary((ln.mod_count for ln in lines), thresholds.population_sigma)
    cut = summary.mean + thresholds.sigma_multiplier * summary.stddev
    return [
        (number, ln)
        for number, ln in enumerate(lines, 1)
        if ln.mod_count > cut and ln.mod_count >= thresholds.min_line_mods
    ]


def lifespan_days(line) -> float:
    """Days between a line's first and last recorded modification.

    Lifespan is defined by the recorded history itself, not by a reference
    date.
    """
    if not line.history:
        raise EmptyInput("line has no history")
    first, last = line.history[0].commit, line.history[-1].commit
    return (last.committer_timestamp - first.committer_timestamp) / 86400.0


def summarize(values: Iterable[float], metric: str = "") -> DescriptiveStats:
    """Min/median/mean/max/IQR with linearly interpolated quartiles."""
    data = sorted(map(float, values))
    if not data:
        raise EmptyInput("cannot summarize an empty list")
    return DescriptiveStats(
        metric=metric,
        min=data[0],
        median=statistics.median(data),
        mean=statistics.fmean(data),
        max=data[-1],
        iqr=_quantile(data, 0.75) - _quantile(data, 0.25),
    )


def _quantile(data: list[float], p: float) -> float:
    """Quantile ``p`` of sorted data, linearly interpolated as numpy's default
    (``statistics.quantiles`` rejects a single value before Python 3.13)."""
    lo, t = divmod((len(data) - 1) * p, 1)
    a, b = data[int(lo)], data[min(int(lo) + 1, len(data) - 1)]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)
