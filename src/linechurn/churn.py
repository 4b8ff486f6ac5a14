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
from fractions import Fraction
from importlib import resources
from typing import Callable, Collection, Iterable

SECONDS_PER_MONTH = 30.44 * 86400


class EmptyInput(ValueError):
    pass


PROGRAMMING = "programming"
ADMINISTRATIVE = "administrative"


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
def _table() -> dict[str, dict[str, str]]:
    """The category table: pattern -> category for each kind, ``frag`` (basename
    fragments, in file order), ``name`` (exact basenames) and ``ext`` (extensions)."""
    table: dict[str, dict[str, str]] = {"frag": {}, "name": {}, "ext": {}}
    text = resources.files("linechurn.data").joinpath("file_categories.txt").read_text("utf-8")
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            kind, pattern, category = line.split("\t")
            table[kind][pattern] = category  # KeyError: an unknown kind
    return table


def file_name(path: str) -> tuple[str, str]:
    """The lowercased basename after the last ``/`` (a backslash is part of a
    name, as git separates with ``/`` alone) and its extension from the last
    dot on, or ``""`` without a dot."""
    basename = path.rsplit("/", 1)[-1].lower()
    return basename, basename[basename.rfind("."):] if "." in basename else ""


def categorize_file(path: str) -> str:
    """Deterministic programming/administrative lookup for a path.

    Resolution order: basename fragments, exact basenames, extension table;
    unknown extensions (and extensionless names) are administrative.
    """
    table = _table()
    basename, ext = file_name(path)
    for fragment, category in table["frag"].items():
        if fragment in basename:
            return category
    if basename in table["name"]:
        return table["name"][basename]
    return table["ext"].get(ext, ADMINISTRATIVE)


def count_file_commits(
    commits: Iterable[tuple[int, list[tuple[str, str]]]],
) -> tuple[dict[str, int], dict[str, list[str]], set[str], float, int, int]:
    """Fold a name-status walk into per-file commit counts.

    ``commits`` holds ``(committer_timestamp, [(old_path, new_path), ...])``
    per commit.  Returns the counts, the rename chains (each renamed path's
    earlier names, oldest first), every path any record names, the lifetime
    in months between the earliest and the latest commit, the number of
    commits and the number of records.  A file touched several times within
    one commit counts once; a rename moves the accumulated tally and the
    earlier names to the new path, and the rename commit itself counts as a
    touch.  A rename onto a reused name drops the earlier names from counts
    and chains, but never from the named paths.
    """
    counts: dict[str, int] = {}
    chains: dict[str, list[str]] = {}
    named: set[str] = set()
    first = last = None
    n_commits = n_records = 0
    for timestamp, changes in commits:
        n_commits += 1
        n_records += len(changes)
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
    return counts, chains, named, months, n_commits, n_records


def _above_sigma_cut(values: Collection[int],
                     thresholds: HotspotThresholds) -> Callable[[int], bool]:
    """Whether a count strictly exceeds ``mean + k·sigma`` of ``values``, decided exactly.

    With n counts, S = Σx, Q = Σx² and d = n·c − S, a count c exceeds the
    cut when d > 0 and d² > k²·(n·Q − S²) under population sigma, or
    d²·(n − 1) > k²·n·(n·Q − S²) under sample sigma (0 for one value).
    Integer counts and the float k are exact here, so a count at z = k
    exactly is never above the cut; a float cut lets rounding decide.
    """
    n, s = len(values), sum(values)
    spread = n * sum(x * x for x in values) - s * s
    k2 = Fraction(thresholds.sigma_multiplier) ** 2
    if thresholds.population_sigma:
        scale, bound = 1, k2 * spread
    else:
        scale, bound = n - 1, k2 * n * spread
    num, den = bound.numerator, bound.denominator
    return lambda c: n * c > s and (n * c - s) ** 2 * scale * den > num


def sigma_cut_reachable(n: int, thresholds: HotspotThresholds) -> bool:
    """Whether any count among ``n`` can exceed their sigma cut.

    The largest z-score ``n`` values allow is that of one value apart from
    ``n - 1`` equal ones: √(n − 1) under population sigma and (n − 1)/√n
    under sample sigma.  ``_above_sigma_cut`` decides that case, so the
    answer is the filter's own, exactly.
    """
    return _above_sigma_cut([0] * (n - 1) + [1], thresholds)(1)


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
    above = _above_sigma_cut(counts.values(), thresholds)
    rate_cut = lifetime_months * thresholds.monthly_rate
    return {path for path, count in counts.items() if above(count) and count > rate_cut}


def select_hotspot_lines(lines: list, thresholds: HotspotThresholds = HotspotThresholds()) -> list:
    """Outlier lines of one file by modification count, as ``(number, line)`` pairs.

    A line qualifies when its mod_count strictly exceeds the sigma cutoff
    computed over this file's live lines and meets the absolute floor.  Lines
    are numbered from 1 and returned in file order.
    """
    above = _above_sigma_cut([ln.mod_count for ln in lines], thresholds)
    return [
        (number, ln)
        for number, ln in enumerate(lines, 1)
        if above(ln.mod_count) and ln.mod_count >= thresholds.min_line_mods
    ]


def lifespan_days(line) -> float:
    """Days between a line's first and last recorded modification.

    Lifespan is defined by the recorded history itself, not by a reference
    date.
    """
    if not line.history:
        raise EmptyInput("line has no history")
    first, last = line.history[0], line.history[-1]
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
