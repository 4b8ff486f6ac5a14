"""Churn statistics: the stage-1 fold of commit counts, rename chains and
lifetime, categorization, the dual filter, hotspot-line selection,
lifespans, and the descriptive-stats oracle."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linechurn.churn import (
    ADMINISTRATIVE,
    PROGRAMMING,
    SECONDS_PER_MONTH,
    EmptyInput,
    HotspotThresholds,
    categorize_file,
    count_file_commits,
    detect_hotspot_files,
    file_name,
    lifespan_days,
    select_hotspot_lines,
    sigma_cut_reachable,
    summarize,
)
from linechurn.diffstream import CommitHeader, parse_name_status_stream
from linechurn.tracker import TrackedLine

from conftest import chunkings
from oracles import tracked_line


def commit(n: int, *changes: tuple[str, str]) -> tuple[int, list[tuple[str, str]]]:
    return 1_700_000_000 + n, list(changes)


def touch(path: str) -> tuple[str, str]:
    return path, path


class TestCountFileCommits:
    def test_direct_count(self):
        commits = [commit(1, touch("a.txt"), touch("b.txt")),
                   commit(2, touch("a.txt")),
                   commit(3, touch("b.txt"))]
        counts, chains, named, months, n_commits, n_records = count_file_commits(commits)
        assert counts == {"a.txt": 2, "b.txt": 2}
        assert chains == {}
        assert named == {"a.txt", "b.txt"}
        assert months == 2 / SECONDS_PER_MONTH
        assert n_commits == 3
        assert n_records == 4

    def test_multiple_hunks_one_commit_count_once(self):
        # The same file appearing repeatedly within one commit still counts 1.
        commits = [commit(1, touch("b.txt"), touch("b.txt"), touch("b.txt"))]
        assert count_file_commits(commits)[0] == {"b.txt": 1}

    def test_rename_accumulates_under_final_path(self):
        commits = [commit(1, touch("a")),
                   commit(2, ("a", "c")),
                   commit(3, touch("c"))]
        counts, chains, named, *_ = count_file_commits(commits)
        assert counts == {"c": 3}
        assert chains == {"c": ["a"]}
        assert named == {"a", "c"}

    def test_reused_name_keeps_every_named_path(self):
        # z's tally and name go when z becomes x, and y's rename onto the
        # deleted x replaces x's; only the named paths still hold z.
        commits = [commit(1, touch("z")),
                   commit(2, ("z", "x")),
                   commit(3, touch("x")),  # x deleted
                   commit(4, touch("y")),
                   commit(5, ("y", "x"))]
        counts, chains, named, *_ = count_file_commits(commits)
        assert counts == {"x": 2}
        assert chains == {"x": ["y"]}
        assert named == {"x", "y", "z"}


# Names a generated history draws from: verbatim under -z, whatever they hold.
NAMES = ["a", "b.txt", "dir/c", 'sp ace "q"', "new\nline", "\u00e9t\u00e9"]

CHANGE = st.tuples(st.sampled_from(["add", "modify", "delete", "rename"]),
                   st.sampled_from(NAMES), st.sampled_from(NAMES))
HISTORY = st.lists(st.tuples(st.integers(1_500_000_000, 1_500_100_000),
                             st.lists(CHANGE, max_size=4)), min_size=1, max_size=10)


def render_history(history) -> tuple[bytes, list]:
    """Apply a drawn history to a first-parent model and print its ``git log
    -z --name-status`` output; return it with the changes that took effect.

    A change that git could not report in that commit is dropped: adding a
    file that exists, modifying, deleting or renaming one that does not,
    renaming onto an existing file, and touching a path that a change of the
    same commit has touched.  Each kept change is ``(commit, kind, old, new)``.
    """
    live: set[str] = set()
    applied = []
    blocks = []
    for k, (ts, changes) in enumerate(history):
        used: set[str] = set()
        records = b""
        for kind, old, new in changes:
            paths = [old, new] if kind == "rename" else [old]
            if (used & set(paths) or (old in live) == (kind == "add")
                    or kind == "rename" and (old == new or new in live)):
                continue
            used.update(paths)
            live.discard(old)
            if kind != "delete":
                live.add(paths[-1])
            status = {"add": "A", "modify": "M", "delete": "D", "rename": "R087"}[kind]
            records += b"".join(field.encode() + b"\0" for field in [status, *paths])
            applied.append((k, kind, old, paths[-1]))
        line = f"commit {ts}".encode()
        blocks.append(line + b"\n" + records if records else line)
    return b"\0".join(blocks), applied


def model_stage1(history, applied):
    """Counts, chains, named paths, months, commits and records by brute force: each
    path owns a tally holding the set of commits that touched it and its
    earlier names.  A deletion keeps the tally; a rename hands it to the new
    path, replacing whatever that path owned before.  Every path a change
    names is a named path."""
    owner: dict[str, tuple[set, list]] = {}
    for k, kind, old, new in applied:
        if kind == "rename":
            commits, names = owner.pop(old, (set(), []))
            owner[new] = (commits | {k}, names + [old])
        else:
            owner.setdefault(new, (set(), []))[0].add(k)
    times = [ts for ts, _ in history]
    months = max((max(times) - min(times)) / SECONDS_PER_MONTH, 1e-9)
    return ({p: len(c) for p, (c, _) in owner.items()},
            {p: names for p, (_, names) in owner.items() if names},
            {p for _, _, old, new in applied for p in (old, new)}, months, len(history),
            len(applied))


@settings(max_examples=150, deadline=None)
@given(HISTORY)
@example([(1_500_000_000, [("add", "a", "a"), ("add", "b.txt", "a")]),
          (1_500_000_900, [("rename", "a", "dir/c"), ("modify", "b.txt", "a")]),
          (1_500_000_100, []),  # empty, and earlier than the commit before it
          (1_500_003_000, [("rename", "dir/c", "a")]),  # back to an earlier name
          (1_500_004_000, [("delete", "b.txt", "a")]),
          (1_500_005_000, [("rename", "a", "b.txt")]),  # onto a deleted file's name
          (1_500_006_000, [("add", "a", "a"), ("modify", "b.txt", "a")])])
def test_stage1_fold_matches_model(history):
    """Parsing and folding a rendered history, under every split of its
    bytes, gives the brute-force model's counts, chains, named paths,
    lifetime, commit count and record count."""
    stream, applied = render_history(history)
    expected = model_stage1(history, applied)
    for chunks in chunkings(stream):
        assert count_file_commits(parse_name_status_stream(chunks)) == expected


class TestCategorizeFile:
    @pytest.mark.parametrize("path,expected", [
        ("src/main.c", PROGRAMMING),
        ("package.json", ADMINISTRATIVE),
        ("weird.xyzq", ADMINISTRATIVE),
        ("deep/path/to/module.py", PROGRAMMING),
        ("README", ADMINISTRATIVE),
        ("docs/guide.md", ADMINISTRATIVE),
        ("Makefile", ADMINISTRATIVE),
        ("data/formats-data.ts", ADMINISTRATIVE),  # generated data payload
        ("src/formats.ts", PROGRAMMING),
        ("requirements-dev.txt", ADMINISTRATIVE),
        ("noextension", ADMINISTRATIVE),
    ])
    def test_lookup(self, path, expected):
        assert categorize_file(path) == expected

    @pytest.mark.parametrize("path, name", [
        ("deep/Path/Module.PY", ("module.py", ".py")),
        ("Makefile", ("makefile", "")),
        ("conf/.bashrc", (".bashrc", ".bashrc")),
        ("dist/a.tar.gz", ("a.tar.gz", ".gz")),
        ("tools\\package.json", ("tools\\package.json", ".json")),  # git separates with / alone
    ])
    def test_file_name(self, path, name):
        assert file_name(path) == name

    @given(st.text(min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_total_and_deterministic(self, path):
        first = categorize_file(path)
        assert first in (PROGRAMMING, ADMINISTRATIVE)
        assert categorize_file(path) == first


def brute_mean_std(values: list[float], ddof: int = 0) -> tuple[float, float]:
    """Independent mean and sigma: population sigma by default, sample sigma
    with ``ddof=1``.  The sigma of no more than ``ddof`` values is 0."""
    n = len(values)
    mean = sum(values) / n
    if n <= ddof:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - ddof)
    return mean, math.sqrt(var)


class TestDetectHotspotFiles:
    def test_twenty_file_fixture_selects_only_outlier(self):
        counts = {f"f{i}": 2 for i in range(19)}
        counts["hot"] = 100
        mean, std = brute_mean_std(list(counts.values()))
        assert abs(mean - 6.9) < 1e-12
        assert counts["hot"] > mean + 3 * std
        assert all(c <= mean + 3 * std for p, c in counts.items() if p != "hot")
        selected = detect_hotspot_files(counts, lifetime_months=12.0)
        assert selected == {"hot"}

    def test_uniform_counts_select_nothing(self):
        counts = {f"f{i}": 5 for i in range(10)}
        assert detect_hotspot_files(counts, lifetime_months=1.0) == set()

    def test_rate_condition_excludes_slow_file(self):
        counts = {f"f{i}": 2 for i in range(19)}
        counts["hot"] = 80
        mean, std = brute_mean_std(list(counts.values()))
        assert counts["hot"] > mean + 3 * std  # passes sigma filter alone
        assert detect_hotspot_files(counts, lifetime_months=96.0) == set()

    def test_both_conditions_strict(self):
        # A count exactly at the rate cut is excluded ("exceeded" is strict).
        counts = {f"f{i}": 0 for i in range(50)}
        counts["edge"] = 12
        selected = detect_hotspot_files(counts, lifetime_months=12.0)
        assert "edge" not in selected

    def test_single_outlier_population_sigma_boundary(self):
        # With n-1 equal values and one larger, selection needs n >= 11.
        def fixture(n: int) -> dict[str, int]:
            counts = {f"f{i}": 10 for i in range(n - 1)}
            counts["out"] = 200
            return counts

        assert detect_hotspot_files(fixture(10), lifetime_months=1e-6) == set()
        assert detect_hotspot_files(fixture(20), lifetime_months=1e-6) == {"out"}

    def test_monotone_in_added_modifications(self):
        counts = {f"f{i}": 3 for i in range(15)}
        counts["x"] = 30
        base = detect_hotspot_files(counts, lifetime_months=1e-6)
        counts["x"] += 100
        more = detect_hotspot_files(counts, lifetime_months=1e-6)
        assert base <= more

    def test_empty_counts_raise(self):
        with pytest.raises(EmptyInput):
            detect_hotspot_files({}, lifetime_months=1.0)

    def test_a_file_at_exactly_three_sigma_is_not_hot(self):
        # Nine files touched once and one 12 times: the busy file sits at
        # z = 3 exactly (a float cut of mean + 3 sigma falls just below 12).
        counts = {f"f{i}": 1 for i in range(9)}
        counts["busy"] = 12
        assert detect_hotspot_files(counts, lifetime_months=0.5) == set()


def revision(commit_hash: str, timestamp: int, content: bytes) -> tuple[CommitHeader, bytes]:
    return CommitHeader(commit_hash, timestamp, "Ada", "ada@x"), content


def mk_line(mod_count: int, birth: int = 1_000_000, step: int = 86_400) -> TrackedLine:
    history = [revision(f"{i:040x}", birth + i * step, f"v{i}".encode())
               for i in range(mod_count + 1)]
    return tracked_line(history)


class TestSelectHotspotLines:
    def test_single_outlier_line(self):
        lines = [mk_line(0) for _ in range(19)] + [mk_line(12)]
        mean, std = brute_mean_std([ln.mod_count for ln in lines])
        assert 12 > mean + 3 * std
        selected = select_hotspot_lines(lines)
        assert [(number, ln.mod_count) for number, ln in selected] == [(20, 12)]

    def test_min_line_mods_floor(self):
        lines = [mk_line(0) for _ in range(30)] + [mk_line(2)]
        assert select_hotspot_lines(lines) == []

    def test_all_zero_empty(self):
        lines = [mk_line(0) for _ in range(10)]
        assert select_hotspot_lines(lines) == []

    @pytest.mark.parametrize("n_lines, n_selected", [(10, 0), (11, 1)])
    def test_ten_lines_are_too_few_for_a_hotspot(self, n_lines, n_selected):
        """One line at 1,000 modifications among quiet ones: under
        population sigma the largest z-score among n values is sqrt(n - 1),
        at most 3 up to n = 10."""
        lines = [mk_line(0) for _ in range(n_lines - 1)] + [mk_line(1000)]
        assert len(select_hotspot_lines(lines)) == n_selected

    @pytest.mark.parametrize("mods", [4, 5, 8, 11])
    def test_a_line_at_exactly_three_sigma_is_not_selected(self, mods):
        """Nine quiet lines and one modified ``mods`` times: the tenth sits
        at z = 3 exactly whatever ``mods`` is, and the cut is strict."""
        lines = [mk_line(0) for _ in range(9)] + [mk_line(mods)]
        assert select_hotspot_lines(lines) == []


class TestLifespanDays:
    def test_single_entry_history(self):
        assert lifespan_days(mk_line(0)) == 0.0

    def test_long_lived_line(self):
        line = tracked_line([
            revision("a" * 40, 1_000_000, b"x0"),
            revision("b" * 40, 1_000_000 + 86_400 * 1198, b"x"),
        ])
        assert lifespan_days(line) == pytest.approx(1198.0)

    @given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6))
    def test_non_negative_for_sorted_history(self, deltas):
        ts = 1_000_000
        history = []
        for i, delta in enumerate(sorted(deltas)):
            history.append(revision(f"{i:040x}", ts + delta, b"c"))
        line = tracked_line(history)
        assert lifespan_days(line) >= 0.0


def brute_summary(values: list[float]) -> tuple[float, float, float, float, float]:
    """Sort-based min/median/mean/max/IQR with type-7 interpolation."""
    data = sorted(values)
    n = len(data)

    def quantile(p: float) -> float:
        h = (n - 1) * p
        lo = math.floor(h)
        hi = math.ceil(h)
        return data[lo] + (h - lo) * (data[hi] - data[lo])

    return (data[0], quantile(0.5), sum(data) / n, data[-1],
            quantile(0.75) - quantile(0.25))


class TestSummarize:
    def test_odd_length_median(self):
        assert summarize([1, 7, 100]).median == 7

    def test_even_length_median(self):
        assert summarize([1, 2, 3, 4]).median == 2.5

    def test_against_brute_force_oracle(self):
        rng = random.Random(99)
        values = [rng.uniform(-1000, 1000) for _ in range(1000)]
        stats = summarize(values)
        b_min, b_med, b_mean, b_max, b_iqr = brute_summary(values)
        assert abs(stats.min - b_min) < 1e-9
        assert abs(stats.median - b_med) < 1e-9
        assert abs(stats.mean - b_mean) < 1e-9
        assert abs(stats.max - b_max) < 1e-9
        assert abs(stats.iqr - b_iqr) < 1e-9

    def test_singleton(self):
        stats = summarize([42.0])
        assert stats.min == stats.median == stats.mean == stats.max == 42.0
        assert stats.iqr == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            summarize([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_ordering_invariants(self, values):
        stats = summarize(values)
        assert stats.min <= stats.median <= stats.max
        assert stats.iqr >= 0


@given(st.lists(st.integers(0, 40), min_size=1, max_size=60), st.booleans())
@example([7], True)
@example([7], False)
@settings(max_examples=200, deadline=None)
def test_statistics_match_brute_force(mods, population):
    mean, std = brute_mean_std(mods, ddof=0 if population else 1)
    stats = summarize(mods)
    b_min, b_med, b_mean, b_max, b_iqr = brute_summary(mods)
    assert (stats.min, stats.median, stats.max) == (b_min, b_med, b_max)
    assert stats.mean == pytest.approx(b_mean, rel=1e-12)
    assert stats.iqr == pytest.approx(b_iqr, abs=1e-9)

    thresholds = HotspotThresholds(population_sigma=population)
    cut = mean + thresholds.sigma_multiplier * std
    assume(all(abs(m - cut) > 1e-9 for m in mods))
    lines = [mk_line(m) for m in mods]
    expected = [(number, ln) for number, ln in enumerate(lines, 1)
                if ln.mod_count > cut and ln.mod_count >= thresholds.min_line_mods]
    assert ([(number, id(ln)) for number, ln in select_hotspot_lines(lines, thresholds)]
            == [(number, id(ln)) for number, ln in expected])


def exceeds_sigma_cut(values: list[int], x: int, k: float, population: bool) -> bool:
    """``x > mean + k·sigma`` of ``values`` in rational arithmetic: the gap to
    the mean must be positive and its square must exceed k² times the
    variance, taken from the squared deviations (sample sigma of one value: 0)."""
    n = len(values)
    mean = Fraction(sum(values), n)
    squares = sum((v - mean) ** 2 for v in values)
    variance = squares / n if population else squares / max(n - 1, 1)
    gap = x - mean
    return gap > 0 and gap ** 2 > Fraction(k) ** 2 * variance


@given(st.lists(st.integers(0, 40), min_size=1, max_size=60), st.booleans(),
       st.sampled_from([3.0, 2.0, 1.0, 0.5, 2.5, 0.1]))
@example([0] * 9 + [4], True, 3.0)
@example([0] * 9 + [5], True, 3.0)
@example([1] * 9 + [12], True, 3.0)
@example([0] * 9 + [3, 3], False, 3.0)
@settings(max_examples=300, deadline=None)
def test_both_filters_match_an_exact_oracle(mods, population, k):
    """No tie is assumed away: a value at z = k exactly is below the cut."""
    thresholds = HotspotThresholds(sigma_multiplier=k, population_sigma=population)
    lines = [mk_line(m) for m in mods]
    assert [number for number, _ in select_hotspot_lines(lines, thresholds)] == [
        number for number, m in enumerate(mods, 1)
        if exceeds_sigma_cut(mods, m, k, population) and m >= thresholds.min_line_mods]
    counts = {f"f{i}": m for i, m in enumerate(mods)}
    assert detect_hotspot_files(counts, 1e-9, thresholds) == {
        path for path, m in counts.items()
        if exceeds_sigma_cut(mods, m, k, population) and m > 1e-9}
    if not sigma_cut_reachable(len(mods), thresholds):
        assert not any(exceeds_sigma_cut(mods, m, k, population) for m in mods)


@pytest.mark.parametrize("population", [True, False])
@pytest.mark.parametrize("k", [3.0, 2.0, 1.5, 0.5, 2.5])
def test_a_cut_is_reachable_when_the_largest_z_score_exceeds_k(k, population):
    """The largest z-score among n values is √(n − 1) under population sigma
    and (n − 1)/√n under sample sigma; at z = k exactly nothing passes
    (n = 10 at k = 3 and n = 5 at k = 2 under population sigma, n = 4 at
    k = 1.5 under sample sigma)."""
    thresholds = HotspotThresholds(sigma_multiplier=k, population_sigma=population)
    assert not sigma_cut_reachable(0, thresholds)
    for n in range(1, 40):
        largest_z_squared = Fraction(n - 1) if population else Fraction((n - 1) ** 2, n)
        assert sigma_cut_reachable(n, thresholds) == (largest_z_squared > Fraction(k) ** 2), n


def test_thresholds_must_be_positive():
    with pytest.raises(ValueError):
        HotspotThresholds(sigma_multiplier=0.0)
    with pytest.raises(ValueError):
        HotspotThresholds(monthly_rate=-1.0)
