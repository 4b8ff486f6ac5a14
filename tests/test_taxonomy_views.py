"""The classifier's shared views: a history derives each view of a revision
once, a pair builds its word diff only when a rule reads it, and neither
changes a vote.  The cheap rejections are checked against the forms they
stand in for."""

from __future__ import annotations

import difflib
import re
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from linechurn import taxonomy
from linechurn.churn import ADMINISTRATIVE, categorize_file
from linechurn.taxonomy import (
    Pattern,
    RevisionPair,
    classify_history,
    classify_pair,
    _METADATA_RE,
    _RANK,
    _RESOURCE_ANY,
    _RESOURCE_SHAPES,
    _is_pathlike,
    _word_diff,
)

from test_taxonomy import line_from_contents

DAY = 86_400
WORDS = ["alpha", "beta", "Gamma", "total", "value", "x", "-v", "--debug", "verbose"]
LONG_PREFIX = ("On the right side of the canvas is Search, and the Global Menu. "
               "You can use Search to easily find components on the ")
PATHS = ["src/app.py", "diff.c", "notes.txt", "status.json", "requirements.txt",
         "package.json", "drivers/media/video/Makefile", "zuul.d/jobs.yaml", "CMakeLists.txt"]

# Each shape as one pattern of its own: the per-shape form the combined
# searches stand in for.
RESOURCE_SHAPES = [r"\bami-[0-9a-f]{8,17}\b", r"\bv?20\d{6}\b",
                   r"\bsha(?:1|256|512)?:[0-9a-fA-F]{6,}\b", r"\b[0-9a-f]{12,64}\b"]
METADATA_SHAPES = [re.compile(shape) for shape in (
    r"\b\d{4}-\d{2}-\d{2}(?:[T ]\d{2}:\d{2}(?::\d{2})?)?",
    r"\b\d{2}:\d{2}:\d{2}\b",
    r"\b[0-9a-fA-F]{32,64}\b",
    r"\b1\d{9}\b",
    r"(?i)\bbuild[-_]?(?:id[-_:= ]?)?\d{2,}\b",
    r"\b[A-Za-z0-9+/]{40,}={0,2}\b",
)]


# --- token shapes the corpus mixes --------------------------------------------

versions = st.lists(st.integers(0, 30), min_size=2, max_size=4).map(
    lambda parts: ".".join(map(str, parts)))
version_tokens = st.builds(str.__add__, st.sampled_from(["", "v", ">=", "^", "~=", "==", "<"]),
                           versions)
hexes = st.text("0123456789abcdef", min_size=6, max_size=40)
values = st.one_of(versions, st.integers(-5, 10**10).map(str), hexes,
                   st.sampled_from(['"NU"', "'PU'", "true", "null", "[1, 2]", "x/y/z",
                                    "http://db.local:5432", "www.example.org"]))
key_values = st.builds("{}{}{}".format,
                       st.sampled_from(["version", "db_host", "api_url", "tier", "debug",
                                        "counter", "- name", '"image"', "# lock-revision"]),
                       st.sampled_from(["=", ": ", " = ", " "]), values)
urls_and_paths = st.builds(str.__add__,
                           st.sampled_from(["https://", "www.", "lib/", "../", "./", ""]),
                           st.sampled_from(["example.org/a", "services/project", "build", "a.b"]))
distros = st.builds(str.__add__, st.sampled_from(["ubuntu", "focal", "centos", "debian-",
                                                  "alpine", "jammy", "rocky"]),
                    st.sampled_from(["", "8", "9", "11", "3.18"]))
calls = st.builds("{}({})".format, st.sampled_from(["f", "run", "check", "g"]),
                  st.lists(st.sampled_from(["a", "b", "g(x)", "1"]), max_size=3).map(", ".join))
license_words = st.sampled_from(["Copyright", "(c)", "2019", "2020-2021", "SPDX-License-Identifier:",
                                 "MIT", "Alice", "Bob,", "All rights reserved"])
stamps = st.one_of(st.sampled_from(["2021-01-02", "2021-01-02T12:30:45", "12:30:45",
                                    "1600000000", "build-123", "BuildId:42", "ami-0123abcd",
                                    "v20141208", "sha256:abcdef12", "import", "#include"]),
                   hexes)
fragments = st.one_of(version_tokens, key_values, urls_and_paths, distros, calls,
                      license_words, stamps, st.sampled_from(WORDS))
separators = st.sampled_from([" ", "  ", "\t", ", ", ""])
lines = st.one_of(
    st.builds(lambda parts, seps: "".join(p + s for p, s in zip(parts, seps)).rstrip(),
              st.lists(fragments, min_size=1, max_size=4),
              st.lists(separators, min_size=4, max_size=4)),
    st.lists(fragments, min_size=6, max_size=12).map(" ".join),  # long lines
)


@st.composite
def histories(draw):
    """A line whose revisions fill one slot with tokens of one shape, drawn
    from a small pool so that contents repeat, next to each other and after
    other revisions.  The pool may also hold the first revision upper-cased
    or re-spaced (a formatting-only edit) or a line of mixed shapes."""
    shape = draw(st.sampled_from([version_tokens, values, urls_and_paths, distros, calls,
                                  license_words, stamps, st.sampled_from(WORDS)]))
    prefix = draw(st.sampled_from(["", "version = ", "db_host: ", "tier: ", "counter=",
                                   "image: app:", "FROM ", "# Copyright (c) ", "run(a, ",
                                   "import ", "- ", "obj-y += ", LONG_PREFIX]))
    suffix = draw(st.sampled_from(["", ",", ")", " # note", " -v", " x.o"]))
    pool = [prefix + token + suffix
            for token in draw(st.lists(shape, min_size=1, max_size=4, unique=True))]
    pool += draw(st.sampled_from([[], [pool[0].upper()], [pool[0].replace(" ", "  ")],
                                  [draw(lines)]]))
    return [draw(st.sampled_from(pool)).encode() for _ in range(draw(st.integers(2, 9)))]


@given(histories(), st.sampled_from(PATHS))
@settings(max_examples=300, deadline=None)
def test_a_history_votes_as_its_pairs_classified_one_by_one(contents, path):
    # Modifications 30 days apart: the stepwise-refactoring window never holds.
    line = line_from_contents(contents, [i * 30 * DAY for i in range(len(contents))])
    category = categorize_file(path)
    votes = Counter(classify_pair(RevisionPair(b, a, category, path)).label
                    for b, a in zip(contents, contents[1:]) if b != a)
    label = classify_history(line, category, path)
    if not votes:
        assert (label.label, label.confidence) == (Pattern.UNCLASSIFIED, 0.0)
        return
    winner = min(votes.items(), key=lambda kv: (-kv[1], _RANK[kv[0]]))[0]
    assert (label.label, label.confidence) == (winner, votes[winner] / sum(votes.values()))


# --- the shortcuts against the forms they replace -----------------------------

texts = st.lists(st.one_of(stamps, values, st.text("0123456789abcdefABCDEF-:T /+=._vsh",
                                                   max_size=24)), max_size=5).map("".join)


@given(texts)
@settings(max_examples=300, deadline=None)
def test_combined_searches_match_where_one_shape_does(text):
    assert (_RESOURCE_ANY.search(text) is not None) == any(
        re.search(shape, text) for shape in RESOURCE_SHAPES)
    assert (_METADATA_RE.search(text) is not None) == any(
        shape.search(text) for shape in METADATA_SHAPES)


def test_per_shape_resource_patterns_are_unchanged():
    assert [shape.pattern for shape in _RESOURCE_SHAPES] == RESOURCE_SHAPES


@given(st.lists(texts.map(str.split).map("".join), max_size=3),
       st.lists(texts.map(str.split).map("".join), max_size=3))
@settings(max_examples=200, deadline=None)
def test_no_resource_shape_matches_across_the_joining_blank(removed, added):
    joined = " ".join(removed + added)
    assert (_RESOURCE_ANY.search(joined) is not None) == (
        _RESOURCE_ANY.search(" ".join(removed)) is not None
        or _RESOURCE_ANY.search(" ".join(added)) is not None)


def _matcher_diff(words_b: list[str], words_a: list[str]) -> tuple[list[str], list[str]]:
    removed: list[str] = []
    added: list[str] = []
    matcher = difflib.SequenceMatcher(a=words_b, b=words_a, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag in ("replace", "delete"):
            removed.extend(words_b[i1:i2])
        if tag in ("replace", "insert"):
            added.extend(words_a[j1:j2])
    return removed, added


word_lists = st.lists(st.sampled_from(["a", "b", "c", "a=1", "a=2"]), max_size=4)


@given(word_lists, word_lists)
@settings(max_examples=300, deadline=None)
def test_word_diff_equals_the_matchers_opcodes(words_b, words_a):
    assert _word_diff(words_b, words_a) == _matcher_diff(words_b, words_a)


def _pathlike_reference(token: str) -> bool:
    bare = token.strip("'\"`;,")
    if taxonomy._DIGESTISH_RE.search(bare):
        return False
    if taxonomy._URL_RE.search(bare):
        return True
    return "/" in bare or bare.startswith("./") or bare.startswith("..")


@given(st.one_of(urls_and_paths, values, st.text("wW./:;,'\"sha256-+abcAB=", max_size=48),
                 st.text("A/+", min_size=38, max_size=44)))
@settings(max_examples=300, deadline=None)
def test_pathlike_rejection_equals_the_full_check(token):
    assert _is_pathlike(token) == _pathlike_reference(token)


def test_an_unchanged_long_version_token_beside_a_bump():
    # int() refuses a digit run longer than 4,300, and the unchanged token
    # holds one of 5,000.
    long_token = "3." + "1" * 5_000
    line = _line([f"v 1.2 {long_token}".encode(), f"v 1.3 {long_token}".encode()])
    assert classify_history(line, ADMINISTRATIVE, "notes.txt").label \
        is Pattern.PINNED_VERSION_BUMP


def test_a_changed_version_component_longer_than_int_reads():
    old = b"v = 1." + b"1" * 5_000
    line = _line([old, old + b"2"])
    assert classify_history(line, ADMINISTRATIVE, "notes.txt").label \
        is Pattern.PINNED_VERSION_BUMP


def _int_increased(old: str, new: str) -> bool:
    a, b = (tuple(map(int, token.split("."))) for token in (old, new))
    width = max(len(a), len(b))
    return a + (0,) * (width - len(a)) < b + (0,) * (width - len(b))


# Leading zeros, unequal component counts, and decimal digits of other
# scripts, which the version-token pattern's \d also matches.
components = st.one_of(st.text("0123456789", min_size=1, max_size=4),
                       st.sampled_from(["0", "00", "007", "10", "٣", "０１", "1٠"]))
dotted = st.lists(components, min_size=2, max_size=5).map(".".join)


@given(dotted, dotted)
@settings(max_examples=500, deadline=None)
def test_version_components_compare_as_their_numbers(old, new):
    assert taxonomy._version_increased(old, new) == _int_increased(old, new)


# --- the work each history saves ------------------------------------------------

def _count_calls(monkeypatch, module, *names: str) -> Counter:
    calls: Counter = Counter()
    for name in names:
        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _line(contents: list[bytes]):
    return line_from_contents(contents, [i * 30 * DAY for i in range(len(contents))])


def test_each_view_of_a_revision_is_derived_once(monkeypatch):
    # The last rule wins every pair, so every rule reads its views; a
    # context per pair would derive each view 2(n-1) times.
    n = 12
    calls = _count_calls(monkeypatch, taxonomy, "normalize_style", "_key_value",
                         "_call_arities", "_word_diff")
    label = classify_history(_line([f"counter={i}".encode() for i in range(n)]),
                             ADMINISTRATIVE, "notes.txt")
    assert label.label is Pattern.EXTERNAL_DATA_FLUCTUATIONS
    assert 0 < calls["normalize_style"] <= n
    assert 0 < calls["_key_value"] <= n
    assert 0 < calls["_call_arities"] <= n
    assert 0 < calls["_word_diff"] <= n - 1  # every pair differs

    # A view read before its source equals the other order's reading: each
    # view is stored under its own name.
    def pair():
        return taxonomy._PairContext(taxonomy._Revision(b'tier = "a b"'),
                                     taxonomy._Revision(b'tier = "a c"'), ADMINISTRATIVE, False)

    one, other = pair(), pair()
    view_first = (one.after.data_value, one.after.key_value, one.changed_text, one.changed)
    source_first = other.after.key_value, other.changed
    assert view_first == (other.after.data_value, source_first[0],
                          other.changed_text, source_first[1])
    assert view_first == (True, ("tier", '"a c"'), 'b" c"', ['b"', 'c"'])


def test_no_word_diff_for_a_pair_the_first_two_rules_win(monkeypatch):
    calls = _count_calls(monkeypatch, difflib, "SequenceMatcher")
    bumps = [f'release = "1.{i}.0"'.encode() for i in range(8)]
    assert classify_history(_line(bumps), ADMINISTRATIVE, "notes.txt").label \
        is Pattern.PINNED_VERSION_BUMP
    toggles = [b"SELECT a FROM t;", b"select  a from t;"] * 4
    assert classify_history(_line(toggles), ADMINISTRATIVE, "query.sql").label \
        is Pattern.FORMATTING_PING_PONG
    assert calls["SequenceMatcher"] == 0
    # A pair that reaches the word-diff rules does build it.
    classify_history(_line([b"a b c", b"a c d"]), ADMINISTRATIVE, "notes.txt")
    assert calls["SequenceMatcher"] == 1
