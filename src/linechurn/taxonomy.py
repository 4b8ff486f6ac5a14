"""Heuristic hotspot-pattern classification plus labeling-workflow statistics.

Each before/after revision pair of a hotspot line is matched against an
ordered list of rules; the first match wins.  More specific token-shape
rules (version bumps) fire before generic ones (long-line edits), and the
formatting rule runs first because normalization equality is decisive.
``classify_history``, the one entry point, labels a line by its pairs'
votes.  The classifier is explicitly heuristic: downstream outputs carry a
heuristic flag so its labels are never mistaken for human ones.

Also implements the Chao1 richness estimator and Cohen's kappa, which
support the saturation / inter-rater workflow around manual labeling.
"""

from __future__ import annotations

import csv
import difflib
import enum
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .churn import ADMINISTRATIVE, PROGRAMMING, file_name

LONG_LINE_THRESHOLD = 120
REFACTOR_WINDOW_DAYS = 14.0
_LONG_LINE_MIN_SIMILARITY = 0.3


class Pattern(str, enum.Enum):
    PINNED_VERSION_BUMP = "pinned-version-bump"
    CONDITIONAL_VERSION_BUMP = "conditional-version-bump"
    RESOURCE_ID_MODIFICATION = "resource-id-modification"
    SERVICE_CONFIGURATION = "service-configuration"
    DEPENDENCY_SPECIFICATION = "dependency-specification"
    EXTERNAL_DATA_FLUCTUATIONS = "external-data-fluctuations"
    PATH_UPDATE = "path-update"
    DISTRO_BUMP = "distro-bump"
    DEBUG_CONFIGURATION = "debug-configuration"
    FUNCTION_CALL_CHANGE = "function-call-change"
    FORMATTING_PING_PONG = "formatting-ping-pong"
    LONG_LINE_CHANGE = "long-line-change"
    LICENSE_MODIFICATION = "license-modification"
    METADATA_CHANGE = "metadata-change"
    STEPWISE_REFACTORING = "stepwise-refactoring"
    NORMAL_SOFTWARE_EVOLUTION = "normal-software-evolution"
    UNCLASSIFIED = "unclassified"


class Category(str, enum.Enum):
    CONFIGURATION_MANAGEMENT = "configuration-management"
    DEVELOPMENT_ENVIRONMENT = "development-environment"
    CODE_QUALITY_AND_STYLE = "code-quality-and-style"
    ADMINISTRATIVE = "administrative"
    NONE = "none"


PATTERN_CATEGORY: dict[Pattern, Category] = {
    Pattern.PINNED_VERSION_BUMP: Category.CONFIGURATION_MANAGEMENT,
    Pattern.CONDITIONAL_VERSION_BUMP: Category.CONFIGURATION_MANAGEMENT,
    Pattern.RESOURCE_ID_MODIFICATION: Category.CONFIGURATION_MANAGEMENT,
    Pattern.SERVICE_CONFIGURATION: Category.CONFIGURATION_MANAGEMENT,
    Pattern.DEPENDENCY_SPECIFICATION: Category.CONFIGURATION_MANAGEMENT,
    Pattern.EXTERNAL_DATA_FLUCTUATIONS: Category.CONFIGURATION_MANAGEMENT,
    Pattern.PATH_UPDATE: Category.DEVELOPMENT_ENVIRONMENT,
    Pattern.DISTRO_BUMP: Category.DEVELOPMENT_ENVIRONMENT,
    Pattern.DEBUG_CONFIGURATION: Category.DEVELOPMENT_ENVIRONMENT,
    Pattern.FUNCTION_CALL_CHANGE: Category.CODE_QUALITY_AND_STYLE,
    Pattern.FORMATTING_PING_PONG: Category.CODE_QUALITY_AND_STYLE,
    Pattern.LONG_LINE_CHANGE: Category.CODE_QUALITY_AND_STYLE,
    Pattern.LICENSE_MODIFICATION: Category.ADMINISTRATIVE,
    Pattern.METADATA_CHANGE: Category.ADMINISTRATIVE,
    Pattern.STEPWISE_REFACTORING: Category.ADMINISTRATIVE,
    Pattern.NORMAL_SOFTWARE_EVOLUTION: Category.NONE,
    Pattern.UNCLASSIFIED: Category.NONE,
}

@dataclass
class PatternLabel:
    label: Pattern
    confidence: float = 1.0
    heuristic: bool = True
    diagnostics: str = ""

    @property
    def category(self) -> Category:
        return PATTERN_CATEGORY[self.label]


# --- text machinery -------------------------------------------------------

_WS_RUN = re.compile(r"[ \t\f\v]+")


def normalize_style(text: str) -> str:
    """Collapse blank runs, strip ends, casefold: the formatting equivalence."""
    return _WS_RUN.sub(" ", text).strip().casefold()


_VERSION_TOKEN = re.compile(r"(\d+(?:\.\d+)+)")  # split keeps the tokens
_RANGE_OPS_2 = {">=", "<=", "~=", "!="}
_RANGE_OPS_1 = {">", "<", "^", "~"}


def _range_op_adjacent(parts: list[str], index: int) -> bool:
    prefix = parts[index].rstrip()
    return prefix[-2:] in _RANGE_OPS_2 or (prefix[-1:] in _RANGE_OPS_1)


def _version_key(token: str) -> list[tuple[int, str]]:
    """Each dotted component as its length and digits without leading zeros,
    which order as the numbers do; no ``int()``, so no digit run is too long."""
    if not token.isascii():  # \d matches every script's decimal digits
        token = "".join(c if c == "." else str(int(c)) for c in token)
    return [(len(digits), digits) for digits in (c.lstrip("0") for c in token.split("."))]


def _version_increased(old: str, new: str) -> bool:
    a, b = _version_key(old), _version_key(new)
    width = max(len(a), len(b))
    return a + [(0, "")] * (width - len(a)) < b + [(0, "")] * (width - len(b))


_DISTRO_RE = re.compile(
    r"(?i)\b(ubuntu|debian|centos|rhel|redhat|rocky|alma(?:linux)?|fedora|alpine|"
    r"opensuse|suse|sles|archlinux|busybox|jessie|wheezy|stretch|buster|bullseye|"
    r"bookworm|trixie|precise|trusty|xenial|bionic|focal|jammy|noble)"
    r"[-_]?([0-9][0-9a-z.]*)?"
)

# Each resource-id shape starts at a word boundary.
_RESOURCE_IDS = (
    r"ami-[0-9a-f]{8,17}\b",
    r"v?20\d{6}\b",  # date-stamped image tags like v20141208
    r"sha(?:1|256|512)?:[0-9a-fA-F]{6,}\b",
    r"[0-9a-f]{12,64}\b",
)
_RESOURCE_SHAPES = [re.compile(r"\b" + shape) for shape in _RESOURCE_IDS]
# Matches where any one shape does, so text it misses holds no resource id.
_RESOURCE_ANY = re.compile(r"\b(?:" + "|".join(_RESOURCE_IDS) + ")")

_KEY_VALUE_RE = re.compile(
    r"""\s*(?:[-#*]\s*)?(?:"(?P<dq>[^"]+)"|'(?P<sq>[^']+)'|(?P<bare>[A-Za-z0-9_.\-$(){}]+))\s*[:=]\s*(?P<value>.*)$"""
)

_SERVICE_VOCAB = {
    "url", "uri", "host", "hostname", "ip", "port", "endpoint", "token",
    "secret", "password", "passwd", "addr", "address", "proxy", "dsn",
    "apikey", "ssh",
}

_MANIFEST_BASENAMES = {
    "package.json", "package-lock.json", "yarn.lock", "pnpm-lock.yaml",
    "pom.xml", "build.gradle", "build.gradle.kts", "settings.gradle",
    "cargo.toml", "cargo.lock", "go.mod", "go.sum", "requirements.txt",
    "pipfile", "pipfile.lock", "pyproject.toml", "setup.py", "setup.cfg",
    "gemfile", "gemfile.lock", "composer.json", "composer.lock",
    "makefile", "gnumakefile", "kbuild", "cmakelists.txt", "meson.build",
    "build", "build.bazel", "workspace", "conanfile.txt", "conanfile.py",
    "mix.exs", "project.clj", "stack.yaml", "dune-project",
}
_MANIFEST_EXT = {".mk", ".gradle", ".cmake", ".csproj", ".vcxproj", ".sln",
                 ".gemspec", ".podspec", ".cabal", ".bazel", ".bzl"}

_IMPORT_RE = re.compile(
    r"^\s*(?:import\b|from\s+\S+\s+import\b|#\s*include\b|require\b|use\b|using\b|include\b|load\b)"
)

_URL_RE = re.compile(r"(?:[a-z][a-z0-9+.-]*://|www\.)\S+", re.IGNORECASE)

_SHORT_FLAG_RE = re.compile(r"^-{1,2}[A-Za-z]{1,2}$")
_DEBUG_WORDS = re.compile(r"(?i)\b(debug|verbose|trace|loglevel|log[-_]level|quiet|silent)\b")

_LICENSE_VOCAB = re.compile(r"(?i)(copyright|licen[cs]e|all rights reserved|spdx|\(c\)|©)")
_YEAR_RE = re.compile(r"\b(?:19|20)\d{2}\b")
_NAME_TOKEN_RE = re.compile(r"^[A-Z][A-Za-z.&,'-]*$")

# Metadata shapes, each from a word boundary; one search tries them all.
_METADATA_RE = re.compile(r"\b(?:" + "|".join((
    r"\d{4}-\d{2}-\d{2}(?:[T ]\d{2}:\d{2}(?::\d{2})?)?",  # ISO dates
    r"\d{2}:\d{2}:\d{2}\b",
    r"[0-9a-fA-F]{32,64}\b",  # md5/sha digests
    r"1\d{9}\b",  # unix epoch seconds (2001--2033)
    r"(?i:build[-_]?(?:id[-_:= ]?)?\d{2,}\b)",
    r"[A-Za-z0-9+/]{40,}={0,2}\b",  # base64 signature blobs
)) + ")")

_CALLEE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(")


_DIGESTISH_RE = re.compile(r"sha\d+[-:]|^[A-Za-z0-9+/]{40,}={0,2}$")


def _is_pathlike(token: str) -> bool:
    bare = token.strip("'\"`;,")
    # Without a '/', only a "www." URL can match.
    if not ("/" in bare or bare.startswith("..")
            or ("www." in bare.lower() and _URL_RE.search(bare))):
        return False
    return not _DIGESTISH_RE.search(bare)  # base64 digests contain '/' but are not paths


def _call_arities(text: str) -> dict[str, list[int]]:
    """Each callee's argument counts, sorted, from the top-level commas of
    its argument lists (best effort)."""
    arities: dict[str, list[int]] = {}
    if "(" not in text:
        return arities
    for m in _CALLEE_RE.finditer(text):
        depth = 0
        commas = 0
        saw_arg = False
        for ch in text[m.end():]:
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                if depth == 0:
                    break
                depth -= 1
            elif ch == "," and depth == 0:
                commas += 1
            elif not ch.isspace() and depth == 0:
                saw_arg = True
        arities.setdefault(m.group(1), []).append(commas + 1 if saw_arg or commas else 0)
    return {name: sorted(counts) for name, counts in arities.items()}


def _key_value(text: str):
    m = _KEY_VALUE_RE.match(text)
    if m is None:
        return None
    key = m.group("dq") or m.group("sq") or m.group("bare")
    return key, m.group("value").strip()


def _key_words(key: str) -> set[str]:
    return {w for w in re.split(r"[^a-z0-9]+", key.lower()) if w}


def _is_manifest_path(path: str) -> bool:
    basename, ext = file_name(path)
    return (basename in _MANIFEST_BASENAMES or ext in _MANIFEST_EXT
            or re.match(r"requirements[-_.].*\.txt$", basename) is not None)


_DATA_VALUE_RE = re.compile(r"""^(?:"[^"]*"|'[^']*'|-?\d[\d_.eE+-]*|true|false|null|none|\[.*\]|\{.*\})[,;]?$""",
                            re.IGNORECASE)


# --- the views the rules read ----------------------------------------------

class _view:
    """A view derived on its first read: the method runs once and its result
    is stored on the instance under the method's name.  This descriptor has
    no ``__set__``, so the stored value shadows it and later reads are plain
    attribute reads.  Unlike ``functools.cached_property`` on Python 3.11,
    it takes no lock."""

    def __init__(self, derive):
        self.derive = derive

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.derive(obj)
        setattr(obj, self.derive.__name__, value)
        return value


def _word_diff(words_b: list[str], words_a: list[str]) -> tuple[list[str], list[str]]:
    """The words removed from and added to a line, by ``SequenceMatcher``'s
    opcodes.  When a side is empty, or each side is one word, the opcodes are
    known without matching: nothing when the sides are equal, else all of both."""
    if not words_b or not words_a or len(words_b) == len(words_a) == 1:
        return ([], []) if words_b == words_a else (words_b, words_a)
    removed: list[str] = []
    added: list[str] = []
    matcher = difflib.SequenceMatcher(a=words_b, b=words_a, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag in ("replace", "delete"):
            removed.extend(words_b[i1:i2])
        if tag in ("replace", "insert"):
            added.extend(words_a[j1:j2])
    return removed, added


class _Revision:
    """One revision of a line: its decoded text and the views of it that the
    rules read.  Rules 1-3 read the normal form and the version split on
    every pair, so the constructor derives them; every other view is derived
    on its first read, through ``_view``.  ``classify_history`` hands a
    pair's ``after`` on as the next pair's ``before``, so no view of a
    revision is derived twice."""

    def __init__(self, content: bytes):
        self.text = text = content.decode("utf-8", "replace")
        self.normal = normalize_style(text)
        split = _VERSION_TOKEN.split(text)
        # The text around the dotted-numeric tokens, and the tokens.
        self.version_parts, self.version_tokens = split[::2], split[1::2]

    @_view
    def words(self) -> list[str]:
        return self.text.split()

    @_view
    def distros(self) -> set[tuple[str, str]]:
        return {(m.group(1).lower(), (m.group(2) or "").lower())
                for m in _DISTRO_RE.finditer(self.text)}

    @_view
    def key_value(self) -> tuple[str, str] | None:
        return _key_value(self.text)

    @_view
    def data_value(self) -> bool:
        """The value is a literal: a string, a number, a boolean, a list..."""
        kv = self.key_value
        return kv is not None and _DATA_VALUE_RE.match(kv[1]) is not None

    @_view
    def arities(self) -> dict[str, list[int]]:
        return _call_arities(self.text)

    @_view
    def license(self) -> bool:
        return _LICENSE_VOCAB.search(self.text) is not None

    @_view
    def imports(self) -> bool:
        return _IMPORT_RE.match(self.text) is not None


class _PairContext:
    """One revision pair as the rules read it: both sides, whether the file
    is a build manifest, and the pair's own views.  Rules 2 and 3 read the
    version edit on every pair the formatting rule leaves, so the
    constructor derives it: the indices of the changed dotted-numeric
    tokens when the sides match outside them, else None.  The word diff and
    the value edit are derived on their first read, through ``_view``, so a
    pair an early rule wins builds neither."""

    def __init__(self, before: _Revision, after: _Revision, file_category: str, manifest: bool):
        self.before = before
        self.after = after
        self.file_category = file_category
        self.manifest = manifest
        self.version_edit = None
        if before.version_parts == after.version_parts:
            self.version_edit = [i for i, (old, new)
                                 in enumerate(zip(before.version_tokens, after.version_tokens))
                                 if old != new]

    @_view
    def word_diff(self) -> tuple[list[str], list[str]]:
        """The words removed, and the words added."""
        return _word_diff(self.before.words, self.after.words)

    @_view
    def changed(self) -> list[str]:
        removed, added = self.word_diff
        return removed + added

    @_view
    def changed_text(self) -> str:
        return " ".join(self.changed)

    @_view
    def value_edit(self) -> bool:
        """Both sides assign the same key, each a different value."""
        kv_b, kv_a = self.before.key_value, self.after.key_value
        return kv_b is not None and kv_a is not None and kv_b[0] == kv_a[0] and kv_b[1] != kv_a[1]


# --- the ordered rules -----------------------------------------------------

def _rule_formatting_ping_pong(ctx) -> bool:
    return ctx.before.normal == ctx.after.normal


def _rule_pinned_version_bump(ctx) -> bool:
    changed = ctx.version_edit
    if changed is None or len(changed) != 1:
        return False
    index = changed[0]
    if _range_op_adjacent(ctx.before.version_parts, index):
        return False
    return _version_increased(ctx.before.version_tokens[index], ctx.after.version_tokens[index])


def _rule_conditional_version_bump(ctx) -> bool:
    changed = ctx.version_edit
    return changed is not None and any(_range_op_adjacent(ctx.before.version_parts, index)
                                       for index in changed)


def _rule_distro_bump(ctx) -> bool:
    return ctx.before.distros != ctx.after.distros


def _rule_resource_id(ctx) -> bool:
    # No shape matches a blank, so none matches across the one that joins
    # the removed and the added words.
    if _RESOURCE_ANY.search(ctx.changed_text) is None:
        return False
    removed, added = map(" ".join, ctx.word_diff)
    return any(set(shape.findall(removed)) != set(shape.findall(added))
               for shape in _RESOURCE_SHAPES)


def _rule_service_configuration(ctx) -> bool:
    return ctx.value_edit and bool(_key_words(ctx.before.key_value[0]) & _SERVICE_VOCAB)


def _rule_dependency_specification(ctx) -> bool:
    if not (ctx.manifest or (ctx.before.imports and ctx.after.imports)):
        return False
    # Copyright headers inside manifests belong to the license rule.
    if ctx.before.license or ctx.after.license:
        return False
    # Path-shaped changes defer to the path-update rule.
    return not all(_is_pathlike(tok) for tok in ctx.changed)


def _rule_path_update(ctx) -> bool:
    return any(_is_pathlike(tok) for tok in ctx.changed)


def _rule_debug_configuration(ctx) -> bool:
    if any(_SHORT_FLAG_RE.match(tok) for tok in ctx.changed):
        return True
    return bool(_DEBUG_WORDS.search(ctx.changed_text))


def _rule_license_modification(ctx) -> bool:
    if not (ctx.before.license or ctx.after.license):
        return False
    if _YEAR_RE.search(ctx.changed_text):
        return True
    return bool(ctx.changed) and all(_NAME_TOKEN_RE.match(tok.strip(",.;")) for tok in ctx.changed)


def _rule_metadata_change(ctx) -> bool:
    return _METADATA_RE.search(ctx.changed_text) is not None


def _rule_function_call_change(ctx) -> bool:
    # Equal when both sides call the same names, each as often and with the
    # same argument counts; so no call on either side is no match.
    return ctx.before.arities != ctx.after.arities


def _rule_long_line_change(ctx) -> bool:
    before, after = ctx.before.text, ctx.after.text
    if max(len(before.rstrip()), len(after.rstrip())) <= LONG_LINE_THRESHOLD:
        return False
    similarity = difflib.SequenceMatcher(None, before, after, autojunk=False).ratio()
    return similarity >= _LONG_LINE_MIN_SIMILARITY


def _rule_external_data(ctx) -> bool:
    return (ctx.file_category == ADMINISTRATIVE and ctx.value_edit
            and ctx.before.data_value and ctx.after.data_value)


_RULES: list[tuple[Pattern, object]] = [
    (Pattern.FORMATTING_PING_PONG, _rule_formatting_ping_pong),
    (Pattern.PINNED_VERSION_BUMP, _rule_pinned_version_bump),
    (Pattern.CONDITIONAL_VERSION_BUMP, _rule_conditional_version_bump),
    (Pattern.DISTRO_BUMP, _rule_distro_bump),
    (Pattern.RESOURCE_ID_MODIFICATION, _rule_resource_id),
    (Pattern.SERVICE_CONFIGURATION, _rule_service_configuration),
    (Pattern.DEPENDENCY_SPECIFICATION, _rule_dependency_specification),
    (Pattern.PATH_UPDATE, _rule_path_update),
    (Pattern.DEBUG_CONFIGURATION, _rule_debug_configuration),
    (Pattern.LICENSE_MODIFICATION, _rule_license_modification),
    (Pattern.METADATA_CHANGE, _rule_metadata_change),
    (Pattern.FUNCTION_CALL_CHANGE, _rule_function_call_change),
    (Pattern.LONG_LINE_CHANGE, _rule_long_line_change),
    (Pattern.EXTERNAL_DATA_FLUCTUATIONS, _rule_external_data),
]


# Tie-break order for history aggregation: rule order, then the fallbacks.
_RANK: dict[Pattern, int] = {p: i for i, p in enumerate(
    [p for p, _ in _RULES]
    + [Pattern.STEPWISE_REFACTORING, Pattern.NORMAL_SOFTWARE_EVOLUTION, Pattern.UNCLASSIFIED])}


def _winner(ctx: _PairContext) -> Pattern:
    """The first rule that matches; else evolution for code, unclassified otherwise."""
    for pattern, rule in _RULES:
        if rule(ctx):
            return pattern
    return (Pattern.NORMAL_SOFTWARE_EVOLUTION if ctx.file_category == PROGRAMMING
            else Pattern.UNCLASSIFIED)


def classify_history(line, file_category: str, path: str) -> PatternLabel:
    """Aggregate per-pair votes of one line's history into a single label.

    Majority label wins with ties broken by rule order; confidence is the
    winning vote share.  When two consecutive modifications of a
    programming-file line lie at most ``REFACTOR_WINDOW_DAYS`` apart and the
    votes say plain evolution, the label is overridden to stepwise
    refactoring.
    """
    history = line.history
    if len(history) < 2:
        raise ValueError(f"history of length {len(history)} has no revision pairs")

    votes: Counter = Counter()
    manifest = _is_manifest_path(path)
    contents = line.contents()
    prev = contents[0]
    before = _Revision(prev)
    for curr in contents[1:]:
        if curr == prev:
            continue  # no byte-level edit to classify
        after = _Revision(curr)  # the next pair's before
        votes[_winner(_PairContext(before, after, file_category, manifest))] += 1
        prev, before = curr, after
    total = sum(votes.values())
    if total == 0:
        return PatternLabel(Pattern.UNCLASSIFIED, confidence=0.0)

    winner = min(votes.items(), key=lambda kv: (-kv[1], _RANK[kv[0]]))[0]
    confidence = votes[winner] / total

    if (winner is Pattern.NORMAL_SOFTWARE_EVOLUTION
            and file_category == PROGRAMMING
            and _has_close_modifications(history)):
        return PatternLabel(Pattern.STEPWISE_REFACTORING, confidence=confidence)
    return PatternLabel(winner, confidence=confidence)


def _has_close_modifications(history) -> bool:
    """True when two consecutive modification timestamps fall in the window."""
    mod_ts = [commit.committer_timestamp for commit in history[1:]]
    window = REFACTOR_WINDOW_DAYS * 86400
    return any(b - a <= window for a, b in zip(mod_ts, mod_ts[1:]))


# --- labeling-workflow statistics -----------------------------------------

def chao1(s_obs: int, f1: int, f2: int) -> float:
    """Chao1 lower-bound richness estimate from the observed richness and
    the singleton and doubleton counts.

    Classic form when doubletons exist; the bias-corrected form
    ``S + f1(f1-1) / (2(f2+1))`` otherwise.
    """
    if min(s_obs, f1, f2) < 0:
        raise ValueError("counts must be non-negative")
    if f1 + f2 > s_obs:
        raise ValueError("singletons plus doubletons cannot exceed observed richness")
    if f2 > 0:
        return s_obs + f1 ** 2 / (2 * f2)
    return s_obs + f1 * (f1 - 1) / (2 * (f2 + 1))


def chao1_curve(label_sequence: Sequence) -> list[tuple[int, int, float]]:
    """Per-prefix (k, observed richness, Chao1 estimate) over a label stream."""
    if not label_sequence:
        raise ValueError("label sequence must be non-empty")
    freq: Counter = Counter()
    out: list[tuple[int, int, float]] = []
    for k, label in enumerate(label_sequence, start=1):
        freq[label] += 1
        s_obs = len(freq)
        f1 = sum(1 for c in freq.values() if c == 1)
        f2 = sum(1 for c in freq.values() if c == 2)
        out.append((k, s_obs, chao1(s_obs, f1, f2)))
    return out


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    observed_agreement: float
    expected_agreement: float


def cohens_kappa(labels_a: Sequence, labels_b: Sequence) -> KappaResult:
    """Chance-corrected agreement between two equal-length label lists."""
    if len(labels_a) != len(labels_b):
        raise ValueError(f"{len(labels_a)} vs {len(labels_b)} labels")
    if not labels_a:
        raise ValueError("label lists must be non-empty")
    n = len(labels_a)
    p_o = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    marg_a, marg_b = Counter(labels_a), Counter(labels_b)
    p_e = sum(marg_a[label] * marg_b.get(label, 0) for label in marg_a) / (n * n)
    if p_e >= 1.0:
        if p_o == 1.0:
            return KappaResult(1.0, p_o, p_e)
        raise ValueError("expected agreement is 1 but raters disagree")
    return KappaResult((p_o - p_e) / (1 - p_e), p_o, p_e)


# --- label file interchange -------------------------------------------------

def load_label_overrides(path: str | Path) -> dict[tuple[str, int], Pattern]:
    """Read a label CSV (path, line_number, label) into an override map; a
    leading byte-order mark is ignored."""
    overrides: dict[tuple[str, int], Pattern] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:  # csv.Error: a field over csv's size limit, in the header or a row
            if reader.fieldnames is None or not {"path", "line_number", "label"} <= set(reader.fieldnames):
                raise ValueError("needs columns: path, line_number, label")
            for rec in reader:
                overrides[(rec["path"], int(rec["line_number"]))] = Pattern(rec["label"])
        except (csv.Error, TypeError, ValueError) as exc:  # a short row reads as None
            # csv's own count (DictReader's lags a failed read); 1 for an empty file
            raise ValueError(f"override file line {reader.reader.line_num or 1}: {exc}") from None
    return overrides


def kappa_between_label_files(path_a: str | Path, path_b: str | Path) -> KappaResult:
    """Cohen's kappa over the (path, line) keys two label files share."""
    a = load_label_overrides(path_a)
    b = load_label_overrides(path_b)
    keys = sorted(a.keys() & b.keys())
    if not keys:
        raise ValueError("label files share no (path, line_number) keys")
    return cohens_kappa([a[k] for k in keys], [b[k] for k in keys])
