"""Heuristic hotspot-pattern classification plus labeling-workflow statistics.

Each before/after revision pair of a hotspot line is matched against an
ordered list of rules; the first match wins.  More specific token-shape
rules (version bumps) fire before generic ones (long-line edits), and the
formatting rule runs first because normalization equality is decisive.  The
classifier is explicitly heuristic: downstream outputs carry a heuristic
flag so its labels are never mistaken for human ones.

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

from .churn import ADMINISTRATIVE, PROGRAMMING

LONG_LINE_THRESHOLD = 120
REFACTOR_WINDOW_DAYS = 14.0
_LONG_LINE_MIN_SIMILARITY = 0.3


class HistoryTooShort(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class DegenerateMarginals(ValueError):
    """Expected agreement is 1 while observed agreement is not."""


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

@dataclass(frozen=True)
class RevisionPair:
    before: bytes
    after: bytes
    file_category: str = PROGRAMMING
    path: str = ""


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


def _version_tuple(token: str) -> tuple[int, ...]:
    return tuple(int(p) for p in token.split("."))


def _version_increased(old: str, new: str) -> bool:
    a, b = _version_tuple(old), _version_tuple(new)
    width = max(len(a), len(b))
    return a + (0,) * (width - len(a)) < b + (0,) * (width - len(b))


_DISTRO_RE = re.compile(
    r"(?i)\b(ubuntu|debian|centos|rhel|redhat|rocky|alma(?:linux)?|fedora|alpine|"
    r"opensuse|suse|sles|archlinux|busybox|jessie|wheezy|stretch|buster|bullseye|"
    r"bookworm|trixie|precise|trusty|xenial|bionic|focal|jammy|noble)"
    r"[-_]?([0-9][0-9a-z.]*)?"
)

_RESOURCE_SHAPES = [
    re.compile(r"\bami-[0-9a-f]{8,17}\b"),
    re.compile(r"\bv?20\d{6}\b"),  # date-stamped image tags like v20141208
    re.compile(r"\bsha(?:1|256|512)?:[0-9a-fA-F]{6,}\b"),
    re.compile(r"\b[0-9a-f]{12,64}\b"),
]

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

_METADATA_SHAPES = [
    re.compile(r"\b\d{4}-\d{2}-\d{2}(?:[T ]\d{2}:\d{2}(?::\d{2})?)?"),  # ISO dates
    re.compile(r"\b\d{2}:\d{2}:\d{2}\b"),
    re.compile(r"\b[0-9a-fA-F]{32,64}\b"),  # md5/sha digests
    re.compile(r"\b1\d{9}\b"),  # unix epoch seconds (2001--2033)
    re.compile(r"(?i)\bbuild[-_]?(?:id[-_:= ]?)?\d{2,}\b"),
    re.compile(r"\b[A-Za-z0-9+/]{40,}={0,2}\b"),  # base64 signature blobs
]

_CALLEE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(")


_DIGESTISH_RE = re.compile(r"sha\d+[-:]|^[A-Za-z0-9+/]{40,}={0,2}$")


def _is_pathlike(token: str) -> bool:
    bare = token.strip("'\"`;,")
    if _DIGESTISH_RE.search(bare):
        return False  # base64 digests contain '/' but are not paths
    if _URL_RE.search(bare):
        return True
    return "/" in bare or bare.startswith("./") or bare.startswith("..")


def _call_arities(text: str) -> dict[str, list[int]]:
    """Each callee's argument counts, sorted, from the top-level commas of
    its argument lists (best effort)."""
    arities: dict[str, list[int]] = {}
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
    basename = path.replace("\\", "/").rsplit("/", 1)[-1].lower()
    if basename in _MANIFEST_BASENAMES:
        return True
    if re.match(r"requirements[-_.].*\.txt$", basename):
        return True
    return "." in basename and "." + basename.rsplit(".", 1)[-1] in _MANIFEST_EXT


_DATA_VALUE_RE = re.compile(r"""^(?:"[^"]*"|'[^']*'|-?\d[\d_.eE+-]*|true|false|null|none|\[.*\]|\{.*\})[,;]?$""",
                            re.IGNORECASE)


# --- the ordered rules -----------------------------------------------------

def _rule_formatting_ping_pong(ctx) -> bool:
    return normalize_style(ctx.before) == normalize_style(ctx.after)


def _rule_pinned_version_bump(ctx) -> bool:
    if ctx.version_edit is None:
        return False
    changed, parts = ctx.version_edit
    if len(changed) != 1:
        return False
    index, old, new = changed[0]
    if _range_op_adjacent(parts, index):
        return False
    return _version_increased(old, new)


def _rule_conditional_version_bump(ctx) -> bool:
    if ctx.version_edit is None:
        return False
    changed, parts = ctx.version_edit
    return any(_range_op_adjacent(parts, index) for index, _, _ in changed)


def _distro_hits(text: str) -> set[tuple[str, str]]:
    return {(m.group(1).lower(), (m.group(2) or "").lower()) for m in _DISTRO_RE.finditer(text)}


def _rule_distro_bump(ctx) -> bool:
    hits_b, hits_a = _distro_hits(ctx.before), _distro_hits(ctx.after)
    return (hits_b or hits_a) and hits_b != hits_a


def _rule_resource_id(ctx) -> bool:
    removed, added = " ".join(ctx.removed), " ".join(ctx.added)
    for shape in _RESOURCE_SHAPES:
        ids_b = set(shape.findall(removed))
        ids_a = set(shape.findall(added))
        if (ids_b or ids_a) and ids_b != ids_a:
            return True
    return False


def _value_edit(ctx):
    """(key, old, new) when both sides assign the same key a different value."""
    kv_b, kv_a = _key_value(ctx.before), _key_value(ctx.after)
    if not kv_b or not kv_a or kv_b[0] != kv_a[0] or kv_b[1] == kv_a[1]:
        return None
    return kv_b[0], kv_b[1], kv_a[1]


def _rule_service_configuration(ctx) -> bool:
    edit = _value_edit(ctx)
    return edit is not None and bool(_key_words(edit[0]) & _SERVICE_VOCAB)


def _rule_dependency_specification(ctx) -> bool:
    is_import = _IMPORT_RE.match(ctx.before) and _IMPORT_RE.match(ctx.after)
    if not (_is_manifest_path(ctx.path) or is_import):
        return False
    # Copyright headers inside manifests belong to the license rule.
    if _LICENSE_VOCAB.search(ctx.before) or _LICENSE_VOCAB.search(ctx.after):
        return False
    if not ctx.changed:
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
    if not (_LICENSE_VOCAB.search(ctx.before) or _LICENSE_VOCAB.search(ctx.after)):
        return False
    if _YEAR_RE.search(ctx.changed_text):
        return True
    return bool(ctx.changed) and all(_NAME_TOKEN_RE.match(tok.strip(",.;")) for tok in ctx.changed)


def _rule_metadata_change(ctx) -> bool:
    return any(shape.search(ctx.changed_text) for shape in _METADATA_SHAPES)


def _rule_function_call_change(ctx) -> bool:
    # Equal when both sides call the same names, each as often and with the
    # same argument counts; so no call on either side is no match.
    return _call_arities(ctx.before) != _call_arities(ctx.after)


def _rule_long_line_change(ctx) -> bool:
    length = max(len(ctx.before.rstrip()), len(ctx.after.rstrip()))
    if length <= LONG_LINE_THRESHOLD:
        return False
    similarity = difflib.SequenceMatcher(None, ctx.before, ctx.after, autojunk=False).ratio()
    return similarity >= _LONG_LINE_MIN_SIMILARITY


def _rule_external_data(ctx) -> bool:
    if ctx.file_category != ADMINISTRATIVE:
        return False
    edit = _value_edit(ctx)
    return edit is not None and all(_DATA_VALUE_RE.match(value) for value in edit[1:])


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


class _PairContext:
    """The views of one revision pair that several rules read, each derived
    once: the decoded sides, the word diff and the version-token edit."""

    def __init__(self, before: bytes, after: bytes, file_category: str, path: str):
        self.before = before.decode("utf-8", "replace")
        self.after = after.decode("utf-8", "replace")
        self.file_category = file_category
        self.path = path
        # Whitespace-word diff: the words removed from and added to the line.
        words_b, words_a = self.before.split(), self.after.split()
        removed: list[str] = []
        added: list[str] = []
        matcher = difflib.SequenceMatcher(a=words_b, b=words_a, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag in ("replace", "delete"):
                removed.extend(words_b[i1:i2])
            if tag in ("replace", "insert"):
                added.extend(words_a[j1:j2])
        self.removed, self.added = removed, added
        self.changed = removed + added
        self.changed_text = " ".join(self.changed)
        # When the sides match outside dotted-numeric tokens: the changed
        # tokens as (index, old, new) and the shared text parts; else None.
        split_b, split_a = _VERSION_TOKEN.split(self.before), _VERSION_TOKEN.split(self.after)
        parts = split_b[::2]
        self.version_edit = None
        if parts == split_a[::2]:
            changed = [(i, old, new) for i, (old, new)
                       in enumerate(zip(split_b[1::2], split_a[1::2])) if old != new]
            self.version_edit = changed, parts


def _winner(ctx: _PairContext) -> Pattern:
    """The first rule that matches; else evolution for code, unclassified otherwise."""
    for pattern, rule in _RULES:
        if rule(ctx):
            return pattern
    return (Pattern.NORMAL_SOFTWARE_EVOLUTION if ctx.file_category == PROGRAMMING
            else Pattern.UNCLASSIFIED)


def classify_pair(pair: RevisionPair) -> PatternLabel:
    """Label one before/after revision pair.

    The first matching rule in ``_RULES`` order wins; otherwise substantive
    code edits are normal software evolution and anything else is
    unclassified.  Identical before/after is a caller error.
    """
    if pair.before == pair.after:
        raise ValueError("classify_pair requires before != after")
    ctx = _PairContext(pair.before, pair.after, pair.file_category, pair.path)
    return PatternLabel(_winner(ctx))


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
        raise HistoryTooShort(f"history of length {len(history)} has no revision pairs")

    votes: Counter = Counter()
    contents = line.contents()
    for prev, curr in zip(contents, contents[1:]):
        if prev != curr:  # else no byte-level edit to classify
            votes[_winner(_PairContext(prev, curr, file_category, path))] += 1
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

@dataclass(frozen=True)
class Chao1Input:
    s_obs: int
    f1: int
    f2: int

    def __post_init__(self) -> None:
        if min(self.s_obs, self.f1, self.f2) < 0:
            raise ValueError("counts must be non-negative")
        if self.f1 + self.f2 > self.s_obs:
            raise ValueError("singletons plus doubletons cannot exceed observed richness")


def chao1(data: Chao1Input) -> float:
    """Chao1 lower-bound richness estimate.

    Classic form when doubletons exist; the bias-corrected form
    ``S + f1(f1-1) / (2(f2+1))`` otherwise.
    """
    if data.f2 > 0:
        return data.s_obs + data.f1 ** 2 / (2 * data.f2)
    return data.s_obs + data.f1 * (data.f1 - 1) / (2 * (data.f2 + 1))


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
        out.append((k, s_obs, chao1(Chao1Input(s_obs, f1, f2))))
    return out


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    observed_agreement: float
    expected_agreement: float


def cohens_kappa(labels_a: Sequence, labels_b: Sequence) -> KappaResult:
    """Chance-corrected agreement between two equal-length label lists."""
    if len(labels_a) != len(labels_b):
        raise LengthMismatch(f"{len(labels_a)} vs {len(labels_b)} labels")
    if not labels_a:
        raise LengthMismatch("label lists must be non-empty")
    n = len(labels_a)
    p_o = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    marg_a, marg_b = Counter(labels_a), Counter(labels_b)
    p_e = sum(marg_a[label] * marg_b.get(label, 0) for label in marg_a) / (n * n)
    if p_e >= 1.0:
        if p_o == 1.0:
            return KappaResult(1.0, p_o, p_e)
        raise DegenerateMarginals("expected agreement is 1 but raters disagree")
    return KappaResult((p_o - p_e) / (1 - p_e), p_o, p_e)


# --- label file interchange -------------------------------------------------

def load_label_overrides(path: str | Path) -> dict[tuple[str, int], Pattern]:
    """Read a label CSV (path, line_number, label) into an override map; a
    leading byte-order mark is ignored."""
    overrides: dict[tuple[str, int], Pattern] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"path", "line_number", "label"} <= set(reader.fieldnames):
            raise ValueError("override file needs columns: path, line_number, label")
        for rec in reader:
            try:
                overrides[(rec["path"], int(rec["line_number"]))] = Pattern(rec["label"])
            except (TypeError, ValueError) as exc:  # a short row reads as None
                raise ValueError(f"override file line {reader.line_num}: {exc}") from None
    return overrides


def kappa_between_label_files(path_a: str | Path, path_b: str | Path) -> KappaResult:
    """Cohen's kappa over the (path, line) keys two label files share."""
    a = load_label_overrides(path_a)
    b = load_label_overrides(path_b)
    keys = sorted(a.keys() & b.keys())
    if not keys:
        raise LengthMismatch("label files share no (path, line_number) keys")
    return cohens_kappa([a[k] for k in keys], [b[k] for k in keys])
