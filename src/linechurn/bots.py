"""Committer aggregation, bot flagging, and bot-vs-human churn shares.

Commits are grouped by the exact (committer name, committer email) pair; an
identity is flagged as a bot when a configured keyword appears in either
field, case-insensitively.  The manual-review step becomes a persisted
allowlist/denylist so audits are reproducible: allowlisted identities are
never bots regardless of keyword hits, denylisted ones always are.

``bot_share`` counts bot and human attributions per pattern.  An overall
share comes from the caller's own per-commit flags, since a commit that
touches lines of two patterns is one attribution to each.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from .diffstream import CommitHeader

DEFAULT_KEYWORDS = ("bot", "auto")
# "Drobotov" is a human surname that happens to contain "bot".
DEFAULT_ALLOWLIST = ("Drobotov",)


@dataclass(frozen=True)
class CommitterIdentity:
    name: str
    email: str
    commit_count: int
    is_bot: bool = False
    match_reason: str | None = None


@dataclass(frozen=True)
class BotConfig:
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS
    allowlist: tuple[str, ...] = DEFAULT_ALLOWLIST
    denylist: tuple[str, ...] = ()

    @classmethod
    def from_file(cls, path: str | Path) -> "BotConfig":
        """Parse the line-oriented key=value config.

        Recognised keys (repeatable): ``keyword``, ``allow``, ``deny``.
        Blank lines and ``#`` comments are ignored.  Keywords given in the
        file replace the defaults; allow entries extend them.  A value may
        not be empty: an empty keyword is in every name.
        """
        keywords: list[str] = []
        allow: list[str] = list(DEFAULT_ALLOWLIST)
        deny: list[str] = []
        for raw in Path(path).read_text("utf-8").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad bot-config line (expected key=value): {raw!r}")
            key, value = key.strip().lower(), value.strip()
            if key in ("keyword", "allow", "deny") and not value:
                raise ValueError(f"bad bot-config line (empty {key}): {raw!r}")
            if key == "keyword":
                keywords.append(value)
            elif key == "allow":
                allow.append(value)
            elif key == "deny":
                deny.append(value)
            else:
                raise ValueError(f"unknown bot-config key {key!r}")
        return cls(
            keywords=tuple(keywords) if keywords else DEFAULT_KEYWORDS,
            allowlist=tuple(allow),
            denylist=tuple(deny),
        )


def aggregate_committers(commit_headers: Iterable[CommitHeader]) -> list[CommitterIdentity]:
    """Group commits by exact (committer name, email); counts sum to input."""
    counts: Counter = Counter()
    for header in commit_headers:
        counts[(header.committer_name, header.committer_email)] += 1
    return [
        CommitterIdentity(name=name, email=email, commit_count=count)
        for (name, email), count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]


def flag_bot(identity: CommitterIdentity, config: BotConfig = BotConfig()) -> CommitterIdentity:
    """Attach the bot verdict: keyword hit minus allowlist, plus denylist."""
    if identity.name in config.denylist or identity.email in config.denylist:
        return replace(identity, is_bot=True, match_reason="denylist")
    if identity.name in config.allowlist or identity.email in config.allowlist:
        return replace(identity, is_bot=False, match_reason=None)
    haystacks = (identity.name.lower(), identity.email.lower())
    for keyword in config.keywords:
        needle = keyword.lower()
        for hay in haystacks:
            if needle in hay:
                return replace(identity, is_bot=True, match_reason=f"keyword:{keyword}")
    return replace(identity, is_bot=False, match_reason=None)


@dataclass(frozen=True)
class BotShare:
    bot: int
    human: int

    @property
    def total(self) -> int:
        return self.bot + self.human

    @property
    def ratio(self) -> float:
        return self.bot / self.total if self.total else 0.0


def bot_share(labeled: Iterable[tuple[str, bool]]) -> dict[str, BotShare]:
    """Bot and human counts per pattern label, in pattern order.

    Each input element is one (pattern label, is bot) attribution; patterns
    with zero attributions simply do not appear.
    """
    per: dict[str, list[int]] = {}  # label -> [bot, human]
    for label, is_bot in labeled:
        bucket = per.setdefault(label, [0, 0])
        bucket[0 if is_bot else 1] += 1
    return {k: BotShare(b, h) for k, (b, h) in sorted(per.items())}
