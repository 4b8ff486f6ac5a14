"""Candidate repository selection against a code-hosting metadata API.

Applies the inclusion criteria (popularity floor, minimum commit count,
continuous half-year activity) and draws a seeded stratified sample over
five popularity strata.  Metadata responses are cached on disk, one JSON
file per repository per query date, and rate-limit responses are retried
with the server-provided backoff.  ``Unavailable`` marks a repository the
server will not describe; every other ``SelectorError`` means the sample
cannot be drawn as asked.
"""

from __future__ import annotations

import json
import logging
import math
import random
import re
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlparse

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

DEFAULT_API_BASE = "https://api.github.com"
HALF_YEAR_SECONDS = 6 * 30.44 * 86400
TIMEOUT_S = 30.0  # per request
MAX_RETRIES = 3  # per request, after a rate-limited response

STRATA: tuple[tuple[int, int], ...] = (
    (11, 100),
    (101, 1_000),
    (1_001, 10_000),
    (10_001, 100_000),
    (100_001, 1_000_000),
)


class SelectorError(Exception):
    pass


class Unavailable(SelectorError):
    """The server will not give this repository's metadata: skip it, not the run."""


class NotFound(Unavailable):
    pass


class RateLimited(SelectorError):
    def __init__(self, retry_after: float):
        self.retry_after = retry_after
        super().__init__(f"rate limited; retry after {retry_after:.0f}s")


@dataclass(frozen=True)
class RepoMeta:
    owner_and_name: str
    stars: int
    forks: int
    total_commits: int
    created_at: int  # UTC epoch seconds
    half_year_commit_buckets: tuple[int, ...]

    @property
    def popularity(self) -> int:
        return max(self.stars, self.forks)


@dataclass(frozen=True)
class InclusionCriteria:
    min_stars_or_forks: int = 11  # "more than ten": ten itself is excluded
    min_commits: int = 10_000

    def __post_init__(self) -> None:
        if self.min_stars_or_forks <= 0 or self.min_commits <= 0:
            raise ValueError("thresholds must be strictly positive")


def assign_stratum(popularity: int) -> tuple[int, int] | None:
    """The unique ``(lower, upper)`` entry of STRATA, or None outside [11, 1000000]."""
    if popularity < 0:
        raise ValueError("popularity must be non-negative")
    for lower, upper in STRATA:
        if lower <= popularity <= upper:
            return lower, upper
    return None


def passes_inclusion(meta: RepoMeta, criteria: InclusionCriteria = InclusionCriteria()
                     ) -> tuple[bool, list[str]]:
    """Evaluate every inclusion criterion; failed ones are named."""
    failed: list[str] = []
    if meta.popularity < criteria.min_stars_or_forks:
        failed.append("min_stars_or_forks")
    if meta.total_commits < criteria.min_commits:
        failed.append("min_commits")
    if any(bucket == 0 for bucket in meta.half_year_commit_buckets):
        failed.append("commit_every_half_year")
    return (not failed, failed)


def sample_stratified(candidates: list[tuple[RepoMeta, tuple[int, int]]], per_stratum: int,
                      seed: int) -> list[RepoMeta]:
    """Seeded draw of at most ``per_stratum`` repos from each stratum.

    Strata are processed in ascending order with a single seeded generator;
    the same seed and input order always reproduce the same selection.  An
    empty stratum contributes nothing and is no error.
    """
    if per_stratum < 1:
        raise ValueError("per_stratum must be at least 1")
    buckets: dict[tuple[int, int], list[RepoMeta]] = {s: [] for s in STRATA}
    for meta, stratum in candidates:
        buckets[stratum].append(meta)
    rng = random.Random(seed)
    selected: list[RepoMeta] = []
    for bounds in STRATA:
        population = buckets[bounds]
        if len(population) <= per_stratum:
            selected.extend(population)
        else:
            selected.extend(rng.sample(population, per_stratum))
    return selected


class MetadataClient:
    """Read-only metadata client with disk caching and backoff on rate limits."""

    def __init__(
        self,
        api_base: str = DEFAULT_API_BASE,
        auth_token: str | None = None,
        cache_dir: str | Path | None = None,
    ):
        import requests  # here only: analyze loads the standard library alone

        self.api_base = api_base.rstrip("/")
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.session = requests.Session()
        self.session.headers.update({
            "Accept": "application/vnd.github+json",
            "User-Agent": "linechurn-selector",
        })
        if auth_token:
            self.session.headers["Authorization"] = f"Bearer {auth_token}"
        # auth_token is the only credential.  The environment gives the proxy and CA-bundle
        # settings for api_base, once: trusted per request, ~/.netrc would replace the token.
        settings = self.session.merge_environment_settings(self.api_base, {}, None, None, None)
        self.session.proxies, self.session.verify = settings["proxies"], settings["verify"]
        self.session.trust_env = False

    # -- HTTP plumbing -----------------------------------------------------

    def _get(self, path: str, params: dict | None = None) -> requests.Response:
        url = f"{self.api_base}{path}"
        attempt = 0
        while True:
            try:
                response = self.session.get(url, params=params, timeout=TIMEOUT_S)
            except OSError as exc:  # every requests error is one
                raise SelectorError(f"GET {url}: {exc}") from exc
            status = response.status_code
            if status == 404:
                raise NotFound(f"{path} not found")
            if status == 451 or (status == 403 and not _rate_limited(response)):
                raise Unavailable(f"GET {url}: {status} {_message(response)}")
            if status in (403, 429):
                retry_after = _retry_after_seconds(response)
                if attempt >= MAX_RETRIES:
                    raise RateLimited(retry_after)
                attempt += 1
                logger.warning("rate limited on %s; sleeping %.1fs (retry %d/%d)",
                               path, retry_after, attempt, MAX_RETRIES)
                time.sleep(min(retry_after, 60.0))
                continue
            if not response.ok:
                raise SelectorError(f"GET {url}: {status} {_message(response) or response.reason}")
            return response

    def _count_via_pagination(self, path: str, params: dict) -> int:
        """Item count from the Link header's last-page number (per_page=1)."""
        response = self._get(path, {**params, "per_page": 1})
        last = response.links.get("last", {}).get("url", "")
        page = parse_qs(urlparse(last).query).get("page")
        return int(page[0]) if page else len(response.json())

    # -- the fetch operation -------------------------------------------------

    def fetch_repo_meta(self, owner_and_name: str, now: int | None = None) -> RepoMeta:
        """Populate RepoMeta for one ``owner/repo``.

        Half-year buckets are presence samples aligned to the creation date:
        bucket k is 1 when at least one commit exists in the k-th half-year
        interval since creation, else 0.
        """
        check_repo_name(owner_and_name)
        now_ts = int(time.time()) if now is None else now

        cached = self._cache_read(owner_and_name, now_ts)
        if cached is not None:
            return cached

        info = self._get(f"/repos/{owner_and_name}").json()
        try:
            created_at = _parse_iso8601(info["created_at"])
        except (AttributeError, KeyError, TypeError, ValueError):
            raise SelectorError(
                f"/repos/{owner_and_name}: no valid created_at in the response") from None
        total_commits = self._count_via_pagination(f"/repos/{owner_and_name}/commits", {})

        buckets: list[int] = []
        for start, end in _half_year_intervals(created_at, now_ts):
            commits = self._get(
                f"/repos/{owner_and_name}/commits",
                {
                    "since": _iso8601(start),
                    "until": _iso8601(end),
                    "per_page": 1,
                },
            ).json()
            buckets.append(1 if commits else 0)

        meta = RepoMeta(
            owner_and_name=owner_and_name,
            stars=int(info.get("stargazers_count", 0)),
            forks=int(info.get("forks_count", 0)),
            total_commits=total_commits,
            created_at=created_at,
            half_year_commit_buckets=tuple(buckets),
        )
        self._cache_write(owner_and_name, now_ts, meta)
        return meta

    # -- cache ----------------------------------------------------------------

    def _cache_path(self, owner_and_name: str, now_ts: int) -> Path | None:
        if self.cache_dir is None:
            return None
        day = datetime.fromtimestamp(now_ts, tz=timezone.utc).strftime("%Y-%m-%d")
        safe = owner_and_name.replace("/", "__")
        return self.cache_dir / f"{safe}__{day}.json"

    def _cache_read(self, owner_and_name: str, now_ts: int) -> RepoMeta | None:
        path = self._cache_path(owner_and_name, now_ts)
        if path is None:
            return None
        try:
            record = json.loads(path.read_text("utf-8"))
            record["half_year_commit_buckets"] = tuple(record["half_year_commit_buckets"])
            return RepoMeta(**record)
        except (OSError, KeyError, TypeError, ValueError):  # absent, corrupt or another shape
            return None

    def _cache_write(self, owner_and_name: str, now_ts: int, meta: RepoMeta) -> None:
        path = self._cache_path(owner_and_name, now_ts)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(asdict(meta), sort_keys=True) + "\n", "utf-8")


def check_repo_name(owner_and_name: str) -> None:
    """Raise ValueError unless the name has the form ``owner/repo``: two non-empty
    parts of letters, digits, ``.``, ``_`` and ``-``, safe to paste into a URL path."""
    if not re.fullmatch(r"[A-Za-z0-9._-]+/[A-Za-z0-9._-]+", owner_and_name):
        raise ValueError(f"repository name must be 'owner/repo': {owner_and_name!r}")


def _half_year_intervals(created_at: int, now_ts: int) -> list[tuple[int, int]]:
    age = max(0, now_ts - created_at)
    n = max(1, math.ceil(age / HALF_YEAR_SECONDS))
    return [
        (
            int(created_at + k * HALF_YEAR_SECONDS),
            min(int(created_at + (k + 1) * HALF_YEAR_SECONDS), now_ts),
        )
        for k in range(n)
    ]


def _message(response: requests.Response) -> str:
    """The ``message`` of a JSON error body, or an empty string."""
    try:
        return str(response.json()["message"])
    except (ValueError, TypeError, KeyError):  # not a JSON object with a message
        return ""


def _rate_limited(response: requests.Response) -> bool:
    """Whether a 403 is GitHub's primary rate limit (``X-RateLimit-Remaining: 0``)
    or its secondary one (``Retry-After``, or the message) rather than a refusal."""
    return ("Retry-After" in response.headers
            or response.headers.get("X-RateLimit-Remaining") == "0"
            or "rate limit" in _message(response).lower())


def _retry_after_seconds(response: requests.Response) -> float:
    """``Retry-After``'s seconds, else those until ``X-RateLimit-Reset``, else 1."""
    for header, origin in (("Retry-After", 0.0), ("X-RateLimit-Reset", time.time())):
        try:
            return max(0.0, float(response.headers[header]) - origin)
        except (KeyError, ValueError):  # absent, or not a number
            pass
    return 1.0


def _parse_iso8601(text: str) -> int:
    return int(datetime.fromisoformat(text.replace("Z", "+00:00")).timestamp())


def _iso8601(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
