"""Repository selection: inclusion criteria, strata, stratified sampling,
and the metadata client against a local stub API server."""

from __future__ import annotations

import base64
import json
import random
import socket
import threading
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import groupby
from urllib.parse import parse_qs, urlparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linechurn.cli as cli
from linechurn.selector import (
    HALF_YEAR_SECONDS,
    InclusionCriteria,
    MetadataClient,
    NotFound,
    RateLimited,
    RepoMeta,
    SelectorError,
    assign_stratum,
    passes_inclusion,
    sample_stratified,
)

NOW = int(datetime(2024, 10, 20, tzinfo=timezone.utc).timestamp())


def meta(stars=2000, forks=100, commits=20_000, buckets=(1, 1, 1, 1),
         name="owner/repo") -> RepoMeta:
    return RepoMeta(name, stars, forks, commits, NOW - len(buckets) * int(HALF_YEAR_SECONDS),
                    tuple(buckets))


class TestPassesInclusion:
    def test_ten_stars_excluded(self):
        ok, failed = passes_inclusion(meta(stars=10, forks=5))
        assert not ok and failed == ["min_stars_or_forks"]

    def test_observed_minimum_commit_count_passes(self):
        ok, failed = passes_inclusion(meta(stars=2000, commits=10_114))
        assert ok and failed == []

    def test_commits_below_threshold(self):
        ok, failed = passes_inclusion(meta(commits=9_999))
        assert not ok and failed == ["min_commits"]

    def test_empty_half_year_bucket(self):
        ok, failed = passes_inclusion(meta(buckets=(1, 0, 1)))
        assert not ok and failed == ["commit_every_half_year"]

    def test_forks_count_toward_popularity(self):
        ok, _ = passes_inclusion(meta(stars=0, forks=50))
        assert ok

    @given(st.integers(0, 3000), st.integers(0, 3000), st.integers(0, 30000),
           st.integers(1, 50), st.integers(1, 30000))
    @settings(max_examples=150, deadline=None)
    def test_monotone_raising_thresholds(self, stars, forks, commits, d_pop, d_commits):
        base = InclusionCriteria(min_stars_or_forks=11, min_commits=10_000)
        tighter = InclusionCriteria(min_stars_or_forks=11 + d_pop,
                                    min_commits=10_000 + d_commits)
        candidate = meta(stars=stars, forks=forks, commits=commits)
        ok_base, _ = passes_inclusion(candidate, base)
        ok_tight, _ = passes_inclusion(candidate, tighter)
        assert not (ok_tight and not ok_base)


class TestAssignStratum:
    @pytest.mark.parametrize("popularity,expected", [
        (50, (11, 100)),
        (10, None),
        (0, None),
        (11, (11, 100)),
        (100, (11, 100)),
        (101, (101, 1000)),
        (100_001, (100_001, 1_000_000)),
        (1_000_000, (100_001, 1_000_000)),
        (1_000_001, None),
    ])
    def test_boundaries(self, popularity, expected):
        assert assign_stratum(popularity) == expected

    @given(st.integers(11, 1_000_000))
    @settings(max_examples=300, deadline=None)
    def test_total_partition(self, popularity):
        matches = [(lo, hi) for lo, hi in
                   ((11, 100), (101, 1000), (1001, 10000), (10001, 100000), (100001, 1000000))
                   if lo <= popularity <= hi]
        assert len(matches) == 1
        assert assign_stratum(popularity) == matches[0]


class TestSampleStratified:
    def _candidates(self, spec: dict[int, int]) -> list[tuple[RepoMeta, tuple[int, int]]]:
        out = []
        for lower, count in spec.items():
            stratum = assign_stratum(lower)
            for i in range(count):
                out.append((meta(stars=lower, name=f"o/{lower}-{i}"), stratum))
        return out

    def test_quota_exceeding_population_returns_all(self):
        candidates = self._candidates({11: 3})
        chosen = sample_stratified(candidates, per_stratum=5, seed=1)
        assert len(chosen) == 3

    def test_deterministic_for_same_seed(self):
        candidates = self._candidates({11: 30, 101: 30})
        first = sample_stratified(candidates, per_stratum=4, seed=42)
        second = sample_stratified(candidates, per_stratum=4, seed=42)
        assert [m.owner_and_name for m in first] == [m.owner_and_name for m in second]

    def test_hundred_candidates_two_per_stratum(self):
        spec = {11: 20, 101: 20, 1001: 20, 10_001: 20, 100_001: 20}
        candidates = self._candidates(spec)
        chosen = sample_stratified(candidates, per_stratum=2, seed=7)
        assert len(chosen) == 10
        per = {}
        for m in chosen:
            lower, _ = assign_stratum(m.popularity)
            per[lower] = per.get(lower, 0) + 1
        assert per == {11: 2, 101: 2, 1001: 2, 10_001: 2, 100_001: 2}

    def test_matches_reference_seeded_draw(self):
        # Independent re-derivation of the documented draw contract: one
        # Random(seed), strata ascending, random.sample per bucket.
        spec = {11: 12, 101: 9, 1001: 7, 10_001: 5, 100_001: 4}
        candidates = self._candidates(spec)
        chosen = sample_stratified(candidates, per_stratum=3, seed=99)

        rng = random.Random(99)
        expected = []
        for lower in (11, 101, 1001, 10_001, 100_001):
            bucket = [m for m, (lo, _) in candidates if lo == lower]
            expected.extend(rng.sample(bucket, 3))
        assert [m.owner_and_name for m in chosen] == [m.owner_and_name for m in expected]

    def test_output_subset_of_input(self):
        candidates = self._candidates({11: 8, 101: 2})
        names = {m.owner_and_name for m, _ in candidates}
        chosen = sample_stratified(candidates, per_stratum=3, seed=0)
        assert {m.owner_and_name for m in chosen} <= names


# --- stub metadata API -------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    repos: dict[str, dict] = {}
    rate_limit_hits: dict[str, int] = {}
    request_log: list[str] = []
    authorization_log: list[str | None] = []

    def log_message(self, *args):  # quiet
        pass

    def _send(self, code: int, payload, headers: dict | None = None):
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        _StubHandler.request_log.append(self.path)
        _StubHandler.authorization_log.append(self.headers.get("Authorization"))
        parsed = urlparse(self.path)
        parts = parsed.path.strip("/").split("/")
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}

        if len(parts) >= 3 and parts[0] == "repos":
            full_name = f"{parts[1]}/{parts[2]}"
            repo = _StubHandler.repos.get(full_name)
            if repo is None:
                self._send(404, {"message": "Not Found"})
                return
            if "moved_to" in repo:  # a renamed repository: the same host, a new path
                self.send_response(301)
                self.send_header("Location", self.path.replace(
                    f"/repos/{full_name}", f"/repos/{repo['moved_to']}", 1))
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            if repo.get("ratelimit_first", 0) > _StubHandler.rate_limit_hits.get(full_name, 0):
                _StubHandler.rate_limit_hits[full_name] = \
                    _StubHandler.rate_limit_hits.get(full_name, 0) + 1
                self._send(*repo.get("limit", (429, {"message": "rate limited"},
                                               {"Retry-After": "0"})))
                return
            if len(parts) == 3:
                info = {"stargazers_count": repo["stars"], "forks_count": repo["forks"],
                        "archived": False}
                if repo["created_at"] is not None:
                    info["created_at"] = repo["created_at"]
                self._send(200, info)
                return
            if parts[3] == "commits":
                if "since" in params:  # bucket probe
                    start = params["since"]
                    empty = start in repo.get("empty_bucket_starts", ())
                    self._send(200, [] if empty else [{"sha": "abc"}])
                    return
                headers = {}
                total = repo["total_commits"]
                if total > 1:
                    headers["Link"] = (
                        f'<http://x/repos/{full_name}/commits?per_page=1&page={total}>; '
                        f'rel="last"'
                    )
                self._send(200, [{"sha": "abc"}], headers)
                return
        self._send(404, {"message": "Not Found"})


@pytest.fixture
def stub_api():
    _StubHandler.repos = {}
    _StubHandler.rate_limit_hits = {}
    _StubHandler.request_log = []
    _StubHandler.authorization_log = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    # A short poll: shutdown() waits for serve_forever's next poll to end.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", _StubHandler
    server.shutdown()
    server.server_close()


def _created_at_iso(n_half_years: float) -> str:
    created = NOW - int(n_half_years * HALF_YEAR_SECONDS)
    return datetime.fromtimestamp(created, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class TestMetadataClient:
    def test_fetch_populates_meta(self, stub_api, tmp_path):
        base, stub = stub_api
        stub.repos["octo/widget"] = {
            "stars": 2000, "forks": 150, "total_commits": 10_114,
            "created_at": _created_at_iso(3.5),
        }
        client = MetadataClient(api_base=base, cache_dir=tmp_path)
        result = client.fetch_repo_meta("octo/widget", now=NOW)
        assert result.stars == 2000
        assert result.total_commits == 10_114
        assert len(result.half_year_commit_buckets) == 4  # ceil(3.5)
        assert all(b == 1 for b in result.half_year_commit_buckets)

    def test_not_found(self, stub_api):
        base, _ = stub_api
        client = MetadataClient(api_base=base)
        with pytest.raises(NotFound):
            client.fetch_repo_meta("no/such-repo", now=NOW)

    def test_zero_commit_bucket_reported(self, stub_api):
        base, stub = stub_api
        created_iso = _created_at_iso(2.0)
        created_ts = NOW - int(2.0 * HALF_YEAR_SECONDS)
        second_bucket_start = datetime.fromtimestamp(
            created_ts + int(HALF_YEAR_SECONDS), tz=timezone.utc
        ).strftime("%Y-%m-%dT%H:%M:%SZ")
        stub.repos["octo/idle"] = {
            "stars": 50, "forks": 1, "total_commits": 12_000,
            "created_at": created_iso,
            "empty_bucket_starts": (second_bucket_start,),
        }
        client = MetadataClient(api_base=base)
        result = client.fetch_repo_meta("octo/idle", now=NOW)
        assert result.half_year_commit_buckets == (1, 0)

    def test_rate_limit_retried_then_succeeds(self, stub_api):
        base, stub = stub_api
        stub.repos["octo/busy"] = {
            "stars": 11, "forks": 0, "total_commits": 10_000,
            "created_at": _created_at_iso(1.0),
            "ratelimit_first": 2,
        }
        client = MetadataClient(api_base=base)
        result = client.fetch_repo_meta("octo/busy", now=NOW)
        assert result.stars == 11

    def test_rate_limit_exhausted_raises(self, stub_api):
        base, stub = stub_api
        stub.repos["octo/wall"] = {
            "stars": 11, "forks": 0, "total_commits": 10_000,
            "created_at": _created_at_iso(1.0),
            "ratelimit_first": 99,
        }
        client = MetadataClient(api_base=base)
        with pytest.raises(RateLimited) as excinfo:
            client.fetch_repo_meta("octo/wall", now=NOW)
        assert excinfo.value.retry_after >= 0

    def test_cache_short_circuits_network(self, stub_api, tmp_path):
        base, stub = stub_api
        stub.repos["octo/cached"] = {
            "stars": 300, "forks": 2, "total_commits": 11_000,
            "created_at": _created_at_iso(1.2),
        }
        client = MetadataClient(api_base=base, cache_dir=tmp_path)
        first = client.fetch_repo_meta("octo/cached", now=NOW)
        requests_after_first = len(stub.request_log)
        second = client.fetch_repo_meta("octo/cached", now=NOW)
        assert len(stub.request_log) == requests_after_first
        assert second == first
        assert list(tmp_path.glob("octo__cached__*.json"))

    @pytest.mark.parametrize("status, payload, headers, backoff", [
        pytest.param(429, {"message": "slow down"}, {}, 1.0, id="429"),
        pytest.param(403, {"message": "x"}, {"Retry-After": "0"}, 0.0, id="403-retry-after"),
        pytest.param(403, {"message": "x"}, {"X-RateLimit-Remaining": "0",
                                            "X-RateLimit-Reset": "0"}, 0.0,
                     id="403-remaining-0"),
        pytest.param(403, {"message": "API rate limit exceeded for 127.0.0.1."}, {}, 1.0,
                     id="403-message"),
        # An unparseable Retry-After falls back to the reset time (far off,
        # so the sleep is capped), and an unparseable reset time to 1 s.
        pytest.param(429, {"message": "slow down"},
                     {"Retry-After": "soon", "X-RateLimit-Reset": "9999999999"}, 60.0,
                     id="retry-after-unparseable"),
        pytest.param(429, {"message": "slow down"},
                     {"Retry-After": "soon", "X-RateLimit-Reset": "never"}, 1.0,
                     id="reset-unparseable"),
    ])
    def test_rate_limit_signals_retried(self, status, payload, headers, backoff, stub_api,
                                        monkeypatch):
        base, stub = stub_api
        stub.repos["octo/busy"] = {
            "stars": 11, "forks": 0, "total_commits": 10_000,
            "created_at": _created_at_iso(1.0),
            "ratelimit_first": 1, "limit": (status, payload, headers),
        }
        slept = []
        monkeypatch.setattr("linechurn.selector.time.sleep", slept.append)
        result = MetadataClient(api_base=base).fetch_repo_meta("octo/busy", now=NOW)
        assert result.stars == 11
        assert slept == [backoff]

    def test_forbidden_is_not_a_rate_limit(self, stub_api, monkeypatch):
        base, stub = stub_api
        stub.repos["octo/private"] = {
            "stars": 11, "forks": 0, "total_commits": 10_000,
            "created_at": _created_at_iso(1.0),
            "ratelimit_first": 99,
            "limit": (403, {"message": "Resource not accessible by integration"}, {}),
        }
        slept = []
        monkeypatch.setattr("linechurn.selector.time.sleep", slept.append)
        with pytest.raises(SelectorError) as excinfo:
            MetadataClient(api_base=base).fetch_repo_meta("octo/private", now=NOW)
        assert not isinstance(excinfo.value, RateLimited)
        assert "403 Resource not accessible by integration" in str(excinfo.value)
        assert len(stub.request_log) == 1 and slept == []

    def test_token_sent_as_bearer(self, stub_api):
        base, stub = stub_api
        _candidates(stub, 1)
        MetadataClient(api_base=base, auth_token="s3cret").fetch_repo_meta("octo/r0", now=NOW)
        assert stub.authorization_log
        assert set(stub.authorization_log) == {"Bearer s3cret"}

    @pytest.mark.parametrize("token, sent", [("s3cret", "Bearer s3cret"), (None, None)],
                             ids=["token", "no-token"])
    def test_netrc_is_never_read(self, token, sent, stub_api, tmp_path, monkeypatch):
        """A ~/.netrc login for the API host neither replaces the token nor
        stands in for a missing one, also after a same-host redirect."""
        base, stub = stub_api
        netrc = tmp_path / ".netrc"
        netrc.write_text("machine 127.0.0.1 login someone password hunter2\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("NETRC", raising=False)
        _candidates(stub, 1)
        stub.repos["octo/old"] = {"moved_to": "octo/r0"}
        client = MetadataClient(api_base=base, auth_token=token)
        assert client.fetch_repo_meta("octo/old", now=NOW).total_commits == 10_000
        assert {name for name, _ in groupby(_requested(stub))} == {"octo/old", "octo/r0"}
        netrc_login = "Basic " + base64.b64encode(b"someone:hunter2").decode()
        assert netrc_login not in stub.authorization_log
        assert set(stub.authorization_log) == {sent}

    def test_proxy_from_the_environment_carries_every_request(self, stub_api, monkeypatch):
        """``HTTP_PROXY`` still applies: the stub, answering as the proxy, gets
        every request for an API on another host, named by its absolute URL."""
        proxy, stub = stub_api
        for name in ("http_proxy", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", proxy)
        base = _closed_port_base().replace("127.0.0.1", "localhost")  # refused if not proxied
        _candidates(stub, 1)
        assert MetadataClient(api_base=base).fetch_repo_meta("octo/r0", now=NOW).stars == 20
        assert len(stub.request_log) == 3  # the repository, its commit count, one half-year
        assert all(path.startswith(f"{base}/repos/octo/r0") for path in stub.request_log)

    def test_one_commit_without_link_header(self, stub_api):
        base, stub = stub_api
        stub.repos["octo/tiny"] = {"stars": 20, "forks": 0, "total_commits": 1,
                                   "created_at": _created_at_iso(1.0)}
        result = MetadataClient(api_base=base).fetch_repo_meta("octo/tiny", now=NOW)
        assert result.total_commits == 1

    def test_invalid_name_rejected(self):
        client = MetadataClient(api_base="http://127.0.0.1:1")
        with pytest.raises(ValueError):
            client.fetch_repo_meta("not-a-repo-name", now=NOW)

    @pytest.mark.parametrize("content", [
        pytest.param('{"stars": 1', id="corrupt"),
        pytest.param(json.dumps({"owner_and_name": "octo/old", "stars": 300, "forks": 2,
                                 "total_commits": 11_000, "created_at": NOW,
                                 "half_year_commit_buckets": [1], "archived": False}),
                     id="archived"),
    ])
    def test_cache_record_that_does_not_load_is_a_miss(self, content, stub_api, tmp_path):
        base, stub = stub_api
        stub.repos["octo/old"] = {
            "stars": 300, "forks": 2, "total_commits": 11_000,
            "created_at": _created_at_iso(1.2),
        }
        cache = tmp_path / "octo__old__2024-10-20.json"
        cache.write_text(content)
        result = MetadataClient(api_base=base, cache_dir=tmp_path).fetch_repo_meta(
            "octo/old", now=NOW)
        assert result.stars == 300 and stub.request_log  # fetched again
        assert sorted(json.loads(cache.read_text())) == [
            "created_at", "forks", "half_year_commit_buckets", "owner_and_name", "stars",
            "total_commits"]


def _candidates(stub, n: int) -> list[str]:
    names = [f"octo/r{i}" for i in range(n)]
    for i, name in enumerate(names):
        stub.repos[name] = {
            "stars": 20 + i, "forks": 0, "total_commits": 10_000 + i,
            "created_at": _created_at_iso(1.0),
        }
    return names


def _closed_port_base() -> str:
    """The base URL of a local port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


def _requested(stub) -> list[str]:
    """The repository of each request, in the order the stub received them."""
    return ["/".join(urlparse(path).path.split("/")[2:4]) for path in stub.request_log]


class TestSelectCli:
    def test_select_fetches_in_input_order(self, stub_api, tmp_path, capsys):
        base, stub = stub_api
        names = _candidates(stub, 5) + ["octo/missing"]
        out = tmp_path / "sel.csv"
        code = cli.main(["select", *names, "--per-stratum", "5", "--api-base", base,
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0
        assert "skip octo/missing: /repos/octo/missing not found" in err
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == names[:5]
        # One fetch after another: each repository's requests are contiguous,
        # and the repositories come in input order.
        assert [name for name, _ in groupby(_requested(stub))] == names

    @pytest.mark.parametrize("repo, message", [
        pytest.param({"ratelimit_first": 99}, "rate limited", id="rate-limit-exhausted"),
        pytest.param({"ratelimit_first": 99, "limit": (401, {"message": "Bad credentials"}, {})},
                     "401 Bad credentials", id="401"),
        pytest.param({"ratelimit_first": 99, "limit": (502, "<html>", {})}, "502 Bad Gateway",
                     id="502"),
        pytest.param({"created_at": None}, "no valid created_at", id="no-created-at"),
    ])
    def test_failure_stops_the_run(self, repo, message, stub_api, tmp_path, monkeypatch,
                                   capsys):
        base, stub = stub_api
        names = _candidates(stub, 4)
        stub.repos["octo/r2"].update(repo)
        monkeypatch.setattr("linechurn.selector.time.sleep", lambda seconds: None)
        out = tmp_path / "sel.csv"
        code = cli.main(["select", *names, "--per-stratum", "5", "--api-base", base,
                         "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: octo/r2: ") and message in err[0]
        assert not out.exists()  # no sample drawn from the candidates before the failure
        assert "octo/r3" not in _requested(stub)

    def test_refused_repository_is_skipped(self, stub_api, capsys):
        base, stub = stub_api
        names = _candidates(stub, 3)
        stub.repos["octo/r1"].update(
            {"ratelimit_first": 99, "limit": (451, {"message": "Repository access blocked"}, {})})
        code = cli.main(["select", *names, "--per-stratum", "5", "--api-base", base])
        captured = capsys.readouterr()
        assert code == 0
        assert "skip octo/r1: " in captured.err and "451 Repository access blocked" in captured.err
        assert [line.split(",")[0] for line in captured.out.splitlines()[1:]] == [
            "octo/r0", "octo/r2"]

    def test_every_name_checked_before_the_first_request(self, stub_api, capsys):
        base, stub = stub_api
        names = _candidates(stub, 2)
        code = cli.main(["select", names[0], "badname", names[1], "--per-stratum", "1",
                         "--api-base", base])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "'badname'" in err
        assert stub.request_log == []

    @pytest.mark.parametrize("name", ["/widget", "octo/", "/", "octo/widget?per_page=1"])
    def test_malformed_name_rejected_before_the_first_request(self, name, stub_api, capsys):
        base, stub = stub_api
        code = cli.main(["select", name, "--per-stratum", "1", "--api-base", base])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ") and repr(name) in err[0]
        assert stub.request_log == []

    def test_refused_connection_stops_the_run(self, tmp_path, capsys):
        """The client turns the refusal into a SelectorError (``GET <url>: …``)."""
        out = tmp_path / "sel.csv"
        code = cli.main(["select", "octo/widget", "--per-stratum", "1",
                         "--api-base", _closed_port_base(), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: octo/widget: GET ")
        assert not out.exists()

    def test_ineligible_candidates_are_skipped_with_a_reason(self, stub_api, capsys):
        base, stub = stub_api
        names = _candidates(stub, 3)
        stub.repos["octo/r0"]["total_commits"] = 50
        stub.repos["octo/r1"]["stars"] = 2_000_000
        code = cli.main(["select", *names, "--per-stratum", "1", "--api-base", base])
        captured = capsys.readouterr()
        assert code == 0
        err = captured.err.splitlines()
        assert "skip octo/r0: fails min_commits" in err
        assert "skip octo/r1: popularity 2000000 outside strata" in err
        assert [line.split(",")[0] for line in captured.out.splitlines()[1:]] == ["octo/r2"]

    def test_indented_comment_in_candidates_file(self, stub_api, tmp_path, capsys):
        base, stub = stub_api
        names = _candidates(stub, 2)
        listing = tmp_path / "repos.txt"
        listing.write_text(f"# candidates\n{names[0]}\n   # octo/later\n\t#\n{names[1]}\n")
        code = cli.main(["select", "--candidates-file", str(listing), "--per-stratum", "5",
                         "--api-base", base])
        captured = capsys.readouterr()
        assert code == 0 and "skip" not in captured.err
        assert len(captured.out.splitlines()) == 3

    def test_empty_strata_print_one_warning_line_each(self, stub_api, capsys):
        base, stub = stub_api
        names = _candidates(stub, 2)  # both in stratum 11-100
        code = cli.main(["select", *names, "--per-stratum", "1", "--api-base", base])
        err = capsys.readouterr().err.splitlines()
        assert code == 0
        assert err == [f"warning: stratum {lo}-{hi} has no candidates"
                       for lo, hi in ((101, 1000), (1001, 10000), (10001, 100000),
                                      (100001, 1000000))]
