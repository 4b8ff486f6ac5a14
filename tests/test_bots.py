"""Bot detection: keyword flagging with allow/deny lists, committer
aggregation, and the bot-share ratios."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linechurn.bots import (
    BotConfig,
    CommitterIdentity,
    aggregate_committers,
    bot_share,
    flag_bot,
)
from linechurn.diffstream import CommitHeader

# The ten most active bot names reported for this kind of corpus.
KNOWN_BOT_NAMES = [
    "skia-flutter-autoroll",
    "vercel-release-bot",
    "Electron Bot",
    "dependabot[bot]",
    "jenkins-x-bot",
    "GitHub Actions Bot",
    "github-actions[bot]",
    "Sudowoodo Release Bot",
    "Confluent Jenkins Bot",
    "Protobuf Team Bot",
    "Netty Project Bot",
]


def identity(name: str, email: str = "x@example.org", count: int = 1) -> CommitterIdentity:
    return CommitterIdentity(name=name, email=email, commit_count=count)


def header(name: str, email: str, n: int = 0) -> CommitHeader:
    return CommitHeader(f"{n:040x}", 1_700_000_000 + n, name, email)


class TestFlagBot:
    @pytest.mark.parametrize("name", KNOWN_BOT_NAMES)
    def test_known_bots_flagged(self, name):
        flagged = flag_bot(identity(name))
        assert flagged.is_bot, name
        assert flagged.match_reason.startswith("keyword:")

    def test_drobotov_allowlisted(self):
        flagged = flag_bot(identity("Drobotov"))
        assert not flagged.is_bot

    def test_autoroll_matches_auto_keyword(self):
        flagged = flag_bot(identity("skia-flutter-autoroll"))
        assert flagged.match_reason in ("keyword:bot", "keyword:auto")

    def test_email_local_part_matches(self):
        flagged = flag_bot(identity("Friendly Name", email="ci-bot@corp.example"))
        assert flagged.is_bot

    def test_denylist_forces_bot(self):
        config = BotConfig(denylist=("Jane Doe",))
        flagged = flag_bot(identity("Jane Doe"), config)
        assert flagged.is_bot and flagged.match_reason == "denylist"

    def test_allowlist_beats_keywords(self):
        config = BotConfig(allowlist=("Drobotov", "robotics-team@example.org"))
        flagged = flag_bot(identity("Abbot Lab", email="robotics-team@example.org"), config)
        assert not flagged.is_bot

    def test_plain_human_not_flagged(self):
        assert not flag_bot(identity("Ada Lovelace", "ada@example.org")).is_bot

    @given(st.sampled_from(KNOWN_BOT_NAMES + ["Ada", "Grace Hopper", "Drobotov"]))
    @settings(max_examples=60, deadline=None)
    def test_case_insensitive(self, name):
        base = flag_bot(identity(name)).is_bot
        assert flag_bot(identity(name.upper())).is_bot == base or name == "Drobotov"
        if name != "Drobotov":  # allowlist matching is exact by design
            assert flag_bot(identity(name.lower())).is_bot == base


class TestAggregateCommitters:
    def test_group_by_pair(self):
        headers = [header("Ada", "ada@x", 1), header("Ada", "ada@x", 2),
                   header("Ada", "ada@x", 3), header("Bot", "b@x", 4)]
        identities = aggregate_committers(headers)
        by_name = {i.name: i.commit_count for i in identities}
        assert by_name == {"Ada": 3, "Bot": 1}

    def test_same_name_different_email_distinct(self):
        headers = [header("Ada", "ada@x", 1), header("Ada", "ada@y", 2)]
        assert len(aggregate_committers(headers)) == 2

    def test_empty_input(self):
        assert aggregate_committers([]) == []

    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xy")), max_size=40))
    def test_counts_conserved(self, pairs):
        headers = [header(n, e, i) for i, (n, e) in enumerate(pairs)]
        identities = aggregate_committers(headers)
        assert sum(i.commit_count for i in identities) == len(headers)


class TestBotShare:
    def test_synthetic_739_of_1000(self):
        entries = [("some-pattern", True)] * 739 + [("some-pattern", False)] * 261
        report = bot_share(entries)
        assert report["some-pattern"].ratio == pytest.approx(0.739, abs=1e-9)

    def test_all_human_all_zero(self):
        report = bot_share([("p1", False), ("p2", False)])
        assert sum(share.bot for share in report.values()) == 0
        assert all(share.ratio == 0.0 for share in report.values())

    def test_metadata_pattern_95_percent(self):
        entries = ([("metadata-change", True)] * 19 + [("metadata-change", False)]
                   + [("path-update", False)] * 3)
        report = bot_share(entries)
        assert report["metadata-change"].ratio == pytest.approx(0.95, abs=1e-9)
        assert report["path-update"].ratio == 0.0

    def test_partition_bot_plus_human_equals_total(self):
        entries = [("p", True)] * 7 + [("p", False)] * 5 + [("q", True)] * 2
        report = bot_share(entries)
        assert sum(share.total for share in report.values()) == len(entries)
        for share in report.values():
            assert share.bot + share.human == share.total

    def test_zero_commit_patterns_omitted(self):
        report = bot_share([("seen", False)])
        assert set(report) == {"seen"}


class TestBotConfigFile:
    def test_parse_key_value_lines(self, tmp_path):
        config_file = tmp_path / "bots.conf"
        config_file.write_text(
            "# comment\n"
            "keyword=bot\n"
            "keyword=auto\n"
            "keyword=ci-runner\n"
            "allow=Drobotov\n"
            "allow=Sabotage Fan\n"
            "deny=Sneaky Human\n",
            "utf-8",
        )
        config = BotConfig.from_file(config_file)
        assert config.keywords == ("bot", "auto", "ci-runner")
        assert "Sabotage Fan" in config.allowlist
        assert "Drobotov" in config.allowlist
        assert config.denylist == ("Sneaky Human",)
        assert flag_bot(identity("Sabotage Fan"), config).is_bot is False
        assert flag_bot(identity("Sneaky Human"), config).is_bot is True

    def test_bad_line_rejected(self, tmp_path):
        config_file = tmp_path / "bots.conf"
        config_file.write_text("keyword bot\n", "utf-8")
        with pytest.raises(ValueError):
            BotConfig.from_file(config_file)

    @pytest.mark.parametrize("line", ["keyword=", "allow =  ", "deny="])
    def test_empty_value_rejected(self, tmp_path, line):
        config_file = tmp_path / "bots.conf"
        config_file.write_text(f"keyword=bot\n{line}\n", "utf-8")
        with pytest.raises(ValueError, match=repr(line)):
            BotConfig.from_file(config_file)

    def test_unknown_key_rejected(self, tmp_path):
        config_file = tmp_path / "bots.conf"
        config_file.write_text("frobnicate=1\n", "utf-8")
        with pytest.raises(ValueError):
            BotConfig.from_file(config_file)
