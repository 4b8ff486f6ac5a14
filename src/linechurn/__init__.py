"""linechurn: line-level code churn hotspot mining.

Replays a repository's first-parent patch history to track how often each
individual line changes, flags statistical outliers at file and line level,
classifies hotspot lines against a pattern taxonomy, and splits the churn
between bot and human committers.
"""

__version__ = "0.1.0"

from .bots import BotConfig, CommitterIdentity, aggregate_committers, bot_share, flag_bot
from .churn import (
    DescriptiveStats,
    HotspotThresholds,
    categorize_file,
    count_file_commits,
    detect_hotspot_files,
    lifespan_days,
    select_hotspot_lines,
    summarize,
)
from .diffstream import (
    CommitHeader,
    Hunk,
    parse_commit_line,
    parse_log_stream,
)
from .pipeline import AnalysisConfig, RunManifest, analyze_repo, finalize
from .taxonomy import (
    Chao1Input,
    KappaResult,
    Pattern,
    PatternLabel,
    RevisionPair,
    chao1,
    chao1_curve,
    classify_history,
    classify_pair,
    cohens_kappa,
)
from .tracker import (
    FileState,
    HistoryReplayer,
    TrackedLine,
    apply_hunk,
)

__all__ = [name for name in dir() if not name.startswith("_")]
