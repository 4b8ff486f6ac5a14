"""linechurn: line-level code churn hotspot mining.

Replays a repository's first-parent patch history to track how often each
individual line changes, flags statistical outliers at file and line level,
classifies hotspot lines against a pattern taxonomy, and splits the churn
between bot and human committers.
"""

__version__ = "0.1.0"

from .bots import BotConfig
from .churn import HotspotThresholds
from .diffstream import CommitHeader, StreamParseError
from .pipeline import AnalysisConfig, AnalysisError, RunManifest, analyze_repo
from .tracker import TrackedLine

# README "Library use" names the same list.
__all__ = [
    "AnalysisConfig", "AnalysisError", "BotConfig", "CommitHeader", "HotspotThresholds",
    "RunManifest", "StreamParseError", "TrackedLine", "__version__", "analyze_repo",
]
