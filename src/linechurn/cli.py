"""Command-line entry points: ``analyze``, ``select``, and ``version``."""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from pathlib import Path

from . import __version__, selector
from .bots import BotConfig
from .churn import HotspotThresholds
from .diffstream import StreamParseError
from .pipeline import AnalysisConfig, AnalysisError, analyze_repo


def _style(text: str, code: str, stream) -> str:
    """``text`` in colour ``code`` when ``stream``, where it is printed, is a terminal."""
    if os.environ.get("NO_COLOR") or not stream.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linechurn",
        description="Mine line-level code churn hotspots from git history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = HotspotThresholds()
    analyze = sub.add_parser("analyze", help="analyze one repository work tree")
    analyze.add_argument("--repo", required=True, type=Path, help="path to the repository")
    analyze.add_argument("--out", required=True, type=Path, help="output directory")
    analyze.add_argument("--sigma", type=float, default=defaults.sigma_multiplier,
                         help="standard-deviation multiplier of the outlier filter")
    analyze.add_argument("--monthly-rate", type=float, default=defaults.monthly_rate,
                         help="required changes per month of project lifetime")
    analyze.add_argument("--min-line-mods", type=int, default=defaults.min_line_mods,
                         help="absolute floor on a hotspot line's modification count")
    analyze.add_argument("--file-sample", type=int, default=None,
                         help="cap on hotspot files to line-track")
    analyze.add_argument("--seed", type=int, default=0, help="sampling seed")
    analyze.add_argument("--bot-config", type=Path, default=None,
                         help="bot keyword/allowlist/denylist file (key=value lines)")
    analyze.add_argument("--labels-override", type=Path, default=None,
                         help="CSV of human labels (path,line_number,label)")
    analyze.add_argument("--sample-sigma", action="store_true",
                         help="use sample instead of population standard deviation")

    criteria = selector.InclusionCriteria()
    select = sub.add_parser("select", help="select candidate repositories via the metadata API")
    select.add_argument("repos", nargs="*", metavar="OWNER/NAME",
                        help="candidate repositories")
    select.add_argument("--candidates-file", type=Path, default=None,
                        help="file with one owner/name per line")
    select.add_argument("--min-commits", type=int, default=criteria.min_commits)
    select.add_argument("--min-popularity", type=int, default=criteria.min_stars_or_forks,
                        help="minimum stars-or-forks (the default excludes ten)")
    select.add_argument("--per-stratum", type=int, required=True,
                        help="sample quota per popularity stratum")
    select.add_argument("--seed", type=int, default=0)
    select.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for cached metadata responses")
    select.add_argument("--api-base", default=selector.DEFAULT_API_BASE,
                        help="metadata API base URL")
    select.add_argument("--out", type=Path, default=None,
                        help="write the selection CSV here instead of stdout")

    sub.add_parser("version", help="print the tool version")
    return parser


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        thresholds = HotspotThresholds(
            sigma_multiplier=args.sigma,
            monthly_rate=args.monthly_rate,
            min_line_mods=args.min_line_mods,
            population_sigma=not args.sample_sigma,
        )
        bot_config = BotConfig.from_file(args.bot_config) if args.bot_config else BotConfig()
    except (OSError, ValueError) as exc:  # bad thresholds, bot config missing or malformed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    config = AnalysisConfig(
        repo_path=args.repo,
        output_dir=args.out,
        thresholds=thresholds,
        bot_config=bot_config,
        file_sample=args.file_sample,
        sample_seed=args.seed,
        labels_override=args.labels_override,
    )
    try:
        manifest = analyze_repo(config)
    except (AnalysisError, StreamParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    counts = manifest.stage_counts
    print(f"files: {counts['files_total']}  hotspot files: {counts['hotspot_files']}  "
          f"hotspot lines: {counts['hotspot_lines']}")
    if manifest.aborted:
        print(_style(f"partial failure: {len(manifest.aborted)} file(s) aborted", "33",
                     sys.stderr), file=sys.stderr)
        for path, reason in sorted(manifest.aborted.items()):
            print(f"  {path}: {reason}", file=sys.stderr)
        return 2
    print(_style("done", "32", sys.stdout) + f" -> {args.out}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    # Every input is checked before the first metadata request.
    names = list(args.repos)
    try:
        if args.candidates_file:
            names.extend(
                line.strip()
                for line in args.candidates_file.read_text("utf-8-sig").splitlines()
                if line.strip() and not line.strip().startswith("#")
            )
        if not names:
            raise ValueError("no candidate repositories given")
        for name in names:
            selector.check_repo_name(name)
        if args.per_stratum < 1:
            raise ValueError(f"--per-stratum must be at least 1, got {args.per_stratum}")
        criteria = selector.InclusionCriteria(
            min_stars_or_forks=args.min_popularity,
            min_commits=args.min_commits,
        )
        out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    client = selector.MetadataClient(
        api_base=args.api_base,
        auth_token=os.environ.get("GITHUB_TOKEN"),
        cache_dir=args.cache_dir,
    )
    eligible = []
    for name in names:  # one after another, in input order: GitHub asks for serial requests
        try:
            result = client.fetch_repo_meta(name)
        except selector.Unavailable as exc:
            print(f"skip {name}: {exc}", file=sys.stderr)
            continue
        except (selector.SelectorError, OSError) as exc:  # OSError: the cache, or a non-JSON body
            print(f"error: {name}: {exc}", file=sys.stderr)
            if args.out:  # a sample short of candidates would depend on what failed
                out.close()
                args.out.unlink()
            return 1
        ok, failed = selector.passes_inclusion(result, criteria)
        if not ok:
            print(f"skip {name}: fails {','.join(failed)}", file=sys.stderr)
            continue
        stratum = selector.assign_stratum(result.popularity)
        if stratum is None:
            print(f"skip {name}: popularity {result.popularity} outside strata", file=sys.stderr)
            continue
        eligible.append((result, stratum))

    filled = {stratum for _, stratum in eligible}
    for lower, upper in selector.STRATA:
        if (lower, upper) not in filled:
            print(f"warning: stratum {lower}-{upper} has no candidates", file=sys.stderr)
    chosen = selector.sample_stratified(eligible, per_stratum=args.per_stratum, seed=args.seed)

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["owner_and_name", "stars", "forks", "total_commits",
                     "stratum_lower", "stratum_upper"])
    for meta in chosen:
        writer.writerow([meta.owner_and_name, meta.stars, meta.forks, meta.total_commits,
                         *selector.assign_stratum(meta.popularity)])
    if args.out:
        out.close()
        print(f"selected {len(chosen)} of {len(names)} candidates -> {args.out}",
              file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("LINECHURN_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):  # names in any case
        print(f"error: LINECHURN_LOG={level!r} is not a log level", file=sys.stderr)
        return 1
    logging.basicConfig(level=level.upper())
    args = _build_parser().parse_args(argv)
    if args.command == "version":
        print(f"linechurn {__version__}")
        return 0
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "select":
        return _cmd_select(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
