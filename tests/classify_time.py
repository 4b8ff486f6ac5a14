"""Time the classifier in two linechurn trees, in alternating fresh processes.

    python tests/classify_time.py PARENT CHANGE --seed N

PARENT and CHANGE are linechurn checkouts.  Every workload of
``perfbench/workloads.py`` is built once at seed N, with this checkout's
``tests/repogen.py`` and ``perfbench/workloads.py``.  Each of ``ROUNDS``
rounds then starts one fresh process per tree and workload, in the order of
``bench_pairs.alternating_rounds`` (PARENT first in even rounds, CHANGE
first in odd ones, each tree's bytecode compiled first).  The process
imports the tree's own ``src``, runs ``analyze_repo`` once with the default
config to collect the hotspot lines that its pipeline hands to
``classify_history``, and then times ``classify_history`` over all of them,
``REPEATS`` passes in a row.

Prints, per workload and tree, the median of the runs' median passes, the
fastest pass, and the revision pairs classified (pairs whose contents
differ).  Exits 1 when a process fails.  The builds and the processes see no
user or system git config.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import HERMETIC_GIT, SIDES, alternating_rounds

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parents[1]
ROUNDS = 8
REPEATS = 9


def time_classification(repo: Path) -> dict:
    """Run in the tree's process: the seconds of each pass of
    ``classify_history`` over the hotspot lines of ``repo``, and their pairs."""
    from linechurn import AnalysisConfig, analyze_repo, pipeline

    classify = pipeline.classify_history
    calls = []

    def record(*args):
        calls.append(args)
        return classify(*args)

    pipeline.classify_history = record
    try:
        with tempfile.TemporaryDirectory() as out:
            analyze_repo(AnalysisConfig(repo_path=repo, output_dir=Path(out)))
    finally:
        pipeline.classify_history = classify
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for args in calls:
            classify(*args)
        times.append(time.perf_counter() - start)
    pairs = 0
    for line, _, _ in calls:
        contents = line.contents()
        pairs += sum(a != b for a, b in zip(contents, contents[1:]))
    return {"times": times, "pairs": pairs}


def run_once(tree: Path, repo: Path) -> dict | None:
    """One fresh process in ``tree``; None when it fails."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **HERMETIC_GIT)
    proc = subprocess.run([sys.executable, str(SCRIPT), "--child", str(repo)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"{tree} {repo.name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    """One tree's runs on one workload, each ``{"times": [...], "pairs": n}``:
    the median of the runs' medians, the fastest pass, and the pair counts."""
    return {"median": statistics.median(statistics.median(r["times"]) for r in runs),
            "min": min(min(r["times"]) for r in runs),
            "pairs": sorted({r["pairs"] for r in runs}),
            "runs": len(runs)}


def format_summary(workload: str, summaries: dict[str, dict]) -> list[str]:
    """One line per tree; the change's line also gives its median against
    the parent's."""
    lines = []
    for side, s in summaries.items():
        text = (f"{workload} {side}: median {s['median']:.4f} s, fastest {s['min']:.4f} s "
                f"over {s['runs']} runs; {'/'.join(f'{n:,}' for n in s['pairs'])} pairs")
        if side == "change" and summaries.get("parent", {}).get("median"):
            text += f"  {(s['median'] / summaries['parent']['median'] - 1) * 100:+.1f}%"
        lines.append(text)
    return lines


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(time_classification(Path(sys.argv[2]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    os.environ.update(HERMETIC_GIT)  # the builders' git calls too
    from workloads import WORKLOADS

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {(w, side): [] for w in WORKLOADS for side in SIDES}
    failed = False
    with tempfile.TemporaryDirectory(prefix="classify_time-") as work:
        repos = {}
        for workload in WORKLOADS:
            repos[workload] = Path(work) / workload
            WORKLOADS[workload](repos[workload], args.seed)
        for round_, order in alternating_rounds(trees, ROUNDS):
            for workload in WORKLOADS:
                for side in order:
                    result = run_once(trees[side], repos[workload])
                    failed |= result is None
                    if result:
                        runs[workload, side].append(result)
            print(f"round {round_ + 1}/{ROUNDS} done", file=sys.stderr)
    for workload in WORKLOADS:
        summaries = {side: summarize(runs[workload, side])
                     for side in SIDES if runs[workload, side]}
        print("\n".join(format_summary(workload, summaries)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
