"""Run the benchmark in two linechurn trees, in alternating pairs, and compare.

    python tests/bench_pairs.py PARENT CHANGE --seed N [--workload W ...] \\
        [--pairs 10] [--out FILE]

PARENT and CHANGE are linechurn checkouts.  Each pair runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`` once
in each tree, from the tree's root, with S the ``run_seconds`` of this
checkout's BENCHMARK.json: PARENT first in even pairs (0, 2, ...) and CHANGE
first in odd ones.  Within a pair index the workloads run one
after another (default: every workload of this checkout's BENCHMARK.json).
Each tree's bytecode is compiled once before the first run, so neither side
pays for compiling when the environment forbids writing it (see
``alternating_rounds``, which ``tests/classify_time.py`` shares).

For each workload and each end-to-end metric of BENCHMARK.json, prints both
medians, both quartile ranges (``statistics.quantiles``, inclusive), in how
many pairs CHANGE read lower and higher, and a verdict (see ``verdict``).
Before each pair index it measures how much parallel CPU the host gives
(``probe_capacity``), and prints each workload's range of it under the
workload's verdict lines: a verdict read at 1.0 and one read at 2.0 are
not the same measurement.  ``--out`` gets one JSON line per run: the
workload, the pair, the side, the exit code, the pair's capacity, and the
run's last stdout line.  Exits 1 when a run fails or reports ``failed``
above 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# The environment in which tests/artifact_diff.py and tests/classify_time.py
# build repositories and run both trees: git reads no user or system config.
HERMETIC_GIT = {"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1"}


def alternating_rounds(trees: dict[str, Path], rounds: int):
    """Compile each tree's bytecode, then yield ``(round, sides)`` for each
    round: the parent first in even rounds (0, 2, ...), the change first in
    odd ones."""
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src/linechurn", "perfbench",
                        "tests/repogen.py"], cwd=tree, check=True)
    for round_ in range(rounds):
        yield round_, SIDES if round_ % 2 == 0 else SIDES[::-1]


# A CPU-bound loop of about 0.1 s on the 2-core benchmark host.
_SPIN = [sys.executable, "-c", "for _ in range(1_500_000): pass"]


def capacity(alone_s: float, both_s: float) -> float:
    """Cores' worth of parallel CPU the host gave: 2.0 when two loops at once
    take as long as one alone (``alone_s``), 1.0 when they take twice as long."""
    return 2 * alone_s / both_s


def probe_capacity() -> float:
    """Time ``_SPIN`` alone, then two of it at once, and return their ``capacity``."""
    start = time.perf_counter()
    subprocess.run(_SPIN, check=True)
    alone = time.perf_counter() - start
    start = time.perf_counter()
    procs = [subprocess.Popen(_SPIN) for _ in range(2)]
    if any(proc.wait() for proc in procs):
        raise RuntimeError("capacity probe failed")
    return capacity(alone, time.perf_counter() - start)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[int, dict | None]:
    """One ``perfbench/run.py`` run in ``tree``: its exit code and its last
    stdout line as JSON (None when it printed none that parses)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    try:
        line = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        line = None
    if proc.returncode or line is None:
        print(f"{tree} {workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    return proc.returncode, line


def run_ok(code: int, line: dict | None) -> bool:
    return code == 0 and line is not None and line.get("failed") == 0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict[str, dict]], metrics: list[str]) -> dict[str, dict]:
    """Compare one workload's pairs, each ``{"parent": line, "change": line}``
    with ``line`` a run's last stdout line.  Per metric: each side's median
    and quartiles, and in how many pairs the change read lower and higher.
    Pairs where either side lacks the metric are left out."""
    summary = {}
    for name in metrics:
        both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs
                if all(name in p[side].get("metrics", {}) for side in SIDES)]
        if not both:
            continue
        entry: dict = {"pairs": len(both)}
        for side, values in zip(SIDES, zip(*both)):
            q1, q3 = _quartiles(list(values))
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        entry["change_lower"] = sum(c < p for p, c in both)
        entry["change_higher"] = sum(c > p for p, c in both)
        summary[name] = entry
    return summary


def verdict(entry: dict, bound: float) -> str:
    """``gain`` when the change read lower in at least 9 of 10 pairs and its
    median lies below the parent's by more than the parent's q3 - q1;
    ``worse`` when its median lies above the parent's by more than the
    metric's relative ``bound``; else ``level``.  Every end-to-end metric is
    lower-is-better."""
    parent, change = entry["parent"], entry["change"]
    if (10 * entry["change_lower"] >= 9 * entry["pairs"]
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"]):
        return "gain"
    if change["median"] > parent["median"] * (1 + bound):
        return "worse"
    return "level"


def format_summary(workload: str, summary: dict[str, dict],
                   bounds: dict[str, float]) -> list[str]:
    """One line per metric, ending in its verdict under ``bounds``."""
    lines = []
    for name, entry in summary.items():
        parent, change = entry["parent"], entry["change"]
        delta = (change["median"] / parent["median"] - 1) * 100 if parent["median"] else 0.0
        lines.append(
            f"{workload} {name}: parent {parent['median']:.4g} [{parent['q1']:.4g}, "
            f"{parent['q3']:.4g}]  change {change['median']:.4g} [{change['q1']:.4g}, "
            f"{change['q3']:.4g}]  {delta:+.1f}%  lower in {entry['change_lower']}, "
            f"higher in {entry['change_higher']} of {entry['pairs']} pairs  "
            f"{verdict(entry, bounds[name])}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    records = {w: [] for w in workloads}
    capacities = []
    failed = False
    out = open(args.out, "w", encoding="utf-8") if args.out else None
    try:
        for pair, order in alternating_rounds(trees, args.pairs):
            capacities.append(probe_capacity())
            for workload in workloads:
                lines = {}
                for side in order:
                    code, line = run_once(trees[side], workload, args.seed,
                                          benchmark["run_seconds"])
                    failed |= not run_ok(code, line)
                    lines[side] = line or {}
                    if out:
                        out.write(json.dumps({"workload": workload, "pair": pair, "side": side,
                                              "exit": code, "capacity": capacities[-1],
                                              "line": line}) + "\n")
                        out.flush()
                records[workload].append(lines)
                print(f"pair {pair + 1}/{args.pairs} {workload} done", file=sys.stderr)
    finally:
        if out:
            out.close()
    for workload, pairs in records.items():
        print("\n".join(format_summary(workload, summarize(pairs, list(bounds)), bounds)))
        print(f"{workload} capacity: {min(capacities):.2f} to {max(capacities):.2f} cores "
              f"over {len(capacities)} pairs")
    if failed:
        print("a run failed or reported failed analyze calls", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
