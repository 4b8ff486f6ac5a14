"""linechurn benchmark: build a seeded repository, time ``analyze``, check it.

    python3 perfbench/run.py --workload desk|fanout|deep --seed N \\
        --seconds S --trace 0|1

Run from the root of a linechurn checkout; the program is imported from
``src/`` and the repositories are built with ``tests/repogen.py``.

The repository is built once per run, outside any timed region.  Every
timed ``analyze_repo`` call runs in a fresh process (``worker.py``) with the
default ``AnalysisConfig``, after one discarded warm-up call.  Samples are
taken until ``--seconds`` have passed, and at least MIN_SAMPLES of them
(MIN_TRACED_PAIRS untraced and traced pairs with ``--trace 1``).
Each call's artifacts are checked against the generator's model and against
the warm-up call's artifacts; a failed check ends the run with exit code 1
and no time is reported.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics of the traced
call with the median time, plus ``trace.overhead_s``.

Every process the benchmark starts gets ``GIT_CONFIG_GLOBAL=/dev/null`` and
``GIT_CONFIG_NOSYSTEM=1``, so no user or system git setting shapes the
output.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import against_truth, identical

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Calls of one workload vary by up to 20% within a run on a shared 2-core
# host; four samples keep the median of the slowest workload usable.
MIN_SAMPLES = 4
MIN_TRACED_PAIRS = 3
SETUP_PROBES = 8
# Stop starting samples once this much of the run has passed, so a slow
# machine still finishes well inside the 180 s a run may take.
RUN_BUDGET_S = 140.0
HERMETIC_GIT = {"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1"}


class CheckFailed(Exception):
    pass


class Bench:
    def __init__(self, work: Path, repo: Path, truth, env: dict, results: Path):
        self.work = work
        self.repo = repo
        self.truth = truth
        self.env = env
        self.results = results
        self.attempted = 0
        self.failed = 0
        self.first_out: Path | None = None
        self.numpy: str | None = None
        self.times: list[tuple[str, float]] = []  # (call name, analyze_s) of every call

    def analyze(self, name: str, trace: bool = False) -> dict:
        """One checked ``analyze_repo`` call in a fresh process."""
        out = self.work / name
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.repo), str(out)]
        if trace:
            cmd += ["--trace", str(self.results.with_name(f"{self.results.stem}-{name}.spans.json"))]
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=170)
        except subprocess.TimeoutExpired:
            self._fail(name, ["analyze did not finish within 170 s"])
        if proc.returncode != 0:
            self._fail(name, [f"analyze raised (exit {proc.returncode}):\n{proc.stderr[-2000:]}"])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.numpy = result["numpy"]
        errors = against_truth(out, self.truth)
        if self.first_out is None:
            self.first_out = out
        else:
            errors += identical(self.first_out, out)
            shutil.rmtree(out)
        if errors:
            self._fail(name, errors)
        self.times.append((name, result["analyze_s"]))
        return result

    def _fail(self, name: str, errors: list[str]):
        self.failed += 1
        for error in errors:
            print(f"FAILED {name}: {error}", file=sys.stderr)
        raise CheckFailed(name)


def setup_seconds(env: dict, probes: int) -> list[float]:
    """Wall times of fresh interpreters importing linechurn.

    Called after the warm-up call, whose process already compiled the
    bytecode and warmed the page cache.
    """
    cmd = [sys.executable, "-c", "from linechurn import AnalysisConfig, analyze_repo"]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return f"n={n}; no percentile above the median has ten samples beyond it"
    p = 100 * (n - 10) // n
    return f"n={n}; p{p}={statistics.quantiles(values, n=100)[p - 1]:.4f} s"


def sample_loop(bench: Bench, seconds: float, run_start: float, kinds: list[bool],
                minimum: int) -> dict:
    """Alternate the given call kinds (traced or not) until time is up."""
    samples: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        now = time.perf_counter()
        enough = all(len(s) >= minimum for s in samples.values())
        if (enough and now >= deadline) or (i and now - run_start > RUN_BUDGET_S):
            return samples
        for kind in kinds:
            i += 1
            samples[kind].append(bench.analyze(f"sample{i}", trace=kind))


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(bench: Bench, args, run_start: float) -> dict:
    # Half the set-up probes run before the samples and half after, so they
    # span the same stretch of time as the samples.
    setup = setup_seconds(bench.env, SETUP_PROBES // 2)
    samples = sample_loop(bench, args.seconds, run_start, [False], MIN_SAMPLES)[False]
    setup += setup_seconds(bench.env, SETUP_PROBES // 2)
    print("setup_s probes: " + " ".join(f"{t:.4f}" for t in setup))
    times = [s["analyze_s"] for s in samples]
    print(f"analyze_s: median {statistics.median(times):.4f} s, max {max(times):.4f} s; "
          f"{percentile_note(times)}")
    return {
        "analyze_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mib": {"value": median_of(samples, "peak_rss_mib"), "unit": "MiB"},
        "git_peak_rss_mib": {"value": median_of(samples, "git_peak_rss_mib"), "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def per_layer(bench: Bench, args, run_start: float) -> dict:
    samples = sample_loop(bench, args.seconds, run_start, [False, True], MIN_TRACED_PAIRS)
    traced = sorted(samples[True], key=lambda s: s["analyze_s"])
    chosen = traced[(len(traced) - 1) // 2]
    accounted = sum(chosen["layers"].values())
    if abs(accounted - chosen["analyze_s"]) > 1e-6 * chosen["analyze_s"]:
        raise RuntimeError(f"layer times sum to {accounted}, not {chosen['analyze_s']}")
    metrics = dict(chosen["metrics"])
    metrics["trace.overhead_s"] = median_of(traced, "analyze_s") - median_of(samples[False], "analyze_s")
    for name in chosen["absent"]:
        print(f"absent: linechurn.pipeline has no {name!r}; its metrics are not reported")
    return {name: {"value": value, "unit": _unit(name)} for name, value in sorted(metrics.items())}


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "linechurn" / "__init__.py").is_file() or not (tests / "repogen.py").is_file():
        print(f"perfbench: {ROOT} is not a linechurn checkout "
              "(needs src/linechurn and tests/repogen.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(tests))
    os.environ.update(HERMETIC_GIT)  # the repository builder's git calls too
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    run_start = time.perf_counter()
    state = ROOT / ".perfbench"
    work = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = state / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    try:
        build_start = time.perf_counter()
        truth = WORKLOADS[args.workload](work / "repo", args.seed)
        print(f"built {args.workload} (seed {args.seed}) in {time.perf_counter() - build_start:.1f} s")
        bench = Bench(work, work / "repo", truth, env, results)
        metrics = {}
        try:
            bench.analyze("warmup")
            if args.trace:
                metrics = per_layer(bench, args, run_start)
            else:
                metrics = end_to_end(bench, args, run_start)
        except CheckFailed:
            pass  # reported by Bench; no time is reported for wrong output
    finally:
        shutil.rmtree(work, ignore_errors=True)

    git_version = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.split()[-1]
    environment = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                   "git": git_version, "numpy": bench.numpy}
    print("environment: " + " ".join(f"{k}={v}" for k, v in environment.items()))
    print(f"failed_ratio: {bench.failed / bench.attempted:.4f} ratio "
          f"({bench.failed} of {bench.attempted} analyze runs)")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    line = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics}
    results.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "environment": environment, "analyze_s": bench.times,
                                   **line}, indent=1))
    print(json.dumps(line))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
