"""Compare the artifacts two linechurn trees write for the same repositories.

    python tests/artifact_diff.py PARENT CHANGE [--seed N ...] [--new-count KEY ...]

PARENT and CHANGE are linechurn checkouts.  The repositories are built once,
with this checkout's ``tests/repogen.py`` and ``perfbench/workloads.py``:
the golden fixtures (hotspot, hotspot with a label override, multi-hotspot)
and the benchmark workloads desk, fanout and deep at each seed N given
(``--seed`` may be repeated; default 1).
Each tree then runs ``python -m linechurn analyze`` on each of them from its
own ``src``.  Every artifact that differs is printed.  Of ``manifest.json``
only ``stage_counts``, ``aborted`` and ``warnings`` are compared; the rest
holds paths and clock times.  Each ``--new-count`` names a ``stage_counts``
key that CHANGE adds: it is compared as absent from PARENT's manifest and
present in CHANGE's, and its value is not compared.  Exits 1 on any
difference, else 0.

Both runs and the builds see no user or system git config.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import HERMETIC_GIT

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
OVERRIDE = "path,line_number,label\nhot.cfg,2,metadata-change\n"  # the golden test's
MANIFEST_KEYS = ("aborted", "stage_counts", "warnings")


def build_cases(work: Path, seeds: list[int]) -> dict[str, list[str]]:
    """Build every repository; returns each case's ``analyze`` options."""
    from repogen import build_hotspot_repo, build_multi_hotspot_repo
    from workloads import WORKLOADS

    hotspot = build_hotspot_repo(work / "hotspot")["path"]
    multi = build_multi_hotspot_repo(work / "multi_hotspot")["path"]
    override = work / "override.csv"
    override.write_text(OVERRIDE, "utf-8")
    cases = {"hotspot": ["--repo", str(hotspot)],
             "hotspot_override": ["--repo", str(hotspot), "--labels-override", str(override)],
             "multi_hotspot": ["--repo", str(multi)]}
    for seed in seeds:
        for name, build in WORKLOADS.items():
            case = f"{name}-seed{seed}"
            build(work / case, seed)
            cases[case] = ["--repo", str(work / case)]
    return cases


def analyze(tree: Path, options: list[str], out: Path,
            new_counts: list[str]) -> tuple[int, dict[str, bytes]]:
    """Run ``tree``'s analyze into ``out``: its exit code and what it compares
    by, with each of ``new_counts`` dropped from ``stage_counts``."""
    env = {**os.environ, **HERMETIC_GIT, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "linechurn", "analyze", *options,
                           "--out", str(out)], env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 2):
        print(f"{tree}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    found = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}
    if (out / "manifest.json").is_file():
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        for key in new_counts:  # dropped; only a missing one is left to differ
            if manifest["stage_counts"].pop(key, None) is None:
                manifest["stage_counts"][key] = "<missing>"
        for key in MANIFEST_KEYS:
            found[f"manifest.json:{key}"] = json.dumps(manifest[key], sort_keys=True).encode()
    return proc.returncode, found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, action="append", dest="seeds")
    parser.add_argument("--new-count", action="append", dest="new_counts", default=[])
    args = parser.parse_args()
    os.environ.update(HERMETIC_GIT)  # the repository builders' git calls too
    differences = 0
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        work = Path(tmp)
        for case, options in build_cases(work / "repos", args.seeds or [1]).items():
            sides = (("a", args.parent, []), ("b", args.change, args.new_counts))
            (code_a, a), (code_b, b) = (analyze(tree.resolve(), options, work / side / case, new)
                                        for side, tree, new in sides)
            differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
            if code_a != code_b:
                differ.insert(0, f"exit code {code_a} != {code_b}")
            for name in differ:
                print(f"{case}: {name} differs")
            print(f"{case}: {len(a.keys() | b.keys())} compared, {len(differ)} differ")
            differences += len(differ)
    print("no difference" if not differences else f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
