"""Every artifact's bytes, pinned across versions in ``data/fixture_artifacts.json``.

The determinism test compares two runs of the same code; this one compares
a run with what an earlier version wrote for the same inputs.  Every
artifact except ``manifest.json`` must match byte for byte, and so must the
manifest's ``stage_counts``, ``aborted`` and ``warnings``; the rest of the
manifest holds paths and clock times.  The fixture repositories are built
from fixed timestamps and identities, so their commit hashes, which the
line reports name, are the same on every build.

Rewrite the data file only when an artifact change is intended, with
``PYTHONPATH=src python tests/test_golden_artifacts.py``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from linechurn.pipeline import AnalysisConfig, analyze_repo

from repogen import build_hotspot_repo, build_multi_hotspot_repo

DATA = Path(__file__).parent / "data" / "fixture_artifacts.json"
OVERRIDE = "path,line_number,label\nhot.cfg,2,metadata-change\n"
MANIFEST_KEYS = ("aborted", "stage_counts", "warnings")
CASES = ("hotspot", "multi_hotspot", "hotspot_override")


def run_cases(work: Path) -> dict:
    """Per case: every artifact's text by relative path, and the manifest's pinned keys."""
    hotspot = build_hotspot_repo(work / "hotspot")["path"]
    multi = build_multi_hotspot_repo(work / "multi_hotspot")["path"]
    override = work / "override.csv"
    override.write_text(OVERRIDE, "utf-8")
    configs = {
        "hotspot": AnalysisConfig(hotspot, work / "out" / "hotspot"),
        "multi_hotspot": AnalysisConfig(multi, work / "out" / "multi_hotspot"),
        "hotspot_override": AnalysisConfig(hotspot, work / "out" / "hotspot_override",
                                           labels_override=override),
    }
    cases = {}
    for name, config in configs.items():
        analyze_repo(config)
        out = config.output_dir
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        cases[name] = {
            # strict decoding: equal text is equal bytes
            "artifacts": {p.relative_to(out).as_posix(): p.read_bytes().decode("utf-8")
                          for p in sorted(out.rglob("*"))
                          if p.is_file() and p.name != "manifest.json"},
            "manifest": {key: manifest[key] for key in MANIFEST_KEYS},
        }
    return cases


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text("utf-8"))


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_pinned_bytes(case, pinned, current):
    expected, actual = pinned[case]["artifacts"], current[case]["artifacts"]
    assert sorted(actual) == sorted(expected)
    for name, text in expected.items():
        assert actual[name] == text, name


@pytest.mark.parametrize("case", CASES)
def test_manifest_matches_pinned(case, pinned, current):
    assert current[case]["manifest"] == pinned[case]["manifest"]


def test_cases_cover_every_artifact_kind(pinned):
    names = {name.split("/")[0] for case in pinned.values() for name in case["artifacts"]}
    assert names == {"bot_share.csv", "committers.csv", "file_churn.csv", "labels.csv",
                     "line_reports", "saturation.csv", "summary.json", "summary_stats.csv"}
    assert sorted(pinned) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        cases = run_cases(Path(work))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {DATA}", file=sys.stderr)
