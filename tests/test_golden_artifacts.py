"""Every artifact's bytes, pinned across versions in ``data/fixture_artifacts.json``.

The determinism test compares two runs of the same code; this one compares
a run with what an earlier version wrote for the same inputs.  Every
artifact except ``manifest.json`` must match byte for byte, and so must the
manifest's ``stage_counts``, ``aborted`` and ``warnings``; the rest of the
manifest holds paths and clock times.  The fixture repositories are built
from fixed timestamps and identities, so their commit hashes, which the
line reports name, are the same on every build.  ``data/desk_artifacts.json``
pins the desk-scale repository's artifacts the same way, by their SHA-256;
``test_acceptance.py`` checks them on its desk run.

Rewrite the data files only when an artifact change is intended, with
``PYTHONPATH=src python tests/test_golden_artifacts.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from linechurn.pipeline import AnalysisConfig, analyze_repo

from repogen import build_hotspot_repo, build_multi_hotspot_repo, build_perf_repo

DATA = Path(__file__).parent / "data" / "fixture_artifacts.json"
DESK_DATA = Path(__file__).parent / "data" / "desk_artifacts.json"
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
        # strict decoding: equal text is equal bytes
        cases[name] = pins(config.output_dir, lambda data: data.decode("utf-8"))
    return cases


def pins(out: Path, pin=lambda data: hashlib.sha256(data).hexdigest()) -> dict:
    """``pin`` of every artifact in ``out`` but the manifest, by relative
    path, and the manifest's pinned keys."""
    manifest = json.loads((out / "manifest.json").read_text("utf-8"))
    return {"artifacts": {p.relative_to(out).as_posix(): pin(p.read_bytes())
                          for p in sorted(out.rglob("*"))
                          if p.is_file() and p.name != "manifest.json"},
            "manifest": {key: manifest[key] for key in MANIFEST_KEYS}}


def run_desk(work: Path) -> dict:
    """The pins of the desk-scale repository's artifacts, as ``test_acceptance.py`` builds it."""
    build_perf_repo(work / "desk", n_commits=10_000, n_files=200)
    analyze_repo(AnalysisConfig(work / "desk", work / "out" / "desk"))
    return pins(work / "out" / "desk")


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
        data = {DATA: run_cases(Path(work)), DESK_DATA: run_desk(Path(work))}
    for path, pinned_data in data.items():
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(pinned_data, indent=1, sort_keys=True) + "\n", "utf-8")
        print(f"wrote {path}", file=sys.stderr)
