"""Correctness gates for one ``analyze`` output directory."""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path


def _rows(path: Path) -> list[dict]:
    csv.field_size_limit(sys.maxsize)  # a 10k-revision line's history is one field
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def against_truth(out: Path, truth) -> list[str]:
    """Compare the artifacts with the generator's model; returns the failures.

    Checks the hotspot file set, every tracked file's line reports (content
    and mod_count of each line, against the file's final content), the
    hotspot lines, and that no file was aborted.
    """
    errors = []
    aborted = json.loads((out / "manifest.json").read_text("utf-8"))["aborted"]
    if aborted:
        errors.append(f"aborted files: {sorted(aborted)}")

    hot = {r["path"] for r in _rows(out / "file_churn.csv") if r["is_hotspot_file"] == "true"}
    if hot != truth.hot_files:
        errors.append(f"hotspot files: got {sorted(hot ^ truth.hot_files)} differing from the model")

    # Line reports are matched to files by content, so the check does not
    # depend on how report files are named.
    reports = {}
    for report in sorted((out / "line_reports").glob("*.csv")):
        rows = _rows(report)
        reports[tuple(r["content"] for r in rows)] = rows
    if len(reports) != len(truth.lines):
        errors.append(f"{len(reports)} line reports for {len(truth.lines)} hotspot files")
    for path, lines in sorted(truth.lines.items()):
        rows = reports.get(tuple(text.decode("utf-8", "backslashreplace") for text, _ in lines))
        if rows is None:
            errors.append(f"{path}: no line report matches the file's final content")
            continue
        wrong = [n for n, (row, (_, mods)) in enumerate(zip(rows, lines), start=1)
                 if int(row["line_number"]) != n or int(row["mod_count"]) != mods]
        if wrong:
            errors.append(f"{path}: line number or mod_count differs from the model at lines {wrong[:10]}")

    labelled = {(r["path"], int(r["line_number"])) for r in _rows(out / "labels.csv")}
    expected = {(path, number) for path, number, _ in truth.hot_lines}
    if labelled != expected:
        errors.append(f"hotspot lines: got {sorted(labelled - expected)}, "
                      f"missing {sorted(expected - labelled)}")
    return errors


def _artifacts(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def identical(first: Path, repeat: Path) -> list[str]:
    """Artifacts of a repeat run must be byte-identical, manifest excluded."""
    a, b = _artifacts(first), _artifacts(repeat)
    differing = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    return [f"artifacts differ from the first run: {differing}"] if differing else []
