from __future__ import annotations

import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import linechurn  # noqa: E402
from linechurn.diffstream import log_command, log_environment, parse_log_stream  # noqa: E402


def repo_log_events(repo: Path, paths: list[str] | None = None):
    """Parsed event list for a repository's patch log."""
    out = subprocess.run(log_command("HEAD", file_paths=paths), cwd=repo, env=log_environment(),
                         capture_output=True, check=True).stdout
    return list(parse_log_stream(io.BytesIO(out)))


def split_at(data: bytes, cuts) -> list[bytes]:
    bounds = [0, *sorted(cuts), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def chunkings(data: bytes) -> list[list[bytes]]:
    """The stream whole, per line, per byte, and cut at seeded random points."""
    rng = random.Random(len(data))
    return [[data], data.splitlines(keepends=True), [data[k:k + 1] for k in range(len(data))],
            split_at(data, rng.sample(range(len(data) + 1), min(len(data) + 1, 7)))]


def blame_commits(repo: Path, path: str) -> list[str]:
    """Last-touch commit of every line at HEAD, per first-parent git blame."""
    out = subprocess.run(["git", "blame", "--first-parent", "--porcelain", "HEAD", "--", path],
                         cwd=repo, capture_output=True, check=True).stdout
    return [m.group(1).decode() for m in re.finditer(rb"^([0-9a-f]{40}) \d+ \d+", out, re.M)]


def run_fresh(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports linechurn from this tree.

    Warnings are errors there too, in the interpreter and in every process
    it starts, as ``filterwarnings`` makes them in this one.
    """
    src = str(Path(linechurn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "error", **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@pytest.fixture
def scratch_repo(tmp_path):
    """A small hand-scripted repository with a rename and a planted hotspot."""
    from repogen import RepoBuilder

    builder = RepoBuilder(tmp_path / "repo")
    builder.commit({"a.txt": b"alpha\nbeta\n", "b.txt": b"one\ntwo\nthree\n"}, "c1")
    builder.commit({"a.txt": b"alpha\nbeta2\n"}, "c2")
    builder.commit({"a.txt": b"alpha\nbeta3\n"}, "c3")
    hashes = builder.finish()
    return builder.path, hashes
