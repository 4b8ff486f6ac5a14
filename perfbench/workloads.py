"""Seeded benchmark repositories, each with the generator's own ground truth.

Every workload builds a git repository through ``tests/repogen.py`` and
keeps an independent model of what ``analyze`` must find in it: the hotspot
files, the final content and modification count of every line of those
files, and the hotspot lines.  The model is derived from the edits the
generator made, never from linechurn's code.

All edits are in-place line rewrites with content unique to each revision,
except the ``deep`` lock-file rewrites, whose births and deaths the model
records explicitly.  So positional line identity equals real identity and
the model is exact.
"""

from __future__ import annotations

import random
import statistics
import subprocess
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import repogen
from repogen import BOT, HUMANS, RepoBuilder, build_perf_repo, run_git

# linechurn's default thresholds, which the benchmark runs with.
SIGMA = 3.0
MONTHLY_RATE = 1.0
MIN_LINE_MODS = 3
SECONDS_PER_MONTH = 30.44 * 86400
# A designed count must clear its cut by this share, so the expected sets
# never hinge on rounding.
MARGIN = 0.05


@dataclass
class Truth:
    hot_files: set[str]
    # hot file -> final [content, mod_count] per line, in file order
    lines: dict[str, list[list]]
    # (path, 1-based line number, mod_count)
    hot_lines: set[tuple[str, int, int]]


class StreamingBuilder(RepoBuilder):
    """RepoBuilder that feeds ``git fast-import`` commit by commit.

    A long history of large files never sits in memory.  It also counts the
    commits touching each path and the span of commit times.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.touches: Counter = Counter()
        self.first_ts: int | None = None
        self.last_ts = 0
        self._proc = subprocess.Popen(
            ["git", "fast-import", "--quiet", "--done"],
            cwd=self.path, stdin=subprocess.PIPE, stderr=subprocess.PIPE,
        )

    def commit(self, edits, message="edit", identity=None, ts=None) -> int:
        when = super().commit(edits, message, identity, ts)
        self.touches.update(edits.keys())
        self.first_ts = when if self.first_ts is None else self.first_ts
        self.last_ts = when
        try:
            self._proc.stdin.write(b"".join(self._chunks))
        except BrokenPipeError:
            self._fail()
        self._chunks.clear()
        return when

    def finish(self) -> list[str]:
        try:
            self._proc.stdin.write(b"done\n")
            self._proc.stdin.close()
        except BrokenPipeError:
            pass
        if self._proc.wait() != 0:
            self._fail()
        self._proc.stderr.close()
        return run_git(self.path, "rev-list", "--reverse", self.branch).stdout.decode().split()

    def close(self) -> None:
        """Stop fast-import if the build ended early."""
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()

    def _fail(self):
        self._proc.kill()
        err = self._proc.stderr.read().decode(errors="replace")
        self._proc.wait()
        raise RuntimeError(f"fast-import failed: {err}")

    def months(self) -> float:
        return (self.last_ts - self.first_ts) / SECONDS_PER_MONTH


def _render(lines: list[list]) -> bytes:
    return b"\n".join([text for text, _ in lines]) + b"\n"


def _outliers(values: dict, floor: float) -> set:
    """Keys whose value exceeds mean + 3 sigma (population) and ``floor``.

    Raises when any value sits within MARGIN of either cut, so a design
    whose expected outcome depends on rounding is caught at build time.
    """
    counts = list(values.values())
    cut = statistics.fmean(counts) + SIGMA * statistics.pstdev(counts)
    out = set()
    for key, value in values.items():
        for limit in (cut, floor):
            if abs(value - limit) <= MARGIN * max(limit, 1.0):
                raise AssertionError(f"workload design: {key}={value} too close to cut {limit:.2f}")
        if value > cut and value > floor:
            out.add(key)
    return out


def _truth(builder: StreamingBuilder, model: dict[str, list[list]], hot_files: set[str]) -> Truth:
    found = _outliers(dict(builder.touches), builder.months() * MONTHLY_RATE)
    if found != hot_files:
        raise AssertionError(f"workload design: hot files {sorted(found)} != {sorted(hot_files)}")
    hot_lines = set()
    for path in hot_files:
        mods = {i + 1: m for i, (_, m) in enumerate(model[path])}
        for number in _outliers(mods, MIN_LINE_MODS - 0.5):
            hot_lines.add((path, number, mods[number]))
    return Truth(hot_files, {p: model[p] for p in hot_files}, hot_lines)


class _DeskModel(StreamingBuilder):
    """Records positional line models; every desk edit is in place."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.model: dict[str, list[list]] = {}

    def commit(self, edits, message="edit", identity=None, ts=None) -> int:
        for path, content in edits.items():
            new = content.split(b"\n")[:-1]
            old = self.model.get(path)
            if old is None:
                self.model[path] = [[text, 0] for text in new]
                continue
            if len(old) != len(new):
                raise AssertionError(f"desk edit of {path} is not in place")
            for entry, text in zip(old, new):
                if entry[0] != text:
                    entry[0] = text
                    entry[1] += 1
        return super().commit(edits, message, identity, ts)


def build_desk(path: Path, seed: int) -> Truth:
    """Exactly ``build_perf_repo(n_commits=10_000, n_files=200)``; seed unused."""
    original = repogen.RepoBuilder
    builders: list[_DeskModel] = []

    def capture(*args, **kwargs):
        builders.append(_DeskModel(*args, **kwargs))
        return builders[-1]

    repogen.RepoBuilder = capture
    try:
        build_perf_repo(path, n_commits=10_000, n_files=200)
    finally:
        repogen.RepoBuilder = original
        for builder in builders:
            builder.close()
    (builder,) = builders
    return _truth(builder, builder.model, {"hot/config.env", "hot/service.yaml", "hot/version.txt"})


def _identity(rng: random.Random):
    return BOT if rng.random() < 0.3 else rng.choice(HUMANS)


def _edit(entry: list, text: bytes) -> None:
    entry[0] = text
    entry[1] += 1


def _generated(generate):
    """A workload builder from ``generate(builder, rng) -> (model, hot files)``."""
    def build(path: Path, seed: int) -> Truth:
        builder = StreamingBuilder(path, step=900)  # ~15 min between commits
        try:
            model, hot_files = generate(builder, random.Random(seed))
            builder.finish()
        finally:
            builder.close()
        return _truth(builder, model, hot_files)
    return build


def _fanout(builder: StreamingBuilder, rng: random.Random):
    """10k commits, 600 files; 48 hot files of 100 single-line edits each.

    Per hot file, 90 edits rewrite one designated line and 10 rewrite ten
    other lines once.  The remaining commits rotate over the cold files.
    """
    n_commits, n_hot, n_cold = 10_000, 48, 552
    hot = [f"services/svc_{i:02d}/deploy.yaml" for i in range(n_hot)]
    cold = [f"src/pkg_{i % 12:02d}/mod_{i:03d}.py" for i in range(n_cold)]
    model: dict[str, list[list]] = {}
    for i, p in enumerate(hot):
        model[p] = [[f"# service {i}".encode(), 0]] + [
            [f"key_{j} = {rng.randrange(10**6)}".encode(), 0] for j in range(1, 20)]
    for p in cold:
        model[p] = [[f"# {p}".encode(), 0]] + [
            [f"def f{j}(): return {rng.randrange(10**6)}".encode(), 0] for j in range(1, 21)]
    builder.commit({p: _render(model[p]) for p in model}, "initial import")

    # Each hot file: 90 rewrites of its hot line, one rewrite of 10 others.
    hot_line = {p: rng.randrange(1, 20) for p in hot}
    slots: list[tuple[str | None, int]] = []
    for p in hot:
        others = rng.sample([j for j in range(1, 20) if j != hot_line[p]], 10)
        slots += [(p, hot_line[p])] * 90 + [(p, j) for j in others]
    slots += [(None, k) for k in range(n_commits - 1 - len(slots))]
    rng.shuffle(slots)
    for k, (p, j) in enumerate(slots, start=1):
        if p is None:
            p = cold[j % n_cold]
            j = 1 + rng.randrange(20)
            _edit(model[p][j], f"def f{j}(): return {k}".encode())
        elif j == hot_line[p]:
            _edit(model[p][j], f"image: registry.example/svc:{k}.{rng.randrange(100)}".encode())
        else:
            _edit(model[p][j], f"key_{j} = {k}".encode())
        builder.commit({p: _render(model[p])}, f"change {k}", identity=_identity(rng))
    return model, set(hot)


def _deep(builder: StreamingBuilder, rng: random.Random):
    """10k commits, 1000 files; three hot files that stress replay.

    - ``build/version.properties``: a version line bumped in every commit.
    - ``data/table.csv``: 8000 body lines; each heavy commit rewrites every
      8th line, which git emits as 1000 separate hunks.  A header line is
      rewritten in 1200 other commits.
    - ``deps/requirements-lock.txt``: 2000 package lines rewritten wholesale
      20 times.  Each rewrite moves an anchor line from one side of the
      block to the other, so git shows 2000 deaths and 2000 births instead
      of paired edits.  A header line is rewritten in 1200 other commits.

    Every commit also touches the version file, so the wide and lock files
    need their header edits to clear the 3-sigma file cut (about 980 with
    1000 files; it would be about 1900 with 300).
    """
    n_commits, n_cold, body, block = 10_000, 997, 8000, 2000
    heavy_commits, rewrites, header_edits = 50, 20, 1200
    version, wide, lock = "build/version.properties", "data/table.csv", "deps/requirements-lock.txt"
    cold = [f"lib/part_{i % 9}/unit_{i:03d}.c" for i in range(n_cold)]
    salt = f"{rng.randrange(36**3):03x}"
    model: dict[str, list[list]] = {
        version: [[b"[build]", 0], [b"version=1.0.0", 0]]
                 + [[f"opt_{j}={rng.randrange(100)}".encode(), 0] for j in range(13)],
        wide: [[b"generated=0", 0]] + [[f"{j},{salt}".encode(), 0] for j in range(body)],
    }
    generation = 0

    def lock_block() -> list[list]:
        return [[f"pkg{j:04d}=={generation}.{salt}".encode(), 0] for j in range(block)]

    anchor = [b"# packages", 0]
    model[lock] = [[b"# lock-revision 0", 0], anchor] + lock_block()
    for p in cold:
        model[p] = [[f"/* {p} */".encode(), 0]] + [
            [f"int v{j} = {rng.randrange(10**6)};".encode(), 0] for j in range(1, 15)]
    builder.commit({p: _render(model[p]) for p in model}, "initial import")

    slots = (["heavy"] * heavy_commits + ["wide"] * header_edits + ["rewrite"] * rewrites
             + ["lock"] * header_edits)
    slots += ["cold"] * (n_commits - 1 - len(slots))
    rng.shuffle(slots)
    residues = [r for _ in range(heavy_commits // 8 + 1) for r in rng.sample(range(8), 8)]
    heavy_done = 0
    for k, kind in enumerate(slots, start=1):
        _edit(model[version][1], f"version=1.{k // 100}.{k % 100}".encode())
        edits = [version]
        if kind == "heavy":
            residue = residues[heavy_done]
            heavy_done += 1
            for j in range(residue, body, 8):
                _edit(model[wide][1 + j], f"{j},{salt}{k}".encode())
            edits.append(wide)
        elif kind == "wide":
            _edit(model[wide][0], f"generated={k}".encode())
            edits.append(wide)
        elif kind == "lock":
            _edit(model[lock][0], f"# lock-revision {k}".encode())
            edits.append(lock)
        elif kind == "rewrite":
            generation += 1
            header = model[lock][0]
            if model[lock][1] is anchor:
                model[lock] = [header] + lock_block() + [anchor]
            else:
                model[lock] = [header, anchor] + lock_block()
            edits.append(lock)
        else:
            p = cold[k % n_cold]
            j = 1 + rng.randrange(14)
            _edit(model[p][j], f"int v{j} = {k};".encode())
            edits.append(p)
        builder.commit({p: _render(model[p]) for p in edits}, f"change {k}",
                       identity=_identity(rng))
    return model, {version, wide, lock}


WORKLOADS = {"desk": build_desk, "fanout": _generated(_fanout), "deep": _generated(_deep)}
