"""Synthetic git repository builder used by the oracle tests.

Repositories are written through ``git fast-import`` so building thousands
of commits stays cheap.  The builder keeps an in-memory model of every
file's content, which the tests use as the independent source of truth.
"""

from __future__ import annotations

import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

HUMANS = [
    ("Ada Example", "ada@example.org"),
    ("Grace Sample", "grace@example.org"),
    ("Linus Placeholder", "linus@example.org"),
]
BOT = ("release-bot", "bot@automation.example")


def run_git(repo: Path, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    proc = subprocess.run(["git", *args], cwd=repo, capture_output=True)
    if check and proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {proc.stderr.decode(errors='replace')}")
    return proc


@dataclass
class RepoBuilder:
    path: Path
    branch: str = "main"
    start_ts: int = 1_500_000_000
    step: int = 3600
    _chunks: list[bytes] = field(default_factory=list)
    _n_commits: int = 0
    files: dict[str, bytes] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        run_git(self.path, "init", "-q", "-b", self.branch, ".")

    def commit(
        self,
        edits: dict[str, bytes | None],
        message: str = "edit",
        identity: tuple[str, str] | None = None,
        ts: int | None = None,
    ) -> int:
        """Queue one commit; ``None`` content deletes the path.

        Returns the commit timestamp used.
        """
        name, email = identity or HUMANS[self._n_commits % len(HUMANS)]
        when = ts if ts is not None else self.start_ts + self._n_commits * self.step
        msg = message.encode()
        out = [
            f"commit refs/heads/{self.branch}\n".encode(),
            f"mark :{self._n_commits + 1}\n".encode(),
            # surrogateescape: a name may carry raw bytes that are not UTF-8
            f"author {name} <{email}> {when} +0000\n".encode("utf-8", "surrogateescape"),
            f"committer {name} <{email}> {when} +0000\n".encode("utf-8", "surrogateescape"),
            f"data {len(msg)}\n".encode(),
            msg,
            b"\n",
        ]
        if self._n_commits > 0:
            out.append(f"from :{self._n_commits}\n".encode())
        for file_path, content in sorted(edits.items()):
            if content is None:
                out.append(f"D {file_path}\n".encode())
                self.files.pop(file_path, None)
            else:
                out.append(f"M 100644 inline {file_path}\ndata {len(content)}\n".encode())
                out.append(content)
                out.append(b"\n")
                self.files[file_path] = content
        self._chunks.extend(out)
        self._n_commits += 1
        return when

    def finish(self) -> list[str]:
        """Run fast-import and return the commit hashes oldest first."""
        stream = b"".join(self._chunks) + b"done\n"
        proc = subprocess.run(
            ["git", "fast-import", "--quiet", "--done"],
            cwd=self.path, input=stream, capture_output=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"fast-import failed: {proc.stderr.decode(errors='replace')}")
        out = run_git(self.path, "rev-list", "--reverse", self.branch)
        return out.stdout.decode().split()


class BlobReader:
    """Batched object reader: one git cat-file process per repository."""

    def __init__(self, repo: Path):
        self.proc = subprocess.Popen(
            ["git", "cat-file", "--batch"],
            cwd=repo, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def read(self, commit: str, path: str) -> bytes | None:
        assert self.proc.stdin and self.proc.stdout
        self.proc.stdin.write(f"{commit}:{path}\n".encode())
        self.proc.stdin.flush()
        header = self.proc.stdout.readline().decode()
        if header.endswith("missing\n"):
            return None
        size = int(header.rsplit(" ", 1)[1])
        blob = self.proc.stdout.read(size)
        self.proc.stdout.read(1)  # trailing newline
        return blob

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _line(file_id: int, serial: int, rng: random.Random) -> bytes:
    return f"f{file_id} line {serial} token{rng.randrange(10_000)}".encode()


def random_line_history(
    rng: random.Random,
    n_files: int = 2,
    n_commits: int = 20,
) -> list[dict[str, bytes | None]]:
    """Commit scripts of line insertions, deletions, and in-place edits.

    No intra-file block moves are generated: edits only insert, delete, or
    rewrite lines in place, so positional identity matches real identity.
    """
    serial = 0
    model: dict[str, list[bytes]] = {}
    no_final_newline: set[str] = set()
    commits: list[dict[str, bytes | None]] = []

    def render(file_id_path: str) -> bytes:
        lines = model[file_id_path]
        if not lines:
            return b""
        body = b"\n".join(lines)
        return body if file_id_path in no_final_newline else body + b"\n"

    for commit_index in range(n_commits):
        edits: dict[str, bytes | None] = {}
        for file_id in range(n_files):
            path = f"dir{file_id % 2}/file{file_id}.txt"
            if path not in model:
                if commit_index == 0 or rng.random() < 0.2:
                    count = rng.randrange(1, 12)
                    model[path] = []
                    for _ in range(count):
                        serial += 1
                        model[path].append(_line(file_id, serial, rng))
                    if rng.random() < 0.15:
                        no_final_newline.add(path)
                    edits[path] = render(path)
                continue
            if rng.random() < 0.25:
                continue  # file untouched this commit
            lines = model[path]
            for _ in range(rng.randrange(1, 4)):
                op = rng.random()
                if op < 0.4 or not lines:  # insert
                    pos = rng.randrange(0, len(lines) + 1)
                    serial += 1
                    lines.insert(pos, _line(file_id, serial, rng))
                elif op < 0.7:  # modify in place
                    pos = rng.randrange(len(lines))
                    serial += 1
                    lines[pos] = _line(file_id, serial, rng)
                else:  # delete a short run
                    pos = rng.randrange(len(lines))
                    del lines[pos : pos + rng.randrange(1, 3)]
            if rng.random() < 0.1:
                if path in no_final_newline:
                    no_final_newline.discard(path)
                else:
                    no_final_newline.add(path)
            edits[path] = render(path)
        if edits:
            commits.append(edits)
    return commits


def build_random_repo(path: Path, seed: int, n_commits: int = 20,
                      n_files: int = 2) -> tuple[list[str], list[str]]:
    """Materialize a random line-edit history; returns (hashes, paths)."""
    rng = random.Random(seed)
    scripts = random_line_history(rng, n_files=n_files, n_commits=n_commits)
    builder = RepoBuilder(path)
    paths: set[str] = set()
    for edits in scripts:
        builder.commit(edits)
        paths.update(edits)
    hashes = builder.finish()
    return hashes, sorted(paths)


def build_hotspot_repo(path: Path, n_bumps: int = 34) -> dict:
    """A 40-commit repository with one planted hotspot file and line.

    hot.cfg has 15 lines; line 2 is a pinned version string bumped once per
    bump commit, alternating between a bot and a human committer.  The other
    files stay quiet, so only hot.cfg passes the dual filter and only line 2
    is a modification-count outlier inside it.
    """
    builder = RepoBuilder(path)
    hot_lines = [b"[package]"] + [b'version = "1.0.0"'] + [
        f"option_{i} = {i}".encode() for i in range(13)]

    edits: dict[str, bytes | None] = {
        "hot.cfg": b"\n".join(hot_lines) + b"\n",
        "src/app.py": b"def main():\n    return 0\n",
        "docs/readme.md": b"# readme\n\nwords\n",
    }
    for i in range(15):
        edits[f"src/quiet_{i:02d}.py"] = f"QUIET = {i}\n".encode()
    builder.commit(edits, "initial import")

    for k in range(1, n_bumps + 1):
        hot_lines[1] = f'version = "1.0.{k}"'.encode()
        identity = ("dep-updater[bot]", "updates@bots.example") if k % 2 == 0 else None
        builder.commit({"hot.cfg": b"\n".join(hot_lines) + b"\n"},
                       f"bump to 1.0.{k}", identity=identity)

    builder.commit({"src/app.py": b"def main():\n    return 1\n"}, "app change 1")
    builder.commit({"src/app.py": b"def main():\n    return 2\n"}, "app change 2")
    builder.commit({"src/app.py": b"def main():\n    return 3\n"}, "app change 3")
    builder.commit({"docs/readme.md": b"# readme\n\nmore words\n"}, "docs 1")
    builder.commit({"docs/readme.md": b"# readme\n\neven more words\n"}, "docs 2")
    hashes = builder.finish()
    return {
        "path": path,
        "hashes": hashes,
        "hot_file": "hot.cfg",
        "hot_line_number": 2,
        "hot_line_mods": n_bumps,
        "bot_bumps": n_bumps // 2,
        "n_files": len(edits),
    }


def build_multi_hotspot_repo(path: Path, n_rounds: int = 40) -> dict:
    """Three hotspot files edited in the same commits, with a rename and a copy.

    Every round edits line 2 of ``conf/a.cfg`` and line 3 of the second
    file, which is ``conf/old.cfg`` until round ``n_rounds // 2`` renames it
    to ``conf/b.cfg`` unchanged.  Round ``n_rounds // 4`` also adds
    ``conf/c.cfg``: a.cfg's content before that round's edit, with line 5
    edited; later rounds edit c.cfg's line 2 only.  Fifty quiet files are
    touched once, so exactly the three hot files pass the dual filter.
    Returns the final files' lines with the number of edits each received.
    """
    builder = RepoBuilder(path)
    model = {
        "conf/a.cfg": [[f"alpha_{i} = {i}".encode(), 0] for i in range(15)],
        "conf/old.cfg": [[f"beta_{i} = {i * 7}".encode(), 0] for i in range(12)],
    }

    def render(p: str) -> bytes:
        return b"\n".join(text for text, _ in model[p]) + b"\n"

    edits: dict[str, bytes | None] = {p: render(p) for p in model}
    for i in range(50):
        edits[f"src/quiet_{i:02d}.py"] = f"QUIET = {i}\n".encode()
    builder.commit(edits, "initial import")

    second = "conf/old.cfg"
    for k in range(1, n_rounds + 1):
        edits = {}
        if k == n_rounds // 4:
            model["conf/c.cfg"] = [[text, 0] for text, _ in model["conf/a.cfg"]]
            model["conf/c.cfg"][4][0] = b"alpha_4 = edited in the copy"
            edits["conf/c.cfg"] = render("conf/c.cfg")
        elif k > n_rounds // 4:
            model["conf/c.cfg"][1] = [f"gamma = {k}".encode(), model["conf/c.cfg"][1][1] + 1]
            edits["conf/c.cfg"] = render("conf/c.cfg")
        model["conf/a.cfg"][1] = [f'version = "1.0.{k}"'.encode(), model["conf/a.cfg"][1][1] + 1]
        edits["conf/a.cfg"] = render("conf/a.cfg")
        if k == n_rounds // 2:
            model["conf/b.cfg"] = model.pop(second)
            edits[second] = None
            second = "conf/b.cfg"
        else:
            model[second][2] = [f"beta_2 = {k}".encode(), model[second][2][1] + 1]
        edits[second] = render(second)
        builder.commit(edits, f"round {k}")
    hashes = builder.finish()
    return {
        "path": path,
        "hashes": hashes,
        "hot_files": sorted(model),
        "lines": {p: [(text, mods) for text, mods in lines] for p, lines in model.items()},
        "renamed": ("conf/old.cfg", "conf/b.cfg"),
        "copy": ("conf/c.cfg", 5),  # copy target and its line edited in the copy commit
    }


def build_perf_repo(path: Path, n_commits: int = 10_000, n_files: int = 200) -> list[str]:
    """A large repository with a handful of planted hotspot files.

    Most commits touch one or two rotating files lightly; three hot files
    have single lines rewritten in a large fraction of commits, partly by a
    bot identity.
    """
    rng = random.Random(1234)
    builder = RepoBuilder(path, step=900)  # ~15 min between commits
    contents: dict[str, list[bytes]] = {}

    def render(p: str) -> bytes:
        return b"\n".join(contents[p]) + b"\n"

    hot = ["hot/config.env", "hot/service.yaml", "hot/version.txt"]
    cold = [f"src/module_{i:03d}.py" for i in range(n_files - len(hot))]

    edits: dict[str, bytes | None] = {}
    for p in hot:
        contents[p] = ([f"{p} header".encode(), b"stable line", b"counter=0"]
                       + [f"setting_{i} = {i}".encode() for i in range(12)])
        edits[p] = render(p)
    for p in cold:
        contents[p] = [f"# {p}".encode()] + [f"def f{i}(): return {i}".encode()
                                             for i in range(20)]
        edits[p] = render(p)
    builder.commit(edits, "initial import")

    for k in range(1, n_commits):
        edits = {}
        target = cold[k % len(cold)]
        lines = contents[target]
        lines[1 + (k % (len(lines) - 1))] = f"def f{k}(): return {k}".encode()
        edits[target] = render(target)
        identity = None
        if k % 3 == 0:
            hot_path = hot[(k // 3) % len(hot)]
            contents[hot_path][2] = f"counter={k}".encode()
            edits[hot_path] = render(hot_path)
            identity = BOT if k % 2 == 0 else None
        builder.commit(edits, f"change {k}", identity=identity)
    return builder.finish()
