"""Classifier regression corpus: seeded mutations of the golden fixtures'
token shapes, with their labels pinned in ``data/taxonomy_corpus.json``.

Any edit to the classifier must leave every pinned label and confidence as
it is.  Rewrite the data file only when a label change is intended, with
``PYTHONPATH=src python tests/test_taxonomy_corpus.py``.
"""

from __future__ import annotations

import json
import random
import re
import string
import sys
from collections import Counter
from pathlib import Path

from linechurn.churn import PROGRAMMING, categorize_file
from linechurn.taxonomy import Pattern, classify_history

from test_taxonomy import label_pair, line_from_contents

DATA = Path(__file__).parent / "data" / "taxonomy_corpus.json"
SEED = 20261018
N_PAIRS = 12_000
N_HISTORIES = 1_500
DAY = 86_400

# One character per label, in Pattern's declaration order.
CODE = {p: chr(ord("a") + i) for i, p in enumerate(Pattern)}

PROGRAM_PATHS = ["src/billing.py", "diff.c", "app/controllers/charts_controller.rb",
                 "lib/util.c", "src/lib/db/project-stats-store.ts", "docs/conf.py", "setup.py"]
ADMIN_PATHS = ["notes.txt", "status.json", "zuul.d/jobs.yaml", "requirements.txt",
               "drivers/media/video/Makefile", "data/formats-data.ts", "app/version.cfg",
               "ansible/inventory/env/group_vars/all.yml", "docs/user-guide.adoc",
               "cluster/gce/config-default.sh", "package.json", "CMakeLists.txt"]
WORDS = ("alpha beta gamma delta result total value count item node entry record "
         "cache index state source target buffer limit offset").split()
PROSE = ("the of canvas search menu global right side components find easily use "
         "information refer panel shows each option a to is and on").split()
SERVICE_KEYS = ["api_base_url", "db_host", "redis_port", "proxy", "auth_token", "smtp_password",
                "ssh_addr", "service_endpoint", "sentry_dsn"]
DISTROS = ["ubuntu", "debian", "centos", "rocky", "alpine", "fedora", "focal", "jammy",
           "bullseye", "bookworm"]
HEX = "0123456789abcdef"


def version(rng) -> str:
    return ".".join(str(rng.randrange(0, 30)) for _ in range(rng.randrange(2, 5)))


def bump(rng, v: str) -> str:
    nums = [int(p) for p in v.split(".")]
    k = rng.randrange(len(nums))
    nums[k] += rng.choice([1, 1, 2, -1])  # now and then a downgrade
    return ".".join(str(max(n, 0)) for n in nums)


def hexstr(rng, n: int) -> str:
    return "".join(rng.choice(HEX) for _ in range(n))


def date(rng) -> str:
    return f"20{rng.randrange(10, 30)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"


def ident(rng) -> str:
    return rng.choice(WORDS) + rng.choice(["", "_" + rng.choice(WORDS), str(rng.randrange(9))])


def prose(rng, n: int) -> str:
    return " ".join(rng.choice(PROSE) for _ in range(n))


# --- pair shapes: each returns (before, after, path) ------------------------

def pinned(rng):
    v = version(rng)
    key = rng.choice(["release", "version", "appVersion", "__version__", "image_tag"])
    sep, q = rng.choice([" = ", ": ", "="]), rng.choice(['"', "'", ""])
    return (f"{key}{sep}{q}{v}{q}", f"{key}{sep}{q}{bump(rng, v)}{q}",
            rng.choice(["docs/conf.py", "app/version.cfg", "setup.py", "Chart.yaml"]))


def conditional(rng):
    pkg, lo, hi = ident(rng), version(rng), version(rng)
    op = rng.choice([">=", "~=", "^", "<=", ">", "!="])
    before = f"{pkg}{op}{lo},<{hi}" if rng.random() < 0.6 else f'"{pkg}": "{op}{lo}"'
    return before, before.replace(lo, bump(rng, lo), 1), rng.choice(
        ["requirements.txt", "package.json", "deps/list.txt"])


def resource(rng):
    kind = rng.randrange(4)
    if kind == 0:
        old = f"v20{rng.randrange(10, 25)}{rng.randrange(1, 13):02d}{rng.randrange(1, 29):02d}"
        new = f"v20{rng.randrange(10, 25)}{rng.randrange(1, 13):02d}{rng.randrange(1, 29):02d}"
        line = "IMAGE=container-vm-{}"
    elif kind == 1:
        old, new, line = hexstr(rng, 8), hexstr(rng, 17), "ami_id: ami-{}"
    elif kind == 2:
        old, new, line = hexstr(rng, 12), hexstr(rng, 12), "image: app@sha256:{}"
    else:
        old, new, line = hexstr(rng, 40), hexstr(rng, 40), "rev: {}"
    return line.format(old), line.format(new), rng.choice(ADMIN_PATHS + PROGRAM_PATHS)


def service(rng):
    key = rng.choice(SERVICE_KEYS)
    host = lambda: rng.choice(["http://", "https://", ""]) + ident(rng) + f":{rng.randrange(80, 9999)}"
    sep = rng.choice([": ", " = ", "="])
    return (f'{key}{sep}"{host()}"', f'{key}{sep}"{host()}"',
            rng.choice(["ansible/inventory/env/group_vars/all.yml", "config/app.ini", "settings.py"]))


def dependency(rng):
    if rng.random() < 0.5:
        objs = [ident(rng) + ".o" for _ in range(rng.randrange(2, 5))]
        before = "obj-$(CONFIG_VIDEO_DEV) += " + " ".join(objs)
        objs[rng.randrange(len(objs))] = ident(rng) + "-compat.o"
        return before, "obj-$(CONFIG_VIDEO_DEV) += " + " ".join(objs), "drivers/media/video/Makefile"
    mod = ident(rng)
    return (f"import {mod}", f"import {mod}, {ident(rng)}", rng.choice(PROGRAM_PATHS))


def external(rng):
    key = rng.choice(["tier", "rank", "weight", "score", "enabled", "level"])
    vals = [f'"{rng.choice(string.ascii_uppercase)}{rng.choice(string.ascii_uppercase)}"',
            str(rng.randrange(0, 500)), rng.choice(["true", "false", "null"])]
    old, new = rng.choice(vals), rng.choice(vals)
    tail = rng.choice([",", "", ";"])
    return (f"{key}: {old}{tail}", f"{key}: {new}{tail}",
            rng.choice(["data/formats-data.ts", "status.json", "notes.txt", "app/version.cfg"]))


def path_update(rng):
    mod = ident(rng)
    old = rng.choice(["lib/services/", "./", "../lib/", "src/"]) + mod
    new = rng.choice(["../services/", "../../", "lib/", "https://cdn.example.org/"]) + mod
    return (f"import {{ {mod} }} from '{old}';", f"import {{ {mod} }} from '{new}';",
            rng.choice(PROGRAM_PATHS + ADMIN_PATHS))


def distro(rng):
    a, b = rng.choice(DISTROS), rng.choice(DISTROS)
    prefix, suffix = ident(rng), rng.choice(["source-kvm", "binary", "base"])
    return (f"name: {prefix}-{a}{rng.randrange(6, 24)}-{suffix}",
            f"name: {prefix}-{b}{rng.randrange(6, 24)}-{suffix}", rng.choice(ADMIN_PATHS))


def debug(rng):
    base = f"extra_args+=' -e {ident(rng)}=0'"
    if rng.random() < 0.5:
        return base, base[:-1] + rng.choice([" -v'", " -e verbose=1'", " -q'", " --vv'"]), rng.choice(
            ADMIN_PATHS)
    key = rng.choice(["debug", "log_level", "verbose", "trace"])
    return f"{key} = {rng.choice(['0', 'false'])}", f"{key} = {rng.choice(['1', 'true'])}", rng.choice(
        ADMIN_PATHS + PROGRAM_PATHS)


def call(rng):
    f, g, x = ident(rng), ident(rng), ident(rng)
    before = f'printf("%s", {f}({g}({x}), abbrev));'
    after = rng.choice([f'printf("%s", {f}({x}.oid.hash, abbrev));',
                        f'printf("%s", {f}({g}({x}), abbrev, 1));',
                        f'printf("%s", {g}({f}({x}), abbrev));'])
    return before, after, rng.choice(PROGRAM_PATHS)


def formatting(rng):
    before, _, path = rng.choice(SHAPES[:-3])(rng)
    after = before.replace(" ", rng.choice(["  ", "\t", " "]), 1)
    if after == before or rng.random() < 0.3:
        after = before.swapcase() if rng.random() < 0.5 else " " + before + "  "
    return before, after, path


def long_line(rng):
    words = prose(rng, rng.randrange(22, 34)).split()
    after = list(words)
    for _ in range(rng.randrange(1, 5)):
        after[rng.randrange(len(after))] = rng.choice(PROSE)
    before, after = " ".join(words), " ".join(after)
    if rng.random() < 0.2:
        after = after.replace(" ", "  ", 1)
    return before, after, rng.choice(["docs/user-guide.adoc", "README.md", "notes.txt", "src/billing.py"])


def license_(rng):
    y = rng.randrange(1995, 2024)
    holder = rng.choice(["TrinityCore", "The Authors", "Acme Corp"])
    before = f"# Copyright (C) {y - rng.randrange(1, 9)}-{y} {holder}"
    after = before.replace(str(y), str(y + 1)) if rng.random() < 0.7 else before.replace(
        holder, rng.choice(["Blue Sky Inc.", "Jane Doe", "Other Holder"]))
    return before, after, rng.choice(["CMakeLists.txt", "lib/util.c", "LICENSE", "package.json"])


def metadata(rng):
    kind = rng.randrange(4)
    if kind == 0:
        old, new, line = date(rng) + "T12:37:57.000+00:00", date(rng) + "T14:24:58.697Z", '"timestamp": "{}",'
    elif kind == 1:
        old, new, line = str(rng.randrange(10 ** 9, 2 * 10 ** 9)), str(
            rng.randrange(10 ** 9, 2 * 10 ** 9)), "generated_at = {}"
    elif kind == 2:
        old, new, line = hexstr(rng, 32), hexstr(rng, 32), "md5sum {} payload.tar"
    else:
        old, new, line = date(rng), date(rng), '"built": "{}",'
    return line.format(old), line.format(new), rng.choice(ADMIN_PATHS + PROGRAM_PATHS)


def code_edit(rng):
    a, b = ident(rng), ident(rng)
    ops = ["+", "-", "*", "/", "%", "and", "or"]
    return (f"{a} = {a} {rng.choice(ops)} {b}", f"{a} = {b} {rng.choice(ops)} {a}",
            rng.choice(PROGRAM_PATHS))


def prose_edit(rng):
    return prose(rng, rng.randrange(2, 8)), prose(rng, rng.randrange(2, 8)), rng.choice(ADMIN_PATHS)


def noise(rng):
    before, after, path = rng.choice(SHAPES[:-3])(rng)
    return before, mutate(rng, after), rng.choice([path, rng.choice(PROGRAM_PATHS + ADMIN_PATHS)])


SHAPES = [pinned, conditional, resource, service, dependency, external, path_update, distro,
          debug, call, long_line, license_, metadata, code_edit, prose_edit,
          formatting, noise, noise]


# --- general mutators: any line, used by noise and by histories -------------

def mutate(rng, text: str) -> str:
    kind = rng.randrange(7)
    if kind == 0 and (m := list(re.finditer(r"\d+(?:\.\d+)+", text))):
        m = rng.choice(m)
        return text[:m.start()] + bump(rng, m.group()) + text[m.end():]
    if kind == 1 and (m := list(re.finditer(r"\d+", text))):
        m = rng.choice(m)
        return text[:m.start()] + str(int(m.group()) + rng.randrange(1, 30)) + text[m.end():]
    if kind == 2:
        return text.replace(" ", "  ", 1) if " " in text else text + " "
    words = text.split(" ")
    k = rng.randrange(len(words))
    if kind == 3:
        words[k] = ident(rng)
    elif kind == 4:
        words.insert(k, rng.choice(["-v", "debug", "lib/x", "f(x)", "2024", "(c)", ident(rng)]))
    elif kind == 5 and len(words) > 1:
        del words[k]
    else:
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice(string.printable[:94]) + text[i:]
    return " ".join(words)


def generate_pairs(rng: random.Random, n: int) -> list[tuple[str, str, str]]:
    pairs = []
    while len(pairs) < n:
        before, after, path = rng.choice(SHAPES)(rng)
        if before != after:
            pairs.append((before, after, path))
    return pairs


def generate_histories(rng: random.Random, n: int) -> list[tuple[list[bytes], list[int], str]]:
    """Lines of 1-9 edits: chained mutations, reverts, repeats and fresh pairs,
    with gaps inside, on and outside the 14-day stepwise window."""
    gaps = [3600, DAY, 3 * DAY, 13 * DAY, 14 * DAY, 14 * DAY + 1, 30 * DAY, 200 * DAY]
    histories = []
    for _ in range(n):
        before, after, path = rng.choice(SHAPES)(rng)
        if rng.random() < 0.5:
            path = rng.choice(PROGRAM_PATHS)
        contents = [before, after]
        for _ in range(rng.randrange(0, 8)):
            step = rng.random()
            if step < 0.45:
                contents.append(mutate(rng, contents[-1]))
            elif step < 0.6:
                contents.append(rng.choice(contents[:-1]))  # revert: ping-pong
            elif step < 0.7:
                contents.append(contents[-1])  # a touch with no byte change
            else:
                contents.append(rng.choice(SHAPES)(rng)[1])
        ts = [rng.randrange(10 ** 9, 2 * 10 ** 9)]
        for _ in contents[1:]:
            ts.append(ts[-1] + rng.choice(gaps))
        histories.append(([c.encode() for c in contents], ts, path))
    return histories


def classify_corpus() -> dict:
    rng = random.Random(SEED)
    pair_codes = []
    for before, after, path in generate_pairs(rng, N_PAIRS):
        label = label_pair(before.encode(), after.encode(), path)
        pair_codes.append(CODE[label.label])
    history_codes, confidences = [], []
    for contents, ts, path in generate_histories(rng, N_HISTORIES):
        label = classify_history(line_from_contents(contents, ts), categorize_file(path), path)
        history_codes.append(CODE[label.label])
        confidences.append(label.confidence)
    return {"pairs": "".join(pair_codes),
            "histories": "".join(history_codes), "history_confidences": confidences}


def test_corpus_covers_every_pattern():
    pinned_labels = json.loads(DATA.read_text("utf-8"))
    counts = Counter(pinned_labels["pairs"])
    for pattern in Pattern:
        if pattern is not Pattern.STEPWISE_REFACTORING:  # a history-only label
            assert counts[CODE[pattern]] >= 50, pattern
    assert len(pinned_labels["pairs"]) >= 10_000
    assert Counter(pinned_labels["histories"])[CODE[Pattern.STEPWISE_REFACTORING]] >= 50


def test_corpus_histories_cover_ties_and_the_window():
    rng = random.Random(SEED)
    generate_pairs(rng, N_PAIRS)
    histories = generate_histories(rng, N_HISTORIES)
    ties = in_window = out_window = 0
    for contents, ts, path in histories:
        category = categorize_file(path)
        votes = Counter(
            label_pair(b, a, path).label
            for b, a in zip(contents, contents[1:]) if b != a).most_common(2)
        ties += len(votes) == 2 and votes[0][1] == votes[1][1]
        if category == PROGRAMMING and len(ts) >= 3:
            gaps = [b - a for a, b in zip(ts[1:], ts[2:])]
            in_window += any(g <= 14 * DAY for g in gaps)
            out_window += all(g > 14 * DAY for g in gaps)
    assert len(histories) >= 1000
    assert min(ties, in_window, out_window) >= 50


def test_labels_equal_the_pinned_corpus():
    assert classify_corpus() == json.loads(DATA.read_text("utf-8"))


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(classify_corpus(), indent=0, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {DATA}", file=sys.stderr)
