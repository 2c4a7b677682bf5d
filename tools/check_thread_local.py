#!/usr/bin/env python3
"""Lint: every `thread_local` in src/ must be on a reviewed allowlist.

A thread-local buffer shared by the tasks of a thread pool is a data race
waiting for a refactor: a task that fills it and a task that reads it can
run on different workers (the gemm_tiled_pb segfault was one). The sites
that remain are each private to one thread by construction, and are
listed below keyed by file and variable name. Any other `thread_local`
declaration fails the check, and so does an allowlist entry whose site is
gone (the list must name exactly the sites that exist).

Usage:
  tools/check_thread_local.py [--root DIR]

Exit codes: 0 pass, 1 an unlisted site or a stale allowlist entry.
"""

import argparse
import pathlib
import re
import sys

# (path under src/, variable) -> why the buffer is never shared.
ALLOWLIST = {
    ("models/executor.cpp", "wq"):
        "caller-thread int16 weight scratch, consumed before the call returns",
    ("models/executor.cpp", "wv"):
        "caller-thread float weight scratch, consumed before the call returns",
    ("core/im2col.cpp", "scratch"):
        "run_tiles' B panel: written and read by the one task that packs it",
    ("util/thread_pool.cpp", "tl_worker_pool"):
        "each worker's own pool pointer (nested-parallelism guard)",
}

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}
THREAD_LOCAL = re.compile(r"\bthread_local\b")
# The declared name: the last identifier before the initializer or `;`.
DECLARED = re.compile(r"\bthread_local\b[^;={(]*?\b([A-Za-z_]\w*)\s*[;={(]")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, keeping line breaks
    so reported line numbers stay right."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(" ")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def find_sites(src_root):
    """Yields (relative path, line number, variable or None) per site."""
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(src_root).as_posix()
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(code.splitlines(), start=1):
            if not THREAD_LOCAL.search(line):
                continue
            m = DECLARED.search(line)
            yield rel, lineno, m.group(1) if m else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=pathlib.Path(__file__).resolve().parent.parent,
        type=pathlib.Path,
        help="repository root (default: this script's repository)")
    args = parser.parse_args()
    src_root = args.root / "src"
    if not src_root.is_dir():
        print(f"check_thread_local: no src/ under {args.root}", file=sys.stderr)
        return 1

    failures = []
    seen = set()
    for rel, lineno, var in find_sites(src_root):
        key = (rel, var)
        if key in ALLOWLIST:
            seen.add(key)
            continue
        name = f"'{var}'" if var else "(unparsed declaration)"
        failures.append(
            f"src/{rel}:{lineno}: thread_local {name} is not on the "
            f"allowlist in tools/check_thread_local.py")
    for rel, var in sorted(set(ALLOWLIST) - seen):
        failures.append(
            f"src/{rel}: allowlisted thread_local '{var}' no longer exists; "
            f"remove its entry")

    for f in failures:
        print(f)
    if failures:
        print(f"check_thread_local: {len(failures)} problem(s)")
        return 1
    print(f"check_thread_local: {len(seen)} allowlisted site(s), no others")
    return 0


if __name__ == "__main__":
    sys.exit(main())
