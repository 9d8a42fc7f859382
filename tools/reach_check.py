#!/usr/bin/env python3
"""Reachability guard for src/, stdlib only.

Walks `#include "..."` edges from every source file of the shipped
binaries (tools/, bench/, examples/, fuzz/, perfbench/). A reached
header pulls in the .cpp of the same name, whose includes are walked in
turn. Tests are not roots, so a src/ module that only tests include is
reported: it is code no binary runs.

Usage: reach_check.py [REPO_ROOT]   exits 0 iff every src/ file is reached.
"""

import os
import re
import sys

ROOT_DIRS = ("tools", "bench", "examples", "fuzz", "perfbench")
EXTS = (".cpp", ".hpp", ".h")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def sources(top):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(EXTS):
                yield os.path.normpath(os.path.join(dirpath, name))


def main():
    repo = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    src = os.path.join(repo, "src")
    todo = [f for d in ROOT_DIRS for f in sources(os.path.join(repo, d))]
    seen = set()
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        stem, ext = os.path.splitext(path)
        if ext in (".hpp", ".h") and os.path.isfile(stem + ".cpp"):
            todo.append(stem + ".cpp")
        with open(path, encoding="utf-8") as f:
            for inc in INCLUDE.findall(f.read()):
                for base in (src, os.path.dirname(path)):
                    cand = os.path.normpath(os.path.join(base, inc))
                    if os.path.isfile(cand):
                        todo.append(cand)
                        break
    dead = [os.path.relpath(f, repo) for f in sources(src) if f not in seen]
    for f in sorted(dead):
        print(f"reach_check: {f} is reached by no shipped binary")
    print(f"reach_check: {len(dead)} unreached src/ file(s)")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
