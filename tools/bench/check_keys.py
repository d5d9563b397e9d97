#!/usr/bin/env python3
"""Checks that a bench's JSON output carries exactly the keys of its committed file.

  python3 tools/bench/check_keys.py WRITTEN.json COMMITTED.json

Keys are compared as dotted paths, with "[]" for list elements, so a field a
binary stopped writing cannot linger in the committed BENCH_*.json, and a new
field cannot go uncommitted. Exits 1, naming the keys on each side only, when
the sets differ.
"""

import json
import sys


def keys(value, prefix=""):
    out = set()
    if isinstance(value, dict):
        for k, v in value.items():
            out.add(prefix + k)
            out |= keys(v, prefix + k + ".")
    elif isinstance(value, list):
        for v in value:
            out |= keys(v, prefix + "[].")
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    written_path, committed_path = sys.argv[1:]
    with open(written_path) as f:
        written = keys(json.load(f))
    with open(committed_path) as f:
        committed = keys(json.load(f))
    if written != committed:
        print("%s keys differ from %s:" % (committed_path, written_path))
        print("  only committed:", sorted(committed - written))
        print("  only written:  ", sorted(written - committed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
