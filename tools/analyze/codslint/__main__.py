"""codslint CLI.

    python3 tools/analyze/codslint --compdb build/compile_commands.json
    python3 tools/analyze/codslint --self-test
    python3 tools/analyze/codslint --dump-lock-graph
    python3 tools/analyze/codslint --verify-lock-graph tests/static/analyze/lock_graph_golden.txt

Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage/setup
error. JSON report schema: registry.to_json (version 1).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from . import compdb, frontend, registry, selftest
from . import checks  # noqa: F401  -- populates the registry
from .checks import lockorder


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        prog="codslint",
        description="AST-based invariant analyzer for the cods codebase "
                    "(docs/STATIC_ANALYSIS.md)")
    p.add_argument("--root", type=pathlib.Path,
                   default=pathlib.Path(__file__).resolve().parents[3],
                   help="repository root (default: inferred from this file)")
    p.add_argument("--compdb", type=pathlib.Path, default=None,
                   help="compile_commands.json (default: "
                        "<root>/build/compile_commands.json if present, "
                        "else a synthesized src/ glob)")
    p.add_argument("--subtree", default="src",
                   help="restrict analysis to TUs under <root>/<subtree>")
    p.add_argument("--check", action="append", dest="checks", default=None,
                   metavar="NAME", help="run only this check (repeatable)")
    p.add_argument("--json", type=pathlib.Path, default=None,
                   metavar="FILE", help="also write a JSON report "
                                        "(- for stdout)")
    p.add_argument("--list-checks", action="store_true",
                   help="list registered checks and exit")
    p.add_argument("--self-test", action="store_true",
                   help="run the bait corpus under tests/static/analyze")
    p.add_argument("--dump-lock-graph", action="store_true",
                   help="print the extracted lock-order graph and exit "
                        "(cycles still fail)")
    p.add_argument("--verify-lock-graph", type=pathlib.Path, default=None,
                   metavar="GOLDEN", help="diff the extracted graph against "
                                          "a pinned golden file")
    p.add_argument("--runtime-hierarchy", type=pathlib.Path, default=None,
                   metavar="FILE", help="check the static graph covers every "
                                        "runtime-observed edge "
                                        "(lock_order::dump_hierarchy output)")
    p.add_argument("--verbose", action="store_true")
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.list_checks:
        for name, factory in sorted(registry.all_checks().items()):
            print(f"{name:14s} {factory().description}")
        return 0
    root = args.root.resolve()
    if args.self_test:
        return selftest.run(root, verbose=args.verbose)

    compdb_path = args.compdb
    if compdb_path is None:
        default = root / "build" / "compile_commands.json"
        compdb_path = default if default.is_file() else None
    if compdb_path is not None:
        if not compdb_path.is_file():
            print(f"codslint: no such compilation database: {compdb_path}",
                  file=sys.stderr)
            return 2
        commands = compdb.load(compdb_path, root, args.subtree)
        if not commands:
            print(f"codslint: {compdb_path} has no TUs under "
                  f"{root / args.subtree}", file=sys.stderr)
            return 2
    else:
        commands = compdb.fallback_commands(root, args.subtree)
        print("codslint: no compile_commands.json (configure with "
              "`cmake -B build -S .`); falling back to a src/ glob",
              file=sys.stderr)

    index = frontend.build_index(commands, root, verbose=args.verbose)
    check_objs = registry.make_checks(args.checks)
    raw: list[registry.Finding] = []
    lock_graph = None
    for check in check_objs:
        raw.extend(check.run(index))
        if isinstance(check, lockorder.LockOrderCheck):
            lock_graph = check.graph

    graph_modes = args.dump_lock_graph or args.verify_lock_graph or \
        args.runtime_hierarchy
    if graph_modes and lock_graph is None:
        # The graph flags imply the lock-order check even under --check.
        check = lockorder.LockOrderCheck()
        raw.extend(check.run(index))
        lock_graph = check.graph

    if args.runtime_hierarchy is not None:
        try:
            runtime_text = args.runtime_hierarchy.read_text(encoding="utf-8")
        except OSError as e:
            print(f"codslint: cannot read runtime hierarchy: {e}",
                  file=sys.stderr)
            return 2
        raw.extend(lockorder.diff_runtime(lock_graph, runtime_text))

    kept, suppressed = registry.apply_allow_markers(raw, index)
    kept.sort(key=lambda f: (f.file, f.line, f.check))

    if args.dump_lock_graph:
        sys.stdout.write(lock_graph.render())
    if args.verify_lock_graph is not None:
        try:
            golden = args.verify_lock_graph.read_text(encoding="utf-8")
        except OSError as e:
            print(f"codslint: cannot read golden lock graph: {e}",
                  file=sys.stderr)
            return 2
        got = lock_graph.render()
        if _normalize_graph(got) != _normalize_graph(golden):
            print("codslint: extracted lock graph differs from golden "
                  f"{args.verify_lock_graph}:", file=sys.stderr)
            _print_graph_diff(golden, got)
            return 1
        print(f"codslint: lock graph matches golden "
              f"({len(lock_graph.edges)} edges)", file=sys.stderr)

    if args.json is not None:
        payload = registry.to_json(kept, suppressed, str(root))
        if str(args.json) == "-":
            sys.stdout.write(payload)
        else:
            args.json.write_text(payload, encoding="utf-8")
    for f in kept:
        print(f.render(str(root)))
    n_files = len([p for p in index.files])
    print(f"codslint: {len(kept)} finding(s), {len(suppressed)} "
          f"allow-suppressed, {n_files} files analyzed", file=sys.stderr)
    return 1 if kept else 0


def _normalize_graph(text: str) -> list[str]:
    return sorted(ln.strip() for ln in text.splitlines()
                  if ln.strip() and not ln.lstrip().startswith("#"))


def _print_graph_diff(golden: str, got: str) -> None:
    g, e = set(_normalize_graph(golden)), set(_normalize_graph(got))
    for edge in sorted(g - e):
        print(f"  - {edge}   (in golden, not extracted)", file=sys.stderr)
    for edge in sorted(e - g):
        print(f"  + {edge}   (extracted, not in golden)", file=sys.stderr)
    print("  regenerate with --dump-lock-graph after auditing the change",
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
