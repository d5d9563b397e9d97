"""--self-test: run the analyzer over its bait corpus and verify exactness.

The corpus under tests/static/analyze/ is the analyzer's own test suite:
every `// codslint-expect(check)` marker must produce a finding on that
line, every finding must be either expected or allow-suppressed (no
overreach), every registered check must fire at least once, and clean.cpp
must stay silent. Lock-order cycles carry a file-level marker
`// codslint-expect-file(lock-order)` because a cycle's witness line
depends on the sorted component, not on one bait statement. The self-test
also asserts the interprocedural lock-graph machinery directly: the bait
graph must contain the seeded nested, call-through and inverted edges, and
the edges through two same-named nested types.

This is what CI runs before trusting a src/ analysis, and what a check
author runs while iterating (docs/STATIC_ANALYSIS.md)."""

from __future__ import annotations

import pathlib
import re
import sys

from . import compdb, frontend, registry
from . import checks  # noqa: F401  -- populates the registry
from .checks import lockorder

EXPECT_FILE_RE = re.compile(r"codslint-expect-file\(([a-z-]+)\)")

# Edges the bait corpus seeds on purpose; their presence proves direct
# nesting, inversion and call-through (interprocedural) extraction work.
REQUIRED_BAIT_EDGES = (
    ("bait.a", "bait.b"),   # direct nesting in ab()
    ("bait.b", "bait.a"),   # the seeded inversion in ba()
    ("bait.a", "bait.c"),   # held across a call into helper()
    # A nested type resolves in its enclosing class first: Left::Slot and
    # Right::Slot share a name, and each run() locks its own class's.
    ("bait.left", "bait.left_slot"),
    ("bait.right", "bait.right_slot"),
)


def run(root: pathlib.Path, verbose: bool = False) -> int:
    corpus = root / "tests" / "static" / "analyze"
    if not corpus.is_dir():
        print(f"codslint: self-test corpus missing: {corpus}",
              file=sys.stderr)
        return 2
    commands = compdb.fallback_commands(root, "tests/static/analyze")
    if not commands:
        print(f"codslint: no bait files under {corpus}", file=sys.stderr)
        return 2
    index = frontend.build_index(commands, root, verbose=verbose)
    raw: list[registry.Finding] = []
    fired: dict[str, int] = {}
    lock_graph = None
    for check in registry.make_checks():
        fs = check.run(index)
        fired[check.name] = len(fs)
        raw.extend(fs)
        if isinstance(check, lockorder.LockOrderCheck):
            lock_graph = check.graph
    kept, suppressed = registry.apply_allow_markers(raw, index)

    failures: list[str] = []

    # 1. Every line-level expect marker fired (and survived allow markers).
    expected = registry.expected_findings(index)
    kept_keys = {(f.check, f.file, f.line) for f in kept}
    for check_name, path, line in expected:
        if (check_name, path, line) not in kept_keys:
            failures.append(
                f"{_rel(path, root)}:{line}: expected [{check_name}] "
                "finding did not fire")

    # 2. File-level expect markers (lock-order cycles).
    expected_file: set[tuple[str, str]] = set()
    for path, lf in index.files.items():
        for c in lf.comments:
            for m in EXPECT_FILE_RE.finditer(c.text):
                expected_file.add((m.group(1), path))
    kept_file_keys = {(f.check, f.file) for f in kept}
    for check_name, path in expected_file:
        if (check_name, path) not in kept_file_keys:
            failures.append(
                f"{_rel(path, root)}: expected [{check_name}] finding "
                "(file-level) did not fire")

    # 3. No overreach: every kept finding is expected somewhere.
    expected_keys = {(c, p, l) for c, p, l in expected}
    for f in kept:
        if (f.check, f.file, f.line) in expected_keys:
            continue
        if (f.check, f.file) in expected_file:
            continue
        failures.append(
            f"{_rel(f.file, root)}:{f.line}: unexpected [{f.check}] "
            f"finding: {f.message}")

    # 4. Every registered check fired at least once, pre-suppression.
    for name, count in sorted(fired.items()):
        if count == 0:
            failures.append(f"check [{name}] never fired on the corpus — "
                            "its bait is dead")

    # 5. The allow-marker path is exercised (bait_allow.cpp suppresses one).
    if not suppressed:
        failures.append("no finding was allow-suppressed — the "
                        "codslint-allow path is untested")

    # 6. clean.cpp stays silent even pre-suppression.
    for f in raw:
        if f.file.endswith("clean.cpp"):
            failures.append(
                f"clean.cpp:{f.line}: [{f.check}] fired on the clean file: "
                f"{f.message}")

    # 7. Seeded lock-graph edges present (nesting, inversion, call-through).
    edges = set(lock_graph.edges) if lock_graph is not None else set()
    for edge in REQUIRED_BAIT_EDGES:
        if edge not in edges:
            failures.append(
                f"lock graph missing seeded edge {edge[0]} -> {edge[1]} "
                f"(got: {sorted(edges)})")

    n_expected = len(expected) + len(expected_file)
    if failures:
        for msg in failures:
            print(f"codslint self-test: FAIL: {msg}")
        print(f"codslint self-test: {len(failures)} failure(s) over "
              f"{len(index.files)} corpus files")
        return 1
    print(f"codslint self-test: OK — {n_expected} expected findings fired, "
          f"{len(suppressed)} suppressed, {len(lock_graph.edges)} lock "
          f"edges, {len(index.files)} corpus files")
    return 0


def _rel(path: str, root: pathlib.Path) -> str:
    try:
        return str(pathlib.Path(path).relative_to(root))
    except ValueError:
        return path
