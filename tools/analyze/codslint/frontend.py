"""Index construction: compilation database -> CodeIndex.

The bundled token/AST-index frontend (model.py) is the only engine: it
is what the self-test corpus exercises and what CI gates on, so local
runs and CI see the same index.
"""

from __future__ import annotations

import pathlib
import sys

from . import compdb
from .model import CodeIndex


def build_index(commands: list[compdb.CompileCommand],
                root: pathlib.Path,
                verbose: bool = False) -> CodeIndex:
    """Parse every TU plus its transitively reachable project headers.

    Headers are parsed once even when many TUs include them (the index is
    global and name-keyed, matching how the checks consume it)."""
    index = CodeIndex()
    queue: list[tuple[pathlib.Path, compdb.CompileCommand]] = [
        (c.file, c) for c in commands]
    seen: set[str] = set()
    while queue:
        path, cmd = queue.pop(0)
        key = str(path)
        if key in seen:
            continue
        seen.add(key)
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            index.notes.append(f"unreadable: {path}: {e}")
            continue
        index.add_file(path, text)
        for inc in compdb.local_includes(text, cmd.include_dirs,
                                         path.parent, root):
            if str(inc) not in seen:
                queue.append((inc, cmd))
    index.finish()
    if verbose:
        print(f"codslint: indexed {len(index.files)} files, "
              f"{len(index.classes)} classes, "
              f"{sum(len(d) for d in index.functions.values())} functions",
              file=sys.stderr)
        for note in index.notes:
            print(f"codslint: note: {note}", file=sys.stderr)
    return index

