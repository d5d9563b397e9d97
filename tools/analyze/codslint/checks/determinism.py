"""determinism — no unordered-container iteration feeding canonical output.

Hash-map iteration order depends on libstdc++ version, insertion history
and pointer values. The repo's golden artifacts (Metrics::report, trace
export, checkpoint serialization, dump_hierarchy) promise byte-identical
output for equal inputs, so any range-for over an unordered_map/set inside
a canonical-output function is a latent golden-test flake — it works until
a rehash reorders it. cods::FlatTable counts as unordered too: its entry
order follows the insert/erase history.

Scope: functions whose name marks them as producing canonical output
(report / serialize / export* / dump* / to_json / to_string / write* /
render* / format* / print* / trace_string / hierarchy). Iteration whose
result provably cannot depend on order (commutative merge into a sorted
map, max/sum reductions) is fine — mark those sites
`// codslint-allow(determinism): <why order washes out>`.

The sequence's type resolves through locals, fields (incl. bases) and type
aliases, so `for (auto& [k, v] : shard.times)` is caught even though the
unordered_map is three indirections away in another header.
"""

from __future__ import annotations

import re

from ..model import CodeIndex, FunctionDef, RangeFor
from ..registry import Check, Finding, register

UNORDERED_HEADS = {
    "std::unordered_map", "std::unordered_set",
    "std::unordered_multimap", "std::unordered_multiset",
    # src/common/flat_table.hpp: iterates its dense entries in insertion
    # and erase-history order.
    "FlatTable", "cods::FlatTable",
}

CANONICAL_FN_RE = re.compile(
    r"^(report|serialize|deserialize|to_json|to_string|trace_string|"
    r"hierarchy|dump\w*|export\w*|write\w*|render\w*|format\w*|print\w*)$")


@register
class DeterminismCheck(Check):
    name = "determinism"
    description = ("unordered-container iteration banned in canonical-"
                   "output functions (report/serialize/export/dump/...)")

    def run(self, index: CodeIndex) -> list[Finding]:
        findings: list[Finding] = []
        for defs in index.functions.values():
            for fn in defs:
                if not CANONICAL_FN_RE.match(fn.name):
                    continue
                for loop in fn.range_fors:
                    f = self._classify(index, fn, loop)
                    if f is not None:
                        findings.append(f)
        findings.sort(key=lambda f: (f.file, f.line))
        return findings

    def _classify(self, index: CodeIndex, fn: FunctionDef,
                  loop: RangeFor) -> Finding | None:
        seq = [t for t in loop.seq if t.text not in ("(", ")")]
        if not seq:
            return None
        at = loop.body_range[0]
        t = index.resolve_expr_type(seq, fn, at)
        if t is None:
            return None
        head = index.type_head(t)
        if head not in UNORDERED_HEADS:
            return None
        expr = "".join(tok.text for tok in seq)
        return Finding(
            self.name, loop.file, loop.line,
            f"iteration over {head} in canonical-output function; hash "
            "order leaks into the artifact — iterate a sorted view, or "
            "allow-mark if the reduction is order-independent",
            f"{fn.qualname}: {expr}")
