"""funnel — every byte of traffic flows through the audited funnel.

Metrics byte counters, the TransferLog journal and ledger-flagged trace
leaves are three accountings of the same traffic, and they can only stay
exactly equal because one choke point writes all three. This check
machine-enforces it: a call to `Metrics::record`, `TransferLog::record`,
or a `TraceContext::leaf` carrying `TraceFlags::kLedger` may only appear
inside `HybridDart::record` — the funnel of the one transport that every
payload crosses, dart pulls and vmpi sends alike — so a new subsystem
cannot grow a second, drift-prone accounting path.

Receivers are resolved through field types and method return types
(`runtime_->metrics().record(...)` resolves to cods::Metrics), so renaming
a local variable or stacking a wrapper does not evade the check.
"""

from __future__ import annotations

from ..model import CodeIndex, FunctionDef, CallSite
from ..registry import Check, Finding, register

# Method calls that mutate one of the three byte accountings, keyed by the
# canonical receiver class (bare name — the canonicalizer strips cods::).
SINK_METHODS = {
    ("Metrics", "record"),
    ("TransferLog", "record"),
}

# Functions allowed to call the sinks (qualname suffix match): the audited
# funnel. Every payload, vmpi sends included, crosses HybridDart.
FUNNEL_FUNCTIONS = (
    "HybridDart::record",
)

LEDGER_FLAG = "kLedger"


def _is_funnel(fn: FunctionDef) -> bool:
    return any(fn.qualname.endswith(suffix) for suffix in FUNNEL_FUNCTIONS)


@register
class FunnelCheck(Check):
    name = "funnel"
    description = ("byte-accounting sinks (Metrics::record, "
                   "TransferLog::record, kLedger trace leaves) only inside "
                   "the audited funnel")

    def run(self, index: CodeIndex) -> list[Finding]:
        findings: list[Finding] = []
        for defs in index.functions.values():
            for fn in defs:
                if _is_funnel(fn):
                    continue
                for call in fn.calls:
                    f = self._classify(index, fn, call)
                    if f is not None:
                        findings.append(f)
        findings.sort(key=lambda f: (f.file, f.line))
        return findings

    def _classify(self, index: CodeIndex, fn: FunctionDef,
                  call: CallSite) -> Finding | None:
        if call.name == "record":
            recv = index.resolve_receiver_class(call, fn)
            if recv is None:
                return None
            bare = recv.rsplit("::", 1)[-1]
            if (bare, call.name) in SINK_METHODS:
                return Finding(
                    self.name, call.file, call.line,
                    f"direct {bare}::record() outside the byte-accounting "
                    "funnel; route through HybridDart::record() so "
                    "metrics, journal and ledger trace cannot drift "
                    "(docs/TRACING.md)",
                    f"{fn.qualname}")
            return None
        if call.name == "leaf":
            lf = index.files.get(call.file)
            if lf is None:
                return None
            args = lf.tokens[call.arg_range[0]:call.arg_range[1]]
            if any(t.kind == "ident" and t.text == LEDGER_FLAG
                   for t in args):
                return Finding(
                    self.name, call.file, call.line,
                    "ledger-flagged trace leaf emitted outside the "
                    "byte-accounting funnel; ledger leaves must come from "
                    "HybridDart::record() or trace-vs-journal "
                    "reconciliation breaks",
                    f"{fn.qualname}")
        return None
