"""clock — wall-clock reads and ambient randomness banned in model code.

The platform model is a pure function of its inputs: simulated time comes
from the cost model, seeds come from explicit config (FaultSpec::seed,
SplitMix in common/rng.hpp). A single wall-clock read or libc-random call
in model code makes traces non-reproducible and breaks the bit-identical
golden-trace suite. Aliases resolve: `using Now =
std::chrono::system_clock;` is caught at every use site.

std::chrono::steady_clock is confined to common/sync.hpp: recv-timeout
deadlines are liveness bounds, not model inputs, but under
ExecMode::kSimulate a steady_clock read outside the WaitDeadline funnel
silently turns a virtual-time wait into a wall-time one (the 1M-rank
scaling work in docs/SIMULATION.md relies on waits never touching the
wall clock). Timed waits go through cods::WaitDeadline +
CondVar::wait_until, which keep the clock type inside the funnel header.

Per-site exceptions use `// codslint-allow(clock): <why>`.
"""

from __future__ import annotations

from ..model import CodeIndex
from ..registry import Check, Finding, register
from . import util

# The one header allowed to name steady_clock: the WaitDeadline /
# CondVar funnel that converts timeouts to virtual deadlines under a
# SimHook.
STEADY_EXEMPT_SUFFIXES = ("src/common/sync.hpp",)

STEADY_TYPES = {
    "std::chrono::steady_clock":
        "steady_clock outside common/sync.hpp; timed waits must go "
        "through cods::WaitDeadline so simulate mode arms a virtual "
        "deadline instead of a wall one (docs/SIMULATION.md)",
}

BANNED_TYPES = {
    "std::chrono::system_clock":
        "wall clock in model code; model time comes from the cost model "
        "(steady_clock is allowed for liveness deadlines)",
    "std::chrono::high_resolution_clock":
        "high_resolution_clock may alias the wall clock; use steady_clock "
        "for liveness deadlines or the cost model for model time",
    "std::random_device":
        "non-deterministic seed source; seeds come from explicit config "
        "(FaultSpec::seed, common/rng.hpp)",
}

BANNED_CALLS = {
    "gettimeofday": "wall clock in model code; model time comes from the "
                    "cost model",
    "clock_gettime": "wall clock in model code; model time comes from the "
                     "cost model",
    "localtime": "wall-clock derived; model code must be reproducible",
    "gmtime": "wall-clock derived; model code must be reproducible",
    "rand": "libc randomness; seeds must come from explicit config "
            "(common/rng.hpp SplitMix)",
    "srand": "libc randomness; seeds must come from explicit config",
    "drand48": "libc randomness; seeds must come from explicit config",
}


@register
class ClockCheck(Check):
    name = "clock"
    description = ("wall-clock reads and ambient randomness banned in "
                   "model code (steady_clock allowed)")

    def run(self, index: CodeIndex) -> list[Finding]:
        findings: list[Finding] = []
        seen: set[tuple[str, int, str]] = set()
        for path, tok, canonical, msg in util.scan_qualified(
                index, BANNED_TYPES):
            key = (path, tok.line, canonical)
            if key not in seen:
                seen.add(key)
                findings.append(Finding(self.name, path, tok.line, msg,
                                        canonical))
        for path, tok, canonical, msg in util.scan_qualified(
                index, STEADY_TYPES):
            if path.endswith(STEADY_EXEMPT_SUFFIXES):
                continue
            key = (path, tok.line, canonical)
            if key not in seen:
                seen.add(key)
                findings.append(Finding(self.name, path, tok.line, msg,
                                        canonical))
        for path, tok, name in util.scan_calls(index, set(BANNED_CALLS)):
            key = (path, tok.line, name)
            if key not in seen:
                seen.add(key)
                findings.append(Finding(self.name, path, tok.line,
                                        BANNED_CALLS[name], name))
        # time(nullptr) / time(NULL) / time(0): the bare name `time` is far
        # too common for scan_calls, so match the exact argument shapes.
        for path, lf in index.files.items():
            toks = lf.tokens
            for i, t in enumerate(toks):
                if t.kind != "ident" or t.text != "time":
                    continue
                if i > 0 and toks[i - 1].text in (".", "->", "::"):
                    continue
                if i + 3 < len(toks) and toks[i + 1].text == "(" and \
                        toks[i + 2].text in ("nullptr", "NULL", "0") and \
                        toks[i + 3].text == ")":
                    key = (path, t.line, "time")
                    if key not in seen:
                        seen.add(key)
                        findings.append(Finding(
                            self.name, path, t.line,
                            "wall clock in model code; model time comes "
                            "from the cost model", "time"))
        findings.sort(key=lambda f: (f.file, f.line))
        return findings
