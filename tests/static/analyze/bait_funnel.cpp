// Bait for the funnel check (tools/analyze/codslint/checks/funnel.py).
//
// Mimics the real shape: Metrics / TransferLog sinks, a TraceContext with
// ledger-flagged leaves, one audited funnel (HybridDart::record) that may
// call the sinks, and a rogue subsystem that grows its own accounting
// path. Self-contained on purpose — the self-test corpus never includes
// src/ headers, so it pins the bundled frontend alone.

namespace bait_funnel {

constexpr unsigned kLedger = 1u;

struct Metrics {
  void record(int app, long bytes) { total_ += bytes + app; }
  long total_ = 0;
};

struct TransferLog {
  void record(long bytes) { journaled_ += bytes; }
  long journaled_ = 0;
};

struct TraceContext {
  void leaf(unsigned flags, long bytes) { last_ = flags + bytes; }
  long last_ = 0;
};

// The audited funnel: sink calls inside it are the whole point.
struct HybridDart {
  Metrics metrics_;
  TransferLog log_;
  TraceContext trace_;
  void record(int app, long bytes) {
    metrics_.record(app, bytes);
    log_.record(bytes);
    trace_.leaf(kLedger, bytes);
  }
};

// A rogue subsystem growing a second accounting path: every sink call
// here must fire.
struct RogueChannel {
  Metrics metrics_;
  TransferLog log_;
  TraceContext trace_;
  void send(int app, long bytes) {
    metrics_.record(app, bytes);   // codslint-expect(funnel)
    log_.record(bytes);            // codslint-expect(funnel)
    trace_.leaf(kLedger, bytes);   // codslint-expect(funnel)
  }
  void send_quiet(long bytes) {
    // Non-ledger trace leaves are not byte accounting: must NOT fire.
    trace_.leaf(0u, bytes);
  }
};

}  // namespace bait_funnel
