#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "dart/dart.hpp"
#include "fault/fault.hpp"

namespace cods {
namespace {

FaultSpec transient_spec(double p, u64 seed = 7) {
  FaultSpec spec;
  spec.seed = seed;
  spec.p_transfer = p;
  spec.p_rpc = p;
  spec.p_send = p;
  return spec;
}

TEST(FaultInjector, SameSpecSameTrace) {
  // The acceptance property: identical {seed, schedule} and identical
  // per-actor op streams yield an identical trace, independent of thread
  // interleaving.
  const auto drive = [](FaultInjector& injector) {
    std::vector<std::thread> actors;
    for (i32 actor = 0; actor < 4; ++actor) {
      actors.emplace_back([&injector, actor] {
        for (i32 op = 0; op < 200; ++op) {
          try {
            (void)injector.on_op(FaultSite::kGet, actor, actor % 2,
                                 (actor + 1) % 2);
          } catch (const NodeDownError&) {
          }
        }
      });
    }
    for (auto& t : actors) t.join();
  };
  FaultInjector a(transient_spec(0.05));
  FaultInjector b(transient_spec(0.05));
  a.begin_wave(0);
  b.begin_wave(0);
  drive(a);
  drive(b);
  EXPECT_FALSE(a.trace().empty());
  EXPECT_EQ(a.trace(), b.trace());
  EXPECT_EQ(a.trace_string(), b.trace_string());
}

TEST(FaultInjector, DifferentSeedDifferentTrace) {
  FaultInjector a(transient_spec(0.05, 1));
  FaultInjector b(transient_spec(0.05, 2));
  a.begin_wave(0);
  b.begin_wave(0);
  for (i32 op = 0; op < 500; ++op) {
    (void)a.on_op(FaultSite::kGet, 0, 0, 1);
    (void)b.on_op(FaultSite::kGet, 0, 0, 1);
  }
  EXPECT_NE(a.trace(), b.trace());
}

TEST(FaultInjector, TransientRateTracksProbability) {
  FaultInjector injector(transient_spec(0.1));
  injector.begin_wave(0);
  i32 failures = 0;
  for (i32 op = 0; op < 5000; ++op) {
    if (injector.on_op(FaultSite::kSend, 0, 0, 1)) ++failures;
  }
  EXPECT_GT(failures, 5000 * 0.05);
  EXPECT_LT(failures, 5000 * 0.2);
}

TEST(FaultInjector, ZeroProbabilityNeverFails) {
  FaultInjector injector(transient_spec(0.0));
  injector.begin_wave(0);
  for (i32 op = 0; op < 1000; ++op) {
    EXPECT_FALSE(injector.on_op(FaultSite::kGet, 0, 0, 1));
  }
  EXPECT_TRUE(injector.trace().empty());
}

TEST(FaultInjector, CrashScheduleTriggersAtOpCount) {
  FaultSpec spec;
  spec.crashes.push_back(NodeCrash{/*wave=*/1, /*node=*/2, /*after_ops=*/5});
  FaultInjector injector(spec);

  // Wrong wave: the schedule is inert.
  injector.begin_wave(0);
  for (i32 op = 0; op < 10; ++op) {
    EXPECT_FALSE(injector.on_op(FaultSite::kGet, 0, 0, 1));
  }
  EXPECT_FALSE(injector.is_dead(2));

  injector.begin_wave(1);
  for (i32 op = 0; op < 5; ++op) {
    EXPECT_FALSE(injector.on_op(FaultSite::kGet, 0, 0, 1));
  }
  EXPECT_FALSE(injector.is_dead(2));
  (void)injector.on_op(FaultSite::kGet, 0, 0, 1);
  EXPECT_TRUE(injector.is_dead(2));
  EXPECT_EQ(injector.dead_nodes(), (std::set<i32>{2}));

  // Ops touching the dead node now throw, with the node attached.
  try {
    (void)injector.on_op(FaultSite::kGet, 0, 0, 2);
    FAIL() << "expected NodeDownError";
  } catch (const NodeDownError& e) {
    EXPECT_EQ(e.node(), 2);
  }
  EXPECT_THROW((void)injector.on_op(FaultSite::kPut, 0, 2, 1), NodeDownError);
  // Control RPCs never observe a dead remote (the lookup service is
  // assumed highly available) — only a dead origin.
  EXPECT_NO_THROW((void)injector.on_op(FaultSite::kRpc, 0, 0, 2));
  EXPECT_THROW((void)injector.on_op(FaultSite::kRpc, 0, 2, 0), NodeDownError);

  // Deadness persists into later waves.
  injector.begin_wave(2);
  EXPECT_TRUE(injector.is_dead(2));
}

TEST(FaultInjector, DeclareDeadRecordsCrashEvent) {
  FaultInjector injector(FaultSpec{});
  injector.begin_wave(3);
  injector.declare_dead(1);
  injector.declare_dead(1);  // idempotent
  const auto trace = injector.trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(trace[0].node, 1);
  EXPECT_EQ(trace[0].wave, 3);
}

TEST(RetryPolicy, BackoffGrowsAndJitterIsDeterministic) {
  RetryPolicy policy;
  policy.backoff_base = 1e-3;
  policy.backoff_multiplier = 2.0;
  policy.jitter_frac = 0.25;
  double prev = 0.0;
  for (i32 attempt = 1; attempt <= 5; ++attempt) {
    const double d = policy.backoff(attempt, /*key=*/42);
    const double nominal = 1e-3 * std::pow(2.0, attempt - 1);
    EXPECT_GE(d, nominal * 0.75);
    EXPECT_LE(d, nominal * 1.25);
    EXPECT_GT(d, prev);  // growth dominates max jitter at multiplier 2
    EXPECT_EQ(d, policy.backoff(attempt, 42));  // replayable
    prev = d;
  }
  EXPECT_NE(policy.backoff(1, 1), policy.backoff(1, 2));
}

/// A one-op pull of the whole remote window `key` into `dst`, accounted
/// as `dst.size()` bytes of app 1's `cls` traffic.
double pull_one(HybridDart& dart, const Endpoint& local,
                const Endpoint& remote, u64 key, std::span<std::byte> dst,
                TrafficClass cls = TrafficClass::kInterApp) {
  PullOp op{local, remote, key, dst.size(), /*app_id=*/1, cls,
            [dst](std::span<const std::byte> w) {
              std::memcpy(dst.data(), w.data(), dst.size());
            }};
  return dart.pull(std::span(&op, 1));
}

class DartFaultTest : public ::testing::Test {
 protected:
  Cluster cluster_{ClusterSpec{.num_nodes = 2, .cores_per_node = 2}};
  Metrics metrics_;
  HybridDart dart_{cluster_, metrics_};
  Endpoint local_{0, {0, 0}};
  Endpoint remote_{1, {1, 0}};
};

TEST_F(DartFaultTest, TransientPullRetriedAndAccounted) {
  std::vector<std::byte> window(64);
  dart_.expose(remote_.client_id, /*key=*/9, window);
  std::vector<std::byte> dst(64);

  // p = 1 up to the retry budget would exhaust; use a seed/probability where
  // some ops fail at least once but eventually succeed.
  FaultInjector injector(transient_spec(0.3));
  injector.begin_wave(0);
  RetryPolicy retry;
  retry.max_retries = 20;  // effectively never exhausts at p = 0.3
  dart_.set_fault(&injector, retry);

  double clean_time = -1.0;
  u64 retries = 0;
  for (i32 op = 0; op < 50; ++op) {
    const double t = pull_one(dart_, local_, remote_, 9, dst);
    if (metrics_.count(1, "fault.retries") == retries) {
      clean_time = t;  // no retry: the base cost of this op
    }
    retries = metrics_.count(1, "fault.retries");
  }
  EXPECT_GT(retries, 0u);
  EXPECT_EQ(metrics_.count(1, "fault.exhausted"), 0u);
  // Retry traffic shows up in the byte ledger: more bytes moved than the
  // 50 successful op payloads alone.
  EXPECT_GT(metrics_.counters(1, TrafficClass::kInterApp).net_bytes,
            50u * 64u);
  EXPECT_EQ(metrics_.counters(1, TrafficClass::kInterApp).net_bytes,
            (50u + retries) * 64u);
  // Backoff delay is accounted as modelled time.
  EXPECT_GT(metrics_.time(1, "fault.backoff"), 0.0);
  EXPECT_GT(clean_time, 0.0);
}

TEST_F(DartFaultTest, ExhaustedRetriesThrow) {
  std::vector<std::byte> window(16);
  dart_.expose(remote_.client_id, 3, window);
  std::vector<std::byte> dst(16);

  FaultInjector injector(transient_spec(1.0));  // every attempt fails
  injector.begin_wave(0);
  RetryPolicy retry;
  retry.max_retries = 2;
  dart_.set_fault(&injector, retry);
  EXPECT_THROW(pull_one(dart_, local_, remote_, 3, dst), Error);
  EXPECT_EQ(metrics_.count(1, "fault.exhausted"), 1u);
  EXPECT_EQ(metrics_.count(1, "fault.retries"), 2u);
}

TEST_F(DartFaultTest, ExhaustionThrowsTypedError) {
  // Exhaustion is a *typed* error carrying the site and the retry budget,
  // so recovery code can tell it apart from crashes without string-matching.
  std::vector<std::byte> window(16);
  dart_.expose(remote_.client_id, 3, window);
  std::vector<std::byte> dst(16);
  FaultInjector injector(transient_spec(1.0));
  injector.begin_wave(0);
  RetryPolicy retry;
  retry.max_retries = 2;
  dart_.set_fault(&injector, retry);
  try {
    pull_one(dart_, local_, remote_, 3, dst);
    FAIL() << "expected RetriesExhaustedError";
  } catch (const RetriesExhaustedError& e) {
    EXPECT_EQ(e.site(), FaultSite::kPull);
    EXPECT_EQ(e.retries(), 2);
    EXPECT_STREQ(e.what(),
                 "transient pull failure persisted after 2 retries");
  }
  // Every site reports itself: exhaust an rpc too.
  try {
    (void)dart_.rpc(local_, remote_, 3);
    FAIL() << "expected RetriesExhaustedError";
  } catch (const RetriesExhaustedError& e) {
    EXPECT_EQ(e.site(), FaultSite::kRpc);
  }
}

TEST_F(DartFaultTest, SendRetriesChargeTheSenderAndExhaustTyped) {
  FaultInjector injector(transient_spec(1.0));  // every attempt fails
  injector.begin_wave(0);
  RetryPolicy retry;
  retry.max_retries = 2;
  dart_.set_fault(&injector, retry);
  const Endpoint sender{6, local_.loc};
  const Endpoint receiver{9, remote_.loc};
  try {
    dart_.send(sender, receiver, 1, 64);
    FAIL() << "expected RetriesExhaustedError";
  } catch (const RetriesExhaustedError& e) {
    EXPECT_EQ(e.site(), FaultSite::kSend);
  }
  // Every dropped attempt crossed the fabric, sender to receiver, as
  // intra-app traffic of the sender's app; the sender is the fault actor.
  EXPECT_EQ(metrics_.counters(1, TrafficClass::kIntraApp).net_bytes, 3u * 64u);
  EXPECT_EQ(metrics_.count(1, "fault.retries"), 2u);
  EXPECT_EQ(metrics_.count(1, "fault.exhausted"), 1u);
  EXPECT_EQ(injector.trace_string(),
            "wave 0 transient send actor 6 op 1\n"
            "wave 0 transient send actor 6 op 2\n"
            "wave 0 transient send actor 6 op 3\n");
  // A self-send is admitted (and may fail) but moves no bytes.
  EXPECT_THROW(dart_.send(sender, sender, 1, 64), RetriesExhaustedError);
  EXPECT_EQ(metrics_.counters(1, TrafficClass::kIntraApp).total(), 3u * 64u);
}

TEST(RetryPolicy, BackoffIsPureFunctionOfAttemptAndKey) {
  // Two independently constructed policies with equal parameters must agree
  // on every (attempt, key): backoff is replay-deterministic state-free.
  RetryPolicy a;
  RetryPolicy b;
  for (i32 attempt = 1; attempt <= 6; ++attempt) {
    for (const u64 key : {u64{0}, u64{1}, u64{0xdeadbeef}, ~u64{0}}) {
      EXPECT_EQ(a.backoff(attempt, key), b.backoff(attempt, key))
          << "attempt " << attempt << " key " << key;
      const double nominal =
          a.backoff_base * std::pow(a.backoff_multiplier, attempt - 1);
      EXPECT_GE(a.backoff(attempt, key), nominal * (1.0 - a.jitter_frac));
      EXPECT_LE(a.backoff(attempt, key), nominal * (1.0 + a.jitter_frac));
    }
  }
}

TEST_F(DartFaultTest, DeadRemoteThrowsNodeDown) {
  std::vector<std::byte> window(16);
  dart_.expose(remote_.client_id, 3, window);
  std::vector<std::byte> dst(16);
  FaultInjector injector(FaultSpec{});
  injector.begin_wave(0);
  injector.declare_dead(1);
  dart_.set_fault(&injector, RetryPolicy{});
  EXPECT_THROW(pull_one(dart_, local_, remote_, 3, dst), NodeDownError);
}

TEST_F(DartFaultTest, NoInjectorIsByteIdenticalToInactiveInjector) {
  // Zero-overhead-off acceptance: traffic with no injector equals traffic
  // with an attached injector whose probabilities are all zero.
  const auto run_ops = [](Metrics& metrics, FaultInjector* injector) {
    Cluster cluster{ClusterSpec{.num_nodes = 2, .cores_per_node = 2}};
    HybridDart dart{cluster, metrics};
    if (injector != nullptr) {
      injector->begin_wave(0);
      dart.set_fault(injector, RetryPolicy{});
    }
    std::vector<std::byte> window(128);
    dart.expose(1, 4, window);
    const Endpoint local{0, {0, 0}};
    const Endpoint remote{1, {1, 0}};
    std::vector<std::byte> buf(128);
    pull_one(dart, local, remote, 4, buf);
    pull_one(dart, local, remote, 4, buf, TrafficClass::kIntraApp);
    dart.rpc(local, remote, 3);
  };
  Metrics off;
  run_ops(off, nullptr);
  Metrics on;
  FaultInjector inactive(transient_spec(0.0));
  run_ops(on, &inactive);
  for (const TrafficClass cls :
       {TrafficClass::kInterApp, TrafficClass::kIntraApp,
        TrafficClass::kControl}) {
    EXPECT_EQ(off.counters(1, cls).net_bytes, on.counters(1, cls).net_bytes);
    EXPECT_EQ(off.counters(1, cls).shm_bytes, on.counters(1, cls).shm_bytes);
    EXPECT_EQ(off.counters(0, cls).net_bytes, on.counters(0, cls).net_bytes);
  }
  EXPECT_EQ(on.total_count("fault.retries"), 0u);
  EXPECT_TRUE(inactive.trace().empty());
}

TEST(FaultSite, NamesCoverEverySiteAndRejectUnknown) {
  EXPECT_EQ(to_string(FaultSite::kGet), "get");
  EXPECT_EQ(to_string(FaultSite::kPut), "put");
  EXPECT_EQ(to_string(FaultSite::kPull), "pull");
  EXPECT_EQ(to_string(FaultSite::kRpc), "rpc");
  EXPECT_EQ(to_string(FaultSite::kSend), "send");
  EXPECT_EQ(to_string(static_cast<FaultSite>(99)), "?");
}

TEST(FaultEvent, DefaultIsTransientWithNoNode) {
  const FaultEvent e;
  EXPECT_EQ(e.kind, FaultKind::kTransient);
  EXPECT_EQ(e.node, -1);
  EXPECT_EQ(e.op_index, 0u);
  EXPECT_EQ(e.site, FaultSite::kGet);
}

TEST(FaultInjector, WaveAccessorTracksBeginWave) {
  FaultInjector injector(FaultSpec{});
  injector.begin_wave(5);
  EXPECT_EQ(injector.wave(), 5);
  injector.begin_wave(6);
  EXPECT_EQ(injector.wave(), 6);
}

TEST(FaultInjector, UnknownSiteHasZeroFailureProbability) {
  // An out-of-range site maps to probability 0: the injector treats it
  // as infallible rather than crashing or failing spuriously.
  FaultInjector injector(transient_spec(1.0));
  injector.begin_wave(0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(injector.on_op(static_cast<FaultSite>(99), 0, 0, 1));
  }
  EXPECT_TRUE(injector.trace().empty());
}

TEST(FaultInjector, TraceStringNamesCrashes) {
  FaultInjector injector(FaultSpec{});
  injector.begin_wave(2);
  injector.declare_dead(3);
  EXPECT_EQ(injector.trace_string(), "wave 2 crash node 3\n");
}

}  // namespace
}  // namespace cods
