// sim_weak: the Fig. 16 `--simulate` rung at side = 256 under kSimulate on
// one thread with round-robin mapping. 65,536 producer ranks each put_seq
// a 2x2-cell block, then 16,384 consumer ranks get_seq and verify it.
// Per-rank constant costs dominate: fiber switches, stacks, the store/index
// put path, DHT registration and batch-time pulls. A step is kStepBodies
// consecutive rank bodies, timed from the completion of the body before
// them to the completion of their last.
#include "bodies.hpp"
#include "paper_config.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace cods;

/// Rank bodies per step: a rank body takes a few microseconds, too little
/// to time one by one.
constexpr size_t kStepBodies = 1024;

/// The fig16 simulate cluster: a near-cubic torus with just enough
/// volume, so routes stay short whatever the rung's node count.
ClusterSpec simulate_cluster(i32 cores) {
  ClusterSpec spec = bench::cluster_for_cores(cores);
  i32 a = 1;
  while (a * a * a < spec.num_nodes) ++a;
  const i32 c = (spec.num_nodes + a * a - 1) / (a * a);
  spec.torus = {a, a, c};
  return spec;
}

class SimWeak final : public Workload {
 public:
  explicit SimWeak(const Config& config)
      : side_(config.smoke ? 32 : 256), seed_(config.pattern_seed) {}

  Recorder::Clock clock() const override { return Recorder::Clock::kTimeline; }
  /// A step is a slice of one wave whose fibers interleave, and the sum of
  /// the slices' fastest times spread twice as much across runs as the
  /// median batch did.
  bool steps_are_units() const override { return false; }

  void setup() override {
    const i64 extent = 2 * static_cast<i64>(side_);
    cluster_ = std::make_unique<Cluster>(simulate_cluster(side_ * side_));
    metrics_ = std::make_unique<Metrics>();
    server_ = std::make_unique<WorkflowServer>(
        *cluster_, *metrics_, Box{{0, 0}, {extent - 1, extent - 1}});
    mismatches_ = std::make_shared<std::atomic<u64>>(0);
    completions_.clear();
    completions_.reserve(static_cast<size_t>(tasks()));
    PatternCfg pattern{{"field"}, 1, /*sequential=*/true, seed_, mismatches_,
                       &completions_};
    server_->register_app(
        bench::app(1, "producer", {extent, extent}, {side_, side_}),
        pattern_producer(pattern));
    server_->register_app(
        bench::app(2, "consumer", {extent, extent}, {side_ / 2, side_ / 2}),
        pattern_consumer(pattern), /*consumes_var=*/"field");
    dag_ = DagSpec{};
    dag_.add_app(1);
    dag_.add_app(2);
    dag_.add_dependency(1, 2);
    options_.strategy = MappingStrategy::kRoundRobin;
    options_.exec_mode = ExecMode::kSimulate;
  }

  void run() override {
    try {
      run_workflow(*server_, dag_, options_);
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  void collect(const Pins& pins, Batch& batch) override {
    batch.attempted += static_cast<u64>(tasks());
    if (!error_.empty()) batch.fail(static_cast<u64>(tasks()), error_);
    for (size_t i = kStepBodies - 1; i < completions_.size(); i += kStepBodies) {
      batch.marks.push_back(completions_[i]);
    }

    const std::string p = "side" + std::to_string(side_) + ".";
    const ByteCounters inter = metrics_->counters(2, TrafficClass::kInterApp);
    const SimStats& sim = server_->last_sim_stats();
    Outputs out;
    out.add(p + "mismatches", mismatches_->load());
    out.add(p + "inter_shm_bytes", inter.shm_bytes);
    out.add(p + "inter_net_bytes", inter.net_bytes);
    out.add(p + "stored_bytes", server_->space().stored_bytes());
    out.add(p + "final_vtime", sim.final_vtime);
    std::map<std::string, double> dart;
    add_dart_counters(*metrics_, dart);
    for (const auto& [key, value] : dart) {
      out.add(p + key, static_cast<u64>(value));
    }
    batch.check(pins, p, out, static_cast<u64>(tasks()));

    add_sim_stats(sim, batch.layer);
    add_dart_counters(*metrics_, batch.layer);
    batch.layer["core.stored_mb"] +=
        static_cast<double>(server_->space().stored_bytes()) /
        (1024.0 * 1024.0);
    batch.layer["workflow.waves"] +=
        static_cast<double>(server_->wave_reports().size());
  }

 private:
  i32 tasks() const { return side_ * side_ + (side_ / 2) * (side_ / 2); }

  i32 side_;
  u64 seed_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Metrics> metrics_;
  std::unique_ptr<WorkflowServer> server_;
  std::shared_ptr<std::atomic<u64>> mismatches_;
  std::vector<Mark> completions_;
  DagSpec dag_;
  WorkflowOptions options_;
  std::string error_;
};

}  // namespace

std::unique_ptr<Workload> make_sim_weak(const Config& config) {
  return std::make_unique<SimWeak>(config);
}

}  // namespace perfbench
