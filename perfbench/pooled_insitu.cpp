// pooled_insitu: a live kPooled concurrent bundle (exec_pool_size = 4,
// data-centric server mapping). A 3-D heat stencil on 4x4x4 ranks is
// coupled to a moments analysis on 2x2x2 ranks over a 128^3-double
// domain. Each iteration does a halo exchange, put_cont and get_cont, the
// analysis allreduces, and retire_older_than(var, 2) beside the puts and
// gets on the same store. Real threads and a real memcpy data plane put
// the executor, mailboxes, locks, the cont rendezvous, the transports and
// the metrics shards under contention; the fiber scheduler and the DHT
// stay idle. A step is one coupled iteration, timed from analysis rank 0
// finishing iteration i-1 to finishing i.
#include "bodies.hpp"
#include "paper_config.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace cods;

class PooledInsitu final : public Workload {
 public:
  explicit PooledInsitu(const Config& config)
      : extent_(config.smoke ? 32 : 128), iterations_(config.smoke ? 8 : 50) {}

  Recorder::Clock clock() const override { return Recorder::Clock::kThreadCpu; }
  /// The stencil runs up to kAckLag iterations ahead of the analysis, so
  /// an iteration's time is not its own cost.
  bool steps_are_units() const override { return false; }

  void setup() override {
    const std::vector<i64> extents = {extent_, extent_, extent_};
    cluster_ = std::make_unique<Cluster>(bench::cluster_for_cores(tasks()));
    metrics_ = std::make_unique<Metrics>();
    server_ = std::make_unique<WorkflowServer>(
        *cluster_, *metrics_,
        Box{{0, 0, 0}, {extent_ - 1, extent_ - 1, extent_ - 1}});
    rows_ = std::make_shared<std::vector<Moments>>(
        static_cast<size_t>(iterations_));
    iteration_ends_.clear();
    iteration_ends_.reserve(static_cast<size_t>(iterations_));
    CodsSpace* space = &server_->space();
    server_->register_app(bench::app(1, "heat", extents, {4, 4, 4}),
                          stencil({"temperature", iterations_, 0.1, space}));
    server_->register_app(
        bench::app(2, "moments", extents, {2, 2, 2}),
        moments({"temperature", iterations_, rows_, space, &iteration_ends_}));
    dag_ = DagSpec{};
    dag_.add_app(1);
    dag_.add_app(2);
    dag_.add_bundle({1, 2});
    options_.strategy = MappingStrategy::kDataCentric;
    options_.exec_mode = ExecMode::kPooled;
    options_.exec_pool_size = 4;
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
    batch.marks = iteration_ends_;

    const std::string p = "extent" + std::to_string(extent_) + ".";
    Outputs out;
    for (size_t i = 0; i < rows_->size(); ++i) {
      const Moments& m = (*rows_)[i];
      const std::string row = p + "iter" + std::to_string(i) + ".";
      out.add(row + "min", m.min);
      out.add(row + "max", m.max);
      out.add(row + "mean", m.mean);
    }
    std::map<std::string, double> dart;
    add_dart_counters(*metrics_, dart);
    for (const auto& [key, value] : dart) {
      out.add(p + key, static_cast<u64>(value));
    }
    batch.check(pins, p, out, static_cast<u64>(tasks()));

    add_dart_counters(*metrics_, batch.layer);
    batch.layer["workflow.waves"] +=
        static_cast<double>(server_->wave_reports().size());
  }

 private:
  static i32 tasks() { return 64 + 8; }

  i64 extent_;
  i32 iterations_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Metrics> metrics_;
  std::unique_ptr<WorkflowServer> server_;
  std::shared_ptr<std::vector<Moments>> rows_;
  std::vector<Mark> iteration_ends_;
  DagSpec dag_;
  WorkflowOptions options_;
  std::string error_;
};

}  // namespace

std::unique_ptr<Workload> make_pooled_insitu(const Config& config) {
  return std::make_unique<PooledInsitu>(config);
}

}  // namespace perfbench
